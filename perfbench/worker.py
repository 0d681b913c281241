"""One workload in its own process: set-up, timed rounds, optional tracing.

Usage (the benchmark's ``run.py`` starts this; it is not meant for hand use):

    python3 perfbench/worker.py --work DIR --seconds S --trace 0|1 [--probe]

``DIR/inputs/spec.json`` names the workload and its inputs.  The worker
times ``import invarsim`` plus the hand-over of the inputs (``setup_s``),
then runs whole rounds of the workload's operations until ``S`` seconds of
rounds have passed, at least one round.  With ``--probe`` it stops after
set-up.  It writes ``DIR/worker_result.json`` (or prints the set-up time in
probe mode) and, when tracing, ``DIR/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def setup(workload, spec, instrument=None):
    """Import the program from this checkout and hand it the inputs.

    ``instrument``, when given, runs between the two, so a traced run sees
    the hand-over too.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import invarsim
    import invarsim.cli  # noqa: F401  (the entry point every operation calls)

    if not Path(invarsim.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"invarsim imported from {invarsim.__file__}, "
                           f"not from {ROOT / 'src'}")
    if instrument:
        instrument()
    workloads.handoff(workload, spec)
    return time.perf_counter() - t0


def run_op(argv):
    """(seconds, error or None) of one CLI command run in-process."""
    t0 = time.perf_counter()
    try:
        code = workloads.quiet_cli(argv)
        error = None if code == 0 else f"exit code {code}"
    except Exception as exc:  # the benchmark counts the failure and goes on
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, error


def recovery(spec, out):
    """Re-sweep PS after one of its cell files was cut in half.

    An interrupted cell write leaves such a file.  Not timed.
    """
    op = {"name": "ps_recovery", "metric": None, "seconds": None,
          "error": "no PS cell cache to cut"}
    fresh = out / "PS"
    cells = sorted((fresh / "cells").glob("cell_*.json"))
    if not cells:
        return op
    target = out / "PS_recovery"
    shutil.copytree(fresh, target)
    cell = target / "cells" / cells[0].name
    data = cell.read_bytes()
    cell.write_bytes(data[: len(data) // 2])
    (target / "manifold.csv").unlink(missing_ok=True)
    _, op["error"] = run_op(["sweep", spec["protocols"]["PS"], "--out-dir",
                                  str(target), "--threads", "1"])
    return op


def run_round(workload, spec, out, nproc):
    out.mkdir(parents=True)
    ops = []
    for metric, argv in workloads.operations(workload, spec, out, nproc):
        seconds, error = run_op(argv)
        ops.append({"name": metric, "metric": metric, "seconds": seconds,
                    "error": error})
        if workload == "stock" and metric in workloads.STOCK_FRESH:
            model = workloads.STOCK_FRESH[metric]
            manifold = out / model / "manifold.csv"
            if manifold.exists():
                shutil.copyfile(manifold, out / f"fresh_{model}.csv")
    if workload == "stock":
        ops.append(recovery(spec, out))
    return ops


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    work = Path(args.work)
    spec = json.loads((work / "inputs" / "spec.json").read_text())
    workload = spec["workload"]
    tracer = geometries = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()

        def instrument():
            nonlocal geometries
            geometries = tracer_mod.instrument(tracer)

    setup_s = setup(workload, spec, instrument if args.trace else None)
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    nproc = len(os.sched_getaffinity(0))

    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < args.seconds:
        out = work / f"round_{len(rounds)}"
        rounds.append(run_round(workload, spec, out, nproc))

    result = {
        "workload": workload,
        "nproc": nproc,
        "setup_s": setup_s,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = tracer_mod.per_layer_metrics(tracer, geometries, len(rounds))
        span_cost = tracer_mod.calibrate_span_cost()
        spans_per_round = len(tracer.spans) / len(rounds)
        layers["trace.spans"] = (spans_per_round, "count")
        layers["trace.overhead_s"] = (spans_per_round * span_cost, "s")
        result["per_layer"] = layers
        tracer.dump(work / "spans.jsonl")
    (work / "worker_result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
