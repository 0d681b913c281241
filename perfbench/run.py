"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload stock|city|ingest --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The run writes the workload's inputs
from the seed, times the program's set-up in fresh processes, runs the
workload in a worker process (traced or not), checks the outputs, and
prints one JSON object as its last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced runs report the end-to-end metrics of BENCHMARK.json, traced runs
the per-layer ones.  The line before it, starting with ``# ops``, breaks
the round down into its operations.  Scratch output goes to
``perfbench/work/<workload>/`` and is replaced by the next run.
"""

from __future__ import annotations

import os

# pin the BLAS pool before numpy loads, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stock", "city", "ingest")
#: set-up is timed this many times, in fresh processes, and reported as the median
SETUP_PROBES = 5
#: a run must end within this many seconds, checks included
RUN_LIMIT_S = 175.0


def _worker(work, *extra, timeout):
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--work", str(work), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=True)


def run(workload, seed, seconds, trace):
    started = time.monotonic()
    if not (ROOT / "src" / "invarsim").is_dir():
        raise SystemExit(f"no program source at {ROOT / 'src' / 'invarsim'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import checks
    import workloads

    work = HERE / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    spec = workloads.generate(workload, seed, work / "inputs")

    def remaining():
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - started))

    probes = [json.loads(_worker(work, "--probe", timeout=remaining()).stdout)["setup_s"]
              for _ in range(SETUP_PROBES - 1)]
    _worker(work, "--seconds", str(seconds), "--trace", str(trace),
            timeout=remaining())
    result = json.loads((work / "worker_result.json").read_text())
    setup = probes + [result["setup_s"]]

    rounds = result["rounds"]
    ops = [op for ops in rounds for op in ops]
    failed = [op for op in ops if op["error"] is not None]
    per_metric = {}
    walls = []
    for r in rounds:
        totals = {}
        for op in r:
            if op["metric"] is not None:
                totals[op["metric"]] = totals.get(op["metric"], 0.0) + op["seconds"]
        walls.append(sum(totals.values()))
        for k, v in totals.items():
            per_metric.setdefault(k, []).append(v)
    breakdown = {k: statistics.median(v) for k, v in per_metric.items()}

    try:
        fails = checks.CHECKS[workload](spec, work / "round_0", rounds[0])
    except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or broken output
        fails = [f"outputs could not be checked: {type(exc).__name__}: {exc}"]
    for op in failed:
        if op["name"] != "ps_recovery":
            fails.append(f"operation {op['name']} failed: {op['error']}")
    for msg in fails:
        print(f"# check failed: {msg}")
    print("# ops " + json.dumps({"rounds": len(rounds), **breakdown,
                                 "failed": [f"{op['name']}: {op['error']}"
                                            for op in failed]}, sort_keys=True))

    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["per_layer"].items()}
        metrics["trace.wall_s"] = {"value": statistics.median(walls), "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": not fails, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        summary = run(args.workload, args.seed, args.seconds, args.trace)
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr or "")
        raise SystemExit(f"worker exited with code {exc.returncode}")
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker did not finish within {RUN_LIMIT_S:.0f} s")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
