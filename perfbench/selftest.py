"""Self-test of the output checks: each must catch a one-value nudge.

    python3 perfbench/selftest.py [--seed N]

Runs the ``ingest`` and ``city`` workloads once (their checks must pass),
then copies their outputs, changes one manifold value, one depth pixel and
one flow vector, and shows that the matching check fails on each copy.
The depth nudge sits on a pixel the ray caster samples, since that check
looks at a sample of pixels; the flow check covers every pixel.  Exits 0
when every nudge is caught.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the BLAS pool first)
import checks  # noqa: E402
import workloads  # noqa: E402


def _patch_float32(path, offset, delta):
    """Add ``delta`` to the little-endian float32 at byte ``offset``."""
    data = bytearray(Path(path).read_bytes())
    value = np.frombuffer(bytes(data[offset:offset + 4]), dtype="<f4")[0]
    data[offset:offset + 4] = np.array([value + delta], dtype="<f4").tobytes()
    Path(path).write_bytes(bytes(data))


def _pfm_offset(path, row, col):
    data = Path(path).read_bytes()
    (_, w, h, _), header = checks._header_tokens(data, 4)
    w, h = int(w), int(h)
    return header + ((h - 1 - row) * w + col) * 4  # rows are stored bottom-up


def nudge_manifold(spec, out):
    path = out / "OC" / "manifold.csv"
    lines = path.read_text().split("\n")
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[-1] not in ("", "0"):
            cells[-3] = repr(float(cells[-3]) * (1.0 + 1e-6))
            lines[i] = ",".join(cells)
            break
    path.write_text("\n".join(lines))
    return checks.check_ingest(spec, out, [])


def nudge_depth(spec, out):
    city = spec["cities"]["large"]
    ids_path = out / "large" / "frame_0000_object_id.pfm"
    ids = checks.read_pfm(ids_path).astype(np.int64)
    picks = checks.sample_pixels(city["scene_seed"], ids, workloads.CITY_MOVING_OBJECT)
    row, col = next((r, c) for r, c in picks if ids[r, c] >= 0)
    depth = out / "large" / "frame_0000_depth.pfm"
    _patch_float32(depth, _pfm_offset(depth, row, col), 0.01)
    return checks.check_city(spec, out, [])


def nudge_flow(spec, out):
    ids = checks.read_pfm(out / "large" / "frame_0000_object_id.pfm").astype(np.int64)
    rows, cols = np.nonzero(ids == workloads.CITY_MOVING_OBJECT)
    flo = out / "large" / "flow_0000_0001.flo"
    w = ids.shape[1]
    _patch_float32(flo, 12 + (int(rows[0]) * w + int(cols[0])) * 8, 0.01)
    return checks.check_city(spec, out, [])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    caught = True
    for workload, nudges in (("ingest", (nudge_manifold,)),
                             ("city", (nudge_depth, nudge_flow))):
        summary = run.run(workload, args.seed, 0.0, 0)
        print(f"{workload}: unmodified outputs correct={summary['correct']}")
        caught &= summary["correct"]
        work = HERE / "work" / workload
        spec = json.loads((work / "inputs" / "spec.json").read_text())
        for nudge in nudges:
            copy = work / f"selftest_{nudge.__name__}"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(work / "round_0", copy)
            fails = nudge(spec, copy)
            print(f"{workload}: {nudge.__name__}: "
                  + (f"caught: {fails[0]}" if fails else "NOT caught"))
            caught &= bool(fails)
    print("self-test " + ("passed" if caught else "FAILED"))
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
