"""Command-line entry point: sample, render, sweep, ingest, compare, report.

All configuration is JSON; every command writes a run manifest describing
its inputs (content hash), seeds, outputs and wall-clock per stage.  Given
identical inputs and output targets, every command reproduces its artifacts
byte for byte.  Exit codes: 0 success, 2 configuration error, 3 placement
failure, 4 ranking label mismatch, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .characterize import (
    Manifold,
    ProtocolConfig,
    compare_rankings,
    heatmap_svg,
    ingest_sequence,
    marginalize,
    rank_manifold_contexts,
    run_sweep,
    sweep_size,
)
from .codec import _encode
from .errors import ConfigError, InvarsimError, LabelMismatchError, PlacementError
from .imgio import write_flo, write_pfm, write_ppm
from .render import RenderConfig, SensorConfig, apply_sensor, compute_flow, render_frame, render_ground_truth
from .scene import SceneGraph
from .scenegen import SceneConfig, apply_dynamics, sample_scene

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PLACEMENT = 3
EXIT_MISMATCH = 4

# glibc ``mallopt`` parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap():
    """Tell glibc's malloc to keep freed memory in this process's heap.

    A render pass allocates and frees the same large temporaries once per
    wavefront.  By default glibc maps each block of 128 KiB or more on its
    own and returns the free top of the heap to the kernel, so the next
    wavefront faults the same pages in again.  Blocks up to 32 MiB now come
    from the heap, which keeps up to 64 MiB of free memory at its top.
    Both are set because fixing the trim threshold alone also fixes the
    mmap threshold at its 128 KiB default.  A no-op without a C library
    that has ``mallopt``; only ``main`` calls it, so library callers keep
    their own process's settings.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library, or one without mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _load_json_file(path):
    text = Path(path).read_text()
    try:
        return json.loads(text), text
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Manifest:
    """Run record: inputs hash, seeds, tool version, outputs, timings."""

    def __init__(self, command, config_hash, seeds):
        self.doc = {
            "tool": "invarsim",
            "version": __version__,
            "command": command,
            "config_hash": config_hash,
            "seeds": seeds,
            "outputs": {},
            "wall_clock_s": {},
        }
        self._t0 = time.monotonic()
        self._stage_start = self._t0

    def stage(self, name, paths):
        now = time.monotonic()
        self.doc["outputs"][name] = [str(p) for p in paths]
        self.doc["wall_clock_s"][name] = round(now - self._stage_start, 6)
        self._stage_start = now

    def write(self, path):
        Path(path).write_text(json.dumps(self.doc, sort_keys=True, indent=1) + "\n")
        return path


def _emit(args, payload):
    """Machine-readable stdout; quiet unless asked for more."""
    if args.porcelain:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        for key, value in payload.items():
            if isinstance(value, list):
                for v in value:
                    sys.stdout.write(f"{key}: {v}\n")
            else:
                sys.stdout.write(f"{key}: {value}\n")


# -- sample -------------------------------------------------------------------


def cmd_sample(args):
    doc, text = _load_json_file(args.config)
    config = SceneConfig.from_dict(doc)
    seed = args.seed if args.seed is not None else config.seed
    scene = sample_scene(config, seed)
    out = Path(args.out)
    if args.dry_run:
        _emit(args, {"objects": len(scene.objects), "out": str(out)})
        return EXIT_OK
    out.parent.mkdir(parents=True, exist_ok=True)
    manifest = Manifest("sample", _sha256(text.encode() + str(seed).encode()),
                        {"scene": seed})
    out.write_text(scene.to_json() + "\n")
    manifest.stage("sample", [out])
    mpath = manifest.write(out.with_suffix(".manifest.json"))
    _emit(args, {"scene": str(out), "manifest": str(mpath)})
    return EXIT_OK


# -- render -------------------------------------------------------------------


def _parse_frames(spec: str):
    if ".." in spec:
        a, b = spec.split("..", 1)
        start, stop = int(a), int(b)
    else:
        start = stop = int(spec)
    if stop < start:
        raise ConfigError(f"bad frame range {spec!r}")
    return list(range(start, stop + 1))


def cmd_render(args):
    scene = SceneGraph.from_json(Path(args.scene).read_text())
    frames = _parse_frames(args.frames)
    cfg = RenderConfig(width=args.width, height=args.height,
                       samples_per_pixel=args.spp, max_bounces=args.max_bounces,
                       rng_seed=args.seed if args.seed is not None else scene.seed)
    sensor = SensorConfig(gaussian_noise_sigma=args.sensor_sigma,
                          quantization_bits=args.bits, gamma=args.gamma,
                          noise_seed=args.sensor_seed)
    if args.dry_run:
        # camera samples only: bounce, center and shadow rays come on top
        _emit(args, {"frames": len(frames),
                     "pixel_samples": len(frames) * cfg.width * cfg.height * cfg.samples_per_pixel})
        return EXIT_OK
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_hash = _sha256(
        (scene.to_json() + repr((cfg, sensor, frames))).encode()
    )
    manifest = Manifest("render", config_hash,
                        {"render": cfg.rng_seed, "sensor": sensor.noise_seed})

    outputs, flow_outputs = [], []
    prev = None  # the previous frame's (t, state, ground truth): all a pair's flow reads
    for t in frames:
        st = apply_dynamics(scene, t)
        hdr = render_frame(st, cfg)
        gt = render_ground_truth(st, cfg)
        ldr = apply_sensor(hdr, dataclasses.replace(
            sensor, noise_seed=sensor.noise_seed + t))
        base = out_dir / f"frame_{t:04d}"
        write_pfm(f"{base}.pfm", hdr.data)
        write_ppm(f"{base}.ppm", ldr.data, maxval=ldr.maxval)
        write_pfm(f"{base}_depth.pfm", gt.depth)
        write_pfm(f"{base}_normal.pfm", gt.normal)
        write_pfm(f"{base}_object_id.pfm", gt.object_id.astype(np.float32))
        write_pfm(f"{base}_material_id.pfm", gt.material_id.astype(np.float32))
        write_pfm(f"{base}_shadow.pfm", gt.shadow_fraction)
        write_pfm(f"{base}_reflectance.pfm", gt.reflectance)
        sidecar = {
            "frame": t,
            "theta_g": {"width": cfg.width, "height": cfg.height,
                        "spp": cfg.samples_per_pixel,
                        "max_bounces": cfg.max_bounces,
                        "rng_seed": cfg.rng_seed},
            "sensor": _encode(sensor, noise_seed=sensor.noise_seed + t),
            "scene_seed": scene.seed,
            "scene_hash": _sha256(st.to_json().encode()),
            "medium": {"weather": st.medium.weather_tag,
                       "beta": list(st.medium.beta)},
            "lights": [{"name": l.name, "kind": l.kind, "intensity": l.intensity}
                       for l in st.lights],
        }
        Path(f"{base}.json").write_text(json.dumps(sidecar, sort_keys=True, indent=1) + "\n")
        outputs += [f"{base}{suffix}" for suffix in
                    (".pfm", ".ppm", "_depth.pfm", "_normal.pfm",
                     "_object_id.pfm", "_material_id.pfm", "_shadow.pfm",
                     "_reflectance.pfm", ".json")]
        if prev is not None:
            a, st_a, gt_a = prev
            flow, occl = compute_flow(gt_a, gt, st_a, st)
            fpath = out_dir / f"flow_{a:04d}_{t:04d}.flo"
            write_flo(fpath, flow)
            opath = out_dir / f"occlusion_{a:04d}_{t:04d}.pfm"
            write_pfm(opath, occl.astype(np.float32))
            flow_outputs += [fpath, opath]
        prev = t, st, gt
    manifest.stage("frames", outputs)
    manifest.stage("flow", flow_outputs)
    mpath = manifest.write(out_dir / "manifest.json")
    _emit(args, {"out_dir": str(out_dir), "frames": [str(p) for p in outputs[:1]],
                 "manifest": str(mpath)})
    return EXIT_OK


# -- sweep --------------------------------------------------------------------


def cmd_sweep(args):
    doc, text = _load_json_file(args.protocol)
    protocol = ProtocolConfig.from_dict(doc)
    out_dir = Path(args.out_dir)
    manifest = Manifest("sweep", protocol.content_hash(), protocol.to_dict()["seeds"])
    if args.dry_run:
        cells, renders = sweep_size(protocol)
        _emit(args, {"cells": cells, "renders": renders})
        return EXIT_OK
    out_dir.mkdir(parents=True, exist_ok=True)
    manifold = run_sweep(protocol, threads=args.threads,
                         cache_dir=out_dir / "cells")
    csv_path = out_dir / "manifold.csv"
    csv_path.write_text(manifold.to_csv())
    outputs = [csv_path]
    manifest.stage("sweep", outputs)

    svg_paths = _emit_heatmaps(manifold, out_dir)
    report = _report(manifold)
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
    manifest.stage("report", svg_paths + [report_path])
    mpath = manifest.write(out_dir / "manifest.json")
    _emit(args, {"manifold": str(csv_path), "report": str(report_path),
                 "manifest": str(mpath)})
    return EXIT_OK


def _report(manifold):
    """The report fields that ``sweep`` and ``report`` share."""
    report = {"model": manifold.model, "aux": manifold.aux,
              "missing_cells": len(manifold.missing)}
    try:
        report["context_ranking"] = rank_manifold_contexts(manifold)
    except ConfigError:
        pass  # no complete cell: nothing to rank
    return report


def _emit_heatmaps(manifold, out_dir):
    paths = []
    if len(manifold.theta_w_axes) + len(manifold.theta_v_axes) < 2:
        return paths
    x_axis = manifold.theta_w_axes[0]
    y_axis = (manifold.theta_v_axes + manifold.theta_w_axes[1:])[0]
    for context, svg in heatmap_svg(manifold, x_axis, y_axis).items():
        path = out_dir / f"heatmap_{context}.svg"
        path.write_text(svg)
        paths.append(path)
    return paths


# -- ingest -------------------------------------------------------------------


def cmd_ingest(args):
    seq = ingest_sequence(args.directory, args.annotation)
    summary = {
        "directory": seq.directory,
        "frames": len(seq.frame_files),
        "resolution": list(seq.shape),
        "reference_index": seq.reference_index,
        "zero_flow": seq.zero_flow,
        "patches": [_encode(rect) for rect in seq.patches],
        "flow_files": seq.flow_files,
    }
    out = Path(args.out) if args.out else None
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(summary, sort_keys=True, indent=1) + "\n")
        _emit(args, {"summary": str(out)})
    else:
        sys.stdout.write(json.dumps(summary, sort_keys=True, indent=1) + "\n")
    return EXIT_OK


# -- compare ------------------------------------------------------------------


def cmd_compare(args):
    a = Manifold.from_csv(Path(args.manifold_a).read_text())
    b = Manifold.from_csv(Path(args.manifold_b).read_text())
    comparison = compare_rankings(rank_manifold_contexts(a, by=args.by),
                                  rank_manifold_contexts(b, by=args.by))
    doc = comparison.to_dict()
    doc["by"] = args.by
    doc["models"] = [a.model, b.model]
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        _emit(args, {"comparison": args.out})
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- report -------------------------------------------------------------------


def cmd_report(args):
    manifold = Manifold.from_csv(Path(args.manifold).read_text())
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest("report", _sha256(Path(args.manifold).read_bytes()), {})
    svg_paths = _emit_heatmaps(manifold, out_dir)
    report = _report(manifold)
    marginals = {}
    for axis in manifold.theta_w_axes + manifold.theta_v_axes:
        table = marginalize(manifold, axis)
        marginals[axis] = [
            {"context": e.context, "coords": e.coords, "value": e.value,
             "complete": e.complete}
            for e in table.entries
        ]
    report["marginals"] = marginals
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
    manifest.stage("report", svg_paths + [report_path])
    mpath = manifest.write(out_dir / "manifest.json")
    _emit(args, {"report": str(report_path), "manifest": str(mpath)})
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="invarsim",
        description="Simulation workbench for validating vision-model "
                    "invariance assumptions on procedural city scenes.")
    parser.add_argument("--version", action="version", version=__version__)
    # each flag goes only to the subcommands that read it
    porcelain = argparse.ArgumentParser(add_help=False)
    porcelain.add_argument("--porcelain", action="store_true",
                           help="stdout carries one machine-readable JSON object")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None,
                      help="override the configured seed")
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=int, default=1,
                         help="worker threads for grid evaluation")
    dry_run = argparse.ArgumentParser(add_help=False)
    dry_run.add_argument("--dry-run", action="store_true",
                         help="validate and report work size without writing")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[porcelain, seed, dry_run],
                       help="sample a scene graph from a scene config")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("render", parents=[porcelain, seed, dry_run],
                       help="render frames plus exact ground truth")
    p.add_argument("scene")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--frames", default="0..0", help="inclusive range, e.g. 0..1")
    p.add_argument("--spp", type=int, default=200)
    p.add_argument("--width", type=int, default=320)
    p.add_argument("--height", type=int, default=240)
    p.add_argument("--max-bounces", type=int, default=1)
    p.add_argument("--sensor-sigma", type=float, default=0.002)
    p.add_argument("--bits", type=int, default=8)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--sensor-seed", type=int, default=0)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("sweep", parents=[porcelain, threads, dry_run],
                       help="run a characterization protocol over its grid")
    p.add_argument("protocol")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("ingest", parents=[porcelain],
                       help="validate a real frame directory plus annotation")
    p.add_argument("directory")
    p.add_argument("annotation")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("compare", parents=[porcelain],
                       help="rank-compare two manifold CSVs")
    p.add_argument("manifold_a")
    p.add_argument("manifold_b")
    p.add_argument("--by", choices=("context", "weather"), default="context")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("report", parents=[porcelain],
                       help="emit heatmaps, marginals and rankings for a manifold")
    p.add_argument("manifold")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LabelMismatchError as exc:
        print(f"invarsim: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except PlacementError as exc:
        print(f"invarsim: {exc}", file=sys.stderr)
        return EXIT_PLACEMENT
    except (ConfigError, FileNotFoundError) as exc:
        print(f"invarsim: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvarsimError as exc:
        print(f"invarsim: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
