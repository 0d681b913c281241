"""Workload inputs and the operations each workload runs.

Inputs are a pure function of the workload seed and are written before any
timing starts; the program only ever sees the files.  ``generate`` runs in
the benchmark's parent process, ``handoff`` and ``operations`` in the
worker process.
"""

from __future__ import annotations

import contextlib
import io
import json
import zlib
from pathlib import Path

MODELS = ("OC", "BC", "GC", "PS", "DS")
#: metric of each stock model's fresh sweep
STOCK_FRESH = {f"{m.lower()}_s": m for m in MODELS}
INGEST_MODELS = ("OC", "BC", "GC")

#: the ten spatial contexts an annotation may label
CONTEXTS = ("Homogeneous", "Diffuse", "Specular", "ShadowRegion",
            "ShadowBoundary", "Edge", "Corner", "Occluded", "MotionBoundary",
            "SameSurface")
#: thin contexts get small rectangles, so sides above 5 leave gaps
THIN_CONTEXTS = ("ShadowBoundary", "Edge", "Corner", "MotionBoundary")

INGEST_FRAMES = 8
INGEST_HEIGHT, INGEST_WIDTH = 240, 320  # the CLI render default
INGEST_SIDES = (5, 9, 13, 17)
#: rectangle sizes (width, height) per context; only their places vary with
#: the seed, so every seed measures the same number of patches
THIN_RECTS = ((7, 6), (5, 8), (6, 5))
AREA_RECTS = ((30, 18), (16, 24), (20, 14))

CITY_BUILDINGS = {"small": 12, "large": 130}
CITY_RENDER = {"width": 40, "height": 30, "spp": 1}
#: the explicit vehicle follows the ground slab, so it is object 1
CITY_MOVING_OBJECT = 1


def seeds_for(seed, tag, n):
    """``n`` positive 31-bit seeds derived from the workload seed and a tag."""
    import numpy as np

    rng = np.random.default_rng([int(seed), zlib.crc32(tag.encode())])
    return [int(v) for v in rng.integers(1, 2**31 - 1, size=n)]


def _write_json(path, doc):
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return str(path)


# -- input generation ---------------------------------------------------------


def generate(workload, seed, inputs):
    """Write the workload's input files under ``inputs``; return their spec."""
    inputs = Path(inputs)
    inputs.mkdir(parents=True, exist_ok=True)
    spec = {"stock": _gen_stock, "city": _gen_city, "ingest": _gen_ingest}[workload](
        seed, inputs)
    spec["workload"] = workload
    spec["seed"] = seed
    _write_json(inputs / "spec.json", spec)
    return spec


def _gen_stock(seed, inputs):
    from invarsim import default_protocol

    scene_seed, render_seed, patch_seed, sensor_seed = seeds_for(seed, "stock", 4)
    protocols = {}
    for model in MODELS:
        doc = default_protocol(model).to_dict()
        doc["seeds"] = {"scene": scene_seed, "render": render_seed,
                        "patch": patch_seed, "sensor": sensor_seed}
        protocols[model] = _write_json(inputs / f"protocol_{model}.json", doc)
    return {"protocols": protocols}


def city_config(rng, buildings):
    """A marked-point-process city of buildings plus one explicit moving vehicle.

    The work a render does must not depend on the seed: building marks vary
    too little to change a facade's window grid (21 primitives each), and
    the camera looks down on a ground slab that fills the whole frame.  The
    vehicle stands at the near edge of the world, between the camera and
    every sampled building, so nothing can hide it.
    """
    vx, vz = float(rng.uniform(-4.0, 4.0)), float(rng.uniform(4.5, 5.5))
    ux = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.8))
    uz = float(rng.uniform(-0.2, 0.2))
    return {
        "world_bounds": [-150.0, 0.0, 150.0, 300.0],
        "cell_size": 1.0,
        "classes": [{"class": "Building", "probability": 1.0, "length": [13.5, 0.3],
                     "breadth": [10.0, 1.0], "height": [16.5, 0.3]}],
        "counts": {"total": buildings},
        "objects": [{"class": "Vehicle", "position": [vx, vz], "length": 5.0,
                     "breadth": 2.2, "height": 1.8, "style": 2, "dynamic": True}],
        "weather": "Clear",
        "camera": {"position": [0.0, 20.0, -25.0], "look_at": [0.0, 0.0, 30.0],
                   "vfov_deg": 30.0},
        "dynamics": [[0, f"objects.{CITY_MOVING_OBJECT}.velocity", [ux, 0.0, uz]]],
    }


def _gen_city(seed, inputs):
    import numpy as np

    cities = {}
    for name, buildings in CITY_BUILDINGS.items():
        scene_seed, render_seed, sensor_seed = seeds_for(seed, f"city-{name}", 3)
        rng = np.random.default_rng(scene_seed)
        config = _write_json(inputs / f"city_{name}.json", city_config(rng, buildings))
        cities[name] = {"config": config,
                        "scene": str(inputs / f"scene_{name}.json"),
                        "scene_seed": scene_seed, "render_seed": render_seed,
                        "sensor_seed": sensor_seed}
    return {"cities": cities}


def _ingest_base(rng):
    """A smooth daylight texture, (H, W, 3) in roughly [0.05, 0.65]."""
    import numpy as np

    yy, xx = np.mgrid[0:INGEST_HEIGHT, 0:INGEST_WIDTH].astype(float)
    base = np.empty((INGEST_HEIGHT, INGEST_WIDTH, 3))
    for c in range(3):
        acc = np.zeros_like(yy)
        for _ in range(4):
            fx, fy = rng.uniform(0.02, 0.3, size=2)
            acc += np.sin(fx * xx + fy * yy + rng.uniform(0.0, 2.0 * np.pi))
        base[:, :, c] = 0.35 + 0.075 * acc
    return base


def _gen_ingest(seed, inputs):
    import numpy as np

    from invarsim.imgio import write_ppm

    rng = np.random.default_rng(seeds_for(seed, "ingest", 1)[0])
    base = _ingest_base(rng)
    frames = inputs / "frames"
    frames.mkdir()
    for k in range(INGEST_FRAMES):
        gain = 0.6 + 0.8 * k / (INGEST_FRAMES - 1)  # daylight ramp
        f = np.clip(gain * base + rng.normal(0.0, 0.01, base.shape), 0.0, 1.0)
        write_ppm(frames / f"frame_{k:04d}.ppm",
                  np.floor(f * 255.0 + 0.5).astype(np.uint8))
    rects = []
    for context in CONTEXTS:
        for w, h in THIN_RECTS if context in THIN_CONTEXTS else AREA_RECTS:
            rects.append({"x": int(rng.integers(0, INGEST_WIDTH - w)),
                          "y": int(rng.integers(0, INGEST_HEIGHT - h)),
                          "width": w, "height": h, "context": context})
    annotation = _write_json(inputs / "annotation.json",
                             {"reference_frame": 0, "zero_flow": True,
                              "patches": rects})
    protocols = {}
    for model in INGEST_MODELS:
        doc = {"model": model, "source": "ingest", "contexts": list(CONTEXTS),
               "theta_v": {"patch_sizes": list(INGEST_SIDES)},
               "ingest": {"directory": str(frames), "annotation": annotation}}
        protocols[model] = _write_json(inputs / f"protocol_{model}.json", doc)
    return {"frames": str(frames), "annotation": annotation, "protocols": protocols}


# -- operations ----------------------------------------------------------------


def quiet_cli(argv):
    """Run one ``invarsim`` command in-process with its stdout swallowed."""
    from invarsim import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def handoff(workload, spec):
    """Hand the inputs to the program: parse protocols, or sample the cities."""
    if workload == "city":
        for city in spec["cities"].values():
            code = quiet_cli(["sample", city["config"], "--out", city["scene"],
                              "--seed", str(city["scene_seed"])])
            if code != 0:
                raise RuntimeError(f"invarsim sample exited {code}")
        return
    from invarsim.characterize import ProtocolConfig

    for path in spec["protocols"].values():
        ProtocolConfig.from_dict(json.loads(Path(path).read_text()))


def operations(workload, spec, out, nproc):
    """(metric, argv) per timed operation of one round, in order.

    Several operations may share a metric; their times add up.  Stock sweeps
    write to ``<out>/<model>``; the worker keeps a copy of each fresh
    manifold as ``<out>/fresh_<model>.csv`` before the resumed sweep
    rewrites it.
    """
    out = Path(out)
    if workload == "stock":
        protos = spec["protocols"]
        ops = [(f"{m.lower()}_s", ["sweep", protos[m], "--out-dir", str(out / m),
                                   "--threads", "1"]) for m in MODELS]
        ops += [("resume_s", ["sweep", protos[m], "--out-dir", str(out / m),
                              "--threads", "1"]) for m in MODELS]
        ops.append(("oc_threads_s", ["sweep", protos["OC"], "--out-dir",
                                     str(out / "OC_threads"), "--threads", str(nproc)]))
        return ops
    if workload == "city":
        r = CITY_RENDER
        return [(f"{name}_city_s",
                 ["render", city["scene"], "--out-dir", str(out / name),
                  "--frames", "0..1", "--spp", str(r["spp"]), "--width", str(r["width"]),
                  "--height", str(r["height"]), "--seed", str(city["render_seed"]),
                  "--sensor-seed", str(city["sensor_seed"])])
                for name, city in spec["cities"].items()]
    ops = [("ingest_s", ["ingest", spec["frames"], spec["annotation"],
                         "--out", str(out / "summary.json")])]
    ops += [(f"{m.lower()}_s", ["sweep", spec["protocols"][m], "--out-dir", str(out / m)])
            for m in INGEST_MODELS]
    return ops
