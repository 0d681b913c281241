"""Output checks, run after timing.

Every check recomputes what it compares from the inputs with code of its
own (file readers, a pure-Python ray caster, scipy's Spearman, numpy closed
forms) or asserts a property the method must have.  Each ``check_*``
function returns a list of failure messages; an empty list means the
outputs are correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from pathlib import Path

import numpy as np

import workloads

GRAY = np.array([0.2126, 0.7152, 0.0722])  # Rec. 709 luma, as documented


# -- file readers -------------------------------------------------------------


def _header_tokens(data, count):
    """First ``count`` whitespace-separated header tokens and the payload offset."""
    tokens, pos = [], 0
    while len(tokens) < count:
        while data[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while not data[pos:pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    return tokens, pos + 1  # one whitespace byte ends the header


def read_pfm(path):
    data = Path(path).read_bytes()
    (magic, w, h, scale), offset = _header_tokens(data, 4)
    channels = {b"PF": 3, b"Pf": 1}[magic]
    w, h = int(w), int(h)
    dtype = "<f4" if float(scale) < 0 else ">f4"
    arr = np.frombuffer(data, dtype=dtype, count=w * h * channels, offset=offset)
    arr = arr.reshape(h, w, channels)[::-1]  # rows are stored bottom-up
    return arr[:, :, 0] if channels == 1 else arr


def read_ppm(path):
    data = Path(path).read_bytes()
    (magic, w, h, maxval), offset = _header_tokens(data, 4)
    if magic != b"P6" or int(maxval) > 255:
        raise ValueError(f"{path}: not an 8-bit binary PPM")
    arr = np.frombuffer(data, dtype=np.uint8, count=int(w) * int(h) * 3, offset=offset)
    return arr.reshape(int(h), int(w), 3).astype(np.float64) / int(maxval)


def read_flo(path):
    data = Path(path).read_bytes()
    magic, w, h = struct.unpack("<fii", data[:12])
    if magic != 202021.25:
        raise ValueError(f"{path}: bad .flo magic {magic}")
    return np.frombuffer(data, dtype="<f4", count=w * h * 2, offset=12).reshape(h, w, 2)


def read_manifold(path):
    """Rows of a manifold CSV as dicts with floats for the statistics."""
    rows = list(csv.DictReader(io.StringIO(Path(path).read_text())))
    for r in rows:
        r["mean_E"] = float(r["mean_E"])
        r["std_E"] = float(r["std_E"])
        r["n"] = int(r["n"])
    return rows


# -- stock --------------------------------------------------------------------

STOCK_RECORDS = {"OC": 960, "BC": 960, "GC": 960, "PS": 24, "DS": 5}


def check_stock(spec, out, ops):
    out = Path(out)
    fails = []
    manifolds = {}
    for model in workloads.MODELS:
        fresh = out / f"fresh_{model}.csv"
        if not fresh.exists():
            fails.append(f"{model}: no fresh manifold")
            continue
        if (out / model / "manifold.csv").read_bytes() != fresh.read_bytes():
            fails.append(f"{model}: resumed manifold differs from the fresh bytes")
        rows = manifolds[model] = read_manifold(fresh)
        if len(rows) != STOCK_RECORDS[model]:
            fails.append(f"{model}: {len(rows)} records, expected {STOCK_RECORDS[model]}")
        for r in rows:
            if r["n"] == 0:
                continue
            if model == "OC" and not 0.0 <= r["mean_E"] <= 1.0:
                fails.append(f"OC value {r['mean_E']} outside [0, 1]")
            if model != "OC" and r["mean_E"] < 0.0:
                fails.append(f"{model} variance/error {r['mean_E']} < 0")
            if r["std_E"] < 0.0:
                fails.append(f"{model} std {r['std_E']} < 0")
    threads = out / "OC_threads" / "manifold.csv"
    if (out / "fresh_OC.csv").exists() and (
            not threads.exists()
            or threads.read_bytes() != (out / "fresh_OC.csv").read_bytes()):
        fails.append("OC: --threads manifold differs from the 1-thread bytes")

    if "OC" in manifolds:
        cells = {}
        for r in manifolds["OC"]:
            cells.setdefault(r["context"], {})[(r["theta_w_illumination"],
                                                r["theta_v_s"])] = r
        # the ordering of acceptance criterion C3 holds for every seed; its
        # absolute level (Diffuse above 0.95) is pinned at the default seeds
        # and fails for some others
        diffuse = cells.get("Diffuse", {})
        if len(diffuse) != 120 or any(d["n"] == 0 for d in diffuse.values()):
            fails.append("OC: expected 120 evaluated Diffuse cells (40 levels x 3 sides)")
        for key, d in diffuse.items():
            for other in ("ShadowBoundary", "Occluded"):
                o = cells.get(other, {}).get(key)
                if o is None or o["n"] == 0 or not d["mean_E"] > o["mean_E"]:
                    fails.append(f"OC Diffuse not above {other} at {key}")
    if "PS" in manifolds:
        cells = {}
        for r in manifolds["PS"]:
            cells.setdefault((r["theta_w_speed"], r["theta_v_s"]), {})[r["context"]] = r
        for key, c in sorted(cells.items()):
            mb, ss = c.get("MotionBoundary"), c.get("SameSurface")
            if not (mb and ss and mb["n"] and ss["n"] and mb["mean_E"] > ss["mean_E"]):
                fails.append(f"PS MotionBoundary not above SameSurface at {key}")
    if "DS" in manifolds:
        ds = {r["theta_w_weather"]: r["mean_E"] for r in manifolds["DS"]}
        if not ds.get("Fog", math.inf) < ds.get("MildHaze", -math.inf):
            fails.append(f"DS Fog {ds.get('Fog')} not below MildHaze {ds.get('MildHaze')}")

    recovered = [op for op in ops if op["name"] == "ps_recovery"]
    if recovered and recovered[0]["error"] is None:
        path = out / "PS_recovery" / "manifold.csv"
        if not path.exists() or path.read_bytes() != (out / "fresh_PS.csv").read_bytes():
            fails.append("PS recovery sweep does not reproduce the fresh bytes")
    return fails


# -- ingest -------------------------------------------------------------------


def _centred_patches(rects, context, side):
    """Top-left corners of the centred side x side patch of each fitting rectangle."""
    return [(r["y"] + (r["height"] - side) // 2, r["x"] + (r["width"] - side) // 2)
            for r in rects
            if r["context"] == context and side <= min(r["width"], r["height"])]


def _pop_var(values):
    values = np.asarray(values, dtype=float)
    return 0.0 if values.min() == values.max() else float(values.var())


def _expected_ingest(model, grays, rects, frame, side, context):
    """(values per patch) for one manifold cell, NaN where the measure is undefined."""
    from scipy.stats import spearmanr

    values = []
    for row, col in _centred_patches(rects, context, side):
        win = (slice(row, row + side), slice(col, col + side))
        if model == "OC":
            a = grays[0][win].ravel()
            b = grays[frame][win].ravel()
            if a.min() == a.max() or b.min() == b.max():
                values.append(math.nan)
            else:
                values.append(abs(float(spearmanr(a, b).statistic)))
        elif model == "BC":
            # zero flow: the warped residual is the plain frame difference
            values.append(_pop_var(grays[frame][win] - grays[frame - 1][win]))
        else:
            inner = (slice(row + 1, row + side - 1), slice(col + 1, col + side - 1))
            res = []
            for g in (grays[frame - 1], grays[frame]):
                gx = (g[inner[0], inner[1].start + 1:inner[1].stop + 1]
                      - g[inner[0], inner[1].start - 1:inner[1].stop - 1]) / 2.0
                gy = (g[inner[0].start + 1:inner[0].stop + 1, inner[1]]
                      - g[inner[0].start - 1:inner[0].stop - 1, inner[1]]) / 2.0
                res.append((gx, gy))
            values.append(_pop_var(np.concatenate([
                (res[1][0] - res[0][0]).ravel(), (res[1][1] - res[0][1]).ravel()])))
    return values


def _close(a, b, tol=1e-9):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_ingest(spec, out, ops):
    out = Path(out)
    fails = []
    frames = sorted(Path(spec["frames"]).glob("*.ppm"))
    grays = [read_ppm(p) @ GRAY for p in frames]
    rects = json.loads(Path(spec["annotation"]).read_text())["patches"]

    summary = json.loads((out / "summary.json").read_text())
    if summary["frames"] != len(frames) or len(summary["patches"]) != len(rects):
        fails.append("ingest summary does not match the sequence")

    for model in workloads.INGEST_MODELS:
        rows = read_manifold(out / model / "manifold.csv")
        first = 1  # OC skips the reference frame 0, BC/GC start at the pair (0, 1)
        expected_rows = ((len(frames) - first) * len(workloads.INGEST_SIDES)
                         * len(workloads.CONTEXTS))
        if len(rows) != expected_rows:
            fails.append(f"ingest {model}: {len(rows)} records, expected {expected_rows}")
        for r in rows:
            frame, side = int(r["theta_w_frame"]), int(r["theta_v_s"])
            values = _expected_ingest(model, grays, rects, frame, side, r["context"])
            fits = bool(values)
            finite = [v for v in values if not math.isnan(v)]
            where = f"ingest {model} {r['context']} frame={frame} s={side}"
            if (r["n"] == 0) == fits:
                fails.append(f"{where}: gap={r['n'] == 0} but a rectangle "
                             f"{'fits' if fits else 'does not fit'}")
                continue
            if r["n"] != len(finite):
                fails.append(f"{where}: n={r['n']}, expected {len(finite)}")
                continue
            if finite and not (_close(r["mean_E"], float(np.mean(finite)))
                               and _close(r["std_E"], float(np.std(finite)))):
                fails.append(f"{where}: mean_E={r['mean_E']!r}, "
                             f"expected {float(np.mean(finite))!r}")
    return fails


# -- city ---------------------------------------------------------------------

_TMIN = 1e-6
_TIE_EPS = 1e-9
_RECT_UV = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


class PinholeCamera:
    """The documented pinhole model: pixel centres at (i + 0.5, j + 0.5)."""

    def __init__(self, spec, width, height):
        pos = spec["position"]
        fwd = _norm(_sub(spec["look_at"], pos))
        right = _norm(_cross(spec.get("up", [0.0, 1.0, 0.0]), fwd))
        self.pos, self.fwd, self.right = pos, fwd, right
        self.up = _cross(fwd, right)
        self.tan_half = math.tan(math.radians(spec["vfov_deg"]) / 2.0)
        self.w, self.h = width, height
        self.aspect = width / height

    def ray(self, col, row):
        nx = ((col + 0.5) / self.w * 2.0 - 1.0) * self.tan_half * self.aspect
        ny = (1.0 - (row + 0.5) / self.h * 2.0) * self.tan_half
        return _norm([f + nx * r + ny * u
                      for f, r, u in zip(self.fwd, self.right, self.up)])

    def project(self, p):
        v = _sub(p, self.pos)
        z, x, y = _dot(v, self.fwd), _dot(v, self.right), _dot(v, self.up)
        col = (x / z / (self.tan_half * self.aspect) + 1.0) * self.w / 2.0 - 0.5
        row = (1.0 - y / z / self.tan_half) * self.h / 2.0 - 0.5
        return col, row


def _sub(a, b):
    return [x - y for x, y in zip(a, b)]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def _norm(a):
    n = math.sqrt(_dot(a, a))
    return [x / n for x in a]


def _hit(p, o, d):
    """Ray parameter of the first hit with one primitive, or inf."""
    kind = p["kind"]
    if kind == "box":
        enter, exit_ = -math.inf, math.inf
        for k in range(3):
            if d[k] == 0.0:
                if not p["lo"][k] <= o[k] <= p["hi"][k]:
                    return math.inf
                continue
            t1 = (p["lo"][k] - o[k]) / d[k]
            t2 = (p["hi"][k] - o[k]) / d[k]
            enter = max(enter, min(t1, t2))
            exit_ = min(exit_, max(t1, t2))
        t = enter if enter > _TMIN else exit_
        return t if enter <= exit_ and t > _TMIN else math.inf
    if kind == "sphere":
        oc = _sub(o, p["center"])
        b = _dot(oc, d)
        disc = b * b - (_dot(oc, oc) - p["radius"] ** 2)
        if disc < 0.0:
            return math.inf
        sq = math.sqrt(disc)
        t = -b - sq if -b - sq > _TMIN else -b + sq
        return t if t > _TMIN else math.inf
    if kind == "cylinder":  # open side wall between y0 and y1
        ox, oz = o[0] - p["center"][0], o[2] - p["center"][1]
        a = d[0] * d[0] + d[2] * d[2]
        b = ox * d[0] + oz * d[2]
        disc = b * b - a * (ox * ox + oz * oz - p["radius"] ** 2)
        if a == 0.0 or disc < 0.0:
            return math.inf
        sq = math.sqrt(disc)
        for t in ((-b - sq) / a, (-b + sq) / a):
            if t > _TMIN and p["y0"] <= o[1] + t * d[1] <= p["y1"]:
                return t
        return math.inf
    axis = p["axis"]
    if d[axis] == 0.0:
        return math.inf
    t = (p["offset"] - o[axis]) / d[axis]
    ua, va = _RECT_UV[axis]
    u, v = o[ua] + t * d[ua], o[va] + t * d[va]
    ok = t > _TMIN and p["u"][0] <= u <= p["u"][1] and p["v"][0] <= v <= p["v"][1]
    return t if ok else math.inf


def cast(prims, o, d):
    """(t, object id) of the nearest hit; window rectangles win near-ties."""
    t_vol, id_vol, t_rect, id_rect = math.inf, -1, math.inf, -1
    for obj, p in prims:
        t = _hit(p, o, d)
        if p["kind"] == "rect":
            if t < t_rect:
                t_rect, id_rect = t, obj
        elif t < t_vol:
            t_vol, id_vol = t, obj
    if math.isfinite(t_rect) and t_rect <= t_vol * (1.0 + _TIE_EPS) + _TIE_EPS:
        return t_rect, id_rect
    return t_vol, id_vol


def _translated(p, d):
    q = dict(p)
    if p["kind"] == "box":
        q["lo"] = [a + b for a, b in zip(p["lo"], d)]
        q["hi"] = [a + b for a, b in zip(p["hi"], d)]
    elif p["kind"] == "rect":
        ua, va = _RECT_UV[p["axis"]]
        q["offset"] = p["offset"] + d[p["axis"]]
        q["u"] = [x + d[ua] for x in p["u"]]
        q["v"] = [x + d[va] for x in p["v"]]
    else:
        raise ValueError(f"moving {p['kind']} primitives are not supported here")
    return q


def city_scene(scene_path, moving):
    """(primitives at frame 0, primitives at frame 1, velocity, camera spec)."""
    scene = json.loads(Path(scene_path).read_text())
    (_, path, velocity), = scene["dynamics"]
    if path != f"objects.{moving}.velocity":
        raise ValueError(f"{scene_path}: unexpected dynamics path {path!r}")
    frame0 = [(o["object_id"], p) for o in scene["objects"] for p in o["primitives"]]
    frame1 = [(obj, _translated(p, velocity) if obj == moving else p)
              for obj, p in frame0]
    return frame0, frame1, velocity, scene["camera"]


def sample_pixels(seed, ids, moving, count=24, on_moving=4):
    """Pixels the ray caster checks: uniform ones plus a few on the moving object."""
    rng = np.random.default_rng(seed)
    h, w = ids.shape
    picks = [(int(r), int(c)) for r, c in zip(rng.integers(0, h, count),
                                               rng.integers(0, w, count))]
    rows, cols = np.nonzero(ids == moving)
    if len(rows):
        for i in rng.choice(len(rows), size=min(on_moving, len(rows)), replace=False):
            picks.append((int(rows[i]), int(cols[i])))
    return picks


def _ambiguous(prims, cam, col, row):
    """Whether rays a hair off the pixel centre disagree on the object hit."""
    seen = set()
    for dc, dr in ((1e-4, 0.0), (-1e-4, 0.0), (0.0, 1e-4), (0.0, -1e-4)):
        seen.add(cast(prims, cam.pos, cam.ray(col + dc, row + dr))[1])
    return len(seen) > 1


def check_city(spec, out, ops):
    out = Path(out)
    fails = []
    r = workloads.CITY_RENDER
    moving = workloads.CITY_MOVING_OBJECT
    for name, city in spec["cities"].items():
        d = out / name
        frames = {}
        *prim_sets, velocity, camera = city_scene(city["scene"], moving)
        cam = PinholeCamera(camera, r["width"], r["height"])
        for t in (0, 1):
            depth = read_pfm(d / f"frame_{t:04d}_depth.pfm")
            ids = read_pfm(d / f"frame_{t:04d}_object_id.pfm").astype(np.int64)
            frames[t] = (depth, ids)
            radiance = read_pfm(d / f"frame_{t:04d}.pfm")
            if not (np.isfinite(radiance).all() and (radiance >= 0.0).all()):
                fails.append(f"{name} frame {t}: radiance not finite and non-negative")
            prims = prim_sets[t]
            checked = 0
            picks = sample_pixels(city["scene_seed"] + t, ids, moving)
            for row, col in picks:
                tt, obj = cast(prims, cam.pos, cam.ray(col, row))
                got_t, got_id = float(depth[row, col]), int(ids[row, col])
                agree = got_id == obj and (
                    (math.isinf(tt) and math.isinf(got_t))
                    or abs(got_t - tt) <= 1e-5 * max(1.0, tt))
                if agree:
                    checked += 1
                elif not _ambiguous(prims, cam, col, row):
                    fails.append(f"{name} frame {t} pixel ({row}, {col}): depth/id "
                                 f"{got_t}/{got_id}, ray caster {tt}/{obj}")
            if checked < 0.75 * len(picks):
                fails.append(f"{name} frame {t}: only {checked}/{len(picks)} "
                             "sampled pixels were unambiguous")

        flow = read_flo(d / "flow_0000_0001.flo")
        depth, ids = frames[0]
        on_moving = ids == moving
        if not on_moving.any():
            fails.append(f"{name}: the moving object is not visible")
        if np.any(flow[~on_moving] != 0.0):
            fails.append(f"{name}: non-zero flow off the moving object")
        worst = 0.0
        for row, col in zip(*np.nonzero(on_moving)):
            ray = cam.ray(col, row)
            point = [p + float(depth[row, col]) * q for p, q in zip(cam.pos, ray)]
            c1, r1 = cam.project([p + v for p, v in zip(point, velocity)])
            err = max(abs(c1 - col - float(flow[row, col, 0])),
                      abs(r1 - row - float(flow[row, col, 1])))
            worst = max(worst, err)
        if worst > 1e-3:
            fails.append(f"{name}: moving-object flow off the reprojection by {worst:.3g} px")
    return fails


CHECKS = {"stock": check_stock, "city": check_city, "ingest": check_ingest}
