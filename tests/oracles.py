"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the definitions, not the
package code paths: exact rational arithmetic for rank correlation,
brute-force O(n^2) rectangle intersection, Gauss-Legendre quadrature for
phase-function normalization, the OC/BC/GC measures one patch at a time
from whole frames, which the package evaluates per frame and per batch,
window filters one window at a time, where the package reduces rows and
then columns or reads a summed-area table, and
a ray tracer that tests every ray against every primitive, where the package
first culls rays against object bounds, the scene JSON encoded as one
document, where the package encodes each object once and reuses its text,
a Monte Carlo pass that traces one sample at a time and holds every
setup's buffers through the bounces, where the package traces whole
samples together and shades one setup at a time, a manifold one row at a
time with its coordinates in dicts, where the package holds columns, a
heatmap that scans every row for its context, where the package selects a
context's rows at once, and the
forward flow of a frame pair traced from both scene states' center rays,
where the package reads it from the two states' ground truth.
"""

import dataclasses
import json
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from invarsim.errors import IdentityMismatchError
from invarsim.geometry import INF, RECT_UV, Camera, Hit, _TIE_EPS, trace
from invarsim.medium import schlick_phase, sun_transmittance, transmittance
from invarsim.render import (_SHADOW_EPS, _cosine_dirs, _LightTable, _light_factors,
                             _MaterialTable, _sample_stream, albedo_at)
from invarsim.scene import SKY_OBJECT_ID


def exact_average_ranks(values):
    """Ranks 1..n as exact Fractions, ties averaged."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [Fraction(0)] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = Fraction(i + j + 2, 2)  # positions i..j hold ranks i+1..j+1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def loop_average_ranks(values):
    """Average ranks by walking the runs of equal sorted values in Python.

    A run boundary is wherever consecutive sorted values differ, so NaN and
    infinite values (whose difference is NaN) always start runs of their own.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    ranks = np.empty(len(v))
    with np.errstate(invalid="ignore"):  # inf - inf
        boundaries = np.flatnonzero(np.diff(sorted_v)) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [len(v)]))
    for a, b in zip(starts, stops):
        ranks[order[a:b]] = 0.5 * (a + b + 1)
    return ranks


def exact_spearman(x, y):
    """Spearman rho via exact rational rank arithmetic.

    Only the final square root leaves rational arithmetic.  Returns None
    for degenerate (constant) inputs.
    """
    assert len(x) == len(y)
    rx = exact_average_ranks(list(x))
    ry = exact_average_ranks(list(y))
    n = len(x)
    mx = sum(rx, Fraction(0)) / n
    my = sum(ry, Fraction(0)) / n
    dx = [r - mx for r in rx]
    dy = [r - my for r in ry]
    num = sum((a * b for a, b in zip(dx, dy)), Fraction(0))
    vx = sum((a * a for a in dx), Fraction(0))
    vy = sum((b * b for b in dy), Fraction(0))
    if vx == 0 or vy == 0:
        return None
    return float(num) / math.sqrt(float(vx * vy))


def loop_spearman(x, y):
    """Spearman rho of two vectors by the textbook formula on loop ranks;
    NaN when either is constant."""
    rx = loop_average_ranks(x)
    ry = loop_average_ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    vx = rx @ rx
    vy = ry @ ry
    if vx == 0.0 or vy == 0.0:
        return float("nan")
    return float((rx @ ry) / math.sqrt(vx * vy))


def gray(frame):
    """Rec. 709 luma of an RGB frame; 2-D frames pass through."""
    arr = np.asarray(frame, dtype=float)
    return arr if arr.ndim == 2 else arr @ np.array([0.2126, 0.7152, 0.0722])


def sorted_population_variance(values):
    """np.var of the sorted values, exactly 0.0 for constant input."""
    v = np.sort(np.asarray(values, dtype=float).reshape(-1))
    return 0.0 if v[0] == v[-1] else float(np.var(v))


def point_bilinear_sample(frame, rows, cols):
    """Bilinear interpolation at fractional positions, neighbour by neighbour;
    zero-weight neighbours are left out so NaN borders cannot leak in."""
    h, w = frame.shape[:2]
    r = np.asarray(rows, dtype=float)
    c = np.asarray(cols, dtype=float)
    valid = (r >= 0) & (r <= h - 1) & (c >= 0) & (c <= w - 1)
    rc = np.clip(r, 0, h - 1)
    cc = np.clip(c, 0, w - 1)
    r0 = np.floor(rc).astype(int)
    c0 = np.floor(cc).astype(int)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = rc - r0
    fc = cc - c0
    w00 = (1 - fr) * (1 - fc)
    w01 = (1 - fr) * fc
    w10 = fr * (1 - fc)
    w11 = fr * fc
    vals = (
        np.where(w00 > 0, frame[r0, c0], 0.0) * w00
        + np.where(w01 > 0, frame[r0, c1], 0.0) * w01
        + np.where(w10 > 0, frame[r1, c0], 0.0) * w10
        + np.where(w11 > 0, frame[r1, c1], 0.0) * w11
    )
    return vals, valid


def _patch_positions(patch, inset):
    idx = np.arange(inset, patch.side - inset)
    rr, cc = np.meshgrid(patch.row + idx, patch.col + idx, indexing="ij")
    return rr.reshape(-1), cc.reshape(-1)


def patch_oc_measure(ref_patch, cur_patch):
    """|Spearman rho| between two patches, each converted to gray on its
    own; NaN when either patch is constant."""
    rho = loop_spearman(gray(ref_patch).reshape(-1), gray(cur_patch).reshape(-1))
    return abs(rho)


def patch_bc_variance(frame_t, frame_t1, flow, patch, occlusion=None):
    """Brightness-constancy variance of one patch from whole frames; None
    when no pixel is usable.  A pixel with a non-finite end is dropped, and
    ``occlusion`` (a mask) drops occluded pixels."""
    I0 = gray(frame_t)
    I1 = gray(frame_t1)
    rr, cc = _patch_positions(patch, 0)
    target, valid = point_bilinear_sample(I1, rr + flow[rr, cc, 1], cc + flow[rr, cc, 0])
    keep = valid & np.isfinite(I0[rr, cc]) & np.isfinite(target)
    if occlusion is not None:
        keep = keep & ~occlusion[rr, cc]
    if not keep.any():
        return None
    return sorted_population_variance(target[keep] - I0[rr, cc][keep])


def central_gradients(I):
    """Central differences (gx, gy); the one-pixel frame border is NaN."""
    gx = np.full_like(I, np.nan)
    gy = np.full_like(I, np.nan)
    gx[:, 1:-1] = (I[:, 2:] - I[:, :-2]) / 2.0
    gy[1:-1, :] = (I[2:, :] - I[:-2, :]) / 2.0
    return gx, gy


def patch_gc_variance(frame_t, frame_t1, flow, patch, occlusion=None):
    """Gradient-constancy variance of one patch's interior from whole
    frames, both gradient components pooled; None when no pixel is usable."""
    gx0, gy0 = central_gradients(gray(frame_t))
    gx1, gy1 = central_gradients(gray(frame_t1))
    rr, cc = _patch_positions(patch, 1)
    tr, tc = rr + flow[rr, cc, 1], cc + flow[rr, cc, 0]
    tx, valid_x = point_bilinear_sample(gx1, tr, tc)
    ty, valid_y = point_bilinear_sample(gy1, tr, tc)
    keep = (valid_x & valid_y & np.isfinite(gx0[rr, cc]) & np.isfinite(gy0[rr, cc])
            & np.isfinite(tx) & np.isfinite(ty))
    if occlusion is not None:
        keep = keep & ~occlusion[rr, cc]
    if not keep.any():
        return None
    return sorted_population_variance(np.concatenate(
        [tx[keep] - gx0[rr, cc][keep], ty[keep] - gy0[rr, cc][keep]]))


def rects_overlap(a, b):
    """Positive-area intersection of two (x0, z0, x1, z1) rectangles."""
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


def any_footprint_overlap(rects):
    """Brute-force O(n^2) pairwise overlap check."""
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            if rects_overlap(rects[i], rects[j]):
                return True
    return False


def brute_window_any(mask, window):
    """Any of each pixel's centered window, clipped at the image border."""
    h, w = mask.shape
    half = window // 2
    out = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            block = mask[max(i - half, 0):i + half + 1, max(j - half, 0):j + half + 1]
            out[i, j] = any(block.ravel().tolist())
    return out


def _inside_windows(arr, window):
    """(i, j, block) of each pixel whose centered window lies in the image."""
    h, w = arr.shape
    half = window // 2
    for i in range(half, h - half):
        for j in range(half, w - half):
            yield i, j, arr[i - half:i + half + 1, j - half:j + half + 1].ravel().tolist()


def brute_window_all(mask, window):
    """All of each pixel's centered window; False where it leaves the image."""
    out = np.zeros(mask.shape, dtype=bool)
    for i, j, block in _inside_windows(mask, window):
        out[i, j] = all(block)
    return out


def brute_window_minmax(arr, window):
    """Min and max of each pixel's centered window; NaN where the window
    leaves the image or holds a NaN."""
    mn = np.full(arr.shape, np.nan)
    mx = np.full(arr.shape, np.nan)
    for i, j, block in _inside_windows(arr, window):
        if not any(math.isnan(v) for v in block):
            mn[i, j], mx[i, j] = min(block), max(block)
    return mn, mx


def brute_block_counts(mask, side):
    """Labelled pixels of each side x side block inside the image, indexed
    by the block's top-left corner."""
    h, w = mask.shape
    counts = np.zeros((max(h - side + 1, 0), max(w - side + 1, 0)), dtype=int)
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            counts[i, j] = sum(mask[i:i + side, j:j + side].ravel().tolist())
    return counts


def patch_purity(cmap, patch):
    """Fraction of the patch's pixels carrying its context label."""
    return float(patch.extract(cmap[patch.context]).mean())


def sphere_integral(fn, n_mu=512):
    """Integral of an azimuthally symmetric density over the unit sphere."""
    mu, w = np.polynomial.legendre.leggauss(n_mu)
    return float(2.0 * math.pi * np.sum(w * fn(mu)))


def plane_residual(observations, normal):
    """Sum of squared projections of observations onto a plane normal."""
    obs = np.asarray(observations, dtype=float)
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    return float(np.sum((obs @ n) ** 2))


# -- brute-force ray tracer ---------------------------------------------------

#: max ray x primitive pairs the brute-force tracer handles in one block
_CHUNK_PAIRS = 4_000_000


def _box_hits(soup, O, D, tmin):
    """(t, near_axis, far_axis, index) of nearest box per ray."""
    n = len(soup.box_lo)
    if n == 0:
        shape = len(O)
        return (np.full(shape, INF), None)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / D
        t1 = (soup.box_lo[None, :, :] - O[:, None, :]) * inv[:, None, :]
        t2 = (soup.box_hi[None, :, :] - O[:, None, :]) * inv[:, None, :]
    tn = np.minimum(t1, t2)
    tf = np.maximum(t1, t2)
    # parallel ray lying exactly on a slab plane: treat as inside that slab
    np.nan_to_num(tn, copy=False, nan=-INF, posinf=INF, neginf=-INF)
    np.nan_to_num(tf, copy=False, nan=INF, posinf=INF, neginf=-INF)
    enter = tn.max(axis=2)
    exit_ = tf.min(axis=2)
    t = np.where(enter > tmin, enter, exit_)
    valid = (enter <= exit_) & (t > tmin)
    t = np.where(valid, t, INF)
    idx = np.argmin(t, axis=1)
    rows = np.arange(len(O))
    tbest = t[rows, idx]
    return tbest, (idx, tn, tf, enter > tmin)


def _box_normals(soup, O, D, tbest, payload, sel):
    idx, tn, tf, entered = payload
    rows = np.where(sel)[0]
    bidx = idx[rows]
    entered = entered[rows, bidx]  # else the ray enters at or before tmin
    ax_in = np.argmax(tn[rows, bidx], axis=1)
    ax_out = np.argmin(tf[rows, bidx], axis=1)
    axis = np.where(entered, ax_in, ax_out)
    normals = np.zeros((len(rows), 3))
    sign = -np.sign(D[rows, axis])
    normals[np.arange(len(rows)), axis] = np.where(sign == 0.0, 1.0, sign)
    return normals, soup.box_obj[bidx], soup.box_material[bidx]


def _sphere_hits(soup, O, D, tmin):
    n = len(soup.sphere_radius)
    if n == 0:
        return np.full(len(O), INF), None
    oc = O[:, None, :] - soup.sphere_center[None, :, :]
    b = np.einsum("rpk,rk->rp", oc, D)
    c = np.einsum("rpk,rpk->rp", oc, oc) - soup.sphere_radius[None, :] ** 2
    disc = b * b - c
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t_near = -b - sq
    t_far = -b + sq
    t = np.where(t_near > tmin, t_near, t_far)
    valid = hit & (t > tmin)
    t = np.where(valid, t, INF)
    idx = np.argmin(t, axis=1)
    rows = np.arange(len(O))
    return t[rows, idx], idx


def _sphere_normals(soup, O, D, tbest, idx, sel):
    rows = np.where(sel)[0]
    si = idx[rows]
    p = O[rows] + tbest[rows, None] * D[rows]
    n = (p - soup.sphere_center[si]) / soup.sphere_radius[si][:, None]
    flip = np.einsum("rk,rk->r", n, D[rows]) > 0.0
    n[flip] *= -1.0
    return n, soup.sphere_obj[si], soup.sphere_material[si]


def _cylinder_hits(soup, O, D, tmin):
    n = len(soup.cylinder_radius)
    if n == 0:
        return np.full(len(O), INF), None
    oxz = O[:, [0, 2]]
    dxz = D[:, [0, 2]]
    oc = oxz[:, None, :] - soup.cylinder_center[None, :, :]
    a = np.einsum("rk,rk->r", dxz, dxz)[:, None]
    b = np.einsum("rpk,rk->rp", oc, dxz)
    c = np.einsum("rpk,rpk->rp", oc, oc) - soup.cylinder_radius[None, :] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - a * c
        hit = disc >= 0.0
        sq = np.sqrt(np.where(hit, disc, 0.0))
        t1 = np.where(a > 0.0, (-b - sq) / a, INF)
        t2 = np.where(a > 0.0, (-b + sq) / a, INF)
    y = O[:, None, 1]
    dy = D[:, None, 1]
    y_at = lambda t: y + t * dy
    ok1 = hit & (t1 > tmin) & (y_at(t1) >= soup.cylinder_y0) & (y_at(t1) <= soup.cylinder_y1)
    ok2 = hit & (t2 > tmin) & (y_at(t2) >= soup.cylinder_y0) & (y_at(t2) <= soup.cylinder_y1)
    t = np.where(ok1, t1, np.where(ok2, t2, INF))
    idx = np.argmin(t, axis=1)
    rows = np.arange(len(O))
    return t[rows, idx], idx


def _cylinder_normals(soup, O, D, tbest, idx, sel):
    rows = np.where(sel)[0]
    ci = idx[rows]
    p = O[rows] + tbest[rows, None] * D[rows]
    radial = p[:, [0, 2]] - soup.cylinder_center[ci]
    r = soup.cylinder_radius[ci]
    n = np.zeros((len(rows), 3))
    n[:, 0] = radial[:, 0] / r
    n[:, 2] = radial[:, 1] / r
    flip = np.einsum("rk,rk->r", n, D[rows]) > 0.0
    n[flip] *= -1.0
    return n, soup.cylinder_obj[ci], soup.cylinder_material[ci]


def _rect_hits(soup, O, D, tmin):
    n = len(soup.rect_offset)
    if n == 0:
        return np.full(len(O), INF), None
    axes = soup.rect_axis
    o_ax = O[:, axes]
    d_ax = D[:, axes]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (soup.rect_offset[None, :] - o_ax) / d_ax
    np.nan_to_num(t, copy=False, nan=INF, posinf=INF, neginf=INF)
    ua = np.array([RECT_UV[int(a)][0] for a in axes], dtype=np.int64)
    va = np.array([RECT_UV[int(a)][1] for a in axes], dtype=np.int64)
    with np.errstate(invalid="ignore"):  # inf * 0 where a ray misses a rect's plane
        u = O[:, ua] + t * D[:, ua]
        v = O[:, va] + t * D[:, va]
    valid = (
        (t > tmin)
        & (u >= soup.rect_u[None, :, 0])
        & (u <= soup.rect_u[None, :, 1])
        & (v >= soup.rect_v[None, :, 0])
        & (v <= soup.rect_v[None, :, 1])
    )
    t = np.where(valid, t, INF)
    idx = np.argmin(t, axis=1)
    rows = np.arange(len(O))
    return t[rows, idx], idx


def _rect_normals(soup, O, D, tbest, idx, sel):
    rows = np.where(sel)[0]
    ri = idx[rows]
    axes = soup.rect_axis[ri]
    n = np.zeros((len(rows), 3))
    sign = -np.sign(D[rows, axes])
    n[np.arange(len(rows)), axes] = np.where(sign == 0.0, 1.0, sign)
    return n, soup.rect_obj[ri], soup.rect_material[ri]


def brute_trace(soup, O: np.ndarray, D: np.ndarray, tmin: float = 1e-6) -> Hit:
    """Nearest intersection of each ray with the scene, every ray tested
    against every primitive of a ``PrimitiveSoup``.

    Misses get t=inf, ids -1 and zero normals.  Rectangles take priority
    over volume primitives at (near-)equal distance so coplanar window
    overlays are visible.
    """
    n_rays = len(O)
    n_prims = max(1, soup.n_primitives)
    chunk = max(256, _CHUNK_PAIRS // n_prims)
    if n_rays > chunk:
        parts = [
            brute_trace(soup, O[i : i + chunk], D[i : i + chunk], tmin)
            for i in range(0, n_rays, chunk)
        ]
        return Hit(
            np.concatenate([p.t for p in parts]),
            np.concatenate([p.obj_id for p in parts]),
            np.concatenate([p.mat_id for p in parts]),
            np.concatenate([p.normal for p in parts]),
            np.concatenate([p.point for p in parts]),
        )

    t_box, pay_box = _box_hits(soup, O, D, tmin)
    t_sph, pay_sph = _sphere_hits(soup, O, D, tmin)
    t_cyl, pay_cyl = _cylinder_hits(soup, O, D, tmin)
    t_rect, pay_rect = _rect_hits(soup, O, D, tmin)

    t_vol = np.minimum(np.minimum(t_box, t_sph), t_cyl)
    rect_wins = t_rect <= t_vol * (1.0 + _TIE_EPS) + _TIE_EPS
    t = np.where(rect_wins, t_rect, t_vol)

    obj = np.full(n_rays, -1, dtype=np.int32)
    mat = np.full(n_rays, -1, dtype=np.int32)
    normal = np.zeros((n_rays, 3))

    sel_rect = rect_wins & np.isfinite(t_rect)
    sel_box = ~sel_rect & np.isfinite(t_box) & (t_box == t_vol)
    sel_sph = ~sel_rect & ~sel_box & np.isfinite(t_sph) & (t_sph == t_vol)
    sel_cyl = ~sel_rect & ~sel_box & ~sel_sph & np.isfinite(t_cyl) & (t_cyl == t_vol)

    for sel, tfam, payload, fn in (
        (sel_rect, t_rect, pay_rect, _rect_normals),
        (sel_box, t_box, pay_box, _box_normals),
        (sel_sph, t_sph, pay_sph, _sphere_normals),
        (sel_cyl, t_cyl, pay_cyl, _cylinder_normals),
    ):
        if payload is None or not sel.any():
            continue
        n_sel, o_sel, m_sel = fn(soup, O, D, tfam, payload, sel)
        normal[sel] = n_sel
        obj[sel] = o_sel
        mat[sel] = m_sel

    point = O + np.where(np.isfinite(t), t, 0.0)[:, None] * D
    return Hit(t, obj, mat, normal, point)


def brute_occluded(soup, O, D, tmax, tmin: float = 1e-6) -> np.ndarray:
    """Whether anything blocks each ray before ``tmax`` (scalar or array)."""
    hit = brute_trace(soup, O, D, tmin)
    return hit.t < tmax


def scene_json(scene) -> str:
    """A scene graph's canonical JSON, encoded in one ``json.dumps`` call."""
    doc = {
        "seed": scene.seed,
        "world_bounds": list(scene.world_bounds),
        "manhattan": scene.manhattan,
        "objects": [
            {
                "object_id": o.object_id,
                "class": o.mark.object_class.value,
                "position": list(o.mark.position),
                "length": o.mark.length,
                "breadth": o.mark.breadth,
                "height": o.mark.height,
                "yaw": o.mark.yaw,
                "dynamic": o.dynamic,
                "y_offset": o.y_offset,
                "primitives": [dataclasses.asdict(p) for p in o.primitives],
            }
            for o in scene.objects
        ],
        "materials": {
            str(mid): {
                "name": m.name,
                "kind": m.kind,
                "albedo": list(m.albedo),
                "specular": m.specular,
                "emissive": list(m.emissive),
                "texture": None if m.texture is None else {
                    "pattern": m.texture.pattern,
                    "scale": m.texture.scale,
                    "contrast": m.texture.contrast,
                },
            }
            for mid, m in scene.materials.items()
        },
        "lights": [
            {
                "kind": l.kind,
                "color": list(l.color),
                "intensity": l.intensity,
                "direction": list(l.direction) if l.direction else None,
                "position": list(l.position) if l.position else None,
                "cone_deg": l.cone_deg,
                "name": l.name,
            }
            for l in scene.lights
        ],
        "medium": {
            "beta": list(scene.medium.beta),
            "anisotropy": scene.medium.anisotropy,
            "airlight_color": list(scene.medium.airlight_color),
            "weather_tag": scene.medium.weather_tag,
            "layer_height": scene.medium.layer_height,
        },
        "camera": {
            "position": list(scene.camera.position),
            "look_at": list(scene.camera.look_at),
            "up": list(scene.camera.up),
            "vfov_deg": scene.camera.vfov_deg,
        },
        "dynamics": [list(k) for k in scene.dynamics.keyframes],
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def _loop_airlight(medium, dirs, lights, depth):
    """In-scattered radiance, recomputing the source colors per call."""
    one_minus_t = 1.0 - transmittance(medium, depth)
    out = np.zeros(one_minus_t.shape)
    if medium.is_clear:
        return out
    ambient = np.zeros(3)
    for light in lights:
        if light.kind == "ambient":
            ambient += np.asarray(light.color) * light.intensity
    out += one_minus_t * (np.asarray(medium.airlight_color) * ambient)
    for light in lights:
        if light.kind != "directional":
            continue
        sun = np.asarray(light.direction)
        phase = schlick_phase(medium.anisotropy, np.clip(-(dirs @ sun), -1.0, 1.0))
        rgb = np.asarray(light.color) * light.intensity * sun_transmittance(medium, sun)
        out += one_minus_t * (phase[..., None] * rgb)
    return out


def _loop_shade_sample(setups, soup, mtab, O, D, bounce=None):
    """Every setup's radiance along one sample's rays, traced and shaded
    together, per-setup buffers held through the bounces."""
    hit = trace(soup, O, D)
    m = hit.mask
    if m.any():
        pts, nrm = hit.point[m], hit.normal[m]
        rows = mtab.row(hit.mat_id[m])
        alb = albedo_at(mtab, hit.mat_id[m], pts)
        factors = _light_factors(soup, setups[0][2], pts, nrm)
        Ls = []
        for _, _, ltab in setups:
            L = alb * ltab.ambient
            for g, rgb in zip(factors, ltab.direct_rgb):
                L = L + (alb / math.pi) * g[:, None] * rgb
            Ls.append(mtab.emissive[rows] + L)
        if bounce is not None:
            rng, spp, sample_index = bounce
            u = rng.random((int(m.sum()), 2))
            dirs = _cosine_dirs(nrm, (sample_index + u[:, 0]) / spp, u[:, 1])
            Lin = _loop_shade_sample(setups, soup, mtab, pts + nrm * _SHADOW_EPS, dirs)
            Ls = [Ls_k + alb * Lin_k for Ls_k, Lin_k in zip(Ls, Lin)]
            spec = mtab.specular[rows]
            sp = spec > 0.0
            if sp.any():
                d_in, n_sp = D[m][sp], nrm[sp]
                refl = d_in - 2.0 * np.einsum("rk,rk->r", d_in, n_sp)[:, None] * n_sp
                Lr = _loop_shade_sample(setups, soup, mtab, pts[sp] + n_sp * _SHADOW_EPS, refl)
                for Ls_k, Lr_k in zip(Ls, Lr):
                    Ls_k[sp] += spec[sp, None] * Lr_k
    out = []
    for k, (medium, lights, ltab) in enumerate(setups):
        L = np.zeros((len(O), 3))
        if m.any():
            L[m] = Ls[k]
        L[~m] = ltab.ambient
        T = transmittance(medium, hit.t)
        out.append(T * L + _loop_airlight(medium, D, lights, hit.t))
    return out


def loop_render_setups(scene, setups, cfg, return_variance=False):
    """(mean, variance or None) per (medium, lights) setup from a Monte Carlo
    pass that traces one sample at a time and shades every setup from it."""
    cam = Camera(scene.camera, cfg.width, cfg.height)
    mtab = _MaterialTable(scene)
    setups = [(medium, lights, _LightTable(lights, medium)) for medium, lights in setups]
    h, w, spp = cfg.height, cfg.width, cfg.samples_per_pixel
    acc = [np.zeros((h * w, 3)) for _ in setups]
    acc_sq = [np.zeros((h * w, 3)) for _ in setups]
    for s in range(spp):
        rng = _sample_stream(cfg.rng_seed, s)
        O, D = cam.rays(rng.random((h, w, 2)) - 0.5)
        bounce = (rng, spp, s) if cfg.max_bounces >= 1 else None
        for k, L in enumerate(_loop_shade_sample(setups, scene.soup, mtab, O, D, bounce)):
            acc[k] += L
            acc_sq[k] += L * L
    out = []
    for k in range(len(setups)):
        variance = None
        if return_variance and spp > 1:
            sample_var = (acc_sq[k] - acc[k] * acc[k] / spp) / (spp - 1)
            variance = np.maximum(sample_var, 0.0).reshape(h, w, 3) / spp
        out.append(((acc[k] / spp).reshape(h, w, 3), variance))
    return out


#: one row of a manifold: its context, its coordinates as {axis: value}
#: dicts, and its statistics
Row = namedtuple("Row", "context theta_w theta_v mean std n")


def manifold_of(model, theta_w_axes, theta_v_axes, rows):
    """The Manifold of ``rows`` (at least one ``Row``), in columns."""
    from invarsim.characterize import Manifold

    context, theta_w, theta_v, mean, std, n = zip(*rows)
    coords = {a: [c[a] for c in theta_w] for a in theta_w_axes}
    coords.update({a: [c[a] for c in theta_v] for a in theta_v_axes})
    return Manifold(model, theta_w_axes, theta_v_axes, context, coords, mean, std, n)


def rows_of(manifold):
    """The rows of ``manifold``, in order, one ``Row`` each."""
    columns = [manifold.context, *manifold.coords.values(), manifold.mean, manifold.std,
               manifold.n]
    w = len(manifold.theta_w_axes)
    return [Row(context, dict(zip(manifold.theta_w_axes, keys[:w])),
                dict(zip(manifold.theta_v_axes, keys[w:])), mean, std, n)
            for context, *keys, mean, std, n in zip(*(c.tolist() for c in columns))]


def loop_heatmap_svg(manifold, context, x_axis, y_axis):
    """One context's heatmap SVG, scanning every row for it."""
    xs = manifold.axis_values(x_axis)
    ys = manifold.axis_values(y_axis)
    grid = np.full((len(ys), len(xs)), np.nan)
    for r in rows_of(manifold):
        if r.context != context:
            continue
        coords = {**r.theta_w, **r.theta_v}
        if r.n > 0:
            grid[ys.index(coords[y_axis]), xs.index(coords[x_axis])] = r.mean
    finite = grid[np.isfinite(grid)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo if hi > lo else 1.0

    def short(v):
        return f"{v:.3g}" if isinstance(v, float) else str(v)

    cell, margin = 14, 60
    width = margin + cell * len(xs) + 20
    height = margin + cell * len(ys) + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{margin}" y="16" font-size="12" font-family="monospace">'
        f'{manifold.model} {context}: mean_E over ({x_axis}, {y_axis}), '
        f'range [{lo:.6g}, {hi:.6g}]</text>',
    ]
    for i, yv in enumerate(ys):
        for j, xv in enumerate(xs):
            v = float(grid[i, j])
            if math.isnan(v):
                fill = "#b0b0b0"
            else:
                t = (v - lo) / span
                fill = (f"#{int(40 + 215 * t):02x}{int(60 + 80 * (1 - abs(2 * t - 1))):02x}"
                        f"{int(255 - 215 * t):02x}")
            parts.append(f'<rect x="{margin + j * cell}" y="{margin - 20 + i * cell}" '
                         f'width="{cell}" height="{cell}" '
                         f'fill="{fill}"><title>{x_axis}={xv!r} {y_axis}={yv!r} '
                         f'mean_E={v!r}</title></rect>')
    for i, yv in enumerate(ys):
        parts.append(f'<text x="4" y="{margin - 10 + i * cell}" font-size="9" '
                     f'font-family="monospace">{short(yv)}</text>')
    step = max(1, len(xs) // 8)
    for j in range(0, len(xs), step):
        parts.append(f'<text x="{margin + j * cell}" '
                     f'y="{margin - 24 + len(ys) * cell + 14}" font-size="9" '
                     f'font-family="monospace">{short(xs[j])}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def traced_flow(scene_t, scene_t1, cfg):
    """Exact forward flow and occlusion mask between two scene states, each
    state's center-of-pixel rays traced here.

    Per hit pixel the 3-D hit point is moved by its object's rigid
    displacement and reprojected through the frame-t+1 camera; flow is the
    pixel-coordinate difference (u = columns, v = rows).  A pixel is
    occluded when the object id found at the rounded target pixel in frame
    t+1 differs (targets outside the image count as occluded).  Sky pixels
    get zero flow and are compared in place.
    """
    ids_t = {o.object_id for o in scene_t.objects}
    ids_t1 = {o.object_id for o in scene_t1.objects}
    if ids_t != ids_t1:
        raise IdentityMismatchError(
            f"object identity sets differ: {sorted(ids_t ^ ids_t1)}"
        )

    h, w = cfg.height, cfg.width
    cam_t = Camera(scene_t.camera, w, h)
    cam_t1 = Camera(scene_t1.camera, w, h)
    O, D = cam_t.rays()
    hit = trace(scene_t.soup, O, D)
    O1, D1 = cam_t1.rays()
    hit1 = trace(scene_t1.soup, O1, D1)
    ids1 = np.where(hit1.mask, hit1.obj_id, SKY_OBJECT_ID).reshape(h, w)

    max_id = max(ids_t, default=-1)
    disp = np.zeros((max_id + 1, 3))
    for obj in scene_t.objects:
        a0 = np.asarray(obj.anchor())
        a1 = np.asarray(scene_t1.object_by_id(obj.object_id).anchor())
        disp[obj.object_id] = a1 - a0

    flow = np.zeros((h * w, 2))
    occl = np.zeros(h * w, dtype=bool)
    m = hit.mask
    jj, ii = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    cols = ii.reshape(-1).astype(float)
    rows = jj.reshape(-1).astype(float)

    same_camera = scene_t.camera == scene_t1.camera
    if m.any():
        moved = hit.point[m] + disp[hit.obj_id[m]]
        proj = cam_t1.project(moved)
        fu = proj[:, 0] - cols[m]
        fv = proj[:, 1] - rows[m]
        if same_camera:
            # a stationary point reprojects to its own pixel exactly
            static = np.all(disp[hit.obj_id[m]] == 0.0, axis=1)
            fu[static] = 0.0
            fv[static] = 0.0
            proj[static, 0] = cols[m][static]
            proj[static, 1] = rows[m][static]
        flow[m, 0] = fu
        flow[m, 1] = fv
        tc = np.rint(proj[:, 0])
        tr = np.rint(proj[:, 1])
        inside = (
            np.isfinite(tc) & np.isfinite(tr)
            & (tc >= 0) & (tc < w) & (tr >= 0) & (tr < h)
        )
        occ_hit = np.ones(int(m.sum()), dtype=bool)
        ti = tc[inside].astype(int)
        tj = tr[inside].astype(int)
        occ_hit[inside] = ids1[tj, ti] != hit.obj_id[m][inside]
        occl[m] = occ_hit

    sky = ~m
    if sky.any():
        same_px_ids = ids1.reshape(-1)[sky]
        occl[sky] = same_px_ids != SKY_OBJECT_ID

    return flow.reshape(h, w, 2), occl.reshape(h, w)
