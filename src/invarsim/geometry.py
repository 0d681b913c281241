"""Ray/primitive intersection and the pinhole camera.

The scene's primitives are flattened into struct-of-arrays (one array bundle
per primitive family) so a whole batch of rays is intersected with numpy
ops, no per-ray Python.  Window rectangles are coplanar with the faces they
decorate, so rectangles win ties against volume primitives within a small
epsilon.
"""

from __future__ import annotations

import math

import numpy as np

INF = np.inf
_TIE_EPS = 1e-9
#: max ray x primitive pairs handled in one vectorized block
_CHUNK_PAIRS = 4_000_000


class PrimitiveSoup:
    """Flattened primitives of a scene, ready for batched intersection."""

    def __init__(self):
        self.box_lo = np.zeros((0, 3))
        self.box_hi = np.zeros((0, 3))
        self.box_obj = np.zeros(0, dtype=np.int32)
        self.box_mat = np.zeros(0, dtype=np.int32)
        self.sph_c = np.zeros((0, 3))
        self.sph_r = np.zeros(0)
        self.sph_obj = np.zeros(0, dtype=np.int32)
        self.sph_mat = np.zeros(0, dtype=np.int32)
        self.cyl_c = np.zeros((0, 2))
        self.cyl_r = np.zeros(0)
        self.cyl_y0 = np.zeros(0)
        self.cyl_y1 = np.zeros(0)
        self.cyl_obj = np.zeros(0, dtype=np.int32)
        self.cyl_mat = np.zeros(0, dtype=np.int32)
        self.rect_axis = np.zeros(0, dtype=np.int32)
        self.rect_off = np.zeros(0)
        self.rect_u = np.zeros((0, 2))
        self.rect_v = np.zeros((0, 2))
        self.rect_obj = np.zeros(0, dtype=np.int32)
        self.rect_mat = np.zeros(0, dtype=np.int32)

    @classmethod
    def from_scene(cls, scene) -> "PrimitiveSoup":
        soup = cls()
        boxes, sphs, cyls, rects = [], [], [], []
        for obj in scene.objects:
            for p in obj.primitives:
                entry = (p, obj.object_id)
                {"box": boxes, "sphere": sphs, "cylinder": cyls, "rect": rects}[
                    p["kind"]
                ].append(entry)
        if boxes:
            soup.box_lo = np.array([p["lo"] for p, _ in boxes], dtype=float)
            soup.box_hi = np.array([p["hi"] for p, _ in boxes], dtype=float)
            soup.box_obj = np.array([o for _, o in boxes], dtype=np.int32)
            soup.box_mat = np.array([p["material"] for p, _ in boxes], dtype=np.int32)
        if sphs:
            soup.sph_c = np.array([p["center"] for p, _ in sphs], dtype=float)
            soup.sph_r = np.array([p["radius"] for p, _ in sphs], dtype=float)
            soup.sph_obj = np.array([o for _, o in sphs], dtype=np.int32)
            soup.sph_mat = np.array([p["material"] for p, _ in sphs], dtype=np.int32)
        if cyls:
            soup.cyl_c = np.array([p["center"] for p, _ in cyls], dtype=float)
            soup.cyl_r = np.array([p["radius"] for p, _ in cyls], dtype=float)
            soup.cyl_y0 = np.array([p["y0"] for p, _ in cyls], dtype=float)
            soup.cyl_y1 = np.array([p["y1"] for p, _ in cyls], dtype=float)
            soup.cyl_obj = np.array([o for _, o in cyls], dtype=np.int32)
            soup.cyl_mat = np.array([p["material"] for p, _ in cyls], dtype=np.int32)
        if rects:
            soup.rect_axis = np.array([p["axis"] for p, _ in rects], dtype=np.int32)
            soup.rect_off = np.array([p["offset"] for p, _ in rects], dtype=float)
            soup.rect_u = np.array([p["u"] for p, _ in rects], dtype=float)
            soup.rect_v = np.array([p["v"] for p, _ in rects], dtype=float)
            soup.rect_obj = np.array([o for _, o in rects], dtype=np.int32)
            soup.rect_mat = np.array([p["material"] for p, _ in rects], dtype=np.int32)
        return soup

    @property
    def n_primitives(self):
        return (
            len(self.box_lo) + len(self.sph_r) + len(self.cyl_r) + len(self.rect_off)
        )


#: (u, v) world axes spanned by a rect whose normal is along each axis
RECT_UV = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


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
    return tbest, (idx, tn, tf, enter)


def _box_normals(soup, O, D, tbest, payload, sel):
    idx, tn, tf, enter = payload
    rows = np.where(sel)[0]
    bidx = idx[rows]
    entered = enter[rows, bidx] > 1e-6  # else the ray started inside
    ax_in = np.argmax(tn[rows, bidx], axis=1)
    ax_out = np.argmin(tf[rows, bidx], axis=1)
    axis = np.where(entered, ax_in, ax_out)
    normals = np.zeros((len(rows), 3))
    sign = -np.sign(D[rows, axis])
    normals[np.arange(len(rows)), axis] = np.where(sign == 0.0, 1.0, sign)
    return normals, soup.box_obj[bidx], soup.box_mat[bidx]


def _sphere_hits(soup, O, D, tmin):
    n = len(soup.sph_r)
    if n == 0:
        return np.full(len(O), INF), None
    oc = O[:, None, :] - soup.sph_c[None, :, :]
    b = np.einsum("rpk,rk->rp", oc, D)
    c = np.einsum("rpk,rpk->rp", oc, oc) - soup.sph_r[None, :] ** 2
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
    n = (p - soup.sph_c[si]) / soup.sph_r[si][:, None]
    flip = np.einsum("rk,rk->r", n, D[rows]) > 0.0
    n[flip] *= -1.0
    return n, soup.sph_obj[si], soup.sph_mat[si]


def _cylinder_hits(soup, O, D, tmin):
    n = len(soup.cyl_r)
    if n == 0:
        return np.full(len(O), INF), None
    oxz = O[:, [0, 2]]
    dxz = D[:, [0, 2]]
    oc = oxz[:, None, :] - soup.cyl_c[None, :, :]
    a = np.einsum("rk,rk->r", dxz, dxz)[:, None]
    b = np.einsum("rpk,rk->rp", oc, dxz)
    c = np.einsum("rpk,rpk->rp", oc, oc) - soup.cyl_r[None, :] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - a * c
        hit = disc >= 0.0
        sq = np.sqrt(np.where(hit, disc, 0.0))
        t1 = np.where(a > 0.0, (-b - sq) / a, INF)
        t2 = np.where(a > 0.0, (-b + sq) / a, INF)
    y = O[:, None, 1]
    dy = D[:, None, 1]
    y_at = lambda t: y + t * dy
    ok1 = hit & (t1 > tmin) & (y_at(t1) >= soup.cyl_y0) & (y_at(t1) <= soup.cyl_y1)
    ok2 = hit & (t2 > tmin) & (y_at(t2) >= soup.cyl_y0) & (y_at(t2) <= soup.cyl_y1)
    t = np.where(ok1, t1, np.where(ok2, t2, INF))
    idx = np.argmin(t, axis=1)
    rows = np.arange(len(O))
    return t[rows, idx], idx


def _cylinder_normals(soup, O, D, tbest, idx, sel):
    rows = np.where(sel)[0]
    ci = idx[rows]
    p = O[rows] + tbest[rows, None] * D[rows]
    radial = p[:, [0, 2]] - soup.cyl_c[ci]
    r = soup.cyl_r[ci]
    n = np.zeros((len(rows), 3))
    n[:, 0] = radial[:, 0] / r
    n[:, 2] = radial[:, 1] / r
    flip = np.einsum("rk,rk->r", n, D[rows]) > 0.0
    n[flip] *= -1.0
    return n, soup.cyl_obj[ci], soup.cyl_mat[ci]


def _rect_hits(soup, O, D, tmin):
    n = len(soup.rect_off)
    if n == 0:
        return np.full(len(O), INF), None
    axes = soup.rect_axis
    o_ax = O[:, axes]
    d_ax = D[:, axes]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (soup.rect_off[None, :] - o_ax) / d_ax
    np.nan_to_num(t, copy=False, nan=INF, posinf=INF, neginf=INF)
    ua = np.array([RECT_UV[int(a)][0] for a in axes], dtype=np.int64)
    va = np.array([RECT_UV[int(a)][1] for a in axes], dtype=np.int64)
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
    return n, soup.rect_obj[ri], soup.rect_mat[ri]


class Hit:
    """Batched intersection result; arrays are aligned with the input rays."""

    __slots__ = ("t", "obj_id", "mat_id", "normal", "point")

    def __init__(self, t, obj_id, mat_id, normal, point):
        self.t = t
        self.obj_id = obj_id
        self.mat_id = mat_id
        self.normal = normal
        self.point = point

    @property
    def mask(self):
        return np.isfinite(self.t)


def trace(soup: PrimitiveSoup, O: np.ndarray, D: np.ndarray, tmin: float = 1e-6) -> Hit:
    """Nearest intersection of each ray with the scene.

    Misses get t=inf, ids -1 and zero normals.  Rectangles take priority
    over volume primitives at (near-)equal distance so coplanar window
    overlays are visible.
    """
    n_rays = len(O)
    n_prims = max(1, soup.n_primitives)
    chunk = max(256, _CHUNK_PAIRS // n_prims)
    if n_rays > chunk:
        parts = [
            trace(soup, O[i : i + chunk], D[i : i + chunk], tmin)
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


def occluded(soup: PrimitiveSoup, O, D, tmax, tmin: float = 1e-6) -> np.ndarray:
    """Whether anything blocks each ray before ``tmax`` (scalar or array)."""
    hit = trace(soup, O, D, tmin)
    return hit.t < tmax


class Camera:
    """Pinhole camera resolved against a pixel grid.

    Pixel (row j, col i) centers sit at (i + 0.5, j + 0.5); ``rays`` accepts
    a per-pixel jitter in [-0.5, 0.5).  ``project`` is the exact inverse of
    the ray direction construction, returning fractional pixel coordinates.
    """

    def __init__(self, spec, width: int, height: int):
        self.width = int(width)
        self.height = int(height)
        pos = np.asarray(spec.position, dtype=float)
        fwd = np.asarray(spec.look_at, dtype=float) - pos
        fwd = fwd / np.linalg.norm(fwd)
        up_hint = np.asarray(spec.up, dtype=float)
        # right-handed basis: right x up = forward, so +x world maps to
        # image right for the default forward=+z, up=+y setup
        right = np.cross(up_hint, fwd)
        nr = np.linalg.norm(right)
        if nr < 1e-12:
            raise ValueError("camera up vector parallel to view direction")
        right /= nr
        up = np.cross(fwd, right)
        self.position = pos
        self.forward = fwd
        self.right = right
        self.up = up
        self.tan_half = math.tan(math.radians(spec.vfov_deg) / 2.0)
        self.aspect = self.width / self.height

    @property
    def focal_px(self) -> float:
        """Focal length in pixels (same for both axes)."""
        return (self.height / 2.0) / self.tan_half

    def rays(self, jitter=None):
        """Origins (N,3) and unit directions (N,3), row-major pixel order."""
        h, w = self.height, self.width
        jj, ii = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        px = ii.astype(float) + 0.5
        py = jj.astype(float) + 0.5
        if jitter is not None:
            px = px + jitter[..., 0]
            py = py + jitter[..., 1]
        ndc_x = (px / w * 2.0 - 1.0) * self.tan_half * self.aspect
        ndc_y = (1.0 - py / h * 2.0) * self.tan_half
        d = (
            self.forward[None, None, :]
            + ndc_x[..., None] * self.right[None, None, :]
            + ndc_y[..., None] * self.up[None, None, :]
        )
        d = d / np.linalg.norm(d, axis=-1, keepdims=True)
        O = np.broadcast_to(self.position, d.reshape(-1, 3).shape).copy()
        return O, d.reshape(-1, 3)

    def project(self, points):
        """World points (N,3) -> fractional (col, row) pixel coordinates.

        Points behind the camera get NaN coordinates.
        """
        v = np.asarray(points, dtype=float) - self.position
        z = v @ self.forward
        x = v @ self.right
        y = v @ self.up
        with np.errstate(divide="ignore", invalid="ignore"):
            ndc_x = np.where(z > 0.0, x / z, np.nan)
            ndc_y = np.where(z > 0.0, y / z, np.nan)
        col = (ndc_x / (self.tan_half * self.aspect) + 1.0) * self.width / 2.0 - 0.5
        row = (1.0 - ndc_y / self.tan_half) * self.height / 2.0 - 0.5
        return np.stack([col, row], axis=-1)
