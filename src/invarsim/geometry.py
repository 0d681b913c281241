"""The primitive types, ray/primitive intersection and the pinhole camera.

A primitive is a frozen dataclass, ``Box``, ``Sphere``, ``Cylinder`` or
``Rect``, tagged in a scene document by its ``kind``; its
``translated(offset)`` is a copy shifted by (dx, dy, dz).  The scene's
primitives are flattened into struct-of-arrays, each field of a family's
type one column ``<family>_<field>`` such as ``sphere_radius``, so a whole
batch of rays is intersected with numpy ops, no per-ray Python.  Tracing
culls before it tests: rays are slab-tested against each object's padded
axis-aligned bounds, and only the primitives of the objects a ray meets are
tested exactly.  A scene of 16 objects or more first groups its objects
into clusters on a coarse grid over the ground (x, z), so a ray is
slab-tested against a few cluster bounds and then only against the objects
of the clusters it meets.  A cluster's bounds hold its
members' bounds, so the cluster level drops only (ray, object) pairs the
object slab test would drop too.  Each level is conservative, so it only
skips work: every hit equals testing every ray against every primitive.
Window rectangles are coplanar with the faces they decorate, so rectangles
win ties against volume primitives within a small epsilon.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import typing
from dataclasses import dataclass

import numpy as np

from .codec import _INTEGER, _Kind
from .errors import ConfigError

INF = np.inf
_TIE_EPS = 1e-9
#: object bounds are padded by this fraction of (1 + their largest absolute
#: coordinate), far above the rounding of any hit formula, so that a ray the
#: exact test hits is never culled
_BOUNDS_EPS = 1e-7
#: max ray x cluster, ray x object and ray x primitive candidates handled in
#: one block
_CHUNK_PAIRS = 250_000
#: objects per cluster the grid aims at; a scene whose grid would have fewer
#: than 2 cells a side has no cluster level
_CLUSTER_OBJECTS = 4

#: (u, v) world axes spanned by a rect whose normal is along each axis
RECT_UV = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
_RECT_U = np.array([RECT_UV[a][0] for a in range(3)], dtype=np.intp)
_RECT_V = np.array([RECT_UV[a][1] for a in range(3)], dtype=np.intp)


@dataclass(frozen=True)
class Box:
    """The axis-aligned box with opposite corners ``lo`` and ``hi``."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    material: int
    kind: str = "box"

    def translated(self, offset) -> "Box":
        return dataclasses.replace(self, lo=tuple(map(operator.add, self.lo, offset)),
                                   hi=tuple(map(operator.add, self.hi, offset)))


@dataclass(frozen=True)
class Sphere:
    """The sphere of ``radius`` > 0 about ``center``."""

    center: tuple[float, float, float]
    radius: float
    material: int
    kind: str = "sphere"

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ConfigError(f"sphere radius must be > 0, got {self.radius}")

    def translated(self, offset) -> "Sphere":
        return dataclasses.replace(self, center=tuple(map(operator.add, self.center, offset)))


@dataclass(frozen=True)
class Cylinder:
    """The side of the upright cylinder of ``radius`` > 0 about the (x, z)
    ``center``, from height ``y0`` up to ``y1``."""

    center: tuple[float, float]
    radius: float
    y0: float
    y1: float
    material: int
    kind: str = "cylinder"

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ConfigError(f"cylinder radius must be > 0, got {self.radius}")
        if not self.y0 <= self.y1:
            raise ConfigError(f"cylinder y0 must be <= y1, got y0={self.y0} y1={self.y1}")

    def translated(self, offset) -> "Cylinder":
        dx, dy, dz = offset
        return dataclasses.replace(self, center=(self.center[0] + dx, self.center[1] + dz),
                                   y0=self.y0 + dy, y1=self.y1 + dy)


@dataclass(frozen=True)
class Rect:
    """The rectangle in the plane where world axis ``axis`` is ``offset``,
    spanning ``u`` and ``v``, each (low, high), along the world axes
    ``RECT_UV[axis]``."""

    axis: int = dataclasses.field(metadata={"kind": _Kind(
        "0, 1 or 2", lambda v: _INTEGER.test(v) and 0 <= v <= 2,
        code=(f"({_INTEGER.code[0]}) and 0 <= {{v}} <= 2", "{v}"))})
    offset: float
    u: tuple[float, float]
    v: tuple[float, float]
    material: int
    kind: str = "rect"

    def __post_init__(self):
        if not (self.u[0] <= self.u[1] and self.v[0] <= self.v[1]):
            raise ConfigError(f"rect u and v must each be (low, high), got u={self.u} v={self.v}")

    def translated(self, offset) -> "Rect":
        u_axis, v_axis = RECT_UV[self.axis]
        du, dv = offset[u_axis], offset[v_axis]
        return dataclasses.replace(self, offset=self.offset + offset[self.axis],
                                   u=(self.u[0] + du, self.u[1] + du),
                                   v=(self.v[0] + dv, self.v[1] + dv))


#: the primitive type of each family's tag, in the order hits are resolved
PRIMITIVES = {cls.kind: cls for cls in (Box, Sphere, Cylinder, Rect)}
FAMILIES = tuple(PRIMITIVES)


@functools.cache
def _columns(cls):
    """(field, dtype, array shape) of each soup column of primitive type ``cls``."""
    columns = []
    for name, hint in typing.get_type_hints(cls).items():
        if name != "kind":
            items = typing.get_args(hint)  # of a tuple field
            columns.append((name, np.int32 if hint is int else float,
                            (-1, len(items)) if items else (-1,)))
    return tuple(columns)


class PrimitiveSoup:
    """Flattened primitives of scene objects, ready for batched intersection.

    Each field of a family's type is a column ``<family>_<field>``, one row
    per primitive, and ``<family>_obj`` holds each primitive's object id;
    ``rect_ua``/``rect_va`` are the world axes a rect's ``u``/``v`` span.
    Each object's primitives are contiguous within each family, in scene
    order.  ``obj_lo``/``obj_hi`` are the padded bounds of every object that
    has primitives, and ``ranges[family]`` holds, per such object, the index
    of its first primitive in that family and their count.  ``clu_lo``/
    ``clu_hi`` are the bounds of each cluster of objects (none in a small
    scene), and ``clu_obj[clu_first[c]:clu_first[c] + clu_count[c]]`` are
    the objects of cluster ``c``.
    """

    def __init__(self, objects=()):
        objects = [obj for obj in objects if obj.primitives]
        fams = {f: [] for f in FAMILIES}
        for k, obj in enumerate(objects):
            for p in obj.primitives:
                fams[p.kind].append((p, obj.object_id, k))
        owners = {}
        for fam, members in fams.items():
            prims = [p for p, _, _ in members]
            for name, dtype, shape in _columns(PRIMITIVES[fam]):
                column = np.array(list(map(operator.attrgetter(name), prims)), dtype=dtype)
                setattr(self, f"{fam}_{name}", column.reshape(shape))
            setattr(self, f"{fam}_obj", np.array([o for _, o, _ in members], dtype=np.int32))
            owners[fam] = np.array([k for _, _, k in members], dtype=np.intp)
        self.rect_ua = _RECT_U[self.rect_axis]
        self.rect_va = _RECT_V[self.rect_axis]
        self._bound_objects(len(objects), owners)

    @classmethod
    def from_scene(cls, scene) -> "PrimitiveSoup":
        return cls(scene.objects)

    def _bound_objects(self, n_obj, owners):
        """Per-object padded bounds and per-family primitive ranges, from the
        owning object of every primitive (nondecreasing within a family)."""
        lo = np.full((n_obj, 3), INF)
        hi = np.full((n_obj, 3), -INF)
        self.obj_prims = np.zeros(n_obj, dtype=np.intp)
        self.ranges = {}
        for fam, (plo, phi) in zip(FAMILIES, self._primitive_bounds()):
            owner = owners[fam]
            np.minimum.at(lo, owner, plo)
            np.maximum.at(hi, owner, phi)
            count = np.bincount(owner, minlength=n_obj)
            self.ranges[fam] = (np.cumsum(count) - count, count)
            self.obj_prims += count
        pad = _BOUNDS_EPS * (1.0 + np.maximum(np.abs(lo), np.abs(hi)).max(axis=1))
        self.obj_lo = lo - pad[:, None]
        self.obj_hi = hi + pad[:, None]
        side = math.isqrt(n_obj // _CLUSTER_OBJECTS)
        if side >= 2:
            self._cluster_objects(side)
        else:
            self.clu_lo = self.clu_hi = np.zeros((0, 3))
            self.clu_obj = self.clu_first = self.clu_count = np.zeros(0, dtype=np.intp)

    def _cluster_objects(self, side):
        """Group the objects on a ``side`` x ``side`` grid over the (x, z)
        extent of their bounds, by the centre of their bounds.  An object
        wider than a cell along x or z is a cluster of its own."""
        xz = [0, 2]
        lo, hi = self.obj_lo[:, xz], self.obj_hi[:, xz]
        origin = lo.min(axis=0)
        cell = (hi.max(axis=0) - origin) / side
        ij = np.clip(((0.5 * (lo + hi) - origin) / cell).astype(np.intp), 0, side - 1)
        wide = (hi - lo > cell).any(axis=1)
        key = np.where(wide, side * side + np.arange(len(lo)), ij[:, 0] * side + ij[:, 1])
        self.clu_obj = np.argsort(key, kind="stable")
        key = key[self.clu_obj]
        self.clu_first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        self.clu_count = np.diff(np.r_[self.clu_first, len(key)])
        self.clu_lo = np.minimum.reduceat(self.obj_lo[self.clu_obj], self.clu_first)
        self.clu_hi = np.maximum.reduceat(self.obj_hi[self.clu_obj], self.clu_first)

    def _primitive_bounds(self):
        """(lo, hi) corners of every primitive's axis-aligned bounds, per family."""
        yield np.minimum(self.box_lo, self.box_hi), np.maximum(self.box_lo, self.box_hi)
        r = self.sphere_radius[:, None]
        yield self.sphere_center - r, self.sphere_center + r
        r = self.cylinder_radius
        x, z = self.cylinder_center[:, 0], self.cylinder_center[:, 1]
        yield (np.stack([x - r, self.cylinder_y0, z - r], axis=1),
               np.stack([x + r, self.cylinder_y1, z + r], axis=1))
        rows = np.arange(len(self.rect_offset))
        lo = np.empty((len(rows), 3))
        hi = np.empty((len(rows), 3))
        for corner, end in ((lo, 0), (hi, 1)):
            corner[rows, self.rect_axis] = self.rect_offset
            corner[rows, self.rect_ua] = self.rect_u[:, end]
            corner[rows, self.rect_va] = self.rect_v[:, end]
        yield lo, hi

    @property
    def n_primitives(self):
        return int(self.obj_prims.sum())


def _slab(axes, tmin):
    """Whether the part beyond ``tmin`` of each ray may meet each box, from
    the arrays ``(lo, hi, origin, 1 / direction)`` that ``axes`` gives for
    x, y and z in turn; they broadcast against each other.

    A slab test, one axis at a time.  NaN from a ray lying in a slab plane
    counts as inside: ``fmax``/``fmin`` skip it, and a ray that is NaN on
    every axis is kept.
    """
    a = b = near = None  # every axis broadcasts to one shape: reuse the buffers
    with np.errstate(invalid="ignore"):
        for k, (lo, hi, o, i) in enumerate(axes):
            a = np.multiply(np.subtract(lo, o, out=a), i, out=a)
            b = np.multiply(np.subtract(hi, o, out=b), i, out=b)
            if k == 0:
                enter, exit_ = np.minimum(a, b), np.maximum(a, b)
            else:
                near = np.minimum(a, b, out=near)
                np.fmax(enter, near, out=enter)
                np.fmin(exit_, np.maximum(a, b, out=a), out=exit_)
        miss = enter > exit_
        miss |= exit_ <= tmin
    return np.logical_not(miss, out=miss)


def _expand(first, count, groups, along):
    """Each entry of ``along`` repeated once per member of its group in
    ``groups``, and those members: ``first[g]``, ..., ``first[g] + count[g] - 1``."""
    cnt = count[groups]
    offset = np.repeat(first[groups] - (np.cumsum(cnt) - cnt), cnt)
    return np.repeat(along, cnt), np.arange(len(offset)) + offset


def _ray_blocks(ri, weight, n):
    """(first ray, end ray, pairs) of each block of consecutive rays of the
    ``n`` rays that the pairs of rays ``ri``, of ``weight`` candidates each,
    fall in: a block holds as many rays as fit within ``_CHUNK_PAIRS``
    candidates, and at least one ray.  ``pairs`` indexes ``ri``."""
    cum = np.cumsum(np.bincount(ri, weights=weight, minlength=n))
    ends = [0]
    while ends[-1] < n:
        base = cum[ends[-1] - 1] if ends[-1] else 0.0
        ends.append(max(ends[-1] + 1, int(np.searchsorted(cum, base + _CHUNK_PAIRS, "right"))))
    if len(ends) <= 2:
        return [(0, n, slice(None))]
    # the pairs in ray order, so that each block's pairs are one slice
    order = np.argsort(ri)
    cuts = np.searchsorted(ri[order], ends)
    return [(a, b, order[p:q]) for a, b, p, q in zip(ends, ends[1:], cuts, cuts[1:])]


def _joined(parts):
    """The family minima of consecutive blocks of rays, joined."""
    if len(parts) == 1:
        return parts[0]
    return [tuple(np.concatenate(a) for a in zip(*fam)) for fam in zip(*parts)]


def _cull(soup, O, D, tmin):
    """(objects, rays): the pairs whose ray, beyond ``tmin``, may meet the
    object's padded bounds.

    With a cluster level, only the objects of the clusters a ray meets are
    slab-tested, in blocks of rays whose ray x object candidates stay
    within ``_CHUNK_PAIRS``.  A cluster's bounds hold its members', and the
    slab test is monotone in the bounds, so the pairs are those of testing
    every object.
    """
    with np.errstate(divide="ignore"):
        inv = 1.0 / D.T
    if not len(soup.clu_lo):
        return np.nonzero(_slab(zip(soup.obj_lo.T[..., None], soup.obj_hi.T[..., None], O.T, inv),
                                tmin))
    ci, ri = np.nonzero(_slab(zip(soup.clu_lo.T[..., None], soup.clu_hi.T[..., None], O.T, inv),
                              tmin))
    parts = []
    for _, _, pairs in _ray_blocks(ri, soup.clu_count[ci], len(O)):
        r, members = _expand(soup.clu_first, soup.clu_count, ci[pairs], ri[pairs])
        oj = soup.clu_obj[members]
        # one axis at a time: gathering 1-D columns is faster than (pairs, 3) rows
        keep = _slab(((lo[oj], hi[oj], o[r], i[r])
                      for lo, hi, o, i in zip(soup.obj_lo.T, soup.obj_hi.T, O.T, inv)), tmin)
        parts.append((oj[keep], r[keep]))
    return tuple(map(np.concatenate, zip(*parts)))


def _box_slabs(soup, p, O, D):
    """Per-axis near and far slab distances of rays to boxes ``p``, row by row."""
    t1, t2 = soup.box_lo[p], soup.box_hi[p]  # gathered copies: overwritten
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.divide(1.0, D)
        for t in (t1, t2):
            t -= O
            t *= inv
    tn = np.minimum(t1, t2, out=inv)
    tf = np.maximum(t1, t2, out=t1)
    # parallel ray lying exactly on a slab plane: treat as inside that slab
    np.copyto(tn, -INF, where=np.isnan(tn))
    np.copyto(tf, INF, where=np.isnan(tf))
    return tn, tf


# The ``*_hits`` functions test ray ``r`` against primitive ``p`` for the
# candidate pairs (r, p): O and D hold the pairs' rays.  Each returns
# ``(t, key)``; a miss is t = inf.  The key is the primitive ``p``, except
# that a box's is ``3 * p + axis`` of the face the ray crosses, under
# ``index`` only (else None), so it orders pairs as ``p`` does.

def _box_hits(soup, p, O, D, tmin, index):
    tn, tf = _box_slabs(soup, p, O, D)
    enter = np.maximum(np.maximum(tn[:, 0], tn[:, 1]), tn[:, 2])
    exit_ = np.minimum(np.minimum(tf[:, 0], tf[:, 1]), tf[:, 2])
    t = np.where(enter > tmin, enter, exit_)
    t = np.where((enter <= exit_) & (t > tmin), t, INF)
    if not index:
        return t, None
    # the face the ray enters by, or leaves by if it enters at or before tmin
    axis = np.where(enter > tmin, np.argmax(tn, axis=1), np.argmin(tf, axis=1))
    return t, 3 * p + axis


def _box_normals(soup, O, D, tbest, idx, sel):
    rows = np.where(sel)[0]
    bidx, axis = np.divmod(idx[rows], 3)
    normals = np.zeros((len(rows), 3))
    sign = -np.sign(D[rows, axis])
    normals[np.arange(len(rows)), axis] = np.where(sign == 0.0, 1.0, sign)
    return normals, soup.box_obj[bidx], soup.box_material[bidx]


def _sphere_hits(soup, p, O, D, tmin, index):
    oc = O - soup.sphere_center[p]
    b = np.einsum("pk,pk->p", oc, D)
    c = np.einsum("pk,pk->p", oc, oc) - soup.sphere_radius[p] ** 2
    disc = b * b - c
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t_near = -b - sq
    t_far = -b + sq
    t = np.where(t_near > tmin, t_near, t_far)
    valid = hit & (t > tmin)
    return np.where(valid, t, INF), p


def _sphere_normals(soup, O, D, tbest, idx, sel):
    rows = np.where(sel)[0]
    si = idx[rows]
    p = O[rows] + tbest[rows, None] * D[rows]
    n = (p - soup.sphere_center[si]) / soup.sphere_radius[si][:, None]
    flip = np.einsum("rk,rk->r", n, D[rows]) > 0.0
    n[flip] *= -1.0
    return n, soup.sphere_obj[si], soup.sphere_material[si]


def _cylinder_hits(soup, p, O, D, tmin, index):
    oxz = O[:, [0, 2]]
    dxz = D[:, [0, 2]]
    oc = oxz - soup.cylinder_center[p]
    a = np.einsum("pk,pk->p", dxz, dxz)
    b = np.einsum("pk,pk->p", oc, dxz)
    c = np.einsum("pk,pk->p", oc, oc) - soup.cylinder_radius[p] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - a * c
        hit = disc >= 0.0
        sq = np.sqrt(np.where(hit, disc, 0.0))
        t1 = np.where(a > 0.0, (-b - sq) / a, INF)
        t2 = np.where(a > 0.0, (-b + sq) / a, INF)
    y0 = soup.cylinder_y0[p]
    y1 = soup.cylinder_y1[p]
    y = O[:, 1]
    dy = D[:, 1]
    y_at = lambda t: y + t * dy
    ok1 = hit & (t1 > tmin) & (y_at(t1) >= y0) & (y_at(t1) <= y1)
    ok2 = hit & (t2 > tmin) & (y_at(t2) >= y0) & (y_at(t2) <= y1)
    return np.where(ok1, t1, np.where(ok2, t2, INF)), p


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


def _rect_hits(soup, p, O, D, tmin, index):
    rows = np.arange(len(p))
    axes = soup.rect_axis[p]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.subtract(soup.rect_offset[p], O[rows, axes])
        t /= D[rows, axes]
    np.copyto(t, INF, where=~np.isfinite(t))
    ua = soup.rect_ua[p]
    va = soup.rect_va[p]
    with np.errstate(invalid="ignore"):  # inf * 0 where a ray misses a rect's plane
        u = O[rows, ua] + t * D[rows, ua]
        v = O[rows, va] + t * D[rows, va]
    valid = (
        (t > tmin)
        & (u >= soup.rect_u[p, 0])
        & (u <= soup.rect_u[p, 1])
        & (v >= soup.rect_v[p, 0])
        & (v <= soup.rect_v[p, 1])
    )
    return np.where(valid, t, INF), p


def _rect_normals(soup, O, D, tbest, idx, sel):
    rows = np.where(sel)[0]
    ri = idx[rows]
    axes = soup.rect_axis[ri]
    n = np.zeros((len(rows), 3))
    sign = -np.sign(D[rows, axes])
    n[np.arange(len(rows)), axes] = np.where(sign == 0.0, 1.0, sign)
    return n, soup.rect_obj[ri], soup.rect_material[ri]


_HITS = (_box_hits, _sphere_hits, _cylinder_hits, _rect_hits)
_NORMALS = (_box_normals, _sphere_normals, _cylinder_normals, _rect_normals)


def _nearest(hits, soup, first, count, O, D, tmin, ri, oj, index):
    """Each ray's nearest hit t in one family, over the primitives of the
    (ray ``ri``, object ``oj``) candidates, as ``(t,)``; with ``index``,
    ``(t, the lowest key attaining it (0 on a miss))``: the key of the
    lowest primitive index, since keys order pairs as primitives do."""
    n = len(O)
    ray, prim = _expand(first, count, oj, ri)
    t, key = hits(soup, prim, O[ray], D[ray], tmin, index)
    tbest = np.full(n, INF)
    np.minimum.at(tbest, ray, t)
    if not index:
        return (tbest,)
    won = (t == tbest[ray]) & (t < INF)
    idx = np.full(n, np.iinfo(np.intp).max)
    np.minimum.at(idx, ray[won], key[won])
    idx[tbest == INF] = 0
    return tbest, idx


def _family_minima(soup, O, D, tmin, index=True):
    """Per family in ``FAMILIES`` order, ``_nearest`` over the rays.

    Rays are culled once each, in blocks whose ray x cluster (or, with no
    cluster level, ray x object) candidates stay within ``_CHUNK_PAIRS``.
    The culled pairs are then tested in blocks of rays whose ray x
    primitive candidates stay within it too; a block of one ray is never
    split.
    """
    n = len(O)
    step = max(1, _CHUNK_PAIRS // max(1, len(soup.clu_lo) or len(soup.obj_lo)))
    if n > step:
        return _joined([_family_minima(soup, O[i : i + step], D[i : i + step], tmin, index)
                        for i in range(0, n, step)])
    oj, ri = _cull(soup, O, D, tmin)
    blocks = []
    for a, b, pairs in _ray_blocks(ri, soup.obj_prims[oj], n):
        r, o = ri[pairs] - a, oj[pairs]
        blocks.append([_nearest(hits, soup, *soup.ranges[fam], O[a:b], D[a:b], tmin, r, o,
                                index) for fam, hits in zip(FAMILIES, _HITS)])
    return _joined(blocks)


def _resolve(t_box, t_sph, t_cyl, t_rect):
    """The scene hit distance from the family minima; rects win near-ties."""
    t_vol = np.minimum(np.minimum(t_box, t_sph), t_cyl)
    rect_wins = t_rect <= t_vol * (1.0 + _TIE_EPS) + _TIE_EPS
    return np.where(rect_wins, t_rect, t_vol), t_vol, rect_wins


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
    minima = _family_minima(soup, O, D, tmin)
    (t_box, _), (t_sph, _), (t_cyl, _), (t_rect, _) = minima
    t, t_vol, rect_wins = _resolve(t_box, t_sph, t_cyl, t_rect)

    obj = np.full(n_rays, -1, dtype=np.int32)
    mat = np.full(n_rays, -1, dtype=np.int32)
    normal = np.zeros((n_rays, 3))

    sel_rect = rect_wins & np.isfinite(t_rect)
    sel_box = ~sel_rect & np.isfinite(t_box) & (t_box == t_vol)
    sel_sph = ~sel_rect & ~sel_box & np.isfinite(t_sph) & (t_sph == t_vol)
    sel_cyl = ~sel_rect & ~sel_box & ~sel_sph & np.isfinite(t_cyl) & (t_cyl == t_vol)

    for sel, (tfam, idx), fn in zip((sel_box, sel_sph, sel_cyl, sel_rect), minima, _NORMALS):
        if not sel.any():
            continue
        n_sel, o_sel, m_sel = fn(soup, O, D, tfam, idx, sel)
        normal[sel] = n_sel
        obj[sel] = o_sel
        mat[sel] = m_sel

    point = O + np.where(np.isfinite(t), t, 0.0)[:, None] * D
    return Hit(t, obj, mat, normal, point)


def occluded(soup: PrimitiveSoup, O, D, tmax, tmin: float = 1e-6) -> np.ndarray:
    """Whether anything blocks each ray before ``tmax`` (scalar or array);
    equal to ``trace(soup, O, D, tmin).t < tmax``."""
    t, _, _ = _resolve(*(t for (t,) in _family_minima(soup, O, D, tmin, index=False)))
    return t < tmax


def camera_basis(position, look_at, up):
    """Unit (forward, right, up) vectors of a camera at ``position`` aimed at
    ``look_at``, with ``up`` as the up hint; ValueError if ``up`` is zero or
    parallel to the view direction."""
    pos = np.asarray(position, dtype=float)
    fwd = np.asarray(look_at, dtype=float) - pos
    fwd = fwd / np.linalg.norm(fwd)
    # right-handed basis: right x up = forward, so +x world maps to
    # image right for the default forward=+z, up=+y setup
    right = np.cross(np.asarray(up, dtype=float), fwd)
    nr = np.linalg.norm(right)
    if not nr >= 1e-12:
        raise ValueError("camera up must be nonzero and not parallel to look_at - position")
    right /= nr
    return fwd, right, np.cross(fwd, right)


class Camera:
    """Pinhole camera resolved against a pixel grid.

    Pixel (row j, col i) centers sit at (i + 0.5, j + 0.5); ``rays`` accepts
    a per-pixel jitter in [-0.5, 0.5).  ``project`` is the exact inverse of
    the ray direction construction, returning fractional pixel coordinates.
    """

    def __init__(self, spec, width: int, height: int):
        self.width = int(width)
        self.height = int(height)
        self.position = np.asarray(spec.position, dtype=float)
        self.forward, self.right, self.up = camera_basis(spec.position, spec.look_at, spec.up)
        self.tan_half = math.tan(math.radians(spec.vfov_deg) / 2.0)
        self.aspect = self.width / self.height

    @property
    def focal_px(self) -> float:
        """Focal length in pixels (same for both axes)."""
        return (self.height / 2.0) / self.tan_half

    def rays(self, jitter=None):
        """Origins (N,3) and unit directions (N,3), row-major pixel order.

        ``jitter`` is (H, W, 2), or (S, H, W, 2) for S samples' rays one
        sample after another."""
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
