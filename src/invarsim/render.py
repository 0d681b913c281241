"""Deterministic-seeded Monte Carlo renderer with exact ground truth.

The light transport model is direct lighting (ambient term, directional and
spot sources with shadow rays) plus one optional indirect bounce, diffuse
and mirror-specular, all attenuated by the homogeneous medium and summed
with airlight.  Randomness is counter-based: every (seed, sample) pair owns
a Philox stream evaluated in fixed row-major pixel order, so images are
bit-identical regardless of how work is scheduled.

Ground-truth buffers come from the deterministic center-of-pixel ray only;
they carry no Monte Carlo noise and never depend on sampling fidelity.
Flow and occlusion are derived from two states' buffers, tracing no ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import medium as medium_mod
from .errors import ConfigError, IdentityMismatchError
from .geometry import Camera, occluded, trace
from .scene import SKY_MATERIAL_ID, SKY_OBJECT_ID, TEXTURE_PATTERNS, SceneGraph

_SHADOW_EPS = 1e-4

# Philox stream tags keep the per-purpose random streams disjoint
_STREAM_SAMPLE = 1
_STREAM_SENSOR = 2

# camera rays per trace call: a pass traces this many pixels' worth of
# whole samples at once (at least one sample), so small frames share calls
_WAVEFRONT_RAYS = 6144


@dataclass(frozen=True)
class RenderConfig:
    """Rendering fidelity knobs: sampling rate, bounce depth (0 or 1: the
    renderer traces at most one indirect bounce), resolution."""

    width: int = 320
    height: int = 240
    samples_per_pixel: int = 200
    max_bounces: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.samples_per_pixel < 1:
            raise ConfigError("samples_per_pixel must be >= 1")
        if self.max_bounces not in (0, 1):
            raise ConfigError("max_bounces must be 0 or 1")
        if self.width < 1 or self.height < 1:
            raise ConfigError("resolution must be positive")


@dataclass(frozen=True)
class SensorConfig:
    """Sensor processing: gamma map, additive Gaussian noise, quantization.
    Each field's ``json_key`` names it in a protocol's ``sensor`` block and
    in a rendered frame's sidecar."""

    gaussian_noise_sigma: float = field(default=0.002, metadata={"json_key": "sigma"})
    quantization_bits: int = field(default=8, metadata={"json_key": "bits"})
    gamma: float = 1.0

    def __post_init__(self):
        if self.gaussian_noise_sigma < 0:
            raise ConfigError("noise sigma must be >= 0")
        if not 1 <= self.quantization_bits <= 16:
            raise ConfigError("quantization_bits must be in [1, 16]")
        if self.gamma <= 0:
            raise ConfigError("gamma must be > 0")


@dataclass(frozen=True)
class GroundTruthBuffers:
    """Pixel-exact ground truth from the center-of-pixel ray, read-only.

    ``depth`` is the ray-path distance in meters (inf on sky),
    ``shadow_fraction`` the share of direct sources that do not reach the
    hit: those whose ``_light_factors`` factor, the one shading uses, is
    exactly 0 (the hit faces away, lies outside a spot's cone or is
    occluded); it is 0 on sky and without a direct source.
    ``reflectance`` is the textured albedo at the hit.  ``material_kinds``
    maps material id to its taxonomy kind so context classification never
    has to consult rendered appearance.
    """

    depth: np.ndarray
    object_id: np.ndarray
    material_id: np.ndarray
    normal: np.ndarray
    shadow_fraction: np.ndarray
    reflectance: np.ndarray
    material_kinds: dict[int, str]

    @property
    def shape(self):
        return self.depth.shape


class _MaterialTable:
    """Scene materials flattened to arrays indexed by material id."""

    def __init__(self, scene: SceneGraph):
        n = max(scene.materials.keys(), default=-1) + 1
        self.albedo = np.zeros((n + 1, 3))
        self.specular = np.zeros(n + 1)
        self.emissive = np.zeros((n + 1, 3))
        # 0 none, else 1 + the index in TEXTURE_PATTERNS: 1 checker 2 stripes 3 bands
        self.pattern = np.zeros(n + 1, dtype=np.int32)
        self.scale = np.ones(n + 1)
        self.contrast = np.zeros(n + 1)
        for mid, m in scene.materials.items():
            self.albedo[mid] = m.albedo
            self.specular[mid] = m.specular
            self.emissive[mid] = m.emissive
            if m.texture:
                self.pattern[mid] = 1 + TEXTURE_PATTERNS.index(m.texture.pattern)
                self.scale[mid] = m.texture.scale
                self.contrast[mid] = m.texture.contrast
        self.sentinel = n  # row used for the sky id (-1)

    def row(self, mat_id):
        return np.where(mat_id < 0, self.sentinel, mat_id)


def albedo_at(table: _MaterialTable, mat_id, points) -> np.ndarray:
    """Textured albedo at world hit points; smooth deterministic patterns."""
    rows = table.row(mat_id)
    base = table.albedo[rows]
    pattern = table.pattern[rows]
    if not np.any(pattern):
        return base
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    s = table.scale[rows]
    w = 2.0 * math.pi / s
    value = np.zeros(len(points))
    m = pattern == 1  # checker: smooth product lattice
    if m.any():
        value[m] = (
            np.sin(w[m] * x[m]) * np.sin(w[m] * (z[m] + 0.25 * s[m]))
            + 0.3 * np.sin(w[m] * y[m])
        ) / 1.3
    m = pattern == 2  # stripes: diagonal sinusoid
    if m.any():
        value[m] = np.sin(w[m] * (x[m] + z[m]) + 0.7 * y[m])
    m = pattern == 3  # bands: horizontal courses plus mild vertical variation
    if m.any():
        value[m] = 0.6 * np.sin(w[m] * y[m]) + 0.4 * np.sin(w[m] / 1.7 * (x[m] + z[m]))
    factor = np.clip(1.0 + table.contrast[rows] * value, 0.0, None)
    return base * factor[:, None]


class _LightTable:
    def __init__(self, lights, medium):
        # ambient rgb; (dir, rgb at the scene after layer extinction) per sun
        self.ambient, self.directional = medium_mod.source_colors(medium, lights)
        self.spots = []  # (pos, dir, cos_cone, rgb)
        for light in lights:
            if light.kind == "spot":
                self.spots.append((
                    np.asarray(light.position, dtype=float),
                    np.asarray(light.direction, dtype=float),
                    math.cos(math.radians(light.cone_deg)),
                    np.asarray(light.color, dtype=float) * light.intensity,
                ))

    @property
    def direct_rgb(self):
        """Colors of the direct sources, in the order of ``_light_factors``."""
        return [rgb for _, rgb in self.directional] + [s[3] for s in self.spots]


def _sample_stream(seed: int, sample: int) -> np.random.Generator:
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) + (_STREAM_SAMPLE << 64) + (int(sample) << 80)
    return np.random.Generator(np.random.Philox(key=key))


def _light_factors(soup, ltab, points, normals):
    """Per direct source, the shadowed geometric factor at surface points.

    Cosine times visibility, times inverse-square falloff for spots.  The
    factors depend on light placement only, never on light color or on the
    medium, so one set serves every medium a geometry is rendered under.
    """
    factors = []
    origins = points + normals * _SHADOW_EPS
    for sun_dir, _ in ltab.directional:
        ndotl = np.maximum(0.0, -(normals @ sun_dir))
        lit = ndotl > 0.0
        vis = np.zeros(len(points))
        if lit.any():
            free = ~occluded(soup, origins[lit], np.broadcast_to(-sun_dir, (int(lit.sum()), 3)), np.inf)
            vis[lit] = free.astype(float)
        factors.append(ndotl * vis)
    for pos, sdir, cos_cone, _ in ltab.spots:
        to_light = pos[None, :] - points
        dist = np.linalg.norm(to_light, axis=1)
        wi = to_light / np.maximum(dist, 1e-12)[:, None]
        ndotl = np.maximum(0.0, np.einsum("rk,rk->r", normals, wi))
        in_cone = (-(wi @ sdir)) >= cos_cone
        lit = (ndotl > 0.0) & in_cone & (dist > 1e-9)
        vis = np.zeros(len(points))
        if lit.any():
            free = ~occluded(soup, origins[lit], wi[lit], dist[lit] - 2.0 * _SHADOW_EPS)
            vis[lit] = free.astype(float)
        with np.errstate(divide="ignore"):
            fall = np.where(dist > 1e-9, 1.0 / (dist * dist), 0.0)
        factors.append(ndotl * vis * fall)
    return factors


def _cosine_dirs(normals, u1, u2):
    """Cosine-weighted hemisphere directions about per-ray normals."""
    r = np.sqrt(u1)
    phi = 2.0 * math.pi * u2
    local = np.stack([r * np.cos(phi), np.sqrt(np.maximum(0.0, 1.0 - u1)), r * np.sin(phi)], axis=1)
    # build an orthonormal frame around each normal
    n = normals
    helper = np.where(np.abs(n[:, 1:2]) < 0.9, [[0.0, 1.0, 0.0]], [[1.0, 0.0, 0.0]])
    t = np.cross(helper, n)
    t /= np.maximum(np.linalg.norm(t, axis=1, keepdims=True), 1e-12)
    b = np.cross(n, t)
    return local[:, 0:1] * t + local[:, 1:2] * n + local[:, 2:3] * b


class _Traced:
    """What shading reads of a batch of traced rays, whatever the setup:
    the hit distances ``t``, the directions ``D`` and the hit ``mask``; at
    the hits the albedo ``alb``, the ``emission`` and, per direct source,
    ``lit``: albedo / pi times its shadowed light factor; and the traces of
    the ``diffuse`` bounce and of the ``mirror`` bounce (with the mirror
    hits' mask and specular weights), or None."""

    __slots__ = ("t", "D", "mask", "alb", "emission", "lit", "diffuse", "mirror")

    def __init__(self, t, D, mask):
        self.t, self.D, self.mask = t, D, mask
        self.alb = self.emission = self.lit = self.diffuse = self.mirror = None


def _trace_rays(soup, mtab, ltab, O, D, bounce=None):
    """Trace rays and gather what shading reads at their hits.

    With ``bounce`` = (streams, sample indices, spp), as for the camera rays
    of consecutive whole samples, one diffuse and one mirror bounce are
    traced too, without a further bounce.
    """
    hit = trace(soup, O, D)
    m = hit.mask
    tr = _Traced(hit.t, D, m)
    if not m.any():
        return tr
    pts = hit.point[m]
    nrm = hit.normal[m]
    mat = hit.mat_id[m]
    del hit  # shading reads no hit point, normal or id: free them before the shadow rays
    rows = mtab.row(mat)
    tr.alb = albedo_at(mtab, mat, pts)
    tr.emission = mtab.emissive[rows]
    tr.lit = [(tr.alb / math.pi) * g[:, None] for g in _light_factors(soup, ltab, pts, nrm)]
    if bounce is None:
        return tr
    diffuse, mirror = _bounce_rays(m, mtab.specular[rows], pts, nrm, D, bounce)
    del pts, nrm  # nor are they held while the bounces are traced
    tr.diffuse = _trace_rays(soup, mtab, ltab, *diffuse)
    if mirror is not None:
        sp, weight, origins, dirs = mirror
        tr.mirror = (sp, weight, _trace_rays(soup, mtab, ltab, origins, dirs))
    return tr


def _bounce_rays(m, spec, pts, nrm, D, bounce):
    """The (origins, dirs) of one diffuse bounce from the hits ``m`` of rays
    ``D``, cosine sampled and stratified over the spp; and the mirror hits'
    mask, specular weights, origins and dirs, or None without one.

    Each sample draws the randoms for its own hits from its own stream, so
    a sample's rays get the same randoms whichever samples share the trace.
    """
    streams, samples, spp = bounce
    counts = m.reshape(len(streams), -1).sum(axis=1)
    u = np.concatenate([rng.random((int(c), 2)) for rng, c in zip(streams, counts)])
    u1 = (np.repeat(samples, counts) + u[:, 0]) / spp
    origins = pts + nrm * _SHADOW_EPS
    sp = spec > 0.0
    mirror = None
    if sp.any():
        d_in = D[m][sp]
        n_sp = nrm[sp]
        refl = d_in - 2.0 * np.einsum("rk,rk->r", d_in, n_sp)[:, None] * n_sp
        mirror = (sp, spec[sp, None], origins[sp], refl)
    return (origins, _cosine_dirs(nrm, u1, u[:, 1])), mirror


def _shade(tr, medium, ltab):
    """One setup's radiance along traced rays: emission, ambient and the
    direct sources at the hits, plus the bounces' radiance; ambient on the
    sky; then the medium's attenuation and airlight.  The operations run in
    the order of shading each setup alone, so the bits do not depend on
    which setups share the trace."""
    m = tr.mask
    L = np.empty((len(m), 3))
    if tr.alb is not None:
        Lm = tr.alb * ltab.ambient
        for lit, rgb in zip(tr.lit, ltab.direct_rgb):
            Lm += lit * rgb
        Lm += tr.emission
        if tr.diffuse is not None:
            Lm += tr.alb * _shade(tr.diffuse, medium, ltab)
        if tr.mirror is not None:
            sp, weight, mirror = tr.mirror
            Lm[sp] += weight * _shade(mirror, medium, ltab)
        L[m] = Lm
    L[~m] = ltab.ambient  # sky
    return medium_mod.observed_radiance(medium, tr.D, ltab.ambient, ltab.directional, tr.t, L)


def _placement(lights):
    """Kind, direction, position and cone of each direct source."""
    return [(l.kind, l.direction, l.position, l.cone_deg)
            for l in lights if l.kind != "ambient"]


def _render_pass(scene, setups, cfg):
    """One Monte Carlo pass over the camera, one (H, W, 3) float64 radiance
    image per (medium, lights) setup.

    Each trace call takes the camera rays of ``_WAVEFRONT_RAYS // pixels``
    consecutive whole samples (at least one), with their bounce and shadow
    rays; then each setup in turn is shaded from that trace and added, one
    sample after another, to its own accumulator.  The shadowed light
    factors of the first setup serve them all, so every setup must place
    its direct sources alike."""
    if any(_placement(lights) != _placement(setups[0][1]) for _, lights in setups[1:]):
        raise ConfigError("the setups of one render pass must place their "
                          "direct light sources alike")
    cam = Camera(scene.camera, cfg.width, cfg.height)
    soup = scene.soup
    mtab = _MaterialTable(scene)
    setups = [(medium, _LightTable(lights, medium)) for medium, lights in setups]
    h, w = cfg.height, cfg.width
    n = h * w
    acc = [np.zeros((n, 3)) for _ in setups]
    spp = cfg.samples_per_pixel
    per_trace = max(1, _WAVEFRONT_RAYS // n)
    for first in range(0, spp, per_trace):
        samples = range(first, min(spp, first + per_trace))
        streams = [_sample_stream(cfg.rng_seed, s) for s in samples]
        jitter = np.stack([rng.random((h, w, 2)) for rng in streams]) - 0.5
        O, D = cam.rays(jitter)
        bounce = (streams, samples, spp) if cfg.max_bounces >= 1 else None
        tr = _trace_rays(soup, mtab, setups[0][1], O, D, bounce)
        for k, (medium, ltab) in enumerate(setups):
            L = _shade(tr, medium, ltab)
            for j in range(0, len(L), n):
                acc[k] += L[j : j + n]
        del tr, L  # not held while the next wavefront is traced
    return [np.divide(a, spp, out=a).reshape(h, w, 3) for a in acc]


def render_frame(scene: SceneGraph, cfg: RenderConfig) -> np.ndarray:
    """Monte Carlo HDR estimate of the scene through its camera: linear
    radiance, (H, W, 3) float64, non-negative and finite.

    Deterministic for a fixed config: the per-sample random stream is keyed
    by (rng_seed, sample index) and consumed in fixed pixel order.
    """
    return _render_pass(scene, [(scene.medium, scene.lights)], cfg)[0]


def render_setups(scene: SceneGraph, setups, cfg: RenderConfig) -> list:
    """HDR estimates of one geometry under each (medium, lights) setup, from
    one Monte Carlo pass.

    The scene's own medium and lights are ignored.  The setups may differ in
    the media and in the lights' colors and intensities, but must place
    their direct sources alike (a source turned off keeps intensity 0), so
    camera, bounce and shadow rays are traced once for all of them; each
    image is bit-identical to ``render_frame`` of the scene with that setup.
    """
    return _render_pass(scene, list(setups), cfg)


def render_ground_truth(scene: SceneGraph, cfg: RenderConfig) -> GroundTruthBuffers:
    """Exact buffers from the deterministic center-of-pixel ray: the only
    place a scene state's center rays are traced.  Light reach at the hits
    is decided by ``_light_factors``, as for shading.  Its arrays are read-only."""
    cam = Camera(scene.camera, cfg.width, cfg.height)
    soup = scene.soup
    ltab = _LightTable(scene.lights, scene.medium)
    mtab = _MaterialTable(scene)
    h, w = cfg.height, cfg.width
    O, D = cam.rays()
    hit = trace(soup, O, D)
    m = hit.mask

    depth = np.where(m, hit.t, np.inf).reshape(h, w)
    obj = np.where(m, hit.obj_id, SKY_OBJECT_ID).astype(np.int32).reshape(h, w)
    mat = np.where(m, hit.mat_id, SKY_MATERIAL_ID).astype(np.int32).reshape(h, w)
    normal = np.where(m[:, None], hit.normal, 0.0).reshape(h, w, 3)

    refl = np.zeros((h * w, 3))
    if m.any():
        refl[m] = albedo_at(mtab, hit.mat_id[m], hit.point[m])
    refl = refl.reshape(h, w, 3)

    shadow = np.zeros(h * w)
    factors = _light_factors(soup, ltab, hit.point[m], hit.normal[m])
    if factors:
        shadow[m] = (np.array(factors) == 0.0).mean(axis=0)
    shadow = shadow.reshape(h, w)

    for array in (depth, obj, mat, normal, shadow, refl):
        array.flags.writeable = False
    return GroundTruthBuffers(
        depth=depth,
        object_id=obj,
        material_id=mat,
        normal=normal,
        shadow_fraction=shadow,
        reflectance=refl,
        material_kinds=scene.material_kinds(),
    )


def compute_flow(gt_t: GroundTruthBuffers, gt_t1: GroundTruthBuffers,
                 scene_t: SceneGraph, scene_t1: SceneGraph):
    """Exact forward flow and occlusion mask between two scene states, read
    from their ground truth: no ray is traced.

    Per hit pixel the 3-D hit point, at ``depth`` along its center ray, is
    moved by its object's rigid displacement and reprojected through the
    frame-t+1 camera; flow is the pixel-coordinate difference (u = columns,
    v = rows).  A pixel is occluded when ``gt_t1.object_id`` at the rounded
    target pixel differs (targets outside the image count as occluded).
    Sky pixels get zero flow and are compared in place.
    """
    ids_t = {o.object_id for o in scene_t.objects}
    ids_t1 = {o.object_id for o in scene_t1.objects}
    if ids_t != ids_t1:
        raise IdentityMismatchError(
            f"object identity sets differ: {sorted(ids_t ^ ids_t1)}"
        )

    if gt_t1.shape != gt_t.shape:
        raise ConfigError(f"ground truths of two sizes: {gt_t.shape} and {gt_t1.shape}")
    h, w = gt_t.shape
    O, D = Camera(scene_t.camera, w, h).rays()
    cam_t1 = Camera(scene_t1.camera, w, h)
    depth = gt_t.depth.reshape(-1)
    m = np.isfinite(depth)
    hit_ids = gt_t.object_id.reshape(-1)[m]
    ids1 = gt_t1.object_id

    max_id = max(ids_t, default=-1)
    disp = np.zeros((max_id + 1, 3))
    for obj in scene_t.objects:
        a0 = np.asarray(obj.anchor())
        a1 = np.asarray(scene_t1.object_by_id(obj.object_id).anchor())
        disp[obj.object_id] = a1 - a0

    flow = np.zeros((h * w, 2))
    occl = np.zeros(h * w, dtype=bool)
    jj, ii = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    cols = ii.reshape(-1).astype(float)
    rows = jj.reshape(-1).astype(float)

    # the hit point as ``trace`` computes it
    moved = O[m] + depth[m][:, None] * D[m] + disp[hit_ids]
    proj = cam_t1.project(moved)
    fu = proj[:, 0] - cols[m]
    fv = proj[:, 1] - rows[m]
    if scene_t.camera == scene_t1.camera:
        # a stationary point reprojects to its own pixel exactly
        static = np.all(disp[hit_ids] == 0.0, axis=1)
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
    occ_hit = np.ones(len(hit_ids), dtype=bool)
    occ_hit[inside] = ids1[tr[inside].astype(int), tc[inside].astype(int)] != hit_ids[inside]
    occl[m] = occ_hit
    occl[~m] = ids1.reshape(-1)[~m] != SKY_OBJECT_ID

    return flow.reshape(h, w, 2), occl.reshape(h, w)


def apply_sensor(img: np.ndarray, cfg: SensorConfig, noise_seed: int) -> tuple[np.ndarray, int]:
    """Gamma map, Gaussian noise seeded by ``noise_seed``, clamp, quantize
    (round half up) of an (H, W, 3) radiance image: ``(levels, maxval)``, as
    ``imgio.read_ppm`` returns them, levels in [0, maxval = 2^bits - 1]."""
    x = np.maximum(np.asarray(img, dtype=np.float64), 0.0)
    if cfg.gamma != 1.0:
        x = np.power(x, 1.0 / cfg.gamma)
    if cfg.gaussian_noise_sigma > 0.0:
        key = (int(noise_seed) & 0xFFFFFFFFFFFFFFFF) + (_STREAM_SENSOR << 64)
        rng = np.random.Generator(np.random.Philox(key=key))
        x = x + rng.normal(0.0, cfg.gaussian_noise_sigma, size=x.shape)
    x = np.clip(x, 0.0, 1.0)
    maxval = (1 << cfg.quantization_bits) - 1
    q = np.floor(x * maxval + 0.5)
    dtype = np.uint8 if cfg.quantization_bits <= 8 else np.uint16
    return q.astype(dtype), maxval
