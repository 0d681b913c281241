"""Deterministic-seeded Monte Carlo renderer with exact ground truth.

The light transport model is direct lighting (ambient term, directional and
spot sources with shadow rays) plus one optional indirect bounce, diffuse
and mirror-specular, all attenuated by the homogeneous medium and summed
with airlight.  Randomness is counter-based: every (seed, sample) pair owns
a Philox stream evaluated in fixed row-major pixel order, so images are
bit-identical regardless of how work is scheduled.

Ground-truth buffers come from the deterministic center-of-pixel ray only;
they carry no Monte Carlo noise and never depend on sampling fidelity.
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


@dataclass(frozen=True)
class RenderConfig:
    """Rendering fidelity knobs: sampling rate, bounce depth, resolution."""

    width: int = 320
    height: int = 240
    samples_per_pixel: int = 200
    max_bounces: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.samples_per_pixel < 1:
            raise ConfigError("samples_per_pixel must be >= 1")
        if self.max_bounces < 0:
            raise ConfigError("max_bounces must be >= 0")
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
    noise_seed: int = 0

    def __post_init__(self):
        if self.gaussian_noise_sigma < 0:
            raise ConfigError("noise sigma must be >= 0")
        if not 1 <= self.quantization_bits <= 16:
            raise ConfigError("quantization_bits must be in [1, 16]")
        if self.gamma <= 0:
            raise ConfigError("gamma must be > 0")


@dataclass
class RadianceImage:
    """Linear HDR radiance, (H, W, 3) float64, non-negative and finite."""

    data: np.ndarray
    variance: np.ndarray | None = None  # per-pixel variance of the mean

    @property
    def shape(self):
        return self.data.shape


@dataclass
class LdrImage:
    """Quantized sensor output, (H, W, 3) unsigned ints in [0, 2^bits - 1]."""

    data: np.ndarray
    bits: int = 8

    @property
    def maxval(self):
        return (1 << self.bits) - 1

    def to_float(self) -> np.ndarray:
        return self.data.astype(np.float64) / float(self.maxval)


@dataclass
class GroundTruthBuffers:
    """Pixel-exact ground truth from the center-of-pixel ray.

    ``depth`` is the ray-path distance in meters (inf on sky),
    ``shadow_fraction`` the fraction of direct sources occluded, and
    ``reflectance`` the textured albedo at the hit.  ``flow``/``occlusion``
    are filled by ``compute_flow`` for frame pairs.  ``material_kinds`` maps
    material id to its taxonomy kind so context classification never has to
    consult rendered appearance.
    """

    depth: np.ndarray
    object_id: np.ndarray
    material_id: np.ndarray
    normal: np.ndarray
    shadow_fraction: np.ndarray
    reflectance: np.ndarray
    material_kinds: dict[int, str]
    flow: np.ndarray | None = None
    occlusion: np.ndarray | None = None

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
        self.ambient = np.zeros(3)
        self.directional = []  # (dir, rgb at the scene after layer extinction)
        self.spots = []  # (pos, dir, cos_cone, rgb)
        for light in lights:
            rgb = np.asarray(light.color, dtype=float) * light.intensity
            if light.kind == "ambient":
                self.ambient = self.ambient + rgb
            elif light.kind == "directional":
                rgb = rgb * medium_mod.sun_transmittance(medium, light.direction)
                self.directional.append((np.asarray(light.direction, dtype=float), rgb))
            else:
                self.spots.append((
                    np.asarray(light.position, dtype=float),
                    np.asarray(light.direction, dtype=float),
                    math.cos(math.radians(light.cone_deg)),
                    rgb,
                ))

    @property
    def n_direct(self):
        return len(self.directional) + len(self.spots)

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


def _direct_light(ltab, alb, factors):
    """Ambient plus the light-weighted sum of the direct factors."""
    L = alb * ltab.ambient
    for g, rgb in zip(factors, ltab.direct_rgb):
        L = L + (alb / math.pi) * g[:, None] * rgb
    return L


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


def _shade_sample(setups, soup, mtab, O, D, bounce=None):
    """Radiance along one sample's rays, one array per (medium, lights, light
    table) setup: direct light, plus with ``bounce`` = (rng, spp, sample
    index), as for camera rays, one diffuse and one mirror bounce shaded
    without a further bounce.  Rays, hits and shadow rays are shared by all
    setups, so each setup's estimate is bit-identical to rendering it alone.
    """
    hit = trace(soup, O, D)
    m = hit.mask
    if m.any():
        pts = hit.point[m]
        nrm = hit.normal[m]
        rows = mtab.row(hit.mat_id[m])
        alb = albedo_at(mtab, hit.mat_id[m], pts)
        factors = _light_factors(soup, setups[0][2], pts, nrm)
        Ls = [mtab.emissive[rows] + _direct_light(ltab, alb, factors)
              for _, _, ltab in setups]
        if bounce is not None:
            # one diffuse bounce, cosine sampled, stratified over the spp
            rng, spp, sample_index = bounce
            u = rng.random((int(m.sum()), 2))
            u1 = (sample_index + u[:, 0]) / spp
            dirs = _cosine_dirs(nrm, u1, u[:, 1])
            Lin = _shade_sample(setups, soup, mtab, pts + nrm * _SHADOW_EPS, dirs)
            Ls = [Ls_k + alb * Lin_k for Ls_k, Lin_k in zip(Ls, Lin)]
            spec = mtab.specular[rows]
            sp = spec > 0.0
            if sp.any():
                d_in = D[m][sp]
                n_sp = nrm[sp]
                refl = d_in - 2.0 * np.einsum("rk,rk->r", d_in, n_sp)[:, None] * n_sp
                Lr = _shade_sample(setups, soup, mtab, pts[sp] + n_sp * _SHADOW_EPS, refl)
                for Ls_k, Lr_k in zip(Ls, Lr):
                    Ls_k[sp] += spec[sp, None] * Lr_k
    out = []
    for k, (medium, lights, ltab) in enumerate(setups):
        L = np.zeros((len(O), 3))
        if m.any():
            L[m] = Ls[k]
        L[~m] = ltab.ambient  # sky
        out.append(medium_mod.observed_radiance(medium, D, lights, hit.t, L))
    return out


def _placement(lights):
    """Kind, direction, position and cone of each direct source."""
    return [(l.kind, l.direction, l.position, l.cone_deg)
            for l in lights if l.kind != "ambient"]


def _render_pass(scene, setups, cfg, return_variance):
    """One Monte Carlo pass over the camera, one image per (medium, lights)
    setup.  The shadowed light factors of the first setup serve them all, so
    every setup must place its direct sources alike."""
    if any(_placement(lights) != _placement(setups[0][1]) for _, lights in setups[1:]):
        raise ConfigError("the setups of one render pass must place their "
                          "direct light sources alike")
    cam = Camera(scene.camera, cfg.width, cfg.height)
    soup = scene.soup
    mtab = _MaterialTable(scene)
    setups = [(medium, lights, _LightTable(lights, medium)) for medium, lights in setups]
    h, w = cfg.height, cfg.width
    acc = [np.zeros((h * w, 3)) for _ in setups]
    acc_sq = [np.zeros((h * w, 3)) for _ in setups] if return_variance else None
    spp = cfg.samples_per_pixel
    for s in range(spp):
        rng = _sample_stream(cfg.rng_seed, s)
        jitter = rng.random((h, w, 2)) - 0.5
        O, D = cam.rays(jitter)
        bounce = (rng, spp, s) if cfg.max_bounces >= 1 else None
        Ls = _shade_sample(setups, soup, mtab, O, D, bounce)
        for k, L in enumerate(Ls):
            acc[k] += L
            if acc_sq is not None:
                acc_sq[k] += L * L
    images = []
    for k in range(len(setups)):
        mean = (acc[k] / spp).reshape(h, w, 3)
        variance = None
        if return_variance and spp > 1:
            sample_var = (acc_sq[k] - acc[k] * acc[k] / spp) / (spp - 1)
            variance = np.maximum(sample_var, 0.0).reshape(h, w, 3) / spp
        images.append(RadianceImage(mean, variance))
    return images


def render_frame(scene: SceneGraph, cfg: RenderConfig,
                 return_variance: bool = False) -> RadianceImage:
    """Monte Carlo HDR estimate of the scene through its camera.

    Deterministic for a fixed config: the per-sample random stream is keyed
    by (rng_seed, sample index) and consumed in fixed pixel order.  With
    ``return_variance`` the per-pixel variance of the mean estimate is
    attached (None when samples_per_pixel == 1).
    """
    return _render_pass(scene, [(scene.medium, scene.lights)], cfg, return_variance)[0]


def render_setups(scene: SceneGraph, setups, cfg: RenderConfig) -> list:
    """HDR estimates of one geometry under each (medium, lights) setup, from
    one Monte Carlo pass.

    The scene's own medium and lights are ignored.  The setups may differ in
    the media and in the lights' colors and intensities, but must place
    their direct sources alike (a source turned off keeps intensity 0), so
    camera, bounce and shadow rays are traced once for all of them; each
    image is bit-identical to ``render_frame`` of the scene with that setup.
    """
    return _render_pass(scene, list(setups), cfg, False)


def render_ground_truth(scene: SceneGraph, cfg: RenderConfig) -> GroundTruthBuffers:
    """Exact buffers from the deterministic center-of-pixel ray."""
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
    if ltab.n_direct > 0 and m.any():
        origins = hit.point[m] + hit.normal[m] * _SHADOW_EPS
        occ_count = np.zeros(int(m.sum()))
        for sun_dir, _ in ltab.directional:
            occ = occluded(soup, origins, np.broadcast_to(-sun_dir, origins.shape), np.inf)
            occ_count += occ.astype(float)
        for pos, sdir, cos_cone, _ in ltab.spots:
            to_light = pos[None, :] - hit.point[m]
            dist = np.linalg.norm(to_light, axis=1)
            wi = to_light / np.maximum(dist, 1e-12)[:, None]
            out_cone = (-(wi @ sdir)) < cos_cone
            occ = occluded(soup, origins, wi, dist - 2.0 * _SHADOW_EPS)
            occ_count += (occ | out_cone).astype(float)
        shadow[m] = occ_count / ltab.n_direct
    shadow = shadow.reshape(h, w)

    return GroundTruthBuffers(
        depth=depth,
        object_id=obj,
        material_id=mat,
        normal=normal,
        shadow_fraction=shadow,
        reflectance=refl,
        material_kinds=scene.material_kinds(),
    )


def compute_flow(scene_t: SceneGraph, scene_t1: SceneGraph, cfg: RenderConfig):
    """Exact forward flow and occlusion mask between two scene states.

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


def apply_sensor(img: RadianceImage, cfg: SensorConfig) -> LdrImage:
    """Gamma map, seeded Gaussian noise, clamp, quantize (round half up)."""
    x = np.maximum(img.data.astype(np.float64), 0.0)
    if cfg.gamma != 1.0:
        x = np.power(x, 1.0 / cfg.gamma)
    if cfg.gaussian_noise_sigma > 0.0:
        key = (int(cfg.noise_seed) & 0xFFFFFFFFFFFFFFFF) + (_STREAM_SENSOR << 64)
        rng = np.random.Generator(np.random.Philox(key=key))
        x = x + rng.normal(0.0, cfg.gaussian_noise_sigma, size=x.shape)
    x = np.clip(x, 0.0, 1.0)
    maxval = (1 << cfg.quantization_bits) - 1
    q = np.floor(x * maxval + 0.5)
    dtype = np.uint8 if cfg.quantization_bits <= 8 else np.uint16
    return LdrImage(q.astype(dtype), cfg.quantization_bits)
