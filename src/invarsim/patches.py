"""Spatial-context classification and patch sampling.

Context labels are derived exclusively from ground-truth buffers, never
from rendered appearance, so re-rendering at any fidelity or noise level
cannot change them.  Windowed predicates (homogeneity, boundary and
discontinuity dilation) use a square window whose side should match the
patch scale being sampled; thin contexts like shadow boundaries then label
the whole band a patch of that scale can sit on, which keeps the purity
rule meaningful across scales.  A pixel may carry several labels at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MissingBufferError, PatchSamplingError
from .scene import SKY_OBJECT_ID

#: minimum fraction of in-patch pixels that must carry the context label
PURITY_THRESHOLD = 0.8

#: reflectance variance bound for homogeneity (gray reflectance units)
TAU_HOMOGENEOUS = 1e-4

#: normal discontinuity threshold for edge/corner detection
EDGE_ANGLE_DEG = 15.0

CONTEXT_NAMES = (
    "Homogeneous",
    "Diffuse",
    "Specular",
    "ShadowRegion",
    "ShadowBoundary",
    "Edge",
    "Corner",
    "Occluded",
    "MotionBoundary",
    "SameSurface",
)


@dataclass(frozen=True)
class Patch:
    """A square pixel window tagged with its spatial context."""

    row: int
    col: int
    side: int
    context: str

    def __post_init__(self):
        if self.side < 3 or self.side % 2 == 0:
            raise ConfigError(f"patch side must be odd and >= 3, got {self.side}")

    def slices(self):
        return (slice(self.row, self.row + self.side),
                slice(self.col, self.col + self.side))

    def extract(self, frame: np.ndarray) -> np.ndarray:
        rs, cs = self.slices()
        return frame[rs, cs]


class ContextMap:
    """Per-pixel boolean masks for every available context label."""

    def __init__(self, labels: dict[str, np.ndarray], window: int, shape):
        self.labels = labels
        self.window = window
        self.shape = tuple(shape)

    def counts(self):
        return {name: int(mask.sum()) for name, mask in self.labels.items()}

    def __getitem__(self, name):
        return self.labels[name]


def _window_all(mask: np.ndarray, window: int) -> np.ndarray:
    """True where every pixel of the centered window satisfies ``mask``.

    Border pixels whose window leaves the image are False (conservative).
    """
    h, w = mask.shape
    half = window // 2
    out = np.zeros_like(mask)
    if h < window or w < window:
        return out
    view = np.lib.stride_tricks.sliding_window_view(mask, (window, window))
    out[half : h - half, half : w - half] = view.all(axis=(2, 3))
    return out


def _window_any(mask: np.ndarray, window: int) -> np.ndarray:
    """True where any pixel of the centered window satisfies ``mask``.

    Windows are clipped at the image border (morphological dilation).
    """
    half = window // 2
    padded = np.pad(mask, half, constant_values=False)
    view = np.lib.stride_tricks.sliding_window_view(padded, (window, window))
    return view.any(axis=(2, 3))


def _window_minmax(arr: np.ndarray, window: int):
    h, w = arr.shape
    half = window // 2
    mn = np.full_like(arr, np.nan, dtype=float)
    mx = np.full_like(arr, np.nan, dtype=float)
    if h < window or w < window:
        return mn, mx
    view = np.lib.stride_tricks.sliding_window_view(arr, (window, window))
    mn[half : h - half, half : w - half] = view.min(axis=(2, 3))
    mx[half : h - half, half : w - half] = view.max(axis=(2, 3))
    return mn, mx


def _window_var_gray(refl: np.ndarray, window: int) -> np.ndarray:
    """Windowed population variance of gray reflectance."""
    gray = refl @ np.array([0.2126, 0.7152, 0.0722])
    h, w = gray.shape
    half = window // 2
    out = np.full((h, w), np.inf)
    if h < window or w < window:
        return out
    view = np.lib.stride_tricks.sliding_window_view(gray, (window, window))
    mean = view.mean(axis=(2, 3))
    mean_sq = (view * view).mean(axis=(2, 3))
    out[half : h - half, half : w - half] = np.maximum(mean_sq - mean * mean, 0.0)
    return out


def _normal_discontinuities(normal: np.ndarray, valid: np.ndarray, angle_deg: float):
    """Thin per-pixel discontinuity masks along image x and y."""
    cos_thresh = math.cos(math.radians(angle_deg))

    def disc(n_a, n_b, v_a, v_b):
        cos = np.einsum("ijk,ijk->ij", n_a, n_b)
        both = v_a & v_b
        differs = both & (cos < cos_thresh)
        one_sky = v_a ^ v_b
        return differs | one_sky

    h_disc = np.zeros(valid.shape, dtype=bool)
    v_disc = np.zeros(valid.shape, dtype=bool)
    h_disc[:, 1:-1] = disc(normal[:, :-2], normal[:, 2:], valid[:, :-2], valid[:, 2:])
    v_disc[1:-1, :] = disc(normal[:-2, :], normal[2:, :], valid[:-2, :], valid[2:, :])
    return h_disc, v_disc


def classify_contexts(gt, gt_next=None, window: int = 3,
                      tau_h: float = TAU_HOMOGENEOUS,
                      edge_angle_deg: float = EDGE_ANGLE_DEG) -> ContextMap:
    """Label every pixel with the spatial contexts it belongs to.

    Areal labels (homogeneous, diffuse, specular, shadow region, occluded,
    same-surface) use a fixed 3-pixel local window; the purity rule at
    sampling time does the areal filtering for any patch scale.  Thin
    transition labels (shadow boundary, edge, corner, motion boundary)
    instead dilate with ``window``: pass the patch scale you intend to
    sample at, and the labeled band covers every pixel of a patch that can
    contain the transition.  Occlusion-dependent labels appear when the
    buffers carry flow/occlusion data or ``gt_next`` allows an in-place id
    comparison.
    """
    for name in ("depth", "object_id", "material_id", "normal",
                 "shadow_fraction", "reflectance"):
        if getattr(gt, name) is None:
            raise MissingBufferError(f"ground-truth buffer {name!r} is missing")
    if window < 3 or window % 2 == 0:
        raise ConfigError(f"window must be odd and >= 3, got {window}")

    obj = gt.object_id
    valid = obj != SKY_OBJECT_ID
    sf = gt.shadow_fraction

    kinds = gt.material_kinds
    max_mid = max(kinds.keys(), default=-1)
    kind_code = np.zeros(max_mid + 2, dtype=np.int8)  # 0 none, 1 diffuse, 2 specular
    for mid, kind in kinds.items():
        kind_code[mid] = 1 if kind == "diffuse" else 2
    code = kind_code[np.where(valid, gt.material_id, max_mid + 1)]
    code[~valid] = 0

    labels: dict[str, np.ndarray] = {}
    local = 3
    # thin labels dilate with a doubled window so a patch of side `window`
    # centered anywhere on the band still contains the physical transition
    wide = 2 * window - 1

    shadow_full = valid & (sf >= 1.0)
    lit = valid & (sf <= 0.0)
    labels["ShadowRegion"] = shadow_full
    has_full = _window_any(shadow_full, wide)
    has_lit = _window_any(lit, wide)
    labels["ShadowBoundary"] = has_full & has_lit & ~shadow_full
    labels["Specular"] = code == 2

    obj_f = obj.astype(float)
    obj_mn, obj_mx = _window_minmax(np.where(valid, obj_f, np.nan), local)
    same_obj = valid & np.isfinite(obj_mn) & (obj_mn == obj_mx)
    mat_mn, mat_mx = _window_minmax(
        np.where(valid, gt.material_id.astype(float), np.nan), local
    )
    same_mat = valid & np.isfinite(mat_mn) & (mat_mx == mat_mn)
    sf_mn, sf_mx = _window_minmax(np.where(valid, sf, np.nan), local)
    sf_const = np.isfinite(sf_mn) & (sf_mx - sf_mn < 1e-9)
    all_valid = _window_all(valid, local)
    refl_var = _window_var_gray(gt.reflectance, local)
    uniform = refl_var < tau_h
    labels["Homogeneous"] = all_valid & same_mat & sf_const & uniform

    # edge / corner from normal-buffer discontinuities, window-dilated
    h_disc, v_disc = _normal_discontinuities(gt.normal, valid, edge_angle_deg)
    h_any = _window_any(h_disc, window)
    v_any = _window_any(v_disc, window)
    labels["Corner"] = h_any & v_any
    labels["Edge"] = (h_any | v_any) & ~labels["Corner"]

    # occlusion-dependent labels
    occlusion = gt.occlusion
    if occlusion is None and gt_next is not None:
        occlusion = gt.object_id != gt_next.object_id
    if occlusion is not None:
        labels["Occluded"] = occlusion.astype(bool)
        # same-surface pixels keep a patch-scale margin from occlusions and
        # from true motion boundaries; a static object adjacency carries the
        # same (zero) flow and does not break surface smoothness
        contaminated = labels["Occluded"].copy()
        if gt.flow is not None:
            u_mn, u_mx = _window_minmax(gt.flow[:, :, 0], local)
            v_mn, v_mx = _window_minmax(gt.flow[:, :, 1], local)
            flow_varies = ((u_mx - u_mn) > 1e-6) | ((v_mx - v_mn) > 1e-6)
            labels["MotionBoundary"] = _window_any(flow_varies & ~same_obj, window)
            contaminated |= flow_varies & ~same_obj
        else:
            contaminated |= ~same_obj
        labels["SameSurface"] = (
            all_valid & same_obj & ~_window_any(contaminated, window)
        )

    # a "diffuse patch" in protocol terms is a flat, fully lit, textured
    # lambertian area whose ranks the measure can track; shadowed, occluded,
    # strongly curved or reflectance-uniform lambertian pixels belong to
    # the shadow / occlusion / edge / homogeneous contexts instead
    flat = np.ones_like(valid)
    for c in range(3):
        comp = np.where(valid, gt.normal[:, :, c], np.nan)
        mn, mx = _window_minmax(comp, local)
        flat &= np.isfinite(mn) & (mx - mn < 0.1)
    diffuse = (code == 1) & _window_all(lit, local) & flat & ~uniform
    if occlusion is not None:
        # stay a patch-scale margin away from the geometric-change region:
        # interreflection from an appearing/moving object contaminates a
        # halo around it, not just its own pixels
        diffuse &= ~_window_any(labels["Occluded"], wide)
    labels["Diffuse"] = diffuse

    return ContextMap(labels, window, obj.shape)


def eligible_centers(cmap: ContextMap, context: str, side: int,
                     purity: float = PURITY_THRESHOLD) -> np.ndarray:
    """Top-left corners (N, 2) of all eligible side x side patches.

    A patch is eligible when it lies fully inside the image and at least
    ``purity`` of its pixels carry the context label.
    """
    if context not in cmap.labels:
        raise PatchSamplingError(context, side, 0, 1)
    if side < 3 or side % 2 == 0:
        raise ConfigError(f"patch side must be odd and >= 3, got {side}")
    mask = cmap.labels[context]
    h, w = mask.shape
    if h < side or w < side:
        return np.zeros((0, 2), dtype=int)
    view = np.lib.stride_tricks.sliding_window_view(mask, (side, side))
    counts = view.sum(axis=(2, 3))
    ok = counts >= purity * side * side
    rows, cols = np.nonzero(ok)
    return np.stack([rows, cols], axis=1)


def sample_patches(cmap: ContextMap, context: str, side: int, count: int,
                   seed: int, purity: float = PURITY_THRESHOLD) -> list[Patch]:
    """Uniformly sample ``count`` eligible patches without replacement.

    Deterministic for a fixed seed.  Raises PatchSamplingError when fewer
    than ``count`` eligible centers exist (including zero).
    """
    if count < 0:
        raise ConfigError("count must be >= 0")
    centers = eligible_centers(cmap, context, side, purity)
    if count == 0:
        return []
    if len(centers) < count:
        raise PatchSamplingError(context, side, len(centers), count)
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(centers), size=count, replace=False)
    pick.sort()
    return [Patch(row=int(centers[i, 0]), col=int(centers[i, 1]), side=side,
                  context=context) for i in pick]
