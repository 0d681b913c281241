"""Criterion measures for the five invariance hypotheses.

* order consistency: absolute Spearman rank correlation between co-located
  patches (monotone photometric transforms leave it at 1);
* brightness / gradient constancy: population variance of the pixel or
  gradient residual along ground-truth motion trajectories;
* piecewise-smooth flow: population variance of the spatio-temporal
  smoothness energy |grad3 u|^2 + |grad3 v|^2 over a patch;
* dichromatic scattering: angular deviation of weather-varied color
  observations from their best-fit plane through the color-space origin.

All variances are population (biased) variances: the measures quantify
deviation magnitude, not an estimator of some parent distribution.
Constant residuals short-circuit to exactly 0.0 so the stated null cases
hold without floating-point summation residue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllOccludedError,
    ConfigError,
    MissingTemporalError,
    PatchTooSmallError,
    RankDeficientError,
)

GRAY_WEIGHTS = np.array([0.2126, 0.7152, 0.0722])


def to_gray(frame: np.ndarray) -> np.ndarray:
    """Luma conversion for RGB frames; 2-D frames pass through."""
    arr = np.asarray(frame, dtype=float)
    if arr.ndim == 2:
        return arr
    if arr.ndim == 3 and arr.shape[2] == 3:
        return arr @ GRAY_WEIGHTS
    raise ConfigError(f"expected (H, W) or (H, W, 3) frame, got {arr.shape}")


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values receiving their average rank.

    A 2-D input is a stack of rows, each ranked on its own; any other input
    is ranked as one flat vector.  A run of equal values at sorted
    positions [a, b) gets rank (a + b + 1) / 2.  A run ends where two
    neighbouring sorted values differ, and a non-finite value (NaN, +-inf)
    differs from everything, so each takes its own sorted position as rank.
    """
    v = np.asarray(values, dtype=float)
    rows = v if v.ndim == 2 else v.reshape(1, -1)
    order = np.argsort(rows, axis=1, kind="stable")
    starts = np.ones(rows.shape, dtype=bool)
    with np.errstate(invalid="ignore"):  # inf - inf
        starts[:, 1:] = np.diff(np.take_along_axis(rows, order, axis=1), axis=1) != 0
    # each row starts a run, so no run of the flattened rows spans two rows
    bounds = np.append(np.flatnonzero(starts), starts.size)
    run = np.cumsum(starts).reshape(rows.shape) - 1
    row_start = np.arange(rows.shape[0])[:, None] * rows.shape[1]
    ranks = np.empty(rows.shape)
    np.put_along_axis(ranks, order, 0.5 * (bounds[run] + bounds[run + 1] + 1 - 2 * row_start),
                      axis=1)
    return ranks if v.ndim == 2 else ranks.reshape(-1)


def _spearman_rows(rx: np.ndarray, ry: np.ndarray) -> np.ndarray:
    """Spearman rho of each row pair of two (n, m) average-rank stacks, NaN
    where a row is constant.  Average ranks are half-integers with mean
    exactly (m + 1) / 2, so the centred ranks are multiples of 0.5 and the
    sums of their products are exact in any order: a row gives the same
    bits alone or in a batch."""
    rx = rx - rx.mean(axis=1, keepdims=True)
    ry = ry - ry.mean(axis=1, keepdims=True)
    vx, vy, sxy = (np.einsum("ij,ij->i", a, b) for a, b in ((rx, rx), (ry, ry), (rx, ry)))
    with np.errstate(invalid="ignore"):  # 0 / 0 on a constant row
        return np.where((vx != 0.0) & (vy != 0.0), sxy / np.sqrt(vx * vy), np.nan)


def spearman_rho(x, y) -> float:
    """Spearman rank correlation with average-rank tie handling.

    Returns NaN when either input is constant (zero rank variance); such
    patches are undefined for the measure and are skipped by aggregation.
    """
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if len(xv) != len(yv):
        raise ConfigError(f"length mismatch: {len(xv)} vs {len(yv)}")
    if len(xv) < 2:
        raise ConfigError("need at least two values")
    return float(_spearman_rows(average_ranks(xv[None]), average_ranks(yv[None]))[0])


def oc_values(ref_ranks: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """Absolute Spearman rho of each row of gray patch pixels ``cur`` (n, m)
    against the average ranks of the co-located reference pixels."""
    return np.abs(_spearman_rows(ref_ranks, average_ranks(cur)))


def oc_measure(ref_patch, cur_patch) -> float:
    """Absolute Spearman rho between two co-located intensity patches."""
    ref = to_gray(ref_patch)
    cur = to_gray(cur_patch)
    if ref.shape != cur.shape:
        raise ConfigError(f"patch shape mismatch: {ref.shape} vs {cur.shape}")
    return abs(spearman_rho(ref, cur))


def population_variance(values: np.ndarray) -> float:
    """Population variance with an exact zero for constant input.

    Values are sorted before summation, so the result is invariant to the
    traversal order of the patch that produced them.
    """
    v = np.sort(np.asarray(values, dtype=float).reshape(-1))
    if v.size == 0:
        raise ConfigError("variance of empty set")
    if v[0] == v[-1]:
        return 0.0
    return float(np.var(v))


def patch_pixels(patches, inset=0):
    """Row and column indices, each (n, m), of the pixels of n equal-sided
    patches in row-major patch order, ``inset`` pixels in from the border;
    ``frame[patch_pixels(patches)]`` stacks the patches as rows."""
    side = patches[0].side - 2 * inset
    offsets = np.arange(inset, inset + side)
    rows = np.array([p.row for p in patches])[:, None, None] + offsets[:, None]
    cols = np.array([p.col for p in patches])[:, None, None] + offsets
    return tuple(a.reshape(len(patches), -1) for a in np.broadcast_arrays(rows, cols))


class Trajectories:
    """The pixels of a batch of equal-sided patches and where the flow
    takes them: each pixel (i, j) moves to (i + v, j + u).

    ``pixels`` are the ``patch_pixels`` of the patches, ``inset`` pixels in
    from their border.  The bilinear weights at the moved positions are
    built once per flow field, and ``sample`` weighs any frame of the
    flow's size with them.  ``usable`` marks moved positions inside the
    frame (others sample the clipped position) and, given an occlusion
    mask, pixels that are not occluded.
    """

    def __init__(self, flow, patches, *, inset=0, occlusion=None):
        self.patches = list(patches)
        self.pixels = rows, cols = patch_pixels(self.patches, inset)
        h, w = self.shape = flow.shape[:2]
        r = rows + flow[rows, cols, 1]
        c = cols + flow[rows, cols, 0]
        self.usable = (r >= 0) & (r <= h - 1) & (c >= 0) & (c <= w - 1)
        if occlusion is not None:
            self.usable = self.usable & ~occlusion[rows, cols]
        rc = np.clip(r, 0, h - 1)
        cc = np.clip(c, 0, w - 1)
        r0 = np.floor(rc).astype(int)
        c0 = np.floor(cc).astype(int)
        r1 = np.minimum(r0 + 1, h - 1)
        c1 = np.minimum(c0 + 1, w - 1)
        fr = rc - r0
        fc = cc - c0
        # (flat index, weight, weight > 0) per neighbour, in summation order
        self._taps = [(ri * w + ci, wt, wt > 0) for ri, ci, wt in (
            (r0, c0, (1 - fr) * (1 - fc)), (r0, c1, (1 - fr) * fc),
            (r1, c0, fr * (1 - fc)), (r1, c1, fr * fc))]

    def sample(self, frame: np.ndarray) -> np.ndarray:
        """Bilinear values of ``frame`` at the moved positions; integer
        positions reproduce frame values exactly."""
        if frame.shape[:2] != self.shape:
            raise ConfigError(f"frame shape {frame.shape[:2]}, expected {self.shape}")
        # zero-weight neighbors must not poison the sum (NaN border guards)
        t00, t01, t10, t11 = (np.where(nonzero, np.take(frame, index), 0.0) * weight
                              for index, weight, nonzero in self._taps)
        return t00 + t01 + t10 + t11

    def variances(self, residuals, keep):
        """One population variance per patch of its kept residual values,
        pooled over the ``residuals`` arrays."""
        out = np.empty(len(self.patches))
        for i, (p, row) in enumerate(zip(self.patches, keep)):
            if not row.any():
                raise AllOccludedError(
                    f"patch at ({p.row}, {p.col}) side {p.side}: no usable pixels")
            out[i] = population_variance(np.concatenate([r[i][row] for r in residuals]))
        return out


def _one_patch(kernel, features, frame_t, frame_t1, flow, patch, inset,
               exclude_occluded, occlusion):
    """A constancy kernel on one patch, straight from two frames."""
    if exclude_occluded and occlusion is None:
        raise ConfigError("exclude_occluded requires an occlusion mask")
    I0 = to_gray(frame_t)
    I1 = to_gray(frame_t1)
    if I0.shape != I1.shape:
        raise ConfigError(f"frame shape mismatch: {I0.shape} vs {I1.shape}")
    traj = Trajectories(flow, [patch], inset=inset,
                        occlusion=occlusion if exclude_occluded else None)
    return float(kernel(features(I0), features(I1), traj)[0])


def bc_values(I0: np.ndarray, I1: np.ndarray, traj: Trajectories) -> np.ndarray:
    """Brightness-constancy deviation of each patch of ``traj`` between the
    gray frames ``I0`` and ``I1``."""
    residual = traj.sample(I1) - I0[traj.pixels]
    return traj.variances([residual], traj.usable)


def bc_variance(frame_t, frame_t1, flow, patch, *,
                exclude_occluded: bool = False, occlusion=None) -> float:
    """Brightness-constancy deviation: variance of the warped residual.

    The residual is I(i+u, j+v, t+1) - I(i, j, t) over the patch, with
    bilinear sampling at subpixel targets.  Pixels whose target leaves the
    image are dropped; occluded pixels are dropped only when
    ``exclude_occluded`` is set (the default keeps them, matching protocols
    that treat occlusion as part of the measured deviation).
    """
    return _one_patch(bc_values, lambda I: I, frame_t, frame_t1, flow, patch, 0,
                      exclude_occluded, occlusion)


def gradient_fields(I: np.ndarray):
    """Central-difference gradients; the one-pixel frame border is invalid."""
    gx = np.full_like(I, np.nan)
    gy = np.full_like(I, np.nan)
    gx[:, 1:-1] = (I[:, 2:] - I[:, :-2]) / 2.0
    gy[1:-1, :] = (I[2:, :] - I[:-2, :]) / 2.0
    return gx, gy


def gc_values(grad0, grad1, traj: Trajectories) -> np.ndarray:
    """Gradient-constancy deviation of each patch of ``traj`` between the
    gradient fields ``grad0`` and ``grad1``, each a ``(gx, gy)`` pair;
    ``traj`` leaves out the one-pixel patch border."""
    src = [g[traj.pixels] for g in grad0]
    dst = [traj.sample(g) for g in grad1]
    keep = traj.usable
    for values in src + dst:
        keep = keep & np.isfinite(values)
    return traj.variances([t - s for s, t in zip(src, dst)], keep)


def gc_variance(frame_t, frame_t1, flow, patch, *,
                exclude_occluded: bool = False, occlusion=None) -> float:
    """Gradient-constancy deviation: pooled variance of the gradient residual.

    Both components of grad I(i+u, j+v, t+1) - grad I(i, j, t) are pooled
    into one population variance.  Gradients are central differences, so
    the one-pixel border of the patch is excluded; patches must have side
    >= 5 to leave an interior.
    """
    if patch.side < 5:
        raise PatchTooSmallError(
            f"gradient constancy needs side >= 5, got {patch.side}"
        )
    return _one_patch(gc_values, gradient_fields, frame_t, frame_t1, flow, patch, 1,
                      exclude_occluded, occlusion)


def ps_variance(flow_prev, flow, flow_next, patch) -> float:
    """Piecewise-smoothness deviation: variance of the smoothness energy.

    r = |grad3 u|^2 + |grad3 v|^2 with grad3 = (d/dx, d/dy, d/dt) by central
    differences.  Pass ``flow_prev = flow_next = None`` for the
    spatial-only form; providing exactly one temporal neighbour is an
    error.  The one-pixel patch border is excluded.
    """
    if (flow_prev is None) != (flow_next is None):
        raise MissingTemporalError(
            "spatio-temporal smoothness requires both flow_prev and flow_next"
        )
    f = np.asarray(flow, dtype=float)
    ux, uy = gradient_fields(f[:, :, 0])
    vx, vy = gradient_fields(f[:, :, 1])
    r = ux * ux + uy * uy + vx * vx + vy * vy
    if flow_prev is not None:
        fp = np.asarray(flow_prev, dtype=float)
        fn = np.asarray(flow_next, dtype=float)
        ut = (fn[:, :, 0] - fp[:, :, 0]) / 2.0
        vt = (fn[:, :, 1] - fp[:, :, 1]) / 2.0
        r = r + ut * ut + vt * vt

    rows = slice(patch.row + 1, patch.row + patch.side - 1)
    cols = slice(patch.col + 1, patch.col + patch.side - 1)
    vals = r[rows, cols].reshape(-1)
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        raise AllOccludedError(
            f"patch at ({patch.row}, {patch.col}) side {patch.side}: "
            "no finite smoothness values"
        )
    return population_variance(vals)


# -- dichromatic scattering ------------------------------------------------

_RANK_REL_TOL = 1e-10


def fit_dichromatic_plane(observations) -> np.ndarray:
    """Unit normal of the best plane through the color-space origin.

    Minimizes the sum of squared projections of the observations onto the
    normal (total least squares); the normal is the right-singular vector
    of the observation matrix with the smallest singular value.  The sign
    is fixed so the largest-magnitude component (first such index on ties)
    is positive.  Collinear observations raise RankDeficientError.
    """
    obs = np.asarray(observations, dtype=float)
    if obs.ndim != 2 or obs.shape[1] != 3:
        raise ConfigError(f"observations must be (k, 3), got {obs.shape}")
    if obs.shape[0] < 3:
        raise ConfigError(f"need >= 3 observations, got {obs.shape[0]}")
    if np.any(obs < -1e-12):
        raise ConfigError("color observations must be non-negative")
    _, s, vt = np.linalg.svd(obs, full_matrices=False)
    if s[1] <= max(_RANK_REL_TOL * s[0], 1e-15):
        raise RankDeficientError("observations are collinear; plane undefined")
    n = vt[2]
    i = int(np.argmax(np.abs(n)))
    if n[i] < 0:
        n = -n
    return n


@dataclass(frozen=True)
class DsResult:
    """Dichromatic plane-fit summary over a pixel population."""

    mean_deg: float
    std_deg: float
    fraction_below: float
    threshold_deg: float
    n_pixels: int
    n_excluded: int


def ds_angular_error(samples, threshold_deg: float = 3.0) -> DsResult:
    """Angular plane-fit error over all pixels' weather-varied observations.

    ``samples`` is (P, k, 3): P pixels, k >= 3 observations each.  Per
    observation the error is arcsin(|v . n| / |v|); per pixel those are
    averaged, and the headline numbers are the mean over pixels plus the
    fraction of individual observation angles below ``threshold_deg``.
    Rank-deficient pixels are excluded and counted.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ConfigError(f"samples must be (P, k, 3), got {arr.shape}")
    if arr.shape[1] < 3:
        raise ConfigError(f"need >= 3 observations per pixel, got {arr.shape[1]}")
    _, s, vt = np.linalg.svd(arr, full_matrices=False)
    ok = s[:, 1] > np.maximum(_RANK_REL_TOL * s[:, 0], 1e-15)
    n_excluded = int((~ok).sum())
    if not ok.any():
        raise ConfigError("no pixel has rank >= 2 observations")
    normals = vt[ok, 2, :]
    obs = arr[ok]
    dots = np.abs(np.einsum("pkc,pc->pk", obs, normals))
    mags = np.linalg.norm(obs, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mags > 0.0, dots / mags, 0.0)
    angles = np.degrees(np.arcsin(np.clip(ratio, 0.0, 1.0)))
    per_pixel = angles.mean(axis=1)
    return DsResult(
        mean_deg=float(per_pixel.mean()),
        std_deg=float(per_pixel.std()),
        fraction_below=float((angles < threshold_deg).mean()),
        threshold_deg=float(threshold_deg),
        n_pixels=int(ok.sum()),
        n_excluded=n_excluded,
    )
