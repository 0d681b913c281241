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

import math
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

    A run of equal values occupying sorted positions [a, b) gets rank
    (a + b + 1) / 2; both ends come from binary searches of the sorted
    values.  Non-finite values (NaN, +-inf) tie with nothing: each takes
    its own stable sorted position as rank.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    ranks = 0.5 * (np.searchsorted(sorted_v, v, side="left")
                   + np.searchsorted(sorted_v, v, side="right") + 1)
    odd = ~np.isfinite(sorted_v)
    ranks[order[odd]] = np.flatnonzero(odd) + 1.0
    return ranks


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
    rx = average_ranks(xv)
    ry = average_ranks(yv)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    vx = rx @ rx
    vy = ry @ ry
    if vx == 0.0 or vy == 0.0:
        return float("nan")
    return float((rx @ ry) / math.sqrt(vx * vy))


def oc_measure(ref_patch, cur_patch) -> float:
    """Absolute Spearman rho between two co-located intensity patches."""
    ref = to_gray(ref_patch)
    cur = to_gray(cur_patch)
    if ref.shape != cur.shape:
        raise ConfigError(f"patch shape mismatch: {ref.shape} vs {cur.shape}")
    rho = spearman_rho(ref.reshape(-1), cur.reshape(-1))
    return abs(rho) if not math.isnan(rho) else rho


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


def bilinear_sample(frame: np.ndarray, rows, cols):
    """Bilinear interpolation at fractional (row, col) positions.

    Returns (values, valid); positions outside [0, H-1] x [0, W-1] are
    invalid.  Integer positions reproduce array values exactly.
    """
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
    # zero-weight neighbors must not poison the sum (NaN border guards)
    vals = (
        np.where(w00 > 0, frame[r0, c0], 0.0) * w00
        + np.where(w01 > 0, frame[r0, c1], 0.0) * w01
        + np.where(w10 > 0, frame[r1, c0], 0.0) * w10
        + np.where(w11 > 0, frame[r1, c1], 0.0) * w11
    )
    return vals, valid


def _patch_grid(patch):
    rows = np.arange(patch.row, patch.row + patch.side)
    cols = np.arange(patch.col, patch.col + patch.side)
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    return rr.reshape(-1), cc.reshape(-1)


def bc_variance(frame_t, frame_t1, flow, patch, *,
                exclude_occluded: bool = False, occlusion=None) -> float:
    """Brightness-constancy deviation: variance of the warped residual.

    The residual is I(i+u, j+v, t+1) - I(i, j, t) over the patch, with
    bilinear sampling at subpixel targets.  Pixels whose target leaves the
    image are dropped; occluded pixels are dropped only when
    ``exclude_occluded`` is set (the default keeps them, matching protocols
    that treat occlusion as part of the measured deviation).
    """
    I0 = to_gray(frame_t)
    I1 = to_gray(frame_t1)
    if I0.shape != I1.shape:
        raise ConfigError(f"frame shape mismatch: {I0.shape} vs {I1.shape}")
    rr, cc = _patch_grid(patch)
    u = flow[rr, cc, 0]
    v = flow[rr, cc, 1]
    target_vals, valid = bilinear_sample(I1, rr + v, cc + u)
    keep = valid
    if exclude_occluded:
        if occlusion is None:
            raise ConfigError("exclude_occluded requires an occlusion mask")
        keep = keep & ~occlusion[rr, cc]
    if not keep.any():
        raise AllOccludedError(
            f"patch at ({patch.row}, {patch.col}) side {patch.side}: no usable pixels"
        )
    residual = target_vals[keep] - I0[rr, cc][keep]
    return population_variance(residual)


def _gradient_fields(I: np.ndarray):
    """Central-difference gradients; the one-pixel frame border is invalid."""
    gx = np.full_like(I, np.nan)
    gy = np.full_like(I, np.nan)
    gx[:, 1:-1] = (I[:, 2:] - I[:, :-2]) / 2.0
    gy[1:-1, :] = (I[2:, :] - I[:-2, :]) / 2.0
    return gx, gy


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
    I0 = to_gray(frame_t)
    I1 = to_gray(frame_t1)
    if I0.shape != I1.shape:
        raise ConfigError(f"frame shape mismatch: {I0.shape} vs {I1.shape}")
    gx0, gy0 = _gradient_fields(I0)
    gx1, gy1 = _gradient_fields(I1)

    rows = np.arange(patch.row + 1, patch.row + patch.side - 1)
    cols = np.arange(patch.col + 1, patch.col + patch.side - 1)
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    rr = rr.reshape(-1)
    cc = cc.reshape(-1)
    u = flow[rr, cc, 0]
    v = flow[rr, cc, 1]
    tx, valid_x = bilinear_sample(gx1, rr + v, cc + u)
    ty, valid_y = bilinear_sample(gy1, rr + v, cc + u)
    src_ok = np.isfinite(gx0[rr, cc]) & np.isfinite(gy0[rr, cc])
    keep = valid_x & valid_y & src_ok & np.isfinite(tx) & np.isfinite(ty)
    if exclude_occluded:
        if occlusion is None:
            raise ConfigError("exclude_occluded requires an occlusion mask")
        keep = keep & ~occlusion[rr, cc]
    if not keep.any():
        raise AllOccludedError(
            f"patch at ({patch.row}, {patch.col}) side {patch.side}: no usable pixels"
        )
    res_x = tx[keep] - gx0[rr, cc][keep]
    res_y = ty[keep] - gy0[rr, cc][keep]
    return population_variance(np.concatenate([res_x, res_y]))


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
    ux, uy = _gradient_fields(f[:, :, 0])
    vx, vy = _gradient_fields(f[:, :, 1])
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
