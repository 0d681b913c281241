"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the definitions, not the
package code paths: exact rational arithmetic for rank correlation,
brute-force O(n^2) rectangle intersection, Gauss-Legendre quadrature for
phase-function normalization, and the OC/BC/GC measures one patch at a time
from whole frames, which the package evaluates per frame and per batch.
"""

import math
from fractions import Fraction

import numpy as np


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
    when no pixel is usable.  ``occlusion`` (a mask) drops occluded pixels."""
    I0 = gray(frame_t)
    I1 = gray(frame_t1)
    rr, cc = _patch_positions(patch, 0)
    target, keep = point_bilinear_sample(I1, rr + flow[rr, cc, 1], cc + flow[rr, cc, 0])
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


def patch_purity(cmap, patch):
    """Fraction of the patch's pixels carrying its context label."""
    return float(patch.extract(cmap.labels[patch.context]).mean())


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
