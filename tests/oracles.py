"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the definitions, not the
package code paths: exact rational arithmetic for rank correlation,
brute-force O(n^2) rectangle intersection, Gauss-Legendre quadrature for
phase-function normalization.
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
