"""Property tests: the statistics pass of a block of cells.

``characterize._statistics`` groups the value arrays of a block by their
count of kept (non-NaN) values and reduces each group as one 2-D stack.
Every array must get the bits of its own ``mean()`` and ``std()``, and the
count of NaN values left out of it.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from invarsim.characterize import _statistics

#: NaN, signed zeros, subnormals and magnitudes from 1e-300 to 1e150; the
#: squares of the largest stay finite, so no reduction overflows
VALUES = st.one_of(
    st.floats(min_value=-1e150, max_value=1e150),
    st.just(math.nan),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300]),
)


def per_array(arrays):
    """The statistics of each array taken alone: mean, std, kept, left out."""
    out = []
    for values in arrays:
        values = np.asarray(values, dtype=float)
        vals = values[~np.isnan(values)]
        if len(vals) == 0:
            stats = (math.nan, math.nan)
        else:
            stats = (float(vals.mean()), float(vals.std()))
        out.append((repr(stats[0]), repr(stats[1]), len(vals), len(values) - len(vals)))
    return out


def block(arrays):
    """The same statistics from one pass over the arrays one after another."""
    flat = [v for values in arrays for v in values]
    mean, std, n, skipped = _statistics([len(values) for values in arrays], flat)
    return [(repr(float(m)), repr(float(s)), int(k), int(x))
            for m, s, k, x in zip(mean, std, n, skipped)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(VALUES, max_size=9), max_size=40))
def test_block_statistics_equal_each_arrays_own(arrays):
    assert block(arrays) == per_array(arrays)


def test_block_statistics_past_the_pairwise_block():
    # numpy sums in blocks of 8 and pairwise above 128 values: a row of a
    # stack must sum as the 1-D array does on both sides of each bound
    rng = np.random.default_rng(5)
    arrays = []
    for n in (1, 7, 8, 9, 16, 127, 128, 129, 300):
        for k in range(4):  # three rows of one stack, and one with NaN left out
            values = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5, size=n)
            if k == 3:
                values[rng.random(n) < 0.1] = math.nan
            arrays.append(values.tolist())
    assert block(arrays) == per_array(arrays)
