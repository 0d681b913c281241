"""Property tests: the batched variances of BC, GC and PS.

``row_variances`` pools each row's kept values over its residual arrays,
groups the rows by their count of kept values and reduces each group as
one sorted 2-D stack.  Every row must get the bits of the sorted
population variance of its kept values taken alone, exactly 0.0 when they
are all equal.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from invarsim.patches import Patch
from invarsim.validators import row_variances
from oracles import sorted_population_variance

#: signed zeros, subnormals and magnitudes from 1e-300 to 1e150; the squares
#: of the largest stay finite, so no reduction overflows
VALUES = st.one_of(
    st.floats(min_value=-1e150, max_value=1e150),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300]),
)


@st.composite
def batches(draw):
    """1 or 2 pooled (rows, m) residual arrays and a keep mask that keeps
    at least one value of each row; some rows constant, some keeping one
    value."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 40))
    pooled = draw(st.integers(1, 2))
    residuals = list(draw(hnp.arrays(float, (pooled, n, m), elements=VALUES)))
    keep = draw(hnp.arrays(bool, (n, m)))
    for i in range(n):
        kind = draw(st.sampled_from(["drawn", "constant", "one kept"]))
        if kind == "constant":
            value = draw(VALUES)
            for r in residuals:
                r[i] = value
        elif kind == "one kept":
            keep[i] = False
        if not keep[i].any():
            keep[i, draw(st.integers(0, m - 1))] = True
    return residuals, keep


@settings(max_examples=300, deadline=None)
@given(batches())
def test_each_row_equals_its_kept_values_alone(batch):
    residuals, keep = batch
    # ``row_variances`` reads its patches only to name a row without kept values
    got = row_variances(residuals, keep, [Patch(0, 0, 3, "Diffuse")])
    want = [sorted_population_variance(np.concatenate([r[i][k] for r in residuals]))
            for i, k in enumerate(keep)]
    assert [repr(float(v)) for v in got] == [repr(v) for v in want]
