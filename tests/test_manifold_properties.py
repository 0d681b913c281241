"""Property tests: any manifold survives a CSV round trip."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from invarsim.characterize import Manifold
from invarsim.patches import CONTEXT_NAMES
from oracles import Row, manifold_of, rows_of

# one kind of coordinate per axis, ints, floats, both (a level list such as
# [0.5, 1, 1.5] mixes them) or names: the CSV prints a coordinate as given
coord_kinds = st.sampled_from([
    st.integers(-1000, 1000),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.5, 1, 1.0, 1.5, 2, 2.0, 0, -0.0]),
    st.sampled_from(["Fog", "Mist", "DenseHaze"]),
])
stats = st.floats(allow_infinity=False)  # NaN marks a gap


@st.composite
def manifolds(draw):
    w_axes = draw(st.lists(st.sampled_from(["illumination", "weather", "speed"]),
                           min_size=1, max_size=2, unique=True))
    v_axes = draw(st.lists(st.just("s"), max_size=1))
    kinds = {a: draw(coord_kinds) for a in w_axes + v_axes}
    records = [
        Row(draw(st.sampled_from(CONTEXT_NAMES)),
            {a: draw(kinds[a]) for a in w_axes},
            {a: draw(kinds[a]) for a in v_axes},
            draw(stats), draw(stats), draw(st.integers(0, 50)))
        for _ in range(draw(st.integers(1, 6)))
    ]
    return records, manifold_of("OC", w_axes, v_axes, records)


def same(a, b):
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


@settings(max_examples=200, deadline=None)
@given(manifolds())
def test_manifold_csv_round_trip(drawn):
    records, m = drawn
    text = m.to_csv()
    back = Manifold.from_csv(text)
    assert back.to_csv() == text
    assert (back.theta_w_axes, back.theta_v_axes) == (m.theta_w_axes, m.theta_v_axes)
    rows = rows_of(back)
    for r, b in zip(rows_of(m), rows):
        assert (b.context, b.theta_w, b.theta_v, b.n) == (r.context, r.theta_w, r.theta_v, r.n)
        assert same(b.mean, r.mean) and same(b.std, r.std)

    def keys(rows):
        # an int coordinate stays an int and a float a float: 1 and 1.0 apart
        return sorted(repr((r.context, r.theta_w, r.theta_v, r.n)) for r in rows)
    assert keys(rows) == keys(records)
    assert back.missing == sum(r.n == 0 for r in rows)
    for r in rows:
        # the first row with the same keys, found by scanning every row
        first = next(i for i, q in enumerate(rows)
                     if (q.context, q.theta_w, q.theta_v) == (r.context, r.theta_w, r.theta_v))
        assert back.cell(r.context, **r.theta_w, **r.theta_v) == first
