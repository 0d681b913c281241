"""Property tests: any valid protocol document survives a JSON round trip.
Its contexts, patch sides and theta_w lists each hold no value twice, as a
valid protocol's must."""

from hypothesis import given, settings
from hypothesis import strategies as st

from invarsim.characterize import MODELS, ProtocolConfig
from invarsim.patches import CONTEXT_NAMES
from invarsim.scene import WEATHER_PRESETS
from invarsim.scenegen import validation_scene_config


def optional(**keys):
    """JSON objects holding any subset of ``keys``; a key left out takes the
    field's default."""
    return st.fixed_dictionaries({}, optional=keys)


# ints and floats both: the manifold CSV prints a coordinate as given
numbers = st.one_of(st.integers(-1000, 1000),
                    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
seeds = st.integers(0, 2**63 - 1)
tags = sorted(WEATHER_PRESETS)

AXES = {
    "illumination_levels": st.lists(numbers, min_size=1, max_size=4, unique=True),
    "weather_tags": st.lists(st.sampled_from([t for t in tags if t != "Clear"]),
                             min_size=1, max_size=3, unique=True),
    "density_scales": st.lists(numbers, min_size=3, max_size=5, unique=True),
    "speed_scales": st.lists(numbers, min_size=1, max_size=4, unique=True),
}
SUNNY = st.lists(st.sampled_from(tags), max_size=3, unique=True)
COMMON = {
    "theta_v": optional(patch_sizes=st.lists(st.integers(2, 12).map(lambda k: 2 * k + 1),
                                             min_size=1, max_size=3, unique=True)),
    "patches_per_cell": st.integers(1, 20),
    "seeds": optional(scene=seeds, render=seeds, patch=seeds, sensor=seeds),
    "render": optional(width=st.integers(1, 64), height=st.integers(1, 64),
                       spp=st.integers(1, 64), max_bounces=st.integers(0, 1)),
    # null: no sensor stage
    "sensor": st.one_of(st.none(), optional(sigma=st.floats(0.0, 0.1),
                                            bits=st.integers(1, 16),
                                            gamma=st.floats(0.1, 3.0))),
    "thresholds": optional(ds_angle_deg=numbers),
}
REQUIRED = {
    "model": st.sampled_from(MODELS),
    "contexts": st.lists(st.sampled_from(CONTEXT_NAMES), min_size=1, max_size=4,
                         unique=True),
}

simulated = st.fixed_dictionaries(
    {**REQUIRED, "scene": st.just(validation_scene_config()),
     "theta_w": st.fixed_dictionaries(AXES, optional={"sunny_tags": SUNNY})},
    optional={**COMMON, "exclude_occluded": st.booleans()})
ingested = st.fixed_dictionaries(
    {**REQUIRED, "source": st.just("ingest"),
     "ingest": st.just({"directory": "frames", "annotation": "annotation.json"})},
    optional={**COMMON, "theta_w": optional(**AXES, sunny_tags=SUNNY)})


@settings(max_examples=200, deadline=None)
@given(st.one_of(simulated, ingested))
def test_protocol_json_round_trip(doc):
    p = ProtocolConfig.from_dict(doc)
    out = p.to_dict()
    for key, value in doc.items():  # each given value comes back where it was
        block = isinstance(value, dict) and key not in ("scene", "sensor")
        assert out[key] == ({**out[key], **value} if block else value)
    again = ProtocolConfig.from_dict(out)
    assert again == p
    assert again.content_hash() == p.content_hash()
