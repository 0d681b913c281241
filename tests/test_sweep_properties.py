"""Property tests: sweep cells are independent of the coordinates swept with
them.

A sweep over any subset of a model's theta_w coordinates gives, at those
coordinates, the same records as the sweep over all of them.
"""

import functools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from invarsim.characterize import ProtocolConfig, run_sweep
from invarsim.scenegen import validation_scene_config
from oracles import manifold_of, rows_of

RENDER = {"width": 32, "height": 24, "spp": 2, "max_bounces": 1}

#: each model's theta_w axis, the protocol key of its coordinates, and them
AXES = {
    "OC": ("illumination", "illumination_levels", [0.25, 1.0, 3.0]),
    "BC": ("illumination", "illumination_levels", [0.5, 1.0, 2.0]),
    "GC": ("illumination", "illumination_levels", [0.5, 1.0, 2.0]),
    "PS": ("speed", "speed_scales", [0.5, 1.0, 2.0]),
    "DS": ("weather", "weather_tags", ["Fog", "Mist", "MildHaze"]),
}


def tiny_protocol(model, coords):
    scene = validation_scene_config()
    scene["dynamics"] = [[0, "objects.5.velocity", [0.5, 0.0, 0.0]]]
    doc = {"model": model, "scene": scene, "render": RENDER,
           "theta_w": {AXES[model][1]: list(coords)}}
    if model == "DS":
        doc["theta_w"]["density_scales"] = [0.3, 0.6, 1.0]
    else:
        doc.update(theta_v={"patch_sizes": [5, 7]}, patches_per_cell=3,
                   contexts=["SameSurface", "Diffuse", "MotionBoundary"])
    return ProtocolConfig.from_dict(doc)


@functools.cache
def full_sweep(model):
    return run_sweep(tiny_protocol(model, AXES[model][2]))


@pytest.mark.parametrize("model", sorted(AXES))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_subset_sweep_equals_full_sweep_there(model, data):
    axis, _, coords = AXES[model]
    chosen = data.draw(st.lists(st.sampled_from(coords), min_size=1, unique=True))
    full = full_sweep(model)
    part = run_sweep(tiny_protocol(model, chosen))
    kept = [r for r in rows_of(full) if r.theta_w[axis] in chosen]
    assert kept and part.to_csv() == manifold_of(
        model, full.theta_w_axes, full.theta_v_axes, kept).to_csv()
    if model == "DS":  # each tag's details, NaN included
        details = {e["weather"]: json.dumps(e) for e in full.aux["ds"]}
        assert {e["weather"]: json.dumps(e) for e in part.aux["ds"]} == \
            {tag: details[tag] for tag in chosen}
