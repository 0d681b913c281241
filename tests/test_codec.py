"""The codec's error records: for every single-value edit of the four
documents invarsim reads, the error it raises, pinned by one digest per
document.  A change to how a document is read must give the same record
for every edit: the same exception type, message and json_path."""

import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from invarsim.characterize import MODELS, ProtocolConfig, default_protocol, ingest_sequence
from invarsim.errors import ConfigError
from invarsim.imgio import write_flo, write_ppm
from invarsim.scene import DynamicsScript, SceneGraph
from invarsim.scenegen import SceneConfig, apply_dynamics, sample_scene, validation_scene_config
from oracles import scene_json
from test_scenegen import SUBSTITUTES, priors_doc, substitutions

#: (edits, errors, sha256 of the records) of each document's edits
PINNED = {
    "scene_config": (1278, 1109,
                    "fc2ca6cd5d44ff33571f9c1118e76c136ea3ea245af5cb48ba8c90b55ab96175"),
    "protocols": (7389, 6372,
                 "65c546aa9135a8778f388502994cc320b6e831461e4f67ad899be9d25862b33d"),
    "annotation": (153, 149,
                  "7f4b84f9a19d1acc47126950b48f8b4dd037990c4c266f36299cb274df9d955c"),
    "scene_document": (3519, 3083,
                       "e02dbd1895d39b7c7f321cc364f9d6c17d921a409b13d2f837a532b9e02f82bb"),
}


def records(bases, read):
    """(edits, errors, digest) of the records of ``read`` over every edit of
    each document of ``bases`` to each substitute: per edit its path and the
    error's type, message and json_path, or None when the edit reads."""
    digest = hashlib.sha256()
    edits = errors = 0
    for (i, base), value in itertools.product(enumerate(bases), SUBSTITUTES):
        for path, doc in substitutions(base, value):
            try:
                read(doc)
                record = None
            except ConfigError as err:
                assert err.json_path is not None, (path, err)
                record = (type(err).__name__, str(err.args[0]), err.json_path)
                errors += 1
            edits += 1
            digest.update(repr((i, path, record)).encode())
    return edits, errors, digest.hexdigest()


def scene_config_records():
    base = validation_scene_config()
    base.update(seed=3, cell_size=0.5, max_attempts=100, counts={"total": 2},
                classes=priors_doc(("Tree", "Pedestrian")),
                weather={"beta": [0.01, 0.01, 0.01], "anisotropy": 0.2,
                         "airlight_color": [0.9, 0.9, 0.9], "weather_tag": "Mist"},
                dynamics=[[0, "objects.5.velocity", [0.5, 0.0, 0.0]],
                          [2, "lights.1.intensity_scale", 1.5]])
    return records([base], SceneConfig.from_dict)


def protocol_records():
    return records([default_protocol(m).to_dict() for m in MODELS], ProtocolConfig.from_dict)


def annotation_records(tmp_path):
    for t in range(2):
        write_ppm(tmp_path / f"frame_{t}.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
    write_flo(tmp_path / "flow_0.flo", np.zeros((8, 8, 2)))
    base = {"reference_frame": 0, "zero_flow": True, "flo_files": ["flow_0.flo"],
            "patches": [{"x": 0, "y": 0, "width": 5, "height": 5, "context": "Diffuse"},
                        {"x": 2, "y": 1, "width": 6, "height": 7, "context": "Edge"}]}
    apath = tmp_path / "annotation.json"

    def read(doc):
        apath.write_text(json.dumps(doc))
        try:
            ingest_sequence(tmp_path, apath)
        except ConfigError as err:  # a message naming a file names it in the sequence
            err.args = (str(err.args[0]).replace(str(tmp_path), "<sequence>"),)
            raise
    return records([base], read)


def scene_document_records(scene):
    scene = dataclasses.replace(scene, dynamics=DynamicsScript((
        (0, "objects.5.velocity", (0.5, 0.0, 0.0)), (2, "lights.1.intensity_scale", 1.5))))
    return records([json.loads(scene.to_json())],
                   lambda doc: SceneGraph.from_json(json.dumps(doc)))


def test_scene_config_error_records():
    assert scene_config_records() == PINNED["scene_config"]


def test_protocol_error_records():
    assert protocol_records() == PINNED["protocols"]


def test_annotation_error_records(tmp_path):
    assert annotation_records(tmp_path) == PINNED["annotation"]


def test_scene_document_error_records(validation_scene):
    assert scene_document_records(validation_scene) == PINNED["scene_document"]


# -- exactness at the size of the city benchmark -----------------------------


def benchmark_city_config():
    """A city in the shape of the city benchmark's large one: 130 buildings
    of about 21 primitives each, a moving vehicle and the ground slab."""
    return {
        "world_bounds": [-150.0, 0.0, 150.0, 300.0],
        "cell_size": 1.0,
        "classes": [{"class": "Building", "probability": 1.0, "length": [13.5, 0.3],
                     "breadth": [10.0, 1.0], "height": [16.5, 0.3]}],
        "counts": {"total": 130},
        "objects": [{"class": "Vehicle", "position": [1.7, 5.1], "length": 5.0,
                     "breadth": 2.2, "height": 1.8, "style": 2, "dynamic": True}],
        "weather": "Clear",
        "camera": {"position": [0.0, 20.0, -25.0], "look_at": [0.0, 0.0, 30.0],
                   "vfov_deg": 30.0},
        "dynamics": [[0, "objects.1.velocity", [0.55, 0.0, -0.1]]],
    }


@pytest.fixture(scope="module")
def benchmark_city():
    return sample_scene(SceneConfig.from_dict(benchmark_city_config()), 5)


def test_benchmark_city_round_trips(benchmark_city):
    assert sum(len(o.primitives) for o in benchmark_city.objects) > 2500
    for scene in (benchmark_city, apply_dynamics(benchmark_city, 1)):
        text = scene.to_json()
        assert text == scene_json(scene)
        again = SceneGraph.from_json(text)
        assert again == scene
        assert again.to_json() == text


def loosened(node):
    """``node`` with its keys in reverse order and each integral float but
    -0.0 an int, as a hand-written document may hold them."""
    if isinstance(node, dict):
        return {key: loosened(node[key]) for key in reversed(node)}
    if isinstance(node, list):
        return [loosened(item) for item in node]
    if isinstance(node, float) and node.is_integer() and math.copysign(1.0, node) > 0:
        return int(node)
    return node


def test_a_loose_document_reads_to_the_canonical_text(benchmark_city):
    text = benchmark_city.to_json()
    loose = json.dumps(loosened(json.loads(text)), separators=(",", ":"))
    assert loose.startswith('{"world_bounds":[-150.0,0,150,300],')  # keys reversed, ints
    assert SceneGraph.from_json(loose).to_json() == text
    assert SceneGraph.from_json(json.dumps(json.loads(text), indent="\t")).to_json() == text


#: (primitive kind, key, bad value) of an entry in a building's primitives
BAD_PRIMITIVE_VALUES = [
    ("rect", "offset", float("nan")), ("rect", "offset", float("inf")), ("rect", "offset", "1"),
    ("rect", "offset", True), ("rect", "u", [0.0, 1.0, 2.0]), ("rect", "u", [0.0]),
    ("rect", "u", [0.0, "1"]), ("rect", "v", [0.0, float("-inf")]), ("rect", "axis", 3),
    ("rect", "axis", 1.0), ("rect", "axis", False), ("rect", "material", 0.5),
    ("rect", "kind", 1), ("box", "lo", [0.0, 0.0]), ("box", "hi", [1.0, 2.0, None]),
]


@pytest.mark.parametrize("kind, key, value", BAD_PRIMITIVE_VALUES,
                         ids=[f"{kind}.{key}={value!r}" for kind, key, value in BAD_PRIMITIVE_VALUES])
def test_each_bad_primitive_value_is_named(benchmark_city, kind, key, value):
    doc = json.loads(benchmark_city.to_json())
    i, obj = next((i, obj) for i, obj in enumerate(doc["objects"]) if len(obj["primitives"]) > 20)
    j, prim = next((j, prim) for j, prim in enumerate(obj["primitives"]) if prim["kind"] == kind)
    prim[key] = value
    with pytest.raises(ConfigError, match="unknown primitive kind" if key == "kind"
                       else ": expected ") as err:
        SceneGraph.from_json(json.dumps(doc))
    assert err.value.json_path == f"objects[{i}].primitives[{j}].{key}"
