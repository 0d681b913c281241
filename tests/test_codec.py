"""The codec's error records: for every single-value edit of the four
documents invarsim reads, the error it raises, pinned by one digest per
document.  A change to how a document is read must give the same record
for every edit: the same exception type, message and json_path."""

import dataclasses
import hashlib
import itertools
import json

import numpy as np

from invarsim.characterize import MODELS, ProtocolConfig, default_protocol, ingest_sequence
from invarsim.errors import ConfigError
from invarsim.imgio import write_flo, write_ppm
from invarsim.scene import DynamicsScript, SceneGraph
from invarsim.scenegen import SceneConfig, validation_scene_config
from test_scenegen import SUBSTITUTES, priors_doc, substitutions

#: (edits, errors, sha256 of the records) of each document's edits
PINNED = {
    "scene_config": (1278, 1109,
                    "fc2ca6cd5d44ff33571f9c1118e76c136ea3ea245af5cb48ba8c90b55ab96175"),
    "protocols": (7389, 6366,
                 "ac006dad7ac7cdc1315d987716691a397660f785d45e659f74317daf58477bcd"),
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
