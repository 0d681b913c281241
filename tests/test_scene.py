"""The scene JSON and what each scene state derives once.

``SceneGraph.to_json`` takes each object's entry from the object's cached
``json_fragment``; ``oracles.scene_json`` encodes the whole document in one
``json.dumps`` call.  The two must be equal byte for byte.  ``from_json``
must reject a value of the wrong kind with a ``ConfigError`` naming its
``json_path``.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invarsim.characterize import MODELS, default_protocol
from invarsim.errors import ConfigError, PlacementError
from invarsim.geometry import FAMILIES, Box, Camera, Cylinder, PrimitiveSoup, Rect, Sphere, trace
from invarsim.scene import (TEXTURE_PATTERNS, CuboidMark, ObjectClass, SceneGraph, SceneObject,
                            Texture)
from invarsim.scenegen import SceneConfig, apply_dynamics, sample_scene
from oracles import scene_json

#: the explicit vehicle of ``city_config``: ground and road come first
CITY_VEHICLE = 2


def city_config(rng):
    """A sampled city, with one explicit vehicle on the road that moves."""
    return {
        "world_bounds": [-40.0, -40.0, 40.0, 40.0],
        "cell_size": 1.0,
        "classes": [
            {"class": "Building", "probability": 0.5, "length": [12.0, 3.0],
             "breadth": [9.0, 2.0], "height": [14.0, 5.0]},
            {"class": "Tree", "probability": 0.3, "length": [3.0, 0.5],
             "breadth": [3.0, 0.5], "height": [6.0, 1.0]},
            {"class": "Pedestrian", "probability": 0.2, "length": [0.6, 0.1],
             "breadth": [0.6, 0.1], "height": [1.7, 0.1]},
        ],
        "counts": {"total": int(rng.integers(4, 30))},
        "roads": [[-40.0, -3.0, 40.0, 3.0]],
        "objects": [{"class": "Vehicle", "position": [float(rng.uniform(-30, 30)), 0.0],
                     "length": 4.5, "breadth": 2.0, "height": 1.6, "dynamic": True}],
        "camera": {"position": [float(rng.uniform(-10, 10)), float(rng.uniform(2, 30)), -45.0],
                   "look_at": [0.0, 0.0, 0.0], "vfov_deg": 50.0},
        "dynamics": [[0, f"objects.{CITY_VEHICLE}.velocity",
                      [float(rng.uniform(-1, 1)), 0.0, float(rng.uniform(-0.3, 0.3))]]],
    }


def assert_canonical(scene):
    text = scene.to_json()
    assert text == scene_json(scene)
    assert SceneGraph.from_json(text).to_json() == text


class TestSceneJson:
    def test_validation_scene(self, validation_scene):
        assert_canonical(validation_scene)

    @pytest.mark.parametrize("model", MODELS)
    def test_stock_scene_states(self, model):
        p = default_protocol(model)
        base = sample_scene(p.scene_config(), p.scene_seed)
        for t in range(4):
            assert_canonical(apply_dynamics(base, t))

    @pytest.mark.parametrize("seed", range(20))
    def test_city_with_a_moved_vehicle(self, seed):
        rng = np.random.default_rng(300 + seed)
        base = sample_scene(SceneConfig.from_dict(city_config(rng)), seed)
        base.to_json()
        moved = apply_dynamics(base, 1)
        vehicle = moved.objects[CITY_VEHICLE]
        assert vehicle.anchor() != base.objects[CITY_VEHICLE].anchor()
        # every other object is the base's, its entry already encoded
        assert [o for o in moved.objects if "json_fragment" not in vars(o)] == [vehicle]
        assert_canonical(base)
        assert_canonical(moved)

    def test_scene_without_objects(self, validation_scene):
        empty = dataclasses.replace(validation_scene, objects=())
        assert_canonical(empty)
        assert '\n "objects": [],\n' in empty.to_json()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_city_with_a_random_sun_and_a_light_keyframe(self, seed):
        # a rebuilt light keeps its direction's bits: read from the sampled
        # scene's JSON, and given another intensity by the keyframe
        rng = np.random.default_rng(seed)
        doc = city_config(rng)
        doc["lights"] = [{"kind": "ambient", "intensity": 0.35},
                         {"kind": "directional", "intensity": 0.9,
                          "direction": rng.normal(size=3).tolist()}]
        doc["dynamics"].append([1, "lights.1.intensity_scale", 0.5])
        try:
            base = sample_scene(SceneConfig.from_dict(doc), seed)
        except PlacementError:
            # a few seeds draw more building area than the city holds; see
            # test_a_saturated_city_raises_placement_error
            assume(False)
        scene = SceneGraph.from_json(base.to_json())
        assert scene.to_json() == base.to_json()
        for t in range(3):
            state = apply_dynamics(scene, t)
            assert state.lights[1].direction == base.lights[1].direction
            text = state.to_json()
            assert SceneGraph.from_json(text).to_json() == text

    def test_a_saturated_city_raises_placement_error(self):
        # seed 11524 draws 27 objects, too many buildings to place in the city
        doc = city_config(np.random.default_rng(11524))
        with pytest.raises(PlacementError):
            sample_scene(SceneConfig.from_dict(doc), 11524)

    def test_material_name_with_quotes_brackets_and_a_newline(self, validation_scene):
        name = 'a "quoted" [bracketed] {braced},\n"objects": []'
        materials = dict(validation_scene.materials)
        mid = min(materials)
        materials[mid] = dataclasses.replace(materials[mid], name=name)
        scene = dataclasses.replace(validation_scene, materials=materials)
        assert_canonical(scene)
        assert SceneGraph.from_json(scene.to_json()).materials[mid].name == name


#: numbers of every shape ``json.dumps`` writes its own way: finite floats,
#: with -0.0, subnormals and the bounds of repr's exponent form among them,
#: and ints, which a scene built in code may hold in a float field
NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, 2.5e-310, 1e16, 9999999999999998.0,
                                     1e-7, 0.0001, 0.1]),
                    st.integers(-2**53, 2**53))
#: names with quotes, backslashes, control characters and non-ASCII text
NAMES = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\n\x1f\x7f\u00e9\u2028'),
                          st.characters()), max_size=8)


class TestEncoder:
    @settings(max_examples=80, deadline=None)
    @given(xs=st.lists(NUMBERS, min_size=12, max_size=12), size=NUMBERS.filter(lambda v: v > 0),
           name=NAMES)
    def test_to_json_is_json_dumps(self, validation_scene, xs, size, name):
        """A scene built in code, with any numbers in its primitives, mark,
        material and bounds, writes what ``json.dumps`` writes, and reads
        back as the same scene, whose document then reads back byte for
        byte: an int in a float field is read as a float."""
        mat = min(validation_scene.materials)
        low, high = sorted(xs[:2])
        obj = SceneObject(99, CuboidMark(tuple(xs[6:8]), size, size, size, ObjectClass.VEHICLE), (
            Box(tuple(xs[:3]), tuple(xs[3:6]), mat),
            Sphere(tuple(xs[6:9]), size, mat),
            Cylinder(tuple(xs[9:11]), size, low, high, mat),
            Rect(1, xs[11], (low, high), tuple(sorted(xs[2:4])), mat),
        ), y_offset=xs[8])
        materials = dict(validation_scene.materials)
        materials[mat] = dataclasses.replace(materials[mat], name=name, albedo=tuple(xs[9:]))
        scene = dataclasses.replace(validation_scene, objects=(*validation_scene.objects, obj),
                                    materials=materials, world_bounds=tuple(xs[:4]))
        text = scene.to_json()
        assert text == scene_json(scene)
        again = SceneGraph.from_json(text)
        assert again == scene
        assert_canonical(again)


class TestSoup:
    def test_built_once_per_state(self, validation_scene, monkeypatch):
        builds = []
        from_scene = PrimitiveSoup.from_scene.__func__

        def counting(cls, scene):
            builds.append(scene)
            return from_scene(cls, scene)

        monkeypatch.setattr(PrimitiveSoup, "from_scene", classmethod(counting))
        scene = dataclasses.replace(validation_scene)
        assert scene.soup is scene.soup
        other = dataclasses.replace(scene)
        assert other.soup is not scene.soup
        assert builds == [scene, other]

    def test_translation_moves_every_column_by_the_offset(self, validation_scene):
        """Every family, rects on all three axes, dy != 0, and a distinct
        shift per axis, so a dropped or swapped component shows."""
        offset = (0.75, -1.5, 2.25)
        mat = min(validation_scene.materials)
        obj = SceneObject(90, CuboidMark((1.0, 2.0), 4.0, 3.0, 5.0, ObjectClass.VEHICLE), (
            Box((-1.0, 0.0, 0.5), (3.0, 5.0, 3.5), mat),
            Sphere((1.0, 3.0, 2.0), 1.25, mat),
            Cylinder((1.5, 2.5), 0.5, 0.25, 4.0, mat),
            *(Rect(axis, 0.5 + axis, (-1.0, 1.5), (2.0, 4.5), mat) for axis in range(3)),
        ))
        moved = obj.translated(offset)
        before, after = PrimitiveSoup([obj]), PrimitiveSoup([moved])
        d = np.array(offset)
        shift = {"box_lo": d, "box_hi": d, "sphere_center": d,
                 "cylinder_center": d[[0, 2]], "cylinder_y0": d[1], "cylinder_y1": d[1],
                 "rect_offset": d[before.rect_axis],
                 "rect_u": d[before.rect_ua][:, None], "rect_v": d[before.rect_va][:, None]}
        families = tuple(f"{fam}_" for fam in FAMILIES)
        columns = [name for name in vars(before) if name.startswith(families)]
        assert len(columns) == 22
        for name in columns:
            expected = getattr(before, name) + shift.get(name, 0)
            assert np.array_equal(getattr(after, name), expected), name
        assert moved.anchor() == (1.75, -1.5, 4.25)
        scene = dataclasses.replace(validation_scene,
                                    objects=(obj, dataclasses.replace(moved, object_id=91)))
        again = SceneGraph.from_json(scene.to_json())
        assert again.objects == scene.objects
        assert again.to_json() == scene.to_json()


def edit_primitive(kind, key, value):
    """An edit that sets ``key`` of the first primitive of ``kind``, and
    returns that primitive's json_path."""
    def edit(doc):
        for i, obj in enumerate(doc["objects"]):
            for j, prim in enumerate(obj["primitives"]):
                if prim["kind"] == kind:
                    prim[key] = value
                    return f"objects[{i}].primitives[{j}].{key}"
        raise AssertionError(f"no {kind} primitive")
    return edit


def edit_at(path, value):
    """An edit that sets the value at ``path``, a list of keys and indices."""
    def edit(doc):
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    return edit


class TestSceneValues:
    @pytest.mark.parametrize("edit,json_path", [
        (edit_at(["objects", 0, "class"], "Buildng"), "objects[0].class"),
        (edit_at(["objects", 1, "height"], "tall"), "objects[1].height"),
        (edit_at(["objects", 1, "height"], -2.0), "objects[1]"),
        (edit_at(["objects", 0, "position"], [1.0]), "objects[0].position"),
        (edit_at(["objects", 0, "dynamic"], "no"), "objects[0].dynamic"),
        (edit_at(["objects", 0, "primitives"], {}), "objects[0].primitives"),
        (edit_at(["lights", 0, "kind"], "spto"), "lights[0]"),
        (edit_at(["lights", 0, "intensity"], "bright"), "lights[0].intensity"),
        (edit_at(["lights", 1, "intensity"], float("nan")), "lights[1].intensity"),
        (edit_at(["lights", 1, "direction"], [0.0, 0.0, 0.0]), "lights[1]"),
        (edit_at(["materials", "0", "specular"], 2.0), "materials.0"),
        (edit_at(["materials", "0", "albedo"], "red"), "materials.0.albedo"),
        (lambda d: d["materials"].update(abc=d["materials"]["0"]), "materials.abc"),
        # an id written otherwise than str writes it would alias another id
        (lambda d: d["materials"].update({"00": d["materials"]["0"]}), "materials.00"),
        (lambda d: d["materials"].update({" 1": d["materials"]["1"]}), "materials. 1"),
        (lambda d: d["materials"].update({"1_0": d["materials"]["1"]}), "materials.1_0"),
        (edit_at(["medium", "beta"], [-1.0, 0.0, 0.0]), "medium"),
        (edit_at(["camera", "vfov_deg"], 200.0), "camera"),
        (edit_at(["camera", "up"], None), "camera.up"),
        (edit_at(["camera", "up"], [0.0, 0.0, 0.0]), "camera"),
        (edit_at(["camera", "up"], [0.0, -1.0, 32.0]), "camera"),  # along the view
        (edit_at(["materials", "0", "texture", "contrast"], float("nan")),
         "materials.0.texture.contrast"),
        (edit_at(["materials", "0", "texture", "contrast"], -0.1), "materials.0.texture"),
        (edit_at(["materials", "0", "texture", "scale"], 0.0), "materials.0.texture"),
        (edit_at(["materials", "0", "texture", "scale"], "x"), "materials.0.texture.scale"),
        (edit_at(["materials", "0", "texture", "pattern"], "zigzag"), "materials.0.texture"),
        (lambda d: d["materials"]["0"]["texture"].update(contrst=0.3),
         "materials.0.texture.contrst"),
        (lambda d: d["materials"]["0"]["texture"].pop("scale"), "materials.0.texture.scale"),
        (edit_at(["materials", "0", "texture"], []), "materials.0.texture"),
        (edit_at(["dynamics"], [[0, "objects.5.velocity"]]), "dynamics[0]"),
        (edit_at(["dynamics"], [[0, "objects.5.velocity", 1], [0, "objects.5.velocity", 2]]),
         "dynamics"),
        (edit_at(["seed"], "7"), "seed"),
        (edit_at(["manhattan"], 1), "manhattan"),
        # nothing renders a rotated object, so a non-Manhattan scene is refused
        (edit_at(["manhattan"], False), "manhattan"),
        (lambda d: (d.update(manhattan=False), d["objects"][3].update(yaw=0.6)), "manhattan"),
        (edit_at(["world_bounds"], [0.0, 0.0, 1.0]), "world_bounds"),
    ])
    def test_bad_value_names_its_path(self, validation_scene, edit, json_path):
        doc = json.loads(validation_scene.to_json())
        edit(doc)
        with pytest.raises(ConfigError) as err:
            SceneGraph.from_json(json.dumps(doc))
        assert err.value.json_path == json_path

    @pytest.mark.parametrize("pattern,scale,contrast", [
        ("zigzag", 1.0, 0.1), ("checker", 0.0, 0.1), ("checker", -1.0, 0.1),
        ("stripes", float("nan"), 0.1), ("stripes", float("inf"), 0.1),
        ("bands", 1.0, float("nan")), ("bands", 1.0, -0.1), ("bands", 1.0, float("inf")),
    ])
    def test_texture_checks_its_values(self, pattern, scale, contrast):
        with pytest.raises(ConfigError):
            Texture(pattern, scale, contrast)

    def test_texture_round_trips(self, validation_scene):
        textures = {m.texture for m in validation_scene.materials.values()}
        assert {t.pattern for t in textures - {None}} == set(TEXTURE_PATTERNS)
        again = SceneGraph.from_json(validation_scene.to_json())
        assert again.materials == validation_scene.materials

    @pytest.mark.parametrize("kind,key,value", [
        ("rect", "axis", 3), ("rect", "axis", True), ("box", "lo", [0.0, 1.0]),
        ("sphere", "radius", "big"), ("cylinder", "center", [0.0, 0.0, 0.0]),
        ("box", "material", 1.5),
    ])
    def test_bad_primitive_value_names_its_path(self, validation_scene, kind, key, value):
        doc = json.loads(validation_scene.to_json())
        json_path = edit_primitive(kind, key, value)(doc)
        with pytest.raises(ConfigError) as err:
            SceneGraph.from_json(json.dumps(doc))
        assert err.value.json_path == json_path

    @pytest.mark.parametrize("kind,key,value", [
        ("sphere", "radius", 0.0), ("sphere", "radius", -1.5), ("cylinder", "radius", 0.0),
        ("cylinder", "y0", 1e3), ("rect", "u", [1.0, -1.0]), ("rect", "v", [5.0, 4.0]),
    ])
    def test_primitive_out_of_range_names_its_block(self, validation_scene, kind, key, value):
        doc = json.loads(validation_scene.to_json())
        json_path = edit_primitive(kind, key, value)(doc)
        with pytest.raises(ConfigError) as err:
            SceneGraph.from_json(json.dumps(doc))
        assert err.value.json_path == json_path.rsplit(".", 1)[0]

    def test_box_with_swapped_corners_traces_the_same(self, validation_scene):
        doc = json.loads(validation_scene.to_json())
        boxes = [p for o in doc["objects"] for p in o["primitives"] if p["kind"] == "box"]
        for box in boxes:
            box["lo"], box["hi"] = box["hi"], box["lo"]
        swapped = SceneGraph.from_json(json.dumps(doc))
        O, D = Camera(validation_scene.camera, 32, 24).rays()
        hit, again = trace(validation_scene.soup, O, D), trace(swapped.soup, O, D)
        assert boxes and again.mask.any()
        for field in ("t", "obj_id", "mat_id", "normal"):
            assert np.array_equal(getattr(hit, field), getattr(again, field))
