import numpy as np
import pytest

from invarsim.errors import ConfigError, DynamicsPathError, OutOfBoundsError, PlacementError
from invarsim.scene import ClassPrior, ClassPriors, CuboidMark, DynamicsScript, ObjectClass
from invarsim.scenegen import (
    MaterialRegistry,
    OccupancyMap,
    SceneConfig,
    apply_dynamics,
    check_placement,
    instantiate_geometry,
    sample_scene,
)
from oracles import any_footprint_overlap


def priors_doc(classes):
    p = 1.0 / len(classes)
    return [
        {"class": c, "probability": p, "length": [2.0, 0.4],
         "breadth": [2.0, 0.4], "height": [3.0, 0.5]}
        for c in classes
    ]


def make_config(n_total=10, classes=("Building", "Tree", "Vehicle", "Pedestrian"),
                bounds=(-50, -50, 50, 50), **overrides):
    doc = {
        "world_bounds": list(bounds),
        "classes": priors_doc(classes),
        "counts": {"total": n_total},
        "ground": False,
        "lights": [{"kind": "ambient", "intensity": 1.0}],
    }
    doc.update(overrides)
    return SceneConfig.from_dict(doc)


class TestOccupancy:
    def test_empty_map_any_footprint_free(self):
        omap = OccupancyMap((-10, -10, 10, 10))
        assert check_placement(omap, (-1, -1, 1, 1)) is True

    def test_identical_footprint_rejected(self):
        omap = OccupancyMap((-10, -10, 10, 10))
        omap.mark((-1, -1, 1, 1))
        assert check_placement(omap, (-1, -1, 1, 1)) is False

    def test_one_cell_gap_is_free(self):
        omap = OccupancyMap((-10, -10, 10, 10), cell_size=0.5)
        accepted = (-2.0, -2.0, 0.0, 0.0)
        omap.mark(accepted)
        # abutting directly: conservative rejection
        assert check_placement(omap, (0.0, -2.0, 2.0, 0.0)) is False
        # one full cell of clearance: accepted, and the exact oracle agrees
        gap = (0.5, -2.0, 2.5, 0.0)
        assert check_placement(omap, gap) is True
        from oracles import rects_overlap

        assert not rects_overlap(accepted, gap)

    def test_out_of_bounds_footprint_raises(self):
        omap = OccupancyMap((-10, -10, 10, 10))
        with pytest.raises(OutOfBoundsError):
            check_placement(omap, (9, 9, 11, 11))


class TestSampling:
    def test_single_ground_object(self):
        cfg = make_config(1, classes=("Ground",))
        scene = sample_scene(cfg, seed=7)
        assert len(scene.objects) == 1
        assert scene.objects[0].mark.object_class is ObjectClass.GROUND

    def test_determinism_bit_identical(self):
        cfg = make_config(12)
        a = sample_scene(cfg, seed=123).to_json()
        b = sample_scene(cfg, seed=123).to_json()
        assert a == b
        c = sample_scene(cfg, seed=124).to_json()
        assert a != c

    def test_class_frequencies_within_3_sigma(self):
        cfg = make_config(20)
        counts = {c: 0 for c in ObjectClass}
        n = 0
        for seed in range(500):
            scene = sample_scene(cfg, seed=seed)
            for obj in scene.objects:
                counts[obj.mark.object_class] += 1
                n += 1
        assert n == 10000
        bound = 3.0 * np.sqrt(0.25 * 0.75 / n)
        for c in (ObjectClass.BUILDING, ObjectClass.TREE,
                  ObjectClass.VEHICLE, ObjectClass.PEDESTRIAN):
            assert abs(counts[c] / n - 0.25) <= bound

    def test_dimension_means_within_4_se(self):
        cfg = make_config(25, classes=("Building",))
        lengths = []
        for seed in range(400):
            scene = sample_scene(cfg, seed=seed)
            lengths.extend(o.mark.length for o in scene.objects)
        lengths = np.array(lengths)
        assert len(lengths) >= 10_000
        # truncation at 3 sigma shrinks the sample std slightly; the mean
        # stays centered
        se = 0.4 / np.sqrt(len(lengths))
        assert abs(lengths.mean() - 2.0) <= 4.0 * se

    def test_no_footprint_overlaps_against_oracle(self):
        doc = {
            "world_bounds": [-50, -50, 50, 50],
            "classes": [{"class": "Building", "probability": 1.0,
                         "length": [10.0, 1.0], "breadth": [10.0, 1.0],
                         "height": [20.0, 4.0]}],
            "counts": {"total": 20},
            "ground": False,
            "lights": [{"kind": "ambient"}],
        }
        cfg = SceneConfig.from_dict(doc)
        for seed in range(50):
            scene = sample_scene(cfg, seed=seed)
            rects = [o.mark.footprint() for o in scene.objects]
            assert not any_footprint_overlap(rects), f"overlap at seed {seed}"

    def test_manhattan_yaw_zero(self):
        scene = sample_scene(make_config(10), seed=3)
        assert all(o.mark.yaw == 0.0 for o in scene.objects)
        assert scene.manhattan

    def test_placement_failure_raises(self):
        cfg = make_config(10, bounds=(-4, -4, 4, 4), max_attempts=50)
        doc = {
            "world_bounds": [-4, -4, 4, 4],
            "classes": [{"class": "Building", "probability": 1.0,
                         "length": [5.0, 0.0], "breadth": [5.0, 0.0],
                         "height": [10.0, 0.0]}],
            "counts": {"total": 3},
            "ground": False,
            "max_attempts": 50,
            "lights": [{"kind": "ambient"}],
        }
        with pytest.raises(PlacementError):
            sample_scene(SceneConfig.from_dict(doc), seed=0)

    def test_invalid_priors_rejected(self):
        with pytest.raises(ConfigError):
            ClassPriors({
                ObjectClass.TREE: ClassPrior(probability=0.7, length=(2, 0.1),
                                             breadth=(2, 0.1), height=(3, 0.2)),
            })

    @pytest.mark.parametrize("where,key,path", [
        ((), "weathr", "weathr"),
        (("camera",), "look_from", "camera.look_from"),
        (("counts",), "totl", "counts.totl"),
        (("weather",), "betas", "weather.betas"),
        (("classes", 0), "probabilty", "classes[0].probabilty"),
        (("lights", 1), "intensty", "lights[1].intensty"),
        (("objects", 2), "hieght", "objects[2].hieght"),
    ])
    def test_unknown_key_rejected_with_its_path(self, where, key, path):
        from invarsim.scenegen import validation_scene_config

        doc = validation_scene_config()
        doc["seed"] = 3  # read by ``invarsim sample``
        doc["classes"] = priors_doc(("Tree",))
        doc["counts"] = {"total": 2}
        doc["weather"] = {"beta": [0.01, 0.01, 0.01]}
        SceneConfig.from_dict(doc)
        node = doc
        for step in where:
            node = node[step]
        node[key] = 1
        with pytest.raises(ConfigError) as err:
            SceneConfig.from_dict(doc)
        assert err.value.json_path == path


    @pytest.mark.parametrize("key,value", [
        ("counts", 5), ("counts", "all"), ("camera", []), ("camera", "front"),
    ])
    def test_block_that_is_not_an_object_rejected(self, key, value):
        from invarsim.scenegen import validation_scene_config

        doc = validation_scene_config()
        doc[key] = value
        with pytest.raises(ConfigError) as err:
            SceneConfig.from_dict(doc)
        assert err.value.json_path == key

    def test_scene_json_round_trip(self, validation_scene):
        from invarsim.scene import SceneGraph

        text = validation_scene.to_json()
        again = SceneGraph.from_json(text)
        assert again.to_json() == text


class TestGeometryInstantiation:
    def test_building_aabb_equals_cuboid(self):
        reg = MaterialRegistry()
        mark = CuboidMark(position=(0.0, 0.0), length=10.0, breadth=10.0,
                          height=30.0, object_class=ObjectClass.BUILDING)
        prims = instantiate_geometry(mark, 0, reg)
        lo = np.array([np.inf] * 3)
        hi = -lo.copy()
        for p in prims:
            if p["kind"] == "box":
                lo = np.minimum(lo, p["lo"])
                hi = np.maximum(hi, p["hi"])
            elif p["kind"] == "rect":
                ua, va = {0: (1, 2), 1: (0, 2), 2: (0, 1)}[p["axis"]]
                corner_lo = np.zeros(3)
                corner_hi = np.zeros(3)
                corner_lo[p["axis"]] = corner_hi[p["axis"]] = p["offset"]
                corner_lo[ua], corner_hi[ua] = p["u"]
                corner_lo[va], corner_hi[va] = p["v"]
                lo = np.minimum(lo, corner_lo)
                hi = np.maximum(hi, corner_hi)
        assert np.allclose(lo, [-5, 0, -5])
        assert np.allclose(hi, [5, 30, 5])

    def test_window_grid_count_and_containment(self):
        reg = MaterialRegistry()
        mark = CuboidMark(position=(0.0, 0.0), length=12.0, breadth=8.0,
                          height=20.0, object_class=ObjectClass.BUILDING)
        prims = instantiate_geometry(mark, 0, reg, window_grid=(4, 6))
        rects = [p for p in prims if p["kind"] == "rect"]
        assert len(rects) == 24
        for r in rects:
            assert r["axis"] == 2 and r["offset"] == mark.footprint()[1]
            assert -6.0 <= r["u"][0] < r["u"][1] <= 6.0   # inside facade width
            assert 0.0 <= r["v"][0] < r["v"][1] <= 20.0   # inside facade height
            assert reg.materials[r["material"]].kind == "specular"

    def test_tree_two_primitives_inside_cuboid(self):
        reg = MaterialRegistry()
        mark = CuboidMark(position=(1.0, 2.0), length=4.0, breadth=4.0,
                          height=8.0, object_class=ObjectClass.TREE)
        prims = instantiate_geometry(mark, 0, reg)
        assert len(prims) == 2
        kinds = {p["kind"] for p in prims}
        assert kinds == {"cylinder", "sphere"}
        sph = next(p for p in prims if p["kind"] == "sphere")
        cx, cy, cz = sph["center"]
        r = sph["radius"]
        x0, z0, x1, z1 = mark.footprint()
        assert x0 <= cx - r and cx + r <= x1
        assert z0 <= cz - r and cz + r <= z1
        assert 0.0 <= cy - r and cy + r <= mark.height + 1e-12


class TestDynamics:
    def test_empty_script_identity(self, validation_scene):
        assert apply_dynamics(validation_scene, 5) is validation_scene

    def test_intensity_ramp_starts_at_one(self):
        cfg = SceneConfig.from_dict({
            "world_bounds": [-10, -10, 10, 10],
            "ground": True,
            "lights": [{"kind": "ambient", "intensity": 0.5}],
            "dynamics": [[t, "lights.0.intensity_scale", 1.0 + 4.0 * t / 39.0]
                         for t in range(40)],
        })
        scene = sample_scene(cfg, seed=1)
        at0 = apply_dynamics(scene, 0)
        assert at0.lights[0].intensity == pytest.approx(0.5, abs=0)
        at39 = apply_dynamics(scene, 39)
        assert at39.lights[0].intensity == pytest.approx(2.5)

    def test_translation_accumulates(self):
        cfg = SceneConfig.from_dict({
            "world_bounds": [-20, -20, 20, 20],
            "ground": False,
            "objects": [{"class": "Vehicle", "position": [0, 0], "length": 2,
                         "breadth": 1, "height": 1, "dynamic": True}],
            "lights": [{"kind": "ambient"}],
            "dynamics": [[0, "objects.0.velocity", [1.0, 0.0, 0.0]]],
        })
        scene = sample_scene(cfg, seed=1)
        at3 = apply_dynamics(scene, 3)
        assert at3.objects[0].mark.position == (3.0, 0.0)
        # base scene untouched
        assert scene.objects[0].mark.position == (0.0, 0.0)

    def test_pure_same_t_identical(self, validation_scene):
        import dataclasses

        scene = dataclasses.replace(
            validation_scene,
            dynamics=DynamicsScript(((0, "lights.1.intensity_scale", 2.0),)),
        )
        a = apply_dynamics(scene, 2).to_json()
        b = apply_dynamics(scene, 2).to_json()
        assert a == b

    def test_unresolved_path_raises(self, validation_scene):
        import dataclasses

        scene = dataclasses.replace(
            validation_scene,
            dynamics=DynamicsScript(((0, "lights.9.intensity_scale", 2.0),)),
        )
        with pytest.raises(DynamicsPathError):
            apply_dynamics(scene, 0)
        scene = dataclasses.replace(
            validation_scene,
            dynamics=DynamicsScript(((0, "weather.fog", 2.0),)),
        )
        with pytest.raises(DynamicsPathError):
            apply_dynamics(scene, 0)

    def test_keyframe_times_strictly_increasing(self):
        with pytest.raises(ConfigError):
            DynamicsScript(((1, "medium.density_scale", 1.0),
                            (1, "medium.density_scale", 2.0)))
