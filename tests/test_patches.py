import dataclasses

import numpy as np
import pytest

from invarsim.errors import ConfigError, MissingBufferError, PatchSamplingError
from invarsim.patches import (
    Patch,
    classify_contexts,
    eligible_centers,
    sample_patches,
)
from invarsim.render import RenderConfig, compute_flow, render_ground_truth
from invarsim.scenegen import SceneConfig, apply_dynamics, sample_scene

from oracles import patch_purity


GT_CFG = RenderConfig(width=64, height=48, samples_per_pixel=1, rng_seed=1)


@pytest.fixture(scope="module")
def moving_pair():
    doc = {
        "world_bounds": [-60, -60, 60, 60],
        "ground": True,
        "objects": [{"class": "Vehicle", "position": [-2.0, -9.0], "length": 8.0,
                     "breadth": 3.0, "height": 3.2, "dynamic": True, "style": 0}],
        "camera": {"position": [0.0, 4.5, -22.0], "look_at": [0.0, 4.0, 10.0],
                   "vfov_deg": 55.0},
        "lights": [{"kind": "ambient", "intensity": 0.4},
                   {"kind": "directional", "direction": [0.55, -0.65, 0.2],
                    "intensity": 1.0}],
        "dynamics": [[0, "objects.1.velocity", [0.8, 0.0, 0.0]]],
    }
    base = sample_scene(SceneConfig.from_dict(doc), seed=3)
    s0 = apply_dynamics(base, 0)
    s1 = apply_dynamics(base, 1)
    gt0 = render_ground_truth(s0, GT_CFG)
    gt1 = render_ground_truth(s1, GT_CFG)
    flow, occl = compute_flow(s0, s1, GT_CFG)
    gt0.flow = flow
    gt0.occlusion = occl
    return s0, s1, gt0, gt1


class TestClassify:
    def plane_gt(self, textured):
        doc = {
            "world_bounds": [-40, -40, 40, 40],
            "ground": True,
            "camera": {"position": [0.0, 30.0, -0.1], "look_at": [0.0, 0.0, 0.0],
                       "vfov_deg": 40.0},
            "lights": [{"kind": "ambient", "intensity": 1.0}],
        }
        scene = sample_scene(SceneConfig.from_dict(doc), seed=1)
        if not textured:
            mats = {mid: dataclasses.replace(m, texture=None)
                    for mid, m in scene.materials.items()}
            scene = dataclasses.replace(scene, materials=mats)
        return render_ground_truth(scene, RenderConfig(width=32, height=24,
                                                       samples_per_pixel=1, rng_seed=1))

    def test_uniform_plane_is_homogeneous_not_diffuse(self):
        cmap = classify_contexts(self.plane_gt(textured=False), window=3)
        interior = np.zeros((24, 32), dtype=bool)
        interior[2:-2, 2:-2] = True
        assert np.all(cmap["Homogeneous"][interior])
        assert not cmap["Diffuse"].any()
        assert not cmap["ShadowRegion"].any()
        assert not cmap["Edge"].any()

    def test_textured_plane_is_diffuse(self):
        cmap = classify_contexts(self.plane_gt(textured=True), window=3)
        interior = np.zeros((24, 32), dtype=bool)
        interior[2:-2, 2:-2] = True
        # away from texture extrema the plane is textured lambertian
        assert cmap["Diffuse"][interior].mean() > 0.6
        assert not (cmap["Diffuse"] & cmap["Homogeneous"]).any()

    def test_validation_scene_has_core_contexts(self, validation_gt):
        cmap = classify_contexts(validation_gt, window=3)
        counts = cmap.counts()
        for name in ("Diffuse", "Specular", "ShadowRegion", "ShadowBoundary",
                     "Edge", "Corner", "Homogeneous"):
            assert counts[name] > 0, f"no pixels labeled {name}: {counts}"

    def test_shadow_region_boundary_disjoint(self, validation_gt):
        cmap = classify_contexts(validation_gt, window=5)
        overlap = cmap["ShadowRegion"] & cmap["ShadowBoundary"]
        assert not overlap.any()

    def test_labels_depend_only_on_ground_truth(self, validation_gt):
        a = classify_contexts(validation_gt, window=3)
        b = classify_contexts(validation_gt, window=3)
        for name in a.labels:
            assert np.array_equal(a[name], b[name])

    def test_occlusion_labels_from_frame_pair(self, moving_pair):
        s0, s1, gt0, gt1 = moving_pair
        cmap = classify_contexts(gt0, gt_next=gt1, window=3)
        assert "Occluded" in cmap.labels
        assert "SameSurface" in cmap.labels
        assert "MotionBoundary" in cmap.labels
        # newly covered background must be occluded (id-compare oracle)
        newly = (gt0.object_id != 1) & (gt1.object_id == 1)
        assert newly.any()
        assert np.all(cmap["Occluded"][newly])
        assert cmap["MotionBoundary"].sum() > 0
        # same-surface pixels never straddle the moving object's silhouette
        assert not (cmap["SameSurface"] & cmap["MotionBoundary"]).any()

    def test_id_compare_fallback_without_flow(self, moving_pair):
        s0, s1, gt0, gt1 = moving_pair
        bare = dataclasses.replace(gt0, flow=None, occlusion=None)
        cmap = classify_contexts(bare, gt_next=gt1, window=3)
        oracle = gt0.object_id != gt1.object_id
        assert np.array_equal(cmap["Occluded"], oracle)
        assert "MotionBoundary" not in cmap.labels  # needs flow

    def test_missing_buffer_raises(self, validation_gt):
        broken = dataclasses.replace(validation_gt, shadow_fraction=None)
        with pytest.raises(MissingBufferError):
            classify_contexts(broken)

    def test_scale_matched_window_widens_boundaries(self, validation_gt):
        small = classify_contexts(validation_gt, window=3)
        large = classify_contexts(validation_gt, window=13)
        assert large["ShadowBoundary"].sum() > small["ShadowBoundary"].sum()


class TestSamplePatches:
    def test_zero_count_empty_list(self, validation_gt):
        cmap = classify_contexts(validation_gt, window=5)
        assert sample_patches(cmap, "Diffuse", 5, 0, seed=1) == []

    def test_overdraw_raises_with_details(self, validation_gt):
        cmap = classify_contexts(validation_gt, window=5)
        eligible = len(eligible_centers(cmap, "Diffuse", 5))
        with pytest.raises(PatchSamplingError) as exc:
            sample_patches(cmap, "Diffuse", 5, eligible + 1, seed=1)
        assert exc.value.context == "Diffuse"
        assert exc.value.side == 5
        assert exc.value.eligible == eligible

    def test_unknown_context_raises(self, validation_gt):
        cmap = classify_contexts(validation_gt, window=5)
        with pytest.raises(PatchSamplingError):
            sample_patches(cmap, "Occluded", 5, 1, seed=1)  # needs gt_next

    def test_deterministic_replay(self, validation_gt):
        cmap = classify_contexts(validation_gt, window=5)
        a = sample_patches(cmap, "Diffuse", 5, 4, seed=9)
        b = sample_patches(cmap, "Diffuse", 5, 4, seed=9)
        assert a == b
        c = sample_patches(cmap, "Diffuse", 5, 4, seed=10)
        assert a != c

    def test_every_patch_meets_purity(self, validation_gt):
        cmap = classify_contexts(validation_gt, window=9)
        for context in ("Diffuse", "ShadowBoundary", "Edge"):
            patches = sample_patches(cmap, context, 9, 3, seed=2)
            for p in patches:
                assert patch_purity(cmap, p) >= 0.8

    def test_patches_fully_inside(self, validation_gt):
        cmap = classify_contexts(validation_gt, window=7)
        h, w = cmap.shape
        for p in sample_patches(cmap, "Diffuse", 7, 5, seed=3):
            assert 0 <= p.row and p.row + p.side <= h
            assert 0 <= p.col and p.col + p.side <= w

    def test_even_side_rejected(self, validation_gt):
        cmap = classify_contexts(validation_gt, window=5)
        with pytest.raises(ConfigError):
            sample_patches(cmap, "Diffuse", 4, 1, seed=1)
        with pytest.raises(ConfigError):
            Patch(0, 0, 4, "Diffuse")
