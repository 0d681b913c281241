import dataclasses
import math

import numpy as np
import pytest

import invarsim.geometry as geometry
import invarsim.render as render
from invarsim.errors import ConfigError, IdentityMismatchError
from invarsim.geometry import Camera
from invarsim.render import (
    RenderConfig,
    SensorConfig,
    apply_sensor,
    compute_flow,
    render_frame,
    render_ground_truth,
    render_setups,
)
from invarsim.scene import WEATHER_PRESETS, LightSpec
from invarsim.scenegen import SceneConfig, apply_dynamics, sample_scene
from oracles import loop_render_setups, traced_flow


def scene_from(doc_overrides, seed=1):
    doc = {
        "world_bounds": [-60, -60, 60, 60],
        "ground": False,
        "lights": [{"kind": "ambient", "intensity": 1.0}],
    }
    doc.update(doc_overrides)
    return sample_scene(SceneConfig.from_dict(doc), seed=seed)


def plane_scene(albedo_light=None, extra=None):
    """A bare ground slab under the given lights, camera looking down."""
    doc = {
        "ground": True,
        "camera": {"position": [0.0, 20.0, -10.0], "look_at": [0.0, 0.0, 10.0],
                   "vfov_deg": 40.0},
    }
    if albedo_light:
        doc["lights"] = albedo_light
    if extra:
        doc.update(extra)
    return scene_from(doc)


class TestRenderFrame:
    def test_empty_scene_ambient_everywhere(self):
        scene = scene_from({"lights": [{"kind": "ambient", "intensity": 0.7,
                                        "color": [1.0, 0.8, 0.5]}]})
        img = render_frame(scene, RenderConfig(width=16, height=12,
                                               samples_per_pixel=2, rng_seed=3))
        expected = np.array([0.7, 0.7 * 0.8, 0.7 * 0.5])
        assert np.allclose(img, expected[None, None, :], atol=1e-12)

    def test_lambertian_plane_matches_closed_form(self):
        # textureless slab, single directional light, no ambient
        sun = {"kind": "directional", "direction": [0.0, -1.0, 0.0],
               "intensity": 2.0, "color": [1.0, 1.0, 1.0]}
        scene = plane_scene(albedo_light=[sun])
        # strip the ground texture so the expectation is a single constant
        mats = {mid: dataclasses.replace(m, texture=None)
                for mid, m in scene.materials.items()}
        scene = dataclasses.replace(scene, materials=mats)
        cfg = RenderConfig(width=24, height=18, samples_per_pixel=256,
                           max_bounces=1, rng_seed=5)
        (img, variance), = loop_render_setups(scene, [(scene.medium, scene.lights)], cfg,
                                              return_variance=True)
        assert np.array_equal(render_frame(scene, cfg), img)
        albedo = np.array(scene.materials[0].albedo)
        expected = albedo / math.pi * 2.0  # cos(theta) = 1 on the slab top
        sigma = np.sqrt(variance)
        assert np.all(np.abs(img - expected[None, None, :])
                      <= 3.0 * sigma + 1e-12)

    def test_light_transport_linearity_power_of_two(self):
        scene = plane_scene()
        cfg = RenderConfig(width=20, height=16, samples_per_pixel=4,
                           max_bounces=1, rng_seed=9)
        base = render_frame(scene, cfg)
        lights2 = tuple(
            dataclasses.replace(l, intensity=l.intensity * 2.0) for l in scene.lights
        )
        doubled = render_frame(dataclasses.replace(scene, lights=lights2), cfg)
        assert np.array_equal(doubled, 2.0 * base)

    def test_determinism_and_chunking_independence(self, validation_scene, monkeypatch):
        cfg = RenderConfig(width=32, height=24, samples_per_pixel=3,
                           max_bounces=1, rng_seed=17)
        a = render_frame(validation_scene, cfg)
        # 6 objects: blocks of 100 rays, so each 768-ray pass takes 8 blocks
        monkeypatch.setattr(geometry, "_CHUNK_PAIRS", 600)
        b = render_frame(validation_scene, cfg)
        assert np.array_equal(a, b)

    def test_variance_decays_like_one_over_spp(self, validation_scene):
        cfgs = [RenderConfig(width=32, height=24, samples_per_pixel=n,
                             max_bounces=1, rng_seed=23) for n in (8, 32)]
        setup = [(validation_scene.medium, validation_scene.lights)]
        variances = []
        for c in cfgs:
            (mean, variance), = loop_render_setups(validation_scene, setup, c,
                                                   return_variance=True)
            assert np.array_equal(render_frame(validation_scene, c), mean)
            variances.append(variance)
        v8 = variances[0].mean()
        v32 = variances[1].mean()
        assert v8 > 0
        ratio = v8 / v32
        assert 2.5 <= ratio <= 6.5

    @pytest.mark.parametrize("lights", ["ambient", "sunny", "spot"])
    @pytest.mark.parametrize("max_bounces", [0, 1])
    def test_render_media_equals_per_medium_frames(self, validation_scene,
                                                   lights, max_bounces):
        scene = validation_scene
        if lights == "ambient":
            scene = dataclasses.replace(scene, lights=tuple(
                l for l in scene.lights if l.kind == "ambient"))
        elif lights == "spot":
            # lights most of the view, with shadows cast by the buildings
            spot = LightSpec(kind="spot", position=(0.0, 20.0, 0.0),
                             direction=(0.0, -1.0, 0.5), cone_deg=70.0,
                             intensity=100.0)
            scene = dataclasses.replace(scene, lights=scene.lights + (spot,))
        media = [WEATHER_PRESETS["Clear"]] + [
            WEATHER_PRESETS[tag].scaled(d)
            for tag, d in (("Fog", 0.4), ("Fog", 1.0), ("MildHaze", 0.7))]
        cfg = RenderConfig(width=24, height=18, samples_per_pixel=3,
                           max_bounces=max_bounces, rng_seed=13)
        images = render_setups(scene, [(m, scene.lights) for m in media], cfg)
        assert len(images) == len(media)
        for medium, img in zip(media, images):
            alone = render_frame(dataclasses.replace(scene, medium=medium), cfg)
            assert np.array_equal(img, alone)

    @pytest.mark.parametrize("max_bounces", [0, 1])
    def test_render_setups_equal_per_setup_frames(self, validation_scene, max_bounces):
        # a spot and the sun, each also turned off or dimmed, in fog and clear air
        spot = LightSpec(kind="spot", position=(0.0, 20.0, 0.0),
                         direction=(0.0, -1.0, 0.5), cone_deg=70.0, intensity=100.0)
        lights = validation_scene.lights + (spot,)
        sun = next(i for i, l in enumerate(lights) if l.kind == "directional")

        def scaled(i, factor):
            return tuple(dataclasses.replace(l, intensity=l.intensity * factor) if k == i else l
                         for k, l in enumerate(lights))

        fog = WEATHER_PRESETS["Fog"].scaled(0.5)
        setups = [(WEATHER_PRESETS["Clear"], lights), (fog, scaled(sun, 0.0)),
                  (fog, lights), (WEATHER_PRESETS["Clear"], scaled(len(lights) - 1, 0.3))]
        cfg = RenderConfig(width=24, height=18, samples_per_pixel=3,
                           max_bounces=max_bounces, rng_seed=13)
        images = render_setups(validation_scene, setups, cfg)
        assert len(images) == len(setups)
        for (medium, setup_lights), img in zip(setups, images):
            alone = render_frame(dataclasses.replace(
                validation_scene, medium=medium, lights=setup_lights), cfg)
            assert np.array_equal(img, alone)

    def test_render_setups_reject_direct_sources_placed_differently(self, validation_scene):
        lights = validation_scene.lights
        moved = tuple(dataclasses.replace(l, direction=(0.2, -1.0, 0.1))
                      if l.kind == "directional" else l for l in lights)
        medium = validation_scene.medium
        cfg = RenderConfig(width=8, height=6, samples_per_pixel=1, max_bounces=0)
        with pytest.raises(ConfigError):
            render_setups(validation_scene, [(medium, lights), (medium, moved)], cfg)
        with pytest.raises(ConfigError):
            render_setups(validation_scene, [(medium, lights), (medium, lights[:1])], cfg)

    def test_hdr_non_negative_finite(self, validation_hdr):
        assert np.all(np.isfinite(validation_hdr))
        assert np.all(validation_hdr >= 0.0)

    def test_dichromatic_exactness_under_ambient_fog(self):
        clear = plane_scene(extra={
            "objects": [{"class": "Building", "position": [0.0, 18.0],
                         "length": 20.0, "breadth": 8.0, "height": 12.0,
                         "window_grid": [2, 4]}],
        })
        # one deterministic sample per pixel: coplanarity is a property of
        # surface points, and pixel footprints at silhouettes mix depths
        cfg = RenderConfig(width=32, height=24, samples_per_pixel=1,
                           max_bounces=0, rng_seed=31)
        base = render_frame(clear, cfg).reshape(-1, 3)
        a_col = np.array(WEATHER_PRESETS["Fog"].airlight_color)
        for scale in (0.3, 1.0):
            medium = WEATHER_PRESETS["Fog"].scaled(scale)
            foggy = render_frame(dataclasses.replace(clear, medium=medium),
                                 cfg).reshape(-1, 3)
            # every pixel lies in span{clear color, airlight color}: the
            # plane-fit angular residual stays within 1e-6 degrees
            normals = np.cross(base, np.broadcast_to(a_col, base.shape))
            norms = np.linalg.norm(normals, axis=1)
            ok = norms > 1e-12  # skip pixels collinear with the airlight
            assert ok.sum() > 100
            normals = normals[ok] / norms[ok, None]
            obs = foggy[ok]
            mags = np.linalg.norm(obs, axis=1)
            sin_angle = np.abs(np.einsum("pc,pc->p", obs, normals)) / np.maximum(mags, 1e-300)
            angles = np.degrees(np.arcsin(np.clip(sin_angle, 0.0, 1.0)))
            assert angles.max() <= 1e-6


class TestWavefronts:
    """A pass traces whole samples together and shades one setup at a time;
    it must equal tracing one sample at a time with every setup's buffers
    held (``oracles.loop_render_setups``) bit for bit."""

    @pytest.fixture(scope="class")
    def spot_scene(self, validation_scene):
        spot = LightSpec(kind="spot", position=(0.0, 20.0, 0.0),
                         direction=(0.0, -1.0, 0.5), cone_deg=70.0, intensity=100.0)
        scene = dataclasses.replace(validation_scene, lights=validation_scene.lights + (spot,),
                                    medium=WEATHER_PRESETS["Fog"].scaled(0.6))
        # the mirror bounce is taken: a specular material is in view
        gt = render_ground_truth(scene, RenderConfig(width=16, height=12))
        specular = [mid for mid, m in scene.materials.items() if m.specular > 0.0]
        assert np.isin(gt.material_id, specular).any()
        return scene

    # 64x48 traces 2 samples per call, so 3 and 5 spp end on a partial
    # wavefront; one wavefront holds all 5 samples of a 16x12 frame
    @pytest.mark.parametrize("width,height,spp", [(64, 48, 3), (64, 48, 5), (16, 12, 5)])
    @pytest.mark.parametrize("max_bounces", [0, 1])
    def test_render_frame_equals_one_sample_at_a_time(self, spot_scene, width, height,
                                                       spp, max_bounces):
        cfg = RenderConfig(width=width, height=height, samples_per_pixel=spp,
                           max_bounces=max_bounces, rng_seed=spp + 10 * max_bounces)
        assert render._WAVEFRONT_RAYS // (width * height) in (2, 32)
        (mean, _), = loop_render_setups(
            spot_scene, [(spot_scene.medium, spot_scene.lights)], cfg)
        assert np.array_equal(render_frame(spot_scene, cfg), mean)

    @pytest.mark.parametrize("width,height,spp", [(64, 48, 5), (16, 12, 3)])
    @pytest.mark.parametrize("max_bounces", [0, 1])
    def test_render_setups_equal_one_sample_at_a_time(self, spot_scene, width, height,
                                                       spp, max_bounces):
        lights = spot_scene.lights
        off = tuple(l if l.kind == "ambient" else dataclasses.replace(l, intensity=0.0)
                    for l in lights)
        setups = [(WEATHER_PRESETS["Clear"], lights), (WEATHER_PRESETS["Fog"].scaled(0.4), off),
                  (WEATHER_PRESETS["Rain"].scaled(1.0), lights),
                  (WEATHER_PRESETS["MildHaze"].scaled(0.7), off)]
        cfg = RenderConfig(width=width, height=height, samples_per_pixel=spp,
                           max_bounces=max_bounces, rng_seed=5)
        images = render_setups(spot_scene, setups, cfg)
        for img, (mean, _) in zip(images, loop_render_setups(spot_scene, setups, cfg),
                                  strict=True):
            assert np.array_equal(img, mean)

    def test_odd_wavefront_sizes(self, spot_scene, monkeypatch):
        # 3 samples per trace call over 7 samples, and one sample per call
        cfg = RenderConfig(width=16, height=12, samples_per_pixel=7, max_bounces=1,
                           rng_seed=2)
        (mean, _), = loop_render_setups(spot_scene, [(spot_scene.medium, spot_scene.lights)],
                                        cfg)
        for rays in (3 * 16 * 12, 1):
            monkeypatch.setattr(render, "_WAVEFRONT_RAYS", rays)
            assert np.array_equal(render_frame(spot_scene, cfg), mean)


class TestGroundTruth:
    def test_sky_sentinels(self, validation_gt):
        sky = validation_gt.object_id == -1
        assert sky.any()
        assert np.all(np.isinf(validation_gt.depth[sky]))
        assert np.all(validation_gt.material_id[sky] == -1)
        assert np.all(validation_gt.normal[sky] == 0.0)

    def test_frontal_plane_depth_oracle(self):
        # wall at z=10 seen from the origin: center-pixel depth equals the
        # ray-plane intersection distance
        scene = scene_from({
            "objects": [{"class": "Building", "position": [0.0, 15.0],
                         "length": 40.0, "breadth": 10.0, "height": 40.0}],
            "camera": {"position": [0.0, 5.0, 0.0], "look_at": [0.0, 5.0, 10.0],
                       "vfov_deg": 50.0},
        })
        cfg = RenderConfig(width=33, height=25, samples_per_pixel=1, rng_seed=1)
        gt = render_ground_truth(scene, cfg)
        assert gt.depth[12, 16] == pytest.approx(10.0, abs=1e-9)
        # oblique pixels: depth = 10 / cos(angle); verify against the exact
        # ray direction built by the camera
        cam = Camera(scene.camera, 33, 25)
        O, D = cam.rays()
        d = D.reshape(25, 33, 3)
        expected = 10.0 / d[5, 3, 2]
        assert gt.depth[5, 3] == pytest.approx(expected, rel=1e-12)

    def test_normals_unit_length(self, validation_gt):
        hit = validation_gt.object_id != -1
        norms = np.linalg.norm(validation_gt.normal[hit], axis=1)
        assert np.allclose(norms, 1.0, atol=1e-6)

    def test_shadow_fraction_binary_single_sun(self, validation_gt):
        vals = np.unique(validation_gt.shadow_fraction)
        assert set(np.round(vals, 6)).issubset({0.0, 1.0})
        assert (validation_gt.shadow_fraction == 1.0).any()

    @pytest.mark.parametrize("spot", [False, True], ids=["sun", "sun-and-spot"])
    def test_shadow_fraction_is_the_share_of_zero_light_factors(self, validation_scene, spot):
        """Ground truth sees light as shading does: per pixel, the share of
        direct sources whose ``_light_factors`` factor at the center-ray hit
        is exactly 0, so a hit facing away from an unoccluded sun is dark."""
        width, height = 320, 240
        scene = validation_scene
        if spot:
            lamp = LightSpec(kind="spot", position=(0.0, 20.0, 0.0),
                             direction=(0.0, -1.0, 0.5), cone_deg=70.0, intensity=100.0)
            scene = dataclasses.replace(scene, lights=scene.lights + (lamp,))
        gt = render_ground_truth(scene, RenderConfig(width=width, height=height))
        O, D = Camera(scene.camera, width, height).rays()
        hit = geometry.trace(scene.soup, O, D)
        m = hit.mask
        pts, nrm = hit.point[m], hit.normal[m]
        factors = render._light_factors(scene.soup, render._LightTable(scene.lights, scene.medium),
                                        pts, nrm)
        assert len(factors) == 1 + spot
        dark = np.zeros(width * height)
        for g in factors:
            dark[m] += g == 0.0
        assert np.array_equal(gt.shadow_fraction, (dark / len(factors)).reshape(height, width))
        # the scene has the case a shadow ray alone misjudges: a hit that
        # faces away from the sun, with nothing between it and the sun
        sun = np.asarray(scene.lights[1].direction)
        away = nrm @ sun > 0.0
        free = ~geometry.occluded(scene.soup, pts[away] + nrm[away] * render._SHADOW_EPS,
                                  np.broadcast_to(-sun, (int(away.sum()), 3)), np.inf)
        assert free.any()

    def test_buffers_stay_as_rendered(self, validation_scene):
        # whatever reads ground truth can neither swap a buffer nor write into one
        gt = render_ground_truth(validation_scene, RenderConfig(width=16, height=12))
        for f in dataclasses.fields(gt):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(gt, f.name, getattr(gt, f.name))
        for name in ("depth", "object_id", "material_id", "normal", "shadow_fraction",
                     "reflectance"):
            with pytest.raises(ValueError):
                getattr(gt, name)[0, 0] = 0

    def test_gt_independent_of_sampling_fidelity(self, validation_scene):
        lo = render_ground_truth(validation_scene,
                                 RenderConfig(width=48, height=36,
                                              samples_per_pixel=1, rng_seed=1))
        hi = render_ground_truth(validation_scene,
                                 RenderConfig(width=48, height=36,
                                              samples_per_pixel=64, rng_seed=99))
        assert np.array_equal(lo.depth, hi.depth)
        assert np.array_equal(lo.object_id, hi.object_id)
        assert np.array_equal(lo.shadow_fraction, hi.shadow_fraction)

    def test_gt_image_consistency_lambertian(self):
        """Direct-lit diffuse pixels: HDR equals reflectance times irradiance."""
        sun_doc = {"kind": "directional", "direction": [0.3, -0.8, 0.2],
                   "intensity": 1.4, "color": [1.0, 1.0, 1.0]}
        amb_doc = {"kind": "ambient", "intensity": 0.25}
        scene = plane_scene(albedo_light=[amb_doc, sun_doc])
        mats = {mid: dataclasses.replace(m, texture=None)
                for mid, m in scene.materials.items()}
        scene = dataclasses.replace(scene, materials=mats)
        cfg = RenderConfig(width=24, height=18, samples_per_pixel=16,
                           max_bounces=0, rng_seed=2)
        gt = render_ground_truth(scene, cfg)
        hdr = render_frame(scene, cfg)
        sun_dir = np.array(scene.lights[1].direction)
        cos = np.maximum(0.0, -(gt.normal @ sun_dir))
        irradiance = 0.25 + (1.0 - gt.shadow_fraction) * cos * 1.4 / math.pi
        hit = gt.object_id != -1
        expected = gt.reflectance * irradiance[:, :, None]
        err = np.abs(hdr - expected)[hit]
        assert err.max() <= 1e-12


class TestFlow:
    def flow_pair(self, dx=1.5, cam=None):
        base = {
            "objects": [
                {"class": "Vehicle", "position": [0.0, 10.0], "length": 4.0,
                 "breadth": 2.0, "height": 3.0, "dynamic": True, "style": 0}
            ],
            "ground": True,
            "camera": cam or {"position": [0.0, 2.0, -10.0],
                              "look_at": [0.0, 2.0, 10.0], "vfov_deg": 50.0},
            "dynamics": [[0, "objects.1.velocity", [dx, 0.0, 0.0]]],
        }
        scene = scene_from(base)
        from invarsim.scenegen import apply_dynamics

        return apply_dynamics(scene, 0), apply_dynamics(scene, 1)

    def test_static_scene_zero_flow(self, validation_scene):
        cfg = RenderConfig(width=32, height=24, samples_per_pixel=1, rng_seed=1)
        gt = render_ground_truth(validation_scene, cfg)
        flow, occl = compute_flow(gt, gt, validation_scene, validation_scene)
        assert np.all(flow == 0.0)
        assert not occl.any()

    def test_lateral_translation_pinhole_closed_form(self):
        s0, s1 = self.flow_pair(dx=1.5)
        cfg = RenderConfig(width=64, height=48, samples_per_pixel=1, rng_seed=1)
        gt = render_ground_truth(s0, cfg)
        flow, _ = compute_flow(gt, render_ground_truth(s1, cfg), s0, s1)
        cam = Camera(s0.camera, 64, 48)
        vehicle = gt.object_id == 1
        assert vehicle.sum() > 20
        # front face sits at z = 9 (breadth 2 centered at 10), 19 m from camera
        z_cam = 9.0 - (-10.0)
        expected_u = cam.focal_px * 1.5 / z_cam
        front = vehicle & (np.abs(gt.depth - z_cam) < 1.0)
        got_u = flow[:, :, 0][front]
        assert np.allclose(got_u, expected_u, rtol=1e-6)
        assert np.allclose(flow[:, :, 1][front], 0.0, atol=1e-9)

    def test_occlusion_mask_id_compare_oracle(self):
        s0, s1 = self.flow_pair(dx=2.5)
        cfg = RenderConfig(width=64, height=48, samples_per_pixel=1, rng_seed=1)
        gt0 = render_ground_truth(s0, cfg)
        gt1 = render_ground_truth(s1, cfg)
        flow, occl = compute_flow(gt0, gt1, s0, s1)
        # static background pixels newly covered by the vehicle are occluded
        newly_covered = (gt0.object_id != 1) & (gt1.object_id == 1)
        assert newly_covered.any()
        assert np.all(occl[newly_covered])
        # vehicle pixels whose forward-warped target is still the vehicle stay visible
        vehicle_kept = (gt0.object_id == 1) & ~occl
        assert vehicle_kept.any()

    def oracle_pairs(self, validation_scene):
        """(name, scene_t, scene_t1, cfg) of every pair checked against the
        traced oracle: a static scene, a moving vehicle, a moved camera and
        the three pairs of one PS speed."""
        cfg = RenderConfig(width=64, height=48, samples_per_pixel=1, rng_seed=1)
        pairs = [("static", validation_scene, validation_scene, cfg),
                 ("vehicle", *self.flow_pair(dx=2.5), cfg)]
        s0, s1 = self.flow_pair(dx=1.5)
        moved = dataclasses.replace(s1, camera=dataclasses.replace(
            s1.camera, position=(0.5, 2.25, -9.5)))
        pairs.append(("camera", s0, moved, cfg))
        from invarsim.characterize import _scale_velocities, default_protocol

        ps = default_protocol("PS")
        base = _scale_velocities(sample_scene(ps.scene_config(), ps.scene_seed), 2.0)
        frames = [apply_dynamics(base, t) for t in range(4)]
        pairs += [(f"ps_{t}", frames[t], frames[t + 1], ps.render_config())
                  for t in range(3)]
        return pairs

    def test_flow_and_occlusion_equal_the_traced_oracle(self, validation_scene):
        for name, s0, s1, cfg in self.oracle_pairs(validation_scene):
            gt0, gt1 = render_ground_truth(s0, cfg), render_ground_truth(s1, cfg)
            flow, occl = compute_flow(gt0, gt1, s0, s1)
            want_flow, want_occl = traced_flow(s0, s1, cfg)
            assert flow.dtype == np.float64 and occl.dtype == bool, name
            assert np.array_equal(flow, want_flow), name
            assert np.array_equal(occl, want_occl), name
            if name != "static":
                assert np.any(flow != 0.0) and occl.any(), name

    def test_flow_traces_no_ray(self, monkeypatch):
        s0, s1 = self.flow_pair(dx=2.5)
        cfg = RenderConfig(width=32, height=24, samples_per_pixel=1, rng_seed=1)
        gt0, gt1 = render_ground_truth(s0, cfg), render_ground_truth(s1, cfg)

        def forbidden(*args, **kwargs):
            raise AssertionError("compute_flow must read the ground truth, not trace")

        for module in (geometry, render):
            monkeypatch.setattr(module, "trace", forbidden)
            monkeypatch.setattr(module, "occluded", forbidden)
        flow, occl = compute_flow(gt0, gt1, s0, s1)
        assert np.any(flow != 0.0) and occl.any()

    def test_ground_truths_of_two_sizes_raise(self):
        s0, s1 = self.flow_pair()
        small = render_ground_truth(s0, RenderConfig(width=16, height=12))
        large = render_ground_truth(s1, RenderConfig(width=32, height=24))
        for gt0, gt1 in ((small, large), (large, small)):
            with pytest.raises(ConfigError):
                compute_flow(gt0, gt1, s0, s1)

    def test_identity_mismatch_raises(self, validation_scene):
        cfg = RenderConfig(width=16, height=12, samples_per_pixel=1, rng_seed=1)
        smaller = dataclasses.replace(validation_scene,
                                      objects=validation_scene.objects[:-1])
        gt = render_ground_truth(validation_scene, cfg)
        with pytest.raises(IdentityMismatchError):
            compute_flow(gt, gt, validation_scene, smaller)


class TestSensor:
    def test_midgray_rounds_half_up(self):
        img = np.full((2, 2, 3), 0.5)
        out, _ = apply_sensor(img, SensorConfig(gaussian_noise_sigma=0.0, gamma=1.0), 0)
        assert np.all(out == 128)

    def test_overrange_clamps(self):
        img = np.full((2, 2, 3), 2.0)
        out, _ = apply_sensor(img, SensorConfig(gaussian_noise_sigma=0.0), 0)
        assert np.all(out == 255)

    def test_noise_statistics(self):
        img = np.full((600, 600, 3), 0.5)
        out, _ = apply_sensor(img, SensorConfig(gaussian_noise_sigma=0.01), 4)
        vals = out.astype(float)
        n = vals.size
        # quantization adds 1/12 of a count of variance on top of the noise
        expected_std = math.sqrt((0.01 * 255) ** 2 + 1.0 / 12.0)
        se = expected_std / math.sqrt(2.0 * n)
        assert abs(vals.std() - expected_std) <= 3.0 * se + 1e-3

    def test_deterministic_per_seed(self):
        img = np.random.default_rng(1).uniform(0, 1, (16, 16, 3))
        cfg = SensorConfig(gaussian_noise_sigma=0.01)
        a, _ = apply_sensor(img, cfg, 7)
        b, _ = apply_sensor(img, cfg, 7)
        assert np.array_equal(a, b)
        c, _ = apply_sensor(img, cfg, 8)
        assert not np.array_equal(a, c)

    def test_ldr_bounds_and_bits(self):
        img = np.random.default_rng(2).uniform(-1, 2, (8, 8, 3))
        out, maxval = apply_sensor(img, SensorConfig(quantization_bits=10,
                                                     gaussian_noise_sigma=0.05), 1)
        assert maxval == 1023
        assert out.max() <= 1023
        assert out.min() >= 0
        assert (out.astype(np.float64) / float(maxval)).max() <= 1.0


class TestCamera:
    def test_project_inverts_rays(self, validation_scene):
        cam = Camera(validation_scene.camera, 40, 30)
        O, D = cam.rays()
        pts = O + 7.5 * D
        proj = cam.project(pts)
        jj, ii = np.meshgrid(np.arange(30), np.arange(40), indexing="ij")
        assert np.allclose(proj[:, 0], ii.reshape(-1), atol=1e-9)
        assert np.allclose(proj[:, 1], jj.reshape(-1), atol=1e-9)

    def test_world_x_maps_to_image_right(self):
        from invarsim.scene import CameraSpec

        cam = Camera(CameraSpec(position=(0, 0, 0), look_at=(0, 0, 1)), 32, 32)
        proj = cam.project(np.array([[2.0, 0.0, 10.0], [-2.0, 0.0, 10.0]]))
        assert proj[0, 0] > proj[1, 0]
