"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s``).

Every criterion pins its tolerance and runtime budget; expected values come
from independent oracles (exact rational rank arithmetic, brute-force
geometry, quadrature, closed forms) or published reference tables, never
from the code paths under test.
"""

import dataclasses
import functools
import itertools
import json
import math
import time

import numpy as np

from invarsim.characterize import (
    ProtocolConfig,
    compare_rankings,
    default_protocol,
    rank_items,
    run_sweep,
)
from invarsim.cli import main as cli_main
from invarsim.medium import schlick_phase, transmittance
from invarsim.patches import Patch, classify_contexts, sample_patches
from invarsim.render import RenderConfig, compute_flow, render_frame, render_ground_truth
from invarsim.scene import MediumSpec
from invarsim.scenegen import SceneConfig, apply_dynamics, sample_scene, validation_scene_config
from invarsim.validators import bc_variance, gc_variance, oc_measure, ps_variance, spearman_rho
from oracles import (any_footprint_overlap, exact_spearman, loop_render_setups, rows_of,
                     sphere_integral)


def criterion(number, budget_s, summary):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
                dt = time.perf_counter() - t0
                assert dt < budget_s, (
                    f"criterion {number} exceeded its runtime budget: "
                    f"{dt:.1f}s >= {budget_s}s")
            except BaseException:
                dt = time.perf_counter() - t0
                print(f"[acceptance] {number:2d} FAIL ({dt:.1f}s) {summary}")
                raise
            print(f"[acceptance] {number:2d} PASS ({dt:.1f}s) {summary}")
        return wrapper
    return deco


@criterion(1, 5.0, "Spearman matches the exact rational oracle to 1e-12")
def test_c1_spearman_exact_oracle():
    values = [0.5, 1.25, 2.0, 3.5, 4.75, 9.0]
    worst = 0.0
    for perm in itertools.permutations(values):
        got = spearman_rho(values, list(perm))
        want = exact_spearman(values, list(perm))
        worst = max(worst, abs(got - want))
    rng = np.random.default_rng(20240801)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 13))
        x = rng.integers(0, 5, size=n).astype(float)
        y = rng.integers(0, 5, size=n).astype(float)
        want = exact_spearman(list(x), list(y))
        got = spearman_rho(x, y)
        if want is None:
            assert math.isnan(got)
        else:
            worst = max(worst, abs(got - want))
        checked += 1
    assert worst <= 1e-12, f"max deviation {worst:.3e}"


@criterion(2, 5.0, "order consistency is exactly 1 under strict monotone maps")
def test_c2_oc_monotone_invariance():
    rng = np.random.default_rng(7)
    for _ in range(100):
        patch = rng.uniform(0.0, 1.0, size=(9, 9))
        for _ in range(20):
            knots_x = np.concatenate(([0.0], np.sort(rng.uniform(0, 1, 6)), [1.0]))
            knots_y = np.cumsum(rng.uniform(0.05, 1.0, size=len(knots_x)))
            mapped = np.interp(patch, knots_x, knots_y)
            assert oc_measure(patch, mapped) == 1.0


@criterion(3, 600.0, "diffuse stays order-consistent and beats shadow "
                     "boundaries and occlusions across the 40-level ramp")
def test_c3_oc_diffuse_behavior():
    protocol = default_protocol("OC")
    assert protocol.width == 64 and protocol.height == 48
    assert protocol.samples_per_pixel == 16
    assert len(protocol.illumination_levels) == 40
    manifold = run_sweep(protocol)

    cells = {}
    for r in rows_of(manifold):
        cells.setdefault(r.context, {})[
            (r.theta_w["illumination"], r.theta_v["s"])] = r
    diffuse = {k: r for k, r in cells["Diffuse"].items() if r.n > 0}
    assert len(diffuse) == 120, "diffuse cells missing from the manifold"
    means = np.array([r.mean for r in diffuse.values()])
    assert means.mean() > 0.95, f"diffuse mean {means.mean():.5f}"
    assert means.std() < 0.02, f"diffuse std {means.std():.5f}"
    for key, rec in diffuse.items():
        sb = cells["ShadowBoundary"].get(key)
        oc = cells["Occluded"].get(key)
        assert sb is not None and sb.n > 0, f"shadow-boundary gap at {key}"
        assert oc is not None and oc.n > 0, f"occluded gap at {key}"
        assert rec.mean > sb.mean, f"diffuse <= shadow boundary at {key}"
        assert rec.mean > oc.mean, f"diffuse <= occluded at {key}"


def _noise_free_scene():
    doc = validation_scene_config()
    # style 2 vehicle carries no emissive brake light, keeping every pixel
    # linear in the light intensities
    for obj in doc["objects"]:
        if obj["class"] == "Vehicle":
            obj["style"] = 2
    return sample_scene(SceneConfig.from_dict(doc), seed=7)


@criterion(4, 120.0, "brightness/gradient constancy equal their closed "
                     "forms under intensity scaling")
def test_c4_bc_gc_closed_forms():
    scene = _noise_free_scene()
    cfg = RenderConfig(width=64, height=48, samples_per_pixel=8,
                       max_bounces=1, rng_seed=5)
    base = render_frame(scene, cfg)
    gt = render_ground_truth(scene, cfg)
    cmap = classify_contexts(gt, window=9)
    zero_flow = np.zeros((48, 64, 2))
    gray = base @ np.array([0.2126, 0.7152, 0.0722])

    homogeneous = sample_patches(cmap, "Homogeneous", 9, 4, seed=11)
    diffuse = sample_patches(cmap, "Diffuse", 9, 4, seed=12)

    for a in (1.1, 1.5, 2.0):
        lights = tuple(dataclasses.replace(l, intensity=l.intensity * a)
                       for l in scene.lights)
        scaled = render_frame(dataclasses.replace(scene, lights=lights), cfg)
        for patch in homogeneous + diffuse:
            got_bc = bc_variance(base, scaled, zero_flow, patch)
            rows, cols = patch.slices()
            want_bc = (a - 1.0) ** 2 * np.var(gray[rows, cols])
            assert abs(got_bc - want_bc) <= 1e-9, f"bc at a={a}: {got_bc} vs {want_bc}"

            got_gc = gc_variance(base, scaled, zero_flow, patch)
            gx = np.full_like(gray, np.nan)
            gy = np.full_like(gray, np.nan)
            gx[:, 1:-1] = (gray[:, 2:] - gray[:, :-2]) / 2.0
            gy[1:-1, :] = (gray[2:, :] - gray[:-2, :]) / 2.0
            irows = slice(patch.row + 1, patch.row + patch.side - 1)
            icols = slice(patch.col + 1, patch.col + patch.side - 1)
            pooled = np.concatenate([gx[irows, icols].ravel(),
                                     gy[irows, icols].ravel()])
            want_gc = (a - 1.0) ** 2 * np.var(pooled)
            assert abs(got_gc - want_gc) <= 1e-9, f"gc at a={a}: {got_gc} vs {want_gc}"
        for patch in homogeneous:
            got_bc = bc_variance(base, scaled, zero_flow, patch)
            got_gc = gc_variance(base, scaled, zero_flow, patch)
            assert got_gc <= got_bc, f"gc {got_gc} > bc {got_bc} at a={a}"

    # constant offset: dyadic grayscale frames keep the addition exact
    dyadic = np.round(gray * (1 << 20)) / (1 << 20)
    offset = dyadic + 0.25
    for patch in homogeneous + diffuse:
        assert bc_variance(dyadic, offset, zero_flow, patch) == 0.0
        assert gc_variance(dyadic, offset, zero_flow, patch) == 0.0


@criterion(5, 300.0, "dichromatic plane fit: exact for ambient fog, robust "
                     "to sensor noise, worse for sunny haze")
def test_c5_ds_exactness_and_ranking():
    base = {
        "model": "DS",
        "scene": validation_scene_config(),
        "theta_w": {"weather_tags": ["Fog"],
                    "density_scales": [0.2, 0.4, 0.6, 0.8, 1.0],
                    "sunny_tags": ["MildHaze"]},
        "contexts": [],
        "render": {"width": 64, "height": 48, "spp": 16, "max_bounces": 0},
    }
    noise_free = dict(base)
    noise_free["sensor"] = None  # evaluate raw radiance: exact coplanarity
    # one deterministic sample per pixel: the scattering model is exact per
    # surface point, and multi-sample pixel footprints mix depths at edges
    noise_free["render"] = dict(base["render"], spp=1)
    m0 = run_sweep(ProtocolConfig.from_dict(noise_free))
    fog0 = m0.aux["ds"][0]
    assert fog0["mean_deg"] <= 1e-4, f"analytic fog AE {fog0['mean_deg']:.2e}"
    assert fog0["fraction_below"] == 1.0

    noisy = dict(base)
    noisy["theta_w"] = dict(base["theta_w"], weather_tags=["Fog", "MildHaze"])
    m1 = run_sweep(ProtocolConfig.from_dict(noisy))
    info = {i["weather"]: i for i in m1.aux["ds"]}
    assert info["Fog"]["mean_deg"] < 1.0, f"noisy fog AE {info['Fog']['mean_deg']:.4f}"
    assert info["Fog"]["fraction_below"] >= 0.99
    assert info["MildHaze"]["mean_deg"] > info["Fog"]["mean_deg"], (
        f"sunny mild haze {info['MildHaze']['mean_deg']:.4f} not worse than "
        f"ambient fog {info['Fog']['mean_deg']:.4f}")


@criterion(6, 120.0, "smoothness-energy variance: exact nulls, motion "
                     "boundaries strictly above same-surface patches")
def test_c6_ps_nulls_and_boundary():
    # exact nulls on synthetic fields with dyadic coefficients
    const = np.tile([1.5, -0.75], (24, 32, 1))
    assert ps_variance(None, const, None, Patch(4, 4, 9, "SameSurface")) == 0.0
    y, x = np.mgrid[0:24, 0:32].astype(float)
    affine = np.stack([0.25 * x + 0.5 * y, 0.125 * x], axis=-1)
    assert ps_variance(None, affine, None, Patch(4, 4, 9, "SameSurface")) == 0.0
    assert ps_variance(affine, affine, affine, Patch(4, 4, 9, "SameSurface")) == 0.0

    # rendered two-object pair
    doc = validation_scene_config()
    doc["dynamics"] = [[0, "objects.5.velocity", [0.5, 0.0, 0.0]]]
    scene = sample_scene(SceneConfig.from_dict(doc), seed=7)
    cfg = RenderConfig(width=64, height=48, samples_per_pixel=1, rng_seed=3)
    frames = [apply_dynamics(scene, t) for t in range(4)]
    gts = [render_ground_truth(f, cfg) for f in frames]
    flows = [compute_flow(gts[t], gts[t + 1], frames[t], frames[t + 1]) for t in range(3)]
    flow_prev = flows[0][0]
    flow_t, occl_t = flows[1]
    flow_next = flows[2][0]
    for s in (5, 9, 13):
        cmap = classify_contexts(gts[1], window=s, occlusion=occl_t, flow=flow_t)
        surface = sample_patches(cmap, "SameSurface", s, 6, seed=21)
        boundary = sample_patches(cmap, "MotionBoundary", s, 6, seed=22)
        vs = [ps_variance(flow_prev, flow_t, flow_next, p) for p in surface]
        vb = [ps_variance(flow_prev, flow_t, flow_next, p) for p in boundary]
        assert max(vs) < min(vb), (
            f"s={s}: same-surface max {max(vs):.3e} not below "
            f"motion-boundary min {min(vb):.3e}")


@criterion(7, 60.0, "marked point process: no overlaps, sound class "
                    "frequencies, bit-deterministic")
def test_c7_mpp_properties():
    doc = {
        "world_bounds": [-60, -60, 60, 60],
        "ground": False,
        "classes": [
            {"class": c, "probability": 0.25, "length": [3.0, 0.5],
             "breadth": [3.0, 0.5], "height": [5.0, 1.0]}
            for c in ("Building", "Tree", "Vehicle", "Pedestrian")
        ],
        "counts": {"total": 20},
        "lights": [{"kind": "ambient"}],
    }
    cfg = SceneConfig.from_dict(doc)
    counts = {}
    total = 0
    for seed in range(1000):
        scene = sample_scene(cfg, seed=seed)
        rects = [o.mark.footprint() for o in scene.objects]
        assert not any_footprint_overlap(rects), f"overlap at seed {seed}"
        for o in scene.objects:
            counts[o.mark.object_class] = counts.get(o.mark.object_class, 0) + 1
            total += 1
        if seed % 97 == 0:
            assert sample_scene(cfg, seed=seed).to_json() == scene.to_json()
    assert total == 20000
    bound = 3.0 * math.sqrt(0.25 * 0.75 / total)
    for c, n in counts.items():
        assert abs(n / total - 0.25) <= bound, f"{c}: {n / total:.4f}"


@criterion(8, 120.0, "renderer physics: attenuation, phase normalization, "
                     "linearity, Lambertian closed form")
def test_c8_renderer_physics():
    medium = MediumSpec(beta=(0.02, 0.05, 0.11), weather_tag="Fog")
    rng = np.random.default_rng(3)
    for _ in range(200):
        d1, d2 = rng.uniform(0.0, 90.0, size=2)
        lhs = transmittance(medium, d1 + d2)
        rhs = transmittance(medium, d1) * transmittance(medium, d2)
        assert np.all(np.abs(lhs - rhs) <= 1e-12)

    for k in (-0.9, -0.5, 0.0, 0.5, 0.9):
        total = sphere_integral(lambda mu: schlick_phase(k, mu))
        assert abs(total - 1.0) <= 1e-4, f"phase integral at k={k}: {total}"

    scene = _noise_free_scene()
    cfg = RenderConfig(width=48, height=36, samples_per_pixel=4,
                       max_bounces=1, rng_seed=9)
    base = render_frame(scene, cfg)
    lights2 = tuple(dataclasses.replace(l, intensity=2.0 * l.intensity)
                    for l in scene.lights)
    doubled = render_frame(dataclasses.replace(scene, lights=lights2), cfg)
    assert np.array_equal(doubled, 2.0 * base)

    # single Lambertian plane facing a unit-irradiance directional light
    doc = {
        "world_bounds": [-80, -80, 80, 80],
        "ground": True,
        "camera": {"position": [0.0, 25.0, -12.0], "look_at": [0.0, 0.0, 12.0],
                   "vfov_deg": 45.0},
        "lights": [{"kind": "directional", "direction": [0.0, -1.0, 0.0],
                    "intensity": 1.0, "color": [1.0, 1.0, 1.0]}],
    }
    plane = sample_scene(SceneConfig.from_dict(doc), seed=1)
    mats = {mid: dataclasses.replace(m, texture=None)
            for mid, m in plane.materials.items()}
    plane = dataclasses.replace(plane, materials=mats)
    pcfg = RenderConfig(width=24, height=18, samples_per_pixel=256,
                        max_bounces=1, rng_seed=12)
    (img, variance), = loop_render_setups(plane, [(plane.medium, plane.lights)], pcfg,
                                          return_variance=True)
    assert np.array_equal(render_frame(plane, pcfg), img)
    albedo = np.array(plane.materials[0].albedo)
    expected = albedo / math.pi  # cos(theta) = 1, E = 1
    sigma = np.sqrt(variance)
    assert np.all(np.abs(img - expected[None, None, :])
                  <= 3.0 * sigma + 1e-12)


@criterion(9, 1200.0, "byte-identical manifold CSVs across thread counts")
def test_c9_pipeline_determinism(tmp_path):
    protocol_path = tmp_path / "oc_protocol.json"
    protocol_path.write_text(json.dumps(default_protocol("OC").to_dict()))
    outputs = {}
    for threads in (1, 8):
        out_dir = tmp_path / f"run_t{threads}"
        code = cli_main(["sweep", str(protocol_path), "--out-dir", str(out_dir),
                         "--threads", str(threads)])
        assert code == 0
        outputs[threads] = (out_dir / "manifold.csv").read_bytes()
    assert outputs[1] == outputs[8], "thread count changed the manifold bytes"


@criterion(10, 1.0, "published rank tables reproduced exactly")
def test_c10_ranking_machinery():
    t2_sim = {"Homogeneous": 0.7868, "Diffuse": 0.8323, "ShadowBoundary": 0.0877,
              "Edge": 0.8076, "Corner": 0.8350, "Occluded": 0.2622}
    assert rank_items(sorted(t2_sim.items()), "higher_better") == {
        "Homogeneous": 4, "Diffuse": 2, "ShadowBoundary": 6,
        "Edge": 3, "Corner": 1, "Occluded": 5}
    t2_real = {"Homogeneous": 0.4457, "Diffuse": 0.5968, "ShadowBoundary": 0.6046,
               "Edge": 0.8313, "Corner": 0.7574, "Occluded": 0.2635}
    assert rank_items(sorted(t2_real.items()), "higher_better") == {
        "Homogeneous": 5, "Diffuse": 4, "ShadowBoundary": 3,
        "Edge": 1, "Corner": 2, "Occluded": 6}
    t3_virtual = {"Fog": 0.1373, "Mist": 0.3887, "Rain": 1.2434,
                  "DenseHaze": 1.0122, "MildHaze": 2.4563}
    assert rank_items(sorted(t3_virtual.items()), "lower_better") == {
        "Fog": 1, "Mist": 2, "Rain": 4, "DenseHaze": 3, "MildHaze": 5}
    t3_real = {"Fog": 0.58, "Mist": 1.25, "Rain": 1.13, "DenseHaze": 2.27,
               "MildHaze": 3.61}
    assert rank_items(sorted(t3_real.items()), "lower_better") == {
        "Fog": 1, "Mist": 3, "Rain": 2, "DenseHaze": 4, "MildHaze": 5}
    # the two context rank columns correlate positively across sources
    cmp = compare_rankings(
        rank_items(sorted(t2_sim.items()), "higher_better"),
        rank_items(sorted(t2_real.items()), "higher_better"))
    assert cmp["correlation"] > 0
