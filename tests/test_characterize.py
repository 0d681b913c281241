import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from invarsim.characterize import (
    CriterionRecord,
    Manifold,
    ProtocolConfig,
    compare_rankings,
    default_protocol,
    heatmap_svg,
    ingest_sequence,
    marginalize,
    rank_items,
    rank_manifold_contexts,
    run_sweep,
    sweep_size,
)
import invarsim.characterize as characterize
import invarsim.render as render
from invarsim.errors import ConfigError, IngestError, LabelMismatchError
from invarsim.render import RenderConfig, render_frame, render_ground_truth, render_setups
from invarsim.scene import WEATHER_PRESETS
from invarsim.scenegen import default_lights_doc, sample_scene, validation_scene_config
from oracles import loop_heatmap_svg


def tiny_oc_protocol(**overrides):
    doc = {
        "model": "OC",
        "scene": validation_scene_config(),
        "theta_w": {"illumination_levels": [1.0, 3.0]},
        "theta_v": {"patch_sizes": [5, 9]},
        "contexts": ["Diffuse", "ShadowBoundary", "Occluded"],
        "patches_per_cell": 3,
        "render": {"width": 64, "height": 48, "spp": 4, "max_bounces": 1},
    }
    doc.update(overrides)
    return ProtocolConfig.from_dict(doc)


class TestProtocolConfig:
    def test_round_trip(self):
        p = tiny_oc_protocol()
        again = ProtocolConfig.from_dict(p.to_dict())
        assert again == p
        assert again.content_hash() == p.content_hash()

    def test_documents_share_no_state_with_the_protocol(self):
        p = default_protocol("PS")
        digest = p.content_hash()
        doc = p.to_dict()
        doc["sensor"]["bits"] = 4
        doc["scene"]["weather"] = "Fog"
        assert p.sensor_config().quantization_bits == 8
        assert p.scene.get("weather", "Clear") == "Clear"
        assert p.content_hash() == digest
        doc = default_protocol("PS").to_dict()
        q = ProtocolConfig.from_dict(doc)
        doc["sensor"]["bits"] = 4
        doc["scene"]["weather"] = "Fog"
        assert q.sensor_config().quantization_bits == 8
        assert q.content_hash() == digest

    def test_default_oc_uses_40_levels(self):
        p = default_protocol("OC")
        assert len(p.illumination_levels) == 40
        assert p.illumination_levels[0] == 1.0
        assert p.illumination_levels[-1] == 5.0
        assert p.samples_per_pixel == 16

    def test_default_ds_protocol(self):
        p = default_protocol("DS")
        assert p.weather_tags == ("Fog", "Mist", "Rain", "DenseHaze", "MildHaze")
        assert len(p.density_scales) == 5
        assert p.max_bounces == 0

    def test_gc_small_patches_rejected(self):
        with pytest.raises(ConfigError):
            tiny_oc_protocol(model="GC", theta_v={"patch_sizes": [3, 5]})

    def test_missing_scene_rejected(self):
        with pytest.raises(ConfigError):
            tiny_oc_protocol(scene=None)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            tiny_oc_protocol(model="XX")

    @pytest.mark.parametrize("block,key", [
        (None, "patch_per_cell"),
        ("theta_w", "illumination_level"),
        ("theta_v", "patch_size"),
        ("seeds", "scenes"),
        ("render", "samples_per_pixel"),
        ("thresholds", "ds_angle"),
        ("ingest", "dir"),
        ("sensor", "bit"),
        (None, "zero_flow"),  # ingest reads zero_flow from the annotation
        ("seeds", "scene"),  # known keys whose value fails its cast
        ("render", "spp"),
    ])
    def test_unknown_key_rejected_with_its_path(self, block, key):
        doc = default_protocol("PS").to_dict()
        (doc if block is None else doc[block])[key] = "two"
        with pytest.raises(ConfigError) as err:
            ProtocolConfig.from_dict(doc)
        assert err.value.json_path == (key if block is None else f"{block}.{key}")

    @pytest.mark.parametrize("model,digest", [
        ("OC", "cf77f723dec56b1d8f6c0bfdb5490c9de5af03a1a38b449ab4eba8906794053d"),
        ("BC", "752ac4c627c500a562b0cabc39fdfb90fcfbc4e465b54c25bcddac3c59026d26"),
        ("GC", "8add400a1ebc1e4ba3f6e5d66f90420179ee54daa867918e92ffee502ec3300e"),
        ("PS", "1619f12ccad43c8ac6d594febd30405951d96953c299397b958123ff1fe2f58d"),
        ("DS", "79e9e5c68cd5f4d4701991dc3b28bfe94a78f467ae496ac3610eec96570ed539"),
    ])
    def test_stock_content_hash_is_pinned(self, model, digest):
        # the hash keys the cell cache and the manifest's config_hash: a
        # schema edit that moves it orphans every cached cell
        assert default_protocol(model).content_hash() == digest

    @pytest.mark.parametrize("overrides,path", [
        ({"render": {"spp": 0}}, "render"),
        ({"sensor": {"bits": 40}}, "sensor"),
        ({"sensor": {"sigma": "a"}}, "sensor.sigma"),
        ({"patches_per_cell": "six"}, "patches_per_cell"),
        ({"exclude_occluded": "false"}, "exclude_occluded"),
        ({"theta_w": {"illumination_levels": 5}}, "theta_w.illumination_levels"),
        ({"theta_w": {"illumination_levels": ["1.0"]}}, "theta_w.illumination_levels"),
        ({"theta_v": {"patch_sizes": [5.0]}}, "theta_v.patch_sizes"),
        ({"scene": {**validation_scene_config(), "weathr": "Fog"}}, "scene"),
        ({"sensor": {"sigma": float("nan")}}, "sensor.sigma"),
        ({"theta_w": {"illumination_levels": [float("inf"), 3.0]}}, "theta_w.illumination_levels"),
        ({"thresholds": {"ds_angle_deg": 10**400}}, "thresholds.ds_angle_deg"),
    ], ids=["spp-0", "bits-40", "sigma-a", "patches_per_cell-six", "exclude_occluded-str",
            "levels-not-a-list", "levels-str", "patch_sizes-float", "scene-unknown-key",
            "sigma-nan", "levels-infinity", "ds_angle-beyond-float-range"])
    def test_bad_value_rejected_at_parse_with_its_path(self, overrides, path):
        with pytest.raises(ConfigError) as err:
            tiny_oc_protocol(**overrides)
        assert err.value.json_path == path

    def test_integer_beyond_float_range_is_an_integer(self):
        # only a number must fit a float: the finite-number check leaves integers alone
        p = tiny_oc_protocol(render={"width": 64, "height": 48, "spp": 10**400})
        assert p.samples_per_pixel == 10**400

    def test_axis_ints_stay_ints(self):
        # the manifold CSV prints a coordinate as it was given
        p = tiny_oc_protocol(theta_w={"illumination_levels": [1, 2.5]})
        assert [type(v) for v in p.illumination_levels] == [int, float]

    @pytest.mark.parametrize("block,key,names", [
        (None, "contexts", ["Diffuse", "Difuse"]),
        ("theta_w", "weather_tags", ["Fog", "Fgo"]),
        ("theta_w", "weather_tags", ["Clear"]),  # no density to ramp
        ("theta_w", "sunny_tags", ["Mildhaze"]),
    ])
    def test_unknown_name_rejected_at_parse(self, block, key, names):
        doc = default_protocol("DS").to_dict()
        (doc if block is None else doc[block])[key] = names
        with pytest.raises(ConfigError) as err:
            ProtocolConfig.from_dict(doc)
        assert err.value.json_path == (key if block is None else f"{block}.{key}")

    def test_ingest_rejects_exclude_occluded(self):
        # ingested frames carry no occlusion mask to exclude pixels by
        with pytest.raises(ConfigError) as err:
            ProtocolConfig.from_dict({
                "model": "BC", "source": "ingest", "contexts": ["Diffuse"],
                "exclude_occluded": True,
                "ingest": {"directory": "frames", "annotation": "annotation.json"}})
        assert err.value.json_path == "exclude_occluded"


class TestManifoldCsv:
    def make_manifold(self):
        records = [
            CriterionRecord("OC", "Diffuse", {"illumination": 1.0}, {"s": 5},
                            0.99, 0.001, 6),
            CriterionRecord("OC", "Diffuse", {"illumination": 2.0}, {"s": 5},
                            0.98, 0.002, 6),
            CriterionRecord("OC", "Edge", {"illumination": 1.0}, {"s": 5},
                            float("nan"), float("nan"), 0),
            CriterionRecord("OC", "Edge", {"illumination": 2.0}, {"s": 5},
                            0.5, 0.1, 6),
        ]
        return Manifold("OC", ("illumination",), ("s",), records)

    def test_header_schema(self):
        m = self.make_manifold()
        assert m.to_csv().splitlines()[0] == \
            "model,context,theta_w_illumination,theta_v_s,mean_E,std_E,n"

    def test_round_trip(self):
        m = self.make_manifold()
        text = m.to_csv()
        again = Manifold.from_csv(text)
        assert again.to_csv() == text
        assert len(again.missing) == 1

    def test_byte_determinism(self):
        assert self.make_manifold().to_csv() == self.make_manifold().to_csv()

    def test_missing_cells_preserved_not_interpolated(self):
        m = Manifold.from_csv(self.make_manifold().to_csv())
        gap = [r for r in m.records if r.n == 0]
        assert len(gap) == 1
        assert math.isnan(gap[0].mean)


class TestMarginalize:
    def constant_manifold(self, value=2.0, n_levels=4):
        records = [
            CriterionRecord("OC", "Diffuse", {"illumination": float(i)}, {"s": s},
                            value, 0.0, 3)
            for i in range(n_levels)
            for s in (5, 9)
        ]
        return Manifold("OC", ("illumination",), ("s",), records)

    def test_constant_manifold_sums_to_n_v(self):
        m = self.constant_manifold(value=2.0, n_levels=4)
        table = marginalize(m, "illumination")
        assert len(table.entries) == 2
        for e in table.entries:
            assert e.value == pytest.approx(8.0)
            assert e.complete

    def test_fubini_property(self):
        rng = np.random.default_rng(5)
        records = [
            CriterionRecord("OC", "Diffuse", {"illumination": float(i)}, {"s": s},
                            float(rng.uniform(0, 1)), 0.0, 3)
            for i in range(5) for s in (5, 9, 13)
        ]
        m = Manifold("OC", ("illumination",), ("s",), records)
        total = sum(r.mean for r in m.records)
        t1 = marginalize(m, "illumination")
        assert sum(e.value for e in t1.entries) == pytest.approx(total)
        t2 = marginalize(m, "s")
        assert sum(e.value for e in t2.entries) == pytest.approx(total)

    def test_gap_propagates(self):
        m = self.constant_manifold()
        records = list(m.records)
        records[0] = dataclasses.replace(records[0], mean=float("nan"), n=0)
        m2 = Manifold("OC", ("illumination",), ("s",), records)
        table = marginalize(m2, "illumination")
        gap_entry = [e for e in table.entries if not e.complete]
        assert len(gap_entry) == 1
        assert math.isnan(gap_entry[0].value)

    def test_unknown_axis_raises(self):
        with pytest.raises(ConfigError):
            marginalize(self.constant_manifold(), "weather")

    def test_exclude_contexts(self):
        m = self.constant_manifold()
        extra = [dataclasses.replace(r, context="Occluded") for r in m.records]
        m2 = Manifold("OC", ("illumination",), ("s",), list(m.records) + extra)
        table = marginalize(m2, "illumination", exclude_contexts=("Occluded",))
        assert all(e.context == "Diffuse" for e in table.entries)

    def test_trapezoid_mode(self):
        m = self.constant_manifold(value=1.0, n_levels=4)
        table = marginalize(m, "illumination", method="trapezoid")
        # integral of 1 over [0, 3]
        assert all(e.value == pytest.approx(3.0) for e in table.entries)


class TestRanking:
    # published rank-correlation table rows used as exact oracles
    T2_SIM = {"Homogeneous": 0.7868, "Diffuse": 0.8323, "ShadowBoundary": 0.0877,
              "Edge": 0.8076, "Corner": 0.8350, "Occluded": 0.2622}
    T2_SIM_RANKS = {"Homogeneous": 4, "Diffuse": 2, "ShadowBoundary": 6,
                    "Edge": 3, "Corner": 1, "Occluded": 5}
    T2_REAL = {"Homogeneous": 0.4457, "Diffuse": 0.5968, "ShadowBoundary": 0.6046,
               "Edge": 0.8313, "Corner": 0.7574, "Occluded": 0.2635}
    T2_REAL_RANKS = {"Homogeneous": 5, "Diffuse": 4, "ShadowBoundary": 3,
                     "Edge": 1, "Corner": 2, "Occluded": 6}
    T3_VIRTUAL_AE = {"Fog": 0.1373, "Mist": 0.3887, "Rain": 1.2434,
                     "DenseHaze": 1.0122, "MildHaze": 2.4563}
    T3_VIRTUAL_RANKS = {"Fog": 1, "Mist": 2, "Rain": 4, "DenseHaze": 3,
                        "MildHaze": 5}
    T3_REAL_AE = {"Fog": 0.58, "Mist": 1.25, "Rain": 1.13, "DenseHaze": 2.27,
                  "MildHaze": 3.61}
    T3_REAL_RANKS = {"Fog": 1, "Mist": 3, "Rain": 2, "DenseHaze": 4,
                     "MildHaze": 5}

    def test_rho_column_ranks(self):
        got = rank_items(sorted(self.T2_SIM.items()), "higher_better")
        assert got == self.T2_SIM_RANKS
        got = rank_items(sorted(self.T2_REAL.items()), "higher_better")
        assert got == self.T2_REAL_RANKS

    def test_angular_error_column_ranks(self):
        got = rank_items(sorted(self.T3_VIRTUAL_AE.items()), "lower_better")
        assert got == self.T3_VIRTUAL_RANKS
        got = rank_items(sorted(self.T3_REAL_AE.items()), "lower_better")
        assert got == self.T3_REAL_RANKS

    def test_all_equal_values_mean_rank(self):
        got = rank_items([("a", 1.0), ("b", 1.0), ("c", 1.0)], "higher_better")
        assert got == {"a": 2.0, "b": 2.0, "c": 2.0}

    def test_direction_flip_reverses(self):
        items = [("a", 0.1), ("b", 0.7), ("c", 0.4)]
        hi = rank_items(items, "higher_better")
        lo = rank_items(items, "lower_better")
        n = len(items)
        assert all(hi[k] + lo[k] == n + 1 for k, _ in items)

    def test_compare_identical(self):
        r = self.T2_SIM_RANKS
        cmp = compare_rankings(r, dict(r))
        assert cmp.correlation == 1.0
        assert all(d == 0 for d in cmp.deltas.values())

    def test_compare_reversed(self):
        a = {"x": 1, "y": 2, "z": 3}
        b = {"x": 3, "y": 2, "z": 1}
        assert compare_rankings(a, b).correlation == -1.0

    def test_compare_symmetric(self):
        a = {k: float(v) for k, v in self.T2_SIM_RANKS.items()}
        b = {k: float(v) for k, v in self.T2_REAL_RANKS.items()}
        assert compare_rankings(a, b).correlation == \
            compare_rankings(b, a).correlation

    def test_simulated_vs_real_context_ranking_positive(self):
        # the two published rank columns correlate positively
        cmp = compare_rankings(
            {k: float(v) for k, v in self.T2_SIM_RANKS.items()},
            {k: float(v) for k, v in self.T2_REAL_RANKS.items()},
        )
        from oracles import exact_spearman

        want = exact_spearman([self.T2_SIM_RANKS[k] for k in sorted(self.T2_SIM_RANKS)],
                              [self.T2_REAL_RANKS[k] for k in sorted(self.T2_REAL_RANKS)])
        assert cmp.correlation == pytest.approx(want, abs=1e-12)
        assert cmp.correlation > 0

    def test_label_mismatch(self):
        with pytest.raises(LabelMismatchError) as exc:
            compare_rankings({"a": 1, "b": 2}, {"a": 1, "c": 2})
        assert exc.value.only_a == ["b"]
        assert exc.value.only_b == ["c"]


#: sha256 of manifold.csv of the stock sweeps at their default seeds
STOCK_MANIFOLD_SHA256 = {
    "OC": "72f9ed6f935c604690b539529f8c045fe461ee7e6d1f5e1a3e27771e05747d57",
    "BC": "080abfa878171e735d3421afe30f1db0efd081bc9169777151cdee690d272429",
    "GC": "78d4a244563cb5028adba898102cd4671450323169f30c61810dabd99b9e1e5b",
    "PS": "bf4b25731094f573148de0302f322512613fed5503104cd23aa99eb517652883",
    "DS": "1effe65f54eeb6b4e03645664ce88bfd83b0906f4999aa04a375b6f56d9de651",
}


@pytest.fixture(scope="module", params=sorted(STOCK_MANIFOLD_SHA256))
def stock_sweep(request):
    """One fresh sweep of a stock protocol, shared by this module, and the
    Monte Carlo render passes it made."""
    passes = []

    def counted(*args, _fn=render._render_pass):
        passes.append(args)
        return _fn(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(render, "_render_pass", counted)
        manifold = run_sweep(default_protocol(request.param))
    return request.param, manifold, len(passes)


class TestSweep:
    def test_stock_manifold_bytes_are_pinned(self, stock_sweep):
        # a change that moves a cell value must bump CACHE_EPOCH and re-pin
        model, manifold, _ = stock_sweep
        digest = hashlib.sha256(manifold.to_csv().encode()).hexdigest()
        assert digest == STOCK_MANIFOLD_SHA256[model]

    def test_dry_run_renders_equal_the_passes_of_a_fresh_sweep(self, stock_sweep):
        model, _, passes = stock_sweep
        assert sweep_size(default_protocol(model))[1] == passes

    def test_oc_occlusion_compares_ids_with_its_reference(self, monkeypatch):
        # OC measures against the ambient reference without the dynamic
        # objects: a pixel is occluded where its object id differs from the
        # reference's, and there is no flow, so no motion boundary
        seen = []

        def collect(protocol, gt, *seed_parts, _fn=characterize._collect_patches):
            seen.append(gt)
            return _fn(protocol, gt, *seed_parts)
        monkeypatch.setattr(characterize, "_collect_patches", collect)
        p = tiny_oc_protocol()
        characterize._prepare_ramp(p)
        (gt,) = seen
        base = sample_scene(p.scene_config(), p.scene_seed)
        ref = render_ground_truth(characterize._ambient_only(
            characterize._without_dynamic_objects(base)), p.render_config())
        oracle = gt.object_id != ref.object_id
        assert oracle.any() and gt.flow is None
        assert np.array_equal(gt.occlusion, oracle)
        cmap = characterize.classify_contexts(gt, window=5)
        assert np.array_equal(cmap["Occluded"], oracle)
        assert "MotionBoundary" not in cmap.labels
        assert cmap["SameSurface"].any()

    @pytest.mark.parametrize("model", ["OC", "BC", "GC"])
    def test_each_frame_is_measured_once(self, model, monkeypatch):
        from invarsim import validators

        calls = {"to_gray": 0, "average_ranks": 0}
        for module, name in ((characterize, "to_gray"), (characterize, "average_ranks"),
                             (validators, "average_ranks")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        sampled = []

        def collect(*args, _fn=characterize._collect_patches):
            sampled.append(_fn(*args))
            return sampled[-1]
        monkeypatch.setattr(characterize, "_collect_patches", collect)
        p = tiny_oc_protocol(model=model)
        run_sweep(p)
        # the reference frame once, then one frame per level
        assert calls["to_gray"] == 1 + len(p.illumination_levels)
        # OC ranks the reference patches of each side once and its current
        # patches once per level, every context of a side in one call
        sides = {s for (_, s), ps in sampled[0].items() if ps}
        assert sides and len(p.contexts) > 1
        if model == "OC":
            assert calls["average_ranks"] == len(sides) * (1 + len(p.illumination_levels))
        else:
            assert calls["average_ranks"] == 0

    @pytest.mark.parametrize("model, exclude_occluded",
                             [("OC", False), ("BC", False), ("BC", True),
                              ("GC", False), ("GC", True)])
    def test_cells_equal_the_per_patch_measures(self, model, exclude_occluded, monkeypatch):
        # each side's patches are measured in one batch; every cell's values
        # must equal the one-patch definitions bit for bit
        from invarsim import validators
        from invarsim.patches import Patch
        from invarsim.validators import bc_variance, gc_variance, oc_measure

        seen = {"flow": [], "frames": [], "patches": [], "measured": []}

        def compute_flow(*args, _fn=characterize.compute_flow):
            flow, occl = _fn(*args)
            flow = flow.copy()
            flow[:2, :, 1] -= 3.0  # the top two rows move out of the frame
            seen["flow"].append((flow, occl))
            return flow, occl

        def collect(*args, _fn=characterize._collect_patches):
            patches = _fn(*args)
            for (context, s), ps in patches.items():
                if ps:  # one patch whose top rows leave the frame
                    ps.append(Patch(0, 0, s, context))
            seen["patches"].append(patches)
            return patches

        def reference(protocol, batches, frame, _fn=characterize._reference):
            seen["frames"].append(frame)
            return _fn(protocol, batches, frame)

        def pair_measure(protocol, batches, ref, cur, _fn=characterize._pair_measure):
            measured = _fn(protocol, batches, ref, cur)
            seen["measured"].append((cur, measured))
            return measured

        one_patch = []

        def population_variance(values, _fn=validators.population_variance):
            one_patch.append(values)
            return _fn(values)

        for name, fn in (("compute_flow", compute_flow), ("_collect_patches", collect),
                         ("_reference", reference), ("_pair_measure", pair_measure)):
            monkeypatch.setattr(characterize, name, fn)
        monkeypatch.setattr(validators, "population_variance", population_variance)
        scene = validation_scene_config()
        scene["dynamics"] = [[0, "objects.5.velocity", [0.5, 0.0, 0.0]]]
        p = tiny_oc_protocol(model=model, scene=scene, exclude_occluded=exclude_occluded,
                             contexts=["Diffuse", "ShadowBoundary", "Edge"])
        run_sweep(p)
        one_patch_calls = len(one_patch)
        (patches,), (ref_img,) = seen["patches"], seen["frames"]
        flow, occl = seen["flow"][0] if seen["flow"] else (None, None)
        cells = {key: ps for key, ps in patches.items() if ps}
        n_patches = sum(map(len, cells.values()))
        assert len({s for _, s in cells}) == 2 and len(cells) > 2
        assert len(seen["measured"]) == len(p.illumination_levels)
        for cur, measured in seen["measured"]:
            assert set(measured) == set(cells)
            for key, ps in cells.items():
                if model == "OC":
                    want = [oc_measure(q.extract(ref_img), q.extract(cur)) for q in ps]
                else:
                    kernel = bc_variance if model == "BC" else gc_variance
                    want = [kernel(ref_img, cur, flow, q, exclude_occluded=exclude_occluded,
                                   occlusion=occl) for q in ps]
                got, want = measured[key], np.asarray(want)
                assert got.shape == want.shape
                finite = ~np.isnan(want)
                assert np.array_equal(np.isnan(got), ~finite)
                assert got[finite].tobytes() == want[finite].tobytes()
        if model != "OC":
            # the sweep took the one-patch path of Trajectories.variances for
            # the patches with dropped pixels and the whole-batch path for the rest
            assert 0 < one_patch_calls < len(p.illumination_levels) * n_patches

    def test_ps_smoothness_energy_is_computed_once_per_speed(self, monkeypatch):
        from invarsim import validators

        calls = []

        def counted(I, _fn=validators.gradient_fields):
            calls.append(I.shape)
            return _fn(I)
        monkeypatch.setattr(validators, "gradient_fields", counted)
        p = default_protocol("PS")
        run_sweep(p)
        # one call per flow component (u, v) of each speed's energy field
        assert len(calls) == 2 * len(p.speed_scales)

    def test_identical_frames_give_rho_one(self):
        # sun at zero and no dynamic objects: current frame equals the
        # reference exactly when the sensor is noise-free
        scene = validation_scene_config()
        scene["objects"] = [o for o in scene["objects"] if o["class"] != "Vehicle"]
        p = tiny_oc_protocol(
            scene=scene,
            theta_w={"illumination_levels": [0.0]},
            theta_v={"patch_sizes": [9]},
            contexts=["Diffuse"],
            sensor={"sigma": 0.0, "bits": 8, "gamma": 1.0},
        )
        m = run_sweep(p)
        assert len(m.records) == 1
        assert m.records[0].mean == 1.0
        assert m.records[0].std == 0.0

    def test_cell_independence(self):
        full = tiny_oc_protocol()
        m_full = run_sweep(full)
        single = tiny_oc_protocol(theta_w={"illumination_levels": [3.0]},
                                  theta_v={"patch_sizes": [9]},
                                  contexts=["Diffuse"])
        m_one = run_sweep(single)
        ref = m_full.cell("Diffuse", {"illumination": 3.0}, {"s": 9})
        got = m_one.cell("Diffuse", {"illumination": 3.0}, {"s": 9})
        assert got.mean == ref.mean
        assert got.std == ref.std
        assert got.n == ref.n

    def test_threads_do_not_change_bytes(self):
        p = tiny_oc_protocol()
        a = run_sweep(p, threads=1).to_csv()
        b = run_sweep(p, threads=4).to_csv()
        assert a == b

    @pytest.mark.parametrize("threads", [1, 3])
    def test_cells_raise_the_first_failure_in_cell_order(self, threads):
        def cell(i):
            if i in (5, 2):
                raise ValueError(i)
            return i
        with pytest.raises(ValueError, match="^2$"):
            characterize._parallel_map(cell, range(8), threads, None)

    def test_empty_context_recorded_as_gap(self):
        p = tiny_oc_protocol(contexts=["Diffuse", "MotionBoundary"])
        m = run_sweep(p)  # OC has no flow, so MotionBoundary is unavailable
        gaps = [r for r in m.records if r.context == "MotionBoundary"]
        assert gaps and all(r.n == 0 for r in gaps)
        assert all(r.n > 0 for r in m.records if r.context == "Diffuse")

    def test_cell_cache_resume(self, tmp_path):
        p = tiny_oc_protocol()
        a = run_sweep(p, cache_dir=tmp_path / "cells").to_csv()
        # second run must reuse the cache and reproduce the same bytes
        b = run_sweep(p, cache_dir=tmp_path / "cells").to_csv()
        assert a == b
        assert any(tmp_path.joinpath("cells").iterdir())

    def test_truncated_cell_is_evaluated_again(self, tmp_path):
        p = tiny_oc_protocol()
        cells = tmp_path / "cells"
        fresh = run_sweep(p, cache_dir=cells).to_csv()
        cell = sorted(cells.glob("cell_*.json"))[0]
        whole = cell.read_bytes()
        cell.write_bytes(whole[: len(whole) // 2])  # an interrupted write
        assert run_sweep(p, cache_dir=cells).to_csv() == fresh
        assert cell.read_bytes() == whole
        assert not list(cells.glob("*.tmp"))

    def test_every_cell_is_one_document_shape(self, tmp_path):
        ds = ProtocolConfig.from_dict({
            "model": "DS", "scene": validation_scene_config(),
            "theta_w": {"weather_tags": ["Fog"], "density_scales": [0.3, 0.6, 1.0]},
            "render": {"width": 16, "height": 12, "spp": 1, "max_bounces": 0}})
        for name, p in (("OC", tiny_oc_protocol()), ("DS", ds)):
            run_sweep(p, cache_dir=tmp_path / name)
            for cell in (tmp_path / name).glob("cell_*.json"):
                assert set(json.loads(cell.read_text())) == {"records", "extra"}

    def test_cell_file_is_json_dumps_of_asdict(self, tmp_path, monkeypatch):
        stored = []

        def store(cache, coord, result, _fn=characterize.CellCache.store):
            _fn(cache, coord, result)
            stored.append((cache._path(coord), result))
        monkeypatch.setattr(characterize.CellCache, "store", store)
        scene = validation_scene_config()
        scene["dynamics"] = [[0, "objects.5.velocity", [0.5, 0.0, 0.0]]]
        protocols = {
            "OC": tiny_oc_protocol(),
            "PS": ProtocolConfig.from_dict({
                "model": "PS", "scene": scene,
                "theta_w": {"speed_scales": [1.0]}, "theta_v": {"patch_sizes": [9]},
                "contexts": ["SameSurface", "Homogeneous"],
                "render": {"width": 32, "height": 24, "spp": 1, "max_bounces": 0}}),
            "DS": ProtocolConfig.from_dict({
                "model": "DS", "scene": validation_scene_config(),
                "theta_w": {"weather_tags": ["Fog"], "density_scales": [0.3, 0.6, 1.0]},
                "render": {"width": 16, "height": 12, "spp": 1, "max_bounces": 0}}),
        }
        for name, p in protocols.items():
            stored.clear()
            run_sweep(p, cache_dir=tmp_path / name)
            assert stored
            for path, (records, extra) in stored:
                want = json.dumps({"records": [dataclasses.asdict(r) for r in records],
                                   "extra": extra}, sort_keys=True)
                assert path.read_text() == want

    def test_cell_in_an_older_document_shape_is_evaluated_again(self, tmp_path):
        p = tiny_oc_protocol()
        cells = tmp_path / "cells"
        fresh = run_sweep(p, cache_dir=cells).to_csv()
        cell = sorted(cells.glob("cell_*.json"))[0]
        whole = cell.read_bytes()
        doc = json.loads(whole)
        cell.write_text(json.dumps({"kind": "records", "records": doc["records"],
                                    "skipped": doc["extra"]}))
        assert run_sweep(p, cache_dir=cells).to_csv() == fresh
        assert cell.read_bytes() == whole

    def test_cache_key_carries_epoch_and_version(self, tmp_path, monkeypatch):
        p = tiny_oc_protocol()
        prefixes = {characterize.CellCache(tmp_path, p).prefix}
        monkeypatch.setattr(characterize, "CACHE_EPOCH", characterize.CACHE_EPOCH + 1)
        prefixes.add(characterize.CellCache(tmp_path, p).prefix)
        monkeypatch.setattr(characterize, "__version__", "0.0.0-other")
        prefixes.add(characterize.CellCache(tmp_path, p).prefix)
        assert len(prefixes) == 3

    def test_resuming_finished_sweeps_renders_nothing(self, tmp_path, monkeypatch):
        ps_scene = validation_scene_config()
        ps_scene["dynamics"] = [[0, "objects.5.velocity", [0.5, 0.0, 0.0]]]
        protocols = {
            "OC": tiny_oc_protocol(),
            "BC": tiny_oc_protocol(model="BC", scene=ps_scene),
            "PS": ProtocolConfig.from_dict({
                "model": "PS", "scene": ps_scene,
                "theta_w": {"speed_scales": [1.0]}, "theta_v": {"patch_sizes": [9]},
                "contexts": ["SameSurface"],
                "render": {"width": 32, "height": 24, "spp": 1, "max_bounces": 0}}),
            "DS": ProtocolConfig.from_dict({
                "model": "DS", "scene": validation_scene_config(),
                "theta_w": {"weather_tags": ["Fog"], "density_scales": [0.3, 0.6, 1.0]},
                "render": {"width": 16, "height": 12, "spp": 1, "max_bounces": 0}}),
        }
        fresh = {m: run_sweep(p, cache_dir=tmp_path / m).to_csv()
                 for m, p in protocols.items()}

        def forbidden(*args, **kwargs):
            raise AssertionError("a resumed finished sweep must not render")

        for name in ("render_frame", "render_setups",
                     "render_ground_truth", "compute_flow", "sample_scene",
                     "classify_contexts"):
            monkeypatch.setattr(characterize, name, forbidden)
        for m, p in protocols.items():
            assert run_sweep(p, cache_dir=tmp_path / m).to_csv() == fresh[m]

    def test_oc_marginal_has_interior_scale_optimum(self):
        # integrating the diffuse manifold over the ramp and maximizing over
        # the patch side gives a unique optimum away from the grid edges
        p = tiny_oc_protocol(
            theta_w={"illumination_levels": [1.0, 2.0, 3.0, 4.0, 5.0]},
            theta_v={"patch_sizes": [5, 9, 13]},
            contexts=["Diffuse"],
            patches_per_cell=6,
            render={"width": 64, "height": 48, "spp": 16, "max_bounces": 1},
        )
        m = run_sweep(p)
        table = marginalize(m, "illumination")
        by_s = {e.coords["s"]: e.value for e in table.entries
                if e.context == "Diffuse"}
        assert set(by_s) == {5, 9, 13}
        best = max(by_s, key=by_s.get)
        assert best == 9  # interior of the scale grid
        assert sorted(by_s.values())[-1] > sorted(by_s.values())[-2]

    @pytest.mark.parametrize("model,t", [("OC", 0), ("BC", 1)])
    def test_sun_ramp_two_passes_equal_full_renders(self, model, t):
        from invarsim.characterize import _sun_basis
        from invarsim.render import RadianceImage, apply_sensor, render_frame
        from invarsim.scenegen import SceneConfig, apply_dynamics, sample_scene

        p = dataclasses.replace(default_protocol(model), samples_per_pixel=4)
        rcfg = p.render_config()
        lit = apply_dynamics(sample_scene(SceneConfig.from_dict(p.scene), p.scene_seed), t)
        levels = [p.illumination_levels[i] for i in (0, 9, 19, 29, 39)]
        hdr0, hdr_sun = _sun_basis(lit, rcfg, levels)
        sun = next(i for i, l in enumerate(lit.lights) if l.kind == "directional")
        for level in levels:
            lights = list(lit.lights)
            lights[sun] = dataclasses.replace(lights[sun],
                                              intensity=lights[sun].intensity * level)
            full = render_frame(dataclasses.replace(lit, lights=tuple(lights)), rcfg)
            scfg = p.sensor_config("level", float(level).hex())
            two_pass = apply_sensor(RadianceImage(hdr0 + level * hdr_sun), scfg)
            assert np.array_equal(two_pass.data, apply_sensor(full, scfg).data)
            assert np.allclose(hdr0 + level * hdr_sun, full.data, rtol=1e-12, atol=0.0)

    def test_sun_ramp_needs_a_sun_only_off_level_one(self):
        sunless = dict(validation_scene_config(),
                       lights=[{"kind": "ambient", "intensity": 0.5}])
        with pytest.raises(ConfigError, match="directional light"):
            run_sweep(tiny_oc_protocol(scene=sunless))
        m = run_sweep(tiny_oc_protocol(scene=sunless,
                                       theta_w={"illumination_levels": [1.0]}))
        assert any(r.n > 0 for r in m.records)

    def test_ds_sweep_records_and_aux(self):
        p = ProtocolConfig.from_dict({
            "model": "DS",
            "scene": validation_scene_config(),
            "theta_w": {"weather_tags": ["Fog", "MildHaze"],
                        "density_scales": [0.3, 0.6, 1.0],
                        "sunny_tags": ["MildHaze"]},
            "contexts": [],
            "render": {"width": 32, "height": 24, "spp": 2, "max_bounces": 0},
        })
        m = run_sweep(p)
        assert [r.theta_w["weather"] for r in m.records] == ["Fog", "MildHaze"]
        assert all(r.mean >= 0 for r in m.records)
        assert len(m.aux["ds"]) == 2
        fog = next(i for i in m.aux["ds"] if i["weather"] == "Fog")
        assert 0.0 <= fog["fraction_below"] <= 1.0

    def test_ds_one_pass_equals_each_tag_rendered_alone(self):
        # a spot light too: the ambient-only tags keep it, and the sun, at
        # intensity 0 in the shared pass, and drop both when rendered alone
        scene_doc = validation_scene_config()
        scene_doc["lights"] = default_lights_doc() + [
            {"kind": "spot", "position": [0.0, 20.0, 0.0], "direction": [0.0, -1.0, 0.5],
             "cone_deg": 70.0, "intensity": 100.0}]
        p = ProtocolConfig.from_dict(dict(
            default_protocol("DS").to_dict(), scene=scene_doc,
            render={"width": 24, "height": 18, "spp": 3, "max_bounces": 1}))
        assert set(p.weather_tags) - set(p.sunny_tags)
        images = characterize._prepare_weather(p)
        base = sample_scene(p.scene_config(), p.scene_seed)
        assert any(l.kind == "spot" for l in base.lights)
        for tag in p.weather_tags:
            scene = base if tag in p.sunny_tags else characterize._ambient_only(base)
            assert len(images[tag]) == len(p.density_scales)
            for density, img in zip(p.density_scales, images[tag]):
                medium = WEATHER_PRESETS[tag].scaled(density)
                alone = render_frame(dataclasses.replace(scene, medium=medium),
                                     p.render_config())
                assert np.array_equal(img.data, alone.data), (tag, density)

    def test_render_pass_holds_one_accumulator_per_setup(self):
        # a 64x48 16-spp pass with the stock DS protocol's 25 setups peaks no
        # higher than with 1 setup plus 24 accumulators (64 * 48 * 3
        # float64 each) and a slack of one more: per-setup buffers held
        # through the bounces would add at least 24 per traced sample
        p = default_protocol("DS")
        scene = sample_scene(p.scene_config(), p.scene_seed)
        setups = [(WEATHER_PRESETS[tag].scaled(d), scene.lights)
                  for tag in p.weather_tags for d in p.density_scales]
        assert len(setups) == 25
        cfg = RenderConfig(width=64, height=48, samples_per_pixel=16, max_bounces=1,
                           rng_seed=3)
        accumulator = 64 * 48 * 3 * 8
        peaks = []
        tracemalloc.start()
        try:
            for some in (setups[:1], setups):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                images = render_setups(scene, some, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
                del images
        finally:
            tracemalloc.stop()
        assert 24 * accumulator <= peaks[1] - peaks[0] <= 25 * accumulator

    def test_ps_sweep_boundary_exceeds_surface(self):
        scene = validation_scene_config()
        scene["dynamics"] = [[0, "objects.5.velocity", [0.5, 0.0, 0.0]]]
        p = ProtocolConfig.from_dict({
            "model": "PS",
            "scene": scene,
            "theta_w": {"speed_scales": [1.0]},
            "theta_v": {"patch_sizes": [9]},
            "contexts": ["SameSurface", "MotionBoundary"],
            "patches_per_cell": 4,
            "render": {"width": 64, "height": 48, "spp": 1, "max_bounces": 0},
        })
        m = run_sweep(p)
        same = m.cell("SameSurface", {"speed": 1.0}, {"s": 9})
        boundary = m.cell("MotionBoundary", {"speed": 1.0}, {"s": 9})
        assert same.n > 0 and boundary.n > 0
        assert boundary.mean > same.mean


class TestIngest:
    def export_sequence(self, tmp_path, n_frames=3):
        scene_doc = validation_scene_config()
        scene_doc["dynamics"] = [[0, "objects.5.velocity", [0.5, 0.0, 0.0]]]
        from invarsim.render import RenderConfig, SensorConfig, apply_sensor, render_frame
        from invarsim.scenegen import SceneConfig, apply_dynamics, sample_scene
        from invarsim.imgio import write_ppm

        scene = sample_scene(SceneConfig.from_dict(scene_doc), seed=7)
        cfg = RenderConfig(width=64, height=48, samples_per_pixel=2,
                           max_bounces=0, rng_seed=3)
        frames = []
        for t in range(n_frames):
            hdr = render_frame(apply_dynamics(scene, t), cfg)
            ldr = apply_sensor(hdr, SensorConfig(gaussian_noise_sigma=0.0))
            write_ppm(tmp_path / f"frame_{t:03d}.ppm", ldr.data, maxval=255)
            frames.append(ldr.to_float())
        annotation = {
            "reference_frame": 0,
            "zero_flow": True,
            "patches": [
                {"x": 40, "y": 36, "width": 12, "height": 10, "context": "Diffuse"},
                {"x": 20, "y": 14, "width": 12, "height": 12, "context": "ShadowRegion"},
            ],
        }
        apath = tmp_path / "annotation.json"
        apath.write_text(json.dumps(annotation))
        return frames, apath

    def test_ingest_round_trip_matches_in_memory(self, tmp_path):
        frames, apath = self.export_sequence(tmp_path)
        p = ProtocolConfig.from_dict({
            "model": "OC",
            "source": "ingest",
            "ingest": {"directory": str(tmp_path), "annotation": str(apath)},
            "theta_v": {"patch_sizes": [9]},
            "contexts": ["Diffuse"],
            "patches_per_cell": 1,
        })
        m = run_sweep(p)
        from invarsim.patches import Patch
        from invarsim.validators import oc_measure

        rec = m.cell("Diffuse", {"frame": 1}, {"s": 9})
        patch = Patch(row=36, col=41, side=9, context="Diffuse")
        want = oc_measure(patch.extract(frames[0]), patch.extract(frames[1]))
        assert rec.mean == pytest.approx(want, abs=1e-12)

    def test_ingest_bc_zero_flow_path(self, tmp_path):
        frames, apath = self.export_sequence(tmp_path)
        p = ProtocolConfig.from_dict({
            "model": "BC",
            "source": "ingest",
            "ingest": {"directory": str(tmp_path), "annotation": str(apath)},
            "theta_v": {"patch_sizes": [9]},
            "contexts": ["Diffuse"],
            "patches_per_cell": 1,
        })
        m = run_sweep(p)
        assert m.aux["zero_flow"] is True
        recs = [r for r in m.records if r.n > 0]
        assert recs and all(r.mean >= 0.0 for r in recs)

    def test_ingest_validation_errors(self, tmp_path):
        frames, apath = self.export_sequence(tmp_path)
        bad = json.loads(apath.read_text())
        bad["patches"][0]["x"] = 60  # rectangle leaves the 64-wide frame
        bpath = tmp_path / "bad.json"
        bpath.write_text(json.dumps(bad))
        with pytest.raises(IngestError):
            ingest_sequence(tmp_path, bpath)

    @pytest.mark.parametrize("path", ["refrence_frame", "patches[1].contxt"])
    def test_unknown_annotation_key_rejected_with_its_path(self, tmp_path, path):
        frames, apath = self.export_sequence(tmp_path)
        doc = json.loads(apath.read_text())
        if path == "refrence_frame":
            doc["refrence_frame"] = 1
        else:
            doc["patches"][1]["contxt"] = "Diffuse"
        apath.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            ingest_sequence(tmp_path, apath)
        assert err.value.json_path == path

    @pytest.mark.parametrize("key,value,path", [
        ("reference_frame", "abc", "reference_frame"),
        ("reference_frame", True, "reference_frame"),
        ("reference_frame", 1.0, "reference_frame"),
        ("zero_flow", "no", "zero_flow"),
        ("zero_flow", 0, "zero_flow"),
        ("flo_files", "f", "flo_files"),  # one name per frame pair, but a string
        ("flo_files", [7], "flo_files[0]"),
        ("patches", [{"x": "0", "y": 0, "width": 5, "height": 5, "context": "Diffuse"}],
         "patches[0].x"),
        ("patches", [{"x": 0, "y": 0, "width": 5.5, "height": 5, "context": "Diffuse"}],
         "patches[0].width"),
        ("patches", [{"x": 0, "y": 0, "width": 5, "context": "Diffuse"}],
         "patches[0].height"),
    ], ids=["ref-str", "ref-bool", "ref-float", "zero_flow-str", "zero_flow-int",
            "flo_files-str", "flo_files-int-item", "patch-x-str", "patch-width-float",
            "patch-height-missing"])
    def test_bad_annotation_value_rejected_with_its_path(self, tmp_path, key, value, path):
        from invarsim.imgio import write_ppm

        for t in range(2):
            write_ppm(tmp_path / f"frame_{t}.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
        apath = tmp_path / "annotation.json"
        doc = {"patches": [{"x": 0, "y": 0, "width": 5, "height": 5, "context": "Diffuse"}]}
        doc[key] = value
        apath.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            ingest_sequence(tmp_path, apath)
        assert err.value.json_path == path

    def test_missing_frames(self, tmp_path):
        apath = tmp_path / "annotation.json"
        apath.write_text(json.dumps({"reference_frame": 0, "patches": []}))
        with pytest.raises(IngestError):
            ingest_sequence(tmp_path, apath)

    def test_ps_requires_flo_files(self, tmp_path):
        frames, apath = self.export_sequence(tmp_path)
        p = ProtocolConfig.from_dict({
            "model": "PS",
            "source": "ingest",
            "ingest": {"directory": str(tmp_path), "annotation": str(apath)},
            "theta_w": {"speed_scales": [1.0]},
            "contexts": ["SameSurface"],
        })
        with pytest.raises(IngestError):
            run_sweep(p)

    def test_ps_with_flo_files_fails_before_reading_frames(self, tmp_path, monkeypatch):
        frames, apath = self.export_sequence(tmp_path)
        doc = json.loads(apath.read_text())
        doc["flo_files"] = ["flow_0.flo", "flow_1.flo"]
        apath.write_text(json.dumps(doc))

        def forbidden(*args, **kwargs):
            raise AssertionError("an unsupported ingest model must fail up front")

        monkeypatch.setattr(characterize, "ingest_sequence", forbidden)
        p = ProtocolConfig.from_dict({
            "model": "PS",
            "source": "ingest",
            "ingest": {"directory": str(tmp_path), "annotation": str(apath)},
            "theta_w": {"speed_scales": [1.0]},
            "contexts": ["SameSurface"],
        })
        with pytest.raises(IngestError, match="PS ingestion"):
            run_sweep(p)


INGEST_CONTEXTS = ["Diffuse", "Edge", "ShadowRegion"]


def write_sequence(directory, n_frames, maxval=255, flow=False):
    """``n_frames`` random 64x48 frames, one rectangle per context of
    ``INGEST_CONTEXTS``, and (``flow``) one random .flo per frame pair;
    returns the annotation's path."""
    from invarsim.imgio import write_flo, write_ppm

    directory.mkdir(exist_ok=True)
    rng = np.random.default_rng(0)
    dtype = np.uint8 if maxval <= 255 else np.uint16
    for t in range(n_frames):
        img = rng.integers(0, maxval + 1, size=(48, 64, 3)).astype(dtype)
        write_ppm(directory / f"frame_{t:03d}.ppm", img, maxval=maxval)
    doc = {"reference_frame": 1, "zero_flow": not flow,
           "patches": [{"x": 3 + 20 * i, "y": 5 + 8 * i, "width": 14, "height": 12,
                        "context": c} for i, c in enumerate(INGEST_CONTEXTS)]}
    if flow:
        doc["flo_files"] = []
        for t in range(n_frames - 1):
            write_flo(directory / f"flow_{t}.flo", rng.normal(0.0, 1.5, size=(48, 64, 2)))
            doc["flo_files"].append(f"flow_{t}.flo")
    apath = directory / "annotation.json"
    apath.write_text(json.dumps(doc))
    return apath


def ingest_protocol(model, apath, **overrides):
    return ProtocolConfig.from_dict({
        "model": model, "source": "ingest", "contexts": INGEST_CONTEXTS,
        "theta_v": {"patch_sizes": [5, 9]},
        "ingest": {"directory": str(apath.parent), "annotation": str(apath)},
        **overrides})


class TestStreamedIngest:
    """An ingested sequence holds checked frame files; each cell decodes
    only the frames it measures."""

    @pytest.mark.parametrize("maxval", [255, 200, 1023, 65535])
    def test_frame_has_the_bits_of_astype_then_divide(self, tmp_path, maxval):
        from invarsim.imgio import read_ppm

        seq = ingest_sequence(tmp_path, write_sequence(tmp_path, 2, maxval=maxval))
        for i, path in enumerate(seq.frame_files):
            samples, got_maxval = read_ppm(path)
            want = samples.astype(np.float64) / got_maxval
            got = seq.frame(i)
            assert got.dtype == np.float64 and got.shape == (48, 64, 3)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("model, flow, maxval", [
        ("OC", False, 255), ("OC", False, 1023), ("BC", False, 255),
        ("BC", True, 255), ("GC", False, 200), ("GC", True, 255)])
    def test_cells_equal_the_per_patch_measures_of_decoded_frames(
            self, tmp_path, model, flow, maxval):
        # one patch per cell, so each cell's mean is its patch's value; the
        # frames are decoded as a whole-sequence load decoded them
        from invarsim.imgio import read_flo, read_ppm
        from invarsim.patches import Patch
        from invarsim.validators import bc_variance, gc_variance, oc_measure

        apath = write_sequence(tmp_path, 4, maxval=maxval, flow=flow)
        doc = json.loads(apath.read_text())
        frames = []
        for path in sorted(tmp_path.glob("*.ppm")):
            samples, mv = read_ppm(path)
            frames.append(samples.astype(np.float64) / mv)
        m = run_sweep(ingest_protocol(model, apath))
        frame_ids = ([i for i in range(4) if i != doc["reference_frame"]]
                     if model == "OC" else [1, 2, 3])
        assert len(m.records) == len(frame_ids) * 2 * len(INGEST_CONTEXTS)
        for idx in frame_ids:
            for rect in doc["patches"]:
                for s in (5, 9):
                    patch = Patch(row=rect["y"] + (rect["height"] - s) // 2,
                                  col=rect["x"] + (rect["width"] - s) // 2,
                                  side=s, context=rect["context"])
                    if model == "OC":
                        ref = frames[doc["reference_frame"]]
                        want = oc_measure(patch.extract(ref), patch.extract(frames[idx]))
                    else:
                        field = (read_flo(tmp_path / doc["flo_files"][idx - 1]) if flow
                                 else np.zeros((48, 64, 2)))
                        kernel = bc_variance if model == "BC" else gc_variance
                        want = kernel(frames[idx - 1], frames[idx], field, patch)
                    rec = m.cell(rect["context"], {"frame": idx}, {"s": s})
                    assert rec.n == 1
                    assert np.float64(rec.mean).tobytes() == np.float64(want).tobytes()

    @staticmethod
    def count_decodes(monkeypatch):
        """The paths of the frames decoded from now on, one entry per decode."""
        from invarsim import imgio

        decoded = []

        def read_ppm(path, _fn=imgio.read_ppm):
            decoded.append(path)
            return _fn(path)
        monkeypatch.setattr(imgio, "read_ppm", read_ppm)
        return decoded

    @pytest.mark.parametrize("flow", [False, True], ids=["zero-flow", "flo"])
    def test_loading_decodes_no_frame(self, tmp_path, monkeypatch, flow):
        decoded = self.count_decodes(monkeypatch)
        apath = write_sequence(tmp_path, 5, flow=flow)
        seq = ingest_sequence(tmp_path, apath)
        assert decoded == [] and len(seq.frame_files) == 5 and seq.shape == (48, 64)
        # OC: the reference once, then each other frame once; BC/GC: each
        # frame once, its features carried to the next frame's cell
        for model in ("OC", "BC", "GC"):
            decoded.clear()
            run_sweep(ingest_protocol(model, apath))
            assert sorted(decoded) == sorted(seq.frame_files), model

    @pytest.mark.parametrize("model", ["BC", "GC"])
    def test_threads_decode_one_frame_again_per_extra_run(self, tmp_path, monkeypatch,
                                                          model):
        # each thread sweeps one contiguous run of the 8 cells, so only the
        # first cell of a later run decodes its predecessor's frame again
        p = ingest_protocol(model, write_sequence(tmp_path, 9))
        decoded = self.count_decodes(monkeypatch)
        csv = {}
        for threads in (1, 2, 4):
            decoded.clear()
            calls = []
            m = run_sweep(p, threads=threads, progress=lambda *a: calls.append(a))
            assert len(decoded) == 9 + (threads - 1) and len(set(decoded)) == 9, threads
            assert calls == [(k, 8) for k in range(1, 9)], threads
            csv[threads] = m.to_csv()
        assert csv[2] == csv[1] and csv[4] == csv[1]

    @pytest.mark.parametrize("flow", [False, True], ids=["zero-flow", "flo"])
    def test_gc_takes_each_frames_gradients_once(self, tmp_path, monkeypatch, flow):
        calls = []

        def counted(I, _fn=characterize.gradient_fields):
            calls.append(I.shape)
            return _fn(I)
        monkeypatch.setattr(characterize, "gradient_fields", counted)
        run_sweep(ingest_protocol("GC", write_sequence(tmp_path, 6, flow=flow)))
        assert calls == [(48, 64)] * 6

    @pytest.mark.parametrize("model", ["BC", "GC"])
    @pytest.mark.parametrize("flow", [False, True], ids=["zero-flow", "flo"])
    def test_cells_alone_or_out_of_order_give_the_sweeps_bytes(
            self, tmp_path, monkeypatch, model, flow):
        p = ingest_protocol(model, write_sequence(tmp_path, 6, flow=flow))
        swept = {}
        for r in run_sweep(p).records:
            swept.setdefault(r.theta_w["frame"], []).append(repr(r))
        decoded = self.count_decodes(monkeypatch)

        def cells(order):
            state = characterize._prepare_ingest(p)
            for idx in order:
                records, _ = characterize._eval_frame(p, state, idx)
                assert sorted(map(repr, records)) == sorted(swept[idx]), idx
            return [int(path[-7:-4]) for path in decoded]

        # alone, with an empty carry: the frame before and the frame
        for idx in (1, 3, 5):
            decoded.clear()
            assert cells([idx]) == [idx - 1, idx]
        # out of order: only cell 2 follows the frame the last cell measured
        decoded.clear()
        assert cells([3, 1, 2, 5, 4]) == [2, 3, 0, 1, 2, 4, 5, 3, 4]

    @pytest.mark.parametrize("model", ["BC", "GC"])
    def test_carried_features_are_read_only(self, tmp_path, model):
        p = ingest_protocol(model, write_sequence(tmp_path, 3))
        state = characterize._prepare_ingest(p)
        characterize._eval_frame(p, state, 1)
        carry = state[-1]
        kept = carry.take(1)
        arrays = kept if isinstance(kept, tuple) else (kept,)
        assert len(arrays) == (2 if model == "GC" else 1)
        for array in arrays:
            assert array.shape == (48, 64) and not array.flags.writeable
        assert carry.take(1) is None  # taken: the thread keeps nothing

    @pytest.mark.parametrize("model", ["BC", "GC"])
    @pytest.mark.parametrize("flow", [False, True], ids=["zero-flow", "flo"])
    def test_more_threads_than_cores_give_the_bytes_of_one(
            self, tmp_path, model, flow):
        # each worker carries its own features: the workers interleave the
        # cells, so a cell whose predecessor ran on another worker decodes both
        import os
        import threading

        from invarsim.cli import main

        apath = write_sequence(tmp_path / "seq", 9, flow=flow)
        ppath = tmp_path / "protocol.json"
        ppath.write_text(json.dumps(ingest_protocol(model, apath).to_dict()))
        outputs = {}

        def sweep(threads):
            out_dir = tmp_path / f"threads_{threads}"
            assert main(["sweep", str(ppath), "--out-dir", str(out_dir),
                         "--threads", str(threads)]) == 0
            outputs[threads] = {path.name: path.read_bytes() for path in out_dir.iterdir()
                                if path.name != "manifest.json"}

        many = max(4, (os.cpu_count() or 1) + 1)
        for threads in (1, many):
            worker = threading.Thread(target=sweep, args=(threads,), daemon=True)
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive(), f"--threads {threads} did not finish in 60 s"
        assert sorted(outputs) == [1, many]
        assert "manifold.csv" in outputs[1] and "report.json" in outputs[1]
        assert outputs[many] == outputs[1]

    @pytest.mark.parametrize("model", ["OC", "GC"])
    def test_sweep_peak_memory_does_not_grow_with_length(self, tmp_path, model):
        # a whole-sequence load holds every decoded frame until the sweep
        # ends: 28 frames more would add 28 frames to the peak
        frame_bytes = 48 * 64 * 3 * 8
        peaks = []
        for n_frames in (4, 32):
            apath = write_sequence(tmp_path / f"seq{n_frames}", n_frames)
            p = ingest_protocol(model, apath, contexts=["Diffuse", "Edge"],
                                theta_v={"patch_sizes": [9]})
            run_sweep(p)  # lazy imports and caches settle outside the peak
            tracemalloc.start()
            try:
                run_sweep(p)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < frame_bytes, peaks

    def test_commented_headers_sweep_like_plain_ones(self, tmp_path):
        plain = write_sequence(tmp_path / "plain", 3)
        commented = write_sequence(tmp_path / "commented", 3)
        for path in commented.parent.glob("*.ppm"):
            raw = path.read_bytes()
            path.write_bytes(raw.replace(b"P6\n", b"P6\n# CREATOR: GIMP PNM Filter Version 1.1\n", 1))
        want = run_sweep(ingest_protocol("GC", plain)).to_csv()
        assert run_sweep(ingest_protocol("GC", commented)).to_csv() == want

    @pytest.mark.parametrize("header", [b"P6\n64 48\n0\n", b"P6\n64 48\n70000\n"],
                             ids=["maxval-0", "maxval-70000"])
    def test_maxval_out_of_range_rejected_at_load(self, tmp_path, header):
        apath = write_sequence(tmp_path, 3)
        bad = tmp_path / "frame_001.ppm"
        bad.write_bytes(header + bad.read_bytes()[len(b"P6\n64 48\n255\n"):] * 2)
        with pytest.raises(ConfigError, match="maxval") as err:
            ingest_sequence(tmp_path, apath)
        assert str(bad) in str(err.value)
        with pytest.raises(ConfigError, match="maxval"):
            run_sweep(ingest_protocol("OC", apath))

    def test_sample_above_maxval_rejected_when_decoded(self, tmp_path):
        apath = write_sequence(tmp_path, 3, maxval=200)
        bad = tmp_path / "frame_002.ppm"
        raw = bytearray(bad.read_bytes())
        raw[-1] = 201
        bad.write_bytes(bytes(raw))
        with pytest.raises(ConfigError, match="exceeds maxval 200") as err:
            run_sweep(ingest_protocol("OC", apath))
        assert str(bad) in str(err.value)

    def test_mis_sized_flo_rejected_at_load(self, tmp_path):
        from invarsim.imgio import write_flo

        apath = write_sequence(tmp_path, 3, flow=True)
        bad = tmp_path / "flow_1.flo"
        write_flo(bad, np.zeros((10, 14, 2)))
        with pytest.raises(IngestError) as err:
            ingest_sequence(tmp_path, apath)
        assert err.value.json_path == "flo_files[1]"
        assert str(bad) in str(err.value)
        assert "14x10" in str(err.value) and "64x48" in str(err.value)

    @pytest.mark.parametrize("content", [None, b"\x00" * 16, b"\x00" * 5],
                             ids=["missing", "bad-magic", "short-header"])
    def test_missing_or_unreadable_flo_rejected_at_load(self, tmp_path, content):
        apath = write_sequence(tmp_path, 3, flow=True)
        bad = tmp_path / "flow_0.flo"
        if content is None:
            bad.unlink()
        else:
            bad.write_bytes(content)
        with pytest.raises(IngestError) as err:
            ingest_sequence(tmp_path, apath)
        assert err.value.json_path == "flo_files[0]"
        assert str(bad) in str(err.value)

    @pytest.mark.parametrize("broken, message", [
        ("frame_size", "frame size mismatch"), ("truncated", "truncated PPM payload"),
        ("rectangle", "outside 64x48 frame"), ("flo_count", "one .flo per")])
    def test_load_errors_keep_their_messages(self, tmp_path, broken, message):
        from invarsim.imgio import write_ppm

        apath = write_sequence(tmp_path, 3, flow=True)
        doc = json.loads(apath.read_text())
        if broken == "frame_size":
            write_ppm(tmp_path / "frame_002.ppm", np.zeros((24, 32, 3), dtype=np.uint8))
        elif broken == "truncated":
            path = tmp_path / "frame_001.ppm"
            path.write_bytes(path.read_bytes()[:-1])
        elif broken == "rectangle":
            doc["patches"][0]["x"] = 60
        else:
            doc["flo_files"].pop()
        apath.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=message):
            ingest_sequence(tmp_path, apath)


class TestHeatmap:
    def test_svg_structure(self):
        m = TestMarginalize().constant_manifold()
        svg = heatmap_svg(m, "illumination", "s")["Diffuse"]
        assert svg.startswith("<svg")
        assert svg.count("<rect") == 8
        assert heatmap_svg(m, "illumination", "s")["Diffuse"] == svg

    def test_gap_cells_gray(self):
        records = [
            CriterionRecord("OC", "Diffuse", {"illumination": 0.0}, {"s": 5},
                            1.0, 0.0, 3),
            CriterionRecord("OC", "Diffuse", {"illumination": 1.0}, {"s": 5},
                            float("nan"), float("nan"), 0),
        ]
        m = Manifold("OC", ("illumination",), ("s",), records)
        svg = heatmap_svg(m, "illumination", "s")["Diffuse"]
        assert "#b0b0b0" in svg

    def test_svgs_equal_one_context_at_a_time(self, tmp_path):
        oc = run_sweep(tiny_oc_protocol())
        ps = run_sweep(ProtocolConfig.from_dict({
            "model": "PS",
            "scene": validation_scene_config(),
            "theta_w": {"speed_scales": [0.5, 1.0, 2.0]},
            "theta_v": {"patch_sizes": [5, 9]},
            "contexts": ["SameSurface", "MotionBoundary", "Diffuse"],
            "patches_per_cell": 2,
            "render": {"width": 64, "height": 48, "spp": 1, "max_bounces": 0},
        }))
        _, apath = TestIngest().export_sequence(tmp_path, n_frames=4)
        # side 13 fits neither rectangle and Occluded has none: gaps
        ingested = run_sweep(ProtocolConfig.from_dict({
            "model": "OC",
            "source": "ingest",
            "ingest": {"directory": str(tmp_path), "annotation": str(apath)},
            "theta_v": {"patch_sizes": [5, 9, 13]},
            "contexts": ["Diffuse", "ShadowRegion", "Occluded"],
            "patches_per_cell": 1,
        }))
        assert ingested.missing and len(ingested.missing) < len(ingested.records)
        for m, x_axis in ((oc, "illumination"), (ps, "speed"), (ingested, "frame")):
            svgs = heatmap_svg(m, x_axis, "s")
            assert list(svgs) == sorted({r.context for r in m.records})
            for context, svg in svgs.items():
                assert svg == loop_heatmap_svg(m, context, x_axis, "s")


class TestContextRanking:
    def test_rank_manifold_contexts_direction(self):
        records = [
            CriterionRecord("OC", "Diffuse", {"illumination": 1.0}, {"s": 5},
                            0.9, 0.0, 3),
            CriterionRecord("OC", "Occluded", {"illumination": 1.0}, {"s": 5},
                            0.2, 0.0, 3),
        ]
        m = Manifold("OC", ("illumination",), ("s",), records)
        assert rank_manifold_contexts(m) == {"Diffuse": 1.0, "Occluded": 2.0}
        records = [dataclasses.replace(r, model="BC") for r in records]
        m2 = Manifold("BC", ("illumination",), ("s",), records)
        assert rank_manifold_contexts(m2) == {"Diffuse": 2.0, "Occluded": 1.0}

    def test_rank_by_theta_w_axis(self):
        records = [
            CriterionRecord("DS", "All", {"weather": w}, {}, v, 0.0, n)
            for w, v, n in (("Fog", 0.1, 9), ("Mist", 0.4, 9), ("Rain", 0.2, 0))
        ]
        m = Manifold("DS", ("weather",), (), records)
        assert rank_manifold_contexts(m, by="weather") == {"Fog": 1.0, "Mist": 2.0}
        assert rank_manifold_contexts(m) == {"All": 1.0}
        with pytest.raises(ConfigError, match="no complete cells to rank by speed"):
            rank_manifold_contexts(m, by="speed")
