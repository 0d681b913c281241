import dataclasses
import hashlib
import json
import math

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
)
from invarsim.errors import ConfigError, IngestError, LabelMismatchError
from invarsim.scenegen import validation_scene_config


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
    ], ids=["spp-0", "bits-40", "sigma-a", "patches_per_cell-six", "exclude_occluded-str",
            "levels-not-a-list", "levels-str", "patch_sizes-float", "scene-unknown-key"])
    def test_bad_value_rejected_at_parse_with_its_path(self, overrides, path):
        with pytest.raises(ConfigError) as err:
            tiny_oc_protocol(**overrides)
        assert err.value.json_path == path

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


#: sha256 of manifold.csv of the stock ramp sweeps at their default seeds
STOCK_MANIFOLD_SHA256 = {
    "OC": "72f9ed6f935c604690b539529f8c045fe461ee7e6d1f5e1a3e27771e05747d57",
    "BC": "080abfa878171e735d3421afe30f1db0efd081bc9169777151cdee690d272429",
    "GC": "78d4a244563cb5028adba898102cd4671450323169f30c61810dabd99b9e1e5b",
}


@pytest.fixture(scope="module", params=sorted(STOCK_MANIFOLD_SHA256))
def stock_sweep(request):
    """One fresh sweep of a stock ramp protocol, shared by this module."""
    return request.param, run_sweep(default_protocol(request.param))


class TestSweep:
    def test_stock_manifold_bytes_are_pinned(self, stock_sweep):
        # a change that moves a cell value must bump CACHE_EPOCH and re-pin
        model, manifold = stock_sweep
        digest = hashlib.sha256(manifold.to_csv().encode()).hexdigest()
        assert digest == STOCK_MANIFOLD_SHA256[model]

    @pytest.mark.parametrize("model", ["OC", "BC", "GC"])
    def test_each_frame_is_measured_once(self, model, monkeypatch):
        from invarsim import characterize

        calls = {"to_gray": 0, "average_ranks": 0}
        for name in calls:
            def counted(*args, _fn=getattr(characterize, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(characterize, name, counted)
        p = tiny_oc_protocol(model=model)
        m = run_sweep(p)
        # the reference frame once, then one frame per level
        assert calls["to_gray"] == 1 + len(p.illumination_levels)
        # OC ranks each cell's reference patches once and its current
        # patches once per level, all patches of a cell in one call
        if model == "OC":
            assert 0 < calls["average_ranks"] <= 2 * len(m.records)
        else:
            assert calls["average_ranks"] == 0

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
        import invarsim.characterize as characterize

        p = tiny_oc_protocol()
        prefixes = {characterize.CellCache(tmp_path, p).prefix}
        monkeypatch.setattr(characterize, "CACHE_EPOCH", characterize.CACHE_EPOCH + 1)
        prefixes.add(characterize.CellCache(tmp_path, p).prefix)
        monkeypatch.setattr(characterize, "__version__", "0.0.0-other")
        prefixes.add(characterize.CellCache(tmp_path, p).prefix)
        assert len(prefixes) == 3

    def test_resuming_finished_sweeps_renders_nothing(self, tmp_path, monkeypatch):
        import invarsim.characterize as characterize

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

        for name in ("render_frame", "render_media", "render_ground_truth",
                     "compute_flow", "sample_scene", "classify_contexts"):
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
        import invarsim.characterize as characterize

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


class TestHeatmap:
    def test_svg_structure(self):
        m = TestMarginalize().constant_manifold()
        svg = heatmap_svg(m, "Diffuse", "illumination", "s")
        assert svg.startswith("<svg")
        assert svg.count("<rect") == 8
        assert heatmap_svg(m, "Diffuse", "illumination", "s") == svg

    def test_gap_cells_gray(self):
        records = [
            CriterionRecord("OC", "Diffuse", {"illumination": 0.0}, {"s": 5},
                            1.0, 0.0, 3),
            CriterionRecord("OC", "Diffuse", {"illumination": 1.0}, {"s": 5},
                            float("nan"), float("nan"), 0),
        ]
        m = Manifold("OC", ("illumination",), ("s",), records)
        svg = heatmap_svg(m, "Diffuse", "illumination", "s")
        assert "#b0b0b0" in svg


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
