import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from invarsim.characterize import (
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
import invarsim.cli as cli
import invarsim.render as render
from invarsim.errors import ConfigError, IngestError, LabelMismatchError
from invarsim.render import RenderConfig, render_frame, render_ground_truth, render_setups
from invarsim.scene import WEATHER_PRESETS
from invarsim.scenegen import default_lights_doc, sample_scene, validation_scene_config
from oracles import Row, loop_heatmap_svg, manifold_of, rows_of


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

    @pytest.mark.parametrize("block,key,values,repeated", [
        (None, "contexts", ["Diffuse", "Edge", "Diffuse"], "'Diffuse'"),
        ("theta_v", "patch_sizes", [5, 9, 5], "5"),
        ("theta_w", "illumination_levels", [1, 2.5, 1.0], "1.0"),  # 1 and 1.0 are one value
        ("theta_w", "weather_tags", ["Fog", "Rain", "Fog"], "'Fog'"),
        ("theta_w", "density_scales", [0.2, 0.0, 0.6, -0.0], "-0.0"),
        ("theta_w", "speed_scales", [0.5, 0.5], "0.5"),
        ("theta_w", "sunny_tags", ["MildHaze", "MildHaze"], "'MildHaze'"),
    ])
    def test_repeated_value_rejected_naming_it(self, block, key, values, repeated):
        # a repeat would repeat its rows, which a marginal adds once per repeat
        doc = default_protocol("DS").to_dict()
        (doc if block is None else doc[block])[key] = values
        path = key if block is None else f"{block}.{key}"
        with pytest.raises(ConfigError) as err:
            ProtocolConfig.from_dict(doc)
        assert err.value.json_path == path
        assert str(err.value) == f"{path}: {repeated} is listed twice"

    @pytest.mark.parametrize("block,key,values,message", [
        (None, "contexts", [["Diffuse"], ["Diffuse"]], "unknown name ['Diffuse']"),
        ("theta_v", "patch_sizes", [4, 4], "patch size 4 must be an odd integer >= 3"),
    ])
    def test_a_repeated_bad_value_keeps_its_own_error(self, block, key, values, message):
        doc = default_protocol("DS").to_dict()
        (doc if block is None else doc[block])[key] = values
        with pytest.raises(ConfigError) as err:
            ProtocolConfig.from_dict(doc)
        assert str(err.value).endswith(f": {message}")

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
            Row("Diffuse", {"illumination": 1.0}, {"s": 5}, 0.99, 0.001, 6),
            Row("Diffuse", {"illumination": 2.0}, {"s": 5}, 0.98, 0.002, 6),
            Row("Edge", {"illumination": 1.0}, {"s": 5}, float("nan"), float("nan"), 0),
            Row("Edge", {"illumination": 2.0}, {"s": 5}, 0.5, 0.1, 6),
        ]
        return manifold_of("OC", ("illumination",), ("s",), records)

    def test_header_schema(self):
        m = self.make_manifold()
        assert m.to_csv().splitlines()[0] == \
            "model,context,theta_w_illumination,theta_v_s,mean_E,std_E,n"

    def test_round_trip(self):
        m = self.make_manifold()
        text = m.to_csv()
        again = Manifold.from_csv(text)
        assert again.to_csv() == text
        assert again.missing == 1

    def test_byte_determinism(self):
        assert self.make_manifold().to_csv() == self.make_manifold().to_csv()

    def test_coordinates_are_read_by_column_name(self):
        m = Manifold.from_csv("model,context,theta_v_s,theta_w_illumination,mean_E,std_E,n\n"
                              "OC,Diffuse,5,2.5,0.9,0.01,4\n")
        assert {a: c.tolist() for a, c in m.coords.items()} == {"illumination": [2.5], "s": [5]}
        assert m.to_csv().splitlines()[1] == "OC,Diffuse,2.5,5,0.9,0.01,4"

    def test_rows_of_two_models_are_rejected_naming_the_line(self):
        text = ("model,context,theta_w_speed,theta_v_s,mean_E,std_E,n\n"
                "PS,SameSurface,1.0,5,0.5,0.1,4\n"
                "OC,Diffuse,1.0,5,0.9,0.01,4\n")
        with pytest.raises(ConfigError) as exc:
            Manifold.from_csv(text)
        assert str(exc.value) == "manifold CSV line 3: model 'OC', the first row's is 'PS'"

    def test_missing_cells_preserved_not_interpolated(self):
        m = Manifold.from_csv(self.make_manifold().to_csv())
        gap = [r for r in rows_of(m) if r.n == 0]
        assert len(gap) == 1
        assert math.isnan(gap[0].mean)


class TestMarginalize:
    def constant_manifold(self, value=2.0, n_levels=4):
        records = [
            Row("Diffuse", {"illumination": float(i)}, {"s": s}, value, 0.0, 3)
            for i in range(n_levels)
            for s in (5, 9)
        ]
        return manifold_of("OC", ("illumination",), ("s",), records)

    def test_constant_manifold_sums_to_n_v(self):
        m = self.constant_manifold(value=2.0, n_levels=4)
        table = marginalize(m, "illumination")
        assert len(table) == 2
        for e in table:
            assert e["value"] == pytest.approx(8.0)
            assert e["complete"]

    def test_fubini_property(self):
        rng = np.random.default_rng(5)
        records = [
            Row("Diffuse", {"illumination": float(i)}, {"s": s},
                float(rng.uniform(0, 1)), 0.0, 3)
            for i in range(5) for s in (5, 9, 13)
        ]
        m = manifold_of("OC", ("illumination",), ("s",), records)
        total = sum(r.mean for r in rows_of(m))
        t1 = marginalize(m, "illumination")
        assert sum(e["value"] for e in t1) == pytest.approx(total)
        t2 = marginalize(m, "s")
        assert sum(e["value"] for e in t2) == pytest.approx(total)

    def test_gap_propagates(self):
        m = self.constant_manifold()
        records = rows_of(m)
        records[0] = records[0]._replace(mean=float("nan"), n=0)
        m2 = manifold_of("OC", ("illumination",), ("s",), records)
        table = marginalize(m2, "illumination")
        gap_entry = [e for e in table if not e["complete"]]
        assert len(gap_entry) == 1
        assert math.isnan(gap_entry[0]["value"])

    def test_unknown_axis_raises(self):
        with pytest.raises(ConfigError):
            marginalize(self.constant_manifold(), "weather")


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
        assert cmp["correlation"] == 1.0
        assert all(d == 0 for d in cmp["deltas"].values())

    def test_compare_reversed(self):
        a = {"x": 1, "y": 2, "z": 3}
        b = {"x": 3, "y": 2, "z": 1}
        assert compare_rankings(a, b)["correlation"] == -1.0

    def test_compare_symmetric(self):
        a = {k: float(v) for k, v in self.T2_SIM_RANKS.items()}
        b = {k: float(v) for k, v in self.T2_REAL_RANKS.items()}
        assert compare_rankings(a, b)["correlation"] == \
            compare_rankings(b, a)["correlation"]

    def test_simulated_vs_real_context_ranking_positive(self):
        # the two published rank columns correlate positively
        cmp = compare_rankings(
            {k: float(v) for k, v in self.T2_SIM_RANKS.items()},
            {k: float(v) for k, v in self.T2_REAL_RANKS.items()},
        )
        from oracles import exact_spearman

        want = exact_spearman([self.T2_SIM_RANKS[k] for k in sorted(self.T2_SIM_RANKS)],
                              [self.T2_REAL_RANKS[k] for k in sorted(self.T2_REAL_RANKS)])
        assert cmp["correlation"] == pytest.approx(want, abs=1e-12)
        assert cmp["correlation"] > 0

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


#: sha256 of manifold.csv of the stock PS sweep at speeds 0 and 1 and 48x36
PS_GAP_MANIFOLD_SHA256 = "e68a411eb9dafb2a558b5a3b263f7ebb729c1882857d4daddbbd39523562c026"


#: sha256 of manifold.csv of the stock BC and GC sweeps at three sun levels
#: with ``exclude_occluded`` set
EXCLUDE_OCCLUDED_MANIFOLD_SHA256 = {
    "BC": "d1e119473e33bfed70e6b71d585c3d37b468d4864f9ab9f71bec4f79246820c9",
    "GC": "11d135fe9eb2959066602aede45e9ced13147adfb03e988fc7460992a9f10410",
}


def output_digests(manifold, tmp_path, capsys):
    """sha256 of what the CLI makes of ``manifold``: the ``sweep`` outputs but
    its manifest (manifold.csv, each heatmap, report.json), the ``report``
    outputs of that manifold.csv but its manifest, and the stdout of
    ``compare`` of it with itself, by context (DS: by weather, since its
    one context "All" is too few labels to correlate)."""
    from invarsim import cli

    def sha256(data):
        return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()

    sweep = tmp_path / "sweep"
    sweep.mkdir()
    csv = sweep / "manifold.csv"
    csv.write_text(manifold.to_csv())
    cli._emit_heatmaps(manifold, sweep)
    (sweep / "report.json").write_text(
        json.dumps(cli._report(manifold), sort_keys=True, indent=1) + "\n")
    assert cli.main(["report", str(csv), "--out-dir", str(tmp_path / "report")]) == 0
    digests = {f"{path.parent.name}/{path.name}": sha256(path.read_bytes())
               for path in sorted(tmp_path.glob("*/*")) if path.name != "manifest.json"}
    capsys.readouterr()
    by = "weather" if manifold.model == "DS" else "context"
    assert cli.main(["compare", str(csv), str(csv), "--by", by]) == 0
    digests[f"compare --by {by}"] = sha256(capsys.readouterr().out)
    return digests


#: ``output_digests`` of each stock sweep
STOCK_OUTPUT_SHA256 = {
    "BC": {
        "report/heatmap_Corner.svg": "3f41949b1f92a72e69e4b81cb20df3383547c51d14b76e15e6e6548d1d6d1d97",
        "report/heatmap_Diffuse.svg": "2a68f0465f4b586ac6628660ea9b950b3ae5509304303b7927d135b172f230af",
        "report/heatmap_Edge.svg": "f87ad7c42b5360f0290e407b957da773577d2163e7cc674f52b90e702be9c844",
        "report/heatmap_Homogeneous.svg": "a2f810446cccb1b49548d2c4dbead449207e047584e5087547f266058f4d4449",
        "report/heatmap_Occluded.svg": "43b19acbc351c93e687e9e2e915ec5b146b349d6f33c2ca868dddbb796b6f97a",
        "report/heatmap_ShadowBoundary.svg": "5655c5292a9a11c83f2658f3d3cce08f77d6de84d5c6fdd58b28ff8a6c6cc4a0",
        "report/heatmap_ShadowRegion.svg": "6f94f3ed88221d497c1c0728723c434f4fdb3c3e212d5e98dc7a702d9af6a23b",
        "report/heatmap_Specular.svg": "5f090cb5d64134970c6c9e696eb828765cb559e69d3adb71f2e8ff73037c408a",
        "report/report.json": "1f9a64909a2501a79afe427f02ba7b3c3a31e004de6a3e3523c31b7855f9b5b4",
        "sweep/heatmap_Corner.svg": "3f41949b1f92a72e69e4b81cb20df3383547c51d14b76e15e6e6548d1d6d1d97",
        "sweep/heatmap_Diffuse.svg": "2a68f0465f4b586ac6628660ea9b950b3ae5509304303b7927d135b172f230af",
        "sweep/heatmap_Edge.svg": "f87ad7c42b5360f0290e407b957da773577d2163e7cc674f52b90e702be9c844",
        "sweep/heatmap_Homogeneous.svg": "a2f810446cccb1b49548d2c4dbead449207e047584e5087547f266058f4d4449",
        "sweep/heatmap_Occluded.svg": "43b19acbc351c93e687e9e2e915ec5b146b349d6f33c2ca868dddbb796b6f97a",
        "sweep/heatmap_ShadowBoundary.svg": "5655c5292a9a11c83f2658f3d3cce08f77d6de84d5c6fdd58b28ff8a6c6cc4a0",
        "sweep/heatmap_ShadowRegion.svg": "6f94f3ed88221d497c1c0728723c434f4fdb3c3e212d5e98dc7a702d9af6a23b",
        "sweep/heatmap_Specular.svg": "5f090cb5d64134970c6c9e696eb828765cb559e69d3adb71f2e8ff73037c408a",
        "sweep/manifold.csv": "080abfa878171e735d3421afe30f1db0efd081bc9169777151cdee690d272429",
        "sweep/report.json": "dabf36a88dae140b6ce70d1175db06c0c23fb0be89df2cdd9d465928e08d7879",
        "compare --by context": "f3ca11ed83daa68cc5eaa576e133f839c8974263329f403832e78ad5d724cf09",
    },
    "DS": {
        "report/report.json": "30fff2918fee513ef4925ecb4ee70eee954a0a5a2ae84ba7dbcc276eb1144f17",
        "sweep/manifold.csv": "1effe65f54eeb6b4e03645664ce88bfd83b0906f4999aa04a375b6f56d9de651",
        "sweep/report.json": "6f18037538fd36bec7f86b2ef8482c563357f0af8b338e41afbfd20086d67396",
        "compare --by weather": "ad422e9420e26cfcd09c12125549bc0ce02b21f04e00d34230164ce955bde15d",
    },
    "GC": {
        "report/heatmap_Corner.svg": "228a01d73c323414eb88694ee8eae2bf5b8f9962fde4543ddf7a192db75b3a3c",
        "report/heatmap_Diffuse.svg": "55465a00a5401251ea42632e14254a897dbb71b7028ee24b062e32088d2e87c8",
        "report/heatmap_Edge.svg": "6a8a285cb9550da1a907b7e0f51db6e05fd22899dd84985cdeb641220e945e54",
        "report/heatmap_Homogeneous.svg": "33d0588db0c130ee6e8988a29abcef4de1ff77c0ed8f14e2c983b8b859efcb7c",
        "report/heatmap_Occluded.svg": "0e179c3f87929fd25a201a8f6c5b55f1e547675f2f7836b68dca3f13f28fa407",
        "report/heatmap_ShadowBoundary.svg": "776f01e7b105d33b79c27a80b9502f2686017999f4de9cfdfc8aabf4d0a1471b",
        "report/heatmap_ShadowRegion.svg": "daeecdd47c586fe37f9a7b4c550bb40dfb5227c1f02447c3a83dc84beb2c36d9",
        "report/heatmap_Specular.svg": "f840aeaa0d6f2b60d2c9dc20f939d7e80a6d6ade5327c9a5dd94728a4b2183a0",
        "report/report.json": "d5fcd9fc77fce9cc76c79ae5c84dd5fdc147644f8d43cbcf309574fb4f11b565",
        "sweep/heatmap_Corner.svg": "228a01d73c323414eb88694ee8eae2bf5b8f9962fde4543ddf7a192db75b3a3c",
        "sweep/heatmap_Diffuse.svg": "55465a00a5401251ea42632e14254a897dbb71b7028ee24b062e32088d2e87c8",
        "sweep/heatmap_Edge.svg": "6a8a285cb9550da1a907b7e0f51db6e05fd22899dd84985cdeb641220e945e54",
        "sweep/heatmap_Homogeneous.svg": "33d0588db0c130ee6e8988a29abcef4de1ff77c0ed8f14e2c983b8b859efcb7c",
        "sweep/heatmap_Occluded.svg": "0e179c3f87929fd25a201a8f6c5b55f1e547675f2f7836b68dca3f13f28fa407",
        "sweep/heatmap_ShadowBoundary.svg": "776f01e7b105d33b79c27a80b9502f2686017999f4de9cfdfc8aabf4d0a1471b",
        "sweep/heatmap_ShadowRegion.svg": "daeecdd47c586fe37f9a7b4c550bb40dfb5227c1f02447c3a83dc84beb2c36d9",
        "sweep/heatmap_Specular.svg": "f840aeaa0d6f2b60d2c9dc20f939d7e80a6d6ade5327c9a5dd94728a4b2183a0",
        "sweep/manifold.csv": "78d4a244563cb5028adba898102cd4671450323169f30c61810dabd99b9e1e5b",
        "sweep/report.json": "2c2b3763e8b11f873fee9099874235dbc99aa2b9e9e05097408d2fe65b9b3afd",
        "compare --by context": "d5324c07fcd00507834bfcd187879469b14a77590c73247f6ed43684e3b5e391",
    },
    "OC": {
        "report/heatmap_Corner.svg": "d4ee1750f25604aac36f1fc45288554f3b19cb735e7227f161d9b7d8659dbb7b",
        "report/heatmap_Diffuse.svg": "08389dd0d7eaaec7c748f8bef970acf3ca42caf647cc054bc502a9a7b89a8325",
        "report/heatmap_Edge.svg": "7f03d8fd27086ea69e0b66767ea7fa9b8949ad511f02d4840449fd6b3f83425d",
        "report/heatmap_Homogeneous.svg": "034d4a38d872c991378777b04a81ea8f23a80e0b32473fae446af4c38408785a",
        "report/heatmap_Occluded.svg": "3ef3ffb725e2bccd068c49f058c21aa61b93731c32d6a1928d704c801c63d182",
        "report/heatmap_ShadowBoundary.svg": "c244fd9d4956852bbed551955591a7585b34f7cf7624aec5792aeab771ee6fde",
        "report/heatmap_ShadowRegion.svg": "4d1e627f1f3e33570bbe7e7cffac806d53b3d6a519bae1689494fdea705474c4",
        "report/heatmap_Specular.svg": "8d7e554a60fe6337b4e36dc27d598923433c7d1331618ea419f827bed504638b",
        "report/report.json": "6432199c3c9e43bb0d6df76b7ff98e706f0912eb6cd51c4e4cc51b05baa96452",
        "sweep/heatmap_Corner.svg": "d4ee1750f25604aac36f1fc45288554f3b19cb735e7227f161d9b7d8659dbb7b",
        "sweep/heatmap_Diffuse.svg": "08389dd0d7eaaec7c748f8bef970acf3ca42caf647cc054bc502a9a7b89a8325",
        "sweep/heatmap_Edge.svg": "7f03d8fd27086ea69e0b66767ea7fa9b8949ad511f02d4840449fd6b3f83425d",
        "sweep/heatmap_Homogeneous.svg": "034d4a38d872c991378777b04a81ea8f23a80e0b32473fae446af4c38408785a",
        "sweep/heatmap_Occluded.svg": "3ef3ffb725e2bccd068c49f058c21aa61b93731c32d6a1928d704c801c63d182",
        "sweep/heatmap_ShadowBoundary.svg": "c244fd9d4956852bbed551955591a7585b34f7cf7624aec5792aeab771ee6fde",
        "sweep/heatmap_ShadowRegion.svg": "4d1e627f1f3e33570bbe7e7cffac806d53b3d6a519bae1689494fdea705474c4",
        "sweep/heatmap_Specular.svg": "8d7e554a60fe6337b4e36dc27d598923433c7d1331618ea419f827bed504638b",
        "sweep/manifold.csv": "72f9ed6f935c604690b539529f8c045fe461ee7e6d1f5e1a3e27771e05747d57",
        "sweep/report.json": "b8fb20031b84aee2ac53230498d9a26ee2eb80f4297a4e341ccf4dc21970f443",
        "compare --by context": "24580559885ede632e422dc490164931e6711349d6d9a3fd2a26943715452c65",
    },
    "PS": {
        "report/heatmap_MotionBoundary.svg": "3877394369688bc3e84b10b059d664ea67e5b65c7ac7ae2cf2fff4852871793f",
        "report/heatmap_SameSurface.svg": "00eec3f977d67477020aafa88906aa9cc5c01d11585553786ef7ab09bea9f2a3",
        "report/report.json": "fed58f5b23e4e83ab045c6ae97a1a781fc22cd374a69014408bcb2abb98f90cf",
        "sweep/heatmap_MotionBoundary.svg": "3877394369688bc3e84b10b059d664ea67e5b65c7ac7ae2cf2fff4852871793f",
        "sweep/heatmap_SameSurface.svg": "00eec3f977d67477020aafa88906aa9cc5c01d11585553786ef7ab09bea9f2a3",
        "sweep/manifold.csv": "bf4b25731094f573148de0302f322512613fed5503104cd23aa99eb517652883",
        "sweep/report.json": "fce3947c3dd6ae11d4f6f6311f7323c6e961394f7e61ce5905e92621add291d1",
        "compare --by context": "b6e8dd9735fd82e526cfdcba6769294e6ab1f04f5e8204d4c6cf47294f8a1276",
    },
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
        # a change that moves a cell value must re-pin
        model, manifold, _ = stock_sweep
        digest = hashlib.sha256(manifold.to_csv().encode()).hexdigest()
        assert digest == STOCK_MANIFOLD_SHA256[model]

    def test_stock_outputs_are_pinned(self, stock_sweep, tmp_path, capsys):
        model, manifold, _ = stock_sweep
        assert output_digests(manifold, tmp_path, capsys) == STOCK_OUTPUT_SHA256[model]

    def test_stock_ps_renders_its_t0_ground_truth_once(self, monkeypatch):
        # four speeds render t = 1..3 each and share t = 0: 13 ground truths
        calls = []

        def counted(*args, _fn=characterize.render_ground_truth):
            calls.append(args)
            return _fn(*args)
        monkeypatch.setattr(characterize, "render_ground_truth", counted)
        manifold = run_sweep(default_protocol("PS"))
        assert len(calls) == 13
        digest = hashlib.sha256(manifold.to_csv().encode()).hexdigest()
        assert digest == STOCK_MANIFOLD_SHA256["PS"]

    def test_each_ps_speed_keeps_its_own_gaps(self):
        # a speed samples its patches from its own ground truth: at speed 0
        # nothing moves, so MotionBoundary is a gap there, and is measured
        # at speed 1
        doc = default_protocol("PS").to_dict()
        doc["theta_w"]["speed_scales"] = [0.0, 1.0]
        doc["render"].update(width=48, height=36)
        manifold = run_sweep(ProtocolConfig.from_dict(doc))
        for s in doc["theta_v"]["patch_sizes"]:
            for context, speed, measured in (("MotionBoundary", 0.0, False),
                                             ("MotionBoundary", 1.0, True),
                                             ("SameSurface", 0.0, True),
                                             ("SameSurface", 1.0, True)):
                n = manifold.n[manifold.cell(context, speed=speed, s=s)]
                assert (n > 0) == measured, (context, speed, s)
        digest = hashlib.sha256(manifold.to_csv().encode()).hexdigest()
        assert digest == PS_GAP_MANIFOLD_SHA256

    @pytest.mark.parametrize("model", sorted(EXCLUDE_OCCLUDED_MANIFOLD_SHA256))
    def test_exclude_occluded_manifold_bytes_are_pinned(self, model):
        # rows that drop occluded or out-of-frame pixels are measured with
        # the rows that keep every pixel
        doc = default_protocol(model).to_dict()
        doc["exclude_occluded"] = True
        doc["theta_w"]["illumination_levels"] = [1.0, 3.0, 5.0]
        manifold = run_sweep(ProtocolConfig.from_dict(doc))
        digest = hashlib.sha256(manifold.to_csv().encode()).hexdigest()
        assert digest == EXCLUDE_OCCLUDED_MANIFOLD_SHA256[model]

    def test_frames_are_measured_on_the_sensor_scale_at_any_bit_depth(self):
        # a frame's levels are read over the sensor's own maxval, so the
        # cell means of one scene barely move with the bit depth
        means = {}
        for bits in (8, 10, 12):
            doc = default_protocol("BC").to_dict()
            doc["theta_w"]["illumination_levels"] = [1.0, 3.0]
            doc["theta_v"]["patch_sizes"] = [5]
            doc["render"].update(width=32, height=24, spp=2)
            doc["sensor"] = {"sigma": 0.0, "bits": bits}
            means[bits] = run_sweep(ProtocolConfig.from_dict(doc)).mean
        for bits in (8, 10):
            got, want = means[bits], means[12]
            ok = np.isfinite(got) & np.isfinite(want) & (want != 0)
            assert ok.any()
            assert np.median(np.abs(got[ok] - want[ok]) / np.abs(want[ok])) < 0.05

    def test_dry_run_renders_equal_the_passes_of_a_fresh_sweep(self, stock_sweep):
        model, _, passes = stock_sweep
        assert sweep_size(default_protocol(model))[1] == passes

    def test_oc_occlusion_compares_ids_with_its_reference(self, monkeypatch):
        # OC measures against the ambient reference without the dynamic
        # objects: a pixel is occluded where its object id differs from the
        # reference's, and there is no flow, so no motion boundary
        seen = []

        def collect(protocol, gt, occlusion, flow, *seed_parts,
                    _fn=characterize._collect_patches):
            seen.append((gt, occlusion, flow))
            return _fn(protocol, gt, occlusion, flow, *seed_parts)
        monkeypatch.setattr(characterize, "_collect_patches", collect)
        p = tiny_oc_protocol()
        characterize._prepare_ramp(p)
        ((gt, occlusion, flow),) = seen
        base = sample_scene(p.scene_config(), p.scene_seed)
        ref = render_ground_truth(characterize._ambient_only(
            characterize._without_dynamic_objects(base)), p.render_config())
        oracle = gt.object_id != ref.object_id
        assert oracle.any() and flow is None
        assert np.array_equal(occlusion, oracle)
        cmap = characterize.classify_contexts(gt, window=5, occlusion=occlusion)
        assert np.array_equal(cmap["Occluded"], oracle)
        assert "MotionBoundary" not in cmap
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
        p = tiny_oc_protocol(model=model, theta_w={"illumination_levels": [1.0, 2.0, 3.0]})
        # a block of one level, and one block of every level
        for block_values, blocks in ((1, len(p.illumination_levels)), (1 << 40, 1)):
            monkeypatch.setattr(characterize, "_BLOCK_VALUES", block_values)
            for name in calls:
                calls[name] = 0
            sampled.clear()
            run_sweep(p)
            # the reference frame once, then one frame per level
            assert calls["to_gray"] == 1 + len(p.illumination_levels)
            # OC ranks the reference patches of each side once and its current
            # patches once per block, every context and level of a side in one call
            sides = {s for (_, s), ps in sampled[0].items() if ps}
            assert sides and len(p.contexts) > 1
            if model == "OC":
                assert calls["average_ranks"] == len(sides) * (1 + blocks)
            else:
                assert calls["average_ranks"] == 0

    @pytest.mark.parametrize("model, exclude_occluded",
                             [("OC", False), ("BC", False), ("BC", True),
                              ("GC", False), ("GC", True)])
    def test_cells_equal_the_per_patch_measures(self, model, exclude_occluded, monkeypatch):
        # each side's patches are measured in one batch; every cell's values
        # must equal the one-patch definitions bit for bit
        from invarsim.patches import Patch
        from invarsim.validators import bc_variance, gc_variance, oc_measure

        seen = {"flow": [], "frames": [], "patches": [], "measured": [], "levels": []}

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

        def features(protocol, frame, _fn=characterize._features):
            # the reference frame first, then each level's
            seen["frames"].append(frame)
            return _fn(protocol, frame)

        def block_stats(protocol, block, keys, counts, values,
                        _fn=characterize._block_stats):
            # each cell's values, split back into its keys
            for cell, level in zip(np.reshape(values, (len(block), -1)), block):
                split = np.split(cell, np.cumsum(counts)[:-1])
                seen["measured"].append(dict(zip(keys, split)))
                seen["levels"].append(level)
            return _fn(protocol, block, keys, counts, values)

        kept = []

        def residuals(*args, _fn=characterize.residuals):
            rows, keep = _fn(*args)
            kept.append(keep)
            return rows, keep

        for name, fn in (("compute_flow", compute_flow), ("_collect_patches", collect),
                         ("_features", features), ("_block_stats", block_stats),
                         ("residuals", residuals)):
            monkeypatch.setattr(characterize, name, fn)
        scene = validation_scene_config()
        scene["dynamics"] = [[0, "objects.5.velocity", [0.5, 0.0, 0.0]]]
        p = tiny_oc_protocol(model=model, scene=scene, exclude_occluded=exclude_occluded,
                             contexts=["Diffuse", "ShadowBoundary", "Edge"])
        run_sweep(p)
        (patches,), (ref_img, *frames) = seen["patches"], seen["frames"]
        flow, occl = seen["flow"][0] if seen["flow"] else (None, None)
        cells = {key: ps for key, ps in patches.items() if ps}
        n_patches = sum(map(len, cells.values()))
        assert len({s for _, s in cells}) == 2 and len(cells) > 2
        assert seen["levels"] == list(p.illumination_levels) and len(frames) == len(seen["levels"])
        for cur, measured in zip(frames, seen["measured"]):
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
            # some of the measured rows dropped pixels, and some kept every one
            full = np.concatenate([keep.all(axis=1) for keep in kept])
            assert len(full) == len(p.illumination_levels) * n_patches
            assert 0 < full.sum() < len(full)

    def test_ps_cells_equal_the_per_patch_measure(self, monkeypatch):
        # each side's patches are measured in one call; every cell's values
        # must equal ps_variance patch by patch, bit for bit, and land on
        # their own (context, side)
        from invarsim.patches import Patch
        from invarsim.validators import ps_variance, smoothness_energy

        flows, seen_patches, measured = [], [], []

        def compute_flow(*args, _fn=characterize.compute_flow):
            flow, occl = _fn(*args)
            if len(flows) % 3 == 0:
                # a speed's first pair gives its flow_prev: a ripple makes
                # every patch's energy vary, and NaN leaves NaN energy in
                # the patch at (0, 0), so its rows keep fewer values
                rows, cols = np.indices(flow.shape[:2])
                flow = flow + 0.01 * np.sin(0.7 * rows + 0.3 * cols)[:, :, None]
                flow[1:3, 1:3] = np.nan
            flows.append(flow)
            return flow, occl

        def collect(*args, _fn=characterize._collect_patches):
            patches = _fn(*args)
            for (context, s), ps in patches.items():
                if ps:
                    ps.append(Patch(0, 0, s, context))
            seen_patches.append(patches)
            return patches

        def block_stats(protocol, block, keys, counts, values,
                        _fn=characterize._block_stats):
            (cell,) = np.reshape(values, (len(block), -1))
            measured.append(dict(zip(keys, np.split(cell, np.cumsum(counts)[:-1]))))
            return _fn(protocol, block, keys, counts, values)

        for name, fn in (("compute_flow", compute_flow), ("_collect_patches", collect),
                         ("_block_stats", block_stats)):
            monkeypatch.setattr(characterize, name, fn)
        scene = validation_scene_config()
        scene["dynamics"] = [[0, "objects.5.velocity", [0.5, 0.0, 0.0]]]
        p = ProtocolConfig.from_dict({
            "model": "PS", "scene": scene,
            "theta_w": {"speed_scales": [1.0, 2.0]},
            "theta_v": {"patch_sizes": [5, 9]},
            "contexts": ["SameSurface", "MotionBoundary", "Occluded"],
            "patches_per_cell": 3,
            "render": {"width": 64, "height": 48, "spp": 1, "max_bounces": 0},
        })
        run_sweep(p)
        assert len(flows) == 3 * len(p.speed_scales)
        assert len(seen_patches) == len(measured) == len(p.speed_scales)
        for i, (patches, cell) in enumerate(zip(seen_patches, measured)):
            flow_prev, flow, flow_next = flows[3 * i : 3 * i + 3]
            cells = {key: ps for key, ps in patches.items() if ps}
            assert len({s for _, s in cells}) == 2 and len(cells) > 2
            assert set(cell) == set(cells)
            # no two cells measure the same values, so a cell's values
            # filed under another key cannot go unnoticed
            assert len({v.tobytes() for v in cell.values()}) == len(cell)
            corner = smoothness_energy(flow_prev, flow, flow_next)[1:4, 1:4]
            assert 0 < np.isfinite(corner).sum() < corner.size
            for key, ps in cells.items():
                want = np.array([ps_variance(flow_prev, flow, flow_next, q) for q in ps])
                assert cell[key].tobytes() == want.tobytes(), key

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
        assert len(rows_of(m)) == 1
        assert rows_of(m)[0].mean == 1.0
        assert rows_of(m)[0].std == 0.0

    def test_cell_independence(self):
        full = tiny_oc_protocol()
        m_full = run_sweep(full)
        single = tiny_oc_protocol(theta_w={"illumination_levels": [3.0]},
                                  theta_v={"patch_sizes": [9]},
                                  contexts=["Diffuse"])
        m_one = run_sweep(single)
        ref = rows_of(m_full)[m_full.cell("Diffuse", illumination=3.0, s=9)]
        got = rows_of(m_one)[m_one.cell("Diffuse", illumination=3.0, s=9)]
        assert got.mean == ref.mean
        assert got.std == ref.std
        assert got.n == ref.n

    def test_threads_do_not_change_bytes(self):
        p = tiny_oc_protocol()
        a = run_sweep(p).to_csv()
        b = run_sweep(p).to_csv()
        assert a == b

    def test_threads_flag_starts_no_thread(self, tmp_path, monkeypatch):
        # every cell is evaluated on the thread that called the sweep,
        # whatever --threads says
        import threading

        from invarsim import cli

        p = tiny_oc_protocol(theta_w={"illumination_levels": [0.5, 1.0, 1.5, 2.0,
                                                              3.0, 4.0, 5.0]})
        ppath = tmp_path / "protocol.json"
        ppath.write_text(json.dumps(p.to_dict()))
        evaluated, calls = [], []

        def block_stats(protocol, block, *args, _fn=characterize._block_stats):
            evaluated.extend((threading.get_ident(), level) for level in block)
            return _fn(protocol, block, *args)

        def start(thread):
            raise AssertionError("the sweep started a thread")
        monkeypatch.setattr(characterize, "_block_stats", block_stats)
        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(cli, "run_sweep", lambda protocol, **kwargs: run_sweep(
            protocol, progress=lambda *a: calls[-1].append(a), **kwargs))
        outputs = {}
        for threads in (1, 4):
            evaluated.clear()
            calls.append([])
            out_dir = tmp_path / f"threads_{threads}"
            assert cli.main(["sweep", str(ppath), "--out-dir", str(out_dir),
                             "--threads", str(threads)]) == 0
            assert evaluated == [(threading.get_ident(), level)
                                 for level in p.illumination_levels], threads
            outputs[threads] = {str(path.relative_to(out_dir)): path.read_bytes()
                                for path in out_dir.rglob("*")
                                if path.is_file() and path.name != "manifest.json"}
        assert calls == [[(k, 7) for k in range(1, 8)]] * 2
        assert "manifold.csv" in outputs[1] and outputs[4] == outputs[1]

    def test_cells_raise_the_first_failure_in_cell_order(self):
        def cells(state, run):
            for i in run:
                if i in (5, 2):
                    raise ValueError(i)
                yield i
        with pytest.raises(ValueError, match="^2$"):
            characterize._sweep_cells(range(8), lambda: None, cells, None, None)

    class DictCache:
        """A ``CellCache`` stand-in that keeps its cells in a dict."""

        def __init__(self, cells=()):
            self.cells = dict(cells)
            self.stored = []

        def load(self, coord):
            return self.cells.get(coord)

        def store(self, coord, result):
            self.cells[coord] = result
            self.stored.append(coord)

    def test_cells_before_a_failure_are_stored_and_counted(self):
        def cells(state, run):
            for c in run:
                if c == 3:
                    raise ValueError(c)
                yield c * 10
        cache, calls = self.DictCache(), []
        with pytest.raises(ValueError, match="^3$"):
            characterize._sweep_cells(range(8), lambda: None, cells, cache,
                                      lambda *a: calls.append(a))
        assert cache.stored == [0, 1, 2]
        assert cache.cells == {0: 0, 1: 10, 2: 20}
        assert calls == [(1, 8), (2, 8), (3, 8)]

    def test_missing_cells_are_evaluated_as_one_run_in_order(self):
        # cached cells are loaded, not evaluated; the rest go to one
        # evaluate call, after one prepare
        prepared, runs, calls = [], [], []

        def prepare():
            prepared.append(None)
            return "state"

        def cells(state, run):
            runs.append((state, list(run)))
            for c in run:
                yield c * 10
        cache = self.DictCache({c: -c for c in range(0, 300, 2)})
        results, state = characterize._sweep_cells(
            range(300), prepare, cells, cache, lambda *a: calls.append(a))
        odd = list(range(1, 300, 2))
        assert prepared == [None] and state == "state"
        assert runs == [("state", odd)]
        assert results == [c * 10 if c % 2 else -c for c in range(300)]
        assert cache.stored == odd
        assert calls == [(k, 150) for k in range(1, 151)]

    def test_run_sweep_takes_no_threads(self):
        import inspect

        assert "threads" not in inspect.signature(run_sweep).parameters
        with pytest.raises(TypeError):
            run_sweep(tiny_oc_protocol(), threads=1)

    def test_a_half_cached_sweep_evaluates_only_the_missing_cells(self, tmp_path,
                                                                  monkeypatch):
        p = tiny_oc_protocol(theta_w={"illumination_levels": [0.5, 1.0, 1.5, 2.0,
                                                              3.0, 4.0, 5.0]})
        cells = tmp_path / "cells"
        fresh = run_sweep(p, cache_dir=cells).to_csv()
        files = {path.name: path.read_bytes() for path in cells.glob("cell_*.json")}
        evaluated, stored = [], []
        block_stats = characterize._block_stats
        store = characterize.CellCache.store

        def counted_stats(protocol, block, *args):
            evaluated.extend(block)
            return block_stats(protocol, block, *args)

        def counted_store(cache, coord, result):
            stored.append(coord)
            store(cache, coord, result)
        monkeypatch.setattr(characterize, "_block_stats", counted_stats)
        monkeypatch.setattr(characterize.CellCache, "store", counted_store)
        cache = characterize.CellCache(cells, p)
        missing = list(p.illumination_levels[::2])
        for level in missing:
            cache._path(level).unlink()
        calls = []
        m = run_sweep(p, cache_dir=cells, progress=lambda *a: calls.append(a))
        assert evaluated == missing and stored == missing
        assert calls == [(k, 4) for k in range(1, 5)]
        assert m.to_csv() == fresh
        assert {path.name: path.read_bytes()
                for path in cells.glob("cell_*.json")} == files

    def test_empty_context_recorded_as_gap(self):
        p = tiny_oc_protocol(contexts=["Diffuse", "MotionBoundary"])
        m = run_sweep(p)  # OC has no flow, so MotionBoundary is unavailable
        gaps = [r for r in rows_of(m) if r.context == "MotionBoundary"]
        assert gaps and all(r.n == 0 for r in gaps)
        assert all(r.n > 0 for r in rows_of(m) if r.context == "Diffuse")

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
                assert set(json.loads(cell.read_text())) == {"mean", "std", "n", "extra"}

    def test_cell_file_is_json_dumps_of_its_columns(self, tmp_path, monkeypatch):
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
            for path, ((mean, std, n), extra) in stored:
                want = json.dumps({"mean": mean, "std": std, "n": n, "extra": extra},
                                  sort_keys=True)
                assert path.read_text() == want

    @pytest.mark.parametrize("shape", ["epoch-2", "kind-skipped"])
    def test_cell_in_an_older_document_shape_is_evaluated_again(self, tmp_path, shape):
        # an older document under a current cell name is a miss: the cell is
        # evaluated again and overwritten, and the sweep keeps its bytes
        p = tiny_oc_protocol()
        cells = tmp_path / "cells"
        fresh = run_sweep(p, cache_dir=cells).to_csv()
        level = p.illumination_levels[0]
        cell = characterize.CellCache(cells, p)._path(level)
        whole = cell.read_bytes()
        doc = json.loads(whole)
        records = [{"model": p.model, "context": context, "theta_w": {"illumination": level},
                    "theta_v": {"s": s}, "mean": mean, "std": std, "n": n}
                   for (context, s), mean, std, n in zip(characterize._cell_keys(p),
                                                         doc["mean"], doc["std"], doc["n"])]
        cell.write_text(json.dumps(
            {"records": records, "extra": doc["extra"]} if shape == "epoch-2" else
            {"kind": "records", "records": records, "skipped": doc["extra"]}))
        assert run_sweep(p, cache_dir=cells).to_csv() == fresh
        assert cell.read_bytes() == whole

    def test_cells_are_keyed_by_the_package_source(self, tmp_path):
        # a sweep resumed from a copy of the package hits every cell; from a
        # copy with one byte appended to one module it misses every cell and
        # stores it again under a new name, with the same bytes
        out, protocol = tmp_path / "sweep", tmp_path / "protocol.json"
        protocol.write_text(json.dumps(tiny_oc_protocol().to_dict()))
        assert cli.main(["sweep", str(protocol), "--out-dir", str(out)]) == 0
        manifold = (out / "manifold.csv").read_bytes()

        def resume(name, edit=b""):
            copy = tmp_path / name / "invarsim"
            shutil.copytree(Path(characterize.__file__).parent, copy,
                            ignore=shutil.ignore_patterns("__pycache__"))
            with open(copy / "imgio.py", "ab") as f:
                f.write(edit)
            script = ("import sys, invarsim.cli as cli; "
                      "assert cli.__file__.startswith(sys.argv[1]), cli.__file__; "
                      "sys.exit(cli.main(sys.argv[2:]))")
            run = subprocess.run(
                [sys.executable, "-c", script, str(copy), "sweep", str(protocol),
                 "--out-dir", str(out)], cwd=tmp_path, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(copy.parent)}, timeout=120)
            assert run.returncode == 0, run.stderr
            assert (out / "manifold.csv").read_bytes() == manifold
            return ({p.name: p.read_bytes() for p in (out / "cells").iterdir()},
                    json.loads((out / "manifest.json").read_text())["source_sha256"])

        cells = {p.name: p.read_bytes() for p in (out / "cells").iterdir()}
        assert cells and resume("same") == (cells, characterize.source_fingerprint())
        edited, fingerprint = resume("edited", b"\n")
        assert fingerprint != characterize.source_fingerprint()
        new = {name: doc for name, doc in edited.items() if name not in cells}
        assert edited == {**cells, **new}
        # cell_<key prefix>_<coordinate tag>.json: each coordinate once more
        by_tag = lambda docs: {name.rsplit("_", 1)[1]: doc for name, doc in docs.items()}
        assert len(new) == len(cells) and by_tag(new) == by_tag(cells)

    def test_no_source_fingerprint_at_set_up(self, tmp_path):
        # reading the package source is left to the first cell cache: not
        # at import, and not when a protocol is read
        script = textwrap.dedent("""
            import invarsim, invarsim.cli
            from invarsim.characterize import MODELS, ProtocolConfig, default_protocol
            from invarsim.characterize import source_fingerprint
            for model in MODELS:
                ProtocolConfig.from_dict(default_protocol(model).to_dict())
            assert source_fingerprint.cache_info().currsize == 0
        """)
        src = str(Path(characterize.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr

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
        by_s = {e["coords"]["s"]: e["value"] for e in table
                if e["context"] == "Diffuse"}
        assert set(by_s) == {5, 9, 13}
        best = max(by_s, key=by_s.get)
        assert best == 9  # interior of the scale grid
        assert sorted(by_s.values())[-1] > sorted(by_s.values())[-2]

    @pytest.mark.parametrize("model,t", [("OC", 0), ("BC", 1)])
    def test_sun_ramp_two_passes_equal_full_renders(self, model, t):
        from invarsim.characterize import _sun_basis
        from invarsim.render import apply_sensor, render_frame
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
            scfg = p.sensor_config()
            seed = characterize._mix(p.sensor_seed, "level", float(level).hex())
            two_pass, _ = apply_sensor(hdr0 + level * hdr_sun, scfg, seed)
            assert np.array_equal(two_pass, apply_sensor(full, scfg, seed)[0])
            assert np.allclose(hdr0 + level * hdr_sun, full, rtol=1e-12, atol=0.0)

    def test_sun_ramp_needs_a_sun_only_off_level_one(self):
        sunless = dict(validation_scene_config(),
                       lights=[{"kind": "ambient", "intensity": 0.5}])
        with pytest.raises(ConfigError, match="directional light"):
            run_sweep(tiny_oc_protocol(scene=sunless))
        m = run_sweep(tiny_oc_protocol(scene=sunless,
                                       theta_w={"illumination_levels": [1.0]}))
        assert any(r.n > 0 for r in rows_of(m))

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
        assert [r.theta_w["weather"] for r in rows_of(m)] == ["Fog", "MildHaze"]
        assert all(r.mean >= 0 for r in rows_of(m))
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
                assert np.array_equal(img, alone), (tag, density)

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
        same = rows_of(m)[m.cell("SameSurface", speed=1.0, s=9)]
        boundary = rows_of(m)[m.cell("MotionBoundary", speed=1.0, s=9)]
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
            levels, maxval = apply_sensor(hdr, SensorConfig(gaussian_noise_sigma=0.0), 0)
            write_ppm(tmp_path / f"frame_{t:03d}.ppm", levels, maxval=255)
            frames.append(levels.astype(np.float64) / float(maxval))
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

        rec = rows_of(m)[m.cell("Diffuse", frame=1, s=9)]
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
        recs = [r for r in rows_of(m) if r.n > 0]
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


#: ``output_digests`` of each ingest sweep of six ``write_sequence`` frames
INGEST_OUTPUT_SHA256 = {
    "OC": {
        "report/heatmap_Diffuse.svg": "162a98b98396771355681d6cc7a6c314d978dc89d9d72c24013576579269836f",
        "report/heatmap_Edge.svg": "7c59919c76d782a26b47073b92b7e866ef0a0ea65009be97596ee97b34512d8e",
        "report/heatmap_ShadowRegion.svg": "225f5d0093494ccb28a846af1c4ad2799ae76feb40d6ed42b26378f7c795cc15",
        "report/report.json": "05c97ba1f2fa5164035489ae225628b500d5cb775c9f1603fcd9fbe083571e22",
        "sweep/heatmap_Diffuse.svg": "162a98b98396771355681d6cc7a6c314d978dc89d9d72c24013576579269836f",
        "sweep/heatmap_Edge.svg": "7c59919c76d782a26b47073b92b7e866ef0a0ea65009be97596ee97b34512d8e",
        "sweep/heatmap_ShadowRegion.svg": "225f5d0093494ccb28a846af1c4ad2799ae76feb40d6ed42b26378f7c795cc15",
        "sweep/manifold.csv": "ed2b45c7e7894e8b5b5a7b0b84b71abdc577c69eb6a698a6c8f214586bb25fac",
        "sweep/report.json": "f44bebc42b41f04da388be8371fba1e18952380e1374bb18a4ffdf3416f63d3c",
        "compare --by context": "3b16468bb2351ba0a7a45eebc63ce11e0f0ecda3beb734a8a4770053a73a36c3",
    },
    "BC": {
        "report/heatmap_Diffuse.svg": "01a3fe4b643197b46fb0d5ed6ba40c99209c64e88a898d7e870cb7a783764f8c",
        "report/heatmap_Edge.svg": "7ea5dff1eafe1cf5117a11c46186c8bebd6c4e261d9d88b5361637a553db06be",
        "report/heatmap_ShadowRegion.svg": "24dc226e9484b2bb211780b5d04a9f648fe32af322c76db993bd2e660a67fdda",
        "report/report.json": "915a2d1d7ab37b4e2c884b08247e3654ecd30746fddd12b572752ba36a8a5a2c",
        "sweep/heatmap_Diffuse.svg": "01a3fe4b643197b46fb0d5ed6ba40c99209c64e88a898d7e870cb7a783764f8c",
        "sweep/heatmap_Edge.svg": "7ea5dff1eafe1cf5117a11c46186c8bebd6c4e261d9d88b5361637a553db06be",
        "sweep/heatmap_ShadowRegion.svg": "24dc226e9484b2bb211780b5d04a9f648fe32af322c76db993bd2e660a67fdda",
        "sweep/manifold.csv": "5a628fe6e5e640cc8e0f4f5c65341ee5a78434e1b9e8f51caf5bed9aa2a8a5a7",
        "sweep/report.json": "ab099f07e15e28850c8690ab8aaf1e3490044e9328bccee10dc54714ea982e79",
        "compare --by context": "ee610a6e3a856f4921f2aa1b8734bd4f7563ff976d96582b1ee7d6151c49ff4b",
    },
    "GC": {
        "report/heatmap_Diffuse.svg": "6acbb279752a1db228c7e9d96a7e5ee1bd8d6ae9aacd589fd5e922c0d5608bc0",
        "report/heatmap_Edge.svg": "f82d5caa518d22af935f1af1b990e993045264a4fff4d3a52bf7207b908f7da5",
        "report/heatmap_ShadowRegion.svg": "f5f7a3da4f603a8c168c63ee48da6d139d0e8d0098072796a11e1c0bfddd1bcb",
        "report/report.json": "c3cd539339bcd7ce56920edaf4d1e189923e91e60587c1f4b5e29d293e796c09",
        "sweep/heatmap_Diffuse.svg": "6acbb279752a1db228c7e9d96a7e5ee1bd8d6ae9aacd589fd5e922c0d5608bc0",
        "sweep/heatmap_Edge.svg": "f82d5caa518d22af935f1af1b990e993045264a4fff4d3a52bf7207b908f7da5",
        "sweep/heatmap_ShadowRegion.svg": "f5f7a3da4f603a8c168c63ee48da6d139d0e8d0098072796a11e1c0bfddd1bcb",
        "sweep/manifold.csv": "350829eb99d11807908628c082043a4d03cb58f7e9b36813872c088a4dfe5136",
        "sweep/report.json": "818566d0127d09d11b59458a065f86aee48e834133e45c4e363323c750c786cd",
        "compare --by context": "1c00b64696b6da6f95461740a9d159c911b38f2f774418d41c50e8358f25e5d9",
    },
}


@pytest.mark.parametrize("model", ["OC", "BC", "GC"])
def test_ingest_outputs_are_pinned(tmp_path, capsys, model):
    m = run_sweep(ingest_protocol(model, write_sequence(tmp_path / "sequence", 6)))
    out = tmp_path / "out"
    out.mkdir()
    assert output_digests(m, out, capsys) == INGEST_OUTPUT_SHA256[model]


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
        assert len(rows_of(m)) == len(frame_ids) * 2 * len(INGEST_CONTEXTS)
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
                    rec = rows_of(m)[m.cell(rect["context"], frame=idx, s=s)]
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
    def test_threads_flag_decodes_each_frame_once(self, tmp_path, monkeypatch, model):
        # the 8 cells are swept in order whatever --threads says, each
        # carrying its frame's features to the next cell
        from invarsim.cli import main

        apath = write_sequence(tmp_path / "seq", 9)
        ppath = tmp_path / "protocol.json"
        ppath.write_text(json.dumps(ingest_protocol(model, apath).to_dict()))
        decoded = self.count_decodes(monkeypatch)
        csv = {}
        for threads in (1, 2, 4):
            decoded.clear()
            out_dir = tmp_path / f"threads_{threads}"
            assert main(["sweep", str(ppath), "--out-dir", str(out_dir),
                         "--threads", str(threads)]) == 0
            assert len(decoded) == 9 and len(set(decoded)) == 9, threads
            csv[threads] = (out_dir / "manifold.csv").read_bytes()
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
        for r in rows_of(run_sweep(p)):
            swept.setdefault(r.theta_w["frame"], []).append(
                repr((r.context, r.theta_v["s"], r.mean, r.std, r.n)))
        decoded = self.count_decodes(monkeypatch)

        def cells(order):
            state = characterize._prepare_ingest(p)
            for idx, (stats, _) in zip(order, characterize._eval_frames(p, state, order)):
                rows = [repr((*key, *stat))
                        for key, *stat in zip(characterize._cell_keys(p), *stats)]
                assert sorted(rows) == sorted(swept[idx]), idx
            return [int(path[-7:-4]) for path in decoded]

        # alone, a run of one cell: the frame before and the frame
        for idx in (1, 3, 5):
            decoded.clear()
            assert cells([idx]) == [idx - 1, idx]
        # one run out of order: only cell 2 follows the frame the cell
        # before it measured
        decoded.clear()
        assert cells([3, 1, 2, 5, 4]) == [2, 3, 0, 1, 2, 4, 5, 3, 4]

    @pytest.mark.parametrize("model", ["OC", "BC", "GC"])
    def test_carried_features_are_read_only(self, tmp_path, model):
        p = ingest_protocol(model, write_sequence(tmp_path, 3))
        seq = ingest_sequence(p.ingest_dir, p.ingest_annotation)
        kept = characterize._features(p, seq.frame(1))
        assert isinstance(kept, tuple) and len(kept) == (2 if model == "GC" else 1)
        for array in kept:
            assert array.shape == (48, 64) and not array.flags.writeable

    @pytest.mark.parametrize("model", ["BC", "GC"])
    @pytest.mark.parametrize("flow", [False, True], ids=["zero-flow", "flo"])
    def test_more_threads_than_cores_give_the_bytes_of_one(
            self, tmp_path, model, flow):
        # the flag is accepted at any count and changes no byte
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
    def test_sweep_peak_memory_does_not_grow_with_length(self, tmp_path, monkeypatch, model):
        # a whole-sequence load holds every decoded frame until the sweep
        # ends: 28 frames more would add 28 frames to the peak
        frame_bytes = 48 * 64 * 3 * 8
        # a block holds 3 cells, all that the shorter sequence has, so blocks
        # add the same to both peaks: two side-9 patches per cell, and GC
        # gathers two residuals of their 7x7 interiors
        per_cell = 2 * 81 if model == "OC" else 2 * 2 * 49
        monkeypatch.setattr(characterize, "_BLOCK_VALUES", 3 * per_cell)
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


class TestBlocks:
    """OC, BC and GC measure a run of cells a block at a time: one kernel
    call per patch side and one statistics pass per block of cells."""

    LEVELS = [0.5, 1.0, 2.0, 3.0, 4.5]

    def ramp_protocol(self, model):
        scene = validation_scene_config()
        scene["dynamics"] = [[0, "objects.5.velocity", [0.5, 0.0, 0.0]]]
        return tiny_oc_protocol(model=model, scene=scene,
                                theta_w={"illumination_levels": self.LEVELS},
                                render={"width": 32, "height": 24, "spp": 2, "max_bounces": 1})

    @pytest.mark.parametrize("model", ["OC", "BC", "GC"])
    @pytest.mark.parametrize("source", ["simulate", "ingest"])
    def test_block_size_and_threads_do_not_change_bytes(self, tmp_path, monkeypatch,
                                                        source, model):
        # 5 cells either way: 5 levels, or 6 frames less the reference (OC)
        # or the first frame (BC, GC)
        p = (self.ramp_protocol(model) if source == "simulate"
             else ingest_protocol(model, write_sequence(tmp_path, 6)))
        blocks = []

        def block_stats(protocol, block, *args, _fn=characterize._block_stats):
            blocks.append(len(block))
            return _fn(protocol, block, *args)
        monkeypatch.setattr(characterize, "_block_stats", block_stats)
        csv = {}
        for block_values in (1, characterize._BLOCK_VALUES, 1 << 40):
            monkeypatch.setattr(characterize, "_BLOCK_VALUES", block_values)
            blocks.clear()
            m = run_sweep(p)
            csv[block_values] = m.to_csv()
            assert any(r.n > 0 for r in rows_of(m))
            assert sum(blocks) == 5
            if block_values == 1:  # a block holds at least one cell
                assert blocks == [1] * 5
            elif block_values == 1 << 40:  # and at most every missing cell
                assert blocks == [5]
        assert len(set(csv.values())) == 1, sorted(csv)

    def test_block_stats_leave_out_and_count_nan_values(self):
        p = tiny_oc_protocol()  # sides 5 and 9; Diffuse, ShadowBoundary, Occluded
        keys = [("Diffuse", 5), ("Occluded", 9)]
        nan = float("nan")
        cells = [[1.0, nan, 2.5, nan, nan], [nan, nan, nan, -0.0, 4.0]]
        got = characterize._block_stats(p, [1.0, 2.0], keys, [3, 2], np.concatenate(cells))
        assert len(got) == 2
        for (stats, skipped), values in zip(got, cells):
            assert skipped == sum(map(math.isnan, values))
            want = {}
            for key, part in zip(keys, (values[:3], values[3:])):
                kept = np.array([v for v in part if not math.isnan(v)])
                want[key] = ((float(kept.mean()), float(kept.std()), len(kept)) if len(kept)
                             else (nan, nan, 0))
            rows = characterize._cell_keys(p)
            assert rows == [(c, s) for s in (5, 9) for c in p.contexts]
            assert all(len(stat) == len(rows) for stat in stats)
            for key, *stat in zip(rows, *stats):
                assert repr(tuple(stat)) == repr(want.get(key, (nan, nan, 0)))

    def test_a_failing_cell_stores_no_cell_of_its_block(self, tmp_path, monkeypatch):
        # blocks 0-2, 3-5 and 6; cell 6 is never made
        failing, stored, raised = (4, 6), (0, 1, 2), 4
        levels = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0]
        p = tiny_oc_protocol(theta_w={"illumination_levels": levels})
        fresh = run_sweep(p).to_csv()
        batches = characterize._prepare_ramp(p)[0]
        per_cell = sum(pixels[0].size for *_, pixels in batches)
        monkeypatch.setattr(characterize, "_BLOCK_VALUES", 3 * per_cell)

        def ldr_float(hdr, protocol, *tags, _fn=characterize._ldr_float):
            for i in failing:
                if tags == ("level", float(levels[i]).hex()):
                    raise ValueError(f"cell {i}")
            return _fn(hdr, protocol, *tags)
        monkeypatch.setattr(characterize, "_ldr_float", ldr_float)
        cells = tmp_path / "cells"
        with pytest.raises(ValueError, match=f"^cell {raised}$"):
            run_sweep(p, cache_dir=cells)
        cache = characterize.CellCache(cells, p)
        assert [i for i, level in enumerate(levels)
                if cache._path(level).exists()] == list(stored)
        monkeypatch.undo()
        assert run_sweep(p, cache_dir=cells).to_csv() == fresh


class TestHeatmap:
    def test_svg_structure(self):
        m = TestMarginalize().constant_manifold()
        svg = heatmap_svg(m, "illumination", "s")["Diffuse"]
        assert svg.startswith("<svg")
        assert svg.count("<rect") == 8
        assert heatmap_svg(m, "illumination", "s")["Diffuse"] == svg

    def test_gap_cells_gray(self):
        records = [
            Row("Diffuse", {"illumination": 0.0}, {"s": 5}, 1.0, 0.0, 3),
            Row("Diffuse", {"illumination": 1.0}, {"s": 5}, float("nan"), float("nan"), 0),
        ]
        m = manifold_of("OC", ("illumination",), ("s",), records)
        svg = heatmap_svg(m, "illumination", "s")["Diffuse"]
        assert "#b0b0b0" in svg

    def test_tooltips_print_python_values(self):
        # a numpy scalar's repr reads np.float64(1.0) under NumPy 2
        records = [
            Row("Diffuse", {"illumination": 0.0}, {"s": 5}, 1.0, 0.0, 3),
            Row("Diffuse", {"illumination": 1.0}, {"s": 5}, float("nan"), float("nan"), 0),
        ]
        m = manifold_of("OC", ("illumination",), ("s",), records)
        svg = heatmap_svg(m, "illumination", "s")["Diffuse"]
        titles = [part.partition("</title>")[0] for part in svg.split("<title>")[1:]]
        assert titles == ["illumination=0.0 s=5 mean_E=1.0",
                          "illumination=1.0 s=5 mean_E=nan"]
        assert "np." not in svg

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
        assert 0 < ingested.missing < len(rows_of(ingested))
        for m, x_axis in ((oc, "illumination"), (ps, "speed"), (ingested, "frame")):
            svgs = heatmap_svg(m, x_axis, "s")
            assert list(svgs) == sorted({r.context for r in rows_of(m)})
            for context, svg in svgs.items():
                assert svg == loop_heatmap_svg(m, context, x_axis, "s")


class TestContextRanking:
    def test_rank_manifold_contexts_direction(self):
        records = [
            Row("Diffuse", {"illumination": 1.0}, {"s": 5}, 0.9, 0.0, 3),
            Row("Occluded", {"illumination": 1.0}, {"s": 5}, 0.2, 0.0, 3),
        ]
        m = manifold_of("OC", ("illumination",), ("s",), records)
        assert rank_manifold_contexts(m) == {"Diffuse": 1.0, "Occluded": 2.0}
        m2 = manifold_of("BC", ("illumination",), ("s",), records)
        assert rank_manifold_contexts(m2) == {"Diffuse": 2.0, "Occluded": 1.0}

    def test_rank_by_theta_w_axis(self):
        records = [
            Row("All", {"weather": w}, {}, v, 0.0, n)
            for w, v, n in (("Fog", 0.1, 9), ("Mist", 0.4, 9), ("Rain", 0.2, 0))
        ]
        m = manifold_of("DS", ("weather",), (), records)
        assert rank_manifold_contexts(m, by="weather") == {"Fog": 1.0, "Mist": 2.0}
        assert rank_manifold_contexts(m) == {"All": 1.0}
        with pytest.raises(ConfigError, match="^cannot rank by speed: the manifold's "
                                              "theta_w axes are weather$"):
            rank_manifold_contexts(m, by="speed")
        gaps = manifold_of("DS", ("weather",), (), records[2:])
        with pytest.raises(ConfigError, match="no complete cells to rank by weather"):
            rank_manifold_contexts(gaps, by="weather")
