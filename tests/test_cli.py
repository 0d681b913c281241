import ctypes
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

from invarsim import cli
from invarsim.characterize import default_protocol
from invarsim.cli import main
from invarsim.geometry import PrimitiveSoup
from invarsim.imgio import read_flo, read_pfm, read_ppm
from invarsim.scene import SceneGraph
from invarsim.scenegen import apply_dynamics, validation_scene_config
import oracles


def write_scene_config(tmp_path, overrides=None):
    doc = validation_scene_config()
    doc["seed"] = 7
    if overrides:
        doc.update(overrides)
    path = tmp_path / "scene_config.json"
    path.write_text(json.dumps(doc))
    return path


def tiny_protocol_doc():
    return {
        "model": "OC",
        "scene": validation_scene_config(),
        "theta_w": {"illumination_levels": [1.0, 3.0]},
        "theta_v": {"patch_sizes": [5]},
        "contexts": ["Diffuse", "Occluded"],
        "patches_per_cell": 3,
        "render": {"width": 48, "height": 36, "spp": 2, "max_bounces": 0},
    }


class TestSample:
    def test_sample_writes_scene_and_manifest(self, tmp_path):
        cfg = write_scene_config(tmp_path)
        out = tmp_path / "scene.json"
        assert main(["sample", str(cfg), "--out", str(out)]) == 0
        assert out.exists()
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["command"] == "sample"
        assert manifest["outputs"]["sample"] == [str(out)]

    def test_idempotent_bytes(self, tmp_path):
        cfg = write_scene_config(tmp_path)
        out = tmp_path / "scene.json"
        main(["sample", str(cfg), "--out", str(out), "--seed", "3"])
        first = out.read_bytes()
        main(["sample", str(cfg), "--out", str(out), "--seed", "3"])
        assert out.read_bytes() == first

    def test_malformed_json_exit_2_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"world_bounds": [1, 2,\n  }')
        code = main(["sample", str(bad), "--out", str(tmp_path / "x.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert ":2:" in err  # line and column reported

    @pytest.mark.parametrize("overrides,json_path", [
        ({"roads": [[1.0, 2.0, 3.0]]}, "roads[0]"),
        ({"lights": [{"kind": "ambient", "intensity": "bright"}]}, "lights[0].intensity"),
        ({"camera": {"position": [0.0, 2.0, -9.0], "look_at": [0.0, 0.0, 0.0],
                     "vfov_deg": "wide"}}, "camera.vfov_deg"),
        ({"dynamics": [[0, "lights.0.intensity_scale"]]}, "dynamics[0]"),
        ({"dynamics": [[0, "objects.99.velocity", [1.0, 0.0, 0.0]]]}, "dynamics[0]"),
        ({"objects": [{"class": "Vehicle", "position": [1.0], "length": 4.0,
                       "breadth": 2.0, "height": 1.5}]}, "objects[0].position"),
        ({"objects": [{"class": "Vehicle", "position": [1.0, -9.0], "length": 4.0,
                       "breadth": 2.0, "height": 1.5, "style": "x"}]}, "objects[0].style"),
        ({"objects": [{"class": "Building", "position": [2.0, 24.0], "length": 30.0,
                       "breadth": 12.0, "height": 18.0, "window_grid": [2]}]},
         "objects[0].window_grid"),
        ({"ground": "no"}, "ground"),
        ({"roads": [[1.0, 2.0, -3.0, 4.0]]}, "roads[0]"),
        ({"classes": [{"class": "Tree", "probability": 0.7, "length": [2.0, 0.4],
                       "breadth": [2.0, 0.4], "height": [3.0, 0.5]}]}, "classes"),
        ({"classes": [{"class": c, "probability": 1.0, "length": [2.0, 0.4],
                       "breadth": [2.0, 0.4], "height": [h, 0.5]}
                      for c, h in (("Tree", 3.0), ("Building", 9.0), ("Tree", 9.0))]},
         "classes[2].class"),
        ({"world_bounds": [0.0, -50.0, 0.0, 50.0]}, "world_bounds"),
        ({"cell_size": 0}, "cell_size"),
        ({"dynamics": [[1, "lights.1.intensity_scale", -1.0]]}, "dynamics[0]"),
        ({"dynamics": [[1, "medium.density_scale", -1.0]]}, "dynamics[0]"),
        # straight down, with the default up hint
        ({"camera": {"position": [0.0, 20.0, 0.0], "look_at": [0.0, 0.0, 0.0]}}, "camera"),
    ])
    def test_bad_config_value_exit_2_with_path(self, tmp_path, capsys, overrides, json_path):
        cfg = write_scene_config(tmp_path, overrides)
        assert main(["sample", str(cfg), "--out", str(tmp_path / "s.json")]) == 2
        assert f"invarsim: {json_path}: " in capsys.readouterr().err

    def test_placement_failure_exit_3(self, tmp_path):
        cfg = write_scene_config(tmp_path, {
            "world_bounds": [-4, -4, 4, 4],
            "objects": [],
            "ground": False,
            "classes": [{"class": "Building", "probability": 1.0,
                         "length": [6.0, 0.0], "breadth": [6.0, 0.0],
                         "height": [10.0, 0.0]}],
            "counts": {"total": 2},
            "max_attempts": 25,
        })
        assert main(["sample", str(cfg), "--out", str(tmp_path / "s.json")]) == 3

    def test_porcelain_stdout_is_json(self, tmp_path, capsys):
        cfg = write_scene_config(tmp_path)
        out = tmp_path / "scene.json"
        main(["sample", str(cfg), "--out", str(out), "--porcelain"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["scene"] == str(out)

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        cfg = write_scene_config(tmp_path)
        out = tmp_path / "new_dir" / "scene.json"
        assert main(["sample", str(cfg), "--out", str(out), "--dry-run", "--porcelain"]) == 0
        assert json.loads(capsys.readouterr().out)["out"] == str(out)
        assert not out.parent.exists()


@pytest.fixture()
def scene_json(tmp_path):
    cfg = write_scene_config(tmp_path, {
        "dynamics": [[0, "objects.5.velocity", [0.5, 0.0, 0.0]]],
    })
    out = tmp_path / "scene.json"
    assert main(["sample", str(cfg), "--out", str(out)]) == 0
    return out


def assert_bad_scene_exits_2(scene_json, tmp_path, capsys, edit, json_path):
    """``render`` of the scene file after ``edit`` exits 2 naming ``json_path``."""
    doc = json.loads(scene_json.read_text())
    edit(doc)
    bad = tmp_path / "bad_scene.json"
    bad.write_text(json.dumps(doc))
    code = main(["render", str(bad), "--out-dir", str(tmp_path / "render"),
                 "--frames", "0..0", "--spp", "1", "--width", "8", "--height", "6"])
    assert code == 2
    assert f"invarsim: {json_path}: " in capsys.readouterr().err


#: sha256 of every file ``render`` writes but its manifest, for frames 0..2 of
#: the ``scene_json`` fixture at 1 spp and 32x24
RENDER_SHA256 = {
    "flow_0000_0001.flo": "96f3293f8e1b224df3444b817600503bb3fd541f9407b582f43fbd35b86efbaf",
    "flow_0001_0002.flo": "4f7a431373dc836b10af286c44ca0f8b9c0a6b5385716a9e83f21a5997d4a1b9",
    "frame_0000.json": "22e2fd43ca9b4f1ee6790bd89afe592d128dc645a7bd89adb7c3a57f088f250f",
    "frame_0000.pfm": "a697c493f6ba65316bb5e3b4496dceee7974e2a7b840e52c1c0656a23cf5f7d3",
    "frame_0000.ppm": "3e1bb0068092c66bcc174389db684da5f33b45612738e7f95bd1393a2a8c15f5",
    "frame_0000_depth.pfm": "0816225d3e6dfc49c512fb5c2a4251768cc8ddfc767eb605f917a865e819e259",
    "frame_0000_material_id.pfm": "18a9ac226a2843918b338b4e0289cf0a8fb136424251ccdc5fe9c939b6b3dd98",
    "frame_0000_normal.pfm": "e93fbe687247302dc6fc3d962b914c6032b2c187f2b0be44805ca3204cec11ad",
    "frame_0000_object_id.pfm": "2af37d5ac56725f007b27b28c5c9836a94408a795e292585081d775f389ff314",
    "frame_0000_reflectance.pfm": "309a5c233e0551decb98a2217fe3fd9566432420fa205cd205cb0cc445e5b0d3",
    "frame_0000_shadow.pfm": "4a373739b40987bd74eb8e86940939cb502f08f71068d2b52aa5b3eee1049fbf",
    "frame_0001.json": "dbe5c6dc72c510c98d0c59428ba0d0b830397f39e411aa8d872eeeddb781a047",
    "frame_0001.pfm": "ba6906b3a95829d9a68adbf58a750cbb6582da051a280ab0930ce04e55612420",
    "frame_0001.ppm": "3c143c93fc4f44cd42fd09128eb28054345acb65cbde7f43d430aed4379eb067",
    "frame_0001_depth.pfm": "190621a9502d38979d0906f010abe1ed68ed7d575252c644363d15431faab86e",
    "frame_0001_material_id.pfm": "79e92156ece79b750cb4611e2a2b290d1f04e982c4a1c0b6fd4aa883e2845516",
    "frame_0001_normal.pfm": "c1f66797ff25971a2602988a0f017489b8cc58f48edf961e784d82212c925bc4",
    "frame_0001_object_id.pfm": "e652122712f70559b089e8c1063d039914f129db94bbfedee0178a95fbcb2872",
    "frame_0001_reflectance.pfm": "e2f457a907fd9dd1a2308aea5292724afc16f2270d6b62db26d6501a3fff14b0",
    "frame_0001_shadow.pfm": "9f056c11256b6ae41cb8149b04aa77deb1e534b07e5656d748705487e4efc917",
    "frame_0002.json": "23ae8e2137702e18b1c56c097810e9e1a9d606ca0341f5f5d59228dde25be4e3",
    "frame_0002.pfm": "a5a9af599eb91c1f5d4f77a054e7a26802d1ed707847a3314e4b58e5ec848bff",
    "frame_0002.ppm": "07daf4ae76a1b4dc83fb8bc5b3af571c91b6ff362e46ad5da7e8652faa791c7d",
    "frame_0002_depth.pfm": "e13e30bfdbb0c507bcb85c47e762fa0ac640f3eb1f7a582a4b20886f3263c897",
    "frame_0002_material_id.pfm": "6d3a1930ac0954d754fbcacb7c761dbfafe54f7a926fbff366a8388c0a3082e7",
    "frame_0002_normal.pfm": "87433cdf3ae5d59d994b3f502ccae0541b498a75af2208ddc525c587875971bb",
    "frame_0002_object_id.pfm": "56978266cc4bd5b4b809754c07b26932e4f6952e60c301260c20811d54951553",
    "frame_0002_reflectance.pfm": "8039fed8fcf89d1fb43bb9bc63edb1203c411cf093d1398fd402403648cedc0e",
    "frame_0002_shadow.pfm": "7c8dd4da21ee35bae4a5b0291af00731923ea9b2ec38dd45478c85057f6b4b22",
    "occlusion_0000_0001.pfm": "56d020fbfb8bb01daa19b1cbd4a8ada32ce84789b0669dd5b104ecc1da7501fb",
    "occlusion_0001_0002.pfm": "34d88b65f0dafe9db12b77d6659ea449e69a64023bac00082171bfcc3b6d45ba",
}


class TestRender:
    def test_frame_pair_outputs(self, scene_json, tmp_path):
        out_dir = tmp_path / "render"
        code = main(["render", str(scene_json), "--out-dir", str(out_dir),
                     "--frames", "0..1", "--spp", "2", "--width", "48",
                     "--height", "36"])
        assert code == 0
        for t in (0, 1):
            for suffix in (".pfm", ".ppm", "_depth.pfm", "_normal.pfm",
                           "_object_id.pfm", "_material_id.pfm",
                           "_shadow.pfm", "_reflectance.pfm", ".json"):
                assert (out_dir / f"frame_{t:04d}{suffix}").exists()
        flow = read_flo(out_dir / "flow_0000_0001.flo")
        assert flow.shape == (36, 48, 2)
        assert (out_dir / "occlusion_0000_0001.pfm").exists()
        hdr = read_pfm(out_dir / "frame_0000.pfm")
        assert hdr.shape == (36, 48, 3)
        ldr, maxval = read_ppm(out_dir / "frame_0000.ppm")
        assert maxval == 255

    def test_three_frames_pin_every_output(self, scene_json, tmp_path):
        out_dir = tmp_path / "render"
        assert main(["render", str(scene_json), "--out-dir", str(out_dir),
                     "--frames", "0..2", "--spp", "1", "--width", "32",
                     "--height", "24"]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out_dir.iterdir() if p.name != "manifest.json"}
        assert got == RENDER_SHA256
        manifest = json.loads((out_dir / "manifest.json").read_text())
        frames = [f"frame_{t:04d}{suffix}" for t in range(3) for suffix in
                  (".pfm", ".ppm", "_depth.pfm", "_normal.pfm", "_object_id.pfm",
                   "_material_id.pfm", "_shadow.pfm", "_reflectance.pfm", ".json")]
        flow = [f"{kind}_{a:04d}_{a + 1:04d}.{ext}" for a in range(2)
                for kind, ext in (("flow", "flo"), ("occlusion", "pfm"))]
        assert manifest["outputs"] == {"frames": [str(out_dir / n) for n in frames],
                                       "flow": [str(out_dir / n) for n in flow]}

    def test_gt_independent_of_spp(self, scene_json, tmp_path):
        d1 = tmp_path / "r1"
        d2 = tmp_path / "r2"
        for d, spp in ((d1, "1"), (d2, "8")):
            main(["render", str(scene_json), "--out-dir", str(d),
                  "--frames", "0..0", "--spp", spp, "--width", "32",
                  "--height", "24"])
        gt1 = (d1 / "frame_0000_depth.pfm").read_bytes()
        gt2 = (d2 / "frame_0000_depth.pfm").read_bytes()
        assert gt1 == gt2
        assert (d1 / "frame_0000.pfm").read_bytes() != \
            (d2 / "frame_0000.pfm").read_bytes()

    def test_sidecar_echoes_flags(self, scene_json, tmp_path):
        out_dir = tmp_path / "render"
        main(["render", str(scene_json), "--out-dir", str(out_dir),
              "--frames", "0..0", "--spp", "3", "--width", "32",
              "--height", "24", "--max-bounces", "0", "--seed", "99"])
        sidecar = json.loads((out_dir / "frame_0000.json").read_text())
        assert sidecar["theta_g"] == {"width": 32, "height": 24, "spp": 3,
                                      "max_bounces": 0, "rng_seed": 99}

    def test_dry_run_writes_nothing(self, scene_json, tmp_path, capsys):
        out_dir = tmp_path / "nope"
        code = main(["render", str(scene_json), "--out-dir", str(out_dir),
                     "--frames", "0..1", "--dry-run", "--porcelain"])
        assert code == 0
        assert not out_dir.exists()
        # frames x W x H x spp camera samples at the default size and spp
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"frames": 2, "pixel_samples": 2 * 320 * 240 * 200}

    def test_max_bounces_above_one_exits_2(self, scene_json, tmp_path, capsys):
        out_dir = tmp_path / "render"
        assert main(["render", str(scene_json), "--out-dir", str(out_dir),
                     "--frames", "0..0", "--spp", "1", "--width", "8", "--height", "6",
                     "--max-bounces", "2"]) == 2
        assert capsys.readouterr().err == "invarsim: max_bounces must be 0 or 1\n"
        assert not out_dir.exists()

    def test_idempotent_artifacts(self, scene_json, tmp_path):
        out_dir = tmp_path / "render"
        argv = ["render", str(scene_json), "--out-dir", str(out_dir),
                "--frames", "0..0", "--spp", "2", "--width", "24",
                "--height", "18"]
        main(argv)
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()
                 if p.name != "manifest.json"}
        main(argv)
        again = {p.name: p.read_bytes() for p in out_dir.iterdir()
                 if p.name != "manifest.json"}
        assert first == again

    @pytest.mark.parametrize("edit,json_path", [
        (lambda d: d["camera"].pop("vfov_deg"), "camera.vfov_deg"),
        (lambda d: d.pop("seed"), "seed"),
        (lambda d: d["objects"][1].pop("height"), "objects[1].height"),
        (lambda d: d["objects"][0]["primitives"][0].pop("hi"), "objects[0].primitives[0].hi"),
        (lambda d: d["medium"].update(layer_hight=10.0), "medium.layer_hight"),
        (lambda d: d["lights"][0].update(colour=[1, 1, 1]), "lights[0].colour"),
        (lambda d: d["materials"]["0"].update(albdo=0.5), "materials.0.albdo"),
        (lambda d: d["objects"][0]["primitives"][0].update(kind="cone"),
         "objects[0].primitives[0].kind"),
        (lambda d: d.update(lights={}), "lights"),
        # every key the canonical JSON writes is required
        (lambda d: d["objects"][0].pop("yaw"), "objects[0].yaw"),
        (lambda d: d["objects"][0].pop("dynamic"), "objects[0].dynamic"),
        (lambda d: d["objects"][0].pop("y_offset"), "objects[0].y_offset"),
        (lambda d: d["lights"][0].pop("direction"), "lights[0].direction"),
        (lambda d: d["lights"][0].pop("position"), "lights[0].position"),
        (lambda d: d["lights"][0].pop("cone_deg"), "lights[0].cone_deg"),
        (lambda d: d["lights"][0].pop("name"), "lights[0].name"),
        (lambda d: d["medium"].pop("layer_height"), "medium.layer_height"),
    ])
    def test_bad_scene_keys_exit_2_with_path(self, scene_json, tmp_path, capsys,
                                             edit, json_path):
        assert_bad_scene_exits_2(scene_json, tmp_path, capsys, edit, json_path)

    @pytest.mark.parametrize("edit,json_path", [
        (lambda d: d["objects"][0].update({"class": "Buildng"}), "objects[0].class"),
        (lambda d: d["objects"][1].update(height="tall"), "objects[1].height"),
        (lambda d: d["materials"]["0"]["texture"].update(contrast=float("nan")),
         "materials.0.texture.contrast"),
        (lambda d: d["materials"]["0"]["texture"].update(scale=0), "materials.0.texture"),
    ])
    def test_bad_scene_values_exit_2_with_path(self, scene_json, tmp_path, capsys,
                                               edit, json_path):
        assert_bad_scene_exits_2(scene_json, tmp_path, capsys, edit, json_path)


    def test_two_frames_build_two_soups_and_hash_the_canonical_json(
            self, scene_json, tmp_path, monkeypatch):
        builds = []
        from_scene = PrimitiveSoup.from_scene.__func__

        def counting(cls, scene):
            builds.append(scene)
            return from_scene(cls, scene)

        monkeypatch.setattr(PrimitiveSoup, "from_scene", classmethod(counting))
        out_dir = tmp_path / "render"
        assert main(["render", str(scene_json), "--out-dir", str(out_dir),
                     "--frames", "0..1", "--spp", "1", "--width", "16",
                     "--height", "12", "--max-bounces", "0"]) == 0
        assert len(builds) == 2  # one soup per frame state
        scene = SceneGraph.from_json(scene_json.read_text())
        for t in (0, 1):
            sidecar = json.loads((out_dir / f"frame_{t:04d}.json").read_text())
            text = oracles.scene_json(apply_dynamics(scene, t))
            assert sidecar["scene_hash"] == hashlib.sha256(text.encode()).hexdigest()


class TestSweep:
    def test_sweep_outputs(self, tmp_path):
        ppath = tmp_path / "protocol.json"
        ppath.write_text(json.dumps(tiny_protocol_doc()))
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(ppath), "--out-dir", str(out_dir)]) == 0
        csv = (out_dir / "manifold.csv").read_text()
        assert csv.splitlines()[0] == \
            "model,context,theta_w_illumination,theta_v_s,mean_E,std_E,n"
        assert (out_dir / "report.json").exists()
        assert (out_dir / "heatmap_Diffuse.svg").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        listed = [p for ps in manifest["outputs"].values() for p in ps]
        assert len(listed) == len(set(listed))

    def test_dry_run_prints_counts_renders_nothing(self, tmp_path, capsys):
        ppath = tmp_path / "protocol.json"
        ppath.write_text(json.dumps(tiny_protocol_doc()))
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(ppath), "--out-dir", str(out_dir),
                     "--porcelain", "--dry-run"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"cells": 4, "renders": 2}
        assert not out_dir.exists()

    @pytest.mark.parametrize("model,cells,renders", [
        ("OC", 40 * 3 * 8, 2),  # reference; sun off and on in one pass; not 40 + 1
        ("DS", 5, 1),  # all tags and densities in one pass
        ("PS", 4 * 3 * 2, 0),  # ground truth and flow only
    ])
    def test_dry_run_counts_stock_render_passes(self, tmp_path, capsys,
                                                model, cells, renders):
        ppath = tmp_path / "protocol.json"
        ppath.write_text(json.dumps(default_protocol(model).to_dict()))
        assert main(["sweep", str(ppath), "--out-dir", str(tmp_path / "sweep"),
                     "--porcelain", "--dry-run"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"cells": cells, "renders": renders}

    @pytest.mark.parametrize("block,key,value", [
        ("render", "spp", 0),
        ("render", "max_bounces", 2),  # the renderer traces at most one bounce
        ("sensor", "bits", 40),
        ("sensor", "sigma", "a"),
    ])
    def test_dry_run_rejects_bad_values(self, tmp_path, capsys, block, key, value):
        doc = tiny_protocol_doc()
        doc.setdefault(block, {})[key] = value
        ppath = tmp_path / "protocol.json"
        ppath.write_text(json.dumps(doc))
        assert main(["sweep", str(ppath), "--out-dir", str(tmp_path / "sweep"),
                     "--porcelain", "--dry-run"]) == 2
        assert capsys.readouterr().err.startswith(f"invarsim: {block}")

    def test_sweep_rejects_seed(self, tmp_path, capsys):
        # the protocol's seeds block decides every seed of a sweep
        ppath = tmp_path / "protocol.json"
        ppath.write_text(json.dumps(tiny_protocol_doc()))
        out_dir = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(ppath), "--out-dir", str(out_dir), "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_resume_reproduces_bytes(self, tmp_path):
        ppath = tmp_path / "protocol.json"
        ppath.write_text(json.dumps(tiny_protocol_doc()))
        out_dir = tmp_path / "sweep"
        main(["sweep", str(ppath), "--out-dir", str(out_dir)])
        first = (out_dir / "manifold.csv").read_bytes()
        (out_dir / "manifold.csv").unlink()  # simulate an interrupted run
        main(["sweep", str(ppath), "--out-dir", str(out_dir)])
        assert (out_dir / "manifold.csv").read_bytes() == first

    def test_threads_flag_identical_output(self, tmp_path):
        ppath = tmp_path / "protocol.json"
        ppath.write_text(json.dumps(tiny_protocol_doc()))
        d1 = tmp_path / "s1"
        d2 = tmp_path / "s2"
        main(["sweep", str(ppath), "--out-dir", str(d1), "--threads", "1"])
        main(["sweep", str(ppath), "--out-dir", str(d2), "--threads", "4"])
        assert (d1 / "manifold.csv").read_bytes() == \
            (d2 / "manifold.csv").read_bytes()


class TestCompareReport:
    def make_manifold_csv(self, tmp_path, name, flip=False):
        lines = ["model,context,theta_w_illumination,theta_v_s,mean_E,std_E,n"]
        values = {"Diffuse": 0.9, "Edge": 0.6, "Occluded": 0.2}
        if flip:
            values = {"Diffuse": 0.2, "Edge": 0.6, "Occluded": 0.9}
        for ctx, v in values.items():
            lines.append(f"OC,{ctx},1.0,5,{v},0.01,4")
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_identical_manifolds_correlation_one(self, tmp_path, capsys):
        a = self.make_manifold_csv(tmp_path, "a.csv")
        b = self.make_manifold_csv(tmp_path, "b.csv")
        assert main(["compare", str(a), str(b), "--by", "context"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["correlation"] == 1.0
        assert all(d == 0 for d in doc["deltas"].values())

    def test_reversed_correlation_minus_one(self, tmp_path, capsys):
        a = self.make_manifold_csv(tmp_path, "a.csv")
        b = self.make_manifold_csv(tmp_path, "b.csv", flip=True)
        main(["compare", str(a), str(b)])
        doc = json.loads(capsys.readouterr().out)
        assert doc["correlation"] == -1.0

    def test_mismatched_contexts_exit_4(self, tmp_path, capsys):
        a = self.make_manifold_csv(tmp_path, "a.csv")
        b = tmp_path / "b.csv"
        b.write_text(
            "model,context,theta_w_illumination,theta_v_s,mean_E,std_E,n\n"
            "OC,Diffuse,1.0,5,0.9,0.01,4\nOC,Corner,1.0,5,0.5,0.01,4\n")
        assert main(["compare", str(a), str(b)]) == 4
        err = capsys.readouterr().err
        assert "Edge" in err and "Corner" in err and "Occluded" in err

    def test_compare_by_weather(self, tmp_path, capsys):
        header = "model,context,theta_w_weather,mean_E,std_E,n"
        rows_a = ["DS,All,Fog,0.14,0.05,100", "DS,All,Mist,0.38,0.1,100",
                  "DS,All,MildHaze,2.4,0.4,100"]
        rows_b = ["DS,All,Fog,0.58,0.2,90", "DS,All,Mist,1.25,0.5,90",
                  "DS,All,MildHaze,3.61,0.8,90"]
        a = tmp_path / "ds_a.csv"
        b = tmp_path / "ds_b.csv"
        a.write_text("\n".join([header] + rows_a) + "\n")
        b.write_text("\n".join([header] + rows_b) + "\n")
        assert main(["compare", str(a), str(b), "--by", "weather"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["correlation"] == 1.0  # same ordering in both sources

    def test_report_rejects_dry_run(self, tmp_path):
        a = self.make_manifold_csv(tmp_path, "a.csv")
        out_dir = tmp_path / "report"
        with pytest.raises(SystemExit) as exc:
            main(["report", str(a), "--out-dir", str(out_dir), "--dry-run"])
        assert exc.value.code == 2
        assert not out_dir.exists()

    def test_report_emits_svg_and_marginals(self, tmp_path):
        a = self.make_manifold_csv(tmp_path, "a.csv")
        out_dir = tmp_path / "report"
        assert main(["report", str(a), "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert "marginals" in report and "illumination" in report["marginals"]
        assert (out_dir / "heatmap_Diffuse.svg").exists()


class TestIngestCommand:
    def test_ingest_summary(self, tmp_path, capsys):
        from invarsim.imgio import write_ppm

        rng = np.random.default_rng(0)
        for t in range(2):
            img = rng.integers(0, 255, size=(24, 32, 3)).astype(np.uint8)
            write_ppm(tmp_path / f"f{t}.ppm", img, maxval=255)
        apath = tmp_path / "ann.json"
        apath.write_text(json.dumps({
            "reference_frame": 0, "zero_flow": True,
            "patches": [{"x": 4, "y": 4, "width": 8, "height": 8,
                         "context": "Diffuse"}],
        }))
        assert main(["ingest", str(tmp_path), str(apath), "--porcelain",
                     "--out", str(tmp_path / "summary.json")]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["frames"] == 2
        assert summary["resolution"] == [24, 32]

    def test_bad_annotation_exit_2(self, tmp_path):
        from invarsim.imgio import write_ppm

        write_ppm(tmp_path / "f0.ppm",
                  np.zeros((8, 8, 3), dtype=np.uint8), maxval=255)
        apath = tmp_path / "ann.json"
        apath.write_text(json.dumps({
            "reference_frame": 0,
            "patches": [{"x": 5, "y": 5, "width": 8, "height": 8,
                         "context": "Diffuse"}],
        }))
        assert main(["ingest", str(tmp_path), str(apath)]) == 2


class TestIngestSweep:
    CONTEXTS = ["Diffuse", "Edge", "Occluded"]

    def ingest_protocol(self, tmp_path, model):
        from invarsim.imgio import write_ppm

        frames = tmp_path / "frames"
        frames.mkdir()
        rng = np.random.default_rng(1)
        for t in range(4):
            img = rng.integers(0, 255, size=(24, 32, 3)).astype(np.uint8)
            write_ppm(frames / f"f{t}.ppm", img, maxval=255)
        apath = tmp_path / "annotation.json"
        apath.write_text(json.dumps({
            "reference_frame": 2, "zero_flow": True,
            "patches": [{"x": 2 + 9 * i, "y": 4, "width": 8, "height": 8,
                         "context": c} for i, c in enumerate(self.CONTEXTS)],
        }))
        ppath = tmp_path / f"protocol_{model}.json"
        ppath.write_text(json.dumps({
            "model": model, "source": "ingest", "contexts": self.CONTEXTS,
            "theta_v": {"patch_sizes": [3, 5]},
            "ingest": {"directory": str(frames), "annotation": str(apath)}}))
        return ppath

    @pytest.mark.parametrize("model", ["OC", "BC"])
    def test_dry_run_counts_frames_sides_contexts(self, tmp_path, capsys, model):
        # OC skips the reference frame, BC/GC the first: 3 of 4 frames either way
        ppath = self.ingest_protocol(tmp_path, model)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(ppath), "--out-dir", str(out_dir),
                     "--porcelain", "--dry-run"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"cells": 3 * 2 * 3, "renders": 0}
        assert not out_dir.exists()

    def test_sweep_leaves_no_cell_cache(self, tmp_path):
        ppath = self.ingest_protocol(tmp_path, "OC")
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(ppath), "--out-dir", str(out_dir)]) == 0
        rows = (out_dir / "manifold.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 * 2 * 3
        assert not (out_dir / "cells").exists()

    @pytest.mark.parametrize("model", ["OC", "BC"])
    def test_manifold_bytes_do_not_depend_on_threads(self, tmp_path, model):
        ppath = self.ingest_protocol(tmp_path, model)
        texts = []
        for threads in (1, 2):
            out_dir = tmp_path / f"sweep_{threads}"
            assert main(["sweep", str(ppath), "--out-dir", str(out_dir),
                         "--threads", str(threads)]) == 0
            texts.append((out_dir / "manifold.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_commented_headers_ingest_like_plain_ones(self, tmp_path):
        ppath = self.ingest_protocol(tmp_path, "OC")
        frames = tmp_path / "frames"
        apath = tmp_path / "annotation.json"
        assert main(["ingest", str(frames), str(apath), "--porcelain",
                     "--out", str(tmp_path / "plain.json")]) == 0
        assert main(["sweep", str(ppath), "--out-dir", str(tmp_path / "plain")]) == 0
        for path in frames.glob("*.ppm"):
            path.write_bytes(path.read_bytes().replace(
                b"P6\n", b"P6\n# CREATOR: GIMP PNM Filter Version 1.1\n", 1))
        assert main(["ingest", str(frames), str(apath), "--porcelain",
                     "--out", str(tmp_path / "commented.json")]) == 0
        assert main(["sweep", str(ppath), "--out-dir", str(tmp_path / "commented")]) == 0
        summary = json.loads((tmp_path / "commented.json").read_text())
        assert summary == json.loads((tmp_path / "plain.json").read_text())
        assert summary["frames"] == 4 and summary["resolution"] == [24, 32]
        assert ((tmp_path / "commented" / "manifold.csv").read_bytes()
                == (tmp_path / "plain" / "manifold.csv").read_bytes())

    def test_frame_with_maxval_0_exits_2(self, tmp_path):
        ppath = self.ingest_protocol(tmp_path, "OC")
        bad = tmp_path / "frames" / "f1.ppm"
        bad.write_bytes(bad.read_bytes().replace(b"\n255\n", b"\n0\n", 1))
        assert main(["ingest", str(tmp_path / "frames"), str(tmp_path / "annotation.json")]) == 2
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(ppath), "--out-dir", str(out_dir)]) == 2
        assert not (out_dir / "manifold.csv").exists()

    def test_mis_sized_flo_exits_2(self, tmp_path):
        from invarsim.imgio import write_flo

        ppath = self.ingest_protocol(tmp_path, "BC")
        apath = tmp_path / "annotation.json"
        doc = json.loads(apath.read_text())
        doc.update(zero_flow=False, flo_files=["a.flo", "b.flo", "c.flo"])
        apath.write_text(json.dumps(doc))
        for name, shape in (("a.flo", (24, 32, 2)), ("b.flo", (10, 14, 2)), ("c.flo", (24, 32, 2))):
            write_flo(tmp_path / "frames" / name, np.zeros(shape))
        assert main(["sweep", str(ppath), "--out-dir", str(tmp_path / "sweep")]) == 2


# every flag a subcommand does not read; argparse rejects each with exit 2
_POSITIONALS = {
    "sample": ["config.json", "--out", "scene.json"],
    "render": ["scene.json", "--out-dir", "frames"],
    "sweep": ["protocol.json", "--out-dir", "sweep"],
    "ingest": ["frames", "annotation.json"],
    "compare": ["a.csv", "b.csv"],
    "report": ["manifold.csv", "--out-dir", "report"],
}


@pytest.mark.parametrize("argv", [
    *[f"{c} --seed 1" for c in ("sweep", "ingest", "compare", "report")],
    *[f"{c} --threads 2" for c in ("sample", "render", "ingest", "compare", "report")],
    *[f"{c} --dry-run" for c in ("ingest", "compare", "report")],
])
def test_ignored_flags_exit_2(tmp_path, monkeypatch, capsys, argv):
    command, *flag = argv.split()
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, *_POSITIONALS[command], *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


class TestHeapSetting:
    """``main`` asks the C library's malloc to keep freed heap memory; the
    library never does, and commands run alike without ``mallopt``."""

    @pytest.fixture(autouse=True)
    def unset(self):
        cli._keep_freed_heap.cache_clear()
        yield
        cli._keep_freed_heap.cache_clear()

    @staticmethod
    def sample_and_render(tmp_path, name):
        """Every byte ``sample`` and ``render`` write but their manifests."""
        out = tmp_path / name
        out.mkdir()
        scene = out / "scene.json"
        assert main(["sample", str(write_scene_config(tmp_path)), "--out", str(scene),
                     "--seed", "3"]) == 0
        assert main(["render", str(scene), "--out-dir", str(out / "render"),
                     "--frames", "0..1", "--spp", "2", "--width", "16",
                     "--height", "12"]) == 0
        return {p.name: p.read_bytes() for p in (scene, *(out / "render").iterdir())
                if "manifest" not in p.name}

    @pytest.mark.parametrize("library", ["no C library", "no mallopt"])
    def test_commands_write_the_same_bytes_without_mallopt(self, tmp_path, monkeypatch,
                                                           library):
        want = self.sample_and_render(tmp_path, "with")
        opened = []

        def cdll(name, *args, **kwargs):
            opened.append(name)
            if library == "no C library":
                raise OSError(library)
            return types.SimpleNamespace()
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        cli._keep_freed_heap.cache_clear()
        assert self.sample_and_render(tmp_path, "without") == want
        assert opened == [None]

    def test_only_the_cli_calls_mallopt(self, tmp_path):
        # a fresh interpreter, so the import itself is recorded
        protocol = tmp_path / "protocol.json"
        protocol.write_text(json.dumps(tiny_protocol_doc()))
        script = textwrap.dedent("""
            import ctypes, json, sys, types
            calls = []
            def mallopt(param, value):
                calls.append([param, value])
                return 1
            ctypes.CDLL = lambda name, *a, **k: types.SimpleNamespace(mallopt=mallopt)
            import invarsim
            from invarsim.characterize import ProtocolConfig
            doc = json.loads(open(sys.argv[1]).read())
            invarsim.run_sweep(ProtocolConfig.from_dict(doc), threads=2)
            library = list(calls)
            from invarsim import cli
            code = cli.main(["sweep", sys.argv[1], "--out-dir", sys.argv[2], "--dry-run"])
            cli.main(["sweep", sys.argv[1], "--out-dir", sys.argv[2], "--dry-run"])
            print(json.dumps({"library": library, "cli": calls, "code": code}))
        """)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run([sys.executable, "-c", script, str(protocol),
                              str(tmp_path / "sweep")],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        got = json.loads(run.stdout.splitlines()[-1])
        # set once per process: the mmap threshold (-3), then the trim threshold (-1)
        assert got == {"library": [], "cli": [[-3, 32 << 20], [-1, 64 << 20]], "code": 0}
