"""Tests for the command-line interface: artifacts, exit codes, manifests."""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import SRC, edit_ply, load_pose_json
from equipose.backproject import PlyTable
from equipose.cli import EXIT_BAD_INPUT, EXIT_CHECK_FAILED, EXIT_OK, main
from equipose.geometry import RigidTransform, sample_uniform_rotation
from equipose.model import ModelConfig, init_model, save_model

RNG = np.random.default_rng


def write_correspondences(path, seed=0):
    rng = RNG(seed)
    src = rng.normal(size=(10, 3))
    pose = RigidTransform(sample_uniform_rotation(rng), rng.normal(size=3))
    path.write_text(
        json.dumps({"source": src.tolist(), "target": pose.apply(src).tolist()})
    )
    return pose


class TestFitPose:
    def test_roundtrip(self, tmp_path):
        corr = tmp_path / "corr.json"
        pose = write_correspondences(corr)
        out = tmp_path / "pose.json"
        assert main(["fit-pose", "--input", str(corr), "--out", str(out)]) == EXIT_OK
        fitted = load_pose_json(out)
        assert np.max(np.abs(fitted.rotation.m - pose.rotation.m)) <= 1e-8
        assert np.linalg.norm(fitted.translation - pose.translation) <= 1e-8
        manifest = json.loads((tmp_path / "pose.json.manifest.json").read_text())
        assert manifest["command"] == "fit-pose"
        assert str(out) in manifest["artifacts"]
        assert "config_digest" in manifest and "version" in manifest

    def test_missing_input_exits_2(self, tmp_path):
        code = main(
            ["fit-pose", "--input", str(tmp_path / "nope.json"), "--out", str(tmp_path / "p.json")]
        )
        assert code == EXIT_BAD_INPUT

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["fit-pose", "--input", str(bad), "--out", str(tmp_path / "p.json")])
        assert code == EXIT_BAD_INPUT

    def test_two_correspondences_exit_2(self, tmp_path):
        corr = tmp_path / "corr.json"
        pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        corr.write_text(json.dumps({"source": pts, "target": pts}))
        code = main(["fit-pose", "--input", str(corr), "--out", str(tmp_path / "p.json")])
        assert code == EXIT_BAD_INPUT

    @pytest.mark.parametrize("key", ["source", "target", "weights"])
    def test_non_finite_entry_exits_2_naming_the_file(self, tmp_path, capsys, key):
        corr = tmp_path / "corr.json"
        write_correspondences(corr)
        doc = json.loads(corr.read_text())
        doc["weights"] = [1.0] * len(doc["source"])
        doc[key][1] = [float("nan")] * 3 if key != "weights" else float("nan")
        corr.write_text(json.dumps(doc))  # json writes the NaN as a bare NaN token, which it reads back
        code = main(["fit-pose", "--input", str(corr), "--out", str(tmp_path / "p.json")])
        assert code == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert str(corr) in err and f"{key} has a non-finite entry" in err

    def test_degenerate_input_exits_3(self, tmp_path):
        line = np.outer(np.linspace(0, 1, 5), [1.0, 2.0, 3.0])
        corr = tmp_path / "corr.json"
        corr.write_text(json.dumps({"source": line.tolist(), "target": line.tolist()}))
        code = main(["fit-pose", "--input", str(corr), "--out", str(tmp_path / "p.json")])
        assert code == 3


class TestCheckEquivariance:
    def test_passes_and_is_seed_stable(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["check-equivariance", "--trials", "20", "--seed", "5"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["pass"] is True
        assert payload["residuals"]["vn_linear"] <= 1e-10

    def test_zero_tolerance_fails(self, tmp_path):
        code = main(
            [
                "check-equivariance",
                "--trials",
                "5",
                "--tolerance",
                "0",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == EXIT_CHECK_FAILED
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["pass"] is False
        assert payload["failing"]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--trials", "0"],
            ["--trials", "-3"],
            ["--tolerance", "nan"],
            ["--tolerance", "inf"],
            ["--tolerance=-1e-10"],
        ],
        ids=["zero_trials", "negative_trials", "nan_tolerance", "inf_tolerance", "negative_tolerance"],
    )
    def test_vacuous_check_exits_2(self, tmp_path, flags, capsys):
        out = tmp_path / "r.json"
        assert main(["check-equivariance", *flags, "--out", str(out)]) == EXIT_BAD_INPUT
        assert flags[0].split("=")[0] in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    code = main(
        [
            "synth-gen",
            "--out-dir",
            str(root),
            "--n-scenes",
            "4",
            "--seed",
            "9",
            "--noise-sigma",
            "0",
            "--occlusion",
            "0.2",
            "--background",
            "20",
            "--n-vertices",
            "300",
        ]
    )
    assert code == EXIT_OK
    return root


def assert_manifest_lists_every_created_file(manifest_path, before):
    """The manifest's artifacts are the files its command created beside it,
    besides the manifest itself; `before` is what the directory held."""
    created = set(manifest_path.parent.iterdir()) - before - {manifest_path}
    assert sorted(json.loads(manifest_path.read_text())["artifacts"]) == sorted(map(str, created))


def scenes_with_first_value(dataset, tmp_path, value, prop, with_meta=True):
    """Copy of the dataset's scenes whose first scene has its first vertex's
    `prop` value replaced by `value`, next to a copy of dataset.json unless
    with_meta is False."""
    scenes = tmp_path / "scenes"
    shutil.copytree(dataset / "scenes", scenes)
    if with_meta:
        shutil.copy(dataset / "dataset.json", tmp_path)

    def edit(table, names):
        table[0, names.index(prop)] = value
        return table

    edit_ply(sorted(scenes.glob("scene_*.ply"))[0], rows=edit)
    return scenes


class TestSynthGen:
    def test_artifacts_exist(self, dataset):
        assert (dataset / "dataset.json").exists()
        assert (dataset / "manifest.json").exists()
        assert sorted(p.name for p in (dataset / "scenes").glob("scene_*.ply")) == [
            f"scene_{i:05d}.ply" for i in range(4)
        ]
        registry_files = sorted(p.name for p in (dataset / "registry").iterdir())
        assert "model_001.json" in registry_files and "model_001.ply" in registry_files
        meta = json.loads((dataset / "dataset.json").read_text())
        assert meta["n_classes"] == 4 and meta["n_keypoints"] == 8

    @pytest.mark.parametrize(
        "flags",
        [["--keypoints", "0"], ["--n-scenes", "-1"], ["--n-vertices", "60", "--keypoints", "500"]],
        ids=["zero_keypoints", "negative_scenes", "keypoints_above_vertices"],
    )
    def test_bad_counts_exit_2(self, tmp_path, flags, capsys):
        out = tmp_path / "data"
        assert main(["synth-gen", "--out-dir", str(out), "--n-scenes", "1", *flags]) == EXIT_BAD_INPUT
        assert "error: bad input" in capsys.readouterr().err
        assert not (out / "dataset.json").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--n-vertices", "60", "--keypoints", "500"],
            ["--noise-sigma", "-1"],
            ["--noise-sigma", "nan"],
            ["--noise-sigma", "inf"],
            ["--occlusion", "0.95"],
            ["--occlusion", "nan"],
            ["--occlusion", "-0.5"],
        ],
        ids=[
            "keypoints_above_vertices",
            "negative_noise",
            "nan_noise",
            "inf_noise",
            "occlusion_above_max",
            "nan_occlusion",
            "negative_occlusion",
        ],
    )
    def test_bad_flags_create_no_out_dir(self, tmp_path, flags):
        out = tmp_path / "left"
        assert main(["synth-gen", "--out-dir", str(out), *flags]) == EXIT_BAD_INPUT
        assert not out.exists()


class TestEvalAndMetrics:
    def test_oracle_eval_reaches_perfect_hit_rate(self, dataset, tmp_path):
        out = tmp_path / "evalout"
        code = main(
            [
                "eval",
                "--scenes-dir",
                str(dataset / "scenes"),
                "--registry-dir",
                str(dataset / "registry"),
                "--out-dir",
                str(out),
                "--oracle-heads",
            ]
        )
        assert code == EXIT_OK
        rows = (out / "report.csv").read_text().strip().splitlines()[1:]
        assert rows
        for row in rows:
            fields = row.split(",")
            assert float(fields[3]) == 100.0  # hit_rate_01d
        assert (out / "manifest.json").exists()
        assert (out / "distances.json").exists()

    def test_metrics_on_stored_detections(self, dataset, tmp_path):
        evalout = tmp_path / "evalout"
        main(
            [
                "eval",
                "--scenes-dir",
                str(dataset / "scenes"),
                "--registry-dir",
                str(dataset / "registry"),
                "--out-dir",
                str(evalout),
                "--oracle-heads",
            ]
        )
        report = tmp_path / "report.csv"
        before = set(tmp_path.iterdir())
        code = main(
            [
                "metrics",
                "--detections-dir",
                str(evalout / "detections"),
                "--scenes-dir",
                str(dataset / "scenes"),
                "--registry-dir",
                str(dataset / "registry"),
                "--out",
                str(report),
            ]
        )
        assert code == EXIT_OK
        rows = report.read_text().strip().splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            # detections equal GT: every AUC row prints as 100.000000
            assert fields[1] == "100.000000" and fields[2] == "100.000000"
        assert_manifest_lists_every_created_file(tmp_path / "report.csv.manifest.json", before)

    def test_metrics_pairs_scenes_by_stem(self, dataset, tmp_path):
        # detections of scenes 0-2, scored against scenes 1-2 only: each scene
        # must be paired with its own detection file, not the one at its position
        evaluated, scored, out = tmp_path / "evaluated", tmp_path / "scored", tmp_path / "out"
        evaluated.mkdir()
        for path in (dataset / "scenes").glob("scene_*"):
            if path.stem != "scene_00003":
                shutil.copy(path, evaluated)
        registry = ["--registry-dir", str(dataset / "registry")]
        code = main(["eval", "--scenes-dir", str(evaluated), "--out-dir", str(out), "--oracle-heads"] + registry)
        assert code == EXIT_OK
        names = sorted(p.name for p in (out / "detections").iterdir())
        assert names == [f"scene_{i:05d}.json" for i in range(3)]
        shutil.copytree(evaluated, scored)
        for path in scored.glob("scene_00000.*"):
            path.unlink()
        report = tmp_path / "report.csv"
        code = main(
            ["metrics", "--detections-dir", str(out / "detections"), "--scenes-dir", str(scored)]
            + registry
            + ["--out", str(report)]
        )
        assert code == EXIT_OK
        rows = report.read_text().strip().splitlines()[1:]
        assert rows
        for row in rows:
            assert float(row.split(",")[3]) == 100.0  # hit_rate_01d

    @staticmethod
    def eval_with_first_value(dataset, tmp_path, value, prop="x"):
        """Run oracle-head eval after replacing the first scene's first `prop` value."""
        scenes = scenes_with_first_value(dataset, tmp_path, value, prop)
        return main(_eval_argv(dataset, tmp_path, scenes, "--oracle-heads"))

    def test_nan_coordinate_exits_2(self, dataset, tmp_path):
        assert self.eval_with_first_value(dataset, tmp_path, np.nan) == EXIT_BAD_INPUT

    def test_partial_double_body_exits_2(self, dataset, tmp_path):
        scenes = tmp_path / "scenes"
        shutil.copytree(dataset / "scenes", scenes)
        ply = scenes / "scene_00000.ply"
        ply.write_bytes(ply.read_bytes() + b"abc")
        assert main(_eval_argv(dataset, tmp_path, scenes, "--oracle-heads")) == EXIT_BAD_INPUT

    def test_nan_colour_exits_2(self, dataset, tmp_path):
        assert self.eval_with_first_value(dataset, tmp_path, np.nan, prop="r") == EXIT_BAD_INPUT

    @pytest.mark.parametrize("value", [1e300, 7.0])
    def test_colour_outside_unit_range_exits_2_naming_the_ply(self, dataset, tmp_path, capsys, value):
        # both used to run without a word; with a network, 1e300 ended as exit 3 in the assignment
        assert self.eval_with_first_value(dataset, tmp_path, value, prop="r") == EXIT_BAD_INPUT
        ply = tmp_path / "scenes" / "scene_00000.ply"
        assert f"malformed {ply}: point cloud contains" in capsys.readouterr().err

    def test_neither_params_nor_oracle_heads_exits_2(self, dataset, tmp_path, capsys):
        code = main(
            [
                "eval",
                "--scenes-dir",
                str(dataset / "scenes"),
                "--registry-dir",
                str(dataset / "registry"),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "--params" in err and "--oracle-heads" in err

    def test_params_and_oracle_heads_together_exit_2(self, dataset, tmp_path, capsys):
        # the oracle used to win without opening --params
        flags = ("--oracle-heads", "--params", "/nonexistent/params.bin")
        assert main(_eval_argv(dataset, tmp_path, dataset / "scenes", *flags)) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "exactly one of --params" in err and "--oracle-heads" in err

    @pytest.mark.parametrize("heads", ["params", "oracle"])
    def test_registry_keypoint_count_disagreeing_exits_2_naming_it(self, dataset, tmp_path, capsys, heads):
        # the 8-keypoint checkpoint or scenes against a 4-keypoint registry used
        # to fail at the first fitted instance, naming no file, after the
        # output directory was made; a run that detected nothing exited 0
        from equipose.synth import Registry, make_default_models, save_registry

        registry = tmp_path / "registry"
        save_registry(Registry(make_default_models(seed=9, n_vertices=300, n_keypoints=4)), registry)
        if heads == "params":
            params = tmp_path / "params.bin"
            save_model(init_model(ModelConfig(n_classes=4), seed=0), params)
            flags = ["--params", str(params)]
        else:
            flags = ["--oracle-heads"]
        out = tmp_path / "out"
        argv = ["eval", "--scenes-dir", str(dataset / "scenes"), "--registry-dir", str(registry), "--out-dir", str(out)]
        assert main([*argv, *flags]) == EXIT_BAD_INPUT
        assert f"error: bad input: malformed {registry / 'model_001.json'}: 4 keypoints, not " in capsys.readouterr().err
        assert not out.exists()

    def test_missing_scenes_dir_exits_2(self, tmp_path):
        code = main(
            [
                "eval",
                "--scenes-dir",
                str(tmp_path / "nowhere"),
                "--registry-dir",
                str(tmp_path),
                "--out-dir",
                str(tmp_path / "out"),
                "--oracle-heads",
            ]
        )
        assert code == EXIT_BAD_INPUT


class TestTrainCommand:
    def test_train_writes_params_and_csv(self, dataset, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "train",
                "--scenes-dir",
                str(dataset / "scenes"),
                "--out-dir",
                str(out),
                "--epochs",
                "2",
                "--seed",
                "1",
            ]
        )
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)  # descent flag decides
        assert (out / "params.bin").exists()
        assert (out / "params.bin.json").exists()
        assert (out / "loss.csv").read_text().startswith("step,seg,kp,center,so3,total")
        assert_manifest_lists_every_created_file(out / "manifest.json", set())

    def test_train_config_json(self, dataset, tmp_path):
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "learning_rate": 2e-3,
                    "epochs": 1,
                    "seed": 4,
                    "weights": {"seg": 1.0, "kp": 1.0, "center": 1.0, "so3": 0.0},
                }
            )
        )
        out = tmp_path / "run2"
        code = main(
            [
                "train",
                "--scenes-dir",
                str(dataset / "scenes"),
                "--out-dir",
                str(out),
                "--config",
                str(cfg_path),
            ]
        )
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)
        rows = (out / "loss.csv").read_text().strip().splitlines()[1:]
        for r in rows:  # so3 is still measured, but carries zero weight
            _, seg, kp, center, so3, total = (float(x) for x in r.split(",")[:6])
            assert abs(total - (seg + kp + center)) <= 1e-9
            assert so3 > 0.0

    @pytest.mark.parametrize(
        "config",
        [
            {"epochs": 1, "so3_atach": "kp_path"},
            {"epochs": 1, "weights": {"so3": -1.0}},
            {"optimizer": "adam"},
            {"epochs": 1, "seed": -1},
            {"epochs": 1, "seed": 1.5},
            {"epochs": 1.5},
            {"epochs": True},
            {"epochs": 1, "weights": {"so3": float("nan")}},
            {"epochs": 1, "weights": {"kp": float("inf")}},
            {"epochs": 1, "weights": {"seg": True}},
        ],
        ids=[
            "unknown_key",
            "negative_weight",
            "removed_key",
            "negative_seed",
            "seed_float",
            "epochs_float",
            "epochs_bool",
            "nan_weight",
            "inf_weight",
            "bool_weight",
        ],
    )
    def test_bad_config_exits_2(self, dataset, tmp_path, config, capsys):
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps(config))  # a NaN or inf weight is written as a bare token
        code = main(
            [
                "train",
                "--scenes-dir",
                str(dataset / "scenes"),
                "--out-dir",
                str(tmp_path / "run"),
                "--config",
                str(cfg_path),
            ]
        )
        assert code == EXIT_BAD_INPUT
        assert f"error: bad input: malformed {cfg_path}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--epochs", "5"], ["--learning-rate", "0.5"], ["--seed", "3"]], ids=lambda f: f[0]
    )
    def test_flag_with_config_exits_2_naming_it(self, dataset, tmp_path, flag, capsys):
        # the file would win silently: {"epochs": 1} trained 1 epoch under --epochs 5
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "seed": 2}))
        out = tmp_path / "run"
        argv = ["train", "--scenes-dir", str(dataset / "scenes"), "--out-dir", str(out)]
        assert main([*argv, "--config", str(cfg_path), *flag]) == EXIT_BAD_INPUT
        assert f"error: bad input: {flag[0]} cannot be given with --config" in capsys.readouterr().err
        assert not out.exists()

    def test_label_out_of_range_exits_2(self, dataset, tmp_path, capsys):
        scenes = scenes_with_first_value(dataset, tmp_path, 7.0, "label")
        code = main(["train", "--scenes-dir", str(scenes), "--out-dir", str(tmp_path / "run"), "--epochs", "1"])
        assert code == EXIT_BAD_INPUT
        assert "labels must lie in [0, 4)" in capsys.readouterr().err

    def test_without_dataset_json_classes_come_from_ground_truth(self, dataset, tmp_path, capsys):
        # n_classes is read from the sidecars' GT classes, not from max(label) + 1
        scenes = scenes_with_first_value(dataset, tmp_path / "bad", 7.0, "label", with_meta=False)
        assert not (tmp_path / "bad" / "dataset.json").exists()
        code = main(["train", "--scenes-dir", str(scenes), "--out-dir", str(tmp_path / "run"), "--epochs", "1"])
        assert code == EXIT_BAD_INPUT
        assert "labels must lie in [0, 4)" in capsys.readouterr().err
        clean = tmp_path / "clean" / "scenes"
        shutil.copytree(dataset / "scenes", clean)
        code = main(["train", "--scenes-dir", str(clean), "--out-dir", str(tmp_path / "run2"), "--epochs", "1"])
        assert code == EXIT_OK

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_learning_rate_exits_2(self, dataset, tmp_path, rate, capsys):
        code = main(
            [
                "train",
                "--scenes-dir",
                str(dataset / "scenes"),
                "--out-dir",
                str(tmp_path / "run"),
                "--learning-rate",
                rate,
            ]
        )
        assert code == EXIT_BAD_INPUT
        assert "learning rate" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_default_instance_passes(self, tmp_path):
        out = tmp_path / "gradcheck.json"
        code = main(["gradcheck", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["max_relative_error"] <= 1e-4

    @pytest.mark.parametrize(
        "flags",
        [
            ["--step", "nan"],
            ["--step", "inf"],
            ["--step", "0"],
            ["--tolerance", "nan"],
            ["--tolerance", "-1"],
        ],
        ids=["nan_step", "inf_step", "zero_step", "nan_tolerance", "negative_tolerance"],
    )
    def test_bad_step_or_tolerance_exits_2(self, tmp_path, flags, capsys):
        out = tmp_path / "gradcheck.json"
        assert main(["gradcheck", *flags, "--out", str(out)]) == EXIT_BAD_INPUT
        assert "error: bad input" in capsys.readouterr().err
        assert not out.exists()


def _fit_pose_on(doc):
    def case(dataset, tmp_path):
        path = tmp_path / "corr.json"
        path.write_text(json.dumps(doc))
        return ["fit-pose", "--input", str(path), "--out", str(tmp_path / "pose.json")], path

    return case


def _eval_argv(dataset, tmp_path, scenes, *flags):
    registry = ["--registry-dir", str(dataset / "registry")]
    return ["eval", "--scenes-dir", str(scenes), *registry, "--out-dir", str(tmp_path / "out"), *flags]


def _train_argv(tmp_path, scenes):
    return ["train", "--scenes-dir", str(scenes), "--out-dir", str(tmp_path / "run"), "--epochs", "1"]


def _on_edited_scene(suffix, edit, command="eval", named=None):
    """`command` on a copy of the scenes whose first scene has its `suffix`
    file edited, a sidecar's text by `edit(text)` and a PLY file in place by
    `edit(path)`; the error names that scene's `named` file, by default the
    edited one."""

    def case(dataset, tmp_path):
        scenes = tmp_path / "scenes"
        shutil.copytree(dataset / "scenes", scenes)
        path = scenes / f"scene_00000{suffix}"
        if suffix == ".ply":
            edit(path)
        else:
            path.write_text(edit(path.read_text()))
        if command == "train":
            argv = _train_argv(tmp_path, scenes)
        else:
            argv = _eval_argv(dataset, tmp_path, scenes, "--oracle-heads")
        return argv, scenes / f"scene_00000{named or suffix}"

    return case


def _set_keypoints(n_keypoints):
    def edit(text):
        sidecar = json.loads(text)
        sidecar["n_keypoints"] = n_keypoints
        return json.dumps(sidecar)

    return edit


def _eval_with_nan_offset(dataset, tmp_path):
    scenes = scenes_with_first_value(dataset, tmp_path, np.nan, "off_0_x")
    return _eval_argv(dataset, tmp_path, scenes, "--oracle-heads"), scenes / "scene_00000.ply"


def _eval_with_fractional_label(dataset, tmp_path):
    scenes = scenes_with_first_value(dataset, tmp_path, 1.5, "label")
    return _eval_argv(dataset, tmp_path, scenes, "--oracle-heads"), scenes / "scene_00000.ply"


def _eval_on_edited_registry_ply(edit):
    """`eval --oracle-heads` on a copy of the registry whose model_001.ply is
    edited in place by `edit(path)`."""

    def case(dataset, tmp_path):
        registry = tmp_path / "registry"
        shutil.copytree(dataset / "registry", registry)
        path = registry / "model_001.ply"
        edit(path)
        argv = ["eval", "--scenes-dir", str(dataset / "scenes"), "--registry-dir", str(registry)]
        return [*argv, "--out-dir", str(tmp_path / "out"), "--oracle-heads"], path

    return case


def _ply_header(pattern, repl):
    """An in-place edit of a PLY file whose header's first match of `pattern` becomes `repl`."""
    return lambda path: edit_ply(path, header=lambda text: re.sub(pattern, repl, text, count=1))


def _no_vertices(path):
    edit_ply(
        path,
        header=lambda text: re.sub(r"element vertex \d+", "element vertex 0", text, count=1),
        rows=lambda table, names: table[:0],
    )


def _without_end_header(path):
    edit_ply(path, header=lambda text: text[: text.index("end_header")], rows=lambda table, names: table[:0])


def _without_rgb(path):
    """The registry PLY with its r, g, b columns dropped."""
    edit_ply(
        path,
        header=lambda text: re.sub(r"property float64 [rgb]\n", "", text),
        rows=lambda table, names: table[:, [names.index(axis) for axis in "xyz"]],
    )


def _as_ascii_ply(path):
    """The PLY file rewritten in the ASCII format older datasets were written in."""
    table = PlyTable(path)
    lines = ["ply", "format ascii 1.0", f"element vertex {len(table.rows)}"]
    lines += [f"property float64 {name}" for name in table.names] + ["end_header"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in table.rows]
    path.write_text("\n".join(lines) + "\n")


def _eval_on_edited_model_json(edit):
    """`eval --oracle-heads` on a copy of the registry whose model_001.json is edited."""

    def case(dataset, tmp_path):
        registry = tmp_path / "registry"
        shutil.copytree(dataset / "registry", registry)
        path = registry / "model_001.json"
        meta = json.loads(path.read_text())
        edit(meta)
        path.write_text(json.dumps(meta))
        argv = ["eval", "--scenes-dir", str(dataset / "scenes"), "--registry-dir", str(registry)]
        return [*argv, "--out-dir", str(tmp_path / "out"), "--oracle-heads"], path

    return case


def _train_on_mixed_keypoint_counts(dataset, tmp_path):
    """Two 5-keypoint scenes after the dataset's 8-keypoint ones; the first is named."""
    from equipose.synth import SceneConfig, make_default_models, render_scene, save_scene

    scenes = tmp_path / "scenes"
    shutil.copytree(dataset / "scenes", scenes)
    models = make_default_models(seed=9, n_vertices=300, n_keypoints=5)
    for i in (8, 9):
        save_scene(scenes / f"scene_{i:05d}", render_scene(models, SceneConfig(), seed=i))
    return _train_argv(tmp_path, scenes), scenes / "scene_00008.json"


def _drop_last_row(path):
    edit_ply(path, rows=lambda table, names: table[:-1])


def _repeat_last_row(path):
    edit_ply(path, rows=lambda table, names: np.vstack([table, table[-1:]]))


def _skew_first_rotation(text):
    sidecar = json.loads(text)
    sidecar["poses"][0]["rotation"][0][0] *= 2.0
    return json.dumps(sidecar)


def _nan_first_translation(text):
    sidecar = json.loads(text)
    sidecar["poses"][0]["translation"][0] = float("nan")
    return json.dumps(sidecar)


def _metrics_on_edited_detections(edit):
    """`metrics` on oracle-head detections whose first scene's first detection
    is edited."""

    def case(dataset, tmp_path):
        argv = _eval_argv(dataset, tmp_path, dataset / "scenes", "--oracle-heads")
        assert main(argv) == EXIT_OK
        detections = tmp_path / "out" / "detections"
        path = detections / "scene_00000.json"
        doc = json.loads(path.read_text())
        edit(doc["detections"][0])
        path.write_text(json.dumps(doc))
        scenes = ["--scenes-dir", str(dataset / "scenes"), "--registry-dir", str(dataset / "registry")]
        return ["metrics", "--detections-dir", str(detections), *scenes, "--out", str(tmp_path / "r.csv")], path

    return case


def _train_on_edited_dataset_json(edit):
    def case(dataset, tmp_path):
        shutil.copytree(dataset / "scenes", tmp_path / "scenes")
        path = tmp_path / "dataset.json"
        meta = json.loads((dataset / "dataset.json").read_text())
        edit(meta)
        path.write_text(json.dumps(meta))
        return ["train", "--scenes-dir", str(tmp_path / "scenes"), "--out-dir", str(tmp_path / "run"), "--epochs", "1"], path

    return case


def _eval_on_edited_params(edit):
    def case(dataset, tmp_path):
        params = tmp_path / "params.bin"
        save_model(init_model(ModelConfig(n_classes=4), seed=0), params)
        path = tmp_path / "params.bin.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        return _eval_argv(dataset, tmp_path, dataset / "scenes", "--params", str(params)), path

    return case


def _train_with_fractional_epochs(dataset, tmp_path):
    path = tmp_path / "train.json"
    path.write_text(json.dumps({"epochs": 1.5}))
    argv = ["train", "--scenes-dir", str(dataset / "scenes"), "--out-dir", str(tmp_path / "run")]
    return [*argv, "--config", str(path)], path


def _eval_on_nan_params(dataset, tmp_path):
    path = tmp_path / "params.bin"
    save_model(init_model(ModelConfig(n_classes=4), seed=0), path)
    path.write_bytes(np.full(path.stat().st_size // 8, np.nan).tobytes())
    return _eval_argv(dataset, tmp_path, dataset / "scenes", "--params", str(path)), path


def _eval_on_truncated_params(dataset, tmp_path):
    path = tmp_path / "params.bin"
    save_model(init_model(ModelConfig(n_classes=4), seed=0), path)
    path.write_bytes(path.read_bytes()[:1000])
    return _eval_argv(dataset, tmp_path, dataset / "scenes", "--params", str(path)), path


@pytest.mark.parametrize(
    "case",
    [
        _fit_pose_on({"target": [[0.0, 0.0, 0.0]] * 4}),
        _fit_pose_on([[0.0, 0.0, 0.0]]),
        _fit_pose_on({"source": [[0.0, 0.0, 0.0]] * 4, "target": "abc"}),
        _on_edited_scene(".json", _skew_first_rotation),
        _train_on_edited_dataset_json(lambda meta: meta.pop("n_classes")),
        _train_on_edited_dataset_json(lambda meta: meta.update(n_classes="4")),
        _eval_on_truncated_params,
        _on_edited_scene(".ply", _ply_header(" label\n", " lbl\n")),
        _eval_on_edited_params(lambda manifest: manifest["model_config"].update(n_classes="4")),
        _train_with_fractional_epochs,
        _eval_on_edited_params(lambda manifest: manifest["model_config"].update(n_classes=5)),
        _eval_on_edited_params(lambda manifest: manifest["tensors"].pop()),
        _eval_on_edited_params(
            lambda manifest: manifest["tensors"].append(dict(manifest["tensors"][0], name="extra.W"))
        ),
        _on_edited_scene(".ply", _ply_header(" r\n", " red\n")),
        _on_edited_scene(".ply", _ply_header("end_header", "\nend_header")),
        _on_edited_scene(".ply", _ply_header("end_header", "\nend_header"), "train"),
        _on_edited_scene(".ply", _ply_header(" label\n", "\n")),
        _eval_on_edited_registry_ply(_ply_header("property float64 y\n", "property float64 v\n")),
        _on_edited_scene(".ply", _ply_header(r"element vertex \d+\n", "")),
        _on_edited_scene(".ply", _without_end_header),
        _on_edited_scene(".ply", _drop_last_row),
        _on_edited_scene(".ply", _repeat_last_row),
        _on_edited_scene(".ply", _ply_header(" off_1_y\n", " off_1_x\n")),
        _on_edited_scene(".json", _set_keypoints(7), named=".ply"),
        _on_edited_scene(".json", _set_keypoints(9), named=".ply"),
        _eval_with_nan_offset,
        _eval_with_fractional_label,
        _train_on_mixed_keypoint_counts,
        _on_edited_scene(".json", _nan_first_translation),
        _metrics_on_edited_detections(lambda det: det["pose"]["rotation"][0].__setitem__(0, float("nan"))),
        _metrics_on_edited_detections(lambda det: det.update({"class": 1.5})),
        _metrics_on_edited_detections(lambda det: det.update({"class": True})),
        _metrics_on_edited_detections(lambda det: det.update(indices=[i + 0.7 for i in det["indices"]])),
        _metrics_on_edited_detections(lambda det: det.pop("indices")),
        _fit_pose_on({"source": np.eye(3).tolist(), "target": np.eye(3).tolist(), "weights": [-1, 1, 1]}),
        _fit_pose_on({"source": np.eye(3).tolist(), "target": np.eye(3)[:2].tolist()}),
        _eval_on_nan_params,
        _eval_on_edited_model_json(lambda meta: meta["keypoints"][0].__setitem__(0, float("nan"))),
        _eval_on_edited_model_json(lambda meta: meta.update(diameter=float("nan"))),
        _eval_on_edited_model_json(lambda meta: meta["center"].__setitem__(1, float("inf"))),
        _eval_on_edited_params(lambda manifest: manifest["model_config"].update(lift_cap=float("nan"))),
        _eval_on_edited_params(lambda manifest: manifest["model_config"].update(lift_cap=0.0)),
        _eval_on_edited_params(lambda manifest: manifest["model_config"].update(lift_cap=-2.0)),
        _eval_on_edited_params(
            lambda manifest: manifest["model_config"]["lift_scales"].__setitem__(2, float("inf"))
        ),
        _eval_on_edited_params(lambda manifest: manifest["model_config"]["lift_scales"].__setitem__(2, 0.0)),
        _eval_on_edited_params(lambda manifest: manifest["model_config"]["lift_scales"].__setitem__(1, -60.0)),
        _eval_on_edited_params(lambda manifest: manifest["model_config"].update(lift_neighbors=0)),
        _eval_on_edited_registry_ply(_no_vertices),
        _on_edited_scene(".ply", _as_ascii_ply),
        _eval_on_edited_registry_ply(_as_ascii_ply),
        _eval_on_edited_registry_ply(_without_rgb),
        _eval_on_edited_model_json(lambda meta: meta.update(keypoints=np.zeros((6, 4)).tolist())),
        _eval_on_edited_model_json(lambda meta: meta.update(center=[meta["center"]])),
        _on_edited_scene(".ply", _no_vertices, "train"),
    ],
    ids=[
        "no_source",
        "top_level_list",
        "string_target",
        "skewed_rotation",
        "no_n_classes",
        "string_n_classes",
        "truncated_params",
        "ply_without_labels",
        "string_n_classes_params",
        "fractional_epochs_config",
        "params_config_builds_other_shapes",
        "params_missing_tensor",
        "params_extra_tensor",
        "ply_without_red",
        "ply_blank_header_line",
        "ply_blank_header_line_train",
        "ply_nameless_property",
        "registry_ply_without_y",
        "ply_without_element_vertex",
        "ply_without_end_header",
        "ply_row_short",
        "ply_row_extra",
        "ply_repeated_column",
        "sidecar_fewer_keypoints_than_offsets",
        "sidecar_more_keypoints_than_offsets",
        "ply_nan_offset",
        "fractional_label",
        "train_mixed_keypoint_counts",
        "sidecar_nan_translation",
        "detections_nan_rotation",
        "detections_fractional_class",
        "detections_bool_class",
        "detections_fractional_index",
        "detections_without_indices",
        "negative_weight",
        "target_rows_differ",
        "params_nan_value",
        "registry_nan_keypoint",
        "registry_nan_diameter",
        "registry_inf_center",
        "params_nan_lift_cap",
        "params_zero_lift_cap",
        "params_negative_lift_cap",
        "params_inf_lift_scale",
        "params_zero_lift_scale",
        "params_negative_lift_scale",
        "params_zero_lift_neighbors",
        "registry_ply_without_vertices",
        "ply_ascii_format",
        "registry_ply_ascii_format",
        "registry_ply_without_rgb",
        "registry_keypoints_of_four_values",
        "registry_center_as_a_row",
        "train_scene_without_points",
    ],
)
def test_malformed_input_file_exits_2_naming_it(dataset, tmp_path, case, capsys):
    argv, path = case(dataset, tmp_path)
    assert main(argv) == EXIT_BAD_INPUT
    assert f"error: bad input: malformed {path}: " in capsys.readouterr().err


def _path_flags(dataset, tmp_path):
    """Flags with which each command gets past its path arguments."""
    scenes, registry = ["--scenes-dir", str(dataset / "scenes")], ["--registry-dir", str(dataset / "registry")]
    return {
        "train": [*scenes, "--out-dir", str(tmp_path / "run")],
        "fit-pose": ["--input", str(tmp_path / "corr.json"), "--out", str(tmp_path / "pose.json")],
        "eval": [*scenes, *registry, "--out-dir", str(tmp_path / "out"), "--oracle-heads"],
        "synth-gen": ["--out-dir", str(tmp_path / "data"), "--n-scenes", "1", "--n-vertices", "100"],
        "check-equivariance": ["--trials", "1", "--out", str(tmp_path / "r.json")],
        "metrics": ["--detections-dir", str(tmp_path), *scenes, *registry, "--out", str(tmp_path / "r.csv")],
    }


@pytest.mark.parametrize(
    "command, flag, kind",
    [
        ("train", "--config", "dir"),
        ("fit-pose", "--input", "dir"),
        ("eval", "--scenes-dir", "file"),
        ("eval", "--registry-dir", "file"),
        ("eval", "--out-dir", "file"),
        ("synth-gen", "--out-dir", "file"),
        ("check-equivariance", "--out", "dir"),
        ("metrics", "--detections-dir", "file"),
        ("train", "--config", "missing"),
        ("eval", "--registry-dir", "missing"),
        ("metrics", "--detections-dir", "missing"),
        ("metrics", "--scenes-dir", "missing"),
        ("eval", "--scenes-dir", "dir"),  # no scene_*.ply files
        ("eval", "--registry-dir", "dir"),  # no model files
    ],
    ids=lambda v: v.lstrip("-"),
)
def test_unusable_path_exits_2_naming_it(dataset, tmp_path, capsys, command, flag, kind):
    # a file where a directory is expected, the reverse, an empty directory, or nothing at all
    path = tmp_path / kind
    if kind == "file":
        path.write_text("")
    elif kind == "dir":
        path.mkdir()
    write_correspondences(tmp_path / "corr.json")
    argv = [command, *_path_flags(dataset, tmp_path)[command], flag, str(path)]  # the last flag wins
    assert main(argv) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: bad input: ") and str(path) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check-equivariance", "--trials", "1"],
        ["synth-gen", "--out-dir", "data"],
        ["train", "--scenes-dir", "scenes", "--out-dir", "run"],
        ["gradcheck"],
    ],
    ids=["check-equivariance", "synth-gen", "train", "gradcheck"],
)
def test_negative_seed_exits_2(argv, capsys):
    # argparse rejects it before the command runs
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == EXIT_BAD_INPUT
    assert "--seed: seed must be non-negative" in capsys.readouterr().err


def test_version_via_subprocess():
    # pytest's pythonpath setting does not reach a child process
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "equipose.cli", "--version"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "equipose" in proc.stdout


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
