"""Command-line entry points wiring the library together for scripts and CI.

Exit codes: 0 success, 1 property or acceptance failure, 2 bad input,
3 internal error. Every command writes one manifest alongside its outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import EquiposeError, InputError, NonFiniteLoss
from .files import read_json, write_json
from .geometry import (
    load_correspondences_json,
    fit_rigid_least_squares,
    sample_uniform_rotation,
    save_pose_json,
)
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3


def _config_digest(args: argparse.Namespace) -> str:
    payload = json.dumps(
        {k: v for k, v in sorted(vars(args).items()) if k != "func"}, sort_keys=True, default=str
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _write_manifest(location, command: str, args, seed, artifacts, started: float) -> str:
    if os.path.isdir(location):
        path = os.path.join(location, "manifest.json")
    else:
        path = str(location) + ".manifest.json"
    manifest = {
        "command": command,
        "config_digest": _config_digest(args),
        "seed": seed,
        "artifacts": [str(a) for a in artifacts],
        "version": __version__,
        "duration_s": time.monotonic() - started,
    }
    write_json(path, manifest)
    return path


def _require_tolerance(tolerance: float) -> None:
    # a NaN tolerance would pass every residual
    if not (np.isfinite(tolerance) and tolerance >= 0.0):
        raise InputError(f"--tolerance must be finite and non-negative, got {tolerance}")


def non_negative_int(text: str) -> int:
    """argparse type of every --seed: numpy's generators need seed >= 0."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def _scene_stems(directory):
    stems = sorted(
        os.path.join(directory, name[:-4])
        for name in os.listdir(directory)
        if name.startswith("scene_") and name.endswith(".ply")
    )
    if not stems:
        raise InputError(f"no scene_*.ply files in {directory}")
    return stems


def _load_scenes(directory) -> dict:
    """File stem (e.g. "scene_00000") -> scene, in sorted stem order."""
    from .synth import load_scene

    return {os.path.basename(stem): load_scene(stem) for stem in _scene_stems(directory)}


def _score(detections_by_scene, scenes: dict, registry, csv_path, distances_path) -> None:
    """Score detections against the scenes' GT, write the report CSV and the
    distances JSON, and print one line per object."""
    from .metrics import distances_to_json, evaluate_dataset, report_to_csv

    report = evaluate_dataset(detections_by_scene, [s.gt_poses for s in scenes.values()], registry)
    report_to_csv(report, csv_path)
    distances_to_json(report, distances_path)
    for row in report.rows():
        print(
            f"object {row['object']}: ADD-S AUC {row['adds_auc']:.2f}, "
            f"ADD(-S) AUC {row['add_or_adds_auc']:.2f}, hit@0.1d {row['hit_rate_01d']:.1f} "
            f"({row['n_samples']} samples)"
        )


# commands -------------------------------------------------------------------


def cmd_check_equivariance(args) -> int:
    from .checks import full_report

    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    _require_tolerance(args.tolerance)
    started = time.monotonic()
    report = full_report(trials=args.trials, seed=args.seed)
    failing = sorted(
        name
        for name, value in report.items()
        if (name == "seg_argmax_flips" and value > 0)
        or (name != "seg_argmax_flips" and value > args.tolerance)
    )
    payload = {
        "trials": args.trials,
        "tolerance": args.tolerance,
        "seed": args.seed,
        "residuals": report,
        "pass": not failing,
        "failing": failing,
    }
    write_json(args.out, payload)
    _write_manifest(args.out, "check-equivariance", args, args.seed, [args.out], started)
    for name in sorted(report):
        print(f"{name}: {report[name]:.3e}")
    if failing:
        print(f"FAIL: residual above tolerance for {', '.join(failing)}")
        return EXIT_CHECK_FAILED
    print("PASS")
    return EXIT_OK


def cmd_synth_gen(args) -> int:
    from .synth import SceneConfig, make_default_models, render_scene, save_registry, save_scene, Registry

    if args.n_scenes < 0:
        raise InputError(f"--n-scenes must be non-negative, got {args.n_scenes}")
    started = time.monotonic()
    # both validate their flags, so bad input exits before --out-dir exists
    models = make_default_models(
        seed=args.seed, n_vertices=args.n_vertices, n_keypoints=args.keypoints
    )
    config = SceneConfig(
        noise_sigma=args.noise_sigma,
        occlusion=(0.0, args.occlusion),
        n_background=args.background,
    )
    registry_dir = os.path.join(args.out_dir, "registry")
    save_registry(Registry(models), registry_dir)
    scenes_dir = os.path.join(args.out_dir, "scenes")
    os.makedirs(scenes_dir, exist_ok=True)
    artifacts = [registry_dir, scenes_dir]
    for i in range(args.n_scenes):
        stem = os.path.join(scenes_dir, f"scene_{i:05d}")
        save_scene(stem, render_scene(models, config, seed=args.seed + 1000 + i))
    dataset = {
        "n_classes": max(m.id for m in models) + 1,
        "n_keypoints": args.keypoints,
        "class_ids": [m.id for m in models],
        "n_scenes": args.n_scenes,
        "seed": args.seed,
    }
    dataset_path = os.path.join(args.out_dir, "dataset.json")
    write_json(dataset_path, dataset)
    artifacts.append(dataset_path)
    _write_manifest(args.out_dir, "synth-gen", args, args.seed, artifacts, started)
    print(f"wrote {args.n_scenes} scenes and {len(models)} models to {args.out_dir}")
    return EXIT_OK


# The train flags a --config file replaces, and their defaults without one.
TRAIN_FLAG_DEFAULTS = {"epochs": 2, "learning_rate": 1e-3, "seed": 0}


def cmd_train(args) -> int:
    from .model import ModelConfig, init_model, save_model
    from .train import TrainConfig, train

    given = [name for name in TRAIN_FLAG_DEFAULTS if hasattr(args, name)]
    if args.config and given:
        flag = "--" + given[0].replace("_", "-")
        raise InputError(f"{flag} cannot be given with --config: the file sets every training field")
    for name, default in TRAIN_FLAG_DEFAULTS.items():  # before the manifest digests args
        setattr(args, name, getattr(args, name, default))
    started = time.monotonic()
    scenes = _load_scenes(args.scenes_dir)
    n_keypoints = next(iter(scenes.values())).n_keypoints
    for name, scene in scenes.items():  # one network predicts one keypoint count
        stem = os.path.join(args.scenes_dir, name)
        if len(scene.cloud) == 0:  # pool-concat needs a point to pool
            raise InputError(f"malformed {stem}.ply: a training scene needs at least one point")
        if scene.n_keypoints != n_keypoints:
            raise InputError(
                f"malformed {stem}.json: {scene.n_keypoints} keypoints, not the first scene's {n_keypoints}"
            )
    scenes = list(scenes.values())
    meta_path = os.path.join(os.path.dirname(os.path.abspath(args.scenes_dir)), "dataset.json")
    if os.path.exists(meta_path):
        with read_json(meta_path) as meta:
            n_classes = meta["n_classes"]
            # the file's class count meets ModelConfig's checks under its name
            ModelConfig(n_classes=n_classes)
    else:  # the ground-truth classes, so a stray label stays out of range
        n_classes = max((cls for s in scenes for cls, _ in s.gt_poses), default=0) + 1
    if args.config:
        cfg = TrainConfig.from_json(args.config)
    else:
        cfg = TrainConfig(
            learning_rate=args.learning_rate, epochs=args.epochs, seed=args.seed
        )
    model_cfg = ModelConfig(n_classes=n_classes, n_keypoints=n_keypoints)
    model = init_model(model_cfg, seed=cfg.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "loss.csv")
    history = train(scenes, model, cfg, csv_path=csv_path)
    params_path = os.path.join(args.out_dir, "params.bin")
    save_model(model, params_path)
    artifacts = [params_path, params_path + ".json", csv_path]
    _write_manifest(args.out_dir, "train", args, cfg.seed, artifacts, started)
    print(
        f"trained {len(history.reports)} steps; final total {history.reports[-1].total:.6f}; "
        f"descent={'ok' if history.descent_ok else 'FAILED'}"
    )
    return EXIT_OK if history.descent_ok else EXIT_CHECK_FAILED


def cmd_eval(args) -> int:
    from .model import load_model
    from .pipeline import detections_to_json, run_pipeline
    from .synth import load_registry

    if (args.params is None) != args.oracle_heads:
        raise InputError("eval takes exactly one of --params (a parameter container from train) and --oracle-heads")
    started = time.monotonic()
    scenes = _load_scenes(args.scenes_dir)
    registry = load_registry(args.registry_dir)
    model = None if args.oracle_heads else load_model(args.params)
    # every fit pairs a model's keypoints with the voted ones: as many as the
    # checkpoint predicts, or under the oracle as each scene's offsets carry
    if model is None:
        counts = {f"{os.path.join(args.scenes_dir, name)}.json's": s.n_keypoints for name, s in scenes.items()}
    else:
        counts = {f"{args.params}'s": model.cfg.n_keypoints}
    for cls in registry:
        have = len(registry.lookup(cls).keypoints)
        for source, n in counts.items():
            if have != n:
                raise InputError(f"malformed {registry.files[cls]}: {have} keypoints, not {source} {n}")
    os.makedirs(args.out_dir, exist_ok=True)
    det_dir = os.path.join(args.out_dir, "detections")
    os.makedirs(det_dir, exist_ok=True)
    detections_by_scene = []
    for i, (name, scene) in enumerate(scenes.items()):
        oracle = (scene.labels, scene.gt_offsets) if args.oracle_heads else None
        detections = run_pipeline(scene.cloud, model, registry, oracle=oracle)
        detections_by_scene.append(detections)
        detections_to_json(os.path.join(det_dir, f"{name}.json"), detections, i)
    report_path = os.path.join(args.out_dir, "report.csv")
    distances_path = os.path.join(args.out_dir, "distances.json")
    _score(detections_by_scene, scenes, registry, report_path, distances_path)
    _write_manifest(
        args.out_dir, "eval", args, None, [det_dir, report_path, distances_path], started
    )
    return EXIT_OK


def cmd_fit_pose(args) -> int:
    started = time.monotonic()
    corr = load_correspondences_json(args.input)
    pose = fit_rigid_least_squares(corr)
    save_pose_json(args.out, pose)
    _write_manifest(args.out, "fit-pose", args, None, [args.out], started)
    print(f"pose written to {args.out}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    from .pipeline import detections_from_json
    from .synth import load_registry

    started = time.monotonic()
    scenes = _load_scenes(args.scenes_dir)
    registry = load_registry(args.registry_dir)
    stored = set(os.listdir(args.detections_dir))
    detections_by_scene = []
    for name in scenes:  # paired by stem; a missing file is a miss
        path = os.path.join(args.detections_dir, f"{name}.json")
        detections_by_scene.append(detections_from_json(path) if f"{name}.json" in stored else [])
    distances_path = args.out + ".distances.json"
    _score(detections_by_scene, scenes, registry, args.out, distances_path)
    _write_manifest(args.out, "metrics", args, None, [args.out, distances_path], started)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .checks import TINY_MODEL, tiny_scene
    from .model import init_model
    from .train import TrainConfig, gradcheck, scene_tensors

    _require_tolerance(args.tolerance)
    started = time.monotonic()
    scene = tiny_scene(args.seed, args.seed + 8)
    model = init_model(TINY_MODEL, seed=args.seed + 3)
    tensors = scene_tensors(scene, model)
    rotation = sample_uniform_rotation(np.random.default_rng(args.seed + 1))
    err = gradcheck(model, tensors, TrainConfig(seed=args.seed), rotation, step=args.step)
    print(f"max relative gradient error: {err:.3e}")
    if args.out:
        write_json(args.out, {"max_relative_error": err, "step": args.step})
        _write_manifest(args.out, "gradcheck", args, args.seed, [args.out], started)
    return EXIT_OK if err <= args.tolerance else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equipose",
        description="Rotation-equivariant features and keypoint-voting 6D pose estimation.",
    )
    parser.add_argument("--version", action="version", version=f"equipose {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def sub(name, help_text):
        return commands.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )

    p = sub("check-equivariance", "run the layer property suites")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", default="equivariance_report.json")
    p.set_defaults(func=cmd_check_equivariance)

    p = sub("synth-gen", "generate object models and labeled scenes")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-scenes", type=int, default=10)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--occlusion", type=float, default=0.0, help="max occluded fraction")
    p.add_argument("--background", type=int, default=0)
    p.add_argument("--n-vertices", type=int, default=600)
    p.add_argument("--keypoints", type=int, default=8)
    p.set_defaults(func=cmd_synth_gen)

    p = sub("train", "train on a scene directory")
    p.add_argument("--scenes-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None, help="TrainConfig JSON file")
    # SUPPRESS leaves a flag that is not given off args, so cmd_train sees which were
    for flag, kind in (("--epochs", int), ("--learning-rate", float), ("--seed", non_negative_int)):
        default = TRAIN_FLAG_DEFAULTS[flag[2:].replace("-", "_")]
        p.add_argument(flag, type=kind, default=argparse.SUPPRESS, help=f"default {default}; not with --config")
    p.set_defaults(func=cmd_train)

    p = sub("eval", "run the pipeline over scenes and score it")
    p.add_argument("--scenes-dir", required=True)
    p.add_argument("--registry-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--params", default=None, help="parameter container from train")
    p.add_argument("--oracle-heads", action="store_true", help="use GT labels/offsets")
    p.set_defaults(func=cmd_eval)

    p = sub("fit-pose", "rigid least-squares fit of a correspondences file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_pose)

    p = sub("metrics", "score stored detections against scene ground truth")
    p.add_argument("--detections-dir", required=True)
    p.add_argument("--scenes-dir", required=True)
    p.add_argument("--registry-dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_metrics)

    p = sub("gradcheck", "finite-difference check of all gradients")
    # default draw keeps every |.|-loss entry away from its kink at the
    # default step; unlucky seeds can cross one and need a smaller --step
    p.add_argument("--seed", type=non_negative_int, default=1)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as err:
        print(f"error: bad input: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except NonFiniteLoss as err:
        print(f"error: check failed: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except EquiposeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as err:  # pragma: no cover - defensive
        print(f"error: internal: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
