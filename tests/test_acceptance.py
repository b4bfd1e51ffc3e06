"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured values at the stated tolerance."""

import time

import numpy as np
import pytest

from conftest import add_s_brute, geodesic_distance, stack_pair
from equipose.backproject import PointCloud
from equipose.checks import TINY_MODEL, equivariance_report, invariance_report, tiny_scene
from equipose.geometry import (
    Correspondences,
    RigidTransform,
    fit_rigid_least_squares,
    sample_uniform_rotation,
)
from equipose.layers import (
    Sequential,
    VNLinear,
    VNReLU,
    init_layer_params,
)
from equipose.losses import LossWeights
from equipose.metrics import (
    ObjectMetrics,
    PoseMetricsReport,
    add,
    add_s,
    auc,
    evaluate_dataset,
)
from equipose.model import ModelConfig, init_model
from equipose.pipeline import run_pipeline, vote_keypoints
from equipose.synth import Registry, SceneConfig, make_default_models, render_scene
from equipose.train import TrainConfig, gradcheck, sample_losses, scene_tensors, train

RNG = np.random.default_rng

SCENE_RECIPE = SceneConfig(
    noise_sigma=0.002,
    occlusion=(0.0, 0.3),
    n_background=50,
    max_object_points=450,
    background_margin=0.10,
)


@pytest.fixture(scope="session")
def object_models():
    return make_default_models(seed=0, n_vertices=600)


@pytest.fixture(scope="session")
def toy_run(object_models):
    """Criterion 8 artifacts: 500 training scenes, trained default network,
    full-pipeline evaluation on 100 held-out scenes."""
    registry = Registry(object_models)
    started = time.monotonic()
    train_scenes = [render_scene(object_models, SCENE_RECIPE, seed=10_000 + i) for i in range(500)]
    eval_scenes = [render_scene(object_models, SCENE_RECIPE, seed=90_000 + i) for i in range(100)]
    model = init_model(ModelConfig(n_classes=4), seed=1)
    history = train(train_scenes, model, TrainConfig(epochs=8, seed=2, lr_decay=0.7))
    detections = [run_pipeline(s.cloud, model, registry) for s in eval_scenes]
    elapsed = time.monotonic() - started
    return {
        "registry": registry,
        "model": model,
        "history": history,
        "eval_scenes": eval_scenes,
        "detections": detections,
        "elapsed": elapsed,
        "train_scenes": train_scenes,
    }


def test_criterion_01_equivariance_suite():
    started = time.monotonic()
    report = equivariance_report(trials=1000, seed=0)
    elapsed = time.monotonic() - started
    worst = max(report.values())
    assert worst <= 1e-10, report
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 1 (equivariance suite): PASS - worst residual {worst:.2e} "
        f"<= 1e-10 over 1000 (V,R) per layer and 6-layer stacks, {elapsed:.1f}s"
    )


def test_criterion_02_invariance_suite():
    started = time.monotonic()
    report = invariance_report(trials=1000, seed=0)
    elapsed = time.monotonic() - started
    flips = report.pop("seg_argmax_flips")
    worst = max(report.values())
    assert worst <= 1e-10, report
    assert flips == 0
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 2 (invariance suite): PASS - worst residual {worst:.2e} "
        f"<= 1e-10, argmax flips {int(flips)}/1000 rotations, {elapsed:.1f}s"
    )


def test_criterion_03_so3_loss_sanity():
    # PoseModel.so3_term, the penalty training uses, on intact VN stacks and
    # on a fresh model's own keypoint head, whose flattening fusion is not
    # equivariant
    started = time.monotonic()
    model = init_model(ModelConfig(n_classes=4), seed=1)
    rng = RNG(0)
    worst_intact = 0.0
    for trial in range(100):
        stack = Sequential([VNLinear(4, 8), VNReLU(8, 8), VNLinear(8, 6)])
        init_layer_params(stack, rng)
        v = rng.normal(size=(3, 4, 16))
        rot = sample_uniform_rotation(rng)
        worst_intact = max(worst_intact, model.so3_term(stack_pair(stack, v, rot.m), rot)[0])
    rng = RNG(1)
    points = rng.uniform(-0.1, 0.1, size=(200, 3)) + np.array([0.0, 0.0, 0.6])
    colors = rng.uniform(0.0, 1.0, size=(200, 3))
    v, app_in = model.inputs(PointCloud(points=points, attributes=colors))
    least_broken = np.inf
    for _ in range(10):
        rot = sample_uniform_rotation(rng)
        offsets = model.forward(v, app_in, ctx={}, rotation=rot).offsets
        least_broken = min(least_broken, model.so3_term(offsets, rot)[0])
    elapsed = time.monotonic() - started
    assert worst_intact <= 1e-10
    assert least_broken > 1e-3
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 3 (rotation-consistency loss sanity): PASS - intact stacks "
        f"<= {worst_intact:.2e}, fresh model's keypoint head >= {least_broken:.3f} > 1e-3, "
        f"{elapsed:.1f}s"
    )


def test_criterion_04_gradient_oracle(object_models):
    started = time.monotonic()
    # full kit: every layer kind, both heads, all four losses in one graph
    scene = tiny_scene(0, 8)
    model = init_model(TINY_MODEL, seed=3)
    tensors = scene_tensors(scene, model)
    rotation = sample_uniform_rotation(RNG(0))
    worst = gradcheck(model, tensors, TrainConfig(seed=0), rotation, step=1e-5)
    elapsed = time.monotonic() - started
    assert worst <= 1e-4
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 4 (gradient oracle): PASS - max relative error {worst:.2e} "
        f"<= 1e-4 vs central differences at step 1e-5, {elapsed:.1f}s"
    )


def test_criterion_05_rigid_fitting():
    started = time.monotonic()
    rng = RNG(5)
    worst_rot, worst_trans = 0.0, 0.0
    for _ in range(1000):
        m = int(rng.integers(3, 65))
        src = rng.normal(size=(m, 3))
        pose = RigidTransform(sample_uniform_rotation(rng), rng.normal(size=3))
        fit = fit_rigid_least_squares(Correspondences(src, pose.apply(src)))
        worst_rot = max(worst_rot, geodesic_distance(fit.rotation, pose.rotation))
        worst_trans = max(worst_trans, float(np.linalg.norm(fit.translation - pose.translation)))
    # reflection trap: coplanar source against a mirrored copy
    for _ in range(100):
        src = rng.normal(size=(12, 3))
        src[:, 2] = 0.0
        mirrored = src * np.array([-1.0, 1.0, 1.0])
        fit = fit_rigid_least_squares(Correspondences(src, mirrored))
        assert np.linalg.det(fit.rotation.m) > 0.0
    elapsed = time.monotonic() - started
    assert worst_rot <= 1e-7
    assert worst_trans <= 1e-8
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 5 (rigid fitting): PASS - 1000 noiseless trials, rotation "
        f"<= {worst_rot:.2e} rad, translation <= {worst_trans:.2e} m, det always +1, "
        f"{elapsed:.1f}s"
    )


def test_criterion_06_metrics_oracles(object_models):
    started = time.monotonic()
    rng = RNG(6)
    blob = object_models[2]
    worst_gap, worst_order = 0.0, 0.0
    for _ in range(100):
        gt = RigidTransform(sample_uniform_rotation(rng), rng.normal(scale=0.3, size=3))
        pred = RigidTransform(sample_uniform_rotation(rng), rng.normal(scale=0.3, size=3))
        fast = add_s(gt, pred, blob)
        brute = add_s_brute(gt, pred, blob)
        worst_gap = max(worst_gap, abs(fast - brute))
        worst_order = max(worst_order, fast - add(gt, pred, blob))
    assert worst_gap <= 1e-12
    assert worst_order <= 1e-12
    assert auc([0.05]) == 50.0
    two = ObjectMetrics(0, symmetric=True, add_values=[0.019, 0.021], add_s_values=[0.019, 0.021])
    assert PoseMetricsReport({0: two}, {0: 0.2}).hit_rate_01d(0) == 50.0
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 6 (metrics oracles): PASS - accelerated ADD-S within "
        f"{worst_gap:.1e} of brute force, ADD-S <= ADD (max gap {worst_order:.1e}), "
        f"AUC({{0.05}}) == 50.0, 0.1d threshold exact, {elapsed:.1f}s"
    )


def test_criterion_07_oracle_second_stage(object_models):
    started = time.monotonic()
    registry = Registry(object_models)
    recipe = SceneConfig(
        noise_sigma=0.0, occlusion=(0.0, 0.3), n_background=50, max_object_points=450
    )
    scenes = [render_scene(object_models, recipe, seed=40_000 + i) for i in range(20)]
    detections = [
        run_pipeline(s.cloud, None, registry, oracle=(s.labels, s.gt_offsets)) for s in scenes
    ]
    worst_add = 0.0
    for dets, scene in zip(detections, scenes):
        for cls, gt_pose in scene.gt_poses:
            det = next(d for d in dets if d.class_id == cls)
            worst_add = max(worst_add, add(gt_pose, det.pose, registry.lookup(cls)))
    report = evaluate_dataset(detections, [s.gt_poses for s in scenes], registry)
    hit = float(np.mean([row["hit_rate_01d"] for row in report.rows()]))
    elapsed = time.monotonic() - started
    assert worst_add <= 1e-6
    assert hit == 100.0
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 7 (oracle second stage): PASS - hit rate {hit:.1f}, "
        f"worst ADD {worst_add:.2e} m over 20 noise-free scenes, {elapsed:.1f}s"
    )


def test_criterion_08_end_to_end_toy_experiment(toy_run):
    registry = toy_run["registry"]
    report = evaluate_dataset(
        toy_run["detections"], [s.gt_poses for s in toy_run["eval_scenes"]], registry
    )
    hits, total = 0, 0
    for dets, scene in zip(toy_run["detections"], toy_run["eval_scenes"]):
        for cls, gt_pose in scene.gt_poses:
            model = registry.lookup(cls)
            cands = [d for d in dets if d.class_id == cls]
            total += 1
            if not cands:
                continue
            best = max(cands, key=lambda d: d.inlier_fraction)
            dist = (
                add_s(gt_pose, best.pose, model)
                if model.symmetric
                else add(gt_pose, best.pose, model)
            )
            hits += dist < 0.1 * model.diameter
    rate = 100.0 * hits / total
    assert len(toy_run["train_scenes"]) >= 500
    assert total >= 100
    assert toy_run["elapsed"] < 1800.0
    assert rate >= 90.0
    per_object = {row["object"]: row["hit_rate_01d"] for row in report.rows()}
    print(
        f"\nACCEPTANCE 8 (end-to-end toy experiment): PASS - ADD(-S)-0.1d "
        f"{rate:.1f}% over {total} held-out scenes (per object {per_object}), "
        f"trained on {len(toy_run['train_scenes'])} scenes in {toy_run['elapsed']:.0f}s < 1800s"
    )


def test_criterion_09_consistency_loss_efficacy(object_models):
    started = time.monotonic()
    train_scenes = [render_scene(object_models, SCENE_RECIPE, seed=10_000 + i) for i in range(150)]
    probe_scenes = [render_scene(object_models, SCENE_RECIPE, seed=70_000 + i) for i in range(10)]

    def final_residual(so3_weight: float) -> float:
        model = init_model(ModelConfig(n_classes=4), seed=1)
        cfg = TrainConfig(epochs=4, seed=11, lr_decay=0.7, weights=LossWeights(so3=so3_weight))
        train(train_scenes, model, cfg)
        rng = RNG(123)
        values = []
        for scene in probe_scenes:
            t = scene_tensors(scene, model)
            for _ in range(3):
                rotation = sample_uniform_rotation(rng)
                values.append(sample_losses(model, t, cfg, rotation)[0].so3)
        return float(np.mean(values))

    without = final_residual(0.0)
    with_loss = final_residual(0.5)
    elapsed = time.monotonic() - started
    assert with_loss < without
    print(
        f"\nACCEPTANCE 9 (consistency-loss efficacy): PASS - keypoint-path residual "
        f"{with_loss:.4f} (lambda4=0.5) < {without:.4f} (lambda4=0) on identical seeds, "
        f"{elapsed:.0f}s"
    )


def test_criterion_10_voting_robustness():
    started = time.monotonic()
    rng = RNG(7)
    trials, hits = 200, 0
    for _ in range(trials):
        n = 400
        points = rng.normal(size=(n, 3)) * 0.1
        keypoint = rng.normal(size=3) * 0.1
        votes = keypoint[None] + rng.normal(0, 0.005, size=(n, 3))
        n_out = int(0.3 * n)
        corrupt = rng.choice(n, size=n_out, replace=False)
        votes[corrupt] = rng.uniform(-0.5, 0.5, size=(n_out, 3))
        offsets = np.repeat((votes - points)[:, None, :], 2, axis=1)
        voted_kp, _, _ = vote_keypoints(points, offsets, np.arange(n))
        hits += np.linalg.norm(voted_kp[0] - keypoint) <= 2e-3
    rate = 100.0 * hits / trials
    elapsed = time.monotonic() - started
    assert rate >= 90.0
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 10 (voting robustness): PASS - {rate:.1f}% of {trials} trials "
        f"within 2e-3 m of the true keypoint under 30% outliers, {elapsed:.1f}s"
    )
