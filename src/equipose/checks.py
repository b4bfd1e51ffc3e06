"""Runnable property suites: equivariance of the trunk's layer kit and
invariance of the scalar path; and the gradient check's tiny model and scene."""

from __future__ import annotations

import numpy as np

from .backproject import PointCloud
from .geometry import sample_uniform_rotation
from .layers import (
    Sequential,
    VNBatchNorm,
    VNInvariant,
    VNLinear,
    VNPoolConcat,
    VNReLU,
    init_layer_params,
    rotate_feature,
)
from .model import ModelConfig, init_model
from .synth import SceneConfig, make_default_models, render_scene

# Sizes of the random draws: the layer reports' features and random_stack's
# compositions.
REPORT_POINTS = 16
REPORT_CHANNELS = 6
STACK_CHANNELS = 4
STACK_DEPTH = 6

# The gradient check's model: every layer kind and both heads in one graph,
# small enough to difference every parameter and input entry.
TINY_MODEL = ModelConfig(
    n_classes=4,
    n_keypoints=4,
    lift_neighbors=4,
    vn_widths=(3, 4),
    batch_norm=True,
    invariant_branch=3,
    invariant_hidden=6,
    invariant_out=6,
    app_hidden=5,
    app_out=5,
    head_hidden=8,
)


def tiny_scene(objects_seed: int, scene_seed: int):
    """The gradient check's scene: one instance of the 60-vertex, 4-keypoint
    default objects, at most 10 of its points, and 4 background points."""
    objects = make_default_models(seed=objects_seed, n_vertices=60, n_keypoints=4)
    recipe = SceneConfig(noise_sigma=0.002, n_background=4, max_object_points=10)
    return render_scene(objects, recipe, seed=scene_seed)


def equivariance_residual(layer, v, r, train=False) -> float:
    """max |L(vR) - L(v)R| / (1 + max |L(v)|) for a component-major feature
    v, where vR is rotate_feature(v, R)."""
    straight = layer.forward(v, train=train, ctx={})
    rotated = layer.forward(rotate_feature(v, r), train=train, ctx={})
    ref = rotate_feature(straight, r)
    return float(np.max(np.abs(rotated - ref)) / (1.0 + np.max(np.abs(straight))))


def invariance_residual(layer, v, r) -> float:
    """max |L(vR) - L(v)| / (1 + max |L(v)|) for scalar-valued layers and a
    component-major feature v."""
    straight = layer.forward(v, ctx={})
    rotated = layer.forward(rotate_feature(v, r), ctx={})
    return float(np.max(np.abs(rotated - straight)) / (1.0 + np.max(np.abs(straight))))


def _fresh(layer, rng):
    init_layer_params(layer, rng)
    return layer


def random_stack(rng: np.random.Generator) -> Sequential:
    """Random STACK_DEPTH-layer composition over STACK_CHANNELS input
    channels, drawn from the trunk's kit: linear, ReLU, batch-norm and
    pool-concat."""
    layers = []
    c = STACK_CHANNELS
    for _ in range(STACK_DEPTH):
        kind = rng.integers(0, 4)
        if kind == 0:
            width = int(rng.integers(2, 9))
            layers.append(VNLinear(c, width))
            c = width
        elif kind == 1:
            width = int(rng.integers(2, 9))
            layers.append(VNReLU(c, width))
            c = width
        elif kind == 2:
            layers.append(VNBatchNorm(c))
        else:
            layers.append(VNPoolConcat())
            c *= 2
    stack = Sequential(layers)
    init_layer_params(stack, rng)
    return stack


def equivariance_report(trials: int = 1000, seed: int = 0) -> dict:
    """Per-layer max equivariance residual over random (feature, rotation)
    draws, for each layer of the trunk's kit and for random stacks of them."""
    rng = np.random.default_rng(seed)
    c, n = REPORT_CHANNELS, REPORT_POINTS
    worst = {}
    for _ in range(trials):
        v = rng.normal(size=(3, c, n))
        r = sample_uniform_rotation(rng).m
        residuals = {
            "vn_linear": equivariance_residual(_fresh(VNLinear(c, c + 2), rng), v, r),
            "vn_relu": equivariance_residual(_fresh(VNReLU(c, c), rng), v, r),
            "vn_pool_concat": equivariance_residual(VNPoolConcat(), v, r),
            "vn_batch_norm": equivariance_residual(_fresh(VNBatchNorm(c), rng), v, r, train=True),
        }
        # a batch where every sample carries its own rotation
        batch = rng.normal(size=(3, 3, c, n))
        rot_each = np.stack([sample_uniform_rotation(rng).m for _ in range(3)])
        bn = _fresh(VNBatchNorm(c), rng)
        residuals["vn_batch_norm_per_sample"] = equivariance_residual(bn, batch, rot_each, train=True)
        stack = random_stack(rng)
        residuals["stack6"] = equivariance_residual(stack, v[:, :STACK_CHANNELS], r, train=True)
        for name, res in residuals.items():
            worst[name] = max(worst.get(name, 0.0), res)
    return worst


def invariance_report(trials: int = 1000, seed: int = 0) -> dict:
    """Invariance residuals of the scalar path plus segmentation argmax flips.

    The segmentation check runs cloud-level: points are rotated, the lifted
    feature recomputed, and logits compared; the argmax counter totals label
    changes over all trials and points.
    """
    rng = np.random.default_rng(seed)
    worst = {"invariant_head": 0.0, "seg_logits": 0.0}
    flips = 0

    model = init_model(ModelConfig(n_classes=4, n_keypoints=4, vn_widths=(8, 8, 8)), seed=seed + 1)
    points = rng.uniform(-0.1, 0.1, size=(48, 3)) + np.array([0.0, 0.0, 0.6])
    colors = rng.uniform(0.0, 1.0, size=(48, 3))
    v, app_in = model.inputs(PointCloud(points=points, attributes=colors))
    base_logits = model.forward(v, app_in, ctx={}).logits
    base_labels = base_logits.argmax(axis=-1)

    for _ in range(trials):
        v = rng.normal(size=(3, REPORT_CHANNELS, REPORT_POINTS))
        r = sample_uniform_rotation(rng).m
        head = _fresh(VNInvariant(REPORT_CHANNELS, branch=4, hidden=8, out=8), rng)
        worst["invariant_head"] = max(worst["invariant_head"], invariance_residual(head, v, r))

        rot = sample_uniform_rotation(rng)
        v, _ = model.inputs(PointCloud(points=rot.apply(points), attributes=colors))
        logits = model.forward(v, app_in, ctx={}).logits
        res = float(np.max(np.abs(logits - base_logits)) / (1.0 + np.max(np.abs(base_logits))))
        worst["seg_logits"] = max(worst["seg_logits"], res)
        flips += int((logits.argmax(axis=-1) != base_labels).sum())
    worst["seg_argmax_flips"] = float(flips)
    return worst


def full_report(trials: int = 1000, seed: int = 0) -> dict:
    report = equivariance_report(trials, seed)
    report.update(invariance_report(trials, seed))
    return report
