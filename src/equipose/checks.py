"""Runnable property suites: layer equivariance, invariance of the scalar
path, and rotation-consistency sanity on intact vs broken stacks."""

from __future__ import annotations

import numpy as np

from .backproject import PointCloud
from .geometry import sample_uniform_rotation
from .heads import appearance_input
from .layers import (
    Layer,
    Param,
    Sequential,
    VNBatchNorm,
    VNInvariant,
    VNLinear,
    VNMeanPool,
    VNPoolConcat,
    VNReLU,
    _mix_grad,
    init_layer_params,
    rotate_feature,
)
from .losses import so3_loss
from .model import ModelConfig, init_model


class FlattenDense(Layer):
    """Dense mix across the flattened component-and-channel axes of each
    point: W @ v.reshape(3C, N). Deliberately breaks equivariance; exists so
    broken stacks can be constructed on purpose."""

    def __init__(self, channels: int):
        self.channels = channels
        self.w = Param("W", np.zeros((3 * channels, 3 * channels)))

    def own_params(self):
        return [self.w]

    def forward(self, v, train=False, ctx=None):
        v = np.asarray(v, dtype=np.float64)
        cache = self._new_cache(ctx)
        flat = v.reshape(v.shape[:-3] + (3 * self.channels, v.shape[-1]))
        cache["flat"] = flat
        return (self.w.value @ flat).reshape(v.shape)

    def backward(self, grad, ctx=None):
        flat = self._get_cache(ctx)["flat"]
        g = np.asarray(grad).reshape(flat.shape)
        self.w.grad += _mix_grad(g, flat)
        return (self.w.value.T @ g).reshape(np.shape(grad))


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


def random_stack(rng: np.random.Generator, in_channels: int = 4, depth: int = 6) -> Sequential:
    """Random composition drawn from the equivariant kit."""
    layers = []
    c = in_channels
    for _ in range(depth):
        kind = rng.integers(0, 5)
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
        elif kind == 3:
            layers.append(VNPoolConcat())
            c *= 2
        else:
            layers.append(VNMeanPool())
    stack = Sequential(layers)
    init_layer_params(stack, rng)
    return stack


def equivariance_report(trials: int = 1000, seed: int = 0, n_points: int = 16, channels: int = 6) -> dict:
    """Per-layer max equivariance residual over random (feature, rotation) draws."""
    rng = np.random.default_rng(seed)
    worst = {
        "vn_linear": 0.0,
        "vn_relu": 0.0,
        "vn_mean_pool": 0.0,
        "vn_batch_norm": 0.0,
        "vn_batch_norm_per_sample": 0.0,
        "stack6": 0.0,
    }
    pool = VNMeanPool()
    for _ in range(trials):
        v = rng.normal(size=(3, channels, n_points))
        r = sample_uniform_rotation(rng).m
        linear = _fresh(VNLinear(channels, channels + 2), rng)
        relu = _fresh(VNReLU(channels, channels), rng)
        bn = _fresh(VNBatchNorm(channels), rng)
        worst["vn_linear"] = max(worst["vn_linear"], equivariance_residual(linear, v, r))
        worst["vn_relu"] = max(worst["vn_relu"], equivariance_residual(relu, v, r))
        worst["vn_mean_pool"] = max(worst["vn_mean_pool"], equivariance_residual(pool, v, r))
        worst["vn_batch_norm"] = max(
            worst["vn_batch_norm"], equivariance_residual(bn, v, r, train=True)
        )
        # batch where every sample carries its own rotation
        batch = rng.normal(size=(3, 3, channels, n_points))
        rot_each = np.stack([sample_uniform_rotation(rng).m for _ in range(3)])
        bn2 = _fresh(VNBatchNorm(channels), rng)
        res = equivariance_residual(bn2, batch, rot_each, train=True)
        worst["vn_batch_norm_per_sample"] = max(worst["vn_batch_norm_per_sample"], res)

        stack = random_stack(rng)
        worst["stack6"] = max(worst["stack6"], equivariance_residual(stack, v[:, :4], r, train=True))
    return worst


def invariance_report(trials: int = 1000, seed: int = 0, n_points: int = 16, channels: int = 6) -> dict:
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
    cloud = PointCloud(points=points, attributes=colors)
    app_in = appearance_input(cloud)
    base_logits = model.forward(model.lift(points, colors), app_in, ctx={}).logits
    base_labels = base_logits.argmax(axis=-1)

    for _ in range(trials):
        v = rng.normal(size=(3, channels, n_points))
        r = sample_uniform_rotation(rng).m
        head = _fresh(VNInvariant(channels, branch_a=4, branch_b=4, hidden=8, out=8), rng)
        worst["invariant_head"] = max(worst["invariant_head"], invariance_residual(head, v, r))

        rot = sample_uniform_rotation(rng)
        logits = model.forward(model.lift(rot.apply(points), colors), app_in, ctx={}).logits
        res = float(np.max(np.abs(logits - base_logits)) / (1.0 + np.max(np.abs(base_logits))))
        worst["seg_logits"] = max(worst["seg_logits"], res)
        flips += int((logits.argmax(axis=-1) != base_labels).sum())
    worst["seg_argmax_flips"] = float(flips)
    return worst


def consistency_report(seed: int = 0, n_points: int = 32, channels: int = 4) -> dict:
    """Rotation-consistency loss on an intact stack vs one with a
    flatten+dense layer spliced in."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(3, channels, n_points))
    rot = sample_uniform_rotation(rng)
    intact = Sequential([VNLinear(channels, 8), VNReLU(8, 8), VNLinear(8, 6)])
    init_layer_params(intact, rng)
    broken = Sequential(
        [VNLinear(channels, 8), VNReLU(8, 8), FlattenDense(8), VNLinear(8, 6)]
    )
    init_layer_params(broken, rng)
    return {
        "intact_stack": so3_loss(intact, v, rot),
        "broken_stack": so3_loss(broken, v, rot),
    }


def full_report(trials: int = 1000, seed: int = 0) -> dict:
    report = equivariance_report(trials, seed)
    report.update(invariance_report(trials, seed))
    return report
