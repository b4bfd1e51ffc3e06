"""Shared helpers: a finite-difference gradient check for single layers, the
output pair of a layer stack in the form PoseModel.so3_term takes, and the
brute-force ADD-S reference."""

import numpy as np

from equipose.geometry import RigidTransform
from equipose.layers import named_params, rotate_feature
from equipose.metrics import BLOCK_ROWS, _vertices
from equipose.train import central_differences, max_relative_error


def layer_fd_check(layer, x, train=False, step=1e-6, seed=99):
    """Max relative error between analytic and central-difference gradients of
    sum(forward(x) * fixed_random) over the layer's inputs and parameters."""
    rng = np.random.default_rng(seed)
    out0 = layer.forward(x, train=train, ctx={})
    upstream = rng.normal(size=out0.shape)

    def loss() -> float:
        return float(np.sum(layer.forward(x, train=train, ctx={}) * upstream))

    layer.zero_grad()
    ctx = {}
    layer.forward(x, train=train, ctx=ctx)
    analytic = {"input": layer.backward(upstream, ctx=ctx)}
    numeric = {"input": central_differences(loss, x, step)}
    for name, p in named_params(layer):
        if p.kind != "stat":
            analytic[name] = p.grad
            numeric[name] = central_differences(loss, p.value, step)
    return max_relative_error(analytic, numeric)


def stack_pair(stack, v, r):
    """The stack's outputs on a component-major feature v and on
    rotate_feature(v, r), xyz-last like keypoint offsets: a (2, C, N, 3)
    pair for PoseModel.so3_term."""
    straight = stack.forward(v, ctx={})
    rotated = stack.forward(rotate_feature(v, r), ctx={})
    return np.stack([np.moveaxis(straight, 0, -1), np.moveaxis(rotated, 0, -1)])


def add_s_brute(gt: RigidTransform, pred: RigidTransform, model) -> float:
    """O(m^2) reference: explicit pairwise distances, min over the second pose."""
    verts = _vertices(model)
    a = gt.apply(verts)
    b = pred.apply(verts)
    mins = np.empty(len(a))
    for start in range(0, len(a), BLOCK_ROWS):
        block = a[start : start + BLOCK_ROWS]
        d = np.sqrt(((block[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1))
        mins[start : start + BLOCK_ROWS] = d.min(axis=1)
    return float(mins.mean())
