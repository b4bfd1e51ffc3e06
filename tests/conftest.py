"""Shared helpers: a finite-difference gradient check for single layers."""

import numpy as np

from equipose.layers import named_params
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
