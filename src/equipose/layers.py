"""Rotation-equivariant layer kit over vector features.

A vector feature carries C channels at each of N points, each channel a
3-vector. It has one layout everywhere, component-major (..., 3, C, N): one
contiguous (C, N) plane per xyz component. A channel mix W @ v is then one
(C_out x C_in) @ (C_in x N) GEMM per plane, a dot product <q, k> is
q[0]*k[0] + q[1]*k[1] + q[2]*k[2] on whole planes, and a rotation R, which
takes each channel vector x to x @ R, multiplies the component axis by R^T
(rotate_feature). Every layer L here satisfies
L(rotate_feature(v, R)) == rotate_feature(L(v), R) to machine precision;
the invariance head instead satisfies L(rotate_feature(v, R)) == L(v).

Layers implement analytic forward and backward passes. The caller's ctx
dict is the only cache: forward(..., ctx=ctx) records there what
backward(..., ctx=ctx) needs, so two forward passes (e.g. a training step's
and a reference model's on the same cloud) can stay alive at once. A forward
with ctx=None records nothing and cannot be followed by a backward.
"""

from __future__ import annotations

import numpy as np

from .errors import EquiposeError

# Below this squared norm the learned truncation direction is considered
# undefined and the input passes through unchanged.
K_DEGENERATE_SQ = 1e-12 ** 2

# Norm floor for the batch-norm rescale, avoiding 0/0 on zero channels.
NORM_FLOOR = 1e-8

# Batch-norm variance epsilon and running-stat momentum (the usual defaults).
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def rotate_feature(v, r) -> np.ndarray:
    """Rotate every channel 3-vector x of a component-major feature
    (..., 3, C, N) to x @ r: the component axis is multiplied by r^T, one
    (3 x 3) @ (3 x CN) product per rotation. r is one rotation (3, 3) or a
    stack (..., 3, 3) broadcast against v's leading axes. Single owner of
    the convention."""
    v = np.asarray(v, dtype=np.float64)
    planes = v.reshape(v.shape[:-2] + (v.shape[-2] * v.shape[-1],))
    out = np.swapaxes(np.asarray(r, dtype=np.float64), -1, -2) @ planes
    return out.reshape(out.shape[:-1] + v.shape[-2:])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel, per-point dot product of two component-major features,
    a[0]*b[0] + a[1]*b[1] + a[2]*b[2] on (..., C, N) planes."""
    out = a[..., 0, :, :] * b[..., 0, :, :]
    out += a[..., 1, :, :] * b[..., 1, :, :]
    out += a[..., 2, :, :] * b[..., 2, :, :]
    return out


class Param:
    """A named tensor with a gradient accumulator of identical shape; only
    trainable ones reach the optimizer and the gradient checks."""

    __slots__ = ("name", "value", "grad", "trainable")

    def __init__(self, name: str, value, trainable: bool = True):
        self.name = name
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.trainable = trainable


class Layer:
    """Base layer: own_params/children expose the tree, forward/backward do the math."""

    def own_params(self) -> list:
        return []

    def children(self) -> list:
        return []

    def params(self) -> list:
        return [p for _, p in named_params(self)]

    def zero_grad(self):
        for p in self.params():
            p.grad[...] = 0.0

    def forward(self, v, train: bool = False, ctx: dict = None):
        raise NotImplementedError

    def backward(self, grad, ctx: dict = None):
        raise NotImplementedError

    # cache plumbing -------------------------------------------------------

    def _new_cache(self, ctx: dict) -> dict:
        if ctx is None:
            return {}  # a throwaway record: no backward can follow
        ctx.clear()
        return ctx

    def _get_cache(self, ctx: dict) -> dict:
        if not ctx:
            raise EquiposeError(f"{type(self).__name__}.backward without a recorded forward")
        return ctx


def named_params(layer: Layer) -> list:
    """Depth-first (name, Param) pairs with dotted path names."""
    out = [(p.name, p) for p in layer.own_params()]
    for child_name, child in layer.children():
        out.extend((f"{child_name}.{name}", p) for name, p in named_params(child))
    return out


def _mix_grad(grad: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Weight gradient of a channel mix W @ v: sum over planes of grad @ v^T."""
    per_plane = np.matmul(grad, np.swapaxes(v, -1, -2))
    return per_plane.reshape((-1,) + per_plane.shape[-2:]).sum(axis=0)


def _sum_to(a: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast result back down to the shape it was broadcast from."""
    lead = a.ndim - len(shape)
    axes = tuple(i for i in range(a.ndim) if i < lead or (shape[i - lead] == 1 and a.shape[i] > 1))
    return a.sum(axis=axes).reshape(shape) if axes else a


def _check_channels(v: np.ndarray, expected: int, who: str):
    if v.ndim < 3 or v.shape[-3] != 3:
        raise EquiposeError(f"{who}: expected a (..., 3, C, N) component-major feature, got {v.shape}")
    if v.shape[-2] != expected:
        raise EquiposeError(f"{who}: expected {expected} channels, got {v.shape[-2]}")


def _check_points(v: np.ndarray, who: str):
    if v.ndim < 3 or v.shape[-1] == 0:
        raise EquiposeError(f"{who} requires at least one point")


class VNLinear(Layer):
    """Channel-mixing linear map W @ v applied per point; exactly equivariant."""

    def __init__(self, in_channels: int, out_channels: int):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.w = Param("W", np.zeros((out_channels, in_channels)))

    def own_params(self):
        return [self.w]

    def forward(self, v, train=False, ctx=None):
        v = np.asarray(v, dtype=np.float64)
        _check_channels(v, self.in_channels, "VNLinear")
        cache = self._new_cache(ctx)
        cache["v"] = v
        return np.matmul(self.w.value, v)

    def backward(self, grad, ctx=None):
        cache = self._get_cache(ctx)
        self.w.grad += _mix_grad(grad, cache["v"])
        return np.matmul(self.w.value.T, grad)


class VNReLU(Layer):
    """Direction-gated truncation: q where <q,k> >= 0, else the part of q
    orthogonal to k. q = W v and k = U v are learned channel mixes, so the
    output half-space rotates with the input and equivariance is exact.
    W and U run stacked, as one GEMM per plane.
    """

    def __init__(self, in_channels: int, out_channels: int):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.w = Param("W", np.zeros((out_channels, in_channels)))
        self.u = Param("U", np.zeros((out_channels, in_channels)))

    def own_params(self):
        return [self.w, self.u]

    def forward(self, v, train=False, ctx=None):
        v = np.asarray(v, dtype=np.float64)
        _check_channels(v, self.in_channels, "VNReLU")
        cache = self._new_cache(ctx)
        c = self.out_channels
        wu = np.concatenate([self.w.value, self.u.value])
        qk = np.matmul(wu, v)
        q, k = qk[..., :c, :], qk[..., c:, :]
        s = _dot(q, k)
        t = _dot(k, k)
        # boundary <q,k> = 0 passes q through, matching ReLU's convention at 0
        project = (s < 0.0) & (t > K_DEGENERATE_SQ)
        # t + 1 off the projected set keeps every division finite, and the
        # mask multiplies instead of branching per entry
        t_div = t + ~project
        ratio = s / t_div * project
        cache.update(v=v, wu=wu, qk=qk, t_div=t_div, ratio=ratio, project=project)
        return q - ratio[..., None, :, :] * k

    def backward(self, grad, ctx=None):
        cache = self._get_cache(ctx)
        v, wu, qk = cache["v"], cache["wu"], cache["qk"]
        c = self.out_channels
        q, k = qk[..., :c, :], qk[..., c:, :]
        ratio = cache["ratio"][..., None, :, :]
        a = (_dot(grad, k) / cache["t_div"] * cache["project"])[..., None, :, :]
        # dq = grad - a k and dk = ratio (2 a k - grad) - a q, written straight
        # into one stacked gradient for the stacked [W; U]
        d_qk = np.empty(qk.shape)
        dq, dk = d_qk[..., :c, :], d_qk[..., c:, :]
        ak = a * k
        np.subtract(grad, ak, out=dq)
        np.subtract(ak, dq, out=dk)
        dk *= ratio
        dk -= a * q
        d_wu = _mix_grad(d_qk, v)
        self.w.grad += d_wu[:c]
        self.u.grad += d_wu[c:]
        return np.matmul(wu.T, d_qk)


class VNPoolConcat(Layer):
    """Append the pooled channel mean back to every point, doubling channels."""

    def forward(self, v, train=False, ctx=None):
        v = np.asarray(v, dtype=np.float64)
        _check_points(v, "pool-concat")
        cache = self._new_cache(ctx)
        cache["n"] = v.shape[-1]
        cache["c"] = v.shape[-2]
        mean = v.mean(axis=-1, keepdims=True)
        return np.concatenate([v, np.broadcast_to(mean, v.shape)], axis=-2)

    def backward(self, grad, ctx=None):
        cache = self._get_cache(ctx)
        c, n = cache["c"], cache["n"]
        return grad[..., :c, :] + grad[..., c:, :].sum(axis=-1, keepdims=True) / n


class VNBatchNorm(Layer):
    """Scalar batch-norm applied to channel norms; each vector is rescaled by
    normalized-norm / norm so only magnitudes change. Statistics are taken per
    channel over every other axis, which makes the layer equivariant even when
    each batch element carries its own rotation (norms are rotation-invariant).
    """

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = Param("gamma", np.ones(channels))
        self.beta = Param("beta", np.zeros(channels))
        self.running_mean = Param("running_mean", np.zeros(channels), trainable=False)
        self.running_var = Param("running_var", np.ones(channels), trainable=False)

    def own_params(self):
        return [self.gamma, self.beta, self.running_mean, self.running_var]

    def forward(self, v, train=False, ctx=None):
        v = np.asarray(v, dtype=np.float64)
        _check_channels(v, self.channels, "VNBatchNorm")
        cache = self._new_cache(ctx)
        n = np.sqrt(_dot(v, v))  # (..., C, N)
        n_safe = np.maximum(n, NORM_FLOOR)
        axes = tuple(range(n.ndim - 2)) + (n.ndim - 1,)  # all but the channel axis
        count = n.size // self.channels
        if train:
            mu = n.mean(axis=axes)
            var = n.var(axis=axes)
            unbiased = var * count / max(count - 1, 1)
            self.running_mean.value *= 1.0 - BN_MOMENTUM
            self.running_mean.value += BN_MOMENTUM * mu
            self.running_var.value *= 1.0 - BN_MOMENTUM
            self.running_var.value += BN_MOMENTUM * unbiased
        else:
            mu = self.running_mean.value
            var = self.running_var.value
        inv = (1.0 / np.sqrt(var + BN_EPS))[:, None]
        xhat = (n - mu[:, None]) * inv
        out_n = self.gamma.value[:, None] * xhat + self.beta.value[:, None]
        scale = out_n / n_safe
        cache.update(
            v=v, n=n, n_safe=n_safe, inv=inv, xhat=xhat, out_n=out_n, scale=scale,
            axes=axes, count=count, train=train,
        )
        return v * scale[..., None, :, :]

    def backward(self, grad, ctx=None):
        cache = self._get_cache(ctx)
        v, n, n_safe = cache["v"], cache["n"], cache["n_safe"]
        inv, xhat, out_n, scale = cache["inv"], cache["xhat"], cache["out_n"], cache["scale"]
        axes, count, train = cache["axes"], cache["count"], cache["train"]

        d_scale = _dot(grad, v)
        d_out_n = d_scale / n_safe
        live = n > NORM_FLOOR
        # denominator of the rescale; frozen below the norm floor
        dn = d_scale * (-out_n / n_safe**2) * live
        self.gamma.grad += np.sum(d_out_n * xhat, axis=axes)
        self.beta.grad += np.sum(d_out_n, axis=axes)
        d_xhat = d_out_n * self.gamma.value[:, None]
        if train:
            centered = xhat / inv
            d_var = np.sum(d_xhat * centered, axis=axes)[:, None] * (-0.5) * inv**3
            d_mu = np.sum(-d_xhat * inv, axis=axes)[:, None]
            dn += d_xhat * inv + d_var * 2.0 * centered / count + d_mu / count
        else:
            dn += d_xhat * inv
        # the norm's gradient is the unit direction v / n, zero below the floor
        along = dn / n_safe * live
        return grad * scale[..., None, :, :] + along[..., None, :, :] * v


class Mlp2(Layer):
    """Two dense layers with a pointwise max(0, .) between: (..., F_in) -> (..., F_out).

    The input comes as column blocks of W1, in W1's column order, whose
    leading axes broadcast: h = sum_b x_b @ W1[:, cols_b].T + b1. A block
    shared by many rows (one per cloud, say) is multiplied once, at its own
    size, and backward returns one gradient per block, summed down to that
    block's shape. One block is the plain dense layer.
    """

    def __init__(self, n_in: int, n_hidden: int, n_out: int):
        self.n_in = n_in
        self.w1 = Param("W1", np.zeros((n_hidden, n_in)))
        self.b1 = Param("b1", np.zeros(n_hidden))
        self.w2 = Param("W2", np.zeros((n_out, n_hidden)))
        self.b2 = Param("b2", np.zeros(n_out))

    def own_params(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self, *blocks, train=False, ctx=None):
        blocks = [np.asarray(x, dtype=np.float64) for x in blocks]
        widths = [x.shape[-1] for x in blocks]
        if sum(widths) != self.n_in:
            raise EquiposeError(f"Mlp2: expected {self.n_in} input features, got {widths}")
        try:
            lead = np.broadcast_shapes(*(x.shape[:-1] for x in blocks))
        except ValueError:
            raise EquiposeError(f"Mlp2: block shapes {[x.shape for x in blocks]} do not broadcast") from None
        cache = self._new_cache(ctx)
        edges = np.cumsum([0] + widths)
        spans = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
        h = np.empty(lead + self.b1.value.shape)
        h[...] = self.b1.value
        for x, cols in zip(blocks, spans):
            h += x @ self.w1.value[:, cols].T
        relu = np.maximum(h, 0.0)
        out = relu @ self.w2.value.T + self.b2.value
        cache.update(blocks=blocks, spans=spans, h=h, relu=relu)
        return out

    def backward(self, grad, ctx=None):
        cache = self._get_cache(ctx)
        h, relu = cache["h"], cache["relu"]
        g2 = grad.reshape(-1, grad.shape[-1])
        self.w2.grad += g2.T @ relu.reshape(g2.shape[0], -1)
        self.b2.grad += g2.sum(axis=0)
        d_h = (grad @ self.w2.value) * (h > 0.0)
        self.b1.grad += d_h.reshape(-1, d_h.shape[-1]).sum(axis=0)
        out = []
        for x, cols in zip(cache["blocks"], cache["spans"]):
            d_hx = _sum_to(d_h, x.shape[:-1] + d_h.shape[-1:])
            dh2 = d_hx.reshape(-1, d_hx.shape[-1])
            self.w1.grad[:, cols] += dh2.T @ x.reshape(dh2.shape[0], -1)
            out.append(d_hx @ self.w1.value[:, cols])
        return tuple(out)


class VNInvariant(Layer):
    """Equivariant-to-invariant conversion: two linear vector branches of one
    width form a per-point Gram matrix (rotation cancels in v_a @ v_b.T), whose
    flattened entries feed an Mlp2. The Mlp2's parameters are listed as the
    layer's own (Wa, Wb, W1, b1, W2, b2), so saved names stay e.g.
    invariant.W1, not invariant.mlp.W1.
    """

    def __init__(self, in_channels: int, branch: int, hidden: int, out: int):
        self.in_channels = in_channels
        self.branch = branch
        self.wa = Param("Wa", np.zeros((branch, in_channels)))
        self.wb = Param("Wb", np.zeros((branch, in_channels)))
        self.mlp = Mlp2(branch * branch, hidden, out)

    def own_params(self):
        return [self.wa, self.wb] + self.mlp.own_params()

    def forward(self, v, train=False, ctx=None):
        v = np.asarray(v, dtype=np.float64)
        _check_channels(v, self.in_channels, "VNInvariant")
        cache = self._new_cache(ctx)
        # the branches as per-point (B, 3) matrices
        va = np.swapaxes(np.matmul(self.wa.value, v), -1, -3)
        vb = np.swapaxes(np.matmul(self.wb.value, v), -1, -3)
        gram = np.matmul(va, np.swapaxes(vb, -1, -2))
        flat = gram.reshape(gram.shape[:-2] + (self.branch * self.branch,))
        cache.update(v=v, va=va, vb=vb, mlp={})
        return self.mlp.forward(flat, train=train, ctx=cache["mlp"])

    def backward(self, grad, ctx=None):
        cache = self._get_cache(ctx)
        v, va, vb = cache["v"], cache["va"], cache["vb"]
        (d_flat,) = self.mlp.backward(grad, ctx=cache["mlp"])
        d_gram = d_flat.reshape(d_flat.shape[:-1] + (self.branch, self.branch))
        d_va = np.matmul(d_gram, vb)
        d_vb = np.matmul(np.swapaxes(d_gram, -1, -2), va)
        # back from per-point matrices to contiguous planes
        d_va, d_vb = (np.ascontiguousarray(np.swapaxes(d, -1, -3)) for d in (d_va, d_vb))
        self.wa.grad += _mix_grad(d_va, v)
        self.wb.grad += _mix_grad(d_vb, v)
        return np.matmul(self.wa.value.T, d_va) + np.matmul(self.wb.value.T, d_vb)


class Sequential(Layer):
    """Composition of layers; ctx holds one sub-cache per child."""

    def __init__(self, layers):
        self.layers = list(layers)

    def children(self):
        return [(str(i), layer) for i, layer in enumerate(self.layers)]

    def forward(self, v, train=False, ctx=None):
        cache = self._new_cache(ctx)
        for i, layer in enumerate(self.layers):
            sub = {}
            v = layer.forward(v, train=train, ctx=sub)
            cache[i] = sub
        return v

    def backward(self, grad, ctx=None):
        cache = self._get_cache(ctx)
        for i in reversed(range(len(self.layers))):
            grad = self.layers[i].backward(grad, ctx=cache[i])
        return grad


def init_layer_params(layer: Layer, rng: np.random.Generator) -> None:
    """Fan-in-scaled Gaussian weight matrices, drawn in named_params order;
    every 1-D parameter (bias, gain, shift, running stat) keeps the value its
    constructor gave it."""
    for _, p in named_params(layer):
        if p.value.ndim == 2:
            fan_in = p.value.shape[-1]
            p.value[...] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=p.value.shape)
