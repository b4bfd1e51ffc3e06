"""Prediction heads fusing geometric and appearance features.

The segmentation head consumes rotation-invariant scalars, the keypoint head
the component-major equivariant feature, flattened per point; both add
per-point appearance features and apply two linear layers with one max(0, .)
between. Each head hands its inputs to Mlp2 as column blocks, never
concatenated: a block shared by many points is multiplied at its own size.
"""

from __future__ import annotations

import numpy as np

from .backproject import PointCloud
from .errors import EquiposeError
from .layers import Layer, Mlp2

# r, g, b, then two columns of zero padding, kept only because the committed
# perfbench/checkpoint/crit8.params has a (32, 5) appearance.mlp.W1; they go
# when that checkpoint is converted (ROADMAP F)
APPEARANCE_INPUT_DIM = 5


class AppearanceEncoder(Layer):
    """Per-point two-layer perceptron over appearance_input's rows: r, g, b
    and two zero-padding columns (see APPEARANCE_INPUT_DIM).

    Reads attributes only, so rotating the 3D points never changes its output.
    """

    def __init__(self, n_hidden: int, n_out: int):
        self.mlp = Mlp2(APPEARANCE_INPUT_DIM, n_hidden, n_out)
        self.n_out = n_out

    def children(self):
        return [("mlp", self.mlp)]

    def forward(self, x, train=False, ctx=None):
        return self.mlp.forward(x, train=train, ctx=ctx)

    def backward(self, grad, ctx=None):
        (d_x,) = self.mlp.backward(grad, ctx=ctx)
        return d_x


def appearance_input(cloud: PointCloud) -> np.ndarray:
    """(N, 5) encoder input: a cloud's r, g, b, then two columns of exact
    zeros (see APPEARANCE_INPUT_DIM)."""
    out = np.zeros((len(cloud), APPEARANCE_INPUT_DIM))
    out[:, :3] = cloud.attributes
    return out


class SegHead(Layer):
    """[invariant || appearance] -> per-point class logits."""

    def __init__(self, n_invariant: int, n_appearance: int, n_hidden: int, n_classes: int):
        self.mlp = Mlp2(n_invariant + n_appearance, n_hidden, n_classes)

    def children(self):
        return [("mlp", self.mlp)]

    def forward(self, invariant, appearance, train=False, ctx=None):
        if np.shape(invariant)[:-1] != np.shape(appearance)[:-1]:
            raise EquiposeError("invariant and appearance point counts differ")
        return self.mlp.forward(invariant, appearance, train=train, ctx=ctx)

    def backward(self, grad, ctx=None):
        """Returns (d invariant, d appearance)."""
        return self.mlp.backward(grad, ctx=ctx)


def _rows(v: np.ndarray) -> np.ndarray:
    """A component-major (..., 3, C, n) feature as a (..., n, 3C) view of rows,
    channel-major then xyz: the transpose of the (..., C, 3, n) planes read as
    (..., 3C, n). The one copy runs along long axes, unlike one into (..., n, C, 3)."""
    c, n = v.shape[-2:]
    planes = np.swapaxes(v, -2, -3).reshape(v.shape[:-3] + (3 * c, n))
    return np.swapaxes(planes, -1, -2)


def _unrows(d: np.ndarray, c: int) -> np.ndarray:
    """Inverse of _rows: (..., n, 3C) rows back to a component-major view."""
    planes = np.swapaxes(d, -1, -2).reshape(d.shape[:-2] + (c, 3, d.shape[-2]))
    return np.swapaxes(planes, -2, -3)


class KpHead(Layer):
    """[trunk channels || appearance] -> per-point offsets.

    The trunk feature (..., 3, C, N) comes as its two halves, both
    component-major: the per-point half (..., 3, C/2, N), and the pooled half
    (..., 3, C/2, 1), the one channel mean per cloud that VNPoolConcat
    appends to every point. A point's input row holds the C channels
    channel-major then xyz (c0.x, c0.y, c0.z, c1.x, ...), then the appearance
    features: the column order of W1 in saved parameters; this head owns that
    flatten. The three reach Mlp2 as blocks, so the pooled half is multiplied
    once per cloud, and an appearance feature without the trunk's extra
    leading axes (the training pair's) once for all of them.
    The output is reshaped to (..., N, n_keypoints + 1, 3), the final row
    being the center offset. The flatten breaks architectural equivariance;
    consistency under rotation is a training matter, not a structural
    guarantee.
    """

    def __init__(self, n_channels: int, n_appearance: int, n_hidden: int, n_keypoints: int):
        self.n_channels = n_channels
        self.n_keypoints = n_keypoints
        self.mlp = Mlp2(3 * n_channels + n_appearance, n_hidden, (n_keypoints + 1) * 3)

    def children(self):
        return [("mlp", self.mlp)]

    def forward(self, local, pooled, appearance, train=False, ctx=None):
        local, pooled = np.asarray(local, dtype=np.float64), np.asarray(pooled, dtype=np.float64)
        half = (3, self.n_channels // 2)
        if local.shape[-3:-1] != half or pooled.shape[-3:-1] != half:
            raise EquiposeError(
                f"KpHead: expected two (..., 3, {half[1]}, n) halves, got {local.shape} and {pooled.shape}"
            )
        out = self.mlp.forward(_rows(local), _rows(pooled), appearance, train=train, ctx=ctx)
        return out.reshape(out.shape[:-1] + (self.n_keypoints + 1, 3))

    def backward(self, grad, ctx=None):
        """Returns (d local, d pooled, d appearance), each the shape of its
        input; the two trunk gradients are component-major views."""
        grad = np.asarray(grad, dtype=np.float64)
        flat_grad = grad.reshape(grad.shape[:-2] + ((self.n_keypoints + 1) * 3,))
        d_local, d_pooled, d_app = self.mlp.backward(flat_grad, ctx=ctx)
        half = self.n_channels // 2
        return _unrows(d_local, half), _unrows(d_pooled, half), d_app
