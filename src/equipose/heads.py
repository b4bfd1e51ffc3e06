"""Prediction heads fusing geometric and appearance features.

The segmentation head consumes rotation-invariant scalars, the keypoint head
the component-major equivariant feature, flattened per point; both
concatenate per-point appearance features and apply two linear layers with
one max(0, .) between.
"""

from __future__ import annotations

import numpy as np

from .backproject import PointCloud
from .errors import MissingAttributes, ShapeMismatch
from .layers import Layer, Mlp2

APPEARANCE_INPUT_DIM = 5  # r, g, b, normalized pixel x, normalized pixel y


class AppearanceEncoder(Layer):
    """Per-point two-layer perceptron over [rgb, normalized pixel x/y].

    Reads attributes only, so rotating the 3D points never changes its output.
    """

    def __init__(self, n_hidden: int = 32, n_out: int = 32):
        self.mlp = Mlp2(APPEARANCE_INPUT_DIM, n_hidden, n_out)
        self.n_out = n_out

    def children(self):
        return [("mlp", self.mlp)]

    def forward(self, x, train=False, ctx=None):
        return self.mlp.forward(x, train=train, ctx=ctx)

    def backward(self, grad, ctx=None):
        return self.mlp.backward(grad, ctx=ctx)


def appearance_input(cloud: PointCloud) -> np.ndarray:
    """(N, 5) encoder input from a cloud's attributes and pixel origins.

    Pixel coordinates are normalized by the source image size and default to
    zero when the cloud was not back-projected from an image.
    """
    if cloud.attributes is None or cloud.attributes.shape[1] < 3:
        raise MissingAttributes("cloud has no RGB attributes")
    n = len(cloud)
    out = np.zeros((n, APPEARANCE_INPUT_DIM))
    out[:, :3] = cloud.attributes[:, :3]
    if cloud.pixel_origin is not None and cloud.image_size is not None:
        w, h = cloud.image_size
        out[:, 3] = (cloud.pixel_origin[:, 0] + 0.5) / w
        out[:, 4] = (cloud.pixel_origin[:, 1] + 0.5) / h
    return out


class SegHead(Layer):
    """[invariant || appearance] -> per-point class logits."""

    def __init__(self, n_invariant: int, n_appearance: int, n_hidden: int, n_classes: int):
        self.n_invariant = n_invariant
        self.mlp = Mlp2(n_invariant + n_appearance, n_hidden, n_classes)

    def children(self):
        return [("mlp", self.mlp)]

    def forward(self, invariant, appearance, train=False, ctx=None):
        invariant = np.asarray(invariant, dtype=np.float64)
        appearance = np.asarray(appearance, dtype=np.float64)
        if invariant.shape[:-1] != appearance.shape[:-1]:
            raise ShapeMismatch("invariant and appearance point counts differ")
        fused = np.concatenate([invariant, appearance], axis=-1)
        return self.mlp.forward(fused, train=train, ctx=ctx)

    def backward(self, grad, ctx=None):
        d_fused = self.mlp.backward(grad, ctx=ctx)
        return d_fused[..., : self.n_invariant], d_fused[..., self.n_invariant :]


class KpHead(Layer):
    """[flattened equivariant channels || appearance] -> per-point offsets.

    The equivariant input is component-major (..., 3, C, N). Each point's row
    holds its channels channel-major then xyz (c0.x, c0.y, c0.z, c1.x, ...),
    the column order of W1 in saved parameters; this head owns that flatten.
    The output is reshaped to (..., N, n_keypoints + 1, 3), the final row
    being the center offset. The flatten-concat breaks architectural
    equivariance; consistency under rotation is a training matter, not a
    structural guarantee.
    """

    def __init__(self, n_channels: int, n_appearance: int, n_hidden: int, n_keypoints: int):
        self.n_channels = n_channels
        self.n_appearance = n_appearance
        self.n_keypoints = n_keypoints
        self.mlp = Mlp2(3 * n_channels + n_appearance, n_hidden, (n_keypoints + 1) * 3)

    def children(self):
        return [("mlp", self.mlp)]

    def forward(self, equivariant, appearance, train=False, ctx=None):
        equivariant = np.asarray(equivariant, dtype=np.float64)
        appearance = np.asarray(appearance, dtype=np.float64)
        if equivariant.shape[-3:-1] != (3, self.n_channels):
            raise ShapeMismatch(
                f"KpHead: expected a (..., 3, {self.n_channels}, N) feature, got {equivariant.shape}"
            )
        lead = equivariant.shape[:-3] + equivariant.shape[-1:]  # (..., N)
        if appearance.shape != lead + (self.n_appearance,):
            raise ShapeMismatch(
                f"KpHead: expected a {lead + (self.n_appearance,)} appearance, got {appearance.shape}"
            )
        # the rows (channel-major, then xyz) are the transpose of the
        # (..., C, 3, N) planes read as (..., 3C, N); both copies run along
        # long axes, unlike a single copy into (..., N, C, 3)
        rows = np.swapaxes(equivariant, -2, -3).reshape(lead[:-1] + (3 * self.n_channels, lead[-1]))
        fused = np.concatenate([np.swapaxes(rows, -1, -2), appearance], axis=-1)
        out = self.mlp.forward(fused, train=train, ctx=ctx)
        return out.reshape(out.shape[:-1] + (self.n_keypoints + 1, 3))

    def backward(self, grad, ctx=None):
        """Returns (d equivariant, d appearance); d equivariant is a
        component-major view of (..., C, 3, N) planes."""
        grad = np.asarray(grad, dtype=np.float64)
        flat_grad = grad.reshape(grad.shape[:-2] + ((self.n_keypoints + 1) * 3,))
        d_fused = self.mlp.backward(flat_grad, ctx=ctx)
        d_rows = d_fused[..., : 3 * self.n_channels]
        d_app = d_fused[..., 3 * self.n_channels :]
        n = d_rows.shape[-2]
        d_rows = np.swapaxes(d_rows, -1, -2).reshape(d_rows.shape[:-2] + (self.n_channels, 3, n))
        return np.swapaxes(d_rows, -2, -3), d_app
