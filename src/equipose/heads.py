"""Prediction heads fusing geometric and appearance features.

The segmentation head consumes rotation-invariant scalars, the keypoint head
consumes flattened equivariant channels; both concatenate per-point
appearance features and apply two linear layers with one max(0, .) between.
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
        self.n_appearance = n_appearance
        self.n_classes = n_classes
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

    Equivariant channels are flattened channel-major then xyz; the output is
    reshaped to (..., n_keypoints + 1, 3), the final row being the center
    offset. The flatten-concat breaks architectural equivariance; consistency
    under rotation is a training matter, not a structural guarantee.
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
        if equivariant.shape[-2] != self.n_channels:
            raise ShapeMismatch(
                f"KpHead: expected {self.n_channels} channels, got {equivariant.shape[-2]}"
            )
        if equivariant.shape[:-2] != appearance.shape[:-1]:
            raise ShapeMismatch("equivariant and appearance point counts differ")
        flat = equivariant.reshape(equivariant.shape[:-2] + (3 * self.n_channels,))
        fused = np.concatenate([flat, appearance], axis=-1)
        out = self.mlp.forward(fused, train=train, ctx=ctx)
        return out.reshape(out.shape[:-1] + (self.n_keypoints + 1, 3))

    def backward(self, grad, ctx=None):
        grad = np.asarray(grad, dtype=np.float64)
        flat_grad = grad.reshape(grad.shape[:-2] + ((self.n_keypoints + 1) * 3,))
        d_fused = self.mlp.backward(flat_grad, ctx=ctx)
        d_flat = d_fused[..., : 3 * self.n_channels]
        d_app = d_fused[..., 3 * self.n_channels :]
        return d_flat.reshape(d_flat.shape[:-1] + (self.n_channels, 3)), d_app
