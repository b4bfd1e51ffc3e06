"""Training losses: focal segmentation, L1 offset losses, and the weighted
sum of these with the rotation-consistency penalty, which
model.PoseModel.so3_term computes on the keypoint offsets."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_field_types

# The focal loss's published constants (Lin et al., arXiv 1708.02002).
FOCAL_GAMMA = 2.0
FOCAL_ALPHA = 0.25


@dataclass(frozen=True)
class LossWeights:
    """Weights for the total objective; all must be finite and non-negative."""

    seg: float = 1.0
    kp: float = 1.0
    center: float = 1.0
    so3: float = 0.5

    def __post_init__(self):
        check_field_types(self)
        for name, value in zip(("seg", "kp", "center", "so3"), self.as_tuple()):
            if not (np.isfinite(value) and value >= 0.0):
                raise InputError(f"loss weight {name} must be finite and non-negative, got {value}")

    def as_tuple(self):
        return (self.seg, self.kp, self.center, self.so3)


@dataclass
class LossReport:
    seg: float
    kp: float
    center: float
    so3: float
    total: float

    CSV_HEADER = "step,seg,kp,center,so3,total"

    def csv_row(self, step: int) -> str:
        return f"{step},{self.seg:.12g},{self.kp:.12g},{self.center:.12g},{self.so3:.12g},{self.total:.12g}"


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def check_labels(labels: np.ndarray, n_classes: int):
    """The labels as ints; InputError unless every one lies in [0, n_classes)."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise InputError(
            f"labels must lie in [0, {n_classes}), got range [{labels.min()}, {labels.max()}]"
        )
    return labels.astype(int)


def focal_loss_grad(logits, labels):
    """(loss, d loss / d logits); the loss is the mean over points of
    -FOCAL_ALPHA * (1 - p_t)^FOCAL_GAMMA * log p_t."""
    logits = np.asarray(logits, dtype=np.float64)
    n, k = logits.shape
    labels = check_labels(labels, k)
    logp = log_softmax(logits)
    p = np.exp(logp)
    idx = np.arange(n)
    pt = p[idx, labels]
    logpt = logp[idx, labels]
    one_minus = 1.0 - pt
    loss = float(np.mean(-FOCAL_ALPHA * one_minus**FOCAL_GAMMA * logpt))

    # dL/dp_t, then through the softmax jacobian row of the true class
    d_pt = (
        FOCAL_ALPHA * FOCAL_GAMMA * one_minus ** (FOCAL_GAMMA - 1.0) * logpt
        - FOCAL_ALPHA * one_minus**FOCAL_GAMMA / pt
    )
    onehot = np.zeros_like(p)
    onehot[idx, labels] = 1.0
    d_logits = d_pt[:, None] * pt[:, None] * (onehot - p) / n
    return loss, d_logits


def l1_offset_loss_grad(pred, gt, mask):
    """(loss, d loss / d pred). The loss is the mean over masked points (and
    keypoint slots) of the L1 norm of the per-slot 3-vector error; the
    gradient is zero outside the mask. Empty masks return 0 with a
    UserWarning."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"pred/gt shapes differ: {pred.shape} vs {gt.shape}")
    mask = np.asarray(mask, dtype=bool)
    grad = np.zeros_like(pred)
    if not mask.any():
        warnings.warn("offset loss over empty mask; returning 0")
        return 0.0, grad
    diff = pred[mask] - gt[mask]
    n_vectors = diff.size // 3
    loss = float(np.abs(diff).sum() / n_vectors)
    grad[mask] = np.sign(diff) / n_vectors
    return loss, grad


def total_loss(parts, weights: LossWeights) -> LossReport:
    """Weighted sum of (seg, kp, center, so3) part values."""
    seg, kp, center, so3 = (float(p) for p in parts)
    w = weights.as_tuple()
    total = w[0] * seg + w[1] * kp + w[2] * center + w[3] * so3
    return LossReport(seg=seg, kp=kp, center=center, so3=so3, total=total)
