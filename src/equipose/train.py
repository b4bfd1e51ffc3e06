"""Parameter initialization, gradient-descent training of the full objective,
and the central-finite-difference gradient oracle."""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields

import numpy as np

try:
    import resource
except ImportError:  # Windows has no resource module: loss.csv's minflt stays empty
    resource = None

from .errors import InputError, NonFiniteLoss, check_field_types
from .files import read_json
from .geometry import Rotation, sample_uniform_rotation
from .layers import named_params
from .losses import (
    LossReport,
    LossWeights,
    focal_loss_grad,
    l1_offset_loss_grad,
    total_loss,
)
from .model import PoseModel

LOSS_CSV_HEADER = LossReport.CSV_HEADER + ",step_ms,minflt"

# Adam's published constants (Kingma & Ba, arXiv 1412.6980).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# max_relative_error skips entries where |analytic| + |numeric| is this small.
RELATIVE_ERROR_FLOOR = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    lr_decay: float = 1.0  # multiplicative, applied per epoch
    batch_size: int = 1
    epochs: int = 1
    weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise InputError(f"learning rate must be finite and non-negative, got {self.learning_rate}")
        if not (np.isfinite(self.lr_decay) and self.lr_decay >= 0.0):
            raise InputError(f"lr_decay must be finite and non-negative, got {self.lr_decay}")
        if self.batch_size < 1:
            raise InputError("batch size must be at least 1")
        if self.epochs < 1:
            raise InputError("epochs must be at least 1")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def from_json(cls, path) -> "TrainConfig":
        """Read a config file; unknown keys, at the top level or under
        "weights", raise InputError naming them."""
        with read_json(path) as data:
            _check_keys(data, cls, "train config")
            if "weights" in data:
                _check_keys(data["weights"], LossWeights, "weights")
                data["weights"] = LossWeights(**data["weights"])
            return cls(**data)


def _check_keys(data: dict, cls, what: str) -> None:
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise InputError(f"unknown {what} keys: {', '.join(unknown)}")


class Adam:
    """Standard bias-corrected Adam over the trainable parameter set."""

    def __init__(self, params, lr: float):
        self.params = [p for p in params if p.trainable]
        self.lr = lr
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        self.t = 0

    def step(self):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * p.grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * p.grad**2
            p.value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def make_optimizer(model: PoseModel, cfg: TrainConfig) -> Adam:
    return Adam(model.params(), cfg.learning_rate)


@dataclass
class SceneTensors:
    """Network-ready arrays for one scene; the lift is cached here because it
    is fixed preprocessing, not part of the learned graph. v is the lifted
    feature, contiguous and component-major like every vector feature."""

    v: np.ndarray  # (3, 8, N) lifted feature
    app_in: np.ndarray  # (N, 5)
    labels: np.ndarray  # (N,)
    gt_offsets: np.ndarray  # (N, M + 1, 3)
    fg_mask: np.ndarray  # (N,) bool


def scene_tensors(sample, model: PoseModel) -> SceneTensors:
    return SceneTensors(
        *model.inputs(sample.cloud),
        labels=np.asarray(sample.labels, dtype=int),
        gt_offsets=np.asarray(sample.gt_offsets, dtype=np.float64),
        fg_mask=np.asarray(sample.labels) > 0,
    )


def sample_losses(model, t: SceneTensors, cfg: TrainConfig, rotation: Rotation, scale=1.0, ctx=None):
    """One training-mode forward of the cloud with the keypoint head on the
    pair (the cloud, the cloud rotated by R), and the loss assembly.

    The segmentation and offset losses read the straight half; the
    consistency term compares the keypoint offsets of both halves. Returns
    (LossReport, d logits, d offsets): the output gradients scaled by
    `scale`, ready for model.backward with the same ctx.
    """
    w = cfg.weights
    out = model.forward(t.v, t.app_in, train=True, ctx=ctx, rotation=rotation)
    n_kp = model.cfg.n_keypoints
    offsets = out.offsets[0]
    seg_value, d_seg = focal_loss_grad(out.logits, t.labels)
    kp_value, d_kp = l1_offset_loss_grad(offsets[:, :n_kp], t.gt_offsets[:, :n_kp], t.fg_mask)
    center_value, d_center = l1_offset_loss_grad(
        offsets[:, n_kp:], t.gt_offsets[:, n_kp:], t.fg_mask
    )
    so3_value, d_offsets = model.so3_term(out.offsets, rotation, weight=scale * w.so3)
    d_offsets[0] += np.concatenate([scale * w.kp * d_kp, scale * w.center * d_center], axis=1)
    report = total_loss((seg_value, kp_value, center_value, so3_value), w)
    return report, scale * w.seg * d_seg, d_offsets


def sample_losses_and_grads(model, t: SceneTensors, cfg: TrainConfig, rotation: Rotation, scale=1.0):
    """sample_losses, then one backward; parameter gradients are accumulated
    scaled by `scale`. Returns (LossReport, d v, d app_in)."""
    ctx = {}
    report, d_logits, d_offsets = sample_losses(model, t, cfg, rotation, scale, ctx=ctx)
    dv, d_app = model.backward(d_logits, d_offsets, ctx=ctx)
    return report, dv, d_app


def train_step(model, opt: Adam, batch, cfg: TrainConfig, rotation: Rotation) -> LossReport:
    """One optimizer step on a batch of SceneTensors under one rotation: zero
    the gradients, accumulate each sample's scaled by 1/len(batch), then one
    Adam update. Returns the batch-mean LossReport. Raises NonFiniteLoss,
    numbered by opt.t, for a non-finite loss before the update and for a
    non-finite parameter after it."""
    model.zero_grad()
    parts = np.zeros(4)
    for t in batch:
        report, _, _ = sample_losses_and_grads(model, t, cfg, rotation, scale=1.0 / len(batch))
        parts += (report.seg, report.kp, report.center, report.so3)
    report = total_loss(parts / len(batch), cfg.weights)
    if not np.isfinite(report.total):
        raise NonFiniteLoss(f"non-finite loss at step {opt.t}: {report}")
    opt.step()
    for p in opt.params:
        if not np.all(np.isfinite(p.value)):
            raise NonFiniteLoss(f"non-finite parameter {p.name} after step {opt.t - 1}")
    return report


@dataclass
class TrainHistory:
    reports: list
    descent_ok: bool


def train(scenes, model: PoseModel, cfg: TrainConfig, csv_path=None) -> TrainHistory:
    """Minimize the weighted objective over the scene list: per epoch a fresh
    permutation, per batch one rotation and one train_step, then the lr decay.

    Emits one CSV row per optimizer step when csv_path is given: the losses,
    the step's wall time and its minor page faults (LOSS_CSV_HEADER). Raises
    NonFiniteLoss the moment a loss or parameter stops being finite. The
    returned history carries a descent flag: mean total over the last tenth
    of steps below the first tenth's mean.
    """
    if len(scenes) == 0:
        raise InputError("training requires a non-empty dataset")
    tensors = [scene_tensors(s, model) for s in scenes]
    rng = np.random.default_rng(cfg.seed)
    opt = make_optimizer(model, cfg)
    sample_uniform_rotation(rng)  # discarded; keeps the draw order, so a seed gives the same run
    reports = []
    with open(csv_path, "w") if csv_path else nullcontext() as csv_file:
        if csv_file:
            csv_file.write(LOSS_CSV_HEADER + "\n")
        for _ in range(cfg.epochs):
            order = rng.permutation(len(tensors))
            for start in range(0, len(order), cfg.batch_size):
                batch = [tensors[i] for i in order[start : start + cfg.batch_size]]
                rotation = sample_uniform_rotation(rng)
                started, faults_before = time.perf_counter(), _minor_faults()
                report = train_step(model, opt, batch, cfg, rotation)
                if csv_file:
                    step_ms = 1e3 * (time.perf_counter() - started)
                    faults = "" if faults_before is None else _minor_faults() - faults_before
                    csv_file.write(f"{report.csv_row(len(reports))},{step_ms:.3f},{faults}\n")
                reports.append(report)
            opt.lr *= cfg.lr_decay
    totals = np.array([r.total for r in reports])
    tail = max(1, len(totals) // 10)
    descent_ok = bool(totals[-tail:].mean() < totals[:tail].mean())
    return TrainHistory(reports=reports, descent_ok=descent_ok)


def _minor_faults():
    """This process's minor page faults so far; None without `resource`."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else None


# gradient oracle ------------------------------------------------------------


def central_differences(loss, arr: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient of the scalar loss() with respect to the
    C-contiguous array arr, perturbed in place one entry at a time."""
    g = np.zeros_like(arr)
    flat, gflat = arr.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        up = loss()
        flat[i] = keep - step
        down = loss()
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * step)
    return g


@contextmanager
def _stats_kept(model):
    """Restore the batch-norm running stats on exit: the train-mode objective
    does not read them, but every train-mode forward moves them."""
    saved = [(p, p.value.copy()) for p in model.params() if not p.trainable]
    try:
        yield
    finally:
        for p, value in saved:
            p.value[...] = value


def max_relative_error(analytic: dict, numeric: dict) -> float:
    """Max of |a - n| / (|a| + |n|) over entries where |a| + |n| exceeds
    RELATIVE_ERROR_FLOOR; inf as soon as any analytic or numeric entry is not
    finite."""
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(n))):
            return float("inf")
        denom = np.abs(a) + np.abs(n)
        consider = denom > RELATIVE_ERROR_FLOOR
        if consider.any():
            rel = np.abs(a - n)[consider] / denom[consider]
            worst = max(worst, float(rel.max()))
    return worst


def gradcheck(model, t: SceneTensors, cfg: TrainConfig, rotation: Rotation, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients of
    the total objective with respect to the network inputs and every trainable
    parameter. Running stats are left as they were."""
    if not (np.isfinite(step) and step > 0.0):
        raise InputError(f"finite-difference step must be finite and positive, got {step}")

    def loss() -> float:
        return sample_losses(model, t, cfg, rotation)[0].total

    model.zero_grad()
    with _stats_kept(model):
        _, dv, d_app = sample_losses_and_grads(model, t, cfg, rotation)
        checked = [("input.v", t.v, dv), ("input.app", t.app_in, d_app)]
        checked += [(name, p.value, p.grad) for name, p in named_params(model) if p.trainable]
        analytic = {name: grad for name, _, grad in checked}
        numeric = {name: central_differences(loss, arr, step) for name, arr, _ in checked}
    return max_relative_error(analytic, numeric)
