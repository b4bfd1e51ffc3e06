"""Tests for the training losses and their gradients."""

import numpy as np
import pytest

from conftest import stack_pair
from equipose.backproject import PointCloud
from equipose.errors import InputError
from equipose.geometry import Rotation, sample_uniform_rotation
from equipose.layers import Sequential, VNLinear, VNReLU, init_layer_params
from equipose.losses import (
    LossReport,
    LossWeights,
    focal_loss_grad,
    l1_offset_loss_grad,
    total_loss,
)
from equipose.model import ModelConfig, init_model
from equipose.train import central_differences

RNG = np.random.default_rng


class TestFocalLoss:
    def test_matches_dense_oracle_at_published_constants(self):
        # -alpha (1 - p_t)^gamma log p_t with alpha = 0.25, gamma = 2 (Lin et
        # al.), and its gradient through the full softmax jacobian, per point
        alpha, gamma = 0.25, 2.0
        rng = RNG(0)
        logits = rng.normal(size=(50, 5))
        labels = rng.integers(0, 5, size=50)
        losses, grads = [], []
        for z, t in zip(logits, labels):
            p = np.exp(z) / np.exp(z).sum()
            pt = p[t]
            losses.append(-alpha * (1.0 - pt) ** gamma * np.log(pt))
            d_pt = alpha * gamma * (1.0 - pt) ** (gamma - 1.0) * np.log(pt) - alpha * (1.0 - pt) ** gamma / pt
            jacobian = np.diag(p) - np.outer(p, p)  # d p_i / d z_j
            grads.append(d_pt * jacobian[t] / len(logits))
        value, grad = focal_loss_grad(logits, labels)
        assert abs(value - np.mean(losses)) <= 1e-12
        np.testing.assert_allclose(grad, np.array(grads), rtol=1e-12, atol=1e-15)

    def test_confident_correct_logits_drive_loss_to_zero(self):
        labels = np.zeros(4, dtype=int)
        previous = np.inf
        for scale in (1.0, 3.0, 10.0, 30.0):
            logits = np.zeros((4, 3))
            logits[:, 0] = scale
            value = focal_loss_grad(logits, labels)[0]
            assert value < previous
            previous = value
        assert previous < 1e-8

    def test_closed_form_binary_case(self):
        # two classes, equal logits: p_t = 1/2, loss = 1/4 * (1/2)^2 * ln 2
        value = focal_loss_grad(np.zeros((1, 2)), [0])[0]
        assert abs(value - 0.25 * 0.25 * np.log(2.0)) <= 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(InputError, match="labels must lie in"):
            focal_loss_grad(np.zeros((2, 3)), [0, 3])
        with pytest.raises(InputError, match="labels must lie in"):
            focal_loss_grad(np.zeros((2, 3)), [-1, 0])

    def test_gradient_matches_finite_differences(self):
        rng = RNG(1)
        logits = rng.normal(size=(12, 4))
        labels = rng.integers(0, 4, size=12)
        _, grad = focal_loss_grad(logits, labels)
        num = central_differences(lambda: focal_loss_grad(logits, labels)[0], logits, 1e-5)
        np.testing.assert_allclose(grad, num, rtol=1e-4, atol=1e-10)

    def test_non_negative(self):
        rng = RNG(2)
        for _ in range(20):
            logits = rng.normal(size=(9, 3)) * 3
            labels = rng.integers(0, 3, size=9)
            assert focal_loss_grad(logits, labels)[0] >= 0.0


class TestOffsetLosses:
    def test_zero_for_equal(self):
        rng = RNG(3)
        x = rng.normal(size=(7, 4, 3))
        mask = np.ones(7, dtype=bool)
        assert l1_offset_loss_grad(x, x.copy(), mask)[0] == 0.0

    def test_constant_error_vector(self):
        gt = np.zeros((5, 3, 3))
        pred = gt + np.array([0.1, -0.2, 0.3])
        mask = np.ones(5, dtype=bool)
        assert abs(l1_offset_loss_grad(pred, gt, mask)[0] - 0.6) <= 1e-12

    def test_matches_dense_oracle(self):
        rng = RNG(4)
        pred = rng.normal(size=(9, 5, 3))
        gt = rng.normal(size=(9, 5, 3))
        mask = rng.uniform(size=9) < 0.6
        expected = 0.0
        count = 0
        for i in range(9):
            if not mask[i]:
                continue
            for j in range(5):
                expected += np.abs(pred[i, j] - gt[i, j]).sum()
                count += 1
        assert abs(l1_offset_loss_grad(pred, gt, mask)[0] - expected / count) <= 1e-12

    def test_empty_mask_warns_and_returns_zero(self):
        pred = np.ones((4, 2, 3))
        with pytest.warns(UserWarning, match="empty mask"):
            value = l1_offset_loss_grad(pred, np.zeros_like(pred), np.zeros(4, dtype=bool))[0]
        assert value == 0.0

    def test_center_slot_shifted_channel(self):
        gt = np.zeros((6, 1, 3))
        pred = gt + np.array([0.1, 0.0, 0.0])
        assert abs(l1_offset_loss_grad(pred, gt, np.ones(6, dtype=bool))[0] - 0.1) <= 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = RNG(5)
        pred = rng.normal(size=(6, 3, 3))
        gt = rng.normal(size=(6, 3, 3))
        mask = np.array([True, False, True, True, False, True])
        _, grad = l1_offset_loss_grad(pred, gt, mask)
        num = central_differences(lambda: l1_offset_loss_grad(pred, gt, mask)[0], pred, 1e-6)
        np.testing.assert_allclose(grad, num, rtol=1e-6, atol=1e-12)


SMALL_MODEL = ModelConfig(n_classes=4, n_keypoints=4, vn_widths=(8, 8))


def make_pure_stack(seed=0):
    stack = Sequential([VNLinear(4, 8), VNReLU(8, 8), VNLinear(8, 6)])
    init_layer_params(stack, RNG(seed))
    return stack


class TestSo3Loss:
    """PoseModel.so3_term, the rotation-consistency penalty of training, on
    the output pairs of equivariant stacks and of a model's keypoint head."""

    def test_identity_rotation_is_exactly_zero(self):
        stack = make_pure_stack(6)
        v = RNG(7).normal(size=(3, 4, 10))
        model = init_model(SMALL_MODEL, seed=0)
        assert model.so3_term(stack_pair(stack, v, np.eye(3)), Rotation(np.eye(3)))[0] == 0.0

    def test_vanishes_on_pure_stacks(self):
        model = init_model(SMALL_MODEL, seed=0)
        rng = RNG(8)
        for _ in range(100):
            stack = make_pure_stack(int(rng.integers(1 << 30)))
            v = rng.normal(size=(3, 4, 12))
            rot = sample_uniform_rotation(rng)
            assert model.so3_term(stack_pair(stack, v, rot.m), rot)[0] <= 1e-10

    def test_positive_on_broken_stack(self):
        # the keypoint head's flattening fusion is not equivariant, and a
        # fresh model has not been trained toward consistency
        rng = RNG(9)
        for _ in range(10):
            model = init_model(SMALL_MODEL, seed=int(rng.integers(1 << 30)))
            points = rng.uniform(-0.1, 0.1, size=(40, 3))
            colors = rng.uniform(0.0, 1.0, size=(40, 3))
            v, app_in = model.inputs(PointCloud(points=points, attributes=colors))
            rot = sample_uniform_rotation(rng)
            offsets = model.forward(v, app_in, ctx={}, rotation=rot).offsets
            assert model.so3_term(offsets, rot)[0] > 1e-3


class TestTotalLoss:
    def test_all_zero(self):
        report = total_loss((0, 0, 0, 0), LossWeights())
        assert report.total == 0.0

    def test_default_weights_arithmetic(self):
        report = total_loss((1, 2, 3, 4), LossWeights())
        assert report.total == 8.0

    def test_matches_dot_product_oracle(self):
        rng = RNG(12)
        for _ in range(50):
            parts = rng.uniform(0, 5, size=4)
            w = LossWeights(*rng.uniform(0, 2, size=4))
            report = total_loss(parts, w)
            oracle = float(np.dot(parts, w.as_tuple()))
            assert abs(report.total - oracle) <= 1e-15 * max(1.0, abs(oracle))

    def test_report_invariant(self):
        w = LossWeights(0.3, 1.7, 0.9, 0.2)
        r = total_loss((0.5, 1.5, 2.5, 3.5), w)
        recomputed = w.seg * r.seg + w.kp * r.kp + w.center * r.center + w.so3 * r.so3
        assert abs(r.total - recomputed) <= 1e-12

    def test_linear_in_each_part(self):
        w = LossWeights()
        base = total_loss((1.0, 1.0, 1.0, 1.0), w).total
        bumped = total_loss((2.0, 1.0, 1.0, 1.0), w).total
        assert abs((bumped - base) - w.seg * 1.0) <= 1e-15

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(seg=-0.1)

    @pytest.mark.parametrize(
        "weight", [{"so3": float("nan")}, {"kp": float("inf")}, {"seg": True}], ids=["nan", "inf", "bool"]
    )
    def test_non_finite_or_non_real_weight_rejected(self, weight):
        with pytest.raises(InputError, match=next(iter(weight))):
            LossWeights(**weight)

    def test_csv_row_format(self):
        row = LossReport(1.0, 2.0, 3.0, 4.0, 8.0).csv_row(7)
        assert row.startswith("7,1,")
        assert LossReport.CSV_HEADER == "step,seg,kp,center,so3,total"
