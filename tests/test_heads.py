"""Tests for the appearance encoder and the two fusion heads."""

import numpy as np
import pytest

from conftest import layer_fd_check
from equipose.backproject import PointCloud
from equipose.errors import MissingAttributes, ShapeMismatch
from equipose.geometry import sample_uniform_rotation
from equipose.heads import (
    AppearanceEncoder,
    KpHead,
    Mlp2,
    SegHead,
    appearance_input,
)
from equipose.layers import init_layer_params
from equipose.model import ModelConfig, init_model
from equipose.train import central_differences

RNG = np.random.default_rng


def fresh(layer, seed=0):
    init_layer_params(layer, RNG(seed))
    return layer


class TestAppearanceEncoder:
    def test_zero_weights_give_bias(self):
        enc = AppearanceEncoder(n_hidden=4, n_out=3)
        enc.mlp.b2.value[...] = [0.1, -0.2, 0.3]
        cloud = PointCloud(points=np.zeros((6, 3)), attributes=RNG(0).uniform(size=(6, 3)))
        out = enc.forward(appearance_input(cloud))
        np.testing.assert_allclose(out, np.tile([0.1, -0.2, 0.3], (6, 1)), atol=1e-15)

    def test_pointwise_permutation(self):
        enc = fresh(AppearanceEncoder(), seed=1)
        rng = RNG(2)
        cloud = PointCloud(points=rng.normal(size=(10, 3)), attributes=rng.uniform(size=(10, 3)))
        base = enc.forward(appearance_input(cloud))
        perm = rng.permutation(10)
        permuted = PointCloud(points=cloud.points[perm], attributes=cloud.attributes[perm])
        np.testing.assert_array_equal(enc.forward(appearance_input(permuted)), base[perm])

    def test_matches_dense_oracle(self):
        enc = fresh(AppearanceEncoder(n_hidden=7, n_out=5), seed=3)
        x = RNG(4).uniform(size=(9, 5))
        out = enc.forward(x, ctx={})
        hidden = np.maximum(x @ enc.mlp.w1.value.T + enc.mlp.b1.value, 0.0)
        expected = hidden @ enc.mlp.w2.value.T + enc.mlp.b2.value
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_missing_attributes(self):
        with pytest.raises(MissingAttributes):
            appearance_input(PointCloud(points=np.zeros((3, 3))))

    def test_pixel_normalization(self):
        cloud = PointCloud(
            points=np.zeros((2, 3)),
            attributes=np.full((2, 3), 0.5),
            pixel_origin=np.array([[0, 0], [639, 479]]),
            image_size=(640, 480),
        )
        x = appearance_input(cloud)
        np.testing.assert_allclose(x[0, 3:], [0.5 / 640, 0.5 / 480])
        np.testing.assert_allclose(x[1, 3:], [639.5 / 640, 479.5 / 480])

    def test_rotation_of_points_changes_nothing(self):
        enc = fresh(AppearanceEncoder(), seed=5)
        rng = RNG(6)
        attrs = rng.uniform(size=(8, 3))
        a = PointCloud(points=rng.normal(size=(8, 3)), attributes=attrs)
        b = PointCloud(points=sample_uniform_rotation(rng).apply(a.points), attributes=attrs)
        np.testing.assert_array_equal(
            enc.forward(appearance_input(a)), enc.forward(appearance_input(b))
        )


class TestSegHead:
    def test_zero_features_give_bias(self):
        head = SegHead(6, 4, 8, 3)
        head.mlp.b2.value[...] = [0.5, -0.5, 2.0]
        out = head.forward(np.zeros((7, 6)), np.zeros((7, 4)), ctx={})
        np.testing.assert_allclose(out, np.tile([0.5, -0.5, 2.0], (7, 1)), atol=1e-15)

    def test_point_count_mismatch(self):
        head = SegHead(6, 4, 8, 3)
        with pytest.raises(ShapeMismatch):
            head.forward(np.zeros((7, 6)), np.zeros((6, 4)), ctx={})

    def test_single_class_argmax_constant(self):
        head = fresh(SegHead(6, 4, 8, 1), seed=7)
        rng = RNG(8)
        out = head.forward(rng.normal(size=(9, 6)), rng.normal(size=(9, 4)), ctx={})
        assert out.shape == (9, 1)
        assert np.all(out.argmax(axis=-1) == 0)

    def test_logits_invariant_under_cloud_rotation(self):
        # full stack: lift -> trunk -> invariant head -> seg head
        model = init_model(ModelConfig(n_classes=4, vn_widths=(8, 8)), seed=9)
        rng = RNG(10)
        points = rng.uniform(-0.1, 0.1, size=(60, 3))
        colors = rng.uniform(size=(60, 3))
        app_in = appearance_input(PointCloud(points=points, attributes=colors))
        base = model.forward(model.lift(points, colors), app_in, ctx={})
        for _ in range(100):
            rot = sample_uniform_rotation(rng)
            logits = model.forward(model.lift(rot.apply(points), colors), app_in, ctx={}).logits
            denom = 1.0 + np.max(np.abs(base.logits))
            assert np.max(np.abs(logits - base.logits)) / denom <= 1e-10
            assert np.array_equal(logits.argmax(axis=-1), base.logits.argmax(axis=-1))


class TestKpHead:
    def test_zero_weights_constant_offsets(self):
        head = KpHead(6, 4, 8, n_keypoints=3)
        bias = RNG(11).normal(size=12)
        head.mlp.b2.value[...] = bias
        out = head.forward(np.zeros((3, 6, 5)), np.zeros((5, 4)), ctx={})
        assert out.shape == (5, 4, 3)
        np.testing.assert_allclose(out, np.tile(bias.reshape(4, 3), (5, 1, 1)), atol=1e-15)

    def test_shape_mismatch(self):
        head = KpHead(6, 4, 8, n_keypoints=3)
        with pytest.raises(ShapeMismatch):
            head.forward(np.zeros((5, 6, 3)), np.zeros((5, 4)), ctx={})  # a vector list
        with pytest.raises(ShapeMismatch):
            head.forward(np.zeros((3, 6, 5)), np.zeros((4, 4)), ctx={})  # 4 points, not 5
        with pytest.raises(ShapeMismatch):
            head.forward(np.zeros((3, 6, 5)), np.zeros((5, 3)), ctx={})  # 3 appearance features

    def test_matches_dense_oracle(self):
        # the oracle's rows are (N, C, 3) vector lists flattened channel-major
        # then xyz, the column order of kp.mlp.W1 in saved parameters; the head
        # gets the component-major transpose of the same draw
        head = fresh(KpHead(5, 4, 9, n_keypoints=2), seed=12)
        rng = RNG(13)
        equi = rng.normal(size=(6, 5, 3))
        app = rng.normal(size=(6, 4))
        out = head.forward(equi.T, app, ctx={})
        fused = np.concatenate([equi.reshape(6, 15), app], axis=1)
        hidden = np.maximum(fused @ head.mlp.w1.value.T + head.mlp.b1.value, 0.0)
        expected = (hidden @ head.mlp.w2.value.T + head.mlp.b2.value).reshape(6, 3, 3)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_appearance_path_homogeneous_when_equi_zeroed(self):
        # zero biases + zero equivariant input: relu is positively homogeneous,
        # so doubling appearance doubles the output exactly
        head = fresh(KpHead(5, 4, 9, n_keypoints=2), seed=14)
        head.mlp.b1.value[...] = 0.0
        head.mlp.b2.value[...] = 0.0
        app = RNG(15).normal(size=(6, 4))
        zero_equi = np.zeros((3, 5, 6))
        once = head.forward(zero_equi, app, ctx={})
        twice = head.forward(zero_equi, 2.0 * app, ctx={})
        np.testing.assert_allclose(twice, 2.0 * once, atol=1e-12)

    def test_permutation_equivariance_over_points(self):
        head = fresh(KpHead(5, 4, 9, n_keypoints=2), seed=16)
        rng = RNG(17)
        equi = rng.normal(size=(3, 5, 10))
        app = rng.normal(size=(10, 4))
        base = head.forward(equi, app, ctx={})
        perm = rng.permutation(10)
        np.testing.assert_array_equal(head.forward(equi[..., perm], app[perm], ctx={}), base[perm])


class TestHeadGradients:
    def test_mlp2_gradcheck(self):
        mlp = fresh(Mlp2(7, 6, 5), seed=18)
        x = RNG(19).normal(size=(8, 7))
        assert layer_fd_check(mlp, x) <= 1e-5

    def test_seg_head_gradcheck(self):
        head = fresh(SegHead(5, 3, 6, 4), seed=20)
        rng = RNG(21)
        inv = rng.normal(size=(6, 5))
        app = rng.normal(size=(6, 3))
        upstream = rng.normal(size=(6, 4))
        head.zero_grad()
        ctx = {}
        head.forward(inv, app, ctx=ctx)
        d_inv, d_app = head.backward(upstream, ctx=ctx)

        def loss():
            return float(np.sum(head.forward(inv, app, ctx={}) * upstream))

        for arr, grad in ((inv, d_inv), (app, d_app)):
            num = central_differences(loss, arr, 1e-6)
            np.testing.assert_allclose(grad, num, rtol=1e-5, atol=1e-9)

    def test_kp_head_gradcheck(self):
        head = fresh(KpHead(4, 3, 6, n_keypoints=2), seed=22)
        rng = RNG(23)
        equi = rng.normal(size=(3, 4, 5))
        app = rng.normal(size=(5, 3))
        upstream = rng.normal(size=(5, 3, 3))
        head.zero_grad()
        ctx = {}
        head.forward(equi, app, ctx=ctx)
        d_equi, d_app = head.backward(upstream, ctx=ctx)

        def loss():
            return float(np.sum(head.forward(equi, app, ctx={}) * upstream))

        for arr, grad in ((equi, d_equi), (app, d_app)):
            num = central_differences(loss, arr, 1e-6)
            np.testing.assert_allclose(grad, num, rtol=1e-5, atol=1e-9)
