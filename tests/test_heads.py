"""Tests for the appearance encoder, the block MLP and the two fusion heads."""

import copy
import re
from pathlib import Path

import numpy as np
import pytest

from equipose.backproject import PointCloud
from equipose.errors import EquiposeError
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
from conftest import layer_fd_check

RNG = np.random.default_rng
SRC = Path(__file__).resolve().parent.parent / "src" / "equipose"


class TestAppearanceEncoder:
    def test_zero_weights_give_bias(self):
        enc = AppearanceEncoder(n_hidden=4, n_out=3)
        enc.mlp.b2.value[...] = [0.1, -0.2, 0.3]
        cloud = PointCloud(points=np.zeros((6, 3)), attributes=RNG(0).uniform(size=(6, 3)))
        out = enc.forward(appearance_input(cloud))
        np.testing.assert_allclose(out, np.tile([0.1, -0.2, 0.3], (6, 1)), atol=1e-15)

    def test_pointwise_permutation(self):
        enc = init_layer_params(AppearanceEncoder(n_hidden=32, n_out=32), RNG(1))
        rng = RNG(2)
        cloud = PointCloud(points=rng.normal(size=(10, 3)), attributes=rng.uniform(size=(10, 3)))
        base = enc.forward(appearance_input(cloud))
        perm = rng.permutation(10)
        permuted = PointCloud(points=cloud.points[perm], attributes=cloud.attributes[perm])
        np.testing.assert_array_equal(enc.forward(appearance_input(permuted)), base[perm])

    def test_matches_dense_oracle(self):
        enc = init_layer_params(AppearanceEncoder(n_hidden=7, n_out=5), RNG(3))
        x = RNG(4).uniform(size=(9, 5))
        out = enc.forward(x, ctx={})
        hidden = np.maximum(x @ enc.mlp.w1.value.T + enc.mlp.b1.value, 0.0)
        expected = hidden @ enc.mlp.w2.value.T + enc.mlp.b2.value
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_rgb_columns_then_exact_zero_padding(self):
        # the converted checkpoint drops W1's last two columns and must keep
        # every logit bit for bit, which holds only while they read exact zeros
        attrs = RNG(11).uniform(0.0, 1.0, size=(7, 3))
        attrs[0] = [-0.0, 5e-324, 1e-300]
        x = appearance_input(PointCloud(points=np.zeros((7, 3)), attributes=attrs))
        assert x.shape == (7, 5) and x.dtype == np.float64
        assert x[:, :3].tobytes() == attrs.tobytes()
        assert x[:, 3:].tobytes() == np.zeros((7, 2)).tobytes()

    def test_rotation_of_points_changes_nothing(self):
        enc = init_layer_params(AppearanceEncoder(n_hidden=32, n_out=32), RNG(5))
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
        with pytest.raises(EquiposeError, match="point counts differ"):
            head.forward(np.zeros((7, 6)), np.zeros((6, 4)), ctx={})

    def test_single_class_argmax_constant(self):
        head = init_layer_params(SegHead(6, 4, 8, 1), RNG(7))
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
        v, app_in = model.inputs(PointCloud(points=points, attributes=colors))
        base = model.forward(v, app_in, ctx={})
        for _ in range(100):
            rot = sample_uniform_rotation(rng)
            v, _ = model.inputs(PointCloud(points=rot.apply(points), attributes=colors))
            logits = model.forward(v, app_in, ctx={}).logits
            denom = 1.0 + np.max(np.abs(base.logits))
            assert np.max(np.abs(logits - base.logits)) / denom <= 1e-10
            assert np.array_equal(logits.argmax(axis=-1), base.logits.argmax(axis=-1))


def kp_inputs(rng, n_points, half, n_appearance, pair=False):
    """(local, pooled, appearance) for a KpHead: one pooled mean per cloud,
    and with pair=True a leading pair axis on the two trunk halves only."""
    lead = (2,) if pair else ()
    local = rng.normal(size=lead + (3, half, n_points))
    pooled = rng.normal(size=lead + (3, half, 1))
    return local, pooled, rng.normal(size=(n_points, n_appearance))


class TestKpHead:
    def test_zero_weights_constant_offsets(self):
        head = KpHead(6, 4, 8, n_keypoints=3)
        bias = RNG(11).normal(size=12)
        head.mlp.b2.value[...] = bias
        out = head.forward(np.zeros((3, 3, 5)), np.zeros((3, 3, 1)), np.zeros((5, 4)), ctx={})
        assert out.shape == (5, 4, 3)
        np.testing.assert_allclose(out, np.tile(bias.reshape(4, 3), (5, 1, 1)), atol=1e-15)

    def test_shape_mismatch(self):
        head = KpHead(6, 4, 8, n_keypoints=3)
        local, pooled, app = np.zeros((3, 3, 5)), np.zeros((3, 3, 1)), np.zeros((5, 4))
        halves, broadcast, width = "expected two", "do not broadcast", "input features"
        bad = [
            ((np.zeros((5, 3, 3)), pooled, app), halves),  # a vector list
            ((np.zeros((3, 6, 5)), pooled, app), halves),  # the whole trunk, not its per-point half
            ((local, np.zeros((3, 6, 1)), app), halves),  # the whole pooled trunk
            ((local, pooled, np.zeros((4, 4))), broadcast),  # 4 points, not 5
            ((local, pooled, np.zeros((5, 3))), width),  # 3 appearance features
            ((np.zeros((2, 3, 3, 5)), np.zeros((3, 3, 3, 1)), app), broadcast),  # pair axes that clash
        ]
        for args, message in bad:
            with pytest.raises(EquiposeError, match=message):
                head.forward(*args, ctx={})

    def test_matches_dense_oracle(self):
        # the oracle's rows are (N, C, 3) vector lists, the pooled mean appended
        # to every point, flattened channel-major then xyz: the column order of
        # kp.mlp.W1 in saved parameters. The head gets the component-major
        # transposes of the same draw, the pooled half once
        head = init_layer_params(KpHead(6, 4, 9, n_keypoints=2), RNG(12))
        rng = RNG(13)
        local = rng.normal(size=(7, 3, 3))
        pooled = rng.normal(size=(1, 3, 3))
        app = rng.normal(size=(7, 4))
        out = head.forward(local.T, pooled.T, app, ctx={})
        equi = np.concatenate([local, np.repeat(pooled, 7, axis=0)], axis=1)
        fused = np.concatenate([equi.reshape(7, 18), app], axis=1)
        hidden = np.maximum(fused @ head.mlp.w1.value.T + head.mlp.b1.value, 0.0)
        expected = (hidden @ head.mlp.w2.value.T + head.mlp.b2.value).reshape(7, 3, 3)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_appearance_path_homogeneous_when_equi_zeroed(self):
        # zero biases + zero equivariant input: relu is positively homogeneous,
        # so doubling appearance doubles the output exactly
        head = init_layer_params(KpHead(6, 4, 9, n_keypoints=2), RNG(14))
        head.mlp.b1.value[...] = 0.0
        head.mlp.b2.value[...] = 0.0
        app = RNG(15).normal(size=(6, 4))
        zeros = np.zeros((3, 3, 6)), np.zeros((3, 3, 1))
        once = head.forward(*zeros, app, ctx={})
        twice = head.forward(*zeros, 2.0 * app, ctx={})
        np.testing.assert_allclose(twice, 2.0 * once, atol=1e-12)

    def test_permutation_equivariance_over_points(self):
        head = init_layer_params(KpHead(6, 4, 9, n_keypoints=2), RNG(16))
        rng = RNG(17)
        local, pooled, app = kp_inputs(rng, 10, 3, 4)
        base = head.forward(local, pooled, app, ctx={})
        perm = rng.permutation(10)
        np.testing.assert_array_equal(head.forward(local[..., perm], pooled, app[perm], ctx={}), base[perm])

    def test_pair_matches_each_half(self):
        # a pair axis on the trunk halves gives each half's own offsets, the
        # appearance features shared
        head = init_layer_params(KpHead(6, 4, 9, n_keypoints=2), RNG(18))
        local, pooled, app = kp_inputs(RNG(19), 8, 3, 4, pair=True)
        out = head.forward(local, pooled, app, ctx={})
        for i in range(2):
            np.testing.assert_allclose(out[i], head.forward(local[i], pooled[i], app, ctx={}), atol=1e-14)


def dense_mlp2(mlp, x):
    """Mlp2 on one concatenated input, written out: (output, relu mask, hidden)."""
    h = x @ mlp.w1.value.T + mlp.b1.value
    relu = np.maximum(h, 0.0)
    return relu @ mlp.w2.value.T + mlp.b2.value, h > 0.0, relu


class TestMlp2Blocks:
    def test_one_block_is_the_dense_layer_bit_for_bit(self):
        mlp = init_layer_params(Mlp2(7, 6, 5), RNG(30))
        rng = RNG(31)
        x, upstream = rng.normal(size=(2, 8, 7)), rng.normal(size=(2, 8, 5))
        ctx = {}
        out = mlp.forward(x, ctx=ctx)
        (d_x,) = mlp.backward(upstream, ctx=ctx)
        expected, mask, relu = dense_mlp2(mlp, x)
        d_h = (upstream @ mlp.w2.value) * mask
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(d_x, d_h @ mlp.w1.value)
        np.testing.assert_array_equal(mlp.w1.grad, d_h.reshape(-1, 6).T @ x.reshape(-1, 7))
        np.testing.assert_array_equal(mlp.w2.grad, upstream.reshape(-1, 5).T @ relu.reshape(-1, 6))

    def three_blocks(self, seed):
        """A block with a pair axis, one with a size-1 point axis and one
        without the pair axis, and their dense concatenation (2, 7, 9)."""
        rng = RNG(seed)
        blocks = rng.normal(size=(2, 7, 4)), rng.normal(size=(2, 1, 3)), rng.normal(size=(7, 2))
        dense = np.concatenate([np.broadcast_to(b, (2, 7, b.shape[-1])) for b in blocks], axis=-1)
        return blocks, dense, rng.normal(size=(2, 7, 5))

    def test_blocks_match_the_dense_concatenation(self):
        mlp = init_layer_params(Mlp2(9, 6, 5), RNG(32))
        blocks, dense, upstream = self.three_blocks(33)
        reference = copy.deepcopy(mlp)
        ctx, ref_ctx = {}, {}
        out = mlp.forward(*blocks, ctx=ctx)
        d_blocks = mlp.backward(upstream, ctx=ctx)
        ref_out = reference.forward(dense, ctx=ref_ctx)
        (d_dense,) = reference.backward(upstream, ctx=ref_ctx)
        np.testing.assert_allclose(out, ref_out, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(out, dense_mlp2(mlp, dense)[0], rtol=0.0, atol=1e-12)
        edges = np.cumsum([0] + [b.shape[-1] for b in blocks])
        for block, d, a, b in zip(blocks, d_blocks, edges[:-1], edges[1:]):
            assert d.shape == block.shape
            # the dense gradient of a broadcast block, summed down to its shape
            ref = d_dense[..., a:b]
            ref = ref.sum(axis=1, keepdims=True) if block.shape[1] == 1 else ref
            ref = ref if block.ndim == 3 else ref.sum(axis=0)
            np.testing.assert_allclose(d, ref, rtol=0.0, atol=1e-12)
        for p, ref in zip(mlp.own_params(), reference.own_params()):
            np.testing.assert_allclose(p.grad, ref.grad, rtol=0.0, atol=1e-12, err_msg=p.name)

    def test_block_widths_and_shapes_are_checked(self):
        mlp = Mlp2(9, 6, 5)
        blocks, _, _ = self.three_blocks(34)
        with pytest.raises(EquiposeError, match="expected 9 input features"):
            mlp.forward(*blocks[:2], ctx={})  # 7 of 9 columns
        with pytest.raises(EquiposeError, match="do not broadcast"):
            mlp.forward(blocks[0], blocks[1], np.zeros((6, 2)), ctx={})  # 6 points against 7


class TestHeadGradients:
    # every input and every parameter against central differences
    def test_mlp2_gradcheck(self):
        mlp = init_layer_params(Mlp2(9, 6, 5), RNG(18))
        blocks, _, _ = TestMlp2Blocks().three_blocks(19)
        assert layer_fd_check(mlp, *blocks) <= 1e-5

    def test_seg_head_gradcheck(self):
        head = init_layer_params(SegHead(5, 3, 6, 4), RNG(20))
        rng = RNG(21)
        assert layer_fd_check(head, rng.normal(size=(6, 5)), rng.normal(size=(6, 3))) <= 5e-6

    def test_kp_head_gradcheck(self):
        # on the training pair: the appearance features shared by both halves
        head = init_layer_params(KpHead(4, 3, 6, n_keypoints=2), RNG(22))
        assert layer_fd_check(head, *kp_inputs(RNG(23), 5, 2, 3, pair=True)) <= 5e-6


def test_heads_hand_mlp_inputs_over_as_blocks():
    # a concatenation or broadcast in heads.py would copy an input block shared
    # by many points to per-point size; Mlp2 takes the blocks as they are
    offenders = [
        f"heads.py:{n}"
        for n, line in enumerate((SRC / "heads.py").read_text().splitlines(), 1)
        if re.search(r"\bnp\.(concatenate|broadcast_to)\(", line)
    ]
    assert offenders == []
