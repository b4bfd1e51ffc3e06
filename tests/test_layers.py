"""Tests for the equivariant layer kit: forward semantics, equivariance and
invariance properties, and analytic gradients."""

import importlib
import pkgutil
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import equipose
from conftest import layer_fd_check
from equipose.checks import (
    equivariance_report,
    full_report,
    equivariance_residual,
    invariance_residual,
    random_stack,
)
from equipose.errors import EquiposeError
from equipose.geometry import sample_uniform_rotation
from equipose.layers import (
    BN_EPS,
    K_DEGENERATE_SQ,
    Layer,
    Sequential,
    VNBatchNorm,
    VNInvariant,
    VNLinear,
    VNPoolConcat,
    VNReLU,
    init_layer_params,
    named_params,
    rotate_feature,
)
from equipose.model import ModelConfig, PoseModel, init_model, load_model, save_model

RNG = np.random.default_rng


def inline_invariant_reference(layer, v, grad):
    """VNInvariant with its scalar MLP written out inline, as it was before the
    layer delegated to Mlp2: (output, input gradient, {param name: gradient}).
    v is component-major, and so is the input gradient."""
    wa, wb = layer.wa.value, layer.wb.value
    w1, b1, w2, b2 = (p.value for p in layer.mlp.own_params())
    va, vb = np.swapaxes(np.matmul(wa, v), -1, -3), np.swapaxes(np.matmul(wb, v), -1, -3)
    gram = np.matmul(va, np.swapaxes(vb, -1, -2))
    flat = gram.reshape(gram.shape[:-2] + (layer.branch * layer.branch,))
    h = flat @ w1.T + b1
    relu = np.maximum(h, 0.0)
    out = relu @ w2.T + b2
    g2 = grad.reshape(-1, grad.shape[-1])
    grads = {"W2": g2.T @ relu.reshape(g2.shape[0], -1), "b2": g2.sum(axis=0)}
    d_h = (grad @ w2) * (h > 0.0)
    dh2 = d_h.reshape(-1, d_h.shape[-1])
    grads["W1"] = dh2.T @ flat.reshape(dh2.shape[0], -1)
    grads["b1"] = dh2.sum(axis=0)
    d_flat = d_h @ w1
    d_gram = d_flat.reshape(d_flat.shape[:-1] + (layer.branch, layer.branch))
    d_va = np.swapaxes(np.matmul(d_gram, vb), -1, -3)
    d_vb = np.swapaxes(np.matmul(np.swapaxes(d_gram, -1, -2), va), -1, -3)
    v_t = np.swapaxes(v, -1, -2)
    grads["Wa"] = np.matmul(d_va, v_t).reshape(-1, layer.branch, layer.in_channels).sum(axis=0)
    grads["Wb"] = np.matmul(d_vb, v_t).reshape(-1, layer.branch, layer.in_channels).sum(axis=0)
    dv = np.matmul(wa.T, d_va) + np.matmul(wb.T, d_vb)
    return out, dv, grads


def fresh(layer, seed=0):
    init_layer_params(layer, RNG(seed))
    return layer


class TestRotateFeature:
    def test_matches_einsum_reference(self):
        # each channel vector x becomes x @ r
        rng = RNG(42)
        v = rng.normal(size=(3, 4, 7))
        r = sample_uniform_rotation(rng).m
        expected = np.einsum("icn,ij->jcn", v, r)
        np.testing.assert_allclose(rotate_feature(v, r), expected, rtol=0.0, atol=1e-14)

    def test_stacked_rotations_act_per_sample(self):
        rng = RNG(43)
        batch = rng.normal(size=(5, 3, 4, 7))
        rots = np.stack([sample_uniform_rotation(rng).m for _ in range(5)])
        expected = np.einsum("bicn,bij->bjcn", batch, rots)
        np.testing.assert_allclose(rotate_feature(batch, rots), expected, rtol=0.0, atol=1e-14)

    def test_composition(self):
        rng = RNG(44)
        v = rng.normal(size=(3, 4, 7))
        a, b = (sample_uniform_rotation(rng).m for _ in range(2))
        np.testing.assert_allclose(
            rotate_feature(rotate_feature(v, a), b), rotate_feature(v, a @ b), rtol=0.0, atol=1e-14
        )


class TestVNLinear:
    def test_identity_weight_is_identity(self):
        layer = VNLinear(4, 4)
        layer.w.value[...] = np.eye(4)
        v = RNG(0).normal(size=(3, 4, 6))
        np.testing.assert_array_equal(layer.forward(v, ctx={}), v)

    def test_hand_multiplied_channels(self):
        layer = VNLinear(2, 1)
        layer.w.value[...] = [[1.0, 1.0]]
        v = np.array([[[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]]).T  # one point, two channels
        np.testing.assert_array_equal(layer.forward(v, ctx={})[:, 0, 0], [1.0, 2.0, 0.0])

    def test_equivariance(self):
        rng = RNG(1)
        for _ in range(100):
            layer = fresh(VNLinear(5, 7), seed=int(rng.integers(1 << 30)))
            v = rng.normal(size=(3, 5, 8))
            r = sample_uniform_rotation(rng).m
            assert equivariance_residual(layer, v, r) <= 1e-12

    def test_input_gradient_is_adjoint(self):
        layer = fresh(VNLinear(4, 6), seed=2)
        v = RNG(3).normal(size=(3, 4, 5))
        ctx = {}
        out = layer.forward(v, ctx=ctx)
        grad_in = layer.backward(np.ones_like(out), ctx=ctx)
        expected = np.broadcast_to(layer.w.value.sum(axis=0)[:, None], (3, 4, 5))
        np.testing.assert_allclose(grad_in, expected, atol=1e-12)

    def test_shape_mismatch(self):
        layer = VNLinear(4, 6)
        with pytest.raises(EquiposeError, match="expected 4 channels"):
            layer.forward(np.zeros((3, 3, 5)), ctx={})  # 3 channels, not 4
        with pytest.raises(EquiposeError, match="component-major feature"):
            layer.forward(np.zeros((5, 4, 3)), ctx={})  # a vector list

    def test_backward_requires_forward(self):
        layer = VNLinear(2, 2)
        with pytest.raises(EquiposeError, match="without a recorded forward"):
            layer.backward(np.zeros((3, 2, 1)))
        layer.forward(np.zeros((3, 2, 1)))  # no ctx: nothing is recorded
        with pytest.raises(EquiposeError, match="without a recorded forward"):
            layer.backward(np.zeros((3, 2, 1)))


class TestVNReLU:
    def test_aligned_direction_passes_through(self):
        layer = VNReLU(1, 1)
        layer.w.value[...] = [[1.0]]
        layer.u.value[...] = [[2.0]]  # k = 2 q, positive dot
        v = RNG(4).normal(size=(3, 1, 5))
        np.testing.assert_allclose(layer.forward(v, ctx={}), v, atol=1e-12)

    def test_opposed_direction_fully_truncated(self):
        layer = VNReLU(1, 1)
        layer.w.value[...] = [[1.0]]
        layer.u.value[...] = [[-1.0]]  # k = -q
        v = RNG(5).normal(size=(3, 1, 5))
        np.testing.assert_allclose(layer.forward(v, ctx={}), np.zeros_like(v), atol=1e-12)

    def test_output_in_closed_half_space(self):
        rng = RNG(6)
        for _ in range(50):
            layer = fresh(VNReLU(4, 5), seed=int(rng.integers(1 << 30)))
            v = rng.normal(size=(3, 4, 12))
            out = layer.forward(v, ctx={})
            k = np.matmul(layer.u.value, v)
            assert np.min(np.sum(out * k, axis=0)) >= -1e-12

    def test_equivariance(self):
        rng = RNG(7)
        for _ in range(100):
            layer = fresh(VNReLU(5, 5), seed=int(rng.integers(1 << 30)))
            v = rng.normal(size=(3, 5, 8))
            r = sample_uniform_rotation(rng).m
            assert equivariance_residual(layer, v, r) <= 1e-12

    def test_degenerate_direction_passes_through(self):
        layer = VNReLU(2, 1)
        layer.w.value[...] = [[1.0, 0.0]]
        layer.u.value[...] = [[0.0, 0.0]]  # k identically zero
        v = RNG(8).normal(size=(3, 2, 4))
        np.testing.assert_array_equal(layer.forward(v, ctx={}), v[:, :1])

    def test_boundary_uses_pass_through_branch(self):
        # q orthogonal to k: <q,k> = 0 exactly, output must be q with the
        # pass-through (identity) local gradient
        layer = VNReLU(2, 1)
        layer.w.value[...] = [[1.0, 0.0]]
        layer.u.value[...] = [[0.0, 1.0]]
        v = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]).T  # one point, two channels
        ctx = {}
        out = layer.forward(v, ctx=ctx)
        np.testing.assert_array_equal(out[:, 0, 0], [1.0, 0.0, 0.0])
        grad = layer.backward(np.ones_like(out), ctx=ctx)
        assert np.all(np.isfinite(grad))
        np.testing.assert_array_equal(grad[:, 0, 0], [1.0, 1.0, 1.0])


class TestVNPoolConcat:
    """The pooled half of VNPoolConcat's output, channels C to 2C."""

    def test_single_point_identity(self):
        v = RNG(9).normal(size=(3, 3, 1))
        np.testing.assert_array_equal(VNPoolConcat().forward(v, ctx={})[:, 3:], v)

    def test_opposite_vectors_cancel(self):
        v = RNG(10).normal(size=(3, 4, 1))
        both = np.concatenate([v, -v], axis=-1)
        np.testing.assert_allclose(
            VNPoolConcat().forward(both, ctx={})[:, 4:], np.zeros((3, 4, 2)), atol=1e-15
        )

    def test_permutation_invariance(self):
        rng = RNG(11)
        v = rng.normal(size=(3, 4, 20))
        base = VNPoolConcat().forward(v, ctx={})[:, 4:]
        for _ in range(20):
            perm = rng.permutation(20)
            np.testing.assert_allclose(
                VNPoolConcat().forward(v[..., perm], ctx={})[:, 4:], base, atol=1e-12
            )

    def test_empty_input(self):
        with pytest.raises(EquiposeError, match="requires at least one point"):
            VNPoolConcat().forward(np.zeros((3, 3, 0)), ctx={})


class TestVNBatchNorm:
    def test_eval_mode_matches_scalar_bn_oracle(self):
        rng = RNG(12)
        layer = VNBatchNorm(3)
        mu = np.array([0.4, 0.9, 1.3])
        layer.running_mean.value[...] = mu
        layer.running_var.value[...] = 1.0
        v = rng.normal(size=(6, 3, 3)) * 2.0  # a vector list; .T is its (3, C, N) feature
        out = layer.forward(v.T, train=False, ctx={}).T
        norms = np.linalg.norm(v, axis=-1)
        expected_norms = (norms - mu) / np.sqrt(1.0 + BN_EPS)
        scale = expected_norms / norms
        np.testing.assert_allclose(out, v * scale[..., None], atol=1e-12)
        # directions preserved exactly where the normalized norm is positive
        pos = expected_norms > 0
        dir_in = v / norms[..., None]
        dir_out = out[pos] / np.linalg.norm(out[pos], axis=-1, keepdims=True)
        np.testing.assert_allclose(dir_out, dir_in[pos], atol=1e-12)

    def test_directions_collinear_in_train_mode(self):
        rng = RNG(13)
        layer = fresh(VNBatchNorm(4), seed=14)
        v = rng.normal(size=(10, 4, 3))
        out = layer.forward(v.T, train=True, ctx={}).T
        cross = np.cross(out, v)
        assert np.max(np.abs(cross)) <= 1e-12 * np.max(np.abs(v)) * np.max(
            np.linalg.norm(out, axis=-1)
        ) + 1e-15

    def test_per_sample_rotations(self):
        rng = RNG(14)
        layer = fresh(VNBatchNorm(5), seed=15)
        batch = rng.normal(size=(4, 3, 5, 9))
        rots = np.stack([sample_uniform_rotation(rng).m for _ in range(4)])
        straight = layer.forward(batch, train=True, ctx={})
        rotated = layer.forward(np.einsum("bij,bicn->bjcn", rots, batch), train=True, ctx={})
        expected = np.einsum("bij,bicn->bjcn", rots, straight)
        denom = 1.0 + np.max(np.abs(straight))
        assert np.max(np.abs(rotated - expected)) / denom <= 1e-10

    def test_constant_norms_give_constant_output_norms(self):
        rng = RNG(15)
        layer = fresh(VNBatchNorm(2), seed=16)
        layer.beta.value[...] = 0.7
        dirs = rng.normal(size=(8, 2, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        v = 1.5 * dirs  # all norms equal 1.5
        out = layer.forward(v.T, train=True, ctx={}).T
        norms = np.linalg.norm(out, axis=-1)
        np.testing.assert_allclose(norms, 0.7, atol=1e-12)

    def test_running_stats_update(self):
        layer = fresh(VNBatchNorm(2), seed=17)
        v = RNG(16).normal(size=(3, 2, 30))
        layer.forward(v, train=True, ctx={})
        assert not np.allclose(layer.running_mean.value, 0.0)
        before = layer.running_mean.value.copy()
        layer.forward(v, train=False, ctx={})
        np.testing.assert_array_equal(layer.running_mean.value, before)


class TestVNInvariant:
    def test_tied_branches_gram_value(self):
        layer = VNInvariant(1, branch=1, hidden=1, out=1)
        layer.wa.value[...] = 1.0
        layer.wb.value[...] = 1.0
        v = np.array([[[0.0, 3.0, 4.0]]]).T
        ctx = {}
        layer.forward(v, ctx=ctx)
        np.testing.assert_allclose(ctx["mlp"]["blocks"][0], [[25.0]], atol=1e-12)

    def test_named_params_order(self):
        layer = VNInvariant(4, branch=3, hidden=6, out=5)
        named = named_params(layer)
        assert [name for name, _ in named] == ["Wa", "Wb", "W1", "b1", "W2", "b2"]
        assert [p.value.shape for _, p in named] == [(3, 4), (3, 4), (6, 9), (6,), (5, 6), (5,)]

    @pytest.mark.parametrize("shape", [(3, 4, 9), (2, 3, 4, 9)], ids=["cloud", "stacked"])
    def test_matches_inline_mlp_reference(self, shape):
        rng = RNG(21)
        layer = fresh(VNInvariant(4, branch=3, hidden=6, out=5), seed=22)
        v = rng.normal(size=shape)
        grad = rng.normal(size=shape[:-3] + (shape[-1], 5))
        ctx = {}
        out = layer.forward(v, ctx=ctx)
        layer.zero_grad()
        dv = layer.backward(grad, ctx=ctx)
        ref_out, ref_dv, ref_grads = inline_invariant_reference(layer, v, grad)
        assert 0 < np.sum(ctx["mlp"]["h"] > 0.0) < ctx["mlp"]["h"].size  # the gate bites
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(dv, ref_dv)
        for name, p in named_params(layer):
            np.testing.assert_array_equal(p.grad, ref_grads[name], err_msg=name)

    def test_invariance(self):
        rng = RNG(17)
        for _ in range(200):
            layer = fresh(
                VNInvariant(4, branch=3, hidden=6, out=5),
                seed=int(rng.integers(1 << 30)),
            )
            v = rng.normal(size=(3, 4, 7))
            r = sample_uniform_rotation(rng).m
            assert invariance_residual(layer, v, r) <= 1e-10

    def test_zero_input_yields_scalar_bias_path(self):
        layer = fresh(VNInvariant(3, branch=3, hidden=6, out=4), seed=18)
        mlp = layer.mlp
        mlp.b1.value[...] = RNG(18).normal(size=6)
        mlp.b2.value[...] = RNG(19).normal(size=4)
        out = layer.forward(np.zeros((3, 3, 5)), ctx={})
        expected = np.maximum(mlp.b1.value, 0.0) @ mlp.w2.value.T + mlp.b2.value
        np.testing.assert_allclose(out, np.tile(expected, (5, 1)), atol=1e-14)


class TestStacks:
    def test_pool_concat_channels(self):
        v = RNG(20).normal(size=(6, 4, 3))
        out = VNPoolConcat().forward(v.T, ctx={})
        assert out.shape == (3, 8, 6)
        out = out.T
        np.testing.assert_allclose(out[:, 4:], np.tile(v.mean(0), (6, 1, 1)), atol=1e-15)

    def test_random_stack_equivariance(self):
        rng = RNG(21)
        for _ in range(50):
            stack = random_stack(rng)
            v = rng.normal(size=(3, 4, 10))
            r = sample_uniform_rotation(rng).m
            assert equivariance_residual(stack, v, r, train=True) <= 1e-10

    def test_residual_flags_a_componentwise_map(self):
        # max(v, 0) per xyz component depends on the frame
        rng = RNG(22)
        layer = SimpleNamespace(forward=lambda v, train, ctx: np.maximum(v, 0.0))
        v = rng.normal(size=(3, 4, 10))
        r = sample_uniform_rotation(rng).m
        assert equivariance_residual(layer, v, r) > 1e-3

    def test_every_layer_class_builds_the_model(self):
        # a Layer in equipose that no model holds is code only tests reach
        for module in pkgutil.iter_modules(equipose.__path__):
            importlib.import_module(f"equipose.{module.name}")
        defined, pending = set(), [Layer]
        while pending:
            for cls in pending.pop().__subclasses__():
                pending.append(cls)
                if cls.__module__.startswith("equipose."):
                    defined.add(cls)

        def used(layer):
            yield type(layer)
            for _, child in layer.children():
                yield from used(child)

        assert defined <= set(used(PoseModel(ModelConfig(n_classes=4, batch_norm=True))))

    def test_equivariance_report_covers_the_trunk_kit(self):
        # VNPoolConcat -> vn_pool_concat, VNBatchNorm -> vn_batch_norm, ...
        trunk = PoseModel(ModelConfig(n_classes=4, batch_norm=True)).backbone.layers
        kinds = {re.sub(r"(?<!^)(?=[A-Z][a-z])", "_", type(layer).__name__).lower() for layer in trunk}
        assert kinds == {"vn_linear", "vn_batch_norm", "vn_relu", "vn_pool_concat"}
        assert kinds <= set(equivariance_report(trials=1))

    def test_readme_lists_every_report_key(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        paragraph = next(p for p in readme.split("\n\n") if "`check-equivariance` reports" in p)
        assert set(re.findall(r"`(\w+)`", paragraph)) == set(full_report(trials=1))

    def test_sequential_backward_requires_forward(self):
        stack = Sequential([VNLinear(2, 2)])
        with pytest.raises(EquiposeError, match="without a recorded forward"):
            stack.backward(np.zeros((3, 2, 1)))


def vector_list_reference(layer, v, grad, train=False):
    """The layer written with einsum on vector lists (..., N, C, 3),
    independently of the layer's code: (output, input gradient,
    {param name: gradient}). v, grad (in the output's layout) and the
    returned features are component-major; the transposes to and from the
    vector-list layout happen here. VNBatchNorm's running stats are read,
    not moved."""

    def swap(a):  # (..., 3, C, N) <-> (..., N, C, 3)
        return np.swapaxes(a, -1, -3)

    vector_out = not isinstance(layer, VNInvariant)
    out, dv, grads = _vector_list_einsum(layer, swap(v), swap(grad) if vector_out else grad, train)
    return (swap(out) if vector_out else out), swap(dv), grads


def _vector_list_einsum(layer, v, grad, train):
    """vector_list_reference's math on vector lists v and, for vector
    outputs, grad."""
    ein = np.einsum

    def pts(a):  # leading axes folded into the point axis, for weight gradients
        return a.reshape((-1,) + a.shape[-2:])

    def rows(a):
        return a.reshape(-1, a.shape[-1])

    if isinstance(layer, VNLinear):
        w = layer.w.value
        out = ein("oc,...nci->...noi", w, v)
        return out, ein("oc,...noi->...nci", w, grad), {"W": ein("noi,nci->oc", pts(grad), pts(v))}
    if isinstance(layer, VNReLU):
        w, u = layer.w.value, layer.u.value
        q, k = ein("oc,...nci->...noi", w, v), ein("oc,...nci->...noi", u, v)
        s, t = ein("...ni,...ni->...n", q, k), ein("...ni,...ni->...n", k, k)
        m = ((s < 0.0) & (t > K_DEGENERATE_SQ)).astype(float)
        t_safe = np.where(m > 0, t, 1.0)
        out = q - (m * s / t_safe)[..., None] * k
        gk = ein("...ni,...ni->...n", grad, k)
        dq = grad - (m * gk / t_safe)[..., None] * k
        dk = (
            -(m * gk / t_safe)[..., None] * q
            - (m * s / t_safe)[..., None] * grad
            + (m * 2.0 * s * gk / t_safe**2)[..., None] * k
        )
        dv = ein("oc,...noi->...nci", w, dq) + ein("oc,...noi->...nci", u, dk)
        return out, dv, {"W": ein("noi,nci->oc", pts(dq), pts(v)), "U": ein("noi,nci->oc", pts(dk), pts(v))}
    if isinstance(layer, VNPoolConcat):
        n, c = v.shape[-3], v.shape[-2]
        out = np.concatenate([v, np.broadcast_to(v.mean(axis=-3, keepdims=True), v.shape)], axis=-2)
        return out, grad[..., :c, :] + grad[..., c:, :].sum(axis=-3, keepdims=True) / n, {}
    if isinstance(layer, VNBatchNorm):
        norms = np.sqrt(ein("...ci,...ci->...c", v, v))
        axes = tuple(range(norms.ndim - 1))
        count = norms.size // norms.shape[-1]
        if train:
            mu, var = norms.mean(axis=axes), norms.var(axis=axes)
        else:
            mu, var = layer.running_mean.value, layer.running_var.value
        gamma, beta = layer.gamma.value, layer.beta.value
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (norms - mu) * inv
        out_n = gamma * xhat + beta
        out = v * (out_n / norms)[..., None]
        d_scale = ein("...ci,...ci->...c", grad, v)
        d_out_n = d_scale / norms
        d_xhat = d_out_n * gamma
        dn = -d_scale * out_n / norms**2 + d_xhat * inv
        if train:
            d_var = np.sum(d_xhat * (norms - mu), axis=axes) * -0.5 * inv**3
            d_mu = -np.sum(d_xhat * inv, axis=axes)
            dn = dn + d_var * 2.0 * (norms - mu) / count + d_mu / count
        dv = grad * (out_n / norms)[..., None] + (dn / norms)[..., None] * v
        grads = {"gamma": np.sum(d_out_n * xhat, axis=axes), "beta": np.sum(d_out_n, axis=axes)}
        return out, dv, grads
    if isinstance(layer, VNInvariant):
        wa, wb = layer.wa.value, layer.wb.value
        mlp = layer.mlp
        va, vb = ein("ac,...nci->...nai", wa, v), ein("bc,...nci->...nbi", wb, v)
        flat = ein("...nai,...nbi->...nab", va, vb).reshape(va.shape[:-2] + (-1,))
        h = flat @ mlp.w1.value.T + mlp.b1.value
        out = np.maximum(h, 0.0) @ mlp.w2.value.T + mlp.b2.value
        d_h = (grad @ mlp.w2.value) * (h > 0.0)
        d_gram = (d_h @ mlp.w1.value).reshape(va.shape[:-2] + (wa.shape[0], wb.shape[0]))
        d_va, d_vb = ein("...nab,...nbi->...nai", d_gram, vb), ein("...nab,...nai->...nbi", d_gram, va)
        grads = {
            "Wa": ein("nai,nci->ac", pts(d_va), pts(v)),
            "Wb": ein("nbi,nci->bc", pts(d_vb), pts(v)),
            "W1": ein("nh,nf->hf", rows(d_h), rows(flat)),
            "b1": rows(d_h).sum(axis=0),
            "W2": ein("no,nh->oh", rows(grad), rows(np.maximum(h, 0.0))),
            "b2": rows(grad).sum(axis=0),
        }
        return out, ein("ac,...nai->...nci", wa, d_va) + ein("bc,...nbi->...nci", wb, d_vb), grads
    raise TypeError(type(layer).__name__)


class TestLayoutReference:
    """Each component-major layer against vector_list_reference: forward,
    input gradient and every parameter gradient."""

    @pytest.mark.parametrize("shape", [(3, 4, 11), (2, 3, 4, 11)], ids=["cloud", "stacked"])
    @pytest.mark.parametrize(
        "name", ["linear", "relu", "pool_concat", "bn_train", "bn_eval", "invariant"]
    )
    def test_matches_vector_list_reference(self, name, shape):
        rng = RNG(40)
        layer, train = {
            "linear": (VNLinear(4, 5), False),
            "relu": (VNReLU(4, 5), False),
            "pool_concat": (VNPoolConcat(), False),
            "bn_train": (VNBatchNorm(4), True),
            "bn_eval": (VNBatchNorm(4), False),
            "invariant": (VNInvariant(4, 3, hidden=6, out=5), False),
        }[name]
        fresh(layer, seed=41)
        if isinstance(layer, VNBatchNorm):  # away from the unit/zero init
            for p in layer.params():
                p.value[...] = rng.uniform(0.5, 1.5, size=p.value.shape)
        v = rng.normal(size=shape)
        ctx = {}
        out = layer.forward(v, train=train, ctx=ctx)
        grad = rng.normal(size=out.shape)
        layer.zero_grad()
        dv = layer.backward(grad, ctx=ctx)
        ref_out, ref_dv, ref_grads = vector_list_reference(layer, v, grad, train)
        if name == "relu":  # both branches of the gate are taken
            assert 0 < np.sum(ctx["ratio"] != 0.0) < ctx["ratio"].size

        def close(actual, expected, what):
            np.testing.assert_allclose(
                actual, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max(), err_msg=what
            )

        close(out, ref_out, "forward")
        close(dv, ref_dv, "input gradient")
        trainable = [(n, p) for n, p in named_params(layer) if p.trainable]
        assert sorted(n for n, _ in trainable) == sorted(ref_grads)
        for n, p in trainable:
            close(p.grad, ref_grads[n], n)


class TestGradients:
    @pytest.mark.parametrize(
        "name",
        ["linear", "relu", "bn_train", "bn_eval", "pool_concat", "invariant"],
    )
    def test_layer_gradcheck(self, name):
        rng = RNG(24)
        v = rng.normal(size=(3, 4, 6))
        layer, kwargs = {
            "linear": (VNLinear(4, 5), {}),
            "relu": (VNReLU(4, 5), {}),
            "bn_train": (VNBatchNorm(4), {"train": True}),
            "bn_eval": (VNBatchNorm(4), {"train": False}),
            "pool_concat": (VNPoolConcat(), {}),
            "invariant": (VNInvariant(4, 3, hidden=6, out=5), {}),
        }[name]
        fresh(layer, seed=25)
        assert layer_fd_check(layer, v, **kwargs) <= 1e-6

    def test_six_layer_stack_gradcheck(self):
        rng = RNG(26)
        stack = random_stack(rng)
        v = rng.normal(size=(3, 4, 8))
        assert layer_fd_check(stack, v, train=True) <= 1e-5


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        """Every layer of the trunk kit survives the model's parameter
        container: each tensor bit for bit, batch-norm running stats
        included, and the reloaded trunk and invariant give the same output."""
        cfg = ModelConfig(n_classes=2, vn_widths=(3, 4), batch_norm=True, invariant_branch=3,
                          invariant_hidden=6, invariant_out=5)
        model = init_model(cfg, seed=27)
        v = RNG(28).normal(size=(3, 8, 5))
        model.backbone.forward(v, train=True)  # running stats move off their initial values
        path = tmp_path / "params.bin"
        save_model(model, path)
        clone = load_model(path)

        kinds = {type(layer) for layer in model.backbone.layers} | {type(model.invariant)}
        assert kinds == {VNLinear, VNBatchNorm, VNReLU, VNPoolConcat, VNInvariant}
        for part in ("backbone", "invariant"):
            pairs = zip(named_params(getattr(model, part)), named_params(getattr(clone, part)), strict=True)
            for (name_a, pa), (name_b, pb) in pairs:
                assert name_a == name_b
                np.testing.assert_array_equal(pa.value, pb.value)

        def trunk(m):
            return m.invariant.forward(m.backbone.forward(v, ctx={}), ctx={})

        np.testing.assert_array_equal(trunk(model), trunk(clone))


def test_init_statistics():
    layer = VNLinear(64, 256)
    init_layer_params(layer, RNG(31))
    flat = layer.w.value.reshape(-1)
    assert flat.size >= 10_000
    assert abs(flat.var() - 1.0 / 64) <= 0.1 / 64
