"""Tests for initialization, the Adam optimizer, the training loop, and the gradient oracle."""

import copy
import json
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from equipose.checks import TINY_MODEL, tiny_scene
from equipose.errors import InputError, NonFiniteLoss
from equipose.geometry import sample_uniform_rotation
from equipose.heads import KpHead, SegHead
from equipose.layers import (
    BN_MOMENTUM,
    Sequential,
    VNBatchNorm,
    VNInvariant,
    VNLinear,
    init_layer_params,
    named_params,
    rotate_feature,
)
from equipose.losses import FOCAL_ALPHA, FOCAL_GAMMA, focal_loss_grad, l1_offset_loss_grad, total_loss
from equipose.model import ModelConfig, PoseModel, init_model, load_model, save_model
from equipose.synth import SceneConfig, make_default_models, render_scene
from equipose.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    TrainConfig,
    central_differences,
    gradcheck,
    max_relative_error,
    sample_losses_and_grads,
    scene_tensors,
    train,
    train_step,
)
from common import SCENE_RECIPE, TRAIN_SEED0, object_family
from conftest import layer_fd_check

RNG = np.random.default_rng

def small_scenes(n, seed=0):
    models = make_default_models(seed=0, n_vertices=200, n_keypoints=4)
    cfg = SceneConfig(
        noise_sigma=0.002, occlusion=(0.0, 0.3), n_background=15, max_object_points=60
    )
    return [render_scene(models, cfg, seed=seed + i) for i in range(n)]


class TestInit:
    def test_deterministic(self):
        a = init_model(TINY_MODEL, seed=3)
        b = init_model(TINY_MODEL, seed=3)
        for (na, pa), (nb, pb) in zip(named_params(a), named_params(b)):
            assert na == nb
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_weight_variance(self):
        model = init_model(ModelConfig(n_classes=4), seed=4)
        checked = 0
        for name, p in named_params(model):
            if p.value.ndim != 2 or p.value.size < 512:
                continue
            fan_in = p.value.shape[-1]
            assert abs(p.value.var() * fan_in - 1.0) <= 0.15
            checked += p.value.size
        assert checked >= 10_000

    def test_draws_only_the_weight_matrices(self):
        # every 1-D parameter keeps its constructor's value, and only the
        # batch-norm running stats are left out of training
        model = init_model(TINY_MODEL, seed=3)
        built = dict(named_params(PoseModel(TINY_MODEL)))
        for name, p in named_params(model):
            if p.value.ndim == 1:
                np.testing.assert_array_equal(p.value, built[name].value, err_msg=name)
        stats = [name for name in built if name.endswith((".running_mean", ".running_var"))]
        assert stats and [name for name, p in named_params(model) if not p.trainable] == stats

    def test_fresh_network_output_scale(self):
        model = init_model(ModelConfig(n_classes=4), seed=5)
        rng = RNG(6)
        v = rng.normal(size=(3, 8, 64))
        app = rng.normal(size=(64, 5))
        out = model.forward(v, app, ctx={})
        for arr in (out.logits, out.offsets):
            rms = float(np.sqrt(np.mean(arr**2)))
            assert 0.1 <= rms <= 10.0


class TestAdam:
    def test_three_step_hand_trace(self):
        from equipose.layers import Param

        p = Param("w", np.array([1.0]))
        opt = Adam([p], lr=0.1)
        grads = [0.3, -0.2, 0.05]
        # independent trace of the standard update equations
        m = v = 0.0
        x = 1.0
        for t, g in enumerate(grads, start=1):
            p.grad[...] = g
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9**t)
            vh = v / (1 - 0.999**t)
            x = x - 0.1 * mh / (np.sqrt(vh) + 1e-8)
            np.testing.assert_allclose(p.value, [x], rtol=1e-15)

    def test_stat_params_untouched(self):
        model = init_model(TINY_MODEL, seed=7)
        opt = Adam(model.params(), lr=0.1)
        stats = {id(p) for n, p in named_params(model) if n.endswith((".running_mean", ".running_var"))}
        assert stats and {id(p) for p in opt.params} == {id(p) for p in model.params()} - stats


class TestTrainStep:
    def _setup(self):
        model = init_model(TINY_MODEL, seed=12)
        batch = [scene_tensors(s, model) for s in small_scenes(2, seed=50)]
        return model, Adam(model.params(), 1e-3), batch, TrainConfig(), sample_uniform_rotation(RNG(5))

    def test_non_finite_loss_raises_before_the_update(self):
        model, opt, batch, cfg, rotation = self._setup()
        train_step(model, opt, batch, cfg, rotation)
        model.kp_head.mlp.w1.value[0, 0] = np.nan
        before = {n: p.value.copy() for n, p in named_params(model) if p.trainable}
        moments = [m.copy() for m in opt.m + opt.v]
        with pytest.raises(NonFiniteLoss, match="^non-finite loss at step 1: "):
            train_step(model, opt, batch, cfg, rotation)
        assert opt.t == 1
        for n, p in named_params(model):
            if p.trainable:  # running stats move in every train-mode forward
                np.testing.assert_array_equal(p.value, before[n], err_msg=n)
        for m, kept in zip(opt.m + opt.v, moments):
            np.testing.assert_array_equal(m, kept)

    def test_non_finite_parameter_raises_after_the_update(self):
        # the loss is finite, so only the check after opt.step() can see it
        model, opt, batch, cfg, rotation = self._setup()
        opt.lr = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLoss) as raised:
            train_step(model, opt, batch, cfg, rotation)
        assert str(raised.value) == f"non-finite parameter {opt.params[0].name} after step 0"
        assert opt.t == 1 and not np.all(np.isfinite(opt.params[0].value))


class TestTrainLoop:
    def test_zero_learning_rate_keeps_parameters(self):
        scenes = small_scenes(3, seed=10)
        model = init_model(TINY_MODEL, seed=8)
        before = {n: p.value.copy() for n, p in named_params(model)}
        train(scenes, model, TrainConfig(learning_rate=0.0, epochs=1, seed=1))
        for n, p in named_params(model):
            if not p.trainable:
                continue  # running stats move in train mode by design
            np.testing.assert_array_equal(p.value, before[n])

    def test_overfits_single_sample(self):
        scenes = small_scenes(1, seed=20)
        model = init_model(TINY_MODEL, seed=9)
        history = train(scenes, model, TrainConfig(epochs=500, seed=2))
        totals = [r.total for r in history.reports]
        assert totals[-1] <= 0.5 * totals[0]
        assert history.descent_ok

    def test_loss_csv_emitted(self, tmp_path):
        scenes = small_scenes(2, seed=30)
        model = init_model(TINY_MODEL, seed=10)
        csv_path = tmp_path / "loss.csv"
        history = train(scenes, model, TrainConfig(epochs=2, seed=3), csv_path=csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "step,seg,kp,center,so3,total,step_ms,minflt"
        assert len(lines) == len(history.reports) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert abs(float(first[5]) - history.reports[0].total) <= 1e-9

    def test_loss_csv_times_each_step(self, tmp_path):
        csv_path = tmp_path / "loss.csv"
        model = init_model(TINY_MODEL, seed=10)
        history = train(small_scenes(2, seed=30), model, TrainConfig(epochs=2, seed=3), csv_path=csv_path)
        rows = [line.split(",") for line in csv_path.read_text().strip().splitlines()[1:]]
        assert len(rows) == len(history.reports)
        for row, report in zip(rows, history.reports):
            assert ",".join(row[:6]) == report.csv_row(int(row[0]))
            assert float(row[6]) > 0.0
            assert row[7].isdigit()  # a non-negative integer

    def test_deterministic_loss_curve(self):
        scenes = small_scenes(3, seed=40)
        h1 = train(scenes, init_model(TINY_MODEL, seed=11), TrainConfig(epochs=2, seed=4))
        h2 = train(scenes, init_model(TINY_MODEL, seed=11), TrainConfig(epochs=2, seed=4))
        assert [r.total for r in h1.reports] == [r.total for r in h2.reports]

    def test_nan_weight_stops_training_at_the_first_loss(self):
        # a NaN weight makes step 0's loss NaN, before any update;
        # TestTrainStep covers a parameter made non-finite by the update
        scenes = small_scenes(1, seed=50)
        model = init_model(TINY_MODEL, seed=12)
        model.kp_head.mlp.w1.value[0, 0] = np.nan
        with pytest.raises(NonFiniteLoss, match="^non-finite loss at step 0: "):
            train(scenes, model, TrainConfig(epochs=1, seed=5))

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError, match="non-empty dataset"):
            train([], init_model(TINY_MODEL, seed=13), TrainConfig())

    def test_batching_matches_manual_average(self):
        # two samples in one batch: gradient equals the mean of the two
        # single-sample gradients
        scenes = small_scenes(2, seed=60)
        cfg2 = TrainConfig(epochs=1, batch_size=2, seed=6, learning_rate=0.0)
        model = init_model(TINY_MODEL, seed=14)
        from equipose.train import sample_losses_and_grads

        tensors = [scene_tensors(s, model) for s in scenes]
        rot = sample_uniform_rotation(RNG(7))
        model.zero_grad()
        for t in tensors:
            sample_losses_and_grads(model, t, cfg2, rot, scale=0.5)
        batched = {n: p.grad.copy() for n, p in named_params(model)}
        model.zero_grad()
        for t in tensors:
            sample_losses_and_grads(model, t, cfg2, rot, scale=1.0)
        summed = {n: p.grad.copy() for n, p in named_params(model)}
        for n in batched:
            np.testing.assert_allclose(batched[n], 0.5 * summed[n], atol=1e-14)

    def test_lr_decay_applies_per_epoch(self):
        # decay 0 zeroes the learning rate after the first epoch, so a second
        # epoch leaves every trainable parameter where the first left it
        scenes = small_scenes(2, seed=70)
        one, two = init_model(TINY_MODEL, seed=15), init_model(TINY_MODEL, seed=15)
        train(scenes, one, TrainConfig(epochs=1, lr_decay=0.0, seed=8))
        train(scenes, two, TrainConfig(epochs=2, lr_decay=0.0, seed=8))
        for (name, a), (_, b) in zip(named_params(one), named_params(two)):
            if a.trainable:
                np.testing.assert_array_equal(a.value, b.value, err_msg=name)

    def test_schedule_around_train_step(self):
        # train() is a schedule around train_step: one discarded rotation, a
        # permutation per epoch, a rotation per batch slice, the decay per
        # epoch. Six scenes in batches of four leave a partial batch of two
        scenes = small_scenes(6, seed=80)
        cfg = TrainConfig(batch_size=4, epochs=2, lr_decay=0.5, seed=9)
        model = init_model(TINY_MODEL, seed=16)
        history = train(scenes, model, cfg)

        replay = init_model(TINY_MODEL, seed=16)
        tensors = [scene_tensors(s, replay) for s in scenes]
        opt = Adam(replay.params(), cfg.learning_rate)
        rng = RNG(cfg.seed)
        sample_uniform_rotation(rng)
        reports = []
        for _ in range(cfg.epochs):
            order = rng.permutation(len(tensors))
            for batch in (order[:4], order[4:]):
                rotation = sample_uniform_rotation(rng)
                reports.append(train_step(replay, opt, [tensors[i] for i in batch], cfg, rotation))
            opt.lr *= cfg.lr_decay
        assert history.reports == reports
        for (name, a), (_, b) in zip(named_params(model), named_params(replay)):
            assert a.value.tobytes() == b.value.tobytes(), name

    def test_invalid_config(self):
        with pytest.raises(InputError, match="epochs must be at least 1"):
            TrainConfig(epochs=0)
        with pytest.raises(InputError, match="batch size must be at least 1"):
            TrainConfig(batch_size=0)
        with pytest.raises(InputError, match="learning rate must be finite"):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(InputError, match="seed"):  # numpy's generators need seed >= 0
            TrainConfig(seed=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"lr_decay": -0.5},
            {"lr_decay": float("nan")},
            {"lr_decay": float("inf")},
        ],
        ids=["lr_nan", "lr_inf", "decay_negative", "decay_nan", "decay_inf"],
    )
    def test_non_finite_or_negative_rates_rejected(self, kwargs):
        with pytest.raises(InputError, match="must be finite and non-negative"):
            TrainConfig(**kwargs)
        TrainConfig(lr_decay=0.0)  # a zero decay stays valid

    def test_config_json_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "train.json"
        for data, named in (
            ({"epochs": 1, "so3_atach": "kp_path", "learning_rte": 0.1}, "learning_rte, so3_atach"),
            ({"weights": {"so3": 0.5, "rot": 1.0}}, "rot"),
        ):
            path.write_text(json.dumps(data))
            with pytest.raises(InputError, match=f"unknown .* keys: {named}"):
                TrainConfig.from_json(path)
        path.write_text(json.dumps({"epochs": 3, "weights": {"so3": 0.25}}))
        cfg = TrainConfig.from_json(path)
        assert cfg.epochs == 3 and cfg.weights.so3 == 0.25

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        paragraph = next(p for p in readme.split("\n\n") if "Its keys are" in p)
        listed = paragraph.split("Its keys are", 1)[1].split("Any other key", 1)[0]
        assert set(re.findall(r"`(\w+)`", listed)) == {f.name for f in fields(TrainConfig)}

    def test_readme_names_the_published_constants(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        paragraph = next(p for p in readme.split("\n\n") if "The constants are the published ones" in p)
        named = {k: float(v) for k, v in re.findall(r"(β1|β2|ε|γ|α) = (\d+(?:\.\d+)?(?:e-?\d+)?)", paragraph)}
        assert named == {
            "β1": ADAM_BETA1,
            "β2": ADAM_BETA2,
            "ε": ADAM_EPS,
            "γ": FOCAL_GAMMA,
            "α": FOCAL_ALPHA,
        }

    def test_invalid_architecture(self):
        with pytest.raises(InputError, match="n_classes must be at least 1"):
            ModelConfig(n_classes=0)
        with pytest.raises(InputError, match="unknown pool_mode 'sometimes'"):
            ModelConfig(n_classes=4, pool_mode="sometimes")
        with pytest.raises(InputError, match="vn_widths must be positive"):
            ModelConfig(n_classes=4, vn_widths=())
        with pytest.raises(InputError, match="n_classes must be an integer"):
            ModelConfig(n_classes="4")
        with pytest.raises(InputError, match="lift_cap must be a real number"):
            ModelConfig(n_classes=4, lift_cap=True)

    @pytest.mark.parametrize(
        "field",
        ["lift_neighbors", "invariant_branch", "invariant_hidden", "invariant_out", "app_hidden", "app_out", "head_hidden"],
    )
    def test_layer_size_below_one(self, field):
        with pytest.raises(InputError, match=f"{field} must be at least 1, got 0"):
            ModelConfig(n_classes=4, **{field: 0})

    @pytest.mark.parametrize("scale", [0.0, -60.0])
    def test_lift_scale_not_positive(self, scale):
        with pytest.raises(InputError, match="lift_scales must be finite and positive"):
            ModelConfig(n_classes=4, lift_scales=(10.0, scale, 240.0, 600.0, 6000.0))


def stacked_pair_reference(model, t, cfg, rotation):
    """The trunk run on the stacked pair (v, v rotated by R): every layer
    sees both halves and the input gradient folds as
    dv[0] + rotate_feature(dv[1], R^T). Returns
    (LossReport, parameter gradients, d v, d app_in)."""
    w, n_kp, ctx = cfg.weights, model.cfg.n_keypoints, {}
    model.zero_grad()
    v = np.stack([t.v, rotate_feature(t.v, rotation.m)])
    out = model.forward(v, np.broadcast_to(t.app_in, (2,) + t.app_in.shape), train=True, ctx=ctx)
    seg_value, d_seg = focal_loss_grad(out.logits[0], t.labels)
    offsets = out.offsets[0]
    kp_value, d_kp = l1_offset_loss_grad(offsets[:, :n_kp], t.gt_offsets[:, :n_kp], t.fg_mask)
    center_value, d_center = l1_offset_loss_grad(offsets[:, n_kp:], t.gt_offsets[:, n_kp:], t.fg_mask)
    so3_value, d_offsets = model.so3_term(out.offsets, rotation, weight=w.so3)
    d_offsets[0] += np.concatenate([w.kp * d_kp, w.center * d_center], axis=1)
    d_logits = np.zeros_like(out.logits)
    d_logits[0] = w.seg * d_seg
    dv, d_app = model.backward(d_logits, d_offsets, ctx=ctx)
    report = total_loss((seg_value, kp_value, center_value, so3_value), w)
    grads = {n: p.grad.copy() for n, p in named_params(model) if p.trainable}
    return report, grads, dv[0] + rotate_feature(dv[1], rotation.m.T), d_app[0] + d_app[1]


class DenseKpHead(KpHead):
    """The keypoint head on the full trunk output (..., 3, C, N), its pooled
    channels at every point, with the appearance features copied to every
    cloud: one concatenated first-layer input per point."""

    @classmethod
    def sharing(cls, head):
        dense = cls(head.n_channels, 0, 1, head.n_keypoints)
        dense.mlp = head.mlp  # the same parameters, not a copy
        return dense

    def forward(self, equi, appearance, train=False, ctx=None):
        lead, n = equi.shape[:-3], equi.shape[-1]
        rows = np.swapaxes(equi, -1, -3).reshape(lead + (n, 3 * self.n_channels))
        app = np.broadcast_to(appearance, lead + appearance.shape[-2:])
        cache = self._new_cache(ctx)
        cache.update(mlp={}, app_shape=appearance.shape)
        out = self.mlp.forward(np.concatenate([rows, app], axis=-1), train=train, ctx=cache["mlp"])
        return out.reshape(out.shape[:-1] + (self.n_keypoints + 1, 3))

    def backward(self, grad, ctx=None):
        """Returns (d equi, d appearance), each the shape of its input."""
        cache = self._get_cache(ctx)
        (d_fused,) = self.mlp.backward(grad.reshape(grad.shape[:-2] + (-1,)), ctx=cache["mlp"])
        c = self.n_channels
        d_equi = np.swapaxes(d_fused[..., : 3 * c].reshape(d_fused.shape[:-1] + (c, 3)), -1, -3)
        d_app = d_fused[..., 3 * c :]
        return d_equi, d_app.sum(axis=tuple(range(d_app.ndim - len(cache["app_shape"]))))


def hand_folded_reference(model, t, cfg, rotation):
    """The sample's losses and gradients from the model's parts, without
    PoseModel.forward/backward: the backbone on the stacked pair (v, v
    rotated by R), the invariant branch, appearance encoder and segmentation
    head on the straight half, and DenseKpHead on the whole trunk output of
    both halves. The gradients fold by hand: the invariant branch's onto the
    straight half, the input's as dv[0] + rotate_feature(dv[1], R^T).
    Returns (LossReport, parameter gradients, d v, d app_in)."""
    w, n_kp = cfg.weights, model.cfg.n_keypoints
    kp_head = DenseKpHead.sharing(model.kp_head)
    ctx = {part: {} for part in ("backbone", "invariant", "appearance", "seg", "kp")}
    model.zero_grad()
    v = np.stack([t.v, rotate_feature(t.v, rotation.m)])
    equi = model.backbone.forward(v, train=True, ctx=ctx["backbone"])
    inv = model.invariant.forward(equi[0], train=True, ctx=ctx["invariant"])
    app = model.appearance.forward(t.app_in, train=True, ctx=ctx["appearance"])
    logits = model.seg_head.forward(inv, app, train=True, ctx=ctx["seg"])
    offsets = kp_head.forward(equi, app, train=True, ctx=ctx["kp"])
    seg_value, d_seg = focal_loss_grad(logits, t.labels)
    kp_value, d_kp = l1_offset_loss_grad(offsets[0, :, :n_kp], t.gt_offsets[:, :n_kp], t.fg_mask)
    center_value, d_center = l1_offset_loss_grad(offsets[0, :, n_kp:], t.gt_offsets[:, n_kp:], t.fg_mask)
    so3_value, d_offsets = model.so3_term(offsets, rotation, weight=w.so3)
    d_offsets[0] += np.concatenate([w.kp * d_kp, w.center * d_center], axis=1)
    d_equi, d_app_kp = kp_head.backward(d_offsets, ctx=ctx["kp"])
    d_inv, d_app_seg = model.seg_head.backward(w.seg * d_seg, ctx=ctx["seg"])
    d_equi[0] += model.invariant.backward(d_inv, ctx=ctx["invariant"])
    dv = model.backbone.backward(d_equi, ctx=ctx["backbone"])
    d_app = model.appearance.backward(d_app_seg + d_app_kp, ctx=ctx["appearance"])
    report = total_loss((seg_value, kp_value, center_value, so3_value), w)
    grads = {n: p.grad.copy() for n, p in named_params(model) if p.trainable}
    return report, grads, dv[0] + rotate_feature(dv[1], rotation.m.T), d_app


def assert_matches_the_stacked_pair(model, reference, t, cfg, rotation):
    """sample_losses_and_grads on `model` against `reference`, one of the
    stacked-pair references above, run on a copy of `model`: losses to 1e-12
    relative, the input and parameter gradients to 1e-10 of each one's
    largest entry."""
    ref_report, ref_grads, ref_dv, ref_dapp = reference(copy.deepcopy(model), t, cfg, rotation)
    model.zero_grad()
    report, dv, d_app = sample_losses_and_grads(model, t, cfg, rotation)
    for name in ("seg", "kp", "center", "so3", "total"):
        np.testing.assert_allclose(getattr(report, name), getattr(ref_report, name), rtol=1e-12, atol=0.0)
    grads = {n: p.grad for n, p in named_params(model) if p.trainable}
    grads["input.v"], grads["input.app"] = dv, d_app
    ref_grads["input.v"], ref_grads["input.app"] = ref_dv, ref_dapp
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        np.testing.assert_allclose(grads[name], ref, rtol=0.0, atol=1e-10 * np.abs(ref).max(), err_msg=name)


class TestOnePassPerSample:
    def test_one_forward_and_backward_of_the_pair(self, monkeypatch):
        model = init_model(TINY_MODEL, seed=3)
        t = scene_tensors(tiny_scene(0, 8), model)
        calls = []
        for cls, method in (
            (PoseModel, "forward"),
            (PoseModel, "backward"),
            (Sequential, "forward"),
            (VNInvariant, "forward"),
            (SegHead, "forward"),
        ):
            original = getattr(cls, method)

            def spy(self, *args, _original=original, _name=f"{cls.__name__}.{method}", **kwargs):
                calls.append((_name, np.shape(args[0])))
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, spy)
        sample_losses_and_grads(model, t, TrainConfig(), sample_uniform_rotation(RNG(0)))
        n = t.v.shape[-1]
        assert calls == [
            ("PoseModel.forward", (3, 8, n)),
            ("Sequential.forward", (3, 8, n)),
            ("VNInvariant.forward", (3, model.trunk_channels, n)),
            ("SegHead.forward", (n, TINY_MODEL.invariant_out)),
            ("PoseModel.backward", (n, 4)),
        ]

    @pytest.mark.parametrize("batch_norm", [False, True])
    def test_matches_the_stacked_pair(self, batch_norm):
        cfg = TrainConfig()
        model = init_model(replace(TINY_MODEL, batch_norm=batch_norm), seed=3)
        t = scene_tensors(small_scenes(1, seed=70)[0], model)
        rng = RNG(5)
        for _ in range(3):
            assert_matches_the_stacked_pair(model, stacked_pair_reference, t, cfg, sample_uniform_rotation(rng))

    @pytest.mark.parametrize("batch_norm", [False, True])
    def test_matches_the_dense_first_layer(self, batch_norm):
        # the keypoint head's blocks and PoseModel's slicing and folding of the
        # trunk output against the model's parts folded by hand, with one
        # concatenated first-layer input per point
        cfg = TrainConfig()
        model = init_model(ModelConfig(n_classes=4, batch_norm=batch_norm), seed=1)
        object_models, _ = object_family()
        rng = RNG(6)
        for i in range(3):
            t = scene_tensors(render_scene(object_models, SCENE_RECIPE, seed=TRAIN_SEED0 + i), model)
            assert_matches_the_stacked_pair(model, hand_folded_reference, t, cfg, sample_uniform_rotation(rng))

    def test_running_stats_move_once_per_sample(self):
        model = init_model(TINY_MODEL, seed=3)
        t = scene_tensors(tiny_scene(0, 8), model)
        reference, ctx = copy.deepcopy(model), {}
        reference.forward(t.v, t.app_in, train=True, ctx=ctx)
        sample_losses_and_grads(model, t, TrainConfig(), sample_uniform_rotation(RNG(0)))
        checked = 0
        for i, layer in enumerate(model.backbone.layers):
            if isinstance(layer, VNBatchNorm):
                norms = ctx["backbone"][i]["n"]  # (C, N)
                m = BN_MOMENTUM
                np.testing.assert_allclose(
                    layer.running_mean.value, m * norms.mean(axis=1), rtol=1e-12, atol=0.0
                )
                # initial running variance 1; the update uses the N-point unbiased variance
                np.testing.assert_allclose(
                    layer.running_var.value,
                    (1.0 - m) + m * norms.var(axis=1, ddof=1),
                    rtol=1e-12,
                    atol=0.0,
                )
                checked += 1
        assert checked == len(TINY_MODEL.vn_widths)

    def test_so3_term_gradient(self):
        # generic offsets keep every |.| entry away from its kink at this step
        model = init_model(TINY_MODEL, seed=3)
        rng = RNG(4)
        offsets = rng.normal(size=(2, 7, 5, 3))
        rotation = sample_uniform_rotation(rng)
        value, d = model.so3_term(offsets, rotation, weight=0.5)
        num = central_differences(lambda: 0.5 * model.so3_term(offsets, rotation)[0], offsets, 1e-6)
        assert value > 0.0
        np.testing.assert_allclose(d, num, rtol=1e-6, atol=1e-9)
        assert model.so3_term(np.stack([offsets[0], offsets[0] @ rotation.m]), rotation)[0] <= 1e-15


class TestGradcheck:
    def test_linear_only_network_is_exact(self):
        stack = Sequential([VNLinear(3, 5), VNLinear(5, 4)])
        init_layer_params(stack, RNG(15))
        v = RNG(16).normal(size=(3, 3, 6))
        assert layer_fd_check(stack, v, step=1e-5) <= 1e-7

    def test_full_kit_within_tolerance(self):
        # generic draw: every |.|-loss entry sits away from its kink, so the
        # central differences are in their linear regime at this step
        model = init_model(TINY_MODEL, seed=3)
        t = scene_tensors(tiny_scene(0, 8), model)
        rotation = sample_uniform_rotation(RNG(0))
        err = gradcheck(model, t, TrainConfig(seed=0), rotation, step=1e-5)
        assert err <= 1e-4

    def test_corrupted_gradient_flagged(self):
        # a backward that doubles the largest entry of the keypoint head's W2 gradient
        model = init_model(TINY_MODEL, seed=3)
        t = scene_tensors(tiny_scene(0, 8), model)
        mlp = model.kp_head.mlp
        backward = mlp.backward

        def doubled(grad, ctx=None):
            d_blocks = backward(grad, ctx=ctx)
            g = mlp.w2.grad
            g[np.unravel_index(np.argmax(np.abs(g)), g.shape)] *= 2.0
            return d_blocks

        mlp.backward = doubled
        assert gradcheck(model, t, TrainConfig(seed=0), sample_uniform_rotation(RNG(0)), step=1e-5) > 0.3

    def test_running_stats_left_alone(self):
        model = init_model(TINY_MODEL, seed=3)
        t = scene_tensors(tiny_scene(0, 8), model)
        before = {n: p.value.copy() for n, p in named_params(model) if not p.trainable}
        assert before
        gradcheck(model, t, TrainConfig(seed=0), sample_uniform_rotation(RNG(0)), step=1e-5)
        for n, p in named_params(model):
            if not p.trainable:
                np.testing.assert_array_equal(p.value, before[n])

    def test_rejects_bad_step(self):
        model = init_model(TINY_MODEL, seed=3)
        t = scene_tensors(tiny_scene(0, 8), model)
        with pytest.raises(InputError, match="finite-difference step"):
            gradcheck(model, t, TrainConfig(seed=0), sample_uniform_rotation(RNG(1)), step=0.0)

    @pytest.mark.parametrize("step", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_rejects_non_finite_step(self, step):
        model = init_model(TINY_MODEL, seed=3)
        t = scene_tensors(tiny_scene(0, 8), model)
        with pytest.raises(InputError, match="finite-difference step"):
            gradcheck(model, t, TrainConfig(seed=0), sample_uniform_rotation(RNG(1)), step=step)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_entry_is_infinite_error(self, bad):
        good = {"a": np.array([1.0, 2.0]), "b": np.array([3.0])}
        broken = {"a": np.array([1.0, bad]), "b": np.array([3.0])}
        assert max_relative_error(good, good) == 0.0
        assert max_relative_error(broken, good) == float("inf")
        assert max_relative_error(good, broken) == float("inf")


def test_model_save_load_roundtrip(tmp_path):
    model = init_model(TINY_MODEL, seed=17)
    rng = RNG(18)
    v = rng.normal(size=(3, 8, 10))
    app = rng.normal(size=(10, 5))
    model.forward(v, app, train=True)  # running stats move off their initial values
    path = tmp_path / "params.bin"
    save_model(model, path)
    clone = load_model(path)
    assert clone.cfg == model.cfg
    for (name_a, pa), (name_b, pb) in zip(named_params(model), named_params(clone), strict=True):
        assert name_a == name_b
        np.testing.assert_array_equal(pa.value, pb.value)
    a = model.forward(v, app, ctx={})
    b = clone.forward(v, app, ctx={})
    np.testing.assert_array_equal(a.logits, b.logits)
    np.testing.assert_array_equal(a.offsets, b.offsets)


def test_manifest_is_little_endian_f8(tmp_path):
    path = tmp_path / "params.bin"
    save_model(init_model(TINY_MODEL, seed=19), path)
    manifest = json.loads((tmp_path / "params.bin.json").read_text())
    assert list(manifest) == ["tensors", "model_config"]
    assert ModelConfig.from_dict(manifest["model_config"]) == TINY_MODEL
    first, second = manifest["tensors"][:2]
    assert first == {"name": "backbone.0.W", "shape": [3, 8], "offset": 0, "dtype": "<f8"}
    assert second["offset"] == 3 * 8 * 8


def test_missing_parameter_rejected(tmp_path):
    path = tmp_path / "params.bin"
    save_model(init_model(TINY_MODEL, seed=20), path)
    manifest_path = tmp_path / "params.bin.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["tensors"].pop()
    manifest_path.write_text(json.dumps(manifest))
    message = f"malformed {manifest_path}: ValueError: tensor kp.mlp.b2: the container has none"
    with pytest.raises(InputError, match=re.escape(message)):
        load_model(path)
