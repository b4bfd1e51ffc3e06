"""The four benchmark workloads, the timed closed loop that drives them, and
the metrics derived from it.

One caller in one process runs one op at a time: a training step on the
train workloads, one scene through the eval path on the infer workloads.
The library receives only the inputs generated here from the workload seed.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import statistics
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from common import (
    CHECKPOINT,
    SCENE_RECIPE,
    close_pairs,
    object_family,
    one_to_one_hits,
    pose_is_finite,
)
from equipose import heads, layers, metrics, pipeline, synth
from equipose import model as model_mod
from equipose import train as train_mod
from equipose.geometry import sample_uniform_rotation
from equipose.losses import total_loss
from calibration import WINDOW, SpeedProbe
from tracing import Target, Tracer

SETUP_REPEATS = 3
# Seconds between reference-kernel timings in the timed loop (calibration.py).
PROBE_EVERY_S = 0.25
# Exact counters are taken over this many traced ops at the start of a run,
# so that two runs with one seed count the same inputs whatever their speed.
EXACT_OPS = 8
# Scene seeds of a run start here: far from criterion 8's training
# (10000-10499) and held-out (90000-90099) seeds.
SCENE_SEED0 = 1_000_000
MAX_POOL = 1000
# Two centre bandwidths: same-class instances closer than this may be
# grouped as one (the flat kernel sees both vote clusters).
CLOSE_PAIR_RADIUS = 2 * pipeline.PipelineConfig().center_bandwidth


def scene_seed(seed: int, i: int) -> int:
    return SCENE_SEED0 + MAX_POOL * seed + i


@dataclass
class OpResult:
    samples: int
    ok: bool = True
    loss: float = math.nan
    instances: int = 0
    hits: int = 0
    gated: int = 0  # instances without a close same-class neighbour
    gated_hits: int = 0
    found: int = 0
    dropped: int = 0
    inlier_fractions: list = field(default_factory=list)
    eval_hits: dict = field(default_factory=dict)  # class -> (hits, instances), evaluate_dataset's rule


# workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class TrainWorkload:
    """Criterion 8's training loop (Adam, default loss weights) on a pool of
    SCENE_RECIPE scenes. One op is one optimizer step: zero_grad,
    sample_losses_and_grads per scene of the batch, then opt.step()."""

    batch_norm: bool
    batch_size: int
    pool: int = 64

    def setup(self, seed: int, workdir):
        objects, _ = object_family()
        scenes = [synth.render_scene(objects, SCENE_RECIPE, seed=scene_seed(seed, i)) for i in range(self.pool)]
        model = model_mod.init_model(
            model_mod.ModelConfig(n_classes=4, batch_norm=self.batch_norm), seed=seed
        )
        cfg = train_mod.TrainConfig(batch_size=self.batch_size, seed=seed)
        tensors = [train_mod.scene_tensors(s, model) for s in scenes]
        rng = np.random.default_rng(seed)
        return {
            "model": model,
            "cfg": cfg,
            "opt": train_mod.make_optimizer(model, cfg),
            "rng": rng,
            "batches": self._batches(tensors, rng),
            "scenes": len(scenes),
        }

    def _batches(self, tensors, rng):
        while True:
            order = rng.permutation(len(tensors))
            for start in range(0, len(order), self.batch_size):
                yield [tensors[i] for i in order[start : start + self.batch_size]]

    def op(self, state, index: int) -> OpResult:
        model, cfg = state["model"], state["cfg"]
        batch = next(state["batches"])
        rotation = sample_uniform_rotation(state["rng"])
        model.zero_grad()
        parts = np.zeros(4)
        for t in batch:
            report, _, _ = train_mod.sample_losses_and_grads(
                model, t, cfg, rotation, scale=1.0 / len(batch)
            )
            parts += (report.seg, report.kp, report.center, report.so3)
        loss = total_loss(parts / len(batch), cfg.weights).total
        state["opt"].step()
        return OpResult(samples=len(batch), ok=bool(np.isfinite(loss)), loss=float(loss))

    def check(self, results) -> list:
        """Every loss finite; mean loss over the last tenth of steps below the first tenth's."""
        losses = np.array([r.loss for r in results])
        problems = []
        if not np.all(np.isfinite(losses)):
            problems.append("non-finite training loss")
        tail = max(1, len(losses) // 10)
        if not losses[-tail:].mean() < losses[:tail].mean():
            problems.append(
                f"no descent: last-tenth mean {losses[-tail:].mean():.6g} >= "
                f"first-tenth mean {losses[:tail].mean():.6g}"
            )
        return problems


@dataclass(frozen=True)
class InferWorkload:
    """The `equipose eval` loop over scenes written as ASCII PLY. One op is one
    scene: load_scene, run_pipeline, then ADD/ADD-S scoring (the harness's
    one-to-one matching and evaluate_dataset on that scene).

    The hit-rate gate covers instances with no same-class instance whose
    true centre lies within CLOSE_PAIR_RADIUS; grouping may merge such pairs
    even with oracle heads. The reported hit rate covers every instance.
    """

    n_instances: int
    oracle: bool
    min_hit_rate_pct: float
    pool: int = 40

    def setup(self, seed: int, workdir):
        objects, registry = object_family()
        recipe = dataclasses.replace(SCENE_RECIPE, n_instances=self.n_instances)
        stems = []
        for i in range(self.pool):
            stem = workdir / f"scene_{i:04d}"
            synth.save_scene(stem, synth.render_scene(objects, recipe, seed=scene_seed(seed, i)))
            stems.append(stem)
        model = None if self.oracle else model_mod.load_model(CHECKPOINT)
        return {"model": model, "registry": registry, "stems": stems, "scenes": len(stems)}

    def op(self, state, index: int) -> OpResult:
        registry = state["registry"]
        scene = synth.load_scene(state["stems"][index % len(state["stems"])])
        oracle = (scene.labels, scene.gt_offsets) if self.oracle else None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            detections = pipeline.run_pipeline(scene.cloud, state["model"], registry, oracle=oracle)
        report = metrics.evaluate_dataset([detections], [scene.gt_poses], registry)
        eval_hits = {
            cls: (int(np.sum(m.matched() < 0.1 * report.diameters[cls])), m.n_samples)
            for cls, m in report.per_object.items()
        }
        finite = [d for d in detections if pose_is_finite(d.pose)]
        hit = one_to_one_hits(finite, scene.gt_poses, registry)
        gated = [not close for close in close_pairs(scene.gt_poses, registry, CLOSE_PAIR_RADIUS)]
        return OpResult(
            samples=1,
            ok=len(finite) == len(detections),
            instances=len(hit),
            hits=sum(hit),
            gated=sum(gated),
            gated_hits=sum(h and g for h, g in zip(hit, gated)),
            found=len(detections),
            dropped=sum("dropped" in str(w.message) for w in caught),
            inlier_fractions=[d.inlier_fraction for d in detections],
            eval_hits=eval_hits,
        )

    def check(self, results) -> list:
        gated = sum(r.gated for r in results)
        rate = 100.0 * sum(r.gated_hits for r in results) / gated if gated else 0.0
        if rate < self.min_hit_rate_pct:
            return [
                f"one-to-one hit rate {rate:.2f}% < {self.min_hit_rate_pct}% over "
                f"{gated} instances without a close same-class neighbour"
            ]
        return []


WORKLOADS = {
    # Criterion 8's configuration; trunk, heads, losses and so3_term do the work.
    "train": TrainWorkload(batch_norm=False, batch_size=1),
    # The only workload with VNBatchNorm and multi-scene steps.
    "train-bn-b4": TrainWorkload(batch_norm=True, batch_size=4),
    # Oracle heads, three instances per scene: mean shift, grouping, one-to-one scoring.
    "infer-oracle-x3": InferWorkload(n_instances=3, oracle=True, min_hit_rate_pct=100.0),
    # Network heads from the committed criterion-8 checkpoint: the realistic eval path.
    # Its scenes vary most in cost (learned labels scatter some), so it gets
    # the largest pool of distinct scenes.
    "infer-net": InferWorkload(n_instances=1, oracle=False, min_hit_rate_pct=90.0, pool=96),
}


def hit_rate_pct(results) -> float:
    instances = sum(r.instances for r in results)
    return 100.0 * sum(r.hits for r in results) / instances if instances else 0.0


# the timed loop ---------------------------------------------------------------


@dataclass
class Run:
    """Raw times of a run plus, per set-up and per op, the factor that scales
    them to reference host speed."""

    workload: object
    state: dict = None
    setup_s: list = field(default_factory=list)
    setup_scales: list = field(default_factory=list)
    durations_s: list = field(default_factory=list)
    scales: list = field(default_factory=list)
    results: list = field(default_factory=list)
    traced: list = field(default_factory=list)  # op indices run under the tracer
    tracer: Tracer = None
    exact_ops: int = EXACT_OPS
    errors: list = field(default_factory=list)


def run(workload, seed: int, seconds: float, workdir, trace: bool, exact_ops: int = EXACT_OPS) -> Run:
    """Set up SETUP_REPEATS times, then run ops until `seconds` have passed.

    With trace, ops come in pairs, one traced and one not, in alternating
    order; an infer pair runs the same scene twice. The pairs give the
    tracing overhead; only traced ops feed the per-layer metrics. A traced
    run goes on past `seconds` until it has `exact_ops` traced ops.
    """
    out = Run(workload, tracer=Tracer(trace_targets()) if trace else None, exact_ops=exact_ops)
    tracer, probe = out.tracer, SpeedProbe()
    for r in range(SETUP_REPEATS):
        out.state = None  # release the previous set-up before timing the next
        probe.sample(WINDOW)
        out.setup_scales.append(probe.scale())
        started = time.perf_counter()
        with tracer.op(f"setup-{r}") if trace else nullcontext():
            out.state = workload.setup(seed, workdir)
        out.setup_s.append(time.perf_counter() - started)

    state = out.state
    probe.sample(WINDOW)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or (trace and (i % 2 or len(out.traced) < exact_ops)):
        if time.perf_counter() - probe.last >= PROBE_EVERY_S:
            probe.sample()
        out.scales.append(probe.scale())
        pair = i // 2
        traced = trace and (i % 2 == pair % 2)
        index = pair if trace else i
        if traced:
            out.traced.append(i)
        started = time.perf_counter()
        try:
            with tracer.op(i) if traced else nullcontext():
                result = workload.op(state, index)
        except Exception as err:  # an op that raises counts as failed; the run goes on
            result = OpResult(samples=0, ok=False)
            out.errors.append(f"op {i}: {type(err).__name__}: {err}")
        out.durations_s.append(time.perf_counter() - started)
        out.results.append(result)
        i += 1
    return out


def failed(run_: Run) -> int:
    return sum(not r.ok for r in run_.results)


def problems(run_: Run) -> list:
    found = list(run_.errors[:5])
    if failed(run_):
        found.append(f"{failed(run_)} of {len(run_.results)} ops failed")
    found += run_.workload.check(run_.results)
    return found


# metrics ----------------------------------------------------------------------


def end_to_end(run_: Run, scaled: bool = True) -> dict:
    """(value, unit) per end-to-end metric, from an untraced run; times at
    reference host speed unless scaled is False."""
    op_s = np.array(run_.durations_s) * (np.array(run_.scales) if scaled else 1.0)
    setup_s = np.array(run_.setup_s) * (np.array(run_.setup_scales) if scaled else 1.0)
    ms = op_s * 1e3
    samples = sum(r.samples for r in run_.results)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (float(np.median(setup_s)), "s"),
        "scenes_per_s": (samples / float(op_s.sum()), "scenes/s"),
        "op_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "op_ms_p75": (float(np.percentile(ms, 75)), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


# Per-layer counts that two traced runs with one seed must reproduce bit for bit.
EXACT_COUNTERS = (
    "layers.VNLinear.calls",
    "layers.VNReLU.calls",
    "layers.VNPoolConcat.calls",
    "layers.VNInvariant.calls",
    "layers.VNLinear.computed_mflop",
    "layers.VNReLU.computed_mflop",
    "layers.VNBatchNorm.stat_updates_per_sample",
    "model.backbone_fwd_per_sample",
    "pipeline.mean_shift_modes.calls",
    "pipeline.mean_shift_modes.points",
    "pipeline.mean_shift_modes.modes_per_seed",
    "pipeline.instances_found",
    "pipeline.instances_dropped",
    "geometry.fit_rigid_least_squares.calls",
)
VN_LAYERS = ("VNLinear", "VNReLU", "VNPoolConcat", "VNInvariant", "VNBatchNorm")
HEAD_LAYERS = ("Mlp2", "KpHead", "SegHead", "AppearanceEncoder")


def _gemm_flop(n_gemms: int):
    """Flop count of n channel-mixing GEMMs of the layer on the call's input."""

    def note(args, result):
        layer = args["self"]
        x = args["v"] if "v" in args else args["grad"]
        points = x.size // (3 * x.shape[-2])
        return {"flop": n_gemms * 2 * points * layer.in_channels * layer.out_channels * 3}

    return note


def _mean_shift_note(args, result):
    # seeds are the points strided down to at most max_seeds (mean_shift_modes' rule)
    n = len(args["x"])
    stride = max(1, math.ceil(n / args["max_seeds"]))
    return {"points": n, "seeds": len(range(0, n, stride)), "modes": len(result[0])}


def _stat_update_note(args, result):
    return {"stat_updates": int(bool(args["train"]))}


def trace_targets() -> list:
    notes = {
        ("VNLinear", "forward"): _gemm_flop(1),
        ("VNLinear", "backward"): _gemm_flop(2),
        ("VNReLU", "forward"): _gemm_flop(2),
        ("VNReLU", "backward"): _gemm_flop(4),
        ("VNBatchNorm", "forward"): _stat_update_note,
    }
    out = []
    for module, prefix, names in ((layers, "layers", VN_LAYERS), (heads, "heads", HEAD_LAYERS)):
        for name in names:
            cls = getattr(module, name)
            for method, short in (("forward", "fwd"), ("backward", "bwd")):
                out.append(Target(cls, method, f"{prefix}.{name}.{short}", notes.get((name, method))))
    for method in ("forward", "backward", "so3_term"):
        out.append(Target(model_mod.PoseModel, method, f"model.{method}"))
    out += [
        Target(layers.Sequential, "forward", "model.backbone_fwd"),
        Target(model_mod, "lift_cloud", "model.lift_cloud"),
        Target(train_mod, "focal_loss_grad", "losses.focal_loss_grad"),
        Target(train_mod, "l1_offset_loss_grad", "losses.l1_offset_loss_grad"),
        Target(train_mod, "sample_losses_and_grads", "train.sample_losses_and_grads"),
        Target(train_mod.Adam, "step", "train.optimizer_step"),
        Target(pipeline, "assign_instances", "pipeline.assign_instances"),
        Target(pipeline, "vote_keypoints", "pipeline.vote_keypoints"),
        Target(pipeline, "mean_shift_modes", "pipeline.mean_shift_modes", _mean_shift_note),
        Target(pipeline, "fit_rigid_least_squares", "geometry.fit_rigid_least_squares"),
        Target(metrics, "add", "metrics.add"),
        Target(metrics, "add_s", "metrics.add_s"),
        Target(metrics, "evaluate_dataset", "metrics.evaluate_dataset"),
        Target(synth, "load_scene", "synth.load_scene"),
        Target(synth, "render_scene", "synth.render_scene"),
    ]
    return out


def per_layer(run_: Run) -> dict:
    """(value, unit) per per-layer metric, from a traced run.

    Times are self times in ms per scene (per training sample on the train
    workloads) at reference host speed: the traced ops' share divided by the
    scenes they processed, plus the set-up share divided by the scenes set
    up. The counters in EXACT_COUNTERS use the first `exact_ops` traced ops.
    """
    tracer, results = run_.tracer, run_.results
    traced = set(run_.traced)
    setups = {f"setup-{r}" for r in range(SETUP_REPEATS)}
    samples = max(1, sum(results[i].samples for i in traced))
    setup_scenes = SETUP_REPEATS * run_.state["scenes"]
    op_ns, setup_ns = tracer.self_ns(traced), tracer.self_ns(setups)
    exact = set(sorted(traced)[: run_.exact_ops])
    exact_samples = max(1, sum(results[i].samples for i in exact))
    calls = tracer.calls(exact)

    op_scale, setup_scale = statistics.median(run_.scales), statistics.median(run_.setup_scales)

    def ms(name):
        return (op_scale * op_ns[name] / samples + setup_scale * setup_ns[name] / setup_scenes) / 1e6

    def per_scene(value):
        return value / exact_samples

    out = {}
    for name in VN_LAYERS + HEAD_LAYERS:
        prefix = "layers" if name in VN_LAYERS else "heads"
        out[f"{prefix}.{name}.fwd_ms"] = (ms(f"{prefix}.{name}.fwd"), "ms/scene")
        out[f"{prefix}.{name}.bwd_ms"] = (ms(f"{prefix}.{name}.bwd"), "ms/scene")
    for name in VN_LAYERS[:4]:
        out[f"layers.{name}.calls"] = (per_scene(calls[f"layers.{name}.fwd"]), "calls/scene")
    for name in ("VNLinear", "VNReLU"):
        flop = sum(tracer.note_sum(f"layers.{name}.{d}", "flop", exact) for d in ("fwd", "bwd"))
        out[f"layers.{name}.computed_mflop"] = (per_scene(flop) / 1e6, "Mflop/scene")
    model = run_.state["model"]
    bn_layers = 0 if model is None else sum(isinstance(l, layers.VNBatchNorm) for l in model.backbone.layers)
    updates = tracer.note_sum("layers.VNBatchNorm.fwd", "stat_updates", exact)
    out["layers.VNBatchNorm.stat_updates_per_sample"] = (
        per_scene(updates) / bn_layers if bn_layers else 0.0,
        "count/scene",
    )
    for name in ("forward", "backward", "so3_term", "lift_cloud"):
        out[f"model.{name}.ms"] = (ms(f"model.{name}"), "ms/scene")
    out["model.backbone_fwd_per_sample"] = (per_scene(calls["model.backbone_fwd"]), "count/scene")
    for name in (
        "losses.focal_loss_grad",
        "losses.l1_offset_loss_grad",
        "train.sample_losses_and_grads",
        "train.optimizer_step",
        "pipeline.assign_instances",
        "pipeline.vote_keypoints",
        "pipeline.mean_shift_modes",
        "geometry.fit_rigid_least_squares",
        "metrics.add",
        "metrics.add_s",
        "metrics.evaluate_dataset",
        "synth.load_scene",
        "synth.render_scene",
    ):
        out[f"{name}.ms"] = (ms(name), "ms/scene")
    out["pipeline.mean_shift_modes.calls"] = (per_scene(calls["pipeline.mean_shift_modes"]), "calls/scene")
    out["pipeline.mean_shift_modes.points"] = (
        per_scene(tracer.note_sum("pipeline.mean_shift_modes", "points", exact)),
        "points/scene",
    )
    seeds = tracer.note_sum("pipeline.mean_shift_modes", "seeds", exact)
    modes = tracer.note_sum("pipeline.mean_shift_modes", "modes", exact)
    out["pipeline.mean_shift_modes.modes_per_seed"] = (modes / seeds if seeds else 0.0, "ratio")
    out["pipeline.instances_found"] = (per_scene(sum(results[i].found for i in exact)), "count/scene")
    out["pipeline.instances_dropped"] = (per_scene(sum(results[i].dropped for i in exact)), "count/scene")
    fractions = [f for i in traced for f in results[i].inlier_fractions]
    out["pipeline.inlier_fraction_mean"] = (float(np.mean(fractions)) if fractions else 0.0, "ratio")
    out["geometry.fit_rigid_least_squares.calls"] = (
        per_scene(calls["geometry.fit_rigid_least_squares"]),
        "calls/scene",
    )
    out["metrics.evaluate_dataset.hit_rate_pct"] = (evaluate_dataset_rate(results, traced), "%")
    out["harness.one_to_one_hit_rate_pct"] = (hit_rate_pct([results[i] for i in traced]), "%")
    instances = sum(results[i].instances for i in traced)
    close = instances - sum(results[i].gated for i in traced)
    out["harness.close_pair_instances_pct"] = (100.0 * close / instances if instances else 0.0, "%")
    out["trace.overhead_pct"] = (overhead_pct(run_), "%")
    return out


def evaluate_dataset_rate(results, ops) -> float:
    """evaluate_dataset's mean over classes of per-class hit rates, pooled
    over the given ops (its per-object lists concatenate across scenes)."""
    per_class: dict = {}
    for i in ops:
        for cls, (hits, n) in results[i].eval_hits.items():
            h, t = per_class.get(cls, (0, 0))
            per_class[cls] = (h + hits, t + n)
    if not per_class:
        return 0.0
    return float(np.mean([100.0 * h / t for h, t in per_class.values()]))


def overhead_pct(run_: Run) -> float:
    """Traced over untraced time of the complete pairs, minus one, in percent."""
    traced = set(run_.traced)
    pairs = len(run_.durations_s) // 2
    t = sum(run_.durations_s[i] for i in range(2 * pairs) if i in traced)
    u = sum(run_.durations_s[i] for i in range(2 * pairs) if i not in traced)
    return 100.0 * (t / u - 1.0) if u else 0.0
