"""Full network assembly: point-cloud lift, equivariant trunk, invariant
conversion, appearance encoder, and the two fusion heads, with an analytic
backward pass through the whole graph."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import InputError, check_field_types
from .files import parsing, read_json, write_atomic, write_json
from .geometry import Rotation
from .heads import AppearanceEncoder, KpHead, SegHead, appearance_input
from .layers import (
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

LIFT_CHANNELS = 8
# The lift's neighbour search builds one exact (N, N) distance matrix up to
# this many points and queries a KD-tree above it. At k = 65 on acceptance
# SCENE_RECIPE scenes (min of 3 x 5 repeats, 2 vCPUs, one BLAS thread) the
# matrix took 1.55 against the tree's 3.38 ms at 448 points, 4.93 against 7.56
# at 864, and 6.83 against 9.86 on 1,000 points drawn from such scenes; the two
# meet near 1,400 points. The matrix's N^2 time and 8 N^2 bytes lose badly
# beyond that: it was 6x slower than the tree at 12,000 points.
DENSE_NEIGHBOURS_MAX_POINTS = 1000


@dataclass(frozen=True)
class ModelConfig:
    n_classes: int
    n_keypoints: int = 8
    lift_neighbors: int = 16
    lift_scales: tuple = (10.0, 60.0, 240.0, 600.0, 6000.0)
    lift_cap: float = 2.0
    vn_widths: tuple = (16, 32, 32)
    batch_norm: bool = False
    pool_mode: str = "every"  # the only value; the checkpoint manifest still lists the field
    invariant_branch: int = 8
    invariant_hidden: int = 64
    invariant_out: int = 64
    app_hidden: int = 32
    app_out: int = 32
    head_hidden: int = 128

    def __post_init__(self):
        check_field_types(self)
        sizes = ("n_classes", "n_keypoints", "lift_neighbors", "invariant_branch", "invariant_hidden",
                 "invariant_out", "app_hidden", "app_out", "head_hidden")
        for name in sizes:
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.pool_mode != "every":
            raise InputError(f"unknown pool_mode {self.pool_mode!r}")
        if len(self.lift_scales) != LIFT_CHANNELS - 3:
            raise InputError(f"lift_scales must have {LIFT_CHANNELS - 3} entries")
        if not (np.all(np.isfinite(self.lift_scales)) and min(self.lift_scales) > 0.0):
            raise InputError(f"lift_scales must be finite and positive, got {self.lift_scales}")
        if not (np.isfinite(self.lift_cap) and self.lift_cap > 0.0):
            raise InputError(f"lift_cap must be finite and positive, got {self.lift_cap}")
        if not self.vn_widths or any(w < 1 for w in self.vn_widths):
            raise InputError("vn_widths must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["lift_scales"] = tuple(d["lift_scales"])
        d["vn_widths"] = tuple(d["vn_widths"])
        return cls(**d)


def _neighbour_mean(points: np.ndarray, neighbours: np.ndarray) -> np.ndarray:
    """points[neighbours].mean(axis=1) without the (N, k, 3) gather: one
    product with the 0/1 CSR matrix whose row i holds neighbours[i] in order.
    The product adds a row's entries in stored order, as the mean adds its
    axis, so the two agree bit for bit."""
    n, k = neighbours.shape
    indptr = np.arange(0, n * k + 1, k)
    rows = csr_array((np.ones(n * k), neighbours.ravel(), indptr), shape=(n, len(points)))
    return (rows @ points) / k


def _nearest(points: np.ndarray, k: int) -> np.ndarray:
    """(N, k) indices of each point's k nearest points, itself included,
    nearest first: cKDTree(points).query(points, k)[1], found for a cloud of
    at most DENSE_NEIGHBOURS_MAX_POINTS points from one distance matrix."""
    if len(points) > DENSE_NEIGHBOURS_MAX_POINTS:
        return cKDTree(points).query(points, k)[1]
    d = cdist(points, points, "sqeuclidean")
    idx = np.argpartition(d, k - 1, axis=1)[:, :k]
    order = np.argsort(np.take_along_axis(d, idx, axis=1), axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1)


def lift_cloud(points: np.ndarray, attributes, neighbors: int, scales, cap: float) -> np.ndarray:
    """Per-point equivariant input channels, a contiguous component-major
    feature of shape (3, 8, N).

    Geometry channels: position centered on the cloud mean, mean edge vectors
    to the nearest k and 4k neighbours (two scales of local geometry), and two
    cross products tying them together. One search finds both neighbour sets:
    an exact distance matrix for a cloud of at most
    DENSE_NEIGHBOURS_MAX_POINTS points, a KD-tree query for a larger one; both
    list the neighbours nearest first, and the means add them in that order.
    Color channels: the centered direction scaled by each (color - 1/2);
    rotation-invariant scalars riding on an equivariant direction, which lets
    the trunk's invariant gates read appearance without breaking
    equivariance. Channel norms saturate at `cap`
    (direction kept; the rescale reads only the rotation-invariant norm) so
    far-flung clutter cannot dominate pooled statistics. neighbors must stay
    well below N: once the neighbour set is every other point, the edge
    channels collapse onto the centered one and the per-point frame
    degenerates.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = points.shape[0]
    if n == 0:
        return np.zeros((3, LIFT_CHANNELS, 0))
    centered = points - points.mean(axis=0)
    k_near = min(neighbors, n - 1)
    k_far = min(4 * neighbors, n - 1)
    if k_near >= 1:
        idx = _nearest(points, k_far + 1)
        edge_near = _neighbour_mean(points, idx[:, 1 : k_near + 1]) - points
        edge_far = _neighbour_mean(points, idx[:, 1:]) - points
    else:
        edge_near = np.zeros_like(points)
        edge_far = np.zeros_like(points)
    radial = centered / np.maximum(np.linalg.norm(centered, axis=1, keepdims=True), 1e-12)
    tint = np.asarray(attributes, dtype=np.float64) - 0.5
    v = np.stack(
        [
            scales[0] * centered,
            scales[1] * edge_far,
            scales[2] * edge_near,
            scales[3] * np.cross(centered, edge_far),
            scales[4] * np.cross(edge_far, edge_near),
            2.0 * tint[:, 0:1] * radial,
            2.0 * tint[:, 1:2] * radial,
            2.0 * tint[:, 2:3] * radial,
        ],
        axis=1,
    )
    v = np.ascontiguousarray(v.T)  # (N, 8, 3) -> (3, 8, N)
    norms = np.linalg.norm(v, axis=0)
    return v * np.minimum(1.0, cap / np.maximum(norms, 1e-30))


@dataclass
class ModelOutputs:
    logits: np.ndarray  # (..., N, K)
    offsets: np.ndarray  # (..., N, M + 1, 3); (2, ..., N, M + 1, 3) with a rotation


class PoseModel(Layer):
    """Trunk of alternating channel-mix (VNLinear) and direction-gated
    truncation (VNReLU) blocks, optional norm layers, and after each block a
    pooled global channel concatenated back per point; heads fan out from the
    trunk output.
    """

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        blocks = []
        c = LIFT_CHANNELS
        for width in cfg.vn_widths:
            blocks.append(VNLinear(c, width))
            if cfg.batch_norm:
                blocks.append(VNBatchNorm(width))
            blocks += [VNReLU(width, width), VNPoolConcat()]
            c = 2 * width
        self.trunk_channels = c
        self.backbone = Sequential(blocks)
        self.invariant = VNInvariant(c, cfg.invariant_branch, cfg.invariant_hidden, cfg.invariant_out)
        self.appearance = AppearanceEncoder(cfg.app_hidden, cfg.app_out)
        self.seg_head = SegHead(cfg.invariant_out, cfg.app_out, cfg.head_hidden, cfg.n_classes)
        self.kp_head = KpHead(c, cfg.app_out, cfg.head_hidden, cfg.n_keypoints)

    def children(self):
        return [
            ("backbone", self.backbone),
            ("invariant", self.invariant),
            ("appearance", self.appearance),
            ("seg", self.seg_head),
            ("kp", self.kp_head),
        ]

    def inputs(self, cloud) -> tuple:
        """forward's (v, app_in) for a cloud: the one place the lift meets the appearance rows."""
        cfg = self.cfg
        v = lift_cloud(cloud.points, cloud.attributes, cfg.lift_neighbors, cfg.lift_scales, cfg.lift_cap)
        return v, appearance_input(cloud)

    def forward(self, v, app_in, train=False, ctx=None, rotation: Rotation = None) -> ModelOutputs:
        """v: lifted feature, component-major (..., 3, 8, N); app_in:
        (..., N, 5) appearance inputs. Leading axes stack clouds: pooling
        stays per cloud, batch-norm statistics span every cloud.

        The trunk ends in VNPoolConcat, so the second half of its channels is
        one mean per cloud broadcast to every point: the keypoint head reads
        the first half per point and the second at point 0 only.

        With a rotation R, the keypoint head also sees the rotated cloud: it
        runs on the pair (equi, rotate_feature(equi, R)), which equals the
        trunk's output on the rotated input because every trunk layer is
        exactly equivariant, so the trunk, invariant branch and segmentation
        head run once, and the appearance features, which rotation does not
        change, reach the head once for both halves. offsets then gains a
        leading pair axis, (2, ..., N, M + 1, 3)."""
        v = np.ascontiguousarray(v, dtype=np.float64)
        app_in = np.ascontiguousarray(app_in, dtype=np.float64)
        cache = self._new_cache(ctx)
        for key in ("backbone", "invariant", "appearance", "seg", "kp"):
            cache[key] = {}
        equi = self.backbone.forward(v, train=train, ctx=cache["backbone"])
        inv = self.invariant.forward(equi, train=train, ctx=cache["invariant"])
        app = self.appearance.forward(app_in, train=train, ctx=cache["appearance"])
        logits = self.seg_head.forward(inv, app, train=train, ctx=cache["seg"])
        half = self.trunk_channels // 2
        local, pooled = equi[..., :half, :], equi[..., half:, :1]
        if rotation is not None:
            cache["rotation"] = rotation.m
            pair = np.stack([np.eye(3), rotation.m])
            local, pooled = rotate_feature(local, pair), rotate_feature(pooled, pair)
        offsets = self.kp_head.forward(local, pooled, app, train=train, ctx=cache["kp"])
        return ModelOutputs(logits, offsets)

    def backward(self, d_logits, d_offsets, ctx=None):
        """Returns (d v, d app_in), d v component-major like v, and
        accumulates parameter gradients. After a forward with a rotation,
        d_offsets carries the pair axis and the rotated half's gradient folds
        back onto the trunk output through rotate_feature(., R^T). The pooled
        half's gradient lands on point 0, as VNPoolConcat.backward sums the
        pooled channels over points anyway."""
        cache = self._get_cache(ctx)
        d_inv, d_app_seg = self.seg_head.backward(d_logits, ctx=cache["seg"])
        d_local, d_pooled, d_app_kp = self.kp_head.backward(d_offsets, ctx=cache["kp"])
        if "rotation" in cache:
            r_t = cache["rotation"].T
            d_local = d_local[0] + rotate_feature(d_local[1], r_t)
            d_pooled = d_pooled[0] + rotate_feature(d_pooled[1], r_t)
        d_equi = self.invariant.backward(d_inv, ctx=cache["invariant"])
        half = self.trunk_channels // 2
        d_equi[..., :half, :] += d_local
        d_equi[..., half:, :1] += d_pooled
        dv = self.backbone.backward(d_equi, ctx=cache["backbone"])
        d_app_in = self.appearance.backward(d_app_seg + d_app_kp, ctx=cache["appearance"])
        return dv, d_app_in

    def so3_term(self, offsets, rotation: Rotation, weight: float = 1.0):
        """Rotation-consistency penalty mean |o - o_R @ R^T| between the
        keypoint offsets o of the cloud and o_R of the rotated cloud: the
        pair from forward(..., rotation=R), shape (2, N, M + 1, 3). Offsets
        are xyz-last like points, so R acts on them by a plain @.
        Returns (value, weighted d value / d offsets) for the pair."""
        r = rotation.m
        diff = offsets[0] - offsets[1] @ r.T
        g = weight * np.sign(diff) / diff.size
        return float(np.mean(np.abs(diff))), np.stack([g, -(g @ r)])


def init_model(cfg: ModelConfig, seed: int) -> PoseModel:
    return init_layer_params(PoseModel(cfg), np.random.default_rng(seed))


def save_model(model: PoseModel, path) -> None:
    """The parameter container: a flat little-endian float64 blob at `path`,
    and at `path`.json a manifest {"tensors": [{name, shape, offset, dtype}],
    "model_config": {...}}. Each file is written once."""
    tensors, payload, offset = [], [], 0
    for name, p in named_params(model):
        arr = np.ascontiguousarray(p.value, dtype="<f8")
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset, "dtype": "<f8"})
        payload.append(arr.tobytes())
        offset += arr.nbytes
    write_atomic(path, b"".join(payload))
    write_json(str(path) + ".json", {"tensors": tensors, "model_config": asdict(model.cfg)})


def load_model(path) -> PoseModel:
    """Build the model the manifest's config describes and fill its
    parameters by name from the blob. A manifest whose tensors are not
    exactly that model's parameters, name for name and shape for shape, is
    an InputError naming the manifest; a blob too short for them or holding
    a non-finite value, one naming the blob."""
    with read_json(str(path) + ".json") as manifest:
        model = PoseModel(ModelConfig.from_dict(manifest["model_config"]))
        params = dict(named_params(model))
        shapes = {t["name"]: tuple(t["shape"]) for t in manifest["tensors"]}
        for name, p in params.items():
            if shapes.get(name) != p.value.shape:
                raise ValueError(
                    f"tensor {name}: the container has {shapes.get(name, 'none')}, "
                    f"model_config builds {p.value.shape}"
                )
        if len(manifest["tensors"]) != len(params):
            raise ValueError(
                f"the container has {len(manifest['tensors'])} tensors, model_config builds {len(params)}"
            )
        with parsing(path), open(path, "rb") as f:
            blob = f.read()
            for t in manifest["tensors"]:
                p = params[t["name"]]
                values = np.frombuffer(blob, dtype=t["dtype"], count=p.value.size, offset=t["offset"])
                p.value[...] = values.reshape(p.value.shape)
                if not np.isfinite(p.value).all():
                    raise ValueError(f"tensor {t['name']} has a non-finite value")
    return model
