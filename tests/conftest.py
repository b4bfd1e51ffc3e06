"""Shared helpers: a finite-difference gradient check for single layers, the
output pair of a layer stack in the form PoseModel.so3_term takes, the
brute-force ADD-S reference, the gather-formula lift reference, the SE(3)
reference helpers (composition, geodesic angle, pose file reader), and an
editor of binary PLY files."""

from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

import equipose
from equipose.files import read_json
from equipose.geometry import RigidTransform, Rotation, pose_from_dict
from equipose.layers import named_params, rotate_feature
from equipose.metrics import BLOCK_ROWS
from equipose.model import LIFT_CHANNELS
from equipose.train import central_differences, max_relative_error

# The tests exercise the checkout: pyproject.toml puts <root>/src first on
# sys.path, and an equipose imported from anywhere else ends the session.
SRC = Path(__file__).resolve().parent.parent / "src"
if Path(equipose.__file__).resolve().parent != SRC / "equipose":
    pytest.exit(f"tests: imported equipose from {equipose.__file__}, not {SRC}", returncode=4)


def layer_fd_check(layer, x, train=False, step=1e-6, seed=99):
    """Max relative error between analytic and central-difference gradients of
    sum(forward(x) * fixed_random) over the layer's inputs and parameters."""
    rng = np.random.default_rng(seed)
    out0 = layer.forward(x, train=train, ctx={})
    upstream = rng.normal(size=out0.shape)

    def loss() -> float:
        return float(np.sum(layer.forward(x, train=train, ctx={}) * upstream))

    layer.zero_grad()
    ctx = {}
    layer.forward(x, train=train, ctx=ctx)
    analytic = {"input": layer.backward(upstream, ctx=ctx)}
    numeric = {"input": central_differences(loss, x, step)}
    for name, p in named_params(layer):
        if p.trainable:
            analytic[name] = p.grad
            numeric[name] = central_differences(loss, p.value, step)
    return max_relative_error(analytic, numeric)


def stack_pair(stack, v, r):
    """The stack's outputs on a component-major feature v and on
    rotate_feature(v, r), xyz-last like keypoint offsets: a (2, C, N, 3)
    pair for PoseModel.so3_term."""
    straight = stack.forward(v, ctx={})
    rotated = stack.forward(rotate_feature(v, r), ctx={})
    return np.stack([np.moveaxis(straight, 0, -1), np.moveaxis(rotated, 0, -1)])


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform applying b first, then a: compose(a, b).apply(x) == a.apply(b.apply(x))."""
    r = Rotation(a.rotation.m @ b.rotation.m)
    t = a.rotation.apply(b.translation) + a.translation
    return RigidTransform(r, t)


def geodesic_distance(a: Rotation, b: Rotation) -> float:
    """Angle in radians of the relative rotation between a and b."""
    cos = (np.trace(a.m.T @ b.m) - 1.0) / 2.0
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))


def load_pose_json(path) -> RigidTransform:
    """The pose a `fit-pose` run wrote with save_pose_json."""
    with read_json(path) as d:
        return pose_from_dict(d)


def add_s_brute(gt: RigidTransform, pred: RigidTransform, model) -> float:
    """O(m^2) reference: explicit pairwise distances, min over the second pose."""
    verts = model.vertices
    a = gt.apply(verts)
    b = pred.apply(verts)
    mins = np.empty(len(a))
    for start in range(0, len(a), BLOCK_ROWS):
        block = a[start : start + BLOCK_ROWS]
        d = np.sqrt(((block[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1))
        mins[start : start + BLOCK_ROWS] = d.min(axis=1)
    return float(mins.mean())


def lift_cloud_gather(points, attributes, neighbors: int, scales, cap: float) -> np.ndarray:
    """model.lift_cloud with its neighbour means taken by gathering the
    (N, k, 3) neighbour coordinates and averaging them."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n == 0:
        return np.zeros((3, LIFT_CHANNELS, 0))
    centered = points - points.mean(axis=0)
    k_near = min(neighbors, n - 1)
    k_far = min(4 * neighbors, n - 1)
    if k_near >= 1:
        _, idx = cKDTree(points).query(points, k=k_far + 1)
        edge_near = points[idx[:, 1 : k_near + 1]].mean(axis=1) - points
        edge_far = points[idx[:, 1:]].mean(axis=1) - points
    else:
        edge_near = edge_far = np.zeros_like(points)
    radial = centered / np.maximum(np.linalg.norm(centered, axis=1, keepdims=True), 1e-12)
    tint = np.asarray(attributes, dtype=np.float64) - 0.5
    channels = [
        scales[0] * centered,
        scales[1] * edge_far,
        scales[2] * edge_near,
        scales[3] * np.cross(centered, edge_far),
        scales[4] * np.cross(edge_far, edge_near),
    ] + [2.0 * tint[:, c : c + 1] * radial for c in range(3)]
    v = np.ascontiguousarray(np.stack(channels, axis=1).T)
    norms = np.linalg.norm(v, axis=0)
    return v * np.minimum(1.0, cap / np.maximum(norms, 1e-30))


def edit_ply(path, header=lambda text: text, rows=lambda table, names: table):
    """Rewrite the binary PLY at `path`: `header` maps its header text, "ply"
    through "end_header" and its newline, to new text, and `rows` maps its
    (N, len(names)) float64 table and the column names to the table whose
    rows are written after the new header as little-endian doubles."""
    raw = Path(path).read_bytes()
    end = raw.index(b"end_header\n") + len(b"end_header\n")
    text = raw[:end].decode()
    names = [line.split()[-1] for line in text.splitlines() if line.startswith("property ")]
    table = np.frombuffer(raw[end:], "<f8").reshape(-1, len(names)).copy()
    body = np.ascontiguousarray(rows(table, names), "<f8").tobytes()
    Path(path).write_bytes(header(text).encode() + body)
