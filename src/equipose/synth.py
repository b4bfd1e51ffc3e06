"""Synthetic object models and labeled scenes for desk-scale training and
evaluation: surface-sampled boxes, cylinders, and smooth random blobs with
per-vertex colors, farthest-point keypoints, and scene rendering with sector
occlusion, position noise, and background clutter."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .backproject import PlyTable, PointCloud, write_ply
from .errors import InputError
from .files import parsing, read_json, write_json
from .geometry import (
    RigidTransform,
    Rotation,
    pose_from_dict,
    pose_to_dict,
    sample_uniform_rotation,
)
from .metrics import model_diameter


@dataclass
class ObjectModel:
    id: int
    vertices: np.ndarray  # (m, 3) object frame, meters
    keypoints: np.ndarray  # (M, 3) object frame
    center: np.ndarray  # (3,)
    diameter: float
    colors: np.ndarray  # (m, 3) in [0, 1]
    symmetric: bool = False

    def __post_init__(self):
        rows = np.shape(self.vertices)[:1]
        shapes = {
            "vertices": rows + (3,),
            "keypoints": np.shape(self.keypoints)[:1] + (3,),
            "center": (3,),
            "colors": rows + (3,),
        }
        for name, shape in shapes.items():
            value = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if value.shape != shape:
                raise InputError(f"model {self.id} {name} must have shape {shape}, got {value.shape}")
            setattr(self, name, value)
        if not (np.isfinite(self.keypoints).all() and np.isfinite(self.center).all()):
            raise InputError(f"model {self.id} has a non-finite keypoint or center entry")
        if not (np.isfinite(self.diameter) and self.diameter > 0.0):
            raise InputError(f"model {self.id} diameter must be finite and positive, got {self.diameter}")


def select_keypoints(verts: np.ndarray, m: int) -> np.ndarray:
    """Farthest point sampling over an (n, 3) vertex array, seeded at the
    vertex farthest from the centroid; deterministic (ties resolve to the
    lowest index)."""
    if m > len(verts):
        raise InputError(f"requested {m} keypoints from {len(verts)} vertices")
    if m < 1:
        raise InputError(f"need at least one keypoint, got {m}")
    centroid = verts.mean(axis=0)
    chosen = [int(np.argmax(np.linalg.norm(verts - centroid, axis=1)))]
    dist = np.linalg.norm(verts - verts[chosen[0]], axis=1)
    while len(chosen) < m:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(verts - verts[nxt], axis=1))
    return verts[chosen].copy()


DEFAULT_SIZES = {
    "box": (0.12, 0.16, 0.22),
    "cylinder": (0.055, 0.16),
    "blob": 0.09,
}

BASE_COLORS = {
    "box": (0.80, 0.30, 0.20),
    "cylinder": (0.20, 0.70, 0.30),
    "blob": (0.25, 0.35, 0.80),
}


def _box_surface(n: int, extents, rng: np.random.Generator) -> np.ndarray:
    ex, ey, ez = extents
    half = np.array([ex, ey, ez]) / 2.0
    corners = np.array(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=np.float64
    ) * half
    n_sample = max(n - len(corners), 0)
    areas = np.array([ey * ez, ey * ez, ex * ez, ex * ez, ex * ey, ex * ey])
    counts = rng.multinomial(n_sample, areas / areas.sum())
    pts = []
    for face, count in enumerate(counts):
        axis = face // 2
        sign = 1.0 if face % 2 else -1.0
        p = rng.uniform(-half, half, size=(count, 3))
        p[:, axis] = sign * half[axis]
        pts.append(p)
    return np.vstack([corners] + pts)


def _cylinder_surface(n: int, size, rng: np.random.Generator) -> np.ndarray:
    radius, height = size
    side_area = 2.0 * np.pi * radius * height
    cap_area = np.pi * radius**2
    counts = rng.multinomial(n, np.array([side_area, cap_area, cap_area]) / (side_area + 2 * cap_area))
    theta = rng.uniform(0.0, 2.0 * np.pi, counts[0])
    z = rng.uniform(-height / 2.0, height / 2.0, counts[0])
    side = np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])
    caps = []
    for sign, count in zip((1.0, -1.0), counts[1:]):
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
        phi = rng.uniform(0.0, 2.0 * np.pi, count)
        caps.append(
            np.column_stack([r * np.cos(phi), r * np.sin(phi), np.full(count, sign * height / 2.0)])
        )
    return np.vstack([side] + caps)


def _blob_surface(n: int, base_radius: float, rng: np.random.Generator) -> np.ndarray:
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    lobes = rng.normal(size=(6, 3))
    lobes /= np.linalg.norm(lobes, axis=1, keepdims=True)
    amp = rng.uniform(-0.25, 0.25, size=6)
    sharp = rng.uniform(2.0, 6.0, size=6)
    radial = 1.0 + sum(
        amp[j] * np.exp(sharp[j] * (dirs @ lobes[j] - 1.0)) for j in range(6)
    )
    return base_radius * radial[:, None] * dirs


def generate_object(
    kind: str,
    n_vertices: int = 600,
    seed: int = 0,
    class_id: int = 1,
    n_keypoints: int = 8,
) -> ObjectModel:
    """Surface-sampled model of the given kind, deterministic per seed; a box
    or a cylinder is symmetric, a blob is not."""
    if n_vertices < 50:
        raise InputError("n_vertices must be at least 50")
    if kind not in DEFAULT_SIZES:
        raise InputError(f"unknown object kind {kind!r}")
    rng = np.random.default_rng(seed)
    size = DEFAULT_SIZES[kind]
    if kind == "box":
        verts = _box_surface(n_vertices, size, rng)
        scale = max(size) / 2.0
    elif kind == "cylinder":
        verts = _cylinder_surface(n_vertices, size, rng)
        scale = max(size[0], size[1] / 2.0)
    else:
        verts = _blob_surface(n_vertices, size, rng)
        scale = size
    base = np.asarray(BASE_COLORS[kind])
    if kind == "blob":
        tint = Rotation(sample_uniform_rotation(rng).m)
        dirs = verts / np.linalg.norm(verts, axis=1, keepdims=True)
        colors = 0.5 + 0.5 * tint.apply(dirs)
    else:
        colors = base + 0.25 * verts / scale
    colors = np.clip(colors, 0.0, 1.0)
    return ObjectModel(
        id=class_id,
        vertices=verts,
        keypoints=select_keypoints(verts, n_keypoints),
        center=verts.mean(axis=0),
        diameter=model_diameter(verts),
        colors=colors,
        symmetric=kind in ("box", "cylinder"),
    )


def make_default_models(seed: int = 0, n_vertices: int = 600, n_keypoints: int = 8):
    """Three-object family: a box and a cylinder (symmetric) plus a blob."""
    return [
        generate_object("box", n_vertices, seed=seed + 1, class_id=1, n_keypoints=n_keypoints),
        generate_object("cylinder", n_vertices, seed=seed + 2, class_id=2, n_keypoints=n_keypoints),
        generate_object("blob", n_vertices, seed=seed + 3, class_id=3, n_keypoints=n_keypoints),
    ]


# Corners of the box, in camera coordinates (meters), that drawn translations fill.
TRANSLATION_LOW = (-0.12, -0.12, 0.45)
TRANSLATION_HIGH = (0.12, 0.12, 0.75)


@dataclass(frozen=True)
class SceneConfig:
    """Scene recipe; each instance loses a sector holding a fraction drawn
    uniformly from occlusion = (lo, hi), or exactly lo when lo == hi."""

    noise_sigma: float = 0.0
    occlusion: tuple = (0.0, 0.0)
    n_background: int = 0
    n_instances: int = 1
    max_object_points: int = None
    background_margin: float = 0.25
    poses: list = None  # optional [(class_id, RigidTransform)]

    def __post_init__(self):
        lo, hi = self.occlusion
        if not (0.0 <= lo <= hi <= 0.9):
            raise InputError("occlusion fraction must lie in [0, 0.9]")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise InputError(f"noise sigma must be finite and non-negative, got {self.noise_sigma}")
        if self.n_background < 0:
            raise InputError("background point count must be non-negative")

    def draw_occlusion(self, rng: np.random.Generator) -> float:
        lo, hi = self.occlusion
        return float(lo) if lo == hi else float(rng.uniform(lo, hi))


@dataclass
class SceneSample:
    """One labeled scene: cloud with colors, per-point class labels, ground
    truth offsets to each instance's keypoints (last slot is the center),
    and the generating poses."""

    cloud: PointCloud
    labels: np.ndarray  # (N,) ints, 0 = background
    gt_offsets: np.ndarray  # (N, M + 1, 3)
    gt_poses: list  # [(class_id, RigidTransform)]
    scene_seed: int

    @property
    def n_keypoints(self) -> int:
        return self.gt_offsets.shape[1] - 1


def _sector_occlusion(points: np.ndarray, center: np.ndarray, fraction: float, rng) -> np.ndarray:
    """Indices KEPT after removing a contiguous angular sector of points
    around a random axis through the center; the removed count is exact."""
    m = len(points)
    n_remove = int(round(fraction * m))
    if n_remove == 0:
        return np.arange(m)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    helper = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    rel = points - center
    angles = np.arctan2(rel @ e2, rel @ e1)
    order = np.argsort(angles, kind="stable")
    start = rng.integers(0, m)
    removed = order[(start + np.arange(n_remove)) % m]
    keep = np.ones(m, dtype=bool)
    keep[removed] = False
    return np.nonzero(keep)[0]


def render_scene(objects, config: SceneConfig, seed: int) -> SceneSample:
    """Compose posed object models into a labeled scene.

    Offsets are computed from the noise-free surface points, then Gaussian
    position noise is added to the observed points, so each point's votes aim
    at the true transformed keypoints. Background clutter is appended with
    label 0 and zero offsets.
    """
    rng = np.random.default_rng(seed)
    by_id = {obj.id: obj for obj in objects}
    n_kp = objects[0].keypoints.shape[0]

    if config.poses is not None:
        instances = list(config.poses)
    else:
        instances = []
        for _ in range(config.n_instances):
            obj = objects[rng.integers(0, len(objects))]
            rot = sample_uniform_rotation(rng)
            t = rng.uniform(TRANSLATION_LOW, TRANSLATION_HIGH)
            instances.append((obj.id, RigidTransform(rot, t)))

    points, colors, labels, offsets = [], [], [], []
    for class_id, pose in instances:
        obj = by_id[class_id]
        verts = obj.vertices
        cols = obj.colors
        if config.max_object_points is not None and len(verts) > config.max_object_points:
            pick = rng.choice(len(verts), size=config.max_object_points, replace=False)
            verts, cols = verts[pick], cols[pick]
        cam_pts = pose.apply(verts)
        keep = _sector_occlusion(cam_pts, pose.apply(obj.center), config.draw_occlusion(rng), rng)
        cam_pts, cols = cam_pts[keep], cols[keep]
        kp_cam = pose.apply(np.vstack([obj.keypoints, obj.center]))
        points.append(cam_pts)
        colors.append(cols)
        labels.append(np.full(len(cam_pts), class_id, dtype=int))
        offsets.append(kp_cam[None, :, :] - cam_pts[:, None, :])

    if config.n_background > 0:
        centers = np.array([pose.translation for _, pose in instances])
        lo = centers.min(axis=0) - config.background_margin
        hi = centers.max(axis=0) + config.background_margin
        bg = rng.uniform(lo, hi, size=(config.n_background, 3))
        points.append(bg)
        colors.append(rng.uniform(0.0, 1.0, size=(config.n_background, 3)))
        labels.append(np.zeros(config.n_background, dtype=int))
        offsets.append(np.zeros((config.n_background, n_kp + 1, 3)))

    points = np.vstack(points)
    colors = np.vstack(colors)
    labels = np.concatenate(labels)
    offsets = np.vstack(offsets)
    if config.noise_sigma > 0.0:
        points = points + rng.normal(0.0, config.noise_sigma, size=points.shape)
    perm = rng.permutation(len(points))
    return SceneSample(
        cloud=PointCloud(points=points[perm], attributes=colors[perm]),
        labels=labels[perm],
        gt_offsets=offsets[perm],
        gt_poses=instances,
        scene_seed=seed,
    )


# on-disk formats -----------------------------------------------------------


class Registry:
    """Object models keyed by class id; `files` holds the model_*.json each
    was read from, when load_registry built it."""

    def __init__(self, models, files=()):
        self.models = {m.id: m for m in models}
        self.files = {m.id: path for m, path in zip(models, files)}

    def lookup(self, class_id: int) -> ObjectModel:
        if class_id not in self.models:
            raise InputError(f"no model registered for class {class_id}")
        return self.models[class_id]

    def __iter__(self):
        return iter(sorted(self.models))


def save_registry(registry: Registry, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    for cls in registry:
        model = registry.lookup(cls)
        ply = os.path.join(directory, f"model_{cls:03d}.ply")
        write_ply(ply, list("xyzrgb"), np.hstack([model.vertices, model.colors]))
        meta = {
            "id": model.id,
            "symmetric": model.symmetric,
            "keypoints": model.keypoints.tolist(),
            "center": model.center.tolist(),
            "diameter": model.diameter,
        }
        write_json(os.path.join(directory, f"model_{cls:03d}.json"), meta)


def load_registry(directory) -> Registry:
    models, files = [], []
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("model_") and name.endswith(".json")):
            continue
        ply = os.path.join(directory, name[:-5] + ".ply")
        xyzrgb = PlyTable(ply).columns(*"xyzrgb")
        with parsing(ply):
            if len(xyzrgb) == 0:
                raise InputError("model has no vertices")
        files.append(os.path.join(directory, name))
        with read_json(files[-1]) as meta:
            models.append(
                ObjectModel(
                    id=int(meta["id"]),
                    vertices=xyzrgb[:, :3],
                    keypoints=meta["keypoints"],
                    center=meta["center"],
                    diameter=float(meta["diameter"]),
                    colors=xyzrgb[:, 3:],
                    symmetric=bool(meta["symmetric"]),
                )
            )
    if not models:
        raise InputError(f"no model files found in {directory}")
    return Registry(models, files)


def save_scene(path_stem, sample: SceneSample) -> None:
    """Binary float64 PLY (points, colors, label, offsets) plus a JSON pose sidecar."""
    n = len(sample.cloud)
    names = ["x", "y", "z", "r", "g", "b", "label"]
    for j in range(sample.gt_offsets.shape[1]):
        names += [f"off_{j}_x", f"off_{j}_y", f"off_{j}_z"]
    table = np.hstack(
        [
            sample.cloud.points,
            sample.cloud.attributes,
            sample.labels[:, None].astype(np.float64),
            sample.gt_offsets.reshape(n, -1),
        ]
    )
    write_ply(str(path_stem) + ".ply", names, table)
    sidecar = {
        "scene_seed": sample.scene_seed,
        "n_keypoints": sample.n_keypoints,
        "poses": [{"class": int(cls), **pose_to_dict(pose)} for cls, pose in sample.gt_poses],
    }
    write_json(str(path_stem) + ".json", sidecar)


def load_scene(path_stem) -> SceneSample:
    table = PlyTable(str(path_stem) + ".ply")
    with read_json(str(path_stem) + ".json") as sidecar:
        n_slots = sidecar["n_keypoints"] + 1
        offset_names = [f"off_{j}_{axis}" for j in range(n_slots) for axis in "xyz"]
        poses = [(int(p["class"]), pose_from_dict(p)) for p in sidecar["poses"]]
        scene_seed = int(sidecar["scene_seed"])
    labels = table.columns("label")[:, 0]
    with parsing(table.path):
        if {name for name in table.names if name.startswith("off_")} != set(offset_names):
            raise ValueError(f"the off_* columns are not those of the sidecar's {n_slots} slots")
        if np.any(labels != np.round(labels)):
            raise ValueError("label column holds a value that is not a whole number")
        xyzrgb = table.columns(*"xyzrgb")
        cloud = PointCloud(points=xyzrgb[:, :3], attributes=xyzrgb[:, 3:])
    return SceneSample(
        cloud=cloud,
        labels=labels.astype(int),
        gt_offsets=table.columns(*offset_names).reshape(len(cloud), n_slots, 3),
        gt_poses=poses,
        scene_seed=scene_seed,
    )
