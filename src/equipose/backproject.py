"""Depth-image back-projection to camera-frame point clouds, and the reverse projection.

Pixel convention: (x, y) are zero-based column/row indices taken at pixel
centers. Depths are meters everywhere in memory; file loaders apply a tick
scale on the way in/out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EquiposeError, InputError
from .files import parsing, read_json, write_atomic, write_json


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    @property
    def k(self) -> np.ndarray:
        return np.array(
            [
                [self.fx, self.skew, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )

    def k_inv(self) -> np.ndarray:
        k = self.k
        if abs(np.linalg.det(k)) <= 1e-12:
            raise EquiposeError(f"intrinsic matrix is singular: det={np.linalg.det(k)}")
        return np.linalg.inv(k)

    @classmethod
    def from_dict(cls, d: dict) -> "CameraIntrinsics":
        return cls(
            fx=float(d["fx"]),
            fy=float(d["fy"]),
            cx=float(d["cx"]),
            cy=float(d["cy"]),
            skew=float(d.get("skew", 0.0)),
        )

    def to_dict(self) -> dict:
        return {"fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy, "skew": self.skew}

    @classmethod
    def load_json(cls, path) -> "CameraIntrinsics":
        with read_json(path) as d:
            return cls.from_dict(d)

    def save_json(self, path) -> None:
        write_json(path, self.to_dict())


@dataclass(frozen=True)
class DepthImage:
    """Depth map in meters, shape (height, width). Zero marks invalid pixels."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 2:
            raise InputError(f"depth data must be 2-D, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise InputError("depth data contains non-finite values")
        if np.any(d < 0.0):
            raise InputError("negative depths are forbidden")
        object.__setattr__(self, "data", d)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def valid_mask(self) -> np.ndarray:
        return self.data > 0.0


@dataclass
class PointCloud:
    """Camera-frame points with optional per-point appearance attributes.

    attributes: (N, A) floats, e.g. RGB in [0, 1].
    pixel_origin: (N, 2) integer (x, y) source pixels, when back-projected.
    image_size: (width, height) of the source image, when known.
    """

    points: np.ndarray
    attributes: np.ndarray = None
    pixel_origin: np.ndarray = None
    image_size: tuple = None

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(pts)):
            raise InputError("point cloud contains non-finite coordinates")
        self.points = pts
        n = pts.shape[0]
        if self.attributes is not None:
            a = np.ascontiguousarray(self.attributes, dtype=np.float64)
            if a.shape[0] != n:
                raise InputError(f"attributes rows {a.shape[0]} != point count {n}")
            if not np.all(np.isfinite(a)):
                raise InputError("point cloud contains non-finite attributes")
            self.attributes = a
        if self.pixel_origin is not None:
            p = np.asarray(self.pixel_origin)
            if p.shape != (n, 2):
                raise InputError(f"pixel_origin must be ({n}, 2), got {p.shape}")
            self.pixel_origin = p

    def __len__(self) -> int:
        return self.points.shape[0]


def depth_to_cloud(
    depth: DepthImage,
    intrinsics: CameraIntrinsics,
    mask: np.ndarray = None,
    attribute_image: np.ndarray = None,
) -> PointCloud:
    """Back-project valid depth pixels: point = D(x, y) * K^-1 @ [x, y, 1].

    mask optionally restricts to a boolean (H, W) pixel set. attribute_image
    (H, W, A) attaches per-pixel values (e.g. RGB) to the resulting points.
    """
    k_inv = intrinsics.k_inv()
    select = depth.valid_mask
    if mask is not None:
        select = select & np.asarray(mask, dtype=bool)
    ys, xs = np.nonzero(select)
    d = depth.data[ys, xs]
    rays = np.column_stack([xs, ys, np.ones_like(d)]) @ k_inv.T
    points = rays * d[:, None]
    attrs = None
    if attribute_image is not None:
        attrs = np.asarray(attribute_image, dtype=np.float64)[ys, xs]
        if attrs.ndim == 1:
            attrs = attrs[:, None]
    return PointCloud(
        points=points.reshape(-1, 3),
        attributes=attrs,
        pixel_origin=np.column_stack([xs, ys]) if len(d) else np.zeros((0, 2), dtype=int),
        image_size=(depth.width, depth.height),
    )


def project_to_pixels(cloud: PointCloud, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Project points to (pixel x, pixel y, depth) rows; requires z > 0."""
    pts = cloud.points
    if np.any(pts[:, 2] <= 0.0):
        raise EquiposeError("all points must have z > 0 to project")
    uvw = pts @ intrinsics.k.T
    return np.column_stack([uvw[:, 0] / uvw[:, 2], uvw[:, 1] / uvw[:, 2], uvw[:, 2]])


def write_pgm_depth(path, depth: DepthImage, ticks_per_meter: float = 10000.0) -> None:
    """Write a binary 16-bit PGM (P5, big-endian samples per the netpbm spec)."""
    ticks = np.round(depth.data * ticks_per_meter)
    if np.any(ticks > 65535):
        raise ValueError("depth exceeds 16-bit range at this tick scale")
    header = f"P5\n{depth.width} {depth.height}\n65535\n".encode("ascii")
    write_atomic(path, header + ticks.astype(">u2").tobytes())


def read_pgm_depth(path, ticks_per_meter: float = 10000.0) -> DepthImage:
    """Read a 16-bit binary PGM (P5, maxval 65535) of depth ticks. A bad or
    truncated header or a short payload is an InputError naming the file."""
    with open(path, "rb") as f:
        raw = f.read()
    fields = []
    pos = 0
    with parsing(path):
        while len(fields) < 4:
            while pos < len(raw) and raw[pos : pos + 1].isspace():
                pos += 1
            if raw[pos : pos + 1] == b"#":  # comment line
                end = raw.find(b"\n", pos)
                if end < 0:
                    raise ValueError("PGM header comment has no end of line")
                pos = end + 1
                continue
            start = pos
            while pos < len(raw) and not raw[pos : pos + 1].isspace():
                pos += 1
            if pos == start:
                raise ValueError(f"truncated PGM header: {len(fields)} of 4 fields")
            fields.append(raw[start:pos])
        pos += 1  # single whitespace after maxval
        magic, *numbers = fields
        if magic != b"P5":
            raise ValueError(f"not a binary PGM file: magic {magic!r}")
        if not all(x.removeprefix(b"-").isdigit() for x in numbers):
            raise ValueError(f"non-numeric PGM header field in {numbers!r}")
        w, h, maxval = (int(x) for x in numbers)
        if maxval != 65535:
            raise ValueError("only 16-bit PGM depth images are supported")
        if w < 0 or h < 0:
            raise ValueError(f"negative PGM size {w} x {h}")
        if len(raw) - pos < 2 * w * h:
            raise ValueError(f"PGM payload is {max(len(raw) - pos, 0)} bytes, expected {2 * w * h}")
    ticks = np.frombuffer(raw, dtype=">u2", count=w * h, offset=pos).reshape(h, w)
    return DepthImage(ticks.astype(np.float64) / ticks_per_meter)


def write_ply_cloud(path, cloud: PointCloud) -> None:
    """Binary PLY with x,y,z and, when attributes are present, r,g,b doubles."""
    names, rows = ["x", "y", "z"], cloud.points
    if cloud.attributes is not None and cloud.attributes.shape[1] >= 3:
        names, rows = names + ["r", "g", "b"], np.hstack([rows, cloud.attributes[:, :3]])
    write_ply(path, names, rows)


def read_ply_cloud(path) -> PointCloud:
    table = PlyTable(path)
    attrs = table.columns("r", "g", "b") if "r" in table.names else None
    return PointCloud(points=table.columns("x", "y", "z"), attributes=attrs)


def write_ply(path, names, rows) -> None:
    """Binary little-endian PLY with one float64 vertex property per name and
    the rows as raw doubles, so the round trip keeps every bit."""
    properties = "".join(f"property float64 {name}\n" for name in names)
    header = f"ply\nformat binary_little_endian 1.0\nelement vertex {len(rows)}\n{properties}end_header\n"
    write_atomic(path, header.encode() + np.ascontiguousarray(rows, "<f8").tobytes())


class PlyTable:
    """A binary little-endian PLY vertex table of float64 properties, read
    once: `names` lists its properties in file order and `columns` picks any
    of them by name. A header fault (another format or property type
    included), a missing column, a body other than the declared rows x
    columns doubles or a non-finite value is an InputError naming the file."""

    def __init__(self, path):
        self.path, self.names, n_vertex = path, [], None
        with parsing(path), open(path, "rb") as f:
            if f.readline().strip() != b"ply":
                raise ValueError("not a PLY file")
            for line in map(bytes.decode, f):  # a header line that is not UTF-8 is a ValueError
                match line.split():
                    case ["format", "binary_little_endian", "1.0"] | ["comment" | "obj_info", *_]:
                        pass
                    case ["element", "vertex", count] if n_vertex is None and count.isdigit():
                        n_vertex = int(count)
                    case ["property", "float64", name] if name not in self.names:
                        self.names.append(name)
                    case ["end_header"]:
                        break
                    case _:  # a blank line, another format, element or type, a repeated name
                        raise ValueError(f"bad PLY header line {line.rstrip()!r}")
            else:
                raise ValueError("PLY header has no end_header line")
            if n_vertex is None:
                raise ValueError("PLY header has no element vertex line")
            body = f.read()
            if len(body) != 8 * n_vertex * len(self.names):
                raise ValueError(
                    f"PLY vertex table is not {n_vertex} rows of {len(self.names)} values: {len(body)} bytes"
                )
            self.rows = np.frombuffer(body, "<f8").reshape(n_vertex, len(self.names))
            if not np.all(np.isfinite(self.rows)):
                raise ValueError("PLY vertex table has non-finite values")

    def columns(self, *names) -> np.ndarray:
        """The named columns in that order, as one row-major (N, len(names)) array."""
        with parsing(self.path):
            missing = [name for name in names if name not in self.names]
            if missing:
                raise ValueError(f"PLY vertex table has no column {', '.join(missing)}")
        return np.take(self.rows, [self.names.index(name) for name in names], axis=1)
