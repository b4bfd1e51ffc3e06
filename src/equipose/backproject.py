"""Camera-frame point clouds and the binary PLY vertex table that stores
them: `write_ply` and `PlyTable` are the table's one writer and one reader."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .files import parsing, write_atomic


@dataclass
class PointCloud:
    """Camera-frame points and their colors.

    points: (N, 3) floats; attributes: (N, 3) floats, r, g, b in [0, 1].
    """

    points: np.ndarray
    attributes: np.ndarray

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        self.attributes = np.ascontiguousarray(self.attributes, dtype=np.float64)
        shape = self.points.shape[:1] + (3,)
        if self.points.shape != shape or self.attributes.shape != shape:
            shapes = f"{self.points.shape} and {self.attributes.shape}"
            raise InputError(f"a cloud is (n, 3) points and (n, 3) colors, got {shapes}")
        # written so that a NaN color fails too
        in_range = (self.attributes >= 0.0) & (self.attributes <= 1.0)
        if not (np.all(np.isfinite(self.points)) and np.all(in_range)):
            raise InputError("point cloud contains a non-finite coordinate or a color outside [0, 1]")

    def __len__(self) -> int:
        return self.points.shape[0]


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
