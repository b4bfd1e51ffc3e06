"""Tests for point clouds and the binary PLY vertex table."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import edit_ply

from equipose.backproject import PlyTable, PointCloud, write_ply
from equipose.errors import InputError

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "equipose"


def test_only_backproject_module_reads_or_writes_ply():
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\bnp\.(loadtxt|savetxt)\b|format ascii", line)
        or (path.name != "backproject.py" and "end_header" in line)
    ]
    assert offenders == []
    # no module imports a private backproject name, such as a deleted _*_ascii_ply
    private = [
        f"{path.name}:{alias.name}"
        for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("backproject")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


XYZ = list("xyz")
TWO_ROWS = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


class TestFileFormats:
    def test_ply_roundtrip_with_colors(self, tmp_path):
        rng = np.random.default_rng(4)
        points, colors = rng.normal(size=(17, 3)), rng.uniform(size=(17, 3))
        path = tmp_path / "cloud.ply"
        write_ply(path, list("xyzrgb"), np.hstack([points, colors]))
        table = PlyTable(path)
        assert table.names == list("xyzrgb")
        np.testing.assert_array_equal(table.columns(*"xyz"), points)
        np.testing.assert_array_equal(table.columns(*"rgb"), colors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_cloud_rejects_non_finite_points(self, bad):
        with pytest.raises(InputError):
            PointCloud(points=[[0.1, 0.2, 0.3], [bad, 0.0, 1.0]], attributes=np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_cloud_rejects_non_finite_attributes(self, bad):
        with pytest.raises(InputError):
            PointCloud(points=np.zeros((2, 3)), attributes=[[0.1, 0.2, 0.3], [bad, 0.5, 0.5]])

    @pytest.mark.parametrize("bad", [-1e-3, 1.0 + 1e-12, 7.0, 1e300])
    def test_cloud_rejects_colors_outside_unit_range(self, bad):
        PointCloud(points=np.zeros((2, 3)), attributes=[[0.0, 0.2, 1.0], [1.0, 0.5, 0.0]])
        with pytest.raises(InputError, match=re.escape("a color outside [0, 1]")):
            PointCloud(points=np.zeros((2, 3)), attributes=[[0.1, 0.2, 0.3], [bad, 0.5, 0.5]])

    @pytest.mark.parametrize(
        "points, colors",
        [((3, 4), (4, 3)), ((3, 3), (3, 4)), ((3, 3), (2, 3)), ((3,), (1, 3))],
        ids=["points_of_four_values", "colors_of_four_values", "fewer_colors", "flat_points"],
    )
    def test_cloud_rejects_other_shapes(self, points, colors):
        # a cloud is (n, 3) points and (n, 3) r, g, b: no other shape is read as one
        with pytest.raises(InputError, match=re.escape(f"got {points} and {colors}")):
            PointCloud(points=np.zeros(points), attributes=np.zeros(colors))

    def test_ply_with_nan_coordinate_rejected(self, tmp_path):
        path = tmp_path / "nan.ply"
        write_ply(path, XYZ, TWO_ROWS)
        edit_ply(path, rows=lambda table, names: np.where(table == 5.0, np.nan, table))
        with pytest.raises(InputError):
            PlyTable(path)

    def test_ply_with_partial_double_rejected(self, tmp_path):
        path = tmp_path / "partial.ply"
        write_ply(path, XYZ, TWO_ROWS)
        path.write_bytes(path.read_bytes() + b"abc")
        with pytest.raises(InputError):
            PlyTable(path)

    def test_ply_with_non_numeric_vertex_count_rejected(self, tmp_path):
        path = tmp_path / "count.ply"
        write_ply(path, XYZ, [[1.0, 2.0, 3.0]])
        edit_ply(path, header=lambda text: text.replace("element vertex 1", "element vertex one"))
        with pytest.raises(InputError):
            PlyTable(path)

    def test_ply_empty_table_roundtrip(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_ply(path, XYZ, np.zeros((0, 3)))
        assert PlyTable(path).columns(*"xyz").shape == (0, 3)
        path.write_text(path.read_text() + "1 2 3\n")
        message = f"malformed {path}: ValueError: PLY vertex table is not 0 rows"
        with pytest.raises(InputError, match=re.escape(message)):
            PlyTable(path)

    def test_ply_with_face_element_rejected(self, tmp_path):
        path = tmp_path / "mesh.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement face 1\nend_header\n" + bytes(13))
        with pytest.raises(InputError, match="element face 1"):
            PlyTable(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: raw[:-1], "PLY vertex table is not 2 rows of 3 values: 47 bytes"),
            (lambda raw: raw + bytes(8), "PLY vertex table is not 2 rows of 3 values: 56 bytes"),
            (
                lambda raw: raw.replace(np.float64(5.0).tobytes(), np.float64(np.inf).tobytes()),
                "PLY vertex table has non-finite values",
            ),
            (
                lambda raw: raw.replace(b"binary_little_endian", b"binary_big_endian"),
                "bad PLY header line 'format binary_big_endian 1.0'",
            ),
            (lambda raw: raw.replace(b"float64 x", b"float32 x"), "bad PLY header line 'property float32 x'"),
        ],
        ids=["body_one_byte_short", "trailing_bytes", "inf_value", "big_endian", "float32_property"],
    )
    def test_ply_rejects_bad_binary_file(self, tmp_path, edit, message):
        path = tmp_path / "bad.ply"
        write_ply(path, XYZ, TWO_ROWS)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(InputError, match=re.escape(f"malformed {path}: ValueError: {message}")):
            PlyTable(path)
