"""Tests for depth back-projection, pixel projection, and the file formats."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import edit_ply

from equipose.backproject import (
    CameraIntrinsics,
    DepthImage,
    PointCloud,
    depth_to_cloud,
    project_to_pixels,
    read_pgm_depth,
    read_ply_cloud,
    write_pgm_depth,
    write_ply_cloud,
)
from equipose.errors import EquiposeError, InputError

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


def random_intrinsics(rng) -> CameraIntrinsics:
    return CameraIntrinsics(
        fx=float(rng.uniform(200, 800)),
        fy=float(rng.uniform(200, 800)),
        cx=float(rng.uniform(100, 500)),
        cy=float(rng.uniform(100, 400)),
        skew=float(rng.uniform(-1.0, 1.0)),
    )


class TestDepthToCloud:
    def test_principal_point_backprojects_to_axis(self):
        intr = CameraIntrinsics(fx=400, fy=400, cx=32, cy=24)
        data = np.zeros((48, 64))
        data[24, 32] = 1.7
        cloud = depth_to_cloud(DepthImage(data), intr)
        np.testing.assert_allclose(cloud.points[0], [0.0, 0.0, 1.7], atol=1e-12)

    def test_hand_computed_point(self):
        intr = CameraIntrinsics(fx=500, fy=500, cx=320, cy=240)
        data = np.zeros((480, 640))
        data[240, 420] = 2.0
        cloud = depth_to_cloud(DepthImage(data), intr)
        np.testing.assert_allclose(cloud.points[0], [0.4, 0.0, 2.0], atol=1e-12)

    def test_all_zero_depth_gives_empty_cloud(self):
        intr = CameraIntrinsics(fx=500, fy=500, cx=10, cy=10)
        cloud = depth_to_cloud(DepthImage(np.zeros((20, 20))), intr)
        assert len(cloud) == 0

    def test_mask_restricts_pixels(self):
        intr = CameraIntrinsics(fx=500, fy=500, cx=10, cy=10)
        data = np.ones((20, 20))
        mask = np.zeros((20, 20), dtype=bool)
        mask[3, 4] = True
        cloud = depth_to_cloud(DepthImage(data), intr, mask=mask)
        assert len(cloud) == 1
        assert tuple(cloud.pixel_origin[0]) == (4, 3)

    def test_attribute_attachment(self):
        intr = CameraIntrinsics(fx=500, fy=500, cx=10, cy=10)
        data = np.ones((4, 4))
        rgb = np.random.default_rng(0).uniform(size=(4, 4, 3))
        cloud = depth_to_cloud(DepthImage(data), intr, attribute_image=rgb)
        ys, xs = cloud.pixel_origin[:, 1], cloud.pixel_origin[:, 0]
        np.testing.assert_array_equal(cloud.attributes, rgb[ys, xs])

    def test_linear_in_depth(self):
        rng = np.random.default_rng(1)
        intr = random_intrinsics(rng)
        data = rng.uniform(0.5, 2.0, size=(10, 12))
        single = depth_to_cloud(DepthImage(data), intr)
        double = depth_to_cloud(DepthImage(2.0 * data), intr)
        np.testing.assert_array_equal(2.0 * single.points, double.points)

    def test_singular_intrinsics_rejected(self):
        with pytest.raises(EquiposeError, match="intrinsic matrix is singular"):
            depth_to_cloud(
                DepthImage(np.ones((4, 4))),
                CameraIntrinsics(fx=0.0, fy=500, cx=2, cy=2),
            )

    def test_depth_validation(self):
        with pytest.raises(InputError, match="negative"):
            DepthImage(np.array([[-1.0, 0.0]]))
        with pytest.raises(InputError, match="non-finite"):
            DepthImage(np.array([[np.inf, 0.0]]))
        with pytest.raises(InputError, match="2-D"):
            DepthImage(np.ones(4))


class TestProjection:
    def test_optical_axis_point(self):
        intr = CameraIntrinsics(fx=500, fy=400, cx=321, cy=242)
        uvw = project_to_pixels(PointCloud(points=[[0.0, 0.0, 1.3]]), intr)
        np.testing.assert_allclose(uvw[0], [321.0, 242.0, 1.3], atol=1e-12)

    def test_nonpositive_depth_rejected(self):
        intr = CameraIntrinsics(fx=500, fy=500, cx=320, cy=240)
        with pytest.raises(EquiposeError, match="z > 0"):
            project_to_pixels(PointCloud(points=[[0.1, 0.1, 0.0]]), intr)

    def test_roundtrip_over_random_cameras(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            intr = random_intrinsics(rng)
            data = np.zeros((24, 32))
            sel = rng.uniform(size=data.shape) < 0.4
            data[sel] = rng.uniform(0.3, 5.0, size=int(sel.sum()))
            cloud = depth_to_cloud(DepthImage(data), intr)
            if len(cloud) == 0:
                continue
            uvw = project_to_pixels(cloud, intr)
            assert np.max(np.abs(uvw[:, :2] - cloud.pixel_origin)) <= 1e-6
            depths = data[cloud.pixel_origin[:, 1], cloud.pixel_origin[:, 0]]
            assert np.max(np.abs(uvw[:, 2] - depths)) <= 1e-9


class TestFileFormats:
    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        ticks = rng.integers(0, 30000, size=(14, 9)).astype(np.float64)
        depth = DepthImage(ticks / 10000.0)  # exactly representable at this scale
        path = tmp_path / "depth.pgm"
        write_pgm_depth(path, depth, ticks_per_meter=10000.0)
        loaded = read_pgm_depth(path, ticks_per_meter=10000.0)
        np.testing.assert_array_equal(loaded.data, depth.data)
        assert loaded.width == 9 and loaded.height == 14

    @pytest.mark.parametrize(
        "payload, message",
        [
            (b"P2\n2 2\n65535\n" + bytes(8), "magic"),
            (b"P5\n2 2\n255\n" + bytes(8), "16-bit"),
            (b"P5\n2 2", "truncated"),
            (b"P5\n2 x\n65535\n" + bytes(8), "non-numeric"),
            (b"P5\n# depth ticks", "comment"),
            (b"P5\n-2 -2\n65535\n" + bytes(8), "negative"),
            (b"P5\n2 2\n65535\n" + bytes(7), "payload"),
        ],
        ids=[
            "magic",
            "maxval",
            "truncated_header",
            "non_numeric_header",
            "open_comment",
            "negative_size",
            "short_payload",
        ],
    )
    def test_pgm_rejects_bad_file(self, tmp_path, payload, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(payload)
        with pytest.raises(InputError, match=message) as caught:
            read_pgm_depth(path)
        assert f"malformed {path}: " in str(caught.value)

    def test_pgm_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm_depth(tmp_path / "d.pgm", DepthImage(np.full((2, 2), 10.0)), 10000.0)

    def test_ply_roundtrip_with_colors(self, tmp_path):
        rng = np.random.default_rng(4)
        cloud = PointCloud(
            points=rng.normal(size=(17, 3)),
            attributes=rng.uniform(size=(17, 3)),
        )
        path = tmp_path / "cloud.ply"
        write_ply_cloud(path, cloud)
        loaded = read_ply_cloud(path)
        np.testing.assert_array_equal(loaded.points, cloud.points)
        np.testing.assert_array_equal(loaded.attributes, cloud.attributes)

    def test_ply_roundtrip_bare_points(self, tmp_path):
        cloud = PointCloud(points=[[1.0, 2.0, 3.0]])
        path = tmp_path / "bare.ply"
        write_ply_cloud(path, cloud)
        loaded = read_ply_cloud(path)
        np.testing.assert_array_equal(loaded.points, cloud.points)
        assert loaded.attributes is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_cloud_rejects_non_finite_points(self, bad):
        with pytest.raises(InputError):
            PointCloud(points=[[0.1, 0.2, 0.3], [bad, 0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_cloud_rejects_non_finite_attributes(self, bad):
        with pytest.raises(InputError):
            PointCloud(points=np.zeros((2, 3)), attributes=[[0.1, 0.2, 0.3], [bad, 0.5, 0.5]])

    def test_ply_with_nan_coordinate_rejected(self, tmp_path):
        path = tmp_path / "nan.ply"
        write_ply_cloud(path, PointCloud(points=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        edit_ply(path, rows=lambda table, names: np.where(table == 5.0, np.nan, table))
        with pytest.raises(InputError):
            read_ply_cloud(path)

    def test_ply_with_partial_double_rejected(self, tmp_path):
        path = tmp_path / "partial.ply"
        write_ply_cloud(path, PointCloud(points=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        path.write_bytes(path.read_bytes() + b"abc")
        with pytest.raises(InputError):
            read_ply_cloud(path)

    def test_ply_with_non_numeric_vertex_count_rejected(self, tmp_path):
        path = tmp_path / "count.ply"
        write_ply_cloud(path, PointCloud(points=[[1.0, 2.0, 3.0]]))
        edit_ply(path, header=lambda text: text.replace("element vertex 1", "element vertex one"))
        with pytest.raises(InputError):
            read_ply_cloud(path)

    def test_ply_empty_table_roundtrip(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_ply_cloud(path, PointCloud(points=np.zeros((0, 3))))
        assert read_ply_cloud(path).points.shape == (0, 3)
        path.write_text(path.read_text() + "1 2 3\n")
        message = f"malformed {path}: ValueError: PLY vertex table is not 0 rows"
        with pytest.raises(InputError, match=re.escape(message)):
            read_ply_cloud(path)

    def test_ply_with_face_element_rejected(self, tmp_path):
        path = tmp_path / "mesh.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement face 1\nend_header\n" + bytes(13))
        with pytest.raises(InputError, match="element face 1"):
            read_ply_cloud(path)

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
        write_ply_cloud(path, PointCloud(points=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(InputError, match=re.escape(f"malformed {path}: ValueError: {message}")):
            read_ply_cloud(path)

    def test_intrinsics_json_roundtrip(self, tmp_path):
        intr = CameraIntrinsics(fx=525.5, fy=524.0, cx=319.5, cy=239.5, skew=0.25)
        path = tmp_path / "intrinsics.json"
        intr.save_json(path)
        assert CameraIntrinsics.load_json(path) == intr
