"""Tests for synthetic model generation, keypoint selection, and scenes."""

import json
import re

import numpy as np
import pytest

from conftest import compose
from equipose.backproject import PlyTable, write_ply
from equipose.errors import InputError
from equipose.geometry import RigidTransform, Rotation, sample_uniform_rotation
from equipose.metrics import add_s
from equipose.model import ModelConfig, PoseModel
from equipose.synth import (
    DEFAULT_SIZES,
    ObjectModel,
    Registry,
    SceneConfig,
    generate_object,
    load_registry,
    load_scene,
    make_default_models,
    render_scene,
    save_registry,
    save_scene,
    select_keypoints,
)

RNG = np.random.default_rng


class TestGenerateObject:
    def test_box_diameter_matches_analytic(self):
        model = generate_object("box", 600, seed=0)
        expected = np.linalg.norm(DEFAULT_SIZES["box"])
        assert abs(model.diameter - expected) <= 0.02 * expected

    def test_deterministic_per_seed(self):
        a = generate_object("blob", 200, seed=5)
        b = generate_object("blob", 200, seed=5)
        np.testing.assert_array_equal(a.vertices, b.vertices)
        np.testing.assert_array_equal(a.colors, b.colors)
        np.testing.assert_array_equal(a.keypoints, b.keypoints)

    def test_cylinder_axially_self_similar(self):
        from scipy.spatial import cKDTree

        model = generate_object("cylinder", 2000, seed=6)
        spacing = float(cKDTree(model.vertices).query(model.vertices, k=2)[0][:, 1].mean())
        rng = RNG(7)
        gt = RigidTransform(sample_uniform_rotation(rng), rng.normal(size=3))
        half = rng.uniform(0, 2 * np.pi) / 2.0  # a spin about z, as a unit quaternion
        spin = RigidTransform(Rotation.from_quaternion([np.cos(half), 0.0, 0.0, np.sin(half)]), np.zeros(3))
        assert add_s(gt, compose(gt, spin), model) <= 2.0 * spacing

    def test_min_vertices_enforced(self):
        with pytest.raises(InputError, match="n_vertices must be at least 50"):
            generate_object("box", 10, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="unknown object kind 'torus'"):
            generate_object("torus", 100, seed=0)

    @pytest.mark.parametrize("diameter", [np.inf, 0.0, -0.1])
    def test_diameter_must_be_finite_and_positive(self, diameter):
        # the NaN and non-finite keypoint/center cases run through `eval` in test_cli
        model = generate_object("box", 200, seed=0)
        with pytest.raises(InputError):
            ObjectModel(1, model.vertices, model.keypoints, model.center, diameter, model.colors)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("keypoints", np.zeros((6, 4)), "keypoints must have shape (6, 3), got (6, 4)"),
            ("center", np.zeros((1, 3)), "center must have shape (3,), got (1, 3)"),
            ("colors", np.zeros((199, 3)), "colors must have shape (200, 3), got (199, 3)"),
            ("vertices", np.zeros((200, 4)), "vertices must have shape (200, 3), got (200, 4)"),
        ],
        ids=["keypoints_of_four_values", "center_as_a_row", "fewer_colors", "vertices_of_four_values"],
    )
    def test_shapes_are_checked_not_reshaped(self, field, value, message):
        model = generate_object("box", 200, seed=0)
        fields = dict(vertices=model.vertices, keypoints=model.keypoints, center=model.center, colors=model.colors)
        with pytest.raises(InputError, match=re.escape(f"model 1 {message}")):
            ObjectModel(1, diameter=model.diameter, **{**fields, field: value})

    def test_keypoints_inside_bounding_sphere(self):
        for model in make_default_models(seed=1, n_vertices=300):
            radius = np.linalg.norm(model.vertices - model.center, axis=1).max()
            kp_radius = np.linalg.norm(model.keypoints - model.center, axis=1).max()
            assert kp_radius <= radius + 1e-12
            assert model.diameter > 0
            assert model.keypoints.shape[0] >= 3


class TestSelectKeypoints:
    def test_all_vertices_is_permutation(self):
        model = generate_object("blob", 60, seed=2)
        kps = select_keypoints(model.vertices, 60)
        assert kps.shape == (60, 3)
        # same multiset of rows
        a = np.lexsort(kps.T)
        b = np.lexsort(model.vertices.T)
        np.testing.assert_array_equal(kps[a], model.vertices[b])

    def test_unit_cube_two_points_are_opposite_corners(self):
        corners = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        )
        kps = select_keypoints(corners, 2)
        assert abs(np.linalg.norm(kps[0] - kps[1]) - np.sqrt(3.0)) <= 1e-12

    def test_spread_dominates_random_subsets(self):
        model = generate_object("blob", 150, seed=3)
        m = 6

        def min_pairwise(pts):
            d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
            return d[np.triu_indices(len(pts), k=1)].min()

        fps_spread = min_pairwise(select_keypoints(model.vertices, m))
        rng = RNG(4)
        best_random = max(
            min_pairwise(model.vertices[rng.choice(len(model.vertices), m, replace=False)])
            for _ in range(1000)
        )
        assert fps_spread >= best_random

    def test_too_few_vertices(self):
        with pytest.raises(InputError, match="requested 5 keypoints from 4 vertices"):
            select_keypoints(np.zeros((4, 3)), 5)

    def test_zero_keypoints_is_bad_input(self):
        with pytest.raises(InputError):
            select_keypoints(np.zeros((4, 3)), 0)


class TestRenderScene:
    def setup_method(self):
        self.models = make_default_models(seed=0, n_vertices=400)

    def test_offset_consistency_at_zero_noise(self):
        scene = render_scene(self.models, SceneConfig(noise_sigma=0.0, occlusion=(0.3, 0.3)), seed=1)
        (cls, pose), = scene.gt_poses
        model = next(m for m in self.models if m.id == cls)
        targets = pose.apply(np.vstack([model.keypoints, model.center]))
        fg = scene.labels == cls
        votes = scene.cloud.points[fg, None, :] + scene.gt_offsets[fg]
        assert np.max(np.abs(votes - targets[None])) <= 1e-12

    def test_occlusion_removes_half(self):
        base = render_scene(self.models, SceneConfig(occlusion=(0.0, 0.0)), seed=2)
        occluded = render_scene(self.models, SceneConfig(occlusion=(0.5, 0.5)), seed=2)
        n_base = (base.labels > 0).sum()
        n_occ = (occluded.labels > 0).sum()
        assert abs(n_occ - 0.5 * n_base) <= 0.05 * 0.5 * n_base

    def test_fixed_seed_bit_identical(self):
        cfg = SceneConfig(noise_sigma=0.002, occlusion=(0.0, 0.3), n_background=30)
        a = render_scene(self.models, cfg, seed=3)
        b = render_scene(self.models, cfg, seed=3)
        np.testing.assert_array_equal(a.cloud.points, b.cloud.points)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.gt_offsets, b.gt_offsets)

    def test_labels_partition_points(self):
        scene = render_scene(
            self.models, SceneConfig(n_background=25, occlusion=(0.2, 0.2)), seed=4
        )
        assert scene.labels.shape == (len(scene.cloud),)
        assert set(np.unique(scene.labels)) <= {0, 1, 2, 3}
        assert (scene.labels == 0).sum() == 25

    def test_explicit_poses(self):
        pose = RigidTransform(Rotation(np.eye(3)), np.array([0.0, 0.0, 0.6]))
        scene = render_scene(self.models, SceneConfig(poses=[(2, pose)]), seed=5)
        assert scene.gt_poses == [(2, pose)]
        assert set(np.unique(scene.labels)) == {2}

    def test_invalid_occlusion(self):
        with pytest.raises(InputError, match="occlusion fraction"):
            SceneConfig(occlusion=(0.95, 0.95))
        with pytest.raises(InputError, match="noise sigma must be finite and non-negative"):
            SceneConfig(noise_sigma=-1.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, sigma):
        with pytest.raises(InputError, match="noise sigma must be finite"):
            SceneConfig(noise_sigma=sigma)

    def test_noise_added_after_offsets(self):
        # with noise, votes are scattered around the true keypoints instead of
        # landing exactly on them
        sigma = 0.01
        scene = render_scene(self.models, SceneConfig(noise_sigma=sigma), seed=6)
        (cls, pose), = scene.gt_poses
        model = next(m for m in self.models if m.id == cls)
        targets = pose.apply(np.vstack([model.keypoints, model.center]))
        fg = scene.labels == cls
        votes = scene.cloud.points[fg, None, :] + scene.gt_offsets[fg]
        residuals = np.linalg.norm(votes - targets[None], axis=-1)
        assert residuals.mean() > 0.5 * sigma
        assert abs(residuals.mean() - sigma * np.sqrt(8 / np.pi) / np.sqrt(3) * np.sqrt(3)) < sigma


class TestOnDisk:
    def test_scene_roundtrip(self, tmp_path):
        models = make_default_models(seed=0, n_vertices=200)
        scene = render_scene(
            models, SceneConfig(noise_sigma=0.002, occlusion=(0.2, 0.2), n_background=10), seed=7
        )
        save_scene(tmp_path / "scene_00000", scene)
        loaded = load_scene(tmp_path / "scene_00000")
        np.testing.assert_array_equal(loaded.cloud.points, scene.cloud.points)
        np.testing.assert_array_equal(loaded.cloud.attributes, scene.cloud.attributes)
        np.testing.assert_array_equal(loaded.labels, scene.labels)
        np.testing.assert_array_equal(loaded.gt_offsets, scene.gt_offsets)
        assert loaded.scene_seed == scene.scene_seed
        for (c1, p1), (c2, p2) in zip(loaded.gt_poses, scene.gt_poses):
            assert c1 == c2
            np.testing.assert_array_equal(p1.rotation.m, p2.rotation.m)

    def test_scene_roundtrip_keeps_every_bit(self, tmp_path):
        # negative zeros and subnormals in the points, colours and offsets
        scene = render_scene(make_default_models(seed=0, n_vertices=200), SceneConfig(), seed=7)
        scene.cloud.points[0] = [-0.0, 1e-310, 5e-324]
        scene.cloud.attributes[0, 0] = -0.0
        scene.gt_offsets[0, 0] = [5e-324, -0.0, -1e-310]
        save_scene(tmp_path / "scene_00000", scene)
        loaded = load_scene(tmp_path / "scene_00000")
        for name in ("points", "attributes"):
            assert getattr(loaded.cloud, name).tobytes() == getattr(scene.cloud, name).tobytes()
        assert loaded.gt_offsets.tobytes() == scene.gt_offsets.tobytes()
        np.testing.assert_array_equal(loaded.labels, scene.labels)

    def test_scene_columns_are_read_by_name(self, tmp_path):
        models = make_default_models(seed=0, n_vertices=200)
        scene = render_scene(models, SceneConfig(noise_sigma=0.002, n_background=10), seed=9)
        save_scene(tmp_path / "scene_00000", scene)
        table = PlyTable(tmp_path / "scene_00000.ply")
        names = ["label", "b", "r", "z", "x", "g", "y"] + table.names[:6:-1]  # offsets reversed
        write_ply(tmp_path / "scene_00000.ply", names, table.columns(*names))
        loaded = load_scene(tmp_path / "scene_00000")
        np.testing.assert_array_equal(loaded.cloud.points, scene.cloud.points)
        np.testing.assert_array_equal(loaded.cloud.attributes, scene.cloud.attributes)
        np.testing.assert_array_equal(loaded.labels, scene.labels)
        np.testing.assert_array_equal(loaded.gt_offsets, scene.gt_offsets)
        # a column-major copy of the points would change the lift's last bits
        model = PoseModel(ModelConfig(n_classes=4))
        for got, want in zip(model.inputs(loaded.cloud), model.inputs(scene.cloud)):
            np.testing.assert_array_equal(got, want)

    def test_swapped_offset_columns_load_equal(self, tmp_path):
        scene = render_scene(make_default_models(seed=0, n_vertices=200), SceneConfig(), seed=9)
        save_scene(tmp_path / "scene_00000", scene)
        table = PlyTable(tmp_path / "scene_00000.ply")
        names = list(table.names)
        i, j = names.index("off_1_x"), names.index("off_1_z")
        names[i], names[j] = names[j], names[i]
        write_ply(tmp_path / "scene_00000.ply", names, table.columns(*names))
        np.testing.assert_array_equal(load_scene(tmp_path / "scene_00000").gt_offsets, scene.gt_offsets)

    def test_registry_roundtrip(self, tmp_path):
        registry = Registry(make_default_models(seed=0, n_vertices=150))
        save_registry(registry, tmp_path / "registry")
        loaded = load_registry(tmp_path / "registry")
        assert list(loaded) == list(registry)
        for cls in registry:
            a, b = registry.lookup(cls), loaded.lookup(cls)
            np.testing.assert_array_equal(a.vertices, b.vertices)
            np.testing.assert_array_equal(a.colors, b.colors)
            # row-major like the generator's, so a lift or a sum sees the same order
            assert b.vertices.flags.c_contiguous and b.colors.flags.c_contiguous
            np.testing.assert_array_equal(a.keypoints, b.keypoints)
            assert a.symmetric == b.symmetric
            assert a.diameter == b.diameter

    def test_registry_json_has_no_kind_and_older_ones_still_load(self, tmp_path):
        save_registry(Registry(make_default_models(seed=0, n_vertices=150)), tmp_path)
        path = tmp_path / "model_001.json"
        meta = json.loads(path.read_text())
        assert "kind" not in meta
        path.write_text(json.dumps({**meta, "kind": "box"}))  # as older synth-gen runs wrote it
        assert list(load_registry(tmp_path)) == [1, 2, 3]

    def test_oracle_pipeline_on_loaded_scene(self, tmp_path):
        # ties the on-disk format to the second stage
        from equipose.metrics import add
        from equipose.pipeline import run_pipeline

        models = make_default_models(seed=0, n_vertices=300)
        registry = Registry(models)
        scene = render_scene(models, SceneConfig(noise_sigma=0.0, occlusion=(0.1, 0.1)), seed=8)
        save_scene(tmp_path / "scene_00000", scene)
        loaded = load_scene(tmp_path / "scene_00000")
        detections = run_pipeline(
            loaded.cloud, None, registry, oracle=(loaded.labels, loaded.gt_offsets)
        )
        (cls, pose), = loaded.gt_poses
        det = next(d for d in detections if d.class_id == cls)
        assert add(pose, det.pose, registry.lookup(cls)) <= 1e-6


def test_ply_writer_bytes_match_per_value_reference(tmp_path):
    # a three-instance scene's table with a negative zero, a tiny normal and
    # the smallest subnormal in it, and a table without rows
    recipe = SceneConfig(
        noise_sigma=0.002,
        occlusion=(0.0, 0.3),
        n_background=50,
        n_instances=3,
        max_object_points=450,
        background_margin=0.10,
    )
    sample = render_scene(make_default_models(seed=0), recipe, seed=3)
    cloud = sample.cloud
    offsets = sample.gt_offsets.reshape(len(cloud), -1)
    scene = np.hstack([cloud.points, cloud.attributes, sample.labels[:, None], offsets])
    scene[0, :3] = [-0.0, 1e-300, 5e-324]
    for table in (scene, np.zeros((0, 4))):
        names = [f"p{j}" for j in range(table.shape[1])]
        path = tmp_path / "table.ply"
        write_ply(path, names, table)
        header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(table)}"]
        header += [f"property float64 {name}" for name in names] + ["end_header"]
        assert path.read_bytes() == ("\n".join(header) + "\n").encode() + table.astype("<f8").tobytes()
