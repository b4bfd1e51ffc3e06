"""Tests for the pose metrics: ADD, ADD-S, AUC, hit thresholds, aggregation."""

import numpy as np
import pytest

from conftest import add_s_brute, compose
from equipose.errors import EquiposeError, InputError
from equipose.geometry import (
    RigidTransform,
    Rotation,
    sample_uniform_rotation,
)
from equipose.metrics import (
    ObjectMetrics,
    PoseMetricsReport,
    add,
    add_s,
    auc,
    evaluate_dataset,
    model_diameter,
    report_to_csv,
    distances_to_json,
)
from equipose.pipeline import InstanceDetection
from equipose.synth import DEFAULT_SIZES, ObjectModel, Registry, generate_object, make_default_models

RNG = np.random.default_rng


def random_pose(rng) -> RigidTransform:
    return RigidTransform(sample_uniform_rotation(rng), rng.normal(scale=0.3, size=3))


def sphere_model(n=2000, radius=0.1, seed=0) -> ObjectModel:
    rng = RNG(seed)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    verts = radius * dirs
    return ObjectModel(
        id=9,
        vertices=verts,
        keypoints=verts[:4],
        center=np.zeros(3),
        diameter=model_diameter(verts),
        colors=np.full((n, 3), 0.5),
        symmetric=True,
    )


def mean_nn_spacing(verts) -> float:
    from scipy.spatial import cKDTree

    d, _ = cKDTree(verts).query(verts, k=2)
    return float(d[:, 1].mean())


class TestAdd:
    def test_zero_for_equal_poses(self):
        rng = RNG(1)
        model = generate_object("blob", 200, seed=2)
        pose = random_pose(rng)
        assert add(pose, pose, model) == 0.0

    def test_pure_translation_offset(self):
        rng = RNG(2)
        model = generate_object("box", 200, seed=3)
        gt = random_pose(rng)
        pred = RigidTransform(gt.rotation, gt.translation + np.array([0.02, 0.0, 0.0]))
        assert abs(add(gt, pred, model) - 0.02) <= 1e-12

    def test_matches_per_vertex_oracle(self):
        rng = RNG(3)
        model = generate_object("blob", 100, seed=4)
        gt, pred = random_pose(rng), random_pose(rng)
        expected = np.mean(
            [
                np.linalg.norm(
                    (gt.rotation.m @ x + gt.translation)
                    - (pred.rotation.m @ x + pred.translation)
                )
                for x in model.vertices
            ]
        )
        assert abs(add(gt, pred, model) - expected) <= 1e-12

    def test_left_composition_invariance(self):
        rng = RNG(4)
        model = generate_object("cylinder", 150, seed=5)
        gt, pred = random_pose(rng), random_pose(rng)
        base = add(gt, pred, model)
        for _ in range(20):
            q = random_pose(rng)
            assert abs(add(compose(q, gt), compose(q, pred), model) - base) <= 1e-10


class TestAddS:
    def test_zero_for_equal_poses(self):
        model = generate_object("box", 150, seed=6)
        pose = random_pose(RNG(5))
        assert add_s(pose, pose, model) == 0.0

    def test_never_exceeds_add(self):
        rng = RNG(6)
        model = generate_object("blob", 120, seed=7)
        for _ in range(30):
            gt, pred = random_pose(rng), random_pose(rng)
            assert add_s(gt, pred, model) <= add(gt, pred, model) + 1e-12

    def test_accelerated_matches_brute_force(self):
        rng = RNG(7)
        model = generate_object("blob", 80, seed=8)
        for _ in range(100):
            gt, pred = random_pose(rng), random_pose(rng)
            fast = add_s(gt, pred, model)
            brute = add_s_brute(gt, pred, model)
            assert abs(fast - brute) <= 1e-12

    def test_sphere_rotation_bounded_by_sampling(self):
        model = sphere_model()
        rng = RNG(8)
        gt = random_pose(rng)
        spacing = mean_nn_spacing(model.vertices)
        for _ in range(5):
            spin = RigidTransform(sample_uniform_rotation(rng), np.zeros(3))
            pred = compose(gt, spin)  # rotate about the sphere center
            assert add_s(gt, pred, model) <= 2.0 * spacing

    def test_symmetric_object_motivation(self):
        # a cylinder spun about its axis: ADD large, ADD-S at sampling scale
        model = generate_object("cylinder", 2000, seed=9)
        rng = RNG(9)
        gt = random_pose(rng)
        spin = RigidTransform(Rotation.from_quaternion([np.cos(1.05), 0.0, 0.0, np.sin(1.05)]), np.zeros(3))
        pred = compose(gt, spin)
        spacing = mean_nn_spacing(model.vertices)
        assert add_s(gt, pred, model) <= 2.0 * spacing
        assert add(gt, pred, model) > 10.0 * spacing


class TestAuc:
    def test_all_zero_distances(self):
        assert auc([0.0, 0.0, 0.0]) == 100.0

    def test_all_above_cap(self):
        assert auc([0.2, 0.5, np.inf]) == 0.0

    def test_single_midpoint_distance(self):
        assert auc([0.05]) == 50.0

    def test_step_curve_oracle(self):
        # dense threshold-grid approximation converges to the exact integral
        rng = RNG(10)
        d = rng.uniform(0, 0.15, size=40)
        taus = np.linspace(0, 0.1, 200_001)
        grid = np.mean([(d <= t).mean() for t in taus]) * 100.0
        assert abs(auc(d) - grid) <= 0.01

    def test_monotone_under_pointwise_decrease(self):
        rng = RNG(11)
        d = rng.uniform(0, 0.2, size=30)
        base = auc(d)
        d2 = d.copy()
        d2[5] *= 0.5
        assert auc(d2) >= base

    def test_empty_input(self):
        with pytest.raises(EquiposeError, match="empty distance list"):
            auc([])


class TestDiameterAndHit:
    def test_unit_cube_diameter(self):
        corners = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        )
        assert abs(model_diameter(corners) - np.sqrt(3.0)) <= 1e-12
        # O(m^2) pairwise oracle
        brute = max(
            np.linalg.norm(a - b) for a in corners for b in corners
        )
        assert model_diameter(corners) == brute

    @staticmethod
    def _brute_diameter(verts):
        return float(np.sqrt(((verts[:, None, :] - verts[None, :, :]) ** 2).sum(axis=-1).max()))

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_default_models_equal_brute_force(self, index):
        verts = make_default_models()[index].vertices
        assert model_diameter(verts) == self._brute_diameter(verts)

    def test_coplanar_cloud_equals_brute_force(self):
        rng = RNG(11)
        plane = np.column_stack([rng.uniform(-1, 1, size=(200, 2)), np.zeros(200)])
        assert model_diameter(plane) == self._brute_diameter(plane)
        assert model_diameter(plane[:3]) == self._brute_diameter(plane[:3])

    def test_hit_threshold_arithmetic(self):
        # hit_rate_01d counts distances strictly below 10% of the diameter
        distances = [0.0, 0.019, 0.021, 0.03]
        for symmetric in (False, True):
            m = ObjectMetrics(1, symmetric, add_values=distances, add_s_values=distances)
            report = PoseMetricsReport(per_object={1: m}, diameters={1: 0.2})
            assert report.hit_rate_01d(1) == 50.0

    def test_box_diameter_matches_analytic(self):
        model = generate_object("box", 600, seed=10)
        expected = np.linalg.norm(DEFAULT_SIZES["box"])
        assert abs(model.diameter - expected) <= 0.02 * expected


def make_detection(cls, pose, frac=1.0):
    return InstanceDetection(
        class_id=cls,
        indices=np.arange(3),
        keypoints=np.zeros((3, 3)),
        center=np.zeros(3),
        pose=pose,
        inlier_fraction=frac,
    )


class TestEvaluateDataset:
    def setup_method(self):
        self.registry = Registry(make_default_models(seed=0, n_vertices=200))
        self.rng = RNG(12)

    def test_perfect_detections(self):
        scenes_gt, scenes_det = [], []
        for _ in range(10):
            pose = random_pose(self.rng)
            cls = int(self.rng.integers(1, 4))
            scenes_gt.append([(cls, pose)])
            scenes_det.append([make_detection(cls, pose)])
        report = evaluate_dataset(scenes_det, scenes_gt, self.registry)
        for row in report.rows():
            assert row["adds_auc"] == 100.0
            assert row["add_or_adds_auc"] == 100.0
            assert row["hit_rate_01d"] == 100.0

    def test_half_missed_halves_hit_rate(self):
        scenes_gt, scenes_det = [], []
        for i in range(10):
            pose = random_pose(self.rng)
            scenes_gt.append([(1, pose)])
            scenes_det.append([make_detection(1, pose)] if i % 2 == 0 else [])
        report = evaluate_dataset(scenes_det, scenes_gt, self.registry)
        assert report.hit_rate_01d(1) == 50.0
        assert abs(report.adds_auc(1) - 50.0) <= 1e-9

    def test_symmetric_and_asymmetric_matched_columns(self):
        # class 1 (box) symmetric -> matched() is the ADD-S row; class 3 (blob)
        # is not -> matched() is the ADD row; cross-checked per sample
        scenes_gt, scenes_det = [], []
        for _ in range(6):
            for cls in (1, 3):
                gt = random_pose(self.rng)
                pred = RigidTransform(
                    gt.rotation, gt.translation + self.rng.normal(0, 0.01, size=3)
                )
                scenes_gt.append([(cls, gt)])
                scenes_det.append([make_detection(cls, pred)])
        report = evaluate_dataset(scenes_det, scenes_gt, self.registry)
        box = report.per_object[1]
        blob = report.per_object[3]
        assert box.symmetric and not blob.symmetric
        np.testing.assert_array_equal(box.matched(), box.add_s_values)
        np.testing.assert_array_equal(blob.matched(), blob.add_values)
        for a, s in zip(blob.add_values, blob.add_s_values):
            assert s <= a + 1e-12

    def test_best_inlier_detection_chosen(self):
        gt = random_pose(self.rng)
        bad = random_pose(self.rng)
        dets = [make_detection(1, bad, frac=0.2), make_detection(1, gt, frac=0.9)]
        report = evaluate_dataset([dets], [[(1, gt)]], self.registry)
        assert report.per_object[1].add_values[0] <= 1e-12

    @pytest.mark.parametrize("cls", [1, 3], ids=["symmetric", "asymmetric"])
    def test_instances_of_one_class_matched_one_to_one(self, cls):
        # scoring every instance against the class's best-inlier detection
        # would hit only one of the two instances
        a, b, c = (random_pose(self.rng) for _ in range(3))
        dets = [make_detection(cls, b, frac=0.9), make_detection(cls, a, frac=0.5)]
        scenes_gt = [[(cls, a), (cls, b)], [(cls, c), (cls, a)]]
        report = evaluate_dataset([dets, dets[1:]], scenes_gt, self.registry)
        m = report.per_object[cls]
        assert m.add_values[:2] == [0.0, 0.0] and m.add_s_values[:2] == [0.0, 0.0]
        assert m.add_values[2:] == [np.inf, 0.0] and m.add_s_values[2:] == [np.inf, 0.0]
        assert report.hit_rate_01d(cls) == 75.0

    def test_unknown_class_raises(self):
        with pytest.raises(InputError, match="no model registered for class 42"):
            evaluate_dataset([[]], [[(42, random_pose(self.rng))]], self.registry)

    def test_csv_and_json_outputs(self, tmp_path):
        pose = random_pose(self.rng)
        report = evaluate_dataset(
            [[make_detection(2, pose)]], [[(2, pose)]], self.registry
        )
        csv_path = tmp_path / "report.csv"
        report_to_csv(report, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "object,adds_auc,add_or_adds_auc,hit_rate_01d,n_samples"
        assert lines[1].startswith("2,100.000000,100.000000,100.000000,1")
        json_path = tmp_path / "distances.json"
        distances_to_json(report, json_path)
        import json

        payload = json.loads(json_path.read_text())
        assert payload["2"]["add"] == [0.0]
