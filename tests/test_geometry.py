"""Tests for rotation/rigid-transform algebra and the rigid least-squares fit."""

import json

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from conftest import compose, geodesic_distance, load_pose_json
from equipose.errors import DegenerateConfiguration, InputError
from equipose.geometry import (
    Correspondences,
    RigidTransform,
    Rotation,
    fit_rigid_least_squares,
    load_correspondences_json,
    sample_uniform_rotation,
    save_pose_json,
)


def random_transform(rng) -> RigidTransform:
    return RigidTransform(sample_uniform_rotation(rng), rng.normal(scale=0.5, size=3))


def inverse(t: RigidTransform) -> RigidTransform:
    r = t.rotation.m.T
    return RigidTransform(Rotation(r), -(r @ t.translation))


class TestRotationSampling:
    def test_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r = sample_uniform_rotation(rng)
            assert np.max(np.abs(r.m.T @ r.m - np.eye(3))) <= 1e-9
            assert abs(np.linalg.det(r.m) - 1.0) <= 1e-9

    def test_deterministic_per_seed(self):
        a = sample_uniform_rotation(np.random.default_rng(1234))
        b = sample_uniform_rotation(np.random.default_rng(1234))
        np.testing.assert_array_equal(a.m, b.m)

    def test_mean_trace_matches_haar(self):
        # Monte-Carlo oracle: tr(R) = 4w^2 - 1 for a unit quaternion with
        # E[w^2] = 1/4 uniformly on S^3, so the Haar expectation of the trace
        # is 0 and the per-sample variance is 1.
        rng = np.random.default_rng(7)
        mean = np.mean([np.trace(sample_uniform_rotation(rng).m) for _ in range(10_000)])
        assert abs(mean) <= 0.05

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            Rotation(np.diag([1.0, 1.0, -1.0]))  # reflection
        with pytest.raises(ValueError):
            Rotation(np.eye(3) * 2.0)

    def test_rejects_nan_entry(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        with pytest.raises(ValueError, match="orthonormal"):
            Rotation(m)


class TestCompose:
    def test_identity(self):
        rng = np.random.default_rng(1)
        t = random_transform(rng)
        out = compose(t, RigidTransform(Rotation(np.eye(3)), np.zeros(3)))
        np.testing.assert_allclose(out.rotation.m, t.rotation.m, atol=1e-12)
        np.testing.assert_allclose(out.translation, t.translation, atol=1e-12)

    def test_inverse_gives_identity(self):
        rng = np.random.default_rng(2)
        t = random_transform(rng)
        out = compose(t, inverse(t))
        np.testing.assert_allclose(out.rotation.m, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(out.translation, np.zeros(3), atol=1e-9)

    def test_matches_double_application(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = random_transform(rng), random_transform(rng)
            x = rng.normal(size=(5, 3))
            np.testing.assert_allclose(
                compose(a, b).apply(x), a.apply(b.apply(x)), atol=1e-9
            )

    def test_transform_roundtrip(self):
        rng = np.random.default_rng(4)
        t = random_transform(rng)
        x = rng.normal(size=(8, 3))
        np.testing.assert_allclose(inverse(t).apply(t.apply(x)), x, atol=1e-9)


class TestGeodesic:
    def test_zero_for_equal(self):
        r = sample_uniform_rotation(np.random.default_rng(5))
        assert geodesic_distance(r, r) == 0.0

    def test_axis_angle_construction(self):
        # 0.3 rad about z, as the unit quaternion (cos 0.15, 0, 0, sin 0.15)
        r = Rotation.from_quaternion([np.cos(0.15), 0.0, 0.0, np.sin(0.15)])
        assert abs(geodesic_distance(Rotation(np.eye(3)), r) - 0.3) <= 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = sample_uniform_rotation(rng), sample_uniform_rotation(rng)
            assert abs(geodesic_distance(a, b) - geodesic_distance(b, a)) <= 1e-12


def test_squared_distances_equal_the_broadcast_sum():
    # the neighbour test of mean shift and every other pairwise squared
    # distance in the package is cdist's "sqeuclidean"; it must round exactly
    # as the broadcast sum does, or the flat kernel's boundary moves
    def broadcast(a, b):
        return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)

    rng = np.random.default_rng(3)
    pairs = []
    for scale in (1e-4, 1e-3, 1.0, 1e3):
        for shift in (0.0, 1e3, -1e3):
            a, b = rng.normal(scale=scale, size=(70, 3)), rng.normal(scale=scale, size=(50, 3))
            pairs.append((a + shift, b + shift))
    for h in (0.02, 0.25, 1.0):
        grid = np.stack(np.meshgrid(*[np.arange(5) * h] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        pairs += [(grid, grid), (grid + 1e3, grid + 1e3)]
    wide = rng.normal(size=(70, 6))
    pairs.append((wide[:, ::2], wide[:40, 1::2]))
    assert not pairs[-1][0].flags.c_contiguous
    for a, b in pairs:
        assert np.array_equal(cdist(a, b, "sqeuclidean"), broadcast(a, b))


class TestRigidFit:
    def test_identity_on_equal_clouds(self):
        rng = np.random.default_rng(7)
        src = rng.normal(size=(4, 3))
        fit = fit_rigid_least_squares(Correspondences(src, src))
        np.testing.assert_allclose(fit.rotation.m, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(fit.translation, np.zeros(3), atol=1e-9)

    def test_recovers_constructed_pose(self):
        rng = np.random.default_rng(8)
        pose = random_transform(rng)
        src = rng.normal(size=(8, 3))
        fit = fit_rigid_least_squares(Correspondences(src, pose.apply(src)))
        assert geodesic_distance(fit.rotation, pose.rotation) <= 1e-8
        assert np.linalg.norm(fit.translation - pose.translation) <= 1e-9

    def test_reflection_trap_returns_proper_rotation(self):
        rng = np.random.default_rng(9)
        # coplanar source, target mirrored through the xy plane
        src = rng.normal(size=(16, 3))
        src[:, 2] = 0.0
        src[:, 2] += 0.0
        target = src.copy()
        target[:, 0] *= -1.0  # reflection
        fit = fit_rigid_least_squares(Correspondences(src, target))
        assert np.linalg.det(fit.rotation.m) > 0.0

    def test_noiseless_recovery_sweep(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            m = int(rng.integers(3, 65))
            src = rng.normal(size=(m, 3))
            pose = random_transform(rng)
            fit = fit_rigid_least_squares(Correspondences(src, pose.apply(src)))
            assert geodesic_distance(fit.rotation, pose.rotation) <= 1e-7
            assert np.linalg.norm(fit.translation - pose.translation) <= 1e-8

    def test_left_invariance(self):
        rng = np.random.default_rng(11)
        src = rng.normal(size=(12, 3))
        pose = random_transform(rng)
        target = pose.apply(src)
        base = fit_rigid_least_squares(Correspondences(src, target))
        for _ in range(20):
            q = RigidTransform(sample_uniform_rotation(rng), np.zeros(3))
            rotated_fit = fit_rigid_least_squares(Correspondences(q.apply(src), target))
            recomposed = compose(rotated_fit, q)
            # matrix-entry comparison avoids the arccos noise floor near 0
            assert np.max(np.abs(recomposed.rotation.m - base.rotation.m)) <= 1e-8
            assert np.linalg.norm(recomposed.translation - base.translation) <= 1e-8

    def test_noise_monotonicity(self):
        rng = np.random.default_rng(12)
        medians = []
        for sigma in (0.0, 1e-3, 1e-2, 1e-1):
            errors = []
            for _ in range(200):
                src = rng.normal(size=(32, 3))
                pose = random_transform(rng)
                target = pose.apply(src) + rng.normal(scale=sigma, size=(32, 3))
                fit = fit_rigid_least_squares(Correspondences(src, target))
                errors.append(np.linalg.norm(fit.translation - pose.translation))
            medians.append(np.median(errors))
        assert all(medians[i] <= medians[i + 1] for i in range(len(medians) - 1))

    def test_collinear_raises(self):
        line = np.outer(np.linspace(0, 1, 10), [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateConfiguration):
            fit_rigid_least_squares(Correspondences(line, line + 0.1))

    def test_coincident_raises(self):
        pts = np.tile([0.3, -0.2, 0.9], (5, 1))
        with pytest.raises(DegenerateConfiguration):
            fit_rigid_least_squares(Correspondences(pts, pts))

    def test_coplanar_rank2_accepted(self):
        rng = np.random.default_rng(13)
        src = rng.normal(size=(10, 3))
        src[:, 2] = 0.0
        pose = random_transform(rng)
        fit = fit_rigid_least_squares(Correspondences(src, pose.apply(src)))
        assert geodesic_distance(fit.rotation, pose.rotation) <= 1e-7
        assert np.max(np.abs(fit.rotation.m.T @ fit.rotation.m - np.eye(3))) <= 1e-9

    def test_weighted_fit_ignores_zero_weight_outlier(self):
        rng = np.random.default_rng(14)
        src = rng.normal(size=(8, 3))
        pose = random_transform(rng)
        target = pose.apply(src)
        target[0] += 5.0  # gross outlier
        w = np.ones(8)
        w[0] = 0.0
        fit = fit_rigid_least_squares(Correspondences(src, target, weights=w))
        assert geodesic_distance(fit.rotation, pose.rotation) <= 1e-7


class TestCorrespondencesValidation:
    def test_too_few_points(self):
        with pytest.raises(InputError):
            Correspondences(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_negative_weights(self):
        pts = np.eye(3)
        with pytest.raises(ValueError):
            Correspondences(pts, pts, weights=[-1.0, 1.0, 1.0])

    def test_zero_weight_sum(self):
        pts = np.eye(3)
        with pytest.raises(ValueError):
            Correspondences(pts, pts, weights=[0.0, 0.0, 0.0])

    def test_non_finite_source(self):
        pts = np.eye(3)
        with pytest.raises(ValueError, match="source has a non-finite entry"):
            Correspondences([[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], pts)

    def test_non_finite_target(self):
        pts = np.eye(3)
        with pytest.raises(ValueError, match="target has a non-finite entry"):
            Correspondences(pts, [[1.0, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, 1.0]])

    def test_non_finite_weights(self):
        # NaN passes both `w < 0` and `w.sum() <= 0`, so it needs its own check
        pts = np.eye(3)
        with pytest.raises(ValueError, match="weights has a non-finite entry"):
            Correspondences(pts, pts, weights=[1.0, np.nan, 1.0])


def test_json_roundtrip(tmp_path):
    rng = np.random.default_rng(15)
    src = rng.normal(size=(5, 3))
    pose = random_transform(rng)
    corr_path = tmp_path / "corr.json"
    corr_path.write_text(
        json.dumps({"source": src.tolist(), "target": pose.apply(src).tolist()})
    )
    corr = load_correspondences_json(corr_path)
    fit = fit_rigid_least_squares(corr)
    pose_path = tmp_path / "pose.json"
    save_pose_json(pose_path, fit)
    loaded = load_pose_json(pose_path)
    np.testing.assert_array_equal(loaded.rotation.m, fit.rotation.m)
    np.testing.assert_allclose(loaded.rotation.m, pose.rotation.m, atol=1e-8)
    np.testing.assert_allclose(loaded.translation, pose.translation, atol=1e-8)
