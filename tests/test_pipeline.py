"""Tests for mean-shift voting, instance assignment, and the second stage."""

import numpy as np
import pytest

from conftest import compose, geodesic_distance
from equipose import pipeline
from equipose.backproject import PointCloud
from equipose.geometry import (
    Correspondences,
    RigidTransform,
    fit_rigid_least_squares,
    sample_uniform_rotation,
)
from equipose.metrics import add
from equipose.pipeline import (
    PipelineConfig,
    assign_instances,
    detections_from_json,
    detections_to_json,
    mean_shift_modes,
    run_pipeline,
    vote_keypoints,
)
from equipose.synth import Registry, SceneConfig, make_default_models, render_scene
from test_acceptance import SCENE_RECIPE

RNG = np.random.default_rng


def dense_mean_shift_modes(x, bandwidth, max_iter=50, tol=1e-6, max_seeds=256):
    """Reference: the original loop that iterates every seed over all points."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        return np.zeros((0, x.shape[1] if x.ndim == 2 else 0)), np.zeros(0, dtype=int)
    stride = max(1, int(np.ceil(n / max_seeds)))
    modes = x[::stride].copy()
    h2 = bandwidth * bandwidth
    for _ in range(max_iter):
        d2 = ((modes[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
        within = d2 <= h2
        counts = within.sum(axis=1)
        counts = np.maximum(counts, 1)  # isolated seed keeps its own position
        new_modes = (within @ x) / counts[:, None]
        empty = ~within.any(axis=1)
        if empty.any():
            new_modes[empty] = modes[empty]
        shift = np.linalg.norm(new_modes - modes, axis=1).max()
        modes = new_modes
        if shift < tol:
            break
    d2 = ((modes[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
    counts = (d2 <= h2).sum(axis=1)
    order = np.lexsort((np.arange(len(modes)), -counts))
    kept = []
    kept_counts = []
    for i in order:
        if all(np.sum((modes[i] - modes[j]) ** 2) > h2 for j in kept):
            kept.append(i)
            kept_counts.append(counts[i])
    return modes[kept], np.asarray(kept_counts, dtype=int)


def _two_clusters():
    rng = RNG(0)
    a = rng.normal(0.0, 0.005, size=(120, 3))
    b = rng.normal(0.0, 0.005, size=(80, 3)) + np.array([0.5, 0.0, 0.0])
    return np.vstack([a, b]), {"bandwidth": 0.05}


def _coincident():
    # oracle centre votes: point + (centre - point) differ only by rounding,
    # so every seed is distinct at first and all collapse on iteration 1
    points = RNG(3).normal(size=(300, 3)) * 0.1
    return points + (np.array([0.2, -0.1, 0.5]) - points), {"bandwidth": 0.02}


def _outliers():
    rng = RNG(7)
    votes = rng.normal(size=3) * 0.1 + rng.normal(0, 0.005, size=(400, 3))
    corrupt = rng.choice(400, size=120, replace=False)
    votes[corrupt] = rng.uniform(-0.5, 0.5, size=(120, 3))
    return votes, {"bandwidth": 0.02}


def _equal_count_ties():
    # three equal, tight, well-separated clusters; the one listed first holds
    # the lowest seed index and must win every tie
    rng = RNG(4)
    centres = np.array([[0.3, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.3, 0.0]])
    blob = rng.normal(0.0, 1e-4, size=(40, 3))
    return np.vstack([c + blob for c in centres]), {"bandwidth": 0.02}


def _stopped_early():
    return RNG(5).normal(size=(500, 3)), {"bandwidth": 0.4, "max_iter": 3}


BALL_H = 0.02


def _one_ball():
    # every vote lies within 0.26 h of the centroid, so the call returns the
    # mean of all votes at once
    votes = np.array([0.1, -0.2, 0.4]) + RNG(8).uniform(-0.15, 0.15, size=(300, 3)) * BALL_H
    return votes, {"bandwidth": BALL_H}


def _certified_seeds_one_far_vote():
    # the 300 votes stride to the 150 even-index seeds, all within ~0.1 h of
    # the centroid; vote 1, which is no seed, lies 0.6 h out, so 2 rho > h and
    # the call runs the loop, yet every seed's row holds every vote
    votes = RNG(15).normal(0.0, 0.02 * BALL_H, size=(300, 3))
    votes[1] = [0.6 * BALL_H, 0.0, 0.0]
    return votes + np.array([0.1, -0.2, 0.4]), {"bandwidth": BALL_H}


def _both_sides_of_bound():
    # a tight core near the centroid (|x - c| <= ~0.1 h) holds every vote in
    # its rows; a ring vote at 0.7 h does not reach the far side of the ring
    rng = RNG(9)
    core = rng.normal(0.0, 0.02 * BALL_H, size=(200, 3))
    ring = rng.normal(size=(40, 3))
    ring *= 0.7 * BALL_H / np.linalg.norm(ring, axis=1, keepdims=True)
    return np.vstack([core, ring]) + np.array([0.3, 0.1, -0.2]), {"bandwidth": BALL_H}


def _open_row_holding_every_point():
    # a tight core and one vote 0.6 h away: 2 rho > h, so the call runs the
    # loop, yet every vote lies within h of the far vote, whose row holds them all
    rng = RNG(10)
    core = rng.normal(0.0, 0.02 * BALL_H, size=(100, 3))
    far = core.mean(axis=0) + [0.6 * BALL_H, 0.0, 0.0]
    return np.vstack([core, far]) + np.array([-0.1, 0.2, 0.3]), {"bandwidth": BALL_H}


def _vote_at_exactly_h():
    # binary-exact coordinates: P1 - P0 = (0.375, 0.5, 0) has length 0.625 = h
    # exactly; P2 sits 2^-20 beyond h from P0. One step moves P0 and P1 to their
    # exact midpoint only if the neighbour test is `<= h^2`.
    p0 = np.array([0.25, 0.5, 0.0])
    x = np.array([p0, p0 + [0.375, 0.5, 0.0], p0 - [0.375, 0.5 + 2.0**-20, 0.0]])
    return x, {"bandwidth": 0.625, "max_iter": 1}


def _assert_matches_dense(x, kw):
    """Same counts as dense_mean_shift_modes and modes within 1e-12."""
    modes, counts = mean_shift_modes(x, **kw)
    ref_modes, ref_counts = dense_mean_shift_modes(x, **kw)
    assert len(modes) == len(ref_modes)
    np.testing.assert_array_equal(counts, ref_counts)
    np.testing.assert_allclose(modes, ref_modes, rtol=0, atol=1e-12)


class TestMeanShiftMatchesDenseReference:
    @pytest.mark.parametrize(
        "make",
        [
            _two_clusters,
            _coincident,
            _outliers,
            _equal_count_ties,
            _stopped_early,
            _one_ball,
            _certified_seeds_one_far_vote,
            _both_sides_of_bound,
            _open_row_holding_every_point,
            _vote_at_exactly_h,
        ],
    )
    def test_same_modes_and_counts(self, make):
        x, kw = make()
        _assert_matches_dense(x, kw)

    def test_ties_go_to_lowest_seed_index(self):
        x, kw = _equal_count_ties()
        modes, counts = mean_shift_modes(x, **kw)
        assert len(modes) == 3 and len(set(counts.tolist())) == 1
        np.testing.assert_allclose(modes[0], [0.3, 0.0, 0.0], atol=1e-3)

    def test_early_stop_leaves_many_modes(self):
        x, kw = _stopped_early()
        modes, _ = mean_shift_modes(x, **kw)
        converged, _ = mean_shift_modes(x, kw["bandwidth"])
        assert len(modes) > len(converged)

    def test_boundary_vote_is_a_neighbour(self):
        x, kw = _vote_at_exactly_h()
        modes, counts = mean_shift_modes(x, **kw)
        np.testing.assert_array_equal(modes, [(x[0] + x[1]) / 2, x[2]])
        np.testing.assert_array_equal(counts, [2, 1])


def _neighbour_row_builds(monkeypatch):
    """Spy on pipeline._neighbour_rows, which builds every neighbour row: the
    row count of each call against n points, as (rows, n) pairs in call
    order."""
    calls = []
    real = pipeline._neighbour_rows

    def spy(m, x, *rest):
        calls.append((len(m), len(x)))
        return real(m, x, *rest)

    monkeypatch.setattr(pipeline, "_neighbour_rows", spy)
    return calls


def _seed_sorts(monkeypatch):
    """Spy on pipeline._distinct_rows, which sorts the seeds and then the
    positions of each iteration: the row count of each call."""
    calls = []
    real = pipeline._distinct_rows

    def spy(a):
        calls.append(len(a))
        return real(a)

    monkeypatch.setattr(pipeline, "_distinct_rows", spy)
    return calls


def _gaussian():
    # learned-vote scale: a 1 cm spread against a 2 cm bandwidth
    return RNG(14).normal(0.0, 0.01, size=(400, 3)), {"bandwidth": 0.02}


def _lattice(h, shift=0.0):
    # a 5 x 5 x 5 grid whose spacing is h: every lattice neighbour sits at
    # h (up to the rounding of i * h), on the boundary of the neighbour test
    grid = np.stack(np.meshgrid(*[np.arange(5) * h] * 3, indexing="ij"), axis=-1)
    return grid.reshape(-1, 3) + shift, {"bandwidth": h}


def _moved(make, scale=1.0, shift=0.0):
    def moved():
        x, kw = make()
        return x * scale + shift, {**kw, "bandwidth": kw["bandwidth"] * scale}

    return moved


class TestExactFallback:
    @pytest.mark.parametrize("shift", [0.0, 1e3], ids=["origin", "shifted_1e3"])
    @pytest.mark.parametrize("h", [0.02, 0.25, 1.0])
    def test_lattice_at_bandwidth_spacing(self, h, shift):
        x, kw = _lattice(h, shift)
        _assert_matches_dense(x, kw)

    @pytest.mark.parametrize(
        "make",
        [
            _moved(_gaussian, shift=1e3),
            _moved(_gaussian, shift=-1e3),
            _moved(_gaussian, scale=1e-4),
            _moved(_outliers, shift=1e3),
            _moved(_outliers, scale=1e-4),
        ],
        ids=["gaussian+1e3", "gaussian-1e3", "gaussian*1e-4", "outliers+1e3", "outliers*1e-4"],
    )
    def test_moved_pools_match_the_dense_reference(self, make):
        # translating a pool far from the origin or shrinking it changes no
        # neighbour set or count
        x, kw = make()
        _assert_matches_dense(x, kw)


def _fits_at(side):
    # a core and two opposite votes: the bandwidth puts 2 rho a relative 1e-12
    # below or above h (1 - 1e-9), rho measured as mean_shift_modes does
    rng = RNG(16)
    x = np.vstack([rng.normal(0.0, 0.01, size=(60, 3)), [[0.3, 0.0, 0.0], [-0.3, 0.0, 0.0]]])
    x += np.array([0.2, 0.1, -0.3])
    xc = x - x.mean(axis=0)
    rho = np.sqrt(np.einsum("ij,ij->i", xc, xc).max())
    h = 2.0 * rho / (1.0 - 1e-9) * (1.0 + {"below": 1e-12, "above": -1e-12}[side])
    return x, {"bandwidth": h}


class TestWholeSetCertificate:
    def test_set_within_half_a_bandwidth_returns_its_mean_at_once(self, monkeypatch):
        x, kw = _one_ball()
        sorts, rows = _seed_sorts(monkeypatch), _neighbour_row_builds(monkeypatch)
        modes, counts = mean_shift_modes(x, **kw)
        np.testing.assert_array_equal(modes, (np.ones((1, len(x))) @ x) / len(x))
        np.testing.assert_array_equal(counts, [len(x)])
        assert sorts == [] and rows == []
        _assert_matches_dense(x, kw)

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_bound_decides_between_mean_and_loop(self, monkeypatch, side):
        x, kw = _fits_at(side)
        sorts = _seed_sorts(monkeypatch)
        _assert_matches_dense(x, kw)
        assert (len(sorts) == 0) == (side == "below")

    def test_zero_iterations_return_the_first_seed(self, monkeypatch):
        # the loop never moves a seed, so the call keeps seed 0, which holds
        # every vote and the lowest seed index
        x, kw = _one_ball()
        sorts = _seed_sorts(monkeypatch)
        modes, counts = mean_shift_modes(x, **kw, max_iter=0)
        np.testing.assert_array_equal(modes, x[:1])
        np.testing.assert_array_equal(counts, [len(x)])
        assert sorts == [150]
        _assert_matches_dense(x, {**kw, "max_iter": 0})


def test_distinct_rows_matches_unique():
    rows = np.array(
        [[1.0, 2.0, 3.0], [0.0, 5.0, 1.0], [1.0, 2.0, 3.0], [1.0, 0.0, 9.0],
         [0.0, 5.0, 0.0], [1.0, 2.0, 2.0], [0.0, 5.0, 1.0], [-1.0, 7.0, 7.0]]
    )
    got, got_inverse = pipeline._distinct_rows(rows)
    want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got_inverse, want_inverse.reshape(-1))


class TestMeanShift:
    def test_coincident_points_single_mode(self):
        x = np.tile([0.2, -0.1, 0.5], (40, 1))
        modes, counts = mean_shift_modes(x, bandwidth=0.02)
        assert len(modes) == 1
        np.testing.assert_allclose(modes[0], [0.2, -0.1, 0.5], atol=1e-12)
        assert counts[0] == 40

    def test_two_well_separated_clusters(self):
        rng = RNG(0)
        a = rng.normal(0.0, 0.005, size=(120, 3))
        b = rng.normal(0.0, 0.005, size=(80, 3)) + np.array([0.5, 0.0, 0.0])
        x = np.vstack([a, b])
        modes, counts = mean_shift_modes(x, bandwidth=0.05)
        assert len(modes) == 2
        assert counts[0] >= counts[1]
        np.testing.assert_allclose(modes[0], [0.0, 0.0, 0.0], atol=5e-3)
        np.testing.assert_allclose(modes[1], [0.5, 0.0, 0.0], atol=5e-3)

    def test_cluster_assignment(self):
        rng = RNG(1)
        a = rng.normal(0.0, 0.004, size=(60, 3))
        b = rng.normal(0.0, 0.004, size=(60, 3)) + np.array([0.0, 0.4, 0.0])
        x = np.vstack([a, b])
        instances = assign_instances(np.ones(120, dtype=int), x)
        assert len(instances) == 2
        groups = [set(members) for _, members in instances]
        assert set(range(60)) in groups
        assert set(range(60, 120)) in groups

    def test_deterministic(self):
        rng = RNG(2)
        x = rng.normal(size=(300, 3))
        m1, c1 = mean_shift_modes(x, bandwidth=0.5)
        m2, c2 = mean_shift_modes(x, bandwidth=0.5)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(c1, c2)


class TestAssignInstances:
    def test_single_object_single_instance(self):
        rng = RNG(3)
        labels = np.array([1] * 80 + [0] * 20)
        votes = np.zeros((100, 3))
        votes[:80] = np.array([0.1, 0.2, 0.6]) + rng.normal(0, 1e-4, size=(80, 3))
        votes[80:] = rng.uniform(-1, 1, size=(20, 3))
        instances = assign_instances(labels, votes)
        assert len(instances) == 1
        cls, members = instances[0]
        assert cls == 1
        assert set(members) == set(range(80))

    def test_two_same_class_instances_split(self):
        rng = RNG(4)
        n = 250
        labels = np.ones(2 * n, dtype=int)
        votes = np.vstack(
            [
                rng.normal(0.0, 0.005, size=(n, 3)),
                rng.normal(0.0, 0.005, size=(n, 3)) + np.array([0.5, 0.0, 0.0]),
            ]
        )
        instances = assign_instances(labels, votes)
        assert len(instances) == 2
        for expected, (_, members) in zip((set(range(n)), set(range(n, 2 * n))), instances):
            overlap = len(expected & set(members)) / n
            assert overlap >= 0.99

    def test_all_background_empty(self):
        assert assign_instances(np.zeros(50, dtype=int), np.zeros((50, 3))) == []

    def test_small_clusters_dropped(self):
        labels = np.array([1] * 10)  # below min_points
        votes = np.zeros((10, 3))
        assert assign_instances(labels, votes) == []


class TestVoteKeypoints:
    def test_exact_offsets_recover_keypoints(self):
        rng = RNG(5)
        points = rng.normal(size=(60, 3))
        keypoints = rng.normal(size=(4, 3))
        center = rng.normal(size=3)
        targets = np.vstack([keypoints, center[None]])
        offsets = targets[None, :, :] - points[:, None, :]
        voted_kp, voted_center, frac = vote_keypoints(points, offsets, np.arange(60))
        assert np.max(np.abs(voted_kp - keypoints)) <= 1e-9
        assert np.max(np.abs(voted_center - center)) <= 1e-9
        assert frac == 1.0

    def test_gaussian_noise_concentration(self):
        # mode of ~500 votes with sigma = 5 mm lands within 3*sigma/sqrt(500)
        rng = RNG(6)
        hits = 0
        trials = 200
        bound = 3 * 0.005 / np.sqrt(500)
        for _ in range(trials):
            points = rng.normal(size=(500, 3))
            keypoint = rng.normal(size=3)
            offsets = (keypoint[None] - points)[:, None, :] + rng.normal(
                0, 0.005, size=(500, 1, 3)
            )
            offsets = np.concatenate([offsets, offsets], axis=1)  # kp + center slots
            voted_kp, _, _ = vote_keypoints(points, offsets, np.arange(500))
            if np.linalg.norm(voted_kp[0] - keypoint) <= bound:
                hits += 1
        assert hits / trials >= 0.95

    def test_outlier_contamination(self):
        rng = RNG(7)
        trials = 200
        hits = 0
        for _ in range(trials):
            n = 400
            points = rng.normal(size=(n, 3)) * 0.1
            keypoint = rng.normal(size=3) * 0.1
            votes = keypoint[None] + rng.normal(0, 0.005, size=(n, 3))
            n_out = int(0.3 * n)
            corrupt = rng.choice(n, size=n_out, replace=False)
            votes[corrupt] = rng.uniform(-0.5, 0.5, size=(n_out, 3))
            offsets = (votes - points)[:, None, :]
            offsets = np.concatenate([offsets, offsets], axis=1)
            voted_kp, _, frac = vote_keypoints(points, offsets, np.arange(n))
            assert 0.0 <= frac <= 1.0
            if np.linalg.norm(voted_kp[0] - keypoint) <= 2e-3:
                hits += 1
        assert hits / trials >= 0.90


class TestEstimatePose:
    """The second stage's pose fit: the model's keypoints onto the voted ones."""

    def test_exact_recovery(self):
        rng = RNG(8)
        models = make_default_models(seed=0, n_vertices=120, n_keypoints=6)
        model = models[2]
        pose = RigidTransform(sample_uniform_rotation(rng), rng.normal(size=3))
        fit = fit_rigid_least_squares(Correspondences(model.keypoints, pose.apply(model.keypoints)))
        assert np.max(np.abs(fit.rotation.m - pose.rotation.m)) <= 1e-8
        assert np.linalg.norm(fit.translation - pose.translation) <= 1e-8

    def test_noise_sweep_monotone(self):
        rng = RNG(9)
        models = make_default_models(seed=0, n_vertices=120, n_keypoints=8)
        model = models[2]
        medians = []
        for sigma in (0.0, 1e-3, 1e-2):
            errs = []
            for _ in range(100):
                pose = RigidTransform(sample_uniform_rotation(rng), rng.normal(size=3))
                voted = pose.apply(model.keypoints) + rng.normal(0, sigma, size=(8, 3))
                fit = fit_rigid_least_squares(Correspondences(model.keypoints, voted))
                errs.append(geodesic_distance(fit.rotation, pose.rotation))
            medians.append(np.median(errs))
        assert medians[0] <= medians[1] <= medians[2]

    def test_minimal_three_keypoints(self):
        rng = RNG(10)
        keypoints = np.array([[0.0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]])
        pose = RigidTransform(sample_uniform_rotation(rng), rng.normal(size=3))
        fit = fit_rigid_least_squares(Correspondences(keypoints, pose.apply(keypoints)))
        assert geodesic_distance(fit.rotation, pose.rotation) <= 1e-7


class TestSecondStage:
    def test_oracle_scene_recovers_poses(self):
        models = make_default_models(seed=0, n_vertices=400)
        registry = Registry(models)
        for seed in range(5):
            scene = render_scene(
                models,
                SceneConfig(noise_sigma=0.0, occlusion=(0.2, 0.2), n_background=40),
                seed=100 + seed,
            )
            detections = run_pipeline(
                scene.cloud, None, registry, oracle=(scene.labels, scene.gt_offsets)
            )
            assert len(detections) == len(scene.gt_poses)
            for cls, gt_pose in scene.gt_poses:
                det = next(d for d in detections if d.class_id == cls)
                assert add(gt_pose, det.pose, registry.lookup(cls)) <= 1e-6
                assert 0.0 <= det.inlier_fraction <= 1.0

    def test_empty_cloud(self):
        registry = Registry(make_default_models(seed=0, n_vertices=60, n_keypoints=4))
        empty = PointCloud(points=np.zeros((0, 3)), attributes=np.zeros((0, 3)))
        assert run_pipeline(empty, None, registry) == []

    def test_second_stage_equivariance(self):
        # rotating cloud and oracle offsets together rotates the fitted pose
        models = make_default_models(seed=0, n_vertices=400)
        registry = Registry(models)
        scene = render_scene(
            models, SceneConfig(noise_sigma=0.0, occlusion=(0.1, 0.1)), seed=200
        )
        base = run_pipeline(
            scene.cloud, None, registry, oracle=(scene.labels, scene.gt_offsets)
        )[0]
        rng = RNG(11)
        for _ in range(5):
            q = sample_uniform_rotation(rng)
            rotated_cloud = PointCloud(
                points=q.apply(scene.cloud.points), attributes=scene.cloud.attributes
            )
            rotated_offsets = scene.gt_offsets @ q.m.T
            det = run_pipeline(
                rotated_cloud, None, registry, oracle=(scene.labels, rotated_offsets)
            )[0]
            expected = compose(RigidTransform(q, np.zeros(3)), base.pose)
            assert geodesic_distance(det.pose.rotation, expected.rotation) <= 1e-7
            assert np.linalg.norm(det.pose.translation - expected.translation) <= 1e-7

    def test_determinism(self):
        models = make_default_models(seed=0, n_vertices=300)
        registry = Registry(models)
        scene = render_scene(
            models, SceneConfig(noise_sigma=0.003, occlusion=(0.2, 0.2), n_background=30), seed=300
        )
        a = run_pipeline(scene.cloud, None, registry, oracle=(scene.labels, scene.gt_offsets))
        b = run_pipeline(scene.cloud, None, registry, oracle=(scene.labels, scene.gt_offsets))
        assert len(a) == len(b)
        for d1, d2 in zip(a, b):
            np.testing.assert_array_equal(d1.keypoints, d2.keypoints)
            np.testing.assert_array_equal(d1.pose.rotation.m, d2.pose.rotation.m)

    @pytest.mark.parametrize("offset_noise", [0.0, 0.004], ids=["oracle", "noisy_offsets"])
    def test_same_detections_as_dense_reference(self, monkeypatch, offset_noise):
        # most calls on oracle offsets return the mean of all votes at once;
        # most calls on noisy offsets run the loop
        models = make_default_models(seed=0, n_vertices=400)
        registry = Registry(models)
        scene = render_scene(
            models,
            SceneConfig(noise_sigma=0.002, occlusion=(0.2, 0.2), n_background=40, n_instances=3),
            seed=500,
        )
        offsets = scene.gt_offsets + RNG(13).normal(0.0, offset_noise, scene.gt_offsets.shape)
        oracle = (scene.labels, offsets)
        shipped = run_pipeline(scene.cloud, None, registry, oracle=oracle)
        monkeypatch.setattr(pipeline, "mean_shift_modes", dense_mean_shift_modes)
        dense = run_pipeline(scene.cloud, None, registry, oracle=oracle)
        assert len(shipped) == len(dense) == 3
        for got, ref in zip(shipped, dense):
            got_d, ref_d = got.to_dict(), ref.to_dict()
            # neighbour sets are exact, so everything counted is equal; the
            # voted positions may differ in the last bits of BLAS row sums
            for key in ("class", "indices", "inlier_fraction"):
                assert got_d[key] == ref_d[key]
            for key in ("keypoints", "center"):
                np.testing.assert_allclose(got_d[key], ref_d[key], rtol=0, atol=1e-12)
            for key in ("rotation", "translation"):
                np.testing.assert_allclose(got_d["pose"][key], ref_d["pose"][key], rtol=0, atol=1e-12)

    def test_oracle_votes_take_no_seed_sort_and_no_row(self, monkeypatch):
        # every oracle vote of a single-instance scene fits within half a
        # bandwidth, so each call returns its mean at once
        models = make_default_models(seed=0, n_vertices=600)
        registry = Registry(models)
        sorts, rows = _seed_sorts(monkeypatch), _neighbour_row_builds(monkeypatch)
        for seed in range(500, 530):
            scene = render_scene(models, SCENE_RECIPE, seed=seed)
            detections = run_pipeline(scene.cloud, None, registry, oracle=(scene.labels, scene.gt_offsets))
            assert len(detections) == 1
            assert sorts == [] and rows == [], f"scene {seed}"

    def test_every_traced_step_is_reached_through_the_module(self, monkeypatch):
        # the benchmark's tracer patches these module attributes, so a call
        # that bypasses them would drop out of its per-layer profile
        calls = {}

        def count(name):
            real = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, wrapper)

        for name in ("assign_instances", "vote_keypoints", "mean_shift_modes", "fit_rigid_least_squares"):
            count(name)
        models = make_default_models(seed=0, n_vertices=300, n_keypoints=6)
        poses = [
            (1, RigidTransform(sample_uniform_rotation(RNG(14)), np.array([x, 0.0, 0.6])))
            for x in (-0.15, 0.15)
        ]
        scene = render_scene(models, SceneConfig(poses=poses), seed=14)
        detections = run_pipeline(
            scene.cloud, None, Registry(models), oracle=(scene.labels, scene.gt_offsets)
        )
        assert len(detections) == 2
        # one center grouping for the one class, then 6 keypoint slots and
        # the center slot for each of the two instances
        assert calls == {
            "assign_instances": 1,
            "mean_shift_modes": 1 + 2 * 7,
            "vote_keypoints": 2,
            "fit_rigid_least_squares": 2,
        }

    def test_settings_keep_their_values(self):
        assert pipeline.CONFIG == PipelineConfig() == PipelineConfig(0.05, 0.02, 20)

    def test_degenerate_instance_skipped_with_warning(self):
        registry = Registry(make_default_models(seed=0, n_vertices=60, n_keypoints=4))
        points = RNG(12).normal(size=(40, 3))
        labels = np.ones(40, dtype=int)
        offsets = np.zeros((40, 5, 3))
        offsets[:, :, :] = -points[:, None, :]  # all votes collapse to the origin
        cloud = PointCloud(points=points, attributes=np.full((40, 3), 0.5))
        with pytest.warns(UserWarning):
            detections = run_pipeline(cloud, None, registry, oracle=(labels, offsets))
        assert detections == []


def test_detections_json_roundtrip(tmp_path):
    models = make_default_models(seed=0, n_vertices=300)
    registry = Registry(models)
    scene = render_scene(models, SceneConfig(noise_sigma=0.0), seed=400)
    detections = run_pipeline(
        scene.cloud, None, registry, oracle=(scene.labels, scene.gt_offsets)
    )
    path = tmp_path / "detections.json"
    detections_to_json(path, detections, scene_index=4)
    loaded = detections_from_json(path)
    assert len(loaded) == len(detections)
    for a, b in zip(detections, loaded):
        assert a.class_id == b.class_id
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_allclose(a.pose.rotation.m, b.pose.rotation.m, atol=1e-15)
        np.testing.assert_allclose(a.keypoints, b.keypoints, atol=1e-15)
        assert a.inlier_fraction == b.inlier_fraction
