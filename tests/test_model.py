"""Tests for the point-cloud lift: its neighbour means against the gather
formula, bit for bit, on both sides of the dense neighbour search's limit,
and its two knobs, lift_cap and lift_scales."""

import dataclasses

import numpy as np
import pytest

from common import SCENE_RECIPE, object_family
from conftest import lift_cloud_gather
from equipose import model
from equipose.model import DENSE_NEIGHBOURS_MAX_POINTS, ModelConfig, PoseModel, lift_cloud
from equipose.synth import render_scene
from harness import WORKLOADS, scene_seed

RNG = np.random.default_rng
DEFAULT = ModelConfig(n_classes=4)
# a cap no channel of an acceptance scene comes near: the lift uncapped
NO_CAP = 1e6


@pytest.fixture(scope="module")
def pool_clouds():
    """perfbench's seed-1 scene pool of the train workloads."""
    objects, _ = object_family()
    pool = range(WORKLOADS["train"].pool)
    return [render_scene(objects, SCENE_RECIPE, seed=scene_seed(1, i)).cloud for i in pool]


@pytest.fixture(scope="module")
def crowded_cloud():
    """A 3-instance acceptance scene, more points than the distance matrix takes."""
    objects, _ = object_family()
    cloud = render_scene(objects, dataclasses.replace(SCENE_RECIPE, n_instances=3), seed=scene_seed(1, 0)).cloud
    assert len(cloud) > DENSE_NEIGHBOURS_MAX_POINTS + 1
    return cloud


def _both(points, attributes, neighbors=DEFAULT.lift_neighbors):
    args = (neighbors, DEFAULT.lift_scales, DEFAULT.lift_cap)
    return lift_cloud(points, attributes, *args), lift_cloud_gather(points, attributes, *args)


class TestLiftMatchesGather:
    def test_train_pool_scenes(self, pool_clouds):
        for i, cloud in enumerate(pool_clouds):
            got, ref = _both(cloud.points, cloud.attributes)
            assert np.array_equal(got, ref), f"scene {scene_seed(1, i)}"

    @pytest.mark.parametrize(
        "n, neighbors",
        [
            (1, 4),  # no neighbour: both edge channels are zero
            (2, 4),  # one neighbour at both scales
            (3, 4),  # n - 1 <= k: near and far sets are the same points
            (40, 16),  # n - 1 < 4k: the far set is every other point
            (300, 4),
        ],
    )
    def test_small_and_saturated_clouds(self, n, neighbors):
        rng = RNG(n)
        points = rng.normal(0.0, 0.05, size=(n, 3))
        colors = rng.uniform(0.0, 1.0, size=(n, 3))
        got, ref = _both(points, colors, neighbors)
        assert np.array_equal(got, ref)

    def test_duplicated_points(self):
        # the tree returns a duplicate or the point itself first, so idx[:, 0]
        # need not be the point: both must skip the same column
        rng = RNG(5)
        half = rng.normal(0.0, 0.05, size=(60, 3))
        points = np.concatenate([half, half, half[:7]])
        got, ref = _both(points, rng.uniform(size=points.shape), 4)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n", [DENSE_NEIGHBOURS_MAX_POINTS, DENSE_NEIGHBOURS_MAX_POINTS + 1, None])
    def test_either_side_of_the_dense_search_limit(self, crowded_cloud, n):
        # the largest cloud the distance matrix takes, the smallest the tree
        # takes, and the whole scene
        got, ref = _both(crowded_cloud.points[:n], crowded_cloud.attributes[:n])
        assert np.array_equal(got, ref)

    def test_distance_matrix_only_up_to_the_limit(self, crowded_cloud, monkeypatch):
        rows, cdist = [], model.cdist
        monkeypatch.setattr(model, "cdist", lambda a, *rest: rows.append(len(a)) or cdist(a, *rest))
        knobs = (DEFAULT.lift_neighbors, DEFAULT.lift_scales, DEFAULT.lift_cap)
        for n in (DENSE_NEIGHBOURS_MAX_POINTS, DENSE_NEIGHBOURS_MAX_POINTS + 1, None):
            lift_cloud(crowded_cloud.points[:n], crowded_cloud.attributes[:n], *knobs)
        assert rows == [DENSE_NEIGHBOURS_MAX_POINTS]


class TestLiftKnobs:
    @pytest.fixture(scope="class")
    def cloud(self):
        objects, _ = object_family()
        return render_scene(objects, SCENE_RECIPE, seed=scene_seed(1, 0)).cloud

    @staticmethod
    def _lift(cloud, **knobs):
        return PoseModel(ModelConfig(n_classes=4, **knobs)).inputs(cloud)[0]

    def test_cap_bounds_every_channel_and_keeps_its_direction(self, cloud):
        cap = 0.5
        free = self._lift(cloud, lift_cap=NO_CAP)
        capped = self._lift(cloud, lift_cap=cap)
        free_norms = np.linalg.norm(free, axis=0)  # (8, N)
        assert free_norms.max() < NO_CAP
        over = free_norms > cap
        assert over.any() and not over.all()
        norms = np.linalg.norm(capped, axis=0)
        assert np.all(norms <= cap * (1 + 1e-12))
        np.testing.assert_allclose(norms[over], cap, rtol=1e-12)
        # a channel over the cap is the free one shortened; one under it is untouched
        np.testing.assert_allclose(capped, free * np.minimum(1.0, cap / free_norms), rtol=1e-12, atol=0)
        assert np.array_equal(capped[:, ~over], free[:, ~over])

    @pytest.mark.parametrize("channel", range(len(DEFAULT.lift_scales)))
    def test_scale_multiplies_its_channel_before_the_cap(self, cloud, channel):
        scales = list(DEFAULT.lift_scales)
        scales[channel] *= 4.0  # a power of two: the scaled channel is exact
        free = self._lift(cloud, lift_cap=NO_CAP)
        free_scaled = self._lift(cloud, lift_cap=NO_CAP, lift_scales=tuple(scales))
        others = np.arange(free.shape[1]) != channel
        assert np.array_equal(free_scaled[:, channel], 4.0 * free[:, channel])
        assert np.array_equal(free_scaled[:, others], free[:, others])
        # with the cap, the scaled channel saturates at the cap, not at 4 caps
        cap = DEFAULT.lift_cap
        capped = self._lift(cloud, lift_scales=tuple(scales))
        norms = np.linalg.norm(capped[:, channel], axis=0)
        assert np.all(norms <= cap * (1 + 1e-12))
        wanted = 4.0 * np.linalg.norm(free[:, channel], axis=0)
        assert (wanted > cap).any() and (wanted < cap).any()
        np.testing.assert_allclose(norms, np.minimum(wanted, cap), rtol=1e-12)
