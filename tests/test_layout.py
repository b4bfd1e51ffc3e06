"""Equal values give equal bits whatever their memory layout: each public
entry point gets the same arrays as a C array, a Fortran array and a strided
view, and its outputs must agree bit for bit."""

import dataclasses

import numpy as np
import pytest

from common import CHECKPOINT, SCENE_RECIPE, object_family
from equipose.geometry import (
    Correspondences,
    RigidTransform,
    fit_rigid_least_squares,
    sample_uniform_rotation,
)
from equipose.metrics import add, add_s, model_diameter
from equipose.model import lift_cloud, load_model
from equipose.pipeline import mean_shift_modes, run_pipeline, vote_keypoints
from equipose.synth import render_scene
from harness import scene_seed

# a scene of the golden network pool, on whose trained model the network
# pipeline detects an instance
MODELS, REGISTRY = object_family()
SCENE = render_scene(MODELS, SCENE_RECIPE, seed=scene_seed(1, 0))
MODEL = load_model(CHECKPOINT)


def layouts(a):
    """`a` as a C array, a Fortran array and the view big[:, 4] of a
    (len(a), 9, ...) array."""
    a = np.asarray(a, dtype=np.float64)
    big = np.zeros((len(a), 9, *a.shape[1:]))
    big[:, 4] = a
    return [np.ascontiguousarray(a), np.asfortranarray(a), big[:, 4]]


def holding(obj, **arrays):
    """A copy of the dataclass `obj` that holds each array of `arrays` itself,
    in its own layout. PointCloud and ObjectModel make what they are built
    from C-contiguous, so the copy is built from C arrays and the given ones
    are assigned after."""
    held = dataclasses.replace(obj, **{name: np.ascontiguousarray(a) for name, a in arrays.items()})
    for name, a in arrays.items():
        setattr(held, name, a)
        assert getattr(held, name) is a
    return held


def bits(x):
    """Every number in `x`, a nest of dataclasses, sequences and arrays, as bytes."""
    if dataclasses.is_dataclass(x):
        x = dataclasses.astuple(x)
    if isinstance(x, (list, tuple)):
        return [bits(y) for y in x]
    return np.asarray(x).tobytes()


CLOUD, ATTRS, OFFSETS = SCENE.cloud.points, SCENE.cloud.attributes, SCENE.gt_offsets
MEMBERS = np.nonzero(SCENE.labels > 0)[0]
V, APP_IN = MODEL.inputs(SCENE.cloud)
LIFT_KNOBS = (MODEL.cfg.lift_neighbors, MODEL.cfg.lift_scales, MODEL.cfg.lift_cap)
VERTICES = MODELS[0].vertices
GT, PRED = (
    RigidTransform(sample_uniform_rotation(np.random.default_rng(seed)), [0.01 * seed, 0.0, 0.5]) for seed in (1, 2)
)

ENTRY_POINTS = {
    # called directly, as are the arrays a PointCloud or ObjectModel holds
    "lift_cloud": (lambda p, a: lift_cloud(p, a, *LIFT_KNOBS), (CLOUD, ATTRS)),
    "forward": (lambda v, app: MODEL.forward(v, app), (V, APP_IN)),
    "mean_shift_modes": (lambda x: mean_shift_modes(x, 0.02), (CLOUD + OFFSETS[:, -1],)),
    "mean_shift_modes_one_mode": (lambda x: mean_shift_modes(x, 10.0), (CLOUD,)),
    "vote_keypoints": (lambda p, o: vote_keypoints(p, o, MEMBERS), (CLOUD, OFFSETS)),
    "run_pipeline_oracle": (
        lambda p, a, o: run_pipeline(
            holding(SCENE.cloud, points=p, attributes=a), None, REGISTRY, oracle=(SCENE.labels, o)
        ),
        (CLOUD, ATTRS, OFFSETS),
    ),
    "run_pipeline_network": (
        lambda p, a: run_pipeline(holding(SCENE.cloud, points=p, attributes=a), MODEL, REGISTRY),
        (CLOUD, ATTRS),
    ),
    "fit_rigid_least_squares": (
        lambda s, t: fit_rigid_least_squares(Correspondences(source=s, target=t)),
        (VERTICES, GT.apply(VERTICES) + 1e-3 * np.sin(VERTICES)),
    ),
    "add": (lambda v: add(GT, PRED, holding(MODELS[0], vertices=v)), (VERTICES,)),
    "add_s": (lambda v: add_s(GT, PRED, holding(MODELS[0], vertices=v)), (VERTICES,)),
    "model_diameter": (model_diameter, (VERTICES,)),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_bits_do_not_depend_on_layout(name):
    entry, arrays = ENTRY_POINTS[name]
    outputs = [bits(entry(*same)) for same in zip(*(layouts(a) for a in arrays))]
    assert outputs[1] == outputs[0], "Fortran order"
    assert outputs[2] == outputs[0], "strided view"


def test_layouts_differ():
    c, fortran, view = layouts(CLOUD)
    assert c.flags.c_contiguous and not fortran.flags.c_contiguous and not view.flags.c_contiguous
    assert np.array_equal(c, fortran) and np.array_equal(c, view)
