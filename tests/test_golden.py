"""Golden numbers, regenerated by tests/golden/make_golden.py:

- the second stage's: the detections of 16 fixed scenes, 8 on oracle heads
  and 8 on the committed criterion-8 checkpoint, against
  tests/golden/detections.json;
- training's: 25 steps from the state each perfbench train workload's own
  set-up builds, against tests/golden/training.json."""

import numpy as np

from equipose.files import read_json
from golden.make_golden import GOLDEN, TRAINING, golden_detections, golden_training

# Classes and point indices are compared exactly. The floats may move in their
# last bits when BLAS sums a product another way, so they get a tolerance far
# below any change of a number the second stage means.
ATOL = 1e-12
# Relative tolerances of the training numbers, about 100 times the largest
# change that nudging every initial parameter by one ulp (two random
# directions) made in a loss, a tensor sum or a max |.|: 3.6e-15 without batch
# norm, 1.7e-8 with it, whose batch statistics amplify a last-bit change over
# 25 steps. Two OpenBLAS threads instead of one moved them by 2.3e-15 and
# 2.3e-10. A changed gradient or update moves these numbers far more.
TRAINING_RTOL = {"train": 1e-12, "train-bn-b4": 1e-6}


def test_detections_match_the_golden_file():
    with read_json(GOLDEN) as golden:
        pass
    got = golden_detections()
    assert got.keys() == golden.keys()
    assert got["scene_seed0"] == golden["scene_seed0"]
    for pool in ("oracle_x3", "net"):
        assert [len(s) for s in got[pool]] == [len(s) for s in golden[pool]], pool
        for scene, (found, expected) in enumerate(zip(got[pool], golden[pool])):
            for det, ref in zip(found, expected):
                where = f"{pool} scene {scene} class {ref['class']}"
                assert det.keys() == ref.keys(), where
                assert det["class"] == ref["class"], where
                assert det["indices"] == ref["indices"], where
                for value, ref_value in (
                    (det["keypoints"], ref["keypoints"]),
                    (det["center"], ref["center"]),
                    (det["inlier_fraction"], ref["inlier_fraction"]),
                    (det["pose"]["rotation"], ref["pose"]["rotation"]),
                    (det["pose"]["translation"], ref["pose"]["translation"]),
                ):
                    np.testing.assert_allclose(value, ref_value, rtol=0, atol=ATOL, err_msg=where)


def test_training_matches_the_golden_file():
    with read_json(TRAINING) as golden:
        pass
    got = golden_training()
    assert got.keys() == golden.keys()
    assert got["scene_seed0"] == golden["scene_seed0"] and got["steps"] == golden["steps"]
    for workload, rtol in TRAINING_RTOL.items():
        found, expected = got[workload], golden[workload]
        np.testing.assert_allclose(found["loss"], expected["loss"], rtol=rtol, atol=0, err_msg=workload)
        assert found["tensors"].keys() == expected["tensors"].keys(), workload
        for name, ref in expected["tensors"].items():
            value = found["tensors"][name]
            np.testing.assert_allclose(
                [value["sum"], value["max_abs"]],
                [ref["sum"], ref["max_abs"]],
                rtol=rtol,
                atol=0,
                err_msg=f"{workload} {name}",
            )
