"""The second stage's golden numbers: the detections of 16 fixed scenes, 8 on
oracle heads and 8 on the committed criterion-8 checkpoint, against
tests/golden/detections.json. Regenerate it with tests/golden/make_golden.py."""

import numpy as np

from equipose.files import read_json
from golden.make_golden import GOLDEN, golden_detections

# Classes and point indices are compared exactly. The floats may move in their
# last bits when BLAS sums a product another way, so they get a tolerance far
# below any change of a number the second stage means.
ATOL = 1e-12


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
