"""Guards that read the source tree itself rather than run it."""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "equipose"


def test_every_imported_name_is_read():
    # no linter runs on this tree; a name imported but never read is a leftover
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.rglob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{node.lineno}: {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in read
        ]
    assert unused == []


def test_pairwise_squared_distances_have_one_owner():
    # every pairwise squared distance is scipy's cdist "sqeuclidean", whose
    # rounding test_geometry pins to the broadcast sum; an outer difference or
    # another cdist metric is a second copy of that arithmetic, free to round
    # another way
    outer, metrics = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "outer":
                if isinstance(node.value, ast.Attribute) and node.value.attr == "subtract":
                    outer.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "cdist":
                given = node.args[2:] + [k.value for k in node.keywords if k.arg == "metric"]
                metric = given[0] if given else None
                if not (isinstance(metric, ast.Constant) and metric.value == "sqeuclidean"):
                    metrics.append(f"{path.name}:{node.lineno}")
    assert outer == [] and metrics == []


def test_every_error_type_is_caught_somewhere():
    # a type is worth defining when some handler tells it apart; one no
    # `except` names behaves as its base class everywhere
    defined = {
        node.name for node in ast.parse((SRC / "errors.py").read_text()).body if isinstance(node, ast.ClassDef)
    }
    caught = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {name.id for name in ast.walk(node.type) if isinstance(name, ast.Name)}
    assert sorted(defined - caught) == []


def test_shapes_are_checked_not_reshaped():
    # PointCloud and ObjectModel check that points, colors, vertices and
    # keypoints are (n, 3) and a center (3,) where they are built; a reshape
    # to those shapes would quietly read any array of the right size as one
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "reshape(-1, 3)" in line or ".reshape(3)" in line
    ]
    assert offenders == []


# method names that more than one definition in src/ answers to: a call
# names the protocol, not one implementation, so a read of the name reaches
# every definition of it. Listed by hand, so that a new collision is a choice
SHARED_NAMES = ("apply", "backward", "children", "forward", "from_dict", "own_params")
# reads that share a method's name but name a command-line flag, not a method
FLAG_READS = ("args.params", "args.step", "args.trace")


def test_every_public_definition_is_reached():
    # a public top-level function or class, or a public method, property or
    # classmethod of a public class, that no library or benchmark code names
    # outside its own body is reached only by its own tests: nothing the
    # program runs depends on it. A method is named by an attribute read
    # (`x.m`), not by a local variable, a FLAG_READS entry or an attribute of
    # a module bound by `import` (`np.trace` is numpy's function, not a
    # method's). Where a name is shared, a read inside any definition of it
    # is one implementation handing on to another, not a caller
    def names(tree):
        return Counter(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        )

    def root(node):
        while isinstance(node, ast.Attribute):
            node = node.value
        return getattr(node, "id", None)

    def reads(tree):
        return Counter(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and root(node) not in modules
            and f"{root(node)}.{node.attr}" not in FLAG_READS
        )

    def defined(nodes, kinds=(ast.FunctionDef, ast.ClassDef)):
        return [node for node in nodes if isinstance(node, kinds)]

    library = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    trees = list(library.values()) + [
        ast.parse(path.read_text()) for path in sorted((TESTS.parent / "perfbench").rglob("*.py"))
    ]
    modules = {
        alias.asname or alias.name.split(".")[0]
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] != "equipose"
    }
    named = sum((names(tree) for tree in trees), Counter())
    read = sum((reads(tree) for tree in trees), Counter())
    top = {f"{path.stem}.{node.name}": node for path, tree in library.items() for node in defined(tree.body)}
    methods = {
        f"{owner}.{node.name}": node
        for owner, cls in top.items()
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in defined(cls.body, ast.FunctionDef)
    }
    # every definition of a name, public or not: `_allocator.apply` shares Rotation's
    everywhere = {}
    for node in list(top.values()) + list(methods.values()):
        everywhere.setdefault(node.name, []).append(node)
    unreached = [
        qualified
        for qualified, node in top.items()
        if not node.name.startswith("_") and named[node.name] <= names(node)[node.name]
    ] + [
        qualified
        for qualified, node in methods.items()
        if not node.name.startswith("_")
        and read[node.name] <= sum(reads(other)[node.name] for other in everywhere[node.name])
    ]
    assert sorted(unreached) == []
    shared = [name for name, nodes in everywhere.items() if len(nodes) > 1 and not name.startswith("_")]
    assert sorted(shared) == sorted(SHARED_NAMES)
    present = {f"{root(node)}.{node.attr}" for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(set(FLAG_READS) - present) == []


def test_the_lift_and_the_appearance_rows_are_paired_in_one_place():
    # forward takes a cloud's lifted feature and its appearance rows together;
    # PoseModel.inputs builds both, so another caller cannot pair them another way
    def calls(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("lift_cloud", "appearance_input")
        ]

    model = ast.parse((SRC / "model.py").read_text())
    paired = {
        id(node)
        for cls in model.body
        if isinstance(cls, ast.ClassDef) and cls.name == "PoseModel"
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name == "inputs"
        for node in calls(method)
    }
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in calls(model if path.name == "model.py" else ast.parse(path.read_text()))
        if id(node) not in paired
    ]
    assert offenders == [] and len(paired) == 2


def test_an_optimizer_steps_only_in_train_step():
    # train_step owns zero-grad, the per-sample losses and the update; a
    # `.step()` anywhere else in the library or the golden generator is a
    # second copy of that step, free to drift from the one training runs
    def steps(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "step"
        ]

    train = ast.parse((SRC / "train.py").read_text())
    owned = {
        id(node)
        for fn in train.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "train_step"
        for node in steps(fn)
    }
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) + sorted((TESTS / "golden").glob("*.py"))
        for node in steps(train if path == SRC / "train.py" else ast.parse(path.read_text()))
        if id(node) not in owned
    ]
    assert offenders == [] and len(owned) == 1


# perfbench/common.py and perfbench/harness.py own these; tests import them
BENCHMARK_NAMES = ("SCENE_RECIPE", "TRAIN_SEED0", "HELD_OUT_SEED0", "CHECKPOINT", "SCENE_SEED0", "POOL_SEED0")


def test_the_benchmark_scenes_have_one_definition():
    # the acceptance criteria, the golden files and the lift tests run on the
    # benchmark's scenes, seeds and checkpoint; a test that binds its own copy
    # of one can drift from the scenes the benchmark measures. With perfbench/
    # on the test session's path, a test module named like a perfbench module
    # would shadow it
    bound = [
        f"{path.relative_to(TESTS)}:{node.lineno}: {node.id}"
        for path in sorted(TESTS.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in BENCHMARK_NAMES
    ]
    bench = {path.stem for path in (TESTS.parent / "perfbench").glob("*.py")}
    shadowing = sorted(path.name for path in TESTS.rglob("*.py") if path.stem in bench)
    assert bound == [] and shadowing == []


def test_layer_gradients_meet_central_differences_in_one_place():
    # train.gradcheck runs the model's backward through sample_losses_and_grads;
    # every other comparison of a backward against central differences is
    # conftest.layer_fd_check, so each layer and head is checked one way, over
    # its inputs and its parameters alike
    def calls(fn):
        # ".name" for a call through an attribute, "name" for a plain one
        return {
            f".{node.func.attr}" if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
        }

    both = [
        f"{path.relative_to(TESTS.parent)}::{fn.name}"
        for path in sorted(SRC.glob("*.py")) + sorted(TESTS.rglob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef)
        and ".backward" in calls(fn)
        and {name.lstrip(".") for name in calls(fn)} & {"central_differences", "max_relative_error"}
    ]
    assert both == ["tests/conftest.py::layer_fd_check"]
