"""Tests for the one file owner: atomic writes, file modes and the JSON reader."""

import ast
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from equipose import model as model_mod
from equipose.cli import EXIT_OK, main
from equipose.errors import DegenerateConfiguration, InputError
from equipose.files import parsing, read_json, write_json
from equipose.model import ModelConfig, init_model, load_model, save_model

SRC = Path(__file__).resolve().parent.parent / "src" / "equipose"


def test_only_files_module_reads_or_writes_json():
    # json.dumps (the CLI's config digest) builds a string and stays allowed
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "files.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\bjson\.(dump|loads?)\(", line)
    ]
    assert offenders == []


def test_only_model_module_knows_the_parameter_container():
    assert not re.search(r"^\s*(from|import)\s.*\bfiles\b", (SRC / "layers.py").read_text(), re.M)
    writers = sorted(path.name for path in SRC.glob("*.py") if "write_atomic(" in path.read_text())
    assert writers == ["backproject.py", "files.py", "metrics.py", "model.py"]


def _writes_a_file(call: ast.Call) -> bool:
    """An open() whose mode writes, or a numpy or pathlib call that writes a file itself."""
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name == "open":
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"), None
        )
        return isinstance(mode, ast.Constant) and bool(set(str(mode.value)) & set("wax+"))
    return name in {"write_text", "write_bytes", "tofile", "save", "savez", "savetxt"}


def test_only_files_module_opens_a_file_for_writing():
    # train streams loss.csv one row per step, so a crash keeps the rows written so far
    offenders = [
        f"{path.name}: {ast.get_source_segment(path.read_text(), node)}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "files.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _writes_a_file(node)
    ]
    assert offenders == ['train.py: open(csv_path, "w")']


def test_container_manifest_is_written_once_and_read_once(tmp_path, monkeypatch):
    calls = []

    def spy(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(model_mod, name, wrapper)

    spy("write_json", write_json)
    spy("read_json", read_json)
    path = tmp_path / "params.bin"
    save_model(init_model(ModelConfig(n_classes=2), seed=0), path)
    assert calls == ["write_json"]
    load_model(path)
    assert calls == ["write_json", "read_json"]


def test_write_json_layout_and_replace(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"b": 1, "a": [1.5, None]})
    assert path.read_text() == '{\n  "b": 1,\n  "a": [\n    1.5,\n    null\n  ]\n}\n'
    write_json(path, {"c": True})
    assert json.loads(path.read_text()) == {"c": True}
    assert os.listdir(tmp_path) == ["doc.json"]


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text("old\n")

    def fail(src, dst):
        assert os.path.exists(src)  # the temporary file was written
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk gone"):
        write_json(path, {"new": 1})
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["doc.json"]


@pytest.fixture
def umask_027():
    old = os.umask(0o027)
    try:
        yield 0o666 & ~0o027
    finally:
        os.umask(old)


def test_artifacts_get_the_umask_mode(tmp_path, umask_027):
    out = tmp_path / "data"
    argv = ["synth-gen", "--out-dir", str(out), "--n-scenes", "1", "--n-vertices", "60", "--keypoints", "4"]
    assert main(argv) == EXIT_OK
    modes = {p.relative_to(out).as_posix(): p.stat().st_mode & 0o777 for p in out.rglob("*") if p.is_file()}
    assert {"manifest.json", "dataset.json", "scenes/scene_00000.json", "registry/model_001.json"} <= set(modes)
    assert set(modes.values()) == {umask_027}


def test_parameter_blob_gets_the_umask_mode(tmp_path, umask_027):
    path = tmp_path / "params.bin"
    model = init_model(ModelConfig(n_classes=2), seed=0)
    save_model(model, path)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == {"params.bin": umask_027, "params.bin.json": umask_027}
    assert np.array_equal(load_model(path).kp_head.mlp.w2.value, model.kp_head.mlp.w2.value)


@pytest.mark.parametrize(
    "text, use, kind",
    [
        ("{not json", lambda d: d, "JSONDecodeError"),
        ('{"a": 1}', lambda d: d["b"], "KeyError"),
        ("[1]", lambda d: d[3], "IndexError"),
        ("[1]", lambda d: d["a"], "TypeError"),
        ('{"a": "x"}', lambda d: float(d["a"]), "ValueError"),
    ],
    ids=["invalid_json", "missing_key", "short_list", "wrong_type", "bad_value"],
)
def test_parse_errors_become_input_errors_naming_the_file(tmp_path, text, use, kind):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(InputError, match=re.escape(f"malformed {path}: {kind}")):
        with read_json(path) as doc:
            use(doc)


def test_package_errors_and_missing_files_pass_through(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{}")
    err = DegenerateConfiguration("collinear points")
    with pytest.raises(DegenerateConfiguration) as caught:
        with read_json(path):
            raise err
    assert caught.value is err
    with pytest.raises(FileNotFoundError):
        with read_json(tmp_path / "nope.json"):
            pass


def test_config_errors_keep_their_type_and_name_the_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{}")
    err = InputError("bad range")
    with pytest.raises(InputError, match=re.escape(f"malformed {path}: bad range")) as caught:
        with read_json(path):
            raise err
    assert caught.value.__cause__ is err


def test_input_errors_keep_their_type_and_are_named_once(tmp_path):
    # the innermost block names the file; an outer block leaves the name alone
    outer, inner = tmp_path / "outer.json", tmp_path / "inner.ply"
    outer.write_text("{}")
    err = InputError("label 7 of 4 classes")
    with pytest.raises(InputError, match="label 7 of 4 classes") as caught:
        with read_json(outer), parsing(inner):
            raise err
    assert str(caught.value) == f"malformed {inner}: label 7 of 4 classes"
    assert caught.value.__cause__ is err
