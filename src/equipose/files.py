"""The one owner of how files are written and JSON documents are read."""

from __future__ import annotations

import json
import os
import uuid
from contextlib import contextmanager

from .errors import InputError


def write_atomic(path, data) -> None:
    """Write `data`, str or bytes, to a temporary file beside `path`, then
    os.replace it: a reader sees the old file or the new one, never a partial
    one. The file gets the mode a plain open gives it, 0o666 less the umask."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json(path, doc) -> None:
    """Indented JSON and a final newline; keys keep the order `doc` has."""
    write_atomic(path, json.dumps(doc, indent=2) + "\n")


@contextmanager
def parsing(path):
    """An InputError raised in the block becomes an InputError naming `path`,
    unless an inner block named its file already; so does a KeyError,
    IndexError, TypeError or ValueError."""
    try:
        yield
    except InputError as err:
        if hasattr(err, "path"):
            raise
        raise _naming(path, err) from err
    except (KeyError, IndexError, TypeError, ValueError) as err:
        raise _naming(path, f"{type(err).__name__}: {err}") from err


def _naming(path, what) -> InputError:
    err = InputError(f"malformed {path}: {what}")
    err.path = path
    return err


@contextmanager
def read_json(path):
    """`with read_json(path) as doc:` parses the file and runs the block under `parsing(path)`."""
    with parsing(path), open(path) as f:
        yield json.load(f)
