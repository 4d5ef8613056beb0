"""The one way the engine writes a file, and its one JSON format.

Standard library only, so every layer can use it: the strategy layer writes
definition files and portfolios here, and the orchestrator its job
artifacts. A file written through `replacing` is written whole or not at
all: a writer that is killed or raises leaves the target as it was (at worst
a stray `.<name>.<pid>.tmp` beside it after a kill), never a truncated file.
"""
from __future__ import annotations

import contextlib
import json
import os
import re
from pathlib import Path

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def is_plain_name(name) -> bool:
    """Whether `name` can name a file or directory of its own: letters, digits,
    `_`, `.` and `-`, and neither `.` nor `..`. Pipeline and dataset ids must be."""
    return isinstance(name, str) and bool(_NAME_RE.match(name)) and name not in (".", "..")


@contextlib.contextmanager
def replacing(path, newline=None):
    """A text file to write in place of `path`: a temp file in its directory,
    moved onto `path` when the block ends and removed if the block raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def dump_json(obj, path, compact=False) -> None:
    """Sorted-key JSON: one line with the C encoder when `compact`, for
    models; `indent=2` otherwise, for documents people read."""
    if compact:
        text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    else:
        text = json.dumps(obj, indent=2, sort_keys=True)
    with replacing(path) as f:
        f.write(text + "\n")


def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
