"""Artifact writers replace their target whole or leave it as it was."""
import ast
import errno
import json
import multiprocessing
import os
import signal
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tabular_automl
from tabular_automl import files
from tabular_automl.data_core import ProblemType
from tabular_automl.learners import default_hp_space
from tabular_automl.orchestrator import artifacts
from tabular_automl.strategy import (
    PipelineDefinition,
    builtin_portfolio,
    serialize_definitions,
)
from tabular_automl.strategy.core import save_portfolio
from tabular_automl.transforms import TransformerSpec

OLD = b"previous artifact\n"


def _json(path):
    artifacts.dump_json({"values": list(range(200))}, path)


def _fold(path, cells=None):
    rows = [[str(i), "a" if i % 2 else None] for i in range(40)]
    artifacts.write_fold_csv(SimpleNamespace(column_names=["x", "tag"], cells=cells or rows), path)


def _matrix(path):
    X = np.arange(120, dtype=float).reshape(40, 3) / 7.0
    artifacts.write_matrix_csv(X, np.arange(40) % 3, "label", path)


def _definitions(path):
    d = PipelineDefinition(
        pipeline_id=path.stem,
        problem_kind="regression",
        n_classes=None,
        transformers=[TransformerSpec("standardize", select_columns=["x", "tag"])],
        algorithm="gbt",
        space=default_hp_space("gbt", ProblemType(kind="regression"), 500, 8),
        seeds=[],
    )
    assert serialize_definitions([d], path.parent) == [path]


def _portfolio(path):
    save_portfolio(builtin_portfolio(), path)


WRITERS = [_json, _fold, _matrix, _definitions, _portfolio]
# Named as a definition file, which `serialize_definitions` names by id.
TARGET = "artifact.pipeline"


class _DiskFillsUp:
    """A text file that accepts `room` characters and then raises ENOSPC."""

    def __init__(self, f, room):
        self.f, self.room = f, room

    def write(self, text):
        if len(text) > self.room:
            self.f.write(text[: self.room])
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(text)
        return self.f.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.f.__exit__(*exc)


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__.strip("_"))
@pytest.mark.parametrize("existing", [None, OLD], ids=["absent", "present"])
def test_write_that_fails_partway_leaves_the_target_as_it_was(
    tmp_path, monkeypatch, writer, existing
):
    target = tmp_path / TARGET
    if existing is not None:
        target.write_bytes(existing)
    opened = []

    def filling_open(path, *args, **kwargs):
        opened.append(path)
        return _DiskFillsUp(open(path, *args, **kwargs), room=100)

    monkeypatch.setattr(files, "open", filling_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        writer(target)
    assert opened and opened[0] != target
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if existing is None else [TARGET])
    if existing is not None:
        assert target.read_bytes() == existing


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__.strip("_"))
def test_write_replaces_the_target_with_default_permissions(tmp_path, writer):
    target, fresh = tmp_path / TARGET, tmp_path / "fresh"
    target.write_bytes(OLD)
    fresh.write_bytes(OLD)
    writer(target)
    assert sorted(p.name for p in tmp_path.iterdir()) == [TARGET, "fresh"]
    assert target.read_bytes() != OLD
    assert target.stat().st_mode == fresh.stat().st_mode


def test_encoding_error_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        artifacts.dump_json({"ok": 1, "bad": object()}, tmp_path / "doc.json", compact=True)
    assert list(tmp_path.iterdir()) == []


def _killed_mid_write(path):
    def rows():
        for i in range(1000):
            if i == 500:
                os.kill(os.getpid(), signal.SIGKILL)
            yield [str(i), "x" * 50]

    _fold(path, cells=rows())


def test_sigkill_mid_write_leaves_at_most_a_stray_temp_file(tmp_path):
    target = tmp_path / "train.csv"
    target.write_bytes(OLD)
    child = multiprocessing.get_context("fork").Process(target=_killed_mid_write, args=(target,))
    child.start()
    child.join(30)
    assert child.exitcode == -signal.SIGKILL
    assert target.read_bytes() == OLD
    stray = [p.name for p in tmp_path.iterdir() if p != target]
    assert stray == [f".train.csv.{child.pid}.tmp"]
    assert (tmp_path / stray[0]).stat().st_size > 0


def test_model_written_compactly_parses_back(tmp_path):
    doc = {"b": [0.1 + 0.2, 1e-300, -0.0], "a": {"z": None, "y": "é"}}
    artifacts.dump_json(doc, tmp_path / "m.json", compact=True)
    text = (tmp_path / "m.json").read_text(encoding="utf-8")
    assert text == '{"a":{"y":"\\u00e9","z":null},"b":[0.30000000000000004,1e-300,-0.0]}\n'
    assert json.loads(text) == doc


def _file_writes(node, allowed_class=None):
    """Line numbers of the calls under `node` that write a file in place:
    `write_text`, `write_bytes`, and `open` in a mode that writes (a mode that
    is not a constant counts as one). The body of `allowed_class` is skipped."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef) and child.name == allowed_class:
            continue
        if isinstance(child, ast.Call):
            f = child.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            # open(path, mode), but Path.open(mode)
            modes = child.args[1:2] if isinstance(f, ast.Name) else child.args[:1]
            modes += [k.value for k in child.keywords if k.arg == "mode"]
            writes_mode = any(not isinstance(m, ast.Constant) or set("wax+") & set(str(m.value))
                              for m in modes)
            if name in ("write_text", "write_bytes") or (name == "open" and writes_mode):
                yield child.lineno
        yield from _file_writes(child, allowed_class)


def test_every_file_is_written_through_the_one_writer():
    """Outside `files`, only the test-data generator and the append-only trial
    log open a file to write; and the strategy layer imports no orchestrator."""
    src = Path(tabular_automl.__file__).parent
    allowed = {"synth.py": None, "orchestrator/artifacts.py": "TrialLog"}
    found, own = [], {}
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = list(_file_writes(tree, allowed.get(rel)))
        if rel in allowed:
            own[rel] = list(_file_writes(tree))
        elif rel != "files.py":
            found += [f"{rel}:{n}" for n in lines]
        if rel.startswith("strategy/"):
            imported = [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
            assert not [m for m in imported if "orchestrator" in m], rel
    assert found == []
    # The scan sees the writes it allows, so it would see any other.
    assert own["synth.py"] and own["orchestrator/artifacts.py"]
