"""Artifact writers: canonical JSON, fold CSVs, transformed matrices, logs.

Everything here is deterministic given its inputs (sorted keys, repr
floats, no timestamps) so seeded reruns can be compared byte-for-byte.
Every file written through `replacing` (JSON, folds, matrices, and the
job's `report.md`, the predict CSV and the zeroshot table) is written whole
or not at all: a writer that is killed or raises leaves the target as it was
(at worst a stray `.<name>.<pid>.tmp` beside it after a kill), never a
truncated file.
"""
from __future__ import annotations

import contextlib
import csv
import json
import os
from pathlib import Path
from typing import Optional

import numpy as np

from ..data_core import RawTable

SUBDIRS = ("report", "folds", "candidates", "transformed", "models")


def ensure_layout(output_dir) -> Path:
    out = Path(output_dir)
    for sub in SUBDIRS:
        (out / sub).mkdir(parents=True, exist_ok=True)
    return out


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


def write_fold_csv(t: RawTable, path) -> None:
    with replacing(path, newline="") as f:
        w = csv.writer(f)
        w.writerow(t.column_names)
        for row in t.cells:
            w.writerow(["" if c is None else c for c in row])


def write_matrix_csv(X: np.ndarray, y: np.ndarray, target_name: str, path) -> None:
    with replacing(path, newline="") as f:
        w = csv.writer(f)
        w.writerow([f"f{j}" for j in range(X.shape[1])] + [target_name])
        for i in range(X.shape[0]):
            w.writerow([repr(float(v)) for v in X[i]] + [repr(y[i].item())])


class TrialLog:
    """Append-only JSON-lines sink; one record per trial state transition."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.write_text("", encoding="utf-8")

    def __call__(self, record: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def leaderboard_doc(leaderboard) -> dict:
    return {
        "entries": [
            {
                "rank": e.rank,
                "trial": e.trial_id,
                "pipeline": e.pipeline_id,
                "hp": e.hp,
                "loss": e.loss,
                "loss_kind": e.loss_kind,
                "logloss": e.logloss,
                **e.extra,
            }
            for e in leaderboard.entries
        ]
    }
