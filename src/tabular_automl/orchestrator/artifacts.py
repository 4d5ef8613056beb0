"""Job artifacts: the directory layout, fold CSVs, transformed matrices,
the trial log and the leaderboard document.

Everything here is deterministic given its inputs (sorted keys, repr
floats, no timestamps) so seeded reruns can be compared byte-for-byte.
Every file but the append-only trial log is written through
`files.replacing`, whole or not at all; `dump_json`, `load_json` and
`replacing` are `files`' own, imported here by name.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from ..data_core import RawTable
from ..files import dump_json, load_json, replacing  # noqa: F401 (re-exported)

SUBDIRS = ("report", "folds", "candidates", "transformed", "models")


def ensure_layout(output_dir) -> Path:
    out = Path(output_dir)
    for sub in SUBDIRS:
        (out / sub).mkdir(parents=True, exist_ok=True)
    return out


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
