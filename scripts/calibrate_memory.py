"""Fit the peak-memory coefficients used by the resource recommender.

Trains each algorithm on synthetic grids of increasing size under tracemalloc
and least-squares fits the model parameters. Run from the repo root:

    python3 scripts/calibrate_memory.py
"""
from __future__ import annotations

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from tabular_automl import learners, synth
from tabular_automl.data_core import infer_problem_type, load_csv
from tabular_automl.transforms import TransformerSpec, apply, encode_labels, fit

GRID = [(2000, 10), (4000, 20), (8000, 20), (8000, 40), (16000, 40)]
DEPTHS = [2, 6, 10]


def _matrix(n_rows: int, n_cols: int):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sized.csv"
        synth.make_sized_csv(path, n_rows=n_rows, n_cols=n_cols, seed=7)
        t = load_csv(path, "y")
    feats = t.feature_indices()
    cols = [[row[i] for i in feats] for row in t.cells]
    blocks = []
    for j, name in enumerate(t.column_names[i] for i in feats):
        f = fit(TransformerSpec(kind="standardize", select_columns=[name]), [t.column(feats[j])])
        blocks.append(apply(f, [[row[j] for row in cols]]))
    X = np.hstack(blocks)
    target = t.column(t.target_index)
    y, _ = encode_labels(target, infer_problem_type(target))
    return X, y


def _peak(algorithm: str, X, y, hp) -> int:
    tracemalloc.start()
    learners.train(algorithm, X, y, hp, seed=0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def calibrate_linear():
    rows = []
    for n_rows, n_cols in GRID:
        X, y = _matrix(n_rows, n_cols)
        peak = _peak("linear", X, y, {"link": "identity", "l2": 1e-4, "learning_rate": 0.01, "epochs": 3})
        rows.append((n_cols, peak))
        print(f"linear rows={n_rows} cols={n_cols} peak={peak / 1e6:.1f}MB")
    A = np.array([[1.0, c] for c, _ in rows])
    b = np.array([p for _, p in rows], dtype=float)
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    print(f"linear: intercept={coef[0]:.3e} bytes_per_cell={coef[1]:.3f}")


def calibrate_gbt():
    rows = []
    for n_rows, n_cols in GRID:
        X, y = _matrix(n_rows, n_cols)
        for depth in DEPTHS:
            hp = {"n_trees": 10, "max_depth": depth, "learning_rate": 0.1,
                  "min_child_rows": 1, "subsample": 1.0}
            peak = _peak("gbt", X, y, hp)
            rows.append((n_rows * n_cols, depth, peak))
            print(f"gbt rows={n_rows} cols={n_cols} depth={depth} peak={peak / 1e6:.1f}MB")
    # peak ~= (intercept + bpc * cells) * (1 + dm * depth); fit in two stages
    cells = np.array([c for c, _, _ in rows], dtype=float)
    depth = np.array([d for _, d, _ in rows], dtype=float)
    peak = np.array([p for _, _, p in rows], dtype=float)
    base_mask = depth == min(DEPTHS)
    A = np.array([[1.0, c] for c in cells[base_mask]])
    coef, *_ = np.linalg.lstsq(A, peak[base_mask], rcond=None)
    base = A @ coef
    growth = (peak[base_mask] / base - 1.0) / min(DEPTHS)
    print(
        f"gbt: intercept={coef[0]:.3e} bytes_per_cell={coef[1]:.3f}"
        f" depth_multiplier~={max(float(np.mean(growth)), 0.0):.4f}"
    )


if __name__ == "__main__":
    calibrate_linear()
    calibrate_gbt()
