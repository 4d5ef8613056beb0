"""Correctness checks on a job's artifacts and on `automl predict` output.

Every check compares against an independent computation (numpy losses, a
closed-form least-squares fit, the benchmark's own counts of the inputs)
or a required property (event order, sorting, byte identity), never
against saved output.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.stats import rankdata

# The best tuned linear model may be worse than least squares by this share.
# It may be better by any amount: it is early-stopped gradient descent with
# an l2 term, picked on the validation fold, so its shrinkage can beat the
# unregularized fit there (seed 7 of tune-linear-bo: 2.96 against 3.74).
OLS_TOLERANCE = 0.05
AUC_FLOOR = 0.8


# `check(ok, message)` records a failed check; see run.Bench.check.
Check = Callable[[bool, str], bool]


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def trial_events(job: Path) -> dict[int, list[dict]]:
    events: dict[int, list[dict]] = {}
    for line in (job / "trials.jsonl").read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        events.setdefault(rec["trial"], []).append(rec)
    return events


def check_trial_log(check: Check, job: Path, budget: int) -> dict[int, list[dict]]:
    """suggested -> running -> finished|failed, once per trial id 0..budget-1."""
    events = trial_events(job)
    check(sorted(events) == list(range(budget)),
          f"{job.name}: trial ids {sorted(events)} are not 0..{budget - 1}")
    for tid, evs in events.items():
        kinds = [e["event"] for e in evs]
        check(len(kinds) == 3 and kinds[:2] == ["suggested", "running"]
              and kinds[2] in ("finished", "failed"),
              f"{job.name}: trial {tid} has events {kinds}")
    return events


def check_leaderboard(check: Check, job: Path) -> dict:
    """Sorted ranks whose losses equal each model file's valid_loss; returns the best entry."""
    entries = json.loads((job / "leaderboard.json").read_text(encoding="utf-8"))["entries"]
    check(bool(entries), f"{job.name}: empty leaderboard")
    keys = [(e["loss"], e["logloss"] if e["logloss"] is not None else float("inf"), e["trial"])
            for e in entries]
    check(keys == sorted(keys), f"{job.name}: leaderboard is not sorted")
    check([e["rank"] for e in entries] == list(range(1, len(entries) + 1)),
          f"{job.name}: leaderboard ranks are not 1..n")
    for e in entries:
        model = json.loads((job / e["model"]).read_text(encoding="utf-8"))
        check(model["valid_loss"] == e["loss"],
              f"{job.name}: trial {e['trial']} loss {e['loss']} != model file "
              f"{model['valid_loss']}")
    return entries[0]


class Predictions:
    """`automl predict` output: labels plus class probabilities, or values."""

    def __init__(self, path):
        header, rows = read_csv(path)
        self.n_rows = len(rows)
        self.classes = [h[2:] for h in header[1:]]
        if self.classes:
            self.labels = np.array([r[0] for r in rows])
            self.probs = np.array([[float(x) for x in r[1:]] for r in rows]).reshape(
                len(rows), len(self.classes))
        else:
            self.values = np.array([float(r[0]) for r in rows])

    def loss(self, truth: np.ndarray) -> float:
        """Error rate or RMSE against true labels or values, as the job scores it."""
        if self.classes:
            return float(np.mean(self.labels != truth))
        return float(np.sqrt(np.mean((self.values - truth) ** 2)))

    def slice(self, start: int, stop: int) -> "Predictions":
        part = object.__new__(Predictions)
        part.n_rows, part.classes = stop - start, self.classes
        if self.classes:
            part.labels, part.probs = self.labels[start:stop], self.probs[start:stop]
        else:
            part.values = self.values[start:stop]
        return part


def check_probabilities(check: Check, preds: Predictions) -> None:
    if preds.classes:
        worst = float(np.max(np.abs(preds.probs.sum(axis=1) - 1.0)))
        check(worst < 1e-9, f"probability rows deviate from 1 by up to {worst:.3g}")
        argmax = np.array(preds.classes)[preds.probs.argmax(axis=1)]
        check(bool(np.all(argmax == preds.labels)), "predicted labels are not the argmax class")


def constant_loss(truth: np.ndarray) -> float:
    """Loss of the best constant prediction on these rows."""
    if truth.dtype.kind in "fi":
        return float(np.std(truth))
    _, counts = np.unique(truth, return_counts=True)
    return 1.0 - counts.max() / len(truth)


def check_same_loss(check: Check, what: str, recomputed: float, recorded: float) -> None:
    check(abs(recomputed - recorded) <= 1e-9 * max(1.0, abs(recorded)),
          f"{what}: recomputed loss {recomputed!r} != recorded {recorded!r}")


def auc(truth: np.ndarray, score: np.ndarray) -> float:
    ranks = rankdata(score)
    pos = truth.astype(bool)
    n_pos, n_neg = pos.sum(), (~pos).sum()
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def least_squares_rmse(job: Path, pipeline: str) -> float:
    """Validation RMSE of the closed-form fit (with intercept) on the job's own matrices."""
    def load(name):
        m = np.loadtxt(job / "transformed" / pipeline / name, delimiter=",", skiprows=1, ndmin=2)
        return np.column_stack([m[:, :-1], np.ones(len(m))]), m[:, -1]

    X, y = load("train.csv")
    Xv, yv = load("valid.csv")
    w, *_ = np.linalg.lstsq(X, y, rcond=None)
    return float(np.sqrt(np.mean((Xv @ w - yv) ** 2)))
