"""Gradient-boosted regression trees with exact greedy splits.

Second-order (Newton) boosting: each tree fits −g/(h+λ) with gain
½[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)]. Multiclass is one-vs-rest with
per-class sigmoid scores normalized at predict time. Row subsampling draws
from a per-tree RNG stream, so tree construction order never matters: each
class chain is boosted on its own, and in a forked trial with an idle slot
some chains are boosted by helper processes (`slots.share`).

Each column is stably argsorted once per fit, and every chain and helper
shares that order (after the XGBoost "column block", Chen & Guestrin, KDD
2016, §4.1). A tree filters it to its subsample rows, and a split
partitions it, so each node's rows stay sorted by every feature and no node
sorts. Ties keep row order, so the trees equal those of a per-node stable
argsort byte for byte.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import slots
from ..errors import ArityMismatch, NonFiniteInput, SingleClass
from .linear import _sigmoid

LAMBDA = 1.0  # leaf L2 regularization
MIN_GAIN = 1e-12
MIN_HESSIAN = 1e-16


@dataclass
class GbtModel:
    problem_kind: str
    n_classes: Optional[int]
    n_features: int
    learning_rate: float
    base: list[float]  # one entry for regression/binary, K for one-vs-rest
    trees: list[list[dict]]  # trees[round][class_chain] -> node dict

    def to_dict(self) -> dict:
        return {
            "algorithm": "gbt",
            "problem_kind": self.problem_kind,
            "n_classes": self.n_classes,
            "n_features": self.n_features,
            "learning_rate": self.learning_rate,
            "base": self.base,
            "trees": self.trees,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GbtModel":
        return cls(
            problem_kind=d["problem_kind"],
            n_classes=d["n_classes"],
            n_features=d["n_features"],
            learning_rate=d["learning_rate"],
            base=list(d["base"]),
            trees=d["trees"],
        )


def _leaf(g_sum: float, h_sum: float) -> dict:
    return {"leaf": -g_sum / (h_sum + LAMBDA)}


def _best_split(
    XT: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    order: np.ndarray,
    g_sum: float,
    h_sum: float,
    min_child_rows: int,
) -> Optional[tuple[int, float, float]]:
    """(feature, last left value, threshold) of the best split, or None.

    Row j of `order` is the node's rows sorted by feature j (ties by row),
    so every feature is scored at once. The candidate split after position
    i puts xs[:i+1] on the left and requires xs[i] < xs[i+1]; the first
    feature with the highest gain wins. Kept apart from `_build_tree` so
    its (d, n) temporaries are freed before the recursion."""
    d, n = order.shape
    if d == 0:
        return None
    xs = np.take_along_axis(XT, order, axis=1)
    gl = g[order].cumsum(axis=1)[:, :-1]
    hl = h[order].cumsum(axis=1)[:, :-1]
    gr = g_sum - gl
    hr = h_sum - hl
    parent_score = g_sum * g_sum / (h_sum + LAMBDA)
    gain = 0.5 * (gl * gl / (hl + LAMBDA) + gr * gr / (hr + LAMBDA) - parent_score)
    valid = xs[:, :-1] != xs[:, 1:]
    if min_child_rows > 1:
        valid[:, : min_child_rows - 1] = False
        valid[:, n - min_child_rows :] = False
    gain[~valid] = -np.inf
    at = gain.argmax(axis=1)
    best = gain[np.arange(d), at]
    best[~(best > MIN_GAIN)] = -np.inf  # a NaN gain never wins, as `>` never holds
    j = int(best.argmax())
    if best[j] == -np.inf:
        return None
    i = int(at[j])
    return j, xs[j, i], (xs[j, i] + xs[j, i + 1]) / 2.0


def _build_tree(
    XT: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    rows: np.ndarray,
    order: np.ndarray,
    depth: int,
    max_depth: int,
    min_child_rows: int,
) -> dict:
    """The node over `rows` (ascending) and `order`, the same rows sorted by
    each feature. Splitting keeps both orders, so no node sorts."""
    g_sum = float(g[rows].sum())
    h_sum = float(h[rows].sum())
    if depth >= max_depth or len(rows) < 2 * min_child_rows or len(rows) < 2:
        return _leaf(g_sum, h_sum)
    split = _best_split(XT, g, h, order, g_sum, h_sum, min_child_rows)
    if split is None:
        return _leaf(g_sum, h_sum)

    j, last_left, threshold = split
    row_left = XT[j].take(rows) <= last_left
    n_left = int(np.count_nonzero(row_left))
    go_left = XT[j].take(order) <= last_left
    left_order = order[go_left].reshape(len(order), n_left)
    right_order = order[~go_left].reshape(len(order), len(rows) - n_left)
    return {
        "feature": int(j),
        "threshold": float(threshold),
        "left": _build_tree(XT, g, h, rows[row_left], left_order,
                            depth + 1, max_depth, min_child_rows),
        "right": _build_tree(XT, g, h, rows[~row_left], right_order,
                             depth + 1, max_depth, min_child_rows),
    }


def _apply_tree(node: dict, X: np.ndarray) -> np.ndarray:
    """Leaf value of every row. Routes by column (`take`), fastest on a
    column-major X; `compress` keeps each node's rows in ascending order."""
    out = np.empty(len(X))
    stack = [(node, np.arange(len(X)))]
    while stack:
        nd, idx = stack.pop()
        if "leaf" in nd:
            out.put(idx, nd["leaf"])
            continue
        go_left = X[:, nd["feature"]].take(idx) <= nd["threshold"]
        stack.append((nd["left"], idx.compress(go_left)))
        stack.append((nd["right"], idx.compress(~go_left)))
    return out


def _subsample_rows(n: int, fraction: float, seed: int, tree_index: int) -> np.ndarray:
    if fraction >= 1.0:
        return np.arange(n)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tree_index,)))
    k = max(1, int(round(fraction * n)))
    return np.sort(rng.choice(n, size=k, replace=False))


def train_gbt(
    X: np.ndarray,
    y: np.ndarray,
    hp: dict,
    weights: Optional[np.ndarray] = None,
    seed: int = 0,
) -> GbtModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y.astype(float)))):
        raise NonFiniteInput("training data contains non-finite values")
    if weights is None:
        weights = np.ones(len(y))
    else:
        weights = np.asarray(weights, dtype=float)

    loss = hp["loss"]
    n_trees = int(hp["n_trees"])
    max_depth = int(hp["max_depth"])
    lr = float(hp["learning_rate"])
    min_child_rows = int(hp["min_child_rows"])
    subsample = float(hp["subsample"])
    n = len(y)
    XT = np.ascontiguousarray(X.T)
    presorted = np.argsort(XT, axis=1, kind="stable")  # once per fit, for every chain

    if loss == "squared_error":
        chains = [y.astype(float)]
        base = [float(np.average(chains[0], weights=weights))]
    else:
        classes = np.unique(y)
        if len(classes) < 2:
            raise SingleClass("classification target has a single class")
        if loss == "logistic":
            chains = [(y == 1).astype(float)]
        else:  # softmax_ovr
            chains = [(y == k).astype(float) for k in range(int(y.max()) + 1)]
        base = []
        for yk in chains:
            p = float(np.clip(np.average(yk, weights=weights), 1e-6, 1 - 1e-6))
            base.append(float(np.log(p / (1 - p))))

    def boost(c: int) -> list[dict]:
        """Chain c's trees in round order. They depend on c alone: the
        chain's scores see only its own trees, and round t's subsample rows
        only `(seed, t)`, so the chains may be boosted in any order or place."""
        yk = chains[c]
        score = np.full(n, base[c])
        chain_trees = []
        for t in range(n_trees):
            rows = _subsample_rows(n, subsample, seed, t)
            order = presorted
            if len(rows) < n:
                drawn = np.zeros(n, dtype=bool)
                drawn[rows] = True
                order = presorted[drawn[presorted]].reshape(len(XT), len(rows))
            if loss == "squared_error":
                g = (score - yk) * weights
                h = weights.copy()
            else:
                p = _sigmoid(score)
                g = (p - yk) * weights
                h = np.maximum(p * (1 - p), MIN_HESSIAN) * weights
            tree = _build_tree(XT, g, h, rows, order, 0, max_depth, min_child_rows)
            score += lr * _apply_tree(tree, X)
            chain_trees.append(tree)
        return chain_trees

    trees = [list(round_trees) for round_trees in zip(*slots.share(len(chains), boost))]

    if loss == "squared_error":
        problem_kind, n_classes = "regression", None
    elif loss == "logistic":
        problem_kind, n_classes = "binary_classification", 2
    else:
        problem_kind, n_classes = "multiclass_classification", len(chains)

    return GbtModel(
        problem_kind=problem_kind,
        n_classes=n_classes,
        n_features=X.shape[1],
        learning_rate=lr,
        base=base,
        trees=trees,
    )


def predict_gbt(model: GbtModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ArityMismatch(f"expected {model.n_features} features, got {X.shape}")
    X = np.asfortranarray(X)  # _apply_tree reads X one column at a time

    n_chains = len(model.base)
    scores = [np.full(len(X), b) for b in model.base]
    for round_trees in model.trees:
        for c, tree in enumerate(round_trees):
            scores[c] += model.learning_rate * _apply_tree(tree, X)

    if model.problem_kind == "regression":
        return scores[0]
    if model.problem_kind == "binary_classification":
        p1 = _sigmoid(scores[0])
        return np.column_stack([1 - p1, p1])
    probs = np.column_stack([_sigmoid(s) for s in scores])
    probs = np.maximum(probs, 1e-12)
    return probs / probs.sum(axis=1, keepdims=True)
