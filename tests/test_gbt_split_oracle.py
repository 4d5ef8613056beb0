"""The presorted GBT split search, and chains boosted in helper processes,
give the reference model's bytes.

`train_gbt` sorts each column once per fit and boosts each one-vs-rest
chain on its own (`slots.share`). The reference below is the round-by-round
loop over the per-node-argsort tree builder that `train_gbt` used before
either change, kept verbatim. Tie-heavy inputs (integer, rounded and
constant columns) check that presorted ties split as the per-node stable
argsort split them. In the chain tests the test process plays a forked
trial that holds one of two training slots, so the other slot is idle and a
helper really borrows it.
"""
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tabular_automl import slots
from tabular_automl.learners import train
from tabular_automl.learners.gbt import (
    LAMBDA,
    MIN_GAIN,
    MIN_HESSIAN,
    _apply_tree,
    _leaf,
    _sigmoid,
    _subsample_rows,
)


def _build_tree(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    rows: np.ndarray,
    depth: int,
    max_depth: int,
    min_child_rows: int,
) -> dict:
    g_sum = float(g[rows].sum())
    h_sum = float(h[rows].sum())
    if depth >= max_depth or len(rows) < 2 * min_child_rows or len(rows) < 2:
        return _leaf(g_sum, h_sum)

    parent_score = g_sum * g_sum / (h_sum + LAMBDA)
    best_gain = MIN_GAIN
    best = None  # (feature, threshold, left_rows_sorted_positions)

    n = len(rows)
    g_node = g[rows]
    h_node = h[rows]
    for j in range(X.shape[1]):
        xj = X[rows, j]
        order = np.argsort(xj, kind="stable")
        xs = xj[order]
        # candidate split after position i: left = xs[:i+1], requires xs[i] < xs[i+1]
        gl = np.cumsum(g_node[order])[:-1]
        hl = np.cumsum(h_node[order])[:-1]
        gr = g_sum - gl
        hr = h_sum - hl
        gain = 0.5 * (gl * gl / (hl + LAMBDA) + gr * gr / (hr + LAMBDA) - parent_score)
        valid = xs[:-1] != xs[1:]
        if min_child_rows > 1:
            valid[: min_child_rows - 1] = False
            valid[n - min_child_rows :] = False
        gain[~valid] = -np.inf
        i = int(np.argmax(gain))
        if gain[i] > best_gain:
            best_gain = float(gain[i])
            best = (j, (xs[i] + xs[i + 1]) / 2.0, order[: i + 1])

    if best is None:
        return _leaf(g_sum, h_sum)

    j, threshold, left_pos = best
    left_mask = np.zeros(len(rows), dtype=bool)
    left_mask[left_pos] = True
    left_rows = rows[left_mask]
    right_rows = rows[~left_mask]
    return {
        "feature": int(j),
        "threshold": float(threshold),
        "left": _build_tree(X, g, h, left_rows, depth + 1, max_depth, min_child_rows),
        "right": _build_tree(X, g, h, right_rows, depth + 1, max_depth, min_child_rows),
    }


def reference_trees(X, y, hp, weights, seed, base) -> list[list[dict]]:
    """The round-major loop over the per-node-argsort builder: every chain
    gets tree t before any gets t + 1."""
    n = len(y)
    if weights is None:
        weights = np.ones(n)
    if hp["loss"] == "squared_error":
        chains = [y.astype(float)]
    elif hp["loss"] == "logistic":
        chains = [(y == 1).astype(float)]
    else:
        chains = [(y == k).astype(float) for k in range(int(y.max()) + 1)]
    scores = [np.full(n, b) for b in base]
    trees = []
    for t in range(int(hp["n_trees"])):
        rows = _subsample_rows(n, float(hp["subsample"]), seed, t)
        round_trees = []
        for c, yk in enumerate(chains):
            if hp["loss"] == "squared_error":
                g = (scores[c] - yk) * weights
                h = weights.copy()
            else:
                p = _sigmoid(scores[c])
                g = (p - yk) * weights
                h = np.maximum(p * (1 - p), MIN_HESSIAN) * weights
            tree = _build_tree(X, g, h, rows, 0, int(hp["max_depth"]),
                               int(hp["min_child_rows"]))
            scores[c] += float(hp["learning_rate"]) * _apply_tree(tree, X)
            round_trees.append(tree)
        trees.append(round_trees)
    return trees


@st.composite
def gbt_problems(draw):
    loss = draw(st.sampled_from(["softmax_ovr"] * 3 + ["logistic", "squared_error"]))
    k = draw(st.integers(2, 6)) if loss == "softmax_ovr" else 2
    n = draw(st.integers(2 * k, 48))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)).round(draw(st.sampled_from([1, 3])))  # ties in some columns
    if loss == "squared_error":
        y = rng.normal(size=n)
    else:
        y = rng.integers(0, k, size=n)
        y[:k] = np.arange(k)  # every class present
    weights = rng.uniform(0.2, 3.0, size=n) if draw(st.booleans()) else None
    hp = {
        "loss": loss,
        "n_trees": draw(st.integers(1, 6)),
        "max_depth": draw(st.integers(1, 4)),
        "learning_rate": draw(st.sampled_from([0.05, 0.3, 1.0])),
        "min_child_rows": draw(st.integers(1, 3)),
        "subsample": draw(st.sampled_from([1.0, 0.8, 0.5])),
    }
    return X, y, hp, weights, draw(st.integers(0, 2**31 - 1))


def _bytes(model) -> str:
    return json.dumps(model.to_dict(), sort_keys=True)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(problem=gbt_problems())
def test_chain_split_model_equals_the_serial_loop(trial_lease, problem):
    lease, borrowed = trial_lease
    X, y, hp, weights, seed = problem
    borrowed.clear()
    split = train("gbt", X, y, hp, weights=weights, seed=seed)
    n_chains = len(split.base)
    assert any(borrowed) == (n_chains > 1)  # one chain is never split
    assert lease.held[0] == 1  # the helper's slot came back

    slots.current = None
    serial = train("gbt", X, y, hp, weights=weights, seed=seed)
    slots.current = lease
    assert _bytes(split) == _bytes(serial)
    reference = reference_trees(X, y, hp, weights, seed, split.base)
    assert json.dumps(split.trees, sort_keys=True) == json.dumps(reference, sort_keys=True)


def test_no_idle_slot_keeps_every_chain_in_process(trial_lease):
    lease, borrowed = trial_lease
    assert lease.slots.take()  # another trial takes the idle slot
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(40, 3)), np.arange(40) % 4
    hp = {"loss": "softmax_ovr", "n_trees": 3, "max_depth": 2, "learning_rate": 0.3,
          "min_child_rows": 1, "subsample": 0.8}
    model = train("gbt", X, y, hp, seed=5)
    assert borrowed and not any(borrowed)
    slots.current = None
    assert _bytes(model) == _bytes(train("gbt", X, y, hp, seed=5))
    lease.slots.give()


@st.composite
def tie_heavy_problems(draw):
    """Columns with many equal values, where split order hangs on tie-breaking."""
    loss = draw(st.sampled_from(["softmax_ovr", "logistic", "squared_error"]))
    k = draw(st.integers(2, 4)) if loss == "softmax_ovr" else 2
    n = draw(st.integers(2 if loss == "squared_error" else k, 40))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["integer", "rounded", "constant", "normal"]))
        if kind == "integer":
            columns.append(rng.integers(-2, draw(st.integers(0, 4)), size=n).astype(float))
        elif kind == "rounded":
            columns.append(rng.normal(size=n).round(draw(st.integers(0, 1))))
        elif kind == "constant":
            columns.append(np.full(n, draw(st.sampled_from([0.0, -1.5, 3.0]))))
        else:
            columns.append(rng.normal(size=n))
    X = np.column_stack(columns)
    if loss == "squared_error":
        y = rng.integers(0, 3, size=n).astype(float)
    else:
        y = rng.integers(0, k, size=n)
        y[:k] = np.arange(k)  # every class present
    weights = rng.choice([0.5, 1.0, 2.0], size=n) if draw(st.booleans()) else None
    hp = {
        "loss": loss,
        "n_trees": draw(st.integers(1, 5)),
        "max_depth": draw(st.integers(1, 5)),
        "learning_rate": draw(st.sampled_from([0.1, 0.5, 1.0])),
        "min_child_rows": draw(st.integers(1, 5)),
        "subsample": draw(st.sampled_from([0.1, 0.3, 0.5, 0.8, 1.0])),
    }
    return X, y, hp, weights, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=150, deadline=None)
@given(problem=tie_heavy_problems())
def test_presorted_splits_equal_the_per_node_argsort(problem):
    X, y, hp, weights, seed = problem
    model = train("gbt", X, y, hp, weights=weights, seed=seed).to_dict()
    reference = dict(model, trees=reference_trees(X, y, hp, weights, seed, model["base"]))
    assert json.dumps(model) == json.dumps(reference)  # key order included


@pytest.mark.parametrize("low, high, threshold", [
    (1.0, 2.0, 1.5),
    # The midpoint of two adjacent floats can round onto the higher one; the
    # rows are still split at the lower value, as the per-node argsort did.
    (1.0 + 2.0**-52, 1.0 + 2.0**-51, 1.0 + 2.0**-51),
])
def test_one_column_splits_at_the_lower_value(low, high, threshold):
    X = np.array([[high], [low], [high]])
    y = np.array([4.0, 0.0, 4.0])
    hp = {"loss": "squared_error", "n_trees": 2, "max_depth": 3, "learning_rate": 1.0,
          "min_child_rows": 1, "subsample": 1.0}
    model = train("gbt", X, y, hp)
    root = model.trees[0][0]
    assert (root["feature"], root["threshold"]) == (0, threshold)
    assert json.dumps(model.trees) == json.dumps(reference_trees(X, y, hp, None, 0, model.base))


def test_no_feature_columns_grow_leaves():
    X, y = np.empty((6, 0)), np.arange(6.0)
    hp = {"loss": "squared_error", "n_trees": 2, "max_depth": 3, "learning_rate": 1.0,
          "min_child_rows": 1, "subsample": 0.5}
    model = train("gbt", X, y, hp)
    assert all("leaf" in tree for round_trees in model.trees for tree in round_trees)
    assert json.dumps(model.trees) == json.dumps(reference_trees(X, y, hp, None, 0, model.base))
