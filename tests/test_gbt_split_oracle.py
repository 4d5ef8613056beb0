"""Boosting GBT class chains in helper processes gives the serial model's bytes.

`train_gbt` boosts each one-vs-rest chain on its own (`slots.share`). Here
the test process plays a forked trial that holds one of two training slots,
so the other slot is idle and a helper really borrows it. The model must
equal, byte for byte, both the in-process run of the same code and the
round-by-round loop that `train_gbt` used before chains were split, kept
below as the reference.
"""
import json
import multiprocessing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tabular_automl import slots
from tabular_automl.learners import train
from tabular_automl.learners.gbt import (
    MIN_HESSIAN,
    _apply_tree,
    _build_tree,
    _sigmoid,
    _subsample_rows,
)


def reference_trees(X, y, hp, weights, seed, base) -> list[list[dict]]:
    """The round-major loop: every chain gets tree t before any gets t + 1."""
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


@pytest.fixture
def trial_lease(monkeypatch):
    """This process as a forked trial holding one of two slots; counts borrows."""
    pool = slots.Slots(multiprocessing.get_context("fork"), 2)
    lease = pool.lease(0)
    borrowed = []
    borrow = slots.Lease.borrow

    def counting(self):
        took = borrow(self)
        borrowed.append(took)
        return took

    monkeypatch.setattr(slots.Lease, "borrow", counting)
    monkeypatch.setattr(slots, "current", lease)
    yield lease, borrowed
    lease.close()


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
    assert lease.slots.free.acquire(False)  # another trial takes the idle slot
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(40, 3)), np.arange(40) % 4
    hp = {"loss": "softmax_ovr", "n_trees": 3, "max_depth": 2, "learning_rate": 0.3,
          "min_child_rows": 1, "subsample": 0.8}
    model = train("gbt", X, y, hp, seed=5)
    assert borrowed and not any(borrowed)
    slots.current = None
    assert _bytes(model) == _bytes(train("gbt", X, y, hp, seed=5))
    lease.slots.free.release()
