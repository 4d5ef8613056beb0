import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from tabular_automl.data_core import ProblemType
from tabular_automl.errors import ArityMismatch, NonFiniteInput, SingleClass
from tabular_automl.learners import (
    HpDomain,
    HpSpace,
    Loss,
    class_weights,
    default_hp_space,
    evaluate,
    model_from_dict,
    model_to_dict,
    predict,
    train,
)
from tabular_automl.learners.gbt import _apply_tree
from tabular_automl.learners import linear
from tabular_automl.learners.linear import loss_and_grad
from tabular_automl.orchestrator import artifacts

REGRESSION = ProblemType(kind="regression")
BINARY = ProblemType(kind="binary_classification", n_classes=2)


def gbt_hp(**overrides):
    hp = {
        "loss": "squared_error",
        "n_trees": 30,
        "max_depth": 3,
        "learning_rate": 0.3,
        "min_child_rows": 1,
        "subsample": 1.0,
    }
    hp.update(overrides)
    return hp


class TestGbt:
    def test_single_leaf_predicts_weighted_mean(self):
        X = np.zeros((3, 1))
        y = np.array([1.0, 2.0, 3.0])
        model = train("gbt", X, y, gbt_hp(n_trees=1, max_depth=0, learning_rate=1.0))
        assert predict(model, np.array([[5.0]]))[0] == 2.0

    def test_fits_a_step_function(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(400, 1))
        y = (X[:, 0] > 0.5).astype(float) * 10.0
        model = train("gbt", X, y, gbt_hp(n_trees=50))
        pred = predict(model, X)
        assert np.sqrt(np.mean((pred - y) ** 2)) < 0.5

    def test_training_mse_never_increases_across_rounds(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.1 * rng.normal(size=200)
        model = train("gbt", X, y, gbt_hp(n_trees=40))
        score = np.full(len(y), model.base[0])
        prev = np.mean((score - y) ** 2)
        for round_trees in model.trees:
            score = score + model.learning_rate * _apply_tree(round_trees[0], X)
            cur = np.mean((score - y) ** 2)
            assert cur <= prev + 1e-9
            prev = cur

    def test_full_subsample_ignores_seed(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(120, 3))
        y = rng.normal(size=120)
        a = train("gbt", X, y, gbt_hp(), seed=0)
        b = train("gbt", X, y, gbt_hp(), seed=99)
        assert model_to_dict(a) == model_to_dict(b)

    def test_partial_subsample_same_seed_reproduces(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(120, 3))
        y = rng.normal(size=120)
        hp = gbt_hp(subsample=0.7)
        assert model_to_dict(train("gbt", X, y, hp, seed=4)) == model_to_dict(
            train("gbt", X, y, hp, seed=4)
        )

    def test_binary_probabilities(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = train("gbt", X, y, gbt_hp(loss="logistic"))
        p = predict(model, X)
        assert p.shape == (300, 2)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.mean(p.argmax(axis=1) == y) > 0.9

    def test_multiclass_probabilities(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 2))
        y = np.digitize(X[:, 0], [-0.5, 0.5])
        model = train("gbt", X, y, gbt_hp(loss="softmax_ovr"))
        p = predict(model, X)
        assert p.shape == (300, 3)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.mean(p.argmax(axis=1) == y) > 0.85

    def test_single_class_rejected(self):
        X = np.zeros((20, 1))
        with pytest.raises(SingleClass):
            train("gbt", X, np.zeros(20, dtype=int), gbt_hp(loss="logistic"))

    def test_min_child_rows_limits_leaf_size(self):
        X = np.arange(40, dtype=float).reshape(-1, 1)
        y = np.arange(40, dtype=float)
        model = train("gbt", X, y, gbt_hp(n_trees=1, max_depth=8, min_child_rows=10))

        def leaf_counts(node, rows):
            if "leaf" in node:
                return [len(rows)]
            left = rows[X[rows, node["feature"]] <= node["threshold"]]
            right = rows[X[rows, node["feature"]] > node["threshold"]]
            return leaf_counts(node["left"], left) + leaf_counts(node["right"], right)

        assert min(leaf_counts(model.trees[0][0], np.arange(40))) >= 10

    def test_round_trip_through_json(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 2))
        y = rng.normal(size=60)
        model = train("gbt", X, y, gbt_hp(n_trees=5))
        clone = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert np.array_equal(predict(model, X), predict(clone, X))


def linear_hp(**overrides):
    hp = {"link": "identity", "l2": 1e-6, "learning_rate": 0.1, "epochs": 60}
    hp.update(overrides)
    return hp


class TestLinear:
    def test_recovers_slope(self):
        X = np.linspace(-1, 1, 256).reshape(-1, 1)
        y = 2.0 * X[:, 0]
        model = train("linear", X, y, linear_hp(epochs=200))
        assert model.weights[0] == pytest.approx(2.0, abs=1e-2)

    def test_zero_epochs_logistic_predicts_half(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        y = np.array([0, 1] * 5)
        model = train("linear", X, y, linear_hp(link="logistic", epochs=0))
        p = predict(model, X)
        assert np.all(p == 0.5)

    def test_zero_epochs_softmax_predicts_uniform(self):
        X = np.random.default_rng(0).normal(size=(9, 2))
        y = np.array([0, 1, 2] * 3)
        model = train("linear", X, y, linear_hp(link="softmax", epochs=0))
        assert np.allclose(predict(model, X), 1.0 / 3.0)

    def test_same_seed_reproduces(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(100, 4))
        y = rng.normal(size=100)
        a = train("linear", X, y, linear_hp(), seed=3)
        b = train("linear", X, y, linear_hp(), seed=3)
        assert np.array_equal(a.weights, b.weights)

    def test_predict_checks_feature_count(self):
        X = np.ones((12, 2))
        model = train("linear", X, np.arange(12.0), linear_hp(epochs=1))
        with pytest.raises(ArityMismatch):
            predict(model, np.ones((3, 5)))

    def test_round_trip_through_json(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(50, 3))
        y = (X[:, 0] > 0).astype(int)
        model = train("linear", X, y, linear_hp(link="logistic", epochs=10))
        clone = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert np.array_equal(predict(model, X), predict(clone, X))

    def test_divergence_stops_at_the_first_non_finite_epoch(self, monkeypatch):
        # l2 10 with learning rate 1 overflows within a few epochs; no step
        # runs after the epoch whose weights first turn non-finite.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 3.0])
        steps, weights_after = [], []
        grad = linear._grad

        def counting_grad(w, *args):
            steps.append(1)
            out = grad(w, *args)
            weights_after.append(np.isfinite(w - out[0]).all())
            return out

        monkeypatch.setattr(linear, "_grad", counting_grad)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteInput, match="diverged"):
                train("linear", X, y, linear_hp(l2=10.0, learning_rate=1.0, epochs=10_000))
        batches = -(-len(y) // linear.BATCH_SIZE)
        first_bad_epoch = weights_after.index(False) // batches
        assert len(steps) == (first_bad_epoch + 1) * batches


class TestCompactModelEncoding:
    """Oracle for the compact model artifact: the compact and the `indent=2`
    encodings parse to equal dicts, and a model loaded from the compact text
    predicts bit-identically to the model in memory."""

    @pytest.mark.parametrize(
        "algorithm, hp, n_classes",
        [
            ("gbt", gbt_hp(n_trees=12, max_depth=4), None),
            ("gbt", gbt_hp(loss="logistic", n_trees=12, subsample=0.7), 2),
            ("gbt", gbt_hp(loss="softmax_ovr", n_trees=8, min_child_rows=3), 3),
            ("linear", linear_hp(epochs=20), None),
            ("linear", linear_hp(link="logistic", epochs=20), 2),
            ("linear", linear_hp(link="softmax", epochs=20), 3),
        ],
    )
    def test_compact_text_is_the_same_model(self, tmp_path, algorithm, hp, n_classes):
        rng = np.random.default_rng(12)
        # Wide column scales give long float reprs; the linear learner needs
        # standardized columns to converge.
        scale = np.array([1.0, 1e-7, 3e5]) if algorithm == "gbt" else 1.0
        X = rng.normal(size=(120, 3)) * scale
        if n_classes is None:
            y = X[:, 0] * 1.7 + rng.normal(size=120) / 3.0
        else:
            y = np.digitize(X[:, 0] + rng.normal(size=120) / 2.0, [-0.4, 0.4][: n_classes - 1])
        model = train(algorithm, X, y, hp, seed=5)
        doc = {"model": model_to_dict(model), "hp": hp, "valid_loss": 0.1 + 0.2}
        artifacts.dump_json(doc, tmp_path / "compact.json", compact=True)
        artifacts.dump_json(doc, tmp_path / "indented.json")
        compact = (tmp_path / "compact.json").read_text(encoding="utf-8")
        indented = (tmp_path / "indented.json").read_text(encoding="utf-8")
        assert compact.count("\n") == 1 and len(compact) < len(indented)
        assert json.loads(compact) == json.loads(indented)
        clone = model_from_dict(json.loads(compact)["model"])
        X_new = rng.normal(size=(200, 3)) * scale
        for rows in (X, X_new):
            assert predict(clone, rows).tobytes() == predict(model, rows).tobytes()


class TestGradients:
    @pytest.mark.parametrize("link", ["identity", "logistic", "softmax"])
    def test_matches_finite_differences(self, link):
        rng = np.random.default_rng(21)
        n, d, k = 16, 3, 4
        X = rng.normal(size=(n, d))
        if link == "identity":
            y = rng.normal(size=n)
            w = rng.normal(size=d)
            b = rng.normal(size=1)
        elif link == "logistic":
            y = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(size=d)
            b = rng.normal(size=1)
        else:
            y = rng.integers(0, k, size=n).astype(float)
            w = rng.normal(size=(d, k))
            b = rng.normal(size=k)
        rw = rng.uniform(0.5, 2.0, size=n)
        _, gw, gb = loss_and_grad(w, b, X, y, link, 0.01, rw)

        eps = 1e-6

        def loss_at(wv, bv):
            return loss_and_grad(wv, bv, X, y, link, 0.01, rw)[0]

        for idx in np.ndindex(w.shape):
            wp, wm = w.copy(), w.copy()
            wp[idx] += eps
            wm[idx] -= eps
            fd = (loss_at(wp, b) - loss_at(wm, b)) / (2 * eps)
            assert gw[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)
        for i in range(len(b)):
            bp, bm = b.copy(), b.copy()
            bp[i] += eps
            bm[i] -= eps
            fd = (loss_at(w, bp) - loss_at(w, bm)) / (2 * eps)
            assert gb[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestClassWeights:
    def test_inverse_frequency_mean_one(self):
        w = class_weights(np.array([0, 0, 0, 1]))
        assert w.tolist() == pytest.approx([2 / 3, 2 / 3, 2 / 3, 2.0])
        assert w.mean() == pytest.approx(1.0)

    def test_weights_rescue_rare_class(self):
        # 5% minority, clearly separated; a few unweighted GD epochs stay
        # at the all-majority solution while weighted training does not
        rng = np.random.default_rng(1)
        X = np.vstack(
            [rng.normal(0.0, 1.0, size=(475, 2)), rng.normal(2.2, 0.6, size=(25, 2))]
        )
        y = np.array([0] * 475 + [1] * 25)
        perm = rng.permutation(500)
        X, y = X[perm], y[perm]
        X_train, y_train = X[:400], y[:400]
        X_valid, y_valid = X[400:], y[400:]

        hp = linear_hp(link="logistic", l2=1e-3, learning_rate=0.05, epochs=8)
        plain = train("linear", X_train, y_train, hp, seed=0)
        weighted = train(
            "linear", X_train, y_train, hp, weights=class_weights(y_train), seed=0
        )
        plain_hard = predict(plain, X_valid).argmax(axis=1)
        weighted_hard = predict(weighted, X_valid).argmax(axis=1)
        assert int(plain_hard.sum()) <= 2
        assert int(weighted_hard.sum()) >= 20
        minority = y_valid == 1
        assert np.mean(plain_hard[minority] == 1) <= 0.4
        assert np.mean(weighted_hard[minority] == 1) > 0.8


class TestEvaluate:
    def test_rmse_constant_offset(self):
        pred = np.array([4.0, 5.0, 6.0])
        y = np.array([1.0, 2.0, 3.0])
        loss = evaluate(pred, y, REGRESSION)
        assert loss.kind == "rmse"
        assert loss.value == pytest.approx(3.0)
        assert loss.logloss is None

    def test_one_wrong_in_four(self):
        pred = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.6, 0.4]])
        y = np.array([0, 0, 1, 1])
        loss = evaluate(pred, y, BINARY)
        assert loss.kind == "error_rate"
        assert loss.value == 0.25
        assert loss.logloss > 0

    def test_classification_needs_probability_rows(self):
        with pytest.raises(ValueError):
            evaluate(np.array([0.0, 1.0]), np.array([0, 1]), BINARY)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(np.zeros(3), np.zeros(4), REGRESSION)

    def test_loss_value_validation(self):
        with pytest.raises(ValueError):
            Loss(kind="rmse", value=-0.5)
        with pytest.raises(ValueError):
            Loss(kind="error_rate", value=1.5)


class TestHpSpaces:
    def test_depth_cap_tracks_row_count(self):
        space_1024 = default_hp_space("gbt", REGRESSION, 1024, 5)
        assert space_1024.domain("max_depth").hi == 10
        space_64 = default_hp_space("gbt", REGRESSION, 64, 5)
        assert space_64.domain("max_depth").hi == 6

    def test_small_tables_still_produce_valid_spaces(self):
        for n_rows in (10, 11, 16, 199):
            space = default_hp_space("gbt", REGRESSION, n_rows, 3)
            for d in space.tunables:
                assert d.kind == "categorical" or d.lo < d.hi

    def test_min_child_rows_collapses_below_two_hundred_rows(self):
        space = default_hp_space("gbt", REGRESSION, 150, 3)
        assert space.statics["min_child_rows"] == 1
        assert "min_child_rows" not in space.tunable_names
        big = default_hp_space("gbt", REGRESSION, 1000, 3)
        assert big.domain("min_child_rows").hi == 10

    def test_loss_static_follows_problem(self):
        assert default_hp_space("gbt", BINARY, 100, 2).statics["loss"] == "logistic"
        multi = ProblemType(kind="multiclass_classification", n_classes=4)
        assert default_hp_space("gbt", multi, 100, 2).statics["loss"] == "softmax_ovr"
        assert default_hp_space("linear", multi, 100, 2).statics["link"] == "softmax"

    def test_log_float_sampling_uniform_in_log_space(self):
        domain = HpDomain("lr", "log_float", 1e-4, 1.0)
        rng = np.random.default_rng(77)
        draws = np.log([domain.sample(rng) for _ in range(10_000)])
        lo, hi = np.log(1e-4), np.log(1.0)
        assert kstest(draws, "uniform", args=(lo, hi - lo)).pvalue > 0.01

    def test_clamp_projects_and_fills(self):
        space = HpSpace(
            statics={"loss": "squared_error"},
            tunables=[HpDomain("n_trees", "int", 10, 30)],
        )
        assert space.clamp({"n_trees": 500}) == {"loss": "squared_error", "n_trees": 30}
        assert space.clamp({}) == {"loss": "squared_error", "n_trees": 20}

    def test_contains_checks_names_and_bounds(self):
        space = HpSpace(tunables=[HpDomain("x", "float", 0.0, 1.0)])
        assert space.contains({"x": 0.5})
        assert not space.contains({"x": 1.5})
        assert not space.contains({"x": 0.5, "extra": 1})

    def test_static_tunable_overlap_rejected(self):
        with pytest.raises(ValueError):
            HpSpace(statics={"x": 1}, tunables=[HpDomain("x", "float", 0.0, 1.0)])

    @pytest.mark.parametrize(
        "kind, lo, hi",
        [("int", 5, math.inf), ("float", -math.inf, 1.0), ("log_float", 1e-6, math.inf),
         ("int", 5.5, 7.5), ("float", math.nan, 1.0)],
    )
    def test_bounds_the_tuner_cannot_use_rejected(self, kind, lo, hi):
        with pytest.raises(ValueError, match="epochs: need"):
            HpDomain("epochs", kind, lo, hi)

    @given(st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_unit_cube_round_trip(self, seed):
        space = HpSpace(
            tunables=[
                HpDomain("a", "float", -2.0, 5.0),
                HpDomain("b", "log_float", 1e-3, 10.0),
                HpDomain("c", "int", 1, 9),
            ]
        )
        config = space.sample(np.random.default_rng(seed))
        back = space.from_unit(space.to_unit(config))
        assert back["c"] == config["c"]
        assert back["a"] == pytest.approx(config["a"], rel=1e-9)
        assert back["b"] == pytest.approx(config["b"], rel=1e-9)
