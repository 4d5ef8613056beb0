"""The column-wise scoring path against the row-by-row reference.

`_apply_tree` and `predict_gbt` below are verbatim copies of the
implementations that routed rows with `X[idx, f]` and boolean indexing, and
`apply` keeps the `one_hot` and `tfidf` branches of the `transforms.apply`
that filled its blocks one cell at a time (`_tokenize` is that version's
tokenizer). The current code must give the same bytes (`tobytes()`), or the
same exception.
"""
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabular_automl import transforms
from tabular_automl.errors import ArityMismatch, NonFiniteInput
from tabular_automl.learners import gbt
from tabular_automl.learners.gbt import GbtModel
from tabular_automl.learners.linear import _sigmoid
from tabular_automl.transforms import MISSING_CATEGORY, FittedTransformer, TransformerSpec

# ------------------------------------------------------------------ reference


def _apply_tree(node: dict, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X))
    stack = [(node, np.arange(len(X)))]
    while stack:
        nd, idx = stack.pop()
        if "leaf" in nd:
            out[idx] = nd["leaf"]
            continue
        go_left = X[idx, nd["feature"]] <= nd["threshold"]
        stack.append((nd["left"], idx[go_left]))
        stack.append((nd["right"], idx[~go_left]))
    return out


def predict_gbt(model: GbtModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ArityMismatch(f"expected {model.n_features} features, got {X.shape}")

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


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= 2]


def apply(f: FittedTransformer, data) -> np.ndarray:
    spec = f.spec
    columns = list(data)
    n_rows = len(columns[0])
    outs: list[np.ndarray] = []

    if spec.kind == "one_hot":
        for c, vocab in zip(columns, f.state["vocabs"]):
            index = {cat: i for i, cat in enumerate(vocab)}
            block = np.zeros((n_rows, len(vocab) + 1))
            for r, v in enumerate(c):
                key = MISSING_CATEGORY if v is None else str(v)
                block[r, index.get(key, len(vocab))] = 1.0
            outs.append(block)
    elif spec.kind == "tfidf":
        for c, vocab, idf in zip(columns, f.state["vocabs"], f.state["idfs"]):
            index = {tok: i for i, tok in enumerate(vocab)}
            block = np.zeros((n_rows, len(vocab)))
            for r, v in enumerate(c):
                if v is None:
                    continue
                for tok, count in Counter(_tokenize(str(v))).items():
                    if tok in index:
                        block[r, index[tok]] = count * idf[index[tok]]
            outs.append(block)
    else:
        raise ValueError(f"unknown transformer kind {spec.kind!r}")

    result = np.hstack(outs) if outs else np.zeros((n_rows, 0))
    if not np.all(np.isfinite(result)):
        raise NonFiniteInput(f"{spec.kind} produced non-finite output")
    return result


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the reference's error is part of its behaviour
        return (type(exc), str(exc))


def assert_same_bytes(new, old):
    if isinstance(old, tuple):
        assert new == old
        return
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


# ------------------------------------------------------------------ trees

_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, np.nan]),
    st.floats(-1e6, 1e6, allow_nan=False),
)
_LEAVES = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def matrices(draw, n_features=None):
    """Rows drawn from a small pool of values per column, so x == threshold ties occur."""
    d = n_features if n_features is not None else draw(st.integers(1, 4))
    n = draw(st.sampled_from([0, 1, 2, 7, 30, 64]))
    pools = [draw(st.lists(_VALUES, min_size=1, max_size=5)) for _ in range(d)]
    cols = [draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)) for pool in pools]
    return np.array(cols, dtype=float).T.reshape(n, d)


@st.composite
def trees(draw, X, depth):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return {"leaf": draw(_LEAVES)}
    j = draw(st.integers(0, X.shape[1] - 1))
    column = [x for x in X[:, j].tolist() if not math.isnan(x)]
    if column and draw(st.booleans()):
        threshold = draw(st.sampled_from(column))
    else:
        threshold = draw(_VALUES.filter(lambda x: not math.isnan(x)))
    return {
        "feature": j,
        "threshold": threshold,
        "left": draw(trees(X, depth - 1)),
        "right": draw(trees(X, depth - 1)),
    }


def layouts(X):
    """The same rows as C-order, F-order and non-contiguous arrays."""
    wide = np.zeros((2 * len(X), 2 * X.shape[1]))
    wide[::2, ::2] = X
    return {
        "C": np.ascontiguousarray(X),
        "F": np.asfortranarray(X),
        "strided": wide[::2, ::2],
        "reversed": np.ascontiguousarray(X[::-1, ::-1])[::-1, ::-1],
    }


@st.composite
def models(draw):
    X = draw(matrices())
    kind = draw(st.sampled_from(
        ["regression", "binary_classification", "multiclass_classification"]
    ))
    n_chains = draw(st.integers(3, 4)) if kind == "multiclass_classification" else 1
    n_rounds = draw(st.integers(0, 4))
    model = GbtModel(
        problem_kind=kind,
        n_classes={"regression": None, "binary_classification": 2}.get(kind, n_chains),
        n_features=X.shape[1],
        learning_rate=draw(st.sampled_from([0.1, 0.3, 1.0, 0.05])),
        base=[draw(_LEAVES) for _ in range(n_chains)],
        trees=[[draw(trees(X, 4)) for _ in range(n_chains)] for _ in range(n_rounds)],
    )
    return model, X


class TestApplyTree:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_on_every_layout(self, data):
        X = data.draw(matrices())
        tree = data.draw(trees(X, 5))
        old = _apply_tree(tree, X)
        for view in layouts(X).values():
            assert_same_bytes(gbt._apply_tree(tree, view), old)

    def test_ties_go_left(self):
        X = np.array([[1.0], [2.0], [3.0], [np.nan]])
        tree = {"feature": 0, "threshold": 2.0, "left": {"leaf": -1.0}, "right": {"leaf": 1.0}}
        assert gbt._apply_tree(tree, X).tolist() == [-1.0, -1.0, 1.0, 1.0]
        assert_same_bytes(gbt._apply_tree(tree, X), _apply_tree(tree, X))


class TestPredictGbt:
    @given(models())
    @settings(max_examples=200, deadline=None)
    def test_equals_reference_on_every_layout(self, model_and_X):
        model, X = model_and_X
        old = _outcome(predict_gbt, model, X)
        for view in layouts(X).values():
            assert_same_bytes(_outcome(gbt.predict_gbt, model, view), old)

    @given(models())
    @settings(max_examples=30, deadline=None)
    def test_wrong_shapes_fail_the_same_way(self, model_and_X):
        model, X = model_and_X
        for bad in (X[:, :0], np.zeros((len(X), model.n_features + 1)), X.ravel(), 5.0):
            assert _outcome(gbt.predict_gbt, model, bad) == _outcome(predict_gbt, model, bad)

    def test_trained_model_on_mixed_rows(self):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 4, size=(300, 3)).astype(float)
        y = (X[:, 0] + rng.normal(size=300) > 1.5).astype(int)
        hp = {"loss": "logistic", "n_trees": 20, "max_depth": 4, "learning_rate": 0.2,
              "min_child_rows": 1, "subsample": 0.8}
        model = gbt.train_gbt(X, y, hp, seed=1)
        for view in layouts(X).values():
            assert_same_bytes(gbt.predict_gbt(model, view), predict_gbt(model, X))


# ------------------------------------------------------------------ transforms

_WORDS = [
    "alpha", "Alpha", "ALPHA", "bravo", "x1", "a", "b", "7", "42", "urgent", "escalation",
    "café", "naïve", "İstanbul", "ΣΟΦΙΑΣ", "straße", "Kelvin", "ﬁle", "|", "||", "a|b",
]
_TEXT_CELLS = st.one_of(
    st.none(),
    st.lists(st.sampled_from(_WORDS), min_size=0, max_size=8).map(" ".join),
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5).map(", ".join),
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4).map("\n-".join),
    st.text(max_size=12),
    st.text(alphabet="ab AB.,|1\t\n", max_size=16),
)


def text_columns(min_size=1, max_size=30):
    return st.lists(_TEXT_CELLS, min_size=min_size, max_size=max_size)


def _tfidf(vocabs, idfs):
    spec = TransformerSpec(kind="tfidf", params={"max_features": 50})
    return FittedTransformer(spec, {"vocabs": vocabs, "idfs": idfs}, len(vocabs),
                             sum(len(v) for v in vocabs))


def _one_hot(vocabs):
    spec = TransformerSpec(kind="one_hot")
    return FittedTransformer(spec, {"vocabs": vocabs}, len(vocabs),
                             sum(len(v) + 1 for v in vocabs))


class TestTokenize:
    @given(st.one_of(_TEXT_CELLS.filter(lambda v: v is not None), st.text()))
    @settings(max_examples=500, deadline=None)
    def test_equals_reference(self, text):
        assert transforms._tokenize(text) == _tokenize(text)


class TestTfidf:
    @given(text_columns(), text_columns(min_size=0), st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_fitted_equals_reference(self, train, rows, max_features):
        f = transforms.fit(TransformerSpec(kind="tfidf", params={"max_features": max_features}),
                           [train])
        assert_same_bytes(_outcome(transforms.apply, f, [rows]), _outcome(apply, f, [rows]))

    @given(
        st.lists(st.sampled_from(["a", "ab", "alpha", "x1", "7", "42", "||", "|", "Alpha", "b"]),
                 max_size=6),
        st.lists(st.floats(0.5, 5.0), min_size=6, max_size=6),
        st.lists(text_columns(min_size=5, max_size=5), min_size=1, max_size=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_hand_edited_vocabulary_equals_reference(self, vocab, idf, columns):
        # one-character and never-produced tokens, duplicates, and the empty vocabulary
        vocabs = [vocab] * len(columns)
        f = _tfidf(vocabs, [idf[: len(vocab)]] * len(columns))
        assert_same_bytes(_outcome(transforms.apply, f, columns), _outcome(apply, f, columns))

    @pytest.mark.parametrize("idf", [[-1.5, 2.0], [math.inf, 1.0], [math.nan, 1.0], [3, 1]])
    def test_unusual_idf_values_equal_reference(self, idf):
        f = _tfidf([["zz", "ab"]], [idf])
        for rows in (["ab ab", None, "zz"], ["ab", "ab ab ab"], [None, "q"]):
            assert_same_bytes(_outcome(transforms.apply, f, [rows]), _outcome(apply, f, [rows]))

    def test_repeated_tokens_multiply_the_idf(self):
        idf = 1.0 + math.log(7 / 3)
        f = _tfidf([["ab", "cd"]], [[idf, 0.1]])
        rows = ["ab AB ab, Ab", "cd cd cd", "a b ab|cd", None, "", "x"]
        out = transforms.apply(f, [rows])
        assert_same_bytes(out, apply(f, [rows]))
        assert out[0, 0] == 4 * idf and out[1, 1] == 3 * 0.1
        assert out[2].tolist() == [idf, 0.1]

    def test_one_character_vocabulary_tokens_never_count(self):
        f = _tfidf([["a", "ab"]], [[2.0, 3.0]])
        assert transforms.apply(f, [["a a ab", "A"]]).tolist() == [[0.0, 3.0], [0.0, 0.0]]


class TestOneHot:
    @given(
        st.lists(st.one_of(st.none(), st.sampled_from(["x", "y", "z", "<other>", "1"])),
                 min_size=1, max_size=20),
        st.lists(st.one_of(st.none(), st.sampled_from(["x", "y", "w", "", "1", "<missing>"])),
                 max_size=20),
    )
    @settings(max_examples=300, deadline=None)
    def test_fitted_equals_reference(self, train, rows):
        f = transforms.fit(TransformerSpec(kind="one_hot"), [train])
        assert_same_bytes(_outcome(transforms.apply, f, [rows]), _outcome(apply, f, [rows]))

    @given(
        st.lists(st.lists(st.sampled_from(["x", "y", MISSING_CATEGORY, "x"]), max_size=4),
                 min_size=1, max_size=3),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_hand_edited_vocabulary_equals_reference(self, vocabs, data):
        n = data.draw(st.integers(0, 8))
        cells = st.one_of(st.none(), st.sampled_from(["x", "y", "q", MISSING_CATEGORY]))
        columns = [data.draw(st.lists(cells, min_size=n, max_size=n)) for _ in vocabs]
        f = _one_hot(vocabs)
        assert_same_bytes(_outcome(transforms.apply, f, columns), _outcome(apply, f, columns))
