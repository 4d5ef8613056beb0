import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabular_automl import transforms
from tabular_automl.data_core import infer_problem_type, parse_number
from tabular_automl.errors import (
    ArityMismatch,
    ClampedInputWarning,
    DegenerateFitWarning,
    UnparseableRegressionTarget,
)
from tabular_automl.transforms import (
    MISSING_CATEGORY,
    TransformerSpec,
    apply,
    encode_labels,
    fit,
)


def _reference_parsed(values):
    """The per-cell parse `_filled` and `_numeric_column` used before `_parsed`."""
    return np.array(
        [x if (x := parse_number(v)) is not None else np.nan for v in values], dtype=float
    )


_NUMERIC_CELLS = st.one_of(
    st.sampled_from(
        [None, "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400", " 1.5 ", "1_000",
         "abc", "", "-0.0", "0", "2", "3e-2"]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=3),
)


class TestParsedOracle:
    def test_named_cells(self):
        values = [None, "nan", "inf", " 1.5 ", "1_000", "abc"]
        expected = _reference_parsed(values)
        assert np.where(np.isfinite(expected), expected, 7.0).tolist() == [
            7.0, 7.0, 7.0, 1.5, 1000.0, 7.0
        ]
        assert transforms._filled(values, 7.0).tobytes() == np.where(
            np.isfinite(expected), expected, 7.0).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(_NUMERIC_CELLS, max_size=12), mean=st.floats(-1e6, 1e6))
    def test_same_bits_as_per_cell_parse(self, values, mean):
        expected = _reference_parsed(values)
        finite = np.isfinite(expected)
        assert transforms._filled(values, mean).tobytes() == np.where(
            finite, expected, mean).tobytes()
        parsed = transforms._parsed(values)
        assert np.array_equal(np.isfinite(parsed), finite)
        assert parsed[finite].tobytes() == expected[finite].tobytes()
        if finite.any():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a sum past 1.8e308 warns on both sides
                mean_of = transforms._numeric_column(values)[1], float(expected[finite].mean())
            assert np.float64(mean_of[0]).tobytes() == np.float64(mean_of[1]).tobytes()


def col_spec(kind, **params):
    return TransformerSpec(kind=kind, params=params, select_columns=["c"])


class TestImputeMean:
    def test_learned_mean_and_fill(self):
        f = fit(col_spec("impute_mean"), [["1", None, "3"]])
        assert f.state["means"] == [2.0]
        out = apply(f, [["1", None, "3"]])
        assert out[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_fresh_rows_use_train_mean(self):
        f = fit(col_spec("impute_mean"), [["2", "4"]])
        out = apply(f, [[None]])
        assert out[0, 0] == 3.0

    def test_all_missing_warns_and_zero_fills(self):
        with pytest.warns(DegenerateFitWarning):
            f = fit(col_spec("impute_mean"), [[None, None]])
        assert apply(f, [[None]])[0, 0] == 0.0


class TestStandardize:
    def test_constant_column_maps_to_zero(self):
        f = fit(col_spec("standardize"), [["5", "5", "5"]])
        assert apply(f, [["5", "5", "5"]])[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_train_output_mean_zero(self):
        data = [["1", "2", "3", "4"]]
        out = apply(fit(col_spec("standardize"), data), data)
        assert abs(out.mean()) < 1e-12

    def test_imputes_before_scaling(self):
        out = apply(fit(col_spec("standardize"), [["1", None, "3"]]), [["1", None, "3"]])
        assert np.isfinite(out).all()
        assert out[1, 0] == 0.0  # missing -> mean -> standardizes to zero


class TestQuantileBin:
    def test_eight_values_four_bins(self):
        # oracle: sort 1..8, split into 4 equal-count groups, assign group index
        data = [[str(v) for v in range(1, 9)]]
        out = apply(fit(col_spec("quantile_bin", bins=4), data), data)
        assert out[:, 0].tolist() == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]

    def test_values_beyond_train_range(self):
        data = [[str(v) for v in range(1, 9)]]
        f = fit(col_spec("quantile_bin", bins=4), data)
        out = apply(f, [["-100", "100"]])
        assert out[0, 0] == 0.0
        assert out[1, 0] == 3.0

    def test_bins_must_be_at_least_two(self):
        with pytest.raises(Exception):
            col_spec("quantile_bin", bins=1)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=50), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_codes_bounded(self, values, bins):
        data = [[f"{v:.6f}" for v in values]]
        out = apply(fit(col_spec("quantile_bin", bins=bins), data), data)
        assert out.min() >= 0
        assert out.max() <= bins - 1


class TestOneHot:
    def test_three_categories_plus_other(self):
        f = fit(col_spec("one_hot"), [["a", "b", "c"]])
        out = apply(f, [["a", "d"]])
        assert out.shape == (2, 4)
        assert out[0].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert out[1].tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_missing_category_when_seen_in_fit(self):
        f = fit(col_spec("one_hot"), [["a", None, "b"]])
        vocab = f.state["vocabs"][0]
        assert MISSING_CATEGORY in vocab
        out = apply(f, [[None]])
        assert out[0, vocab.index(MISSING_CATEGORY)] == 1.0

    def test_rows_one_hot_sum_to_one(self):
        f = fit(col_spec("one_hot"), [["x", "y", "x"]])
        out = apply(f, [["x", "y", "zz", None]])
        assert (out.sum(axis=1) == 1.0).all()


class TestLogTransform:
    def test_ln1p(self):
        data = [["0", f"{math.e - 1}"]]
        out = apply(fit(col_spec("log_transform"), data), data)
        assert out[:, 0] == pytest.approx([0.0, 1.0])

    def test_negative_clamped_with_warning(self):
        f = fit(col_spec("log_transform"), [["1", "2"]])
        with pytest.warns(ClampedInputWarning):
            out = apply(f, [["-5"]])
        assert out[0, 0] == 0.0


class TestTfidf:
    def test_count_times_idf(self):
        docs = [["cat cat dog", "dog"]]
        f = fit(col_spec("tfidf", max_features=10), docs)
        out = apply(f, docs)
        vocab = f.state["vocabs"][0]
        assert vocab == ["cat", "dog"]
        idf_cat = math.log(3 / 2) + 1
        idf_dog = math.log(3 / 3) + 1
        assert out[0].tolist() == pytest.approx([2 * idf_cat, 1 * idf_dog])
        assert out[1].tolist() == pytest.approx([0.0, 1 * idf_dog])

    def test_vocab_caps_by_document_frequency(self):
        docs = [["aa bb", "aa bb", "aa cc"]]
        f = fit(col_spec("tfidf", max_features=2), docs)
        assert f.state["vocabs"][0] == ["aa", "bb"]

    def test_missing_text_is_zero_row(self):
        f = fit(col_spec("tfidf", max_features=4), [["some words here", None]])
        out = apply(f, [[None]])
        assert (out[0] == 0).all()

    def test_single_char_tokens_dropped(self):
        f = fit(col_spec("tfidf", max_features=10), [["a b ab"]])
        assert f.state["vocabs"][0] == ["ab"]


class TestPca:
    def test_axis_aligned_first_component(self):
        # variances (4,1): covariance eigendecomposition puts e1 first
        rng = np.random.default_rng(0)
        X = np.column_stack([2 * rng.normal(size=400), rng.normal(size=400)])
        f = fit(TransformerSpec(kind="pca", params={"k": 2}), X)
        first = np.array(f.state["components"])[0]
        assert abs(first[0]) > 0.99
        assert abs(first[1]) < 0.12

    def test_output_shape_capped(self):
        X = np.random.default_rng(1).normal(size=(5, 3))
        f = fit(TransformerSpec(kind="pca", params={"k": 10}), X)
        out = apply(f, X)
        assert out.shape == (5, 3)

    def test_projection_preserves_variance_order(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([3 * rng.normal(size=300), rng.normal(size=300)])
        out = apply(fit(TransformerSpec(kind="pca", params={"k": 2}), X), X)
        assert out[:, 0].var() >= out[:, 1].var()

    def test_k_must_be_positive(self):
        with pytest.raises(Exception):
            TransformerSpec(kind="pca", params={"k": 0})


class TestEncodeLabels:
    def _pt(self, values):
        return infer_problem_type(values)

    def test_lexicographic_class_ids(self):
        values = ["no", "yes"] * 5
        y, mapping = encode_labels(values, self._pt(values))
        assert mapping == {"no": 0, "yes": 1}
        assert y[:2].tolist() == [0, 1]

    def test_regression_parses_floats(self):
        values = [f"{i}.5" for i in range(30)]
        y, mapping = encode_labels(values, self._pt(values))
        assert mapping is None
        assert y[0] == 0.5

    def test_regression_garbage_raises(self):
        values = [f"{i}.5" for i in range(30)]
        pt = self._pt(values)
        with pytest.raises(UnparseableRegressionTarget):
            encode_labels(["abc"] * 30, pt)


class TestPlumbing:
    def test_arity_mismatch(self):
        f = fit(col_spec("standardize"), [["1", "2"]])
        with pytest.raises(ArityMismatch):
            apply(f, [["1", "2"], ["3", "4"]])

    def test_state_is_json_serializable(self):
        f = fit(col_spec("one_hot"), [["a", "b"]])
        json.dumps(f.state)

    def test_refit_is_deterministic(self):
        data = [["3", "1", None, "9"]]
        a = fit(col_spec("standardize"), data)
        b = fit(col_spec("standardize"), data)
        assert a.state == b.state
        assert np.array_equal(apply(a, data), apply(b, data))
