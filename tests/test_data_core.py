import csv
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabular_automl import data_core
from tabular_automl.data_core import (
    DEFAULT_MISSING_LITERALS,
    RawTable,
    _read_csv_cells,
    detect_imbalance,
    drop_missing_target,
    infer_problem_type,
    load_csv,
    load_feature_csv,
    parse_number,
    profile_column,
    stratified_split,
    compute_meta_features,
)
from tabular_automl.errors import (
    ClassTooSmallWarning,
    DegenerateTarget,
    EmptyData,
    MalformedCsv,
    MissingTarget,
    TooFewRows,
    WrongProblemType,
)
from tabular_automl.schema import build_schema


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_basic_shape(self, tmp_path):
        t = load_csv(write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n"), "y")
        assert t.n_rows == 3
        assert t.n_cols == 3
        assert t.target_index == 2
        assert t.target_name == "y"

    def test_empty_string_is_missing(self, tmp_path):
        t = load_csv(write(tmp_path, "a,y\n,1\n2,3\n"), "y")
        assert t.cells[0][0] is None

    def test_missing_literals_case_insensitive(self, tmp_path):
        t = load_csv(write(tmp_path, "a,y\nNA,1\nnull,2\nN/A,3\nNaN,4\n"), "y")
        assert [row[0] for row in t.cells] == [None, None, None, None]

    def test_unknown_target(self, tmp_path):
        with pytest.raises(MissingTarget):
            load_csv(write(tmp_path, "a,b\n1,2\n"), "z")

    def test_ragged_row(self, tmp_path):
        with pytest.raises(MalformedCsv):
            load_csv(write(tmp_path, "a,y\n1,2\n3\n"), "y")

    def test_no_rows(self, tmp_path):
        with pytest.raises(EmptyData):
            load_csv(write(tmp_path, "a,y\n"), "y")

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyData):
            load_csv(write(tmp_path, ""), "y")

    def test_quoted_comma_preserved(self, tmp_path):
        t = load_csv(write(tmp_path, 'a,y\n"x, with comma",1\n'), "y")
        assert t.cells[0][0] == "x, with comma"

    def test_feature_csv_needs_no_target(self, tmp_path):
        header, cells = load_feature_csv(write(tmp_path, "a,b\n1,\n"))
        assert header == ["a", "b"]
        assert cells == [["1", None]]


def _reference_read_csv_cells(path, missing_literals):
    """`data_core._read_csv_cells` as it was when it lowercased cell by cell."""
    lowered = {m.lower() for m in missing_literals}
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            reader = csv.reader(f, strict=True)
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyData(f"{path}: file is empty")
            rows = list(reader)
    except csv.Error as exc:
        raise MalformedCsv(f"{path}: {exc}") from exc
    if not rows:
        raise EmptyData(f"{path}: no data rows")

    n_cols = len(header)
    cells = []
    for i, row in enumerate(rows):
        if len(row) != n_cols:
            raise MalformedCsv(f"{path}: row {i + 2} has {len(row)} fields, expected {n_cols}")
        cells.append([None if c.lower() in lowered else c for c in row])
    return header, cells


def _read_with(path, literals):
    """`_read_csv_cells` with `literals` in place of the module's missing-literal set."""
    with mock.patch.object(data_core, "DEFAULT_MISSING_LITERALS", literals):
        return _read_csv_cells(path)


def _outcome(read, path, literals):
    try:
        return read(path, literals)
    except Exception as exc:
        return type(exc), str(exc)


_CELL_TEXT = st.one_of(
    st.sampled_from(
        ["", "na", "Na", "NA", "nA", "null", "NULL", "Null", "n/a", "N/A", "NaN", "nan",
         " na", "?", "-", "Missing", "MISSING", "1.5", "x", "İ"]
    ),
    st.text(max_size=4),
)
_LITERAL_SETS = st.sampled_from(
    [DEFAULT_MISSING_LITERALS, frozenset({"?", "-", "Missing"}), frozenset(), frozenset({"x"})]
)


class TestReadCsvCellsOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        n_cols=st.integers(1, 4),
        rows=st.lists(st.lists(_CELL_TEXT, min_size=1, max_size=5), min_size=1, max_size=8),
        literals=_LITERAL_SETS,
    )
    def test_equals_reference(self, n_cols, rows, literals):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.csv"
            with open(path, "w", encoding="utf-8", newline="") as f:
                csv.writer(f).writerows([[f"c{j}" for j in range(n_cols)]] + rows)
            new = _outcome(_read_with, path, literals)
            assert new == _outcome(_reference_read_csv_cells, path, literals)

    def test_first_ragged_row_is_named(self, tmp_path):
        path = write(tmp_path, "a,y\nNa,1\n3\n4,5,6\n")
        with pytest.raises(MalformedCsv) as new:
            _read_csv_cells(path)
        with pytest.raises(MalformedCsv) as old:
            _reference_read_csv_cells(path, DEFAULT_MISSING_LITERALS)
        assert str(new.value) == str(old.value)
        assert "row 3 has 1 fields, expected 2" in str(new.value)

    def test_custom_literals_case_insensitive(self, tmp_path):
        path = write(tmp_path, "a,b\n?,NA\nMISSING,Missing\nnull,x\n")
        literals = frozenset({"?", "missing"})
        assert _read_with(path, literals) == _reference_read_csv_cells(path, literals)
        assert _read_with(path, literals)[1] == [[None, "NA"], [None, None], ["null", "x"]]


class TestParseNumber:
    def test_accepts_floats_ints_scientific(self):
        assert parse_number("1.5") == 1.5
        assert parse_number("2") == 2.0
        assert parse_number("3e1") == 30.0

    def test_rejects_garbage_and_nonfinite(self):
        assert parse_number("abc") is None
        assert parse_number("inf") is None
        assert parse_number(None) is None


class TestProfileColumn:
    def test_numeric_with_missing(self):
        p = profile_column(["1", "2", "3", None])
        assert p.missing_fraction == 0.25
        assert p.numeric_parse_fraction == 1.0
        assert p.mean == 2.0
        assert p.n_unique == 3

    def test_strings(self):
        p = profile_column(["a", "a", "b"])
        assert p.numeric_parse_fraction == 0.0
        assert p.n_unique == 2

    def test_outlier_count(self):
        # one point at 50 among N(0,1) draws shifts mean/std but stays > 3 sigma
        rng = np.random.default_rng(0)
        values = [f"{v:.6f}" for v in rng.normal(0, 1, 100)] + ["50"]
        assert profile_column(values).outlier_count_3sigma >= 1

    def test_percentiles_nearest_rank(self):
        p = profile_column(["1", "2", "3", "4"])
        # nearest-rank: rank ceil(0.5 * 4) = 2 -> second smallest
        assert p.percentiles["p50"] == 2.0
        assert p.percentiles["p1"] == 1.0
        assert p.percentiles["p99"] == 4.0

    def test_skewness_hand_value(self):
        # [0,0,0,1]: mean .25, population sigma sqrt(3)/4,
        # m3 = (3*(-1/4)^3 + (3/4)^3)/4 = 3/32 -> skew = 2/sqrt(3)
        p = profile_column(["0", "0", "0", "1"])
        assert p.skewness == pytest.approx(2 / math.sqrt(3), rel=1e-12)

    def test_constant_column_zero_skew(self):
        p = profile_column(["5", "5", "5"])
        assert p.std_dev == 0.0
        assert p.skewness == 0.0

    def test_token_stats(self):
        p = profile_column(["the quick fox", "jumped over dogs"])
        assert p.mean_token_count == 3.0
        assert p.alpha_token_fraction == 1.0

    def test_datetime_fraction(self):
        p = profile_column(["2021-01-02", "2021-05-06", "not a date"])
        assert p.datetime_parse_fraction == pytest.approx(2 / 3)

    def test_all_missing(self):
        p = profile_column([None, None])
        assert p.missing_fraction == 1.0
        assert p.numeric_parse_fraction == 0.0
        assert p.mean is None

    @given(st.lists(st.one_of(st.none(), st.text(max_size=12)), min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_never_crashes(self, values):
        p = profile_column(values)
        assert 0.0 <= p.missing_fraction <= 1.0
        assert 0.0 <= p.numeric_parse_fraction <= 1.0


class TestProblemType:
    def test_two_strings_binary(self):
        vals = ["yes", "no"] * 10
        pt = infer_problem_type(vals)
        assert pt.kind == "binary_classification"
        assert pt.n_classes == 2

    def test_distinct_floats_regression(self):
        vals = [f"{i + 0.5}" for i in range(1000)]
        pt = infer_problem_type(vals)
        assert pt.kind == "regression"
        assert not pt.is_classification

    def test_small_int_codes_multiclass(self):
        vals = [str(i % 5) for i in range(500)]
        pt = infer_problem_type(vals)
        assert pt.kind == "multiclass_classification"
        assert pt.n_classes == 5

    def test_constant_target_degenerate(self):
        vals = ["1"] * 20
        with pytest.raises(DegenerateTarget):
            infer_problem_type(vals)


def _table(labels, n_extra_cols=1):
    names = [f"x{i}" for i in range(n_extra_cols)] + ["y"]
    cells = [[str(i)] * n_extra_cols + [lab] for i, lab in enumerate(labels)]
    return RawTable(column_names=names, cells=cells, target_index=n_extra_cols)


class TestStratifiedSplit:
    def test_balanced_exact_counts(self):
        t = _table(["a"] * 50 + ["b"] * 50)
        pt = infer_problem_type(t.column(1))
        train, valid = stratified_split(t, 0.2, pt, seed=0)
        assert train.n_rows == 80 and valid.n_rows == 20
        for fold, expected in ((train, 40), (valid, 10)):
            labels = fold.column(fold.target_index)
            assert labels.count("a") == expected
            assert labels.count("b") == expected

    def test_same_seed_identical(self):
        t = _table(["a", "b"] * 30)
        pt = infer_problem_type(t.column(1))
        a = stratified_split(t, 0.25, pt, seed=9)
        b = stratified_split(t, 0.25, pt, seed=9)
        assert a[0].cells == b[0].cells and a[1].cells == b[1].cells

    def test_singleton_class_goes_to_train(self):
        t = _table(["a"] * 30 + ["b"] * 30 + ["rare"])
        pt = infer_problem_type(t.column(1))
        with pytest.warns(ClassTooSmallWarning):
            train, valid = stratified_split(t, 0.2, pt, seed=1)
        assert "rare" in train.column(1)
        assert "rare" not in valid.column(1)

    def test_too_few_rows(self):
        t = _table(["a", "b"] * 4)  # 8 rows
        pt = infer_problem_type(t.column(1))
        with pytest.raises(TooFewRows):
            stratified_split(t, 0.2, pt, seed=0)

    def test_regression_split_partitions_rows(self):
        labels = [f"{v:.4f}" for v in np.random.default_rng(3).normal(size=57)]
        t = _table(labels)
        pt = infer_problem_type(t.column(1))
        train, valid = stratified_split(t, 0.3, pt, seed=5)
        seen = sorted(r[0] for r in train.cells) + sorted(r[0] for r in valid.cells)
        assert sorted(seen) == sorted(r[0] for r in t.cells)

    @given(st.integers(0, 1000), st.floats(0.1, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_split_is_a_partition(self, seed, fraction):
        labels = ["a"] * 24 + ["b"] * 12 + ["c"] * 6
        t = _table(labels)
        pt = infer_problem_type(t.column(1))
        train, valid = stratified_split(t, fraction, pt, seed=seed)
        assert train.n_rows + valid.n_rows == t.n_rows


class TestImbalance:
    def _pt(self):
        vals = ["0", "1"] * 10
        return infer_problem_type(vals)

    def test_heavy_imbalance(self):
        info = detect_imbalance(["0"] * 990 + ["1"] * 10, self._pt())
        assert info.minority_fraction == pytest.approx(0.01)
        assert info.is_imbalanced

    def test_balanced(self):
        info = detect_imbalance(["0"] * 50 + ["1"] * 50, self._pt())
        assert info.minority_fraction == 0.5
        assert not info.is_imbalanced

    def test_threshold_is_strict(self):
        info = detect_imbalance(["0"] * 80 + ["1"] * 20, self._pt())
        assert info.minority_fraction == pytest.approx(0.2)
        assert not info.is_imbalanced

    def test_wrong_problem_type(self):
        vals = [f"{i}.5" for i in range(30)]
        pt = infer_problem_type(vals)
        with pytest.raises(WrongProblemType):
            detect_imbalance(vals, pt)


class TestDropMissingTarget:
    def test_counts(self):
        t = RawTable(["x", "y"], [["1", "2"], ["3", None], ["5", "6"]], 1)
        kept, dropped = drop_missing_target(t)
        assert dropped == 1
        assert kept.n_rows == 2

    def test_all_missing(self):
        t = RawTable(["x", "y"], [["1", None]], 1)
        with pytest.raises(EmptyData):
            drop_missing_target(t)


class TestMetaFeatures:
    def _mf(self, t):
        idx = t.feature_indices()
        profiles = [profile_column(t.column(i)) for i in idx]
        names = [t.column_names[i] for i in idx]
        schema = build_schema(profiles, names=names)
        return compute_meta_features(t, profiles, [e.primary for e in schema.entries])

    def test_shape_and_density(self):
        cells = [[f"{i}.0", f"{i * 2}.0", str(i % 3), f"{i}.5"] for i in range(10)]
        t = RawTable(["a", "b", "c", "y"], cells, 3)
        mf = self._mf(t)
        assert mf.n_rows == 10 and mf.n_cols == 4
        assert mf.density == 1.0

    def test_determinism(self):
        rng = np.random.default_rng(8)
        cells = [[f"{v:.3f}", f"{w:.3f}"] for v, w in rng.normal(size=(40, 2))]
        t = RawTable(["a", "y"], cells, 1)
        assert self._mf(t) == self._mf(t)

    def test_missing_cells_lower_density(self):
        cells = [["1", "2"], [None, "3"]]
        t = RawTable(["a", "y"], cells, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mf = self._mf(t)
        assert mf.density == pytest.approx(0.75)
