"""The distinct-value profiling in data_core against the row-by-row reference.

`profile_column`, `infer_problem_type`, `compute_meta_features` and
`_estimate_size_bytes` below are verbatim copies of the implementations that
parsed, tokenized and date-matched every cell. The current code must give
bit-identical results: floats are compared through `repr`.
"""
import dataclasses
import math
import re
import warnings
from collections import Counter
from typing import Sequence

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tabular_automl import data_core
from tabular_automl.data_core import (
    ColumnProfile,
    MetaFeatures,
    ProblemType,
    RawTable,
    _nearest_rank,
    parse_number,
)
from tabular_automl.errors import DegenerateTarget, UnparseableRegressionTarget
from tabular_automl.schema import detect_column_type

_DATE_PATTERNS = [
    re.compile(r"^\d{4}-\d{2}-\d{2}([T ]\d{2}:\d{2}(:\d{2}(\.\d+)?)?(Z|[+-]\d{2}:?\d{2})?)?$"),
    re.compile(r"^\d{4}/\d{2}/\d{2}$"),
    re.compile(r"^\d{1,2}/\d{1,2}/\d{4}$"),
]


def profile_column(values: Sequence) -> ColumnProfile:
    """Profile one column of string-or-missing cells."""
    n = len(values)
    if n == 0:
        raise ValueError("cannot profile an empty column")
    present = [v for v in values if v is not None]
    n_present = len(present)
    missing_fraction = 1.0 - n_present / n

    numeric = np.array([x for x in (parse_number(v) for v in present) if x is not None])
    numeric_parse_fraction = len(numeric) / n_present if n_present else 0.0

    n_unique = len({str(v) for v in present})

    percentiles = mean = std_dev = skewness = None
    outliers = 0
    if len(numeric):
        s = np.sort(numeric)
        percentiles = {f"p{p}": _nearest_rank(s, p) for p in (1, 25, 50, 75, 99)}
        mean = float(numeric.mean())
        std_dev = float(numeric.std())  # population
        if std_dev > 0:
            skewness = float(((numeric - mean) ** 3).mean() / std_dev**3)
            outliers = int(np.sum(np.abs(numeric - mean) > 3 * std_dev))
        else:
            skewness = 0.0

    tokens_per_value = [str(v).split() for v in present]
    all_tokens = [tok for toks in tokens_per_value for tok in toks]
    mean_token_count = len(all_tokens) / n_present if n_present else 0.0
    alpha_token_fraction = (
        sum(1 for tok in all_tokens if tok.isalpha()) / len(all_tokens) if all_tokens else 0.0
    )

    dt_hits = sum(1 for v in present if any(p.match(str(v)) for p in _DATE_PATTERNS))
    datetime_parse_fraction = dt_hits / n_present if n_present else 0.0

    return ColumnProfile(
        missing_fraction=missing_fraction,
        numeric_parse_fraction=numeric_parse_fraction,
        n_unique=n_unique,
        percentiles=percentiles,
        mean=mean,
        std_dev=std_dev,
        skewness=skewness,
        mean_token_count=mean_token_count,
        alpha_token_fraction=alpha_token_fraction,
        outlier_count_3sigma=outliers,
        datetime_parse_fraction=datetime_parse_fraction,
        n_values=n,
    )


def infer_problem_type(target_profile: ColumnProfile, target_values: Sequence) -> ProblemType:
    """Classify the prediction problem from the target column.

    Non-numeric targets are categorical. Numeric targets with at most 20
    unique, all-integral values are treated as class labels; anything else
    is regression.
    """
    present = [v for v in target_values if v is not None]
    uniques = {str(v) for v in present}
    if len(uniques) <= 1:
        raise DegenerateTarget("target column has a single unique value")

    parsed = [parse_number(v) for v in present]
    all_numeric = all(x is not None for x in parsed)
    if all_numeric:
        all_integral = all(float(x).is_integer() for x in parsed)
        if not (all_integral and len(uniques) <= 20):
            return ProblemType(kind="regression")

    n_classes = len(uniques)
    kind = "binary_classification" if n_classes == 2 else "multiclass_classification"
    return ProblemType(kind=kind, n_classes=n_classes)


def _estimate_size_bytes(t: RawTable) -> int:
    total = sum(len(name.encode("utf-8")) for name in t.column_names) + t.n_cols
    for row in t.cells:
        total += sum(len(c.encode("utf-8")) if c is not None else 0 for c in row) + t.n_cols
    return total


def compute_meta_features(
    t: RawTable, profiles: Sequence[ColumnProfile], types: Sequence["ColumnType"]
) -> MetaFeatures:
    """Dataset-level statistics. `profiles`/`types` align with t's feature columns."""
    feature_idx = t.feature_indices()
    if len(profiles) != len(feature_idx) or len(types) != len(feature_idx):
        raise ValueError("profiles/types must align with the table's feature columns")

    type_distribution = dict(Counter(ct.value for ct in types))

    n_cells = t.n_rows * t.n_cols
    present = sum(1 for row in t.cells for c in row if c is not None)
    density = present / n_cells if n_cells else 0.0

    target = t.column(t.target_index)
    target_problem = infer_problem_type(profile_column(target), target)
    from tabular_automl.schema import ColumnType
    from tabular_automl.transforms import encode_labels

    y, _ = encode_labels(target, target_problem)
    correlations: dict[str, float] = {}
    for idx, ctype in zip(feature_idx, types):
        if ctype != ColumnType.NUMERIC:
            continue
        col = [parse_number(v) for v in t.column(idx)]
        pairs = [(x, yy) for x, yy in zip(col, y) if x is not None]
        if len(pairs) < 2:
            correlations[t.column_names[idx]] = 0.0
            continue
        xs = np.array([p[0] for p in pairs])
        ys = np.array([p[1] for p in pairs])
        if xs.std() == 0 or ys.std() == 0:
            correlations[t.column_names[idx]] = 0.0
        else:
            correlations[t.column_names[idx]] = float(abs(np.corrcoef(xs, ys)[0, 1]))

    return MetaFeatures(
        n_rows=t.n_rows,
        n_cols=t.n_cols,
        type_distribution=type_distribution,
        target_correlations=correlations,
        size_bytes=t.size_bytes if t.size_bytes is not None else _estimate_size_bytes(t),
        density=density,
    )


# ------------------------------------------------------------------ columns

_WORDS = ["alpha", "bravo", "urgent", "café", "x1", "3", "-", "2021-01-02", "Ab"]
_DATES = st.sampled_from([
    "2021-01-02", "2021-01-02T10:20", "2021-01-02 10:20:30", "2021-01-02T10:20:30.125",
    "2021-01-02T10:20:30Z", "2021-01-02T10:20+05:30", "2021-01-02 10:20:30.5-0800",
    "2021/01/02", "1/2/2021", "12/31/2021", "2021-01-02\n", "٢٠٢١-٠١-٠٢", "१/२/२०२१",
    "2021-1-2", "21/01/02", "2021-01-02T",
])
_NUMBERS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda x: f"{x:.6g}"),
    st.sampled_from([
        "inf", "-inf", "Infinity", "nan", "NaN", "1e999", "-1e999", "0", "-0", "+3", ".5", "5.",
        "1_000", "1_0.2_5", "1__0", "_1", "1e-05", "1E5", " 12 ", "\t3.5\n", "\xa07 ",
        "\x1c8", "9\x1f", "١٢٣", "٣.٥", "१२", "²", "12 34", "1,5", "0x10",
    ]),
)
_TEXT = st.one_of(
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6).map(" ".join),
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4).map("\t ".join),
    st.text(max_size=10),
)
_CELLS = st.one_of(st.none(), _NUMBERS, _DATES, _TEXT)


@st.composite
def columns(draw, min_size=1, max_size=40):
    """Columns of mixed cells, drawn from a small pool so values repeat."""
    pool = draw(st.lists(_CELLS, min_size=1, max_size=8))
    size = draw(st.integers(min_size, max_size))
    if draw(st.booleans()):
        return [pool[0]] * size  # one repeated value
    return draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))


def _numeric_columns(n_rows):
    return st.lists(st.one_of(st.none(), _NUMBERS), min_size=n_rows, max_size=n_rows)


def assert_same(new, old):
    """Equal dataclass fields, floats bit for bit; `numbers` is new-only."""
    assert type(new) is type(old)
    for f in dataclasses.fields(old):
        if f.name == "numbers":
            continue
        assert repr(getattr(new, f.name)) == repr(getattr(old, f.name)), f.name


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the reference's error is part of its behaviour
        return (type(exc), str(exc))


# ------------------------------------------------------------------ tests


def _scaled_skewness(profile):
    """The fallback for a skewness the reference cannot give as a finite number."""
    numeric = profile.numbers[~np.isnan(profile.numbers)]
    with np.errstate(all="ignore"):
        return float((((numeric - profile.mean) / profile.std_dev) ** 3).mean())


class TestProfileColumn:
    @given(columns())
    @settings(max_examples=400, deadline=None)
    def test_equals_reference(self, values):
        new, old = _outcome(data_core.profile_column, values), _outcome(profile_column, values)
        if isinstance(old, tuple) and old[0] is OverflowError:
            # The reference's std_dev**3 overflows past about 5.6e102.
            assert math.isfinite(new.skewness)
            assert repr(new.skewness) == repr(_scaled_skewness(new))
        elif isinstance(old, tuple):
            assert new == old
        elif old.skewness is not None and not math.isfinite(old.skewness):
            # The reference's cubes overflowed.
            assert repr(new.skewness) == repr(_scaled_skewness(new))
            assert_same(dataclasses.replace(new, skewness=old.skewness), old)
        else:
            assert_same(new, old)

    @pytest.mark.parametrize("values", [
        ["0", "1.1287606188244725e+103"],
        ["1e104", "2e103", "-3e104", "0", "5e104"],
        ["1e-110", "3e-110", "0"],
    ])
    def test_extreme_spread_gives_finite_skewness_without_warnings(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = data_core.profile_column(values)
        assert math.isfinite(profile.skewness)
        assert repr(profile.skewness) == repr(_scaled_skewness(profile))

    @pytest.mark.parametrize("values", [
        [None],
        ["2021-01-02"] * 3 + [None],
        ["1", " 1", "1 ", "1.0", "1_0"],
        ["inf", "-inf", "1", "2"],
        ["١٢٣", "123", "٢٠٢١-٠١-٠٢"],
        ["the quick fox", "the quick fox", "jumped 2 times"],
    ])
    def test_hand_cases(self, values):
        assert_same(data_core.profile_column(values), profile_column(values))

    @given(columns(min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_numbers_are_the_parsed_cells_in_row_order(self, values):
        profile = _outcome(data_core.profile_column, values)
        assume(not isinstance(profile, tuple))
        numbers = profile.numbers
        expected = [parse_number(v) for v in values]
        assert [None if math.isnan(x) else x for x in numbers.tolist()] == expected


class TestInferProblemType:
    @given(columns(max_size=30))
    @settings(max_examples=300, deadline=None)
    # The reference never reads its profile argument.
    def test_equals_reference(self, values):
        new = _outcome(data_core.infer_problem_type, values)
        assert new == _outcome(infer_problem_type, None, values)

    @given(st.lists(st.integers(-3, 25).map(str), min_size=2, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_integer_codes_equal_reference(self, values):
        new = _outcome(data_core.infer_problem_type, values)
        assert new == _outcome(infer_problem_type, None, values)


@st.composite
def tables(draw):
    n_rows = draw(st.integers(2, 30))
    n_features = draw(st.integers(1, 4))
    features = [
        draw(st.one_of(_numeric_columns(n_rows), columns(n_rows, n_rows)))
        for _ in range(n_features)
    ]
    labels = draw(st.one_of(
        st.lists(st.sampled_from(["yes", "no", "maybe", None]), min_size=2, max_size=3),
        st.lists(st.integers(0, 25).map(str), min_size=2, max_size=6),
        st.lists(_NUMBERS, min_size=2, max_size=6),
    ))
    target = draw(st.lists(st.sampled_from(labels), min_size=n_rows, max_size=n_rows))
    names = [f"f{i}" for i in range(n_features)] + ["y"]
    cells = [[col[r] for col in features] + [target[r]] for r in range(n_rows)]
    size_bytes = draw(st.one_of(st.none(), st.integers(0, 10**6)))
    return RawTable(names, cells, n_features, size_bytes=size_bytes)


class TestComputeMetaFeatures:
    @given(tables())
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, t):
        idx = t.feature_indices()
        old_profiles = [_outcome(profile_column, t.column(i)) for i in idx]
        assume(not any(isinstance(p, tuple) for p in old_profiles))  # see TestProfileColumn
        new_profiles = [data_core.profile_column(t.column(i)) for i in idx]
        types = [detect_column_type(p)[0] for p in old_profiles]
        old = _outcome(compute_meta_features, t, old_profiles, types)
        new = _outcome(data_core.compute_meta_features, t, new_profiles, types)
        if isinstance(old, tuple) and old[0] is OverflowError:
            # Only the reference profiled the target, and that profile was never read.
            assert isinstance(_outcome(profile_column, t.column(t.target_index)), tuple)
            assert not isinstance(new, tuple) or new[0] is not OverflowError
        elif isinstance(old, tuple):
            assert old[0] in (DegenerateTarget, UnparseableRegressionTarget)
            assert new == old
        else:
            assert_same(new, old)

    @given(tables())
    @settings(max_examples=100, deadline=None)
    def test_size_estimate_equals_reference(self, t):
        assert data_core._estimate_size_bytes(t) == _estimate_size_bytes(t)
