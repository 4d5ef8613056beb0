"""CSV ingestion, column profiling, meta-features, problem type, splits.

Everything in this module is pure given (input, seed); column profiling is
independent per column and safe to parallelize.
"""
from __future__ import annotations

import csv
import math
import os
import re
import warnings
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, count
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ClassTooSmallWarning,
    DegenerateTarget,
    EmptyData,
    MalformedCsv,
    MissingTarget,
    TooFewRows,
    WrongProblemType,
)

if TYPE_CHECKING:
    from .schema import ColumnType

# Cell values matching these (case-insensitive) parse as missing.
DEFAULT_MISSING_LITERALS = frozenset({"", "na", "n/a", "nan", "null"})

DEFAULT_IMBALANCE_THRESHOLD = 0.2
PROBLEM_KINDS = ("regression", "binary_classification", "multiclass_classification")
DEFAULT_VALID_FRACTION = 0.2

# Cells matching this (ISO 8601 date or date-time, YYYY/MM/DD, D/M/YYYY) are dates.
_DATE_RE = re.compile(
    r"^\d{4}-\d{2}-\d{2}([T ]\d{2}:\d{2}(:\d{2}(\.\d+)?)?(Z|[+-]\d{2}:?\d{2})?)?$"
    r"|^\d{4}/\d{2}/\d{2}$"
    r"|^\d{1,2}/\d{1,2}/\d{4}$"
)


def parse_number(value) -> Optional[float]:
    """Parse a cell as a finite float, or None."""
    if value is None:
        return None
    try:
        x = float(value)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) else None


@dataclass
class RawTable:
    """A loaded dataset: header, row-major string-or-missing cells, target index."""

    column_names: list[str]
    cells: list[list[Optional[str]]]
    target_index: int
    size_bytes: Optional[int] = None

    def __post_init__(self):
        if len(set(self.column_names)) != len(self.column_names):
            raise MalformedCsv("duplicate column names in header")
        if not 0 <= self.target_index < self.n_cols:
            raise ValueError(f"target_index {self.target_index} out of range")
        if self.n_rows < 1:
            raise EmptyData("table has no data rows")
        for i, row in enumerate(self.cells):
            if len(row) != self.n_cols:
                raise MalformedCsv(f"row {i + 1} has {len(row)} cells, expected {self.n_cols}")

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    @property
    def n_cols(self) -> int:
        return len(self.column_names)

    @property
    def target_name(self) -> str:
        return self.column_names[self.target_index]

    def column(self, index: int) -> list[Optional[str]]:
        return [row[index] for row in self.cells]

    def feature_indices(self) -> list[int]:
        return [i for i in range(self.n_cols) if i != self.target_index]

    def subset(self, row_indices: Sequence[int]) -> "RawTable":
        return RawTable(
            column_names=list(self.column_names),
            cells=[self.cells[i] for i in row_indices],
            target_index=self.target_index,
        )


def _read_csv_cells(path, missing_literals) -> tuple[list[str], list[list[Optional[str]]]]:
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
    lengths = list(map(len, rows))
    if lengths.count(n_cols) != len(lengths):
        i = next(i for i, n in enumerate(lengths) if n != n_cols)
        raise MalformedCsv(f"{path}: row {i + 2} has {lengths[i]} fields, expected {n_cols}")
    # The reader's row lists become the cells: only the missing ones are rewritten.
    flags = map(lowered.__contains__, map(str.lower, chain.from_iterable(rows)))
    for k in compress(count(), flags):
        rows[k // n_cols][k % n_cols] = None
    return header, rows


def load_csv(path, target_name: str, missing_literals=DEFAULT_MISSING_LITERALS) -> RawTable:
    """Load an RFC-4180 CSV with a mandatory header row.

    Empty strings and the configured literal set (case-insensitive) become
    missing cells. Ragged rows and broken quoting raise MalformedCsv.
    """
    header, cells = _read_csv_cells(path, missing_literals)
    if target_name not in header:
        raise MissingTarget(f"target column {target_name!r} not in header {header}")
    return RawTable(
        column_names=header,
        cells=cells,
        target_index=header.index(target_name),
        size_bytes=os.path.getsize(path),
    )


def load_feature_csv(
    path, missing_literals=DEFAULT_MISSING_LITERALS
) -> tuple[list[str], list[list[Optional[str]]]]:
    """Load a CSV for scoring: header plus normalized cells, no target required."""
    return _read_csv_cells(path, missing_literals)


def drop_missing_target(t: RawTable) -> tuple[RawTable, int]:
    """Remove rows whose target cell is missing. Labels are mandatory downstream."""
    keep = [i for i, row in enumerate(t.cells) if row[t.target_index] is not None]
    if len(keep) == t.n_rows:
        return t, 0
    if not keep:
        raise EmptyData("every row has a missing target value")
    out = t.subset(keep)
    out.size_bytes = t.size_bytes
    return out, t.n_rows - len(keep)


@dataclass
class ColumnProfile:
    """Per-column statistics over non-missing entries.

    Numeric statistics cover the entries that parse as finite numbers and are
    None when no entry parses. std_dev uses the population formula; skewness
    is the standardized third moment, defined as 0 when std_dev is 0.
    `numbers` holds the parsed cells in row order, NaN where a cell is
    missing or not a finite number, so later passes need not parse again.
    """

    missing_fraction: float
    numeric_parse_fraction: float
    n_unique: int
    percentiles: Optional[dict[str, float]]
    mean: Optional[float]
    std_dev: Optional[float]
    skewness: Optional[float]
    mean_token_count: float
    alpha_token_fraction: float
    outlier_count_3sigma: int
    datetime_parse_fraction: float = 0.0
    n_values: int = 0
    numbers: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


def _nearest_rank(sorted_values: np.ndarray, p: float) -> float:
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


def _skewness(numeric: np.ndarray, mean: float, std_dev: float) -> float:
    """Third standardized moment. The cubes, or std_dev**3 (past about
    5.6e102), can overflow; then the deviations are scaled before cubing."""
    try:
        skewness = float(((numeric - mean) ** 3).mean() / std_dev**3)
    except OverflowError:
        skewness = math.nan
    if math.isfinite(skewness):
        return skewness
    return float((((numeric - mean) / std_dev) ** 3).mean())


def profile_column(values: Sequence[Optional[str]]) -> ColumnProfile:
    """Profile one column of string-or-missing cells.

    Each distinct value is parsed, tokenized and date-matched once and
    weighted by its count, so the cost scales with the distinct values.
    """
    n = len(values)
    if n == 0:
        raise ValueError("cannot profile an empty column")
    counts = Counter(values)
    n_present = n - counts.pop(None, 0)
    missing_fraction = 1.0 - n_present / n

    parsed: dict[str, float] = {}
    n_tokens = n_alpha = dt_hits = 0
    for v, c in counts.items():
        tokens = v.split()
        n_tokens += c * len(tokens)
        # float() accepts no inner whitespace, so only one-token cells can
        # parse. A number holds a digit and no '-' or '/' between digits, so
        # it is neither an alpha token nor a date.
        if len(tokens) == 1 and (x := parse_number(v)) is not None:
            parsed[v] = x
            continue
        n_alpha += c * sum(map(str.isalpha, tokens))
        if _DATE_RE.match(v):
            dt_hits += c

    numbers = np.array([parsed.get(v, math.nan) for v in values], dtype=float)
    # Boolean indexing keeps row order, which np.mean's pairwise sum depends on.
    numeric = numbers[~np.isnan(numbers)]
    numeric_parse_fraction = len(numeric) / n_present if n_present else 0.0

    percentiles = mean = std_dev = skewness = None
    outliers = 0
    if len(numeric):
        s = np.sort(numeric)
        percentiles = {f"p{p}": _nearest_rank(s, p) for p in (1, 25, 50, 75, 99)}
        mean = float(numeric.mean())
        std_dev = float(numeric.std())  # population
        if std_dev > 0:
            with np.errstate(all="ignore"):
                skewness = _skewness(numeric, mean, std_dev)
                outliers = int(np.sum(np.abs(numeric - mean) > 3 * std_dev))
        else:
            skewness = 0.0

    return ColumnProfile(
        missing_fraction=missing_fraction,
        numeric_parse_fraction=numeric_parse_fraction,
        n_unique=len(counts),
        percentiles=percentiles,
        mean=mean,
        std_dev=std_dev,
        skewness=skewness,
        mean_token_count=n_tokens / n_present if n_present else 0.0,
        alpha_token_fraction=n_alpha / n_tokens if n_tokens else 0.0,
        outlier_count_3sigma=outliers,
        datetime_parse_fraction=dt_hits / n_present if n_present else 0.0,
        n_values=n,
        numbers=numbers,
    )


@dataclass
class ProblemType:
    kind: str  # one of PROBLEM_KINDS
    n_classes: Optional[int] = None

    @property
    def is_classification(self) -> bool:
        return self.kind != "regression"


def infer_problem_type(target_values: Iterable[Optional[str]]) -> ProblemType:
    """Classify the prediction problem from the target column.

    Non-numeric targets are categorical. Numeric targets with at most 20
    unique, all-integral values are treated as class labels; anything else
    is regression. Only the distinct values matter, so a Counter of the
    column gives the same answer as the column itself.
    """
    distinct = set(target_values)
    distinct.discard(None)
    if len(distinct) <= 1:
        raise DegenerateTarget("target column has a single unique value")

    parsed = [parse_number(v) for v in distinct]
    if all(x is not None for x in parsed):
        if not (len(distinct) <= 20 and all(x.is_integer() for x in parsed)):
            return ProblemType(kind="regression")

    n_classes = len(distinct)
    kind = "binary_classification" if n_classes == 2 else "multiclass_classification"
    return ProblemType(kind=kind, n_classes=n_classes)


def _regression_strata(target_values: Sequence[str]) -> list[str]:
    """Decile-of-target group labels for regression stratification."""
    parsed = [parse_number(v) for v in target_values]
    finite = np.array([x for x in parsed if x is not None])
    if len(finite) == 0:
        return ["<bin unparseable>"] * len(target_values)
    s = np.sort(finite)
    edges = sorted({_nearest_rank(s, p) for p in range(10, 100, 10)})
    labels = []
    for x in parsed:
        if x is None:
            labels.append("<bin unparseable>")
        else:
            labels.append(f"<bin {int(np.searchsorted(edges, x, side='left'))}>")
    return labels


def stratum_valid_rows(n_rows: int, valid_fraction: float) -> int:
    """Rows stratified_split puts in the valid fold from a stratum of n_rows.

    stratified_split keeps a classification stratum of one row in train.
    """
    return int(math.floor(valid_fraction * n_rows + 0.5))


def stratified_split(
    t: RawTable, valid_fraction: float, problem: ProblemType, seed: int
) -> tuple[RawTable, RawTable]:
    """Partition rows into (train, valid), stratified by class or target decile.

    Classification classes with a single member go entirely to train with a
    ClassTooSmallWarning. Deterministic given seed.
    """
    if not 0 < valid_fraction < 1:
        raise ValueError(f"valid_fraction must be in (0,1), got {valid_fraction}")
    if t.n_rows < 10:
        raise TooFewRows(f"need at least 10 rows to split, got {t.n_rows}")

    target = t.column(t.target_index)
    if problem.is_classification:
        strata = [str(v) for v in target]
    else:
        strata = _regression_strata(target)

    groups: dict[str, list[int]] = {}
    for i, g in enumerate(strata):
        groups.setdefault(g, []).append(i)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    valid_idx: list[int] = []
    for g in sorted(groups):
        idx = groups[g]
        if len(idx) == 1 and problem.is_classification:
            warnings.warn(
                f"class {g!r} has a single row; keeping it in train", ClassTooSmallWarning
            )
            continue
        k = stratum_valid_rows(len(idx), valid_fraction)
        order = rng.permutation(len(idx))
        valid_idx.extend(idx[j] for j in order[:k])

    valid_set = set(valid_idx)
    train_idx = [i for i in range(t.n_rows) if i not in valid_set]
    return t.subset(train_idx), t.subset(sorted(valid_set))


@dataclass
class ImbalanceInfo:
    minority_fraction: float
    is_imbalanced: bool


def detect_imbalance(target_values: Sequence, problem: ProblemType) -> ImbalanceInfo:
    """Flag binary datasets whose minority class share is < DEFAULT_IMBALANCE_THRESHOLD."""
    if problem.kind != "binary_classification":
        raise WrongProblemType(f"imbalance is defined for binary classification, not {problem.kind}")
    counts = Counter(str(v) for v in target_values if v is not None)
    minority = min(counts.values())
    fraction = minority / sum(counts.values())
    return ImbalanceInfo(fraction, is_imbalanced=fraction < DEFAULT_IMBALANCE_THRESHOLD)


@dataclass
class MetaFeatures:
    """Whole-dataset statistics used to gate and guide strategy selection."""

    n_rows: int
    n_cols: int
    type_distribution: dict[str, int]
    target_correlations: dict[str, float]
    size_bytes: int
    density: float


def _estimate_size_bytes(t: RawTable) -> int:
    """UTF-8 bytes of the header and the present cells, plus one separator per cell."""
    text = "".join(t.column_names) + "".join(filter(None, chain.from_iterable(t.cells)))
    return len(text.encode("utf-8")) + (t.n_rows + 1) * t.n_cols


def compute_meta_features(
    t: RawTable, profiles: Sequence[ColumnProfile], types: Sequence["ColumnType"]
) -> MetaFeatures:
    """Dataset-level statistics.

    `profiles`/`types` align with t's feature columns, and each profile is
    profile_column of that column of t: correlations use its parsed numbers.
    """
    feature_idx = t.feature_indices()
    if len(profiles) != len(feature_idx) or len(types) != len(feature_idx):
        raise ValueError("profiles/types must align with the table's feature columns")
    if any(p.n_values != t.n_rows for p in profiles):
        raise ValueError("profiles must cover every row of the table")

    type_distribution = dict(Counter(ct.value for ct in types))

    n_cells = t.n_rows * t.n_cols
    present = n_cells - sum(row.count(None) for row in t.cells)
    density = present / n_cells if n_cells else 0.0

    target = t.column(t.target_index)
    from .schema import ColumnType
    from .transforms import encode_labels

    y, _ = encode_labels(target, infer_problem_type(target))
    correlations: dict[str, float] = {}
    for idx, profile, ctype in zip(feature_idx, profiles, types):
        if ctype != ColumnType.NUMERIC:
            continue
        parsed = ~np.isnan(profile.numbers)
        xs, ys = profile.numbers[parsed], y[parsed]
        if len(xs) < 2 or xs.std() == 0 or ys.std() == 0:
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
