"""Feature and label preprocessors.

Column transformers (impute_mean, standardize, one_hot, quantile_bin,
log_transform, tfidf) fit on raw string-or-missing columns; pca fits on an
already-numeric matrix. Fitted state is plain lists/floats so artifacts
serialize to JSON without a custom codec.
"""
from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional, Sequence, Union

import numpy as np

from .data_core import ProblemType, parse_number
from .errors import (
    ArityMismatch,
    ClampedInputWarning,
    DegenerateFitWarning,
    EmptySelection,
    NonFiniteInput,
    UnparseableRegressionTarget,
    ValidationError,
)

COLUMN_KINDS = ("impute_mean", "standardize", "one_hot", "quantile_bin", "log_transform", "tfidf")
MATRIX_KINDS = ("pca",)

ONE_HOT_MAX_CATEGORIES = 1000
OTHER_CATEGORY = "<other>"
MISSING_CATEGORY = "<missing>"


class _TokenChars(dict):
    """`str.translate` table: keeps a-z and 0-9 and blanks every other character,
    so `.split()` then yields the maximal runs of [a-z0-9]."""

    def __missing__(self, char: int) -> str:
        return " "


_TOKEN_CHARS = _TokenChars({ord(ch): ch for ch in "abcdefghijklmnopqrstuvwxyz0123456789"})
_ROW_BREAK = "|"  # blanked by the table, so no token ever equals it


@dataclass
class TransformerSpec:
    kind: str
    params: dict = field(default_factory=dict)
    select_columns: Optional[list[str]] = None

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS + MATRIX_KINDS:
            raise ValueError(f"unknown transformer kind {self.kind!r}")
        if self.kind == "quantile_bin" and self.params.get("bins", 2) < 2:
            raise ValueError("quantile_bin requires bins >= 2")
        if self.kind == "pca" and self.params.get("k", 1) < 1:
            raise ValueError("pca requires k >= 1")
        if self.kind == "tfidf" and self.params.get("max_features", 1) < 1:
            raise ValueError("tfidf requires max_features >= 1")


@dataclass
class FittedTransformer:
    spec: TransformerSpec
    state: dict
    input_arity: int
    output_arity: int


Columns = Sequence[Sequence[Optional[str]]]


def _parsed(values: Sequence[Optional[str]]) -> np.ndarray:
    """Each cell as a float; missing and unparseable cells are NaN.

    Non-finite cells ("inf", "1e400") may come back as inf: every caller
    masks with `np.isfinite`, which treats them as `parse_number`'s None.
    """
    try:
        return np.fromiter(map(float, map({None: "nan"}.get, values, values)), float, len(values))
    except (TypeError, ValueError):
        return np.array(
            [x if (x := parse_number(v)) is not None else np.nan for v in values], dtype=float
        )


def _numeric_column(values: Sequence[Optional[str]]) -> tuple[np.ndarray, float]:
    """Parse one column; returns (values, non-finite where missing, fit mean).

    All-missing (or all-unparseable) columns impute a constant 0 and warn.
    """
    parsed = _parsed(values)
    finite = parsed[np.isfinite(parsed)]
    if len(finite) == 0:
        warnings.warn("column has no parseable values; imputing 0", DegenerateFitWarning)
        return parsed, 0.0
    return parsed, float(finite.mean())


def _tokenize(text: str) -> list[str]:
    return [t for t in text.lower().translate(_TOKEN_CHARS).split() if len(t) >= 2]


def fit(spec: TransformerSpec, data: Union[Columns, np.ndarray]) -> FittedTransformer:
    """Learn transformer state from train-split data.

    Column kinds take a sequence of raw columns; pca takes a numeric matrix.
    """
    if spec.kind == "pca":
        return _fit_pca(spec, np.asarray(data, dtype=float))

    columns = list(data)
    if not columns or any(len(c) == 0 for c in columns):
        raise EmptySelection(f"{spec.kind} fit received no data")
    n_in = len(columns)

    if spec.kind == "impute_mean":
        means = [_numeric_column(c)[1] for c in columns]
        return FittedTransformer(spec, {"means": means}, n_in, n_in)

    if spec.kind == "standardize":
        means, stds = [], []
        for c in columns:
            parsed, mean = _numeric_column(c)
            filled = np.where(np.isfinite(parsed), parsed, mean)
            std = float(filled.std())
            means.append(mean)
            stds.append(std if std > 0 else 1.0)
        return FittedTransformer(spec, {"means": means, "stds": stds}, n_in, n_in)

    if spec.kind == "log_transform":
        means = [_numeric_column(c)[1] for c in columns]
        return FittedTransformer(spec, {"means": means}, n_in, n_in)

    if spec.kind == "quantile_bin":
        bins = spec.params["bins"]
        means, edges = [], []
        for c in columns:
            parsed, mean = _numeric_column(c)
            finite = np.sort(parsed[np.isfinite(parsed)])
            if len(finite) == 0:
                col_edges: list[float] = []
            else:
                ranks = [
                    max(1, math.ceil(i / bins * len(finite))) - 1 for i in range(1, bins)
                ]
                col_edges = sorted({float(finite[r]) for r in ranks})
            means.append(mean)
            edges.append(col_edges)
        return FittedTransformer(spec, {"means": means, "edges": edges}, n_in, n_in)

    if spec.kind == "one_hot":
        vocabs = []
        for c in columns:
            counts = Counter(MISSING_CATEGORY if v is None else str(v) for v in c)
            top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:ONE_HOT_MAX_CATEGORIES]
            vocabs.append(sorted(k for k, _ in top))
        out = sum(len(v) + 1 for v in vocabs)
        return FittedTransformer(spec, {"vocabs": vocabs}, n_in, out)

    if spec.kind == "tfidf":
        max_features = spec.params["max_features"]
        vocabs, idfs = [], []
        for c in columns:
            docs = [_tokenize(str(v)) if v is not None else [] for v in c]
            df = Counter(tok for doc in docs for tok in set(doc))
            top = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[:max_features]
            vocab = sorted(k for k, _ in top)
            n_docs = len(docs)
            idf = [math.log((1 + n_docs) / (1 + df[tok])) + 1.0 for tok in vocab]
            vocabs.append(vocab)
            idfs.append(idf)
        out = sum(len(v) for v in vocabs)
        return FittedTransformer(spec, {"vocabs": vocabs, "idfs": idfs}, n_in, out)

    raise ValueError(f"unknown transformer kind {spec.kind!r}")


def _fit_pca(spec: TransformerSpec, X: np.ndarray) -> FittedTransformer:
    if X.ndim != 2 or X.shape[1] == 0 or X.shape[0] == 0:
        raise EmptySelection("pca fit received no data")
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput("pca input contains non-finite values")
    n_rows, n_cols = X.shape
    k = min(spec.params["k"], n_cols, n_rows)
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / n_rows
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    components = eigvecs[:, order].T  # k x d
    for i in range(k):
        j = int(np.argmax(np.abs(components[i])))
        if components[i, j] < 0:
            components[i] = -components[i]
    state = {"mean": mean.tolist(), "components": components.tolist()}
    return FittedTransformer(spec, state, n_cols, k)


def _filled(values: Sequence[Optional[str]], mean: float) -> np.ndarray:
    parsed = _parsed(values)
    return np.where(np.isfinite(parsed), parsed, mean)


def apply(f: FittedTransformer, data: Union[Columns, np.ndarray]) -> np.ndarray:
    """Transform data with fitted state; output is a finite 2-D float matrix."""
    spec = f.spec
    if spec.kind == "pca":
        X = np.asarray(data, dtype=float)
        if X.ndim != 2 or X.shape[1] != f.input_arity:
            raise ArityMismatch(f"pca expects {f.input_arity} columns, got {X.shape}")
        if not np.all(np.isfinite(X)):
            raise NonFiniteInput("pca input contains non-finite values")
        components = np.array(f.state["components"])
        return (X - np.array(f.state["mean"])) @ components.T

    columns = list(data)
    if len(columns) != f.input_arity:
        raise ArityMismatch(f"{spec.kind} expects {f.input_arity} columns, got {len(columns)}")
    n_rows = len(columns[0])
    outs: list[np.ndarray] = []

    if spec.kind == "impute_mean":
        for c, mean in zip(columns, f.state["means"]):
            outs.append(_filled(c, mean)[:, None])
    elif spec.kind == "standardize":
        for c, mean, std in zip(columns, f.state["means"], f.state["stds"]):
            outs.append(((_filled(c, mean) - mean) / std)[:, None])
    elif spec.kind == "log_transform":
        for c, mean in zip(columns, f.state["means"]):
            x = _filled(c, mean)
            if np.any(x < 0):
                warnings.warn("negative values clamped to 0 before log", ClampedInputWarning)
                x = np.maximum(x, 0.0)
            outs.append(np.log1p(x)[:, None])
    elif spec.kind == "quantile_bin":
        for c, mean, edges in zip(columns, f.state["means"], f.state["edges"]):
            x = _filled(c, mean)
            outs.append(np.searchsorted(np.array(edges), x, side="left").astype(float)[:, None])
    elif spec.kind == "one_hot":
        for c, vocab in zip(columns, f.state["vocabs"]):
            index = {cat: i for i, cat in enumerate(vocab)}
            other = len(vocab)
            codes = [index.get(MISSING_CATEGORY if v is None else str(v), other) for v in c]
            block = np.zeros((n_rows, other + 1))
            block[np.arange(n_rows), codes] = 1.0
            outs.append(block)
    elif spec.kind == "tfidf":
        for c, vocab, idf in zip(columns, f.state["vocabs"], f.state["idfs"]):
            width = len(vocab)
            # _tokenize drops one-character tokens, so they never count.
            index = {tok: i for i, tok in enumerate(vocab) if len(tok) >= 2}
            index[_ROW_BREAK] = -2
            # All rows are tokenized as one string, with a break token between rows.
            text = f" {_ROW_BREAK} ".join(
                ["" if v is None else str(v).lower().translate(_TOKEN_CHARS) for v in c]
            )
            codes = np.array(list(map(index.get, text.split(), repeat(-1))), dtype=np.intp)
            rows = np.cumsum(codes == -2)
            hit = codes >= 0
            counts = np.bincount(rows[hit] * width + codes[hit], minlength=n_rows * width)
            counts = counts.reshape(n_rows, width)
            # count * idf as a float64 product, written only where a token occurs
            block = np.zeros((n_rows, width))
            np.multiply(counts, np.asarray(idf, dtype=float), out=block, where=counts > 0)
            outs.append(block)
    else:
        raise ValueError(f"unknown transformer kind {spec.kind!r}")

    result = np.hstack(outs) if outs else np.zeros((n_rows, 0))
    if not np.all(np.isfinite(result)):
        raise NonFiniteInput(f"{spec.kind} produced non-finite output")
    return result


def encode_labels(
    target: Sequence, problem: ProblemType, mapping: Optional[dict] = None
) -> tuple[np.ndarray, Optional[dict]]:
    """Encode the target column: class ids or parsed floats.

    Without a `mapping`, classes get lexicographic ids (the train fold). With
    one, a valid or test fold is encoded against it; a label it lacks is a
    ValidationError.
    """
    if problem.is_classification:
        if mapping is None:
            mapping = {c: i for i, c in enumerate(sorted({str(v) for v in target}))}
        try:
            return np.array([mapping[str(v)] for v in target], dtype=int), mapping
        except KeyError as exc:
            raise ValidationError(f"label {exc.args[0]!r} never seen in training") from None
    values = []
    for v in target:
        x = parse_number(v)
        if x is None:
            raise UnparseableRegressionTarget(f"cannot parse regression target {v!r}")
        values.append(x)
    return np.array(values, dtype=float), None
