"""Execute a pipeline definition's preprocessing stage.

Column transformers fit on the train split only and run first, in listed
order; matrix transformers (pca) then chain over the assembled matrix.
The fitted result serializes to JSON so a model can be paired with its
exact preprocessor for later scoring.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .. import transforms
from ..data_core import ProblemType, RawTable
from ..errors import ValidationError
from ..transforms import FittedTransformer, TransformerSpec
from .core import PipelineDefinition

PREPROCESSOR_VERSION = 1


@dataclass
class PreprocessedData:
    X_train: np.ndarray
    X_valid: np.ndarray
    y_train: np.ndarray
    y_valid: np.ndarray
    fitted: list[FittedTransformer]
    label_mapping: Optional[dict]


def _check_columns(d: PipelineDefinition, table: RawTable):
    available = set(table.column_names)
    for spec in d.transformers:
        for col in spec.select_columns or []:
            if col not in available:
                raise ValidationError(
                    f"pipeline {d.pipeline_id}: transformer references unknown column {col!r}"
                )
            if col == table.target_name:
                raise ValidationError(
                    f"pipeline {d.pipeline_id}: transformer may not touch the target column"
                )


def _select(table: RawTable, names: Sequence[str]) -> list[list]:
    index = {n: i for i, n in enumerate(table.column_names)}
    return [table.column(index[n]) for n in names]


def execute_preprocessing(
    d: PipelineDefinition, train: RawTable, valid: RawTable
) -> PreprocessedData:
    """Fit transformers on train, apply to train and valid, encode labels.

    The folds are transformed by `apply_preprocessor`, the code that scores
    new rows, so a stored preprocessor reproduces X_valid exactly.
    """
    _check_columns(d, train)
    problem = ProblemType(kind=d.problem_kind, n_classes=d.n_classes)

    fitted: list[FittedTransformer] = []
    for spec in d.transformers:
        if spec.kind in transforms.COLUMN_KINDS:
            if not spec.select_columns:
                raise ValidationError(
                    f"pipeline {d.pipeline_id}: {spec.kind} needs explicit columns"
                )
            fitted.append(transforms.fit(spec, _select(train, spec.select_columns)))
    X_train = apply_preprocessor(fitted, train.column_names, train.cells)
    for spec in d.transformers:
        if spec.kind in transforms.MATRIX_KINDS:
            f = transforms.fit(spec, X_train)
            fitted.append(f)
            X_train = transforms.apply(f, X_train)
    X_valid = apply_preprocessor(fitted, valid.column_names, valid.cells)

    y_train, mapping = transforms.encode_labels(train.column(train.target_index), problem)
    y_valid, _ = transforms.encode_labels(valid.column(valid.target_index), problem, mapping)
    return PreprocessedData(
        X_train=X_train,
        X_valid=X_valid,
        y_train=y_train,
        y_valid=y_valid,
        fitted=fitted,
        label_mapping=mapping,
    )


def preprocessor_to_dict(
    d: PipelineDefinition, fitted: list[FittedTransformer], label_mapping: Optional[dict]
) -> dict:
    return {
        "version": PREPROCESSOR_VERSION,
        "pipeline_id": d.pipeline_id,
        "problem_kind": d.problem_kind,
        "n_classes": d.n_classes,
        "transformers": [
            {
                "kind": f.spec.kind,
                "params": f.spec.params,
                "columns": f.spec.select_columns,
                "state": f.state,
                "input_arity": f.input_arity,
                "output_arity": f.output_arity,
            }
            for f in fitted
        ],
        "label_mapping": label_mapping,
    }


def preprocessor_from_dict(doc: dict) -> tuple[list[FittedTransformer], Optional[dict], dict]:
    if doc.get("version") != PREPROCESSOR_VERSION:
        raise ValidationError(f"unsupported preprocessor version {doc.get('version')!r}")
    if doc["problem_kind"] != "regression" and doc.get("label_mapping") is None:
        raise ValidationError("classification model artifact lacks a label mapping")
    fitted = [
        FittedTransformer(
            spec=TransformerSpec(kind=t["kind"], params=t["params"], select_columns=t["columns"]),
            state=t["state"],
            input_arity=t["input_arity"],
            output_arity=t["output_arity"],
        )
        for t in doc["transformers"]
    ]
    meta = {
        "pipeline_id": doc["pipeline_id"],
        "problem_kind": doc["problem_kind"],
        "n_classes": doc["n_classes"],
    }
    return fitted, doc.get("label_mapping"), meta


def apply_preprocessor(
    fitted: list[FittedTransformer], column_names: Sequence[str], cells: Sequence[Sequence]
) -> np.ndarray:
    """Apply fitted transformers to raw rows (no target column required):
    the folds at fit time, new rows at score time."""
    index = {n: i for i, n in enumerate(column_names)}
    n_rows = len(cells)
    blocks = []
    matrix_stage: list[FittedTransformer] = []
    for f in fitted:
        if f.spec.kind in transforms.MATRIX_KINDS:
            matrix_stage.append(f)
            continue
        cols = []
        for name in f.spec.select_columns or []:
            if name not in index:
                raise ValidationError(f"input is missing column {name!r}")
            j = index[name]
            cols.append([row[j] for row in cells])
        blocks.append(transforms.apply(f, cols))
    X = np.hstack(blocks) if blocks else np.zeros((n_rows, 0))
    for f in matrix_stage:
        X = transforms.apply(f, X)
    return X
