"""Benchmark harness: run full jobs over a dataset suite against a fixed baseline.

Per dataset a 10% test fold is carved off first; the engine only ever sees the
remainder. The baseline is the degenerate pipeline (no rules, per-type default
transformers, default GBT settings) trained on the same train fold.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .. import learners
from ..data_core import ProblemType, RawTable, drop_missing_target, load_csv, parse_number, stratified_split
from ..errors import ValidationError
from ..learners.metrics import Loss
from ..strategy import Strategy, apply_preprocessor, execute_preprocessing, preprocessor_from_dict, realize
from ..strategy.builtin import GBT_SEEDS
from . import artifacts
from .job import JobConfig, _validated_problem, analyze_table, run_fit

TEST_FRACTION = 0.1
BASELINE_HP = dict(GBT_SEEDS[0])  # subsample 1.0: seed-independent


@dataclass
class BenchDataset:
    dataset_id: str
    path: str
    target: str
    problem_override: Optional[str] = None


@dataclass
class BenchResult:
    dataset_id: str
    status: str  # completed | failed
    message: str = ""
    loss_kind: Optional[str] = None
    engine_loss: Optional[float] = None
    baseline_loss: Optional[float] = None
    relative_error_difference: Optional[float] = None
    best_pipeline: Optional[str] = None


@dataclass
class BenchSummary:
    results: list = field(default_factory=list)
    success_rate: float = 0.0
    baseline_match_rate: float = 0.0
    mean_relative_error_difference: Optional[float] = None
    stderr_relative_error_difference: Optional[float] = None
    best_pipeline_counts: dict = field(default_factory=dict)


def relative_error_difference(engine_loss: float, baseline_loss: float) -> float:
    """(A - B) / max(A, B); 0 when both sides are exactly zero."""
    denom = max(engine_loss, baseline_loss)
    if denom == 0.0:
        return 0.0
    return (engine_loss - baseline_loss) / denom


def _encode_test_labels(target, problem: ProblemType, mapping: Optional[dict]):
    if problem.is_classification:
        if mapping is None:
            raise ValidationError("classification model artifact lacks a label mapping")
        try:
            return np.array([mapping[str(v)] for v in target], dtype=int)
        except KeyError as exc:
            raise ValidationError(f"test label {exc.args[0]!r} unseen in training") from None
    values = [parse_number(v) for v in target]
    if any(v is None for v in values):
        raise ValidationError("test target has unparseable regression values")
    return np.array(values, dtype=float)


def score_stored_model(job_dir, best: dict, test: RawTable, problem: ProblemType) -> Loss:
    """Score a fit job's winning artifact on held-out raw rows."""
    job_dir = Path(job_dir)
    model_doc = artifacts.load_json(job_dir / best["model"])
    fitted, mapping, _ = preprocessor_from_dict(artifacts.load_json(job_dir / best["preprocessor"]))
    feats = test.feature_indices()
    names = [test.column_names[i] for i in feats]
    rows = [[row[i] for i in feats] for row in test.cells]
    X = apply_preprocessor(fitted, names, rows)
    y = _encode_test_labels(test.column(test.target_index), problem, mapping)
    model = learners.model_from_dict(model_doc["model"])
    return learners.evaluate(learners.predict(model, X), y, problem)


def baseline_loss(rest: RawTable, test: RawTable, seed: int, valid_fraction: float) -> Loss:
    """Degenerate pipeline on the engine's train fold, scored on the test fold.

    Trained under the same protocol as engine candidates: when the problem is
    imbalanced binary, the baseline gets the same class weights.
    """
    analysis = analyze_table(rest, seed, valid_fraction)
    strategy = Strategy(id="bench_baseline", algorithm="gbt", seeds=[dict(BASELINE_HP)])
    d = realize(strategy, analysis.schema, analysis.profiles, analysis.mf, analysis.problem)
    prep = execute_preprocessing(d, analysis.train, test)
    hp = d.space.clamp(BASELINE_HP)
    weights = None
    if analysis.imbalance is not None and analysis.imbalance.is_imbalanced:
        weights = learners.class_weights(prep.y_train)
    model = learners.train("gbt", prep.X_train, prep.y_train, hp, weights=weights, seed=seed)
    return learners.evaluate(learners.predict(model, prep.X_valid), prep.y_valid, analysis.problem)


def _run_one(ds: BenchDataset, jobs_dir: Path, job_args: dict) -> BenchResult:
    job_dir = jobs_dir / ds.dataset_id
    cfg = JobConfig(
        input_path=str(job_dir / "input.csv"),
        target=ds.target,
        output_dir=str(job_dir),
        problem_override=ds.problem_override,
        **job_args,
    )
    result = BenchResult(dataset_id=ds.dataset_id, status="failed")
    try:
        table = load_csv(ds.path, ds.target)
        table, _ = drop_missing_target(table)
        problem = _validated_problem(table, ds.problem_override, TEST_FRACTION)
        rest, test = stratified_split(table, TEST_FRACTION, problem, cfg.seed)

        job_dir.mkdir(parents=True, exist_ok=True)
        artifacts.write_fold_csv(rest, cfg.input_path)
        report = run_fit(cfg)
        if report.status != "completed":
            result.message = report.message or f"job status {report.status}"
            return result

        engine = score_stored_model(job_dir, report.best, test, problem)
        base = baseline_loss(rest, test, cfg.seed, cfg.valid_fraction)
        result.status = "completed"
        result.loss_kind = engine.kind
        result.engine_loss = engine.value
        result.baseline_loss = base.value
        result.relative_error_difference = relative_error_difference(engine.value, base.value)
        result.best_pipeline = report.best["pipeline"]
    except Exception as exc:
        result.message = f"{type(exc).__name__}: {exc}"
    return result


def run_bench(datasets: list[BenchDataset], output_dir, **job_args) -> BenchSummary:
    """Fit and score every dataset. `job_args` are JobConfig fields such as
    `budget` or `seed`; the ones not given keep JobConfig's defaults."""
    if not datasets:
        raise ValidationError("benchmark needs at least one dataset")
    out = Path(output_dir)
    jobs_dir = out / "jobs"
    jobs_dir.mkdir(parents=True, exist_ok=True)

    summary = BenchSummary()
    for ds in datasets:
        summary.results.append(_run_one(ds, jobs_dir, job_args))

    done = [r for r in summary.results if r.status == "completed"]
    summary.success_rate = len(done) / len(summary.results)
    if done:
        summary.baseline_match_rate = sum(
            1 for r in done if r.engine_loss <= r.baseline_loss
        ) / len(done)
        reds = [r.relative_error_difference for r in done]
        mean = sum(reds) / len(reds)
        summary.mean_relative_error_difference = mean
        if len(reds) > 1:
            var = sum((x - mean) ** 2 for x in reds) / (len(reds) - 1)
            summary.stderr_relative_error_difference = math.sqrt(var / len(reds))
        else:
            summary.stderr_relative_error_difference = 0.0
        summary.best_pipeline_counts = dict(
            sorted(Counter(r.best_pipeline for r in done).items())
        )
    artifacts.dump_json(asdict(summary), out / "bench_report.json")
    return summary
