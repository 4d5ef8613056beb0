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

from .. import learners
from ..data_core import ProblemType, RawTable, load_csv
from ..errors import OptionOutOfRange, ValidationError
from ..files import is_plain_name
from ..learners.metrics import Loss
from ..strategy import Strategy, StrategyPortfolio, apply_preprocessor
from ..strategy.builtin import GBT_SEEDS
from ..transforms import encode_labels
from . import artifacts
from .job import (
    JobConfig,
    analyze_table,
    job_portfolio,
    load_trial_model,
    run_fit,
    score_strategy,
    split_table,
)

TEST_FRACTION = 0.1
BASELINE_HP = dict(GBT_SEEDS[0])  # subsample 1.0: seed-independent


@dataclass
class BenchDataset:
    dataset_id: str
    path: str
    target: str
    problem_override: Optional[str] = None

    def __post_init__(self):
        if not is_plain_name(self.dataset_id):
            raise OptionOutOfRange(f"dataset id {self.dataset_id!r} must be a plain file name"
                                   " (letters, digits, _ . -, not . or ..)")


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


def score_stored_model(job_dir, best: dict, test: RawTable, problem: ProblemType) -> Loss:
    """Score a fit job's winning artifact on held-out raw rows."""
    model, fitted, mapping, _ = load_trial_model(Path(job_dir) / best["model"])
    X = apply_preprocessor(fitted, test.column_names, test.cells)
    y, _ = encode_labels(test.column(test.target_index), problem, mapping)
    return learners.evaluate(learners.predict(model, X), y, problem)


def baseline_loss(rest: RawTable, test: RawTable, cfg: JobConfig) -> Loss:
    """Degenerate pipeline on the engine's train fold, scored on the test fold.

    Trained by `train_and_score` as engine candidates are, on the problem of
    the engine job's `cfg`.
    """
    analysis = analyze_table(rest, cfg.seed, cfg.valid_fraction, cfg.problem_override)
    strategy = Strategy(id="bench_baseline", algorithm="gbt", seeds=[dict(BASELINE_HP)])
    return score_strategy(strategy, BASELINE_HP, analysis, cfg.seed, test)


def _run_one(ds: BenchDataset, cfg: JobConfig, portfolio: StrategyPortfolio) -> BenchResult:
    result = BenchResult(dataset_id=ds.dataset_id, status="failed")
    try:
        split = split_table(load_csv(ds.path, ds.target), cfg.seed, TEST_FRACTION,
                            cfg.problem_override)
        rest, test, problem = split.train, split.valid, split.problem

        Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
        artifacts.write_fold_csv(rest, cfg.input_path)
        report = run_fit(cfg, portfolio)
        if report.status != "completed":
            result.message = report.message or f"job status {report.status}"
            return result

        engine = score_stored_model(cfg.output_dir, report.best, test, problem)
        base = baseline_loss(rest, test, cfg)
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
    `budget` or `seed`; the ones not given keep JobConfig's defaults. Every
    job's config is built, and so checked, and the portfolio is read once,
    before any dataset is read or any directory is made."""
    if not datasets:
        raise ValidationError("benchmark needs at least one dataset")
    out = Path(output_dir)
    jobs_dir = out / "jobs"
    cfgs = [JobConfig(input_path=str(jobs_dir / ds.dataset_id / "input.csv"),
                      output_dir=str(jobs_dir / ds.dataset_id), target=ds.target,
                      problem_override=ds.problem_override, **job_args) for ds in datasets]
    portfolio = job_portfolio(cfgs[0])
    jobs_dir.mkdir(parents=True, exist_ok=True)

    summary = BenchSummary()
    summary.results = [_run_one(ds, cfg, portfolio) for ds, cfg in zip(datasets, cfgs)]

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
