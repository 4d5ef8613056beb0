"""Job workflow: analyze, generate candidates, fit, rerun edited definitions.

A job owns one output directory:
    report/        analysis report (JSON + Markdown)
    folds/         unprocessed train/valid CSVs
    candidates/    editable pipeline definition files
    transformed/   preprocessed matrices per pipeline
    models/        per-trial model artifacts + per-pipeline preprocessors
    leaderboard.json, trials.jsonl
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .. import learners, resources
from ..data_core import (
    DEFAULT_VALID_FRACTION,
    ImbalanceInfo,
    MetaFeatures,
    ProblemType,
    RawTable,
    compute_meta_features,
    detect_imbalance,
    drop_missing_target,
    infer_problem_type,
    load_csv,
    parse_number,
    profile_column,
    stratified_split,
    stratum_valid_rows,
)
from ..errors import AutomlError, OptionOutOfRange, WrongProblemType
from ..schema import SchemaReport, build_schema
from ..strategy import (
    PipelineDefinition,
    Strategy,
    StrategyPortfolio,
    builtin_portfolio,
    execute_preprocessing,
    parse_definitions,
    preprocessor_from_dict,
    preprocessor_to_dict,
    realize,
    recommend_strategies,
    serialize_definitions,
)
from ..strategy.core import load_portfolio
from ..tuner import Trial, TunerArm, TunerConfig
from ..tuner import run as tuner_run
from . import artifacts


@dataclass(kw_only=True)
class JobConfig(TunerConfig):
    """A job's data and output, plus the tuning options of the `TunerConfig` it is."""

    input_path: str
    target: str
    output_dir: str
    problem_override: Optional[str] = None
    valid_fraction: float = DEFAULT_VALID_FRACTION
    portfolio_path: Optional[str] = None

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.valid_fraction < 1:
            raise OptionOutOfRange(f"valid_fraction must be in (0,1), got {self.valid_fraction}")


@dataclass
class JobReport:
    status: str  # completed | generated_only | failed
    message: str = ""
    problem_kind: Optional[str] = None
    n_classes: Optional[int] = None
    n_rows: int = 0
    n_cols: int = 0
    n_dropped_rows: int = 0
    type_counts: dict = field(default_factory=dict)
    imbalance: Optional[dict] = None
    candidates: list = field(default_factory=list)
    skipped_pipelines: dict = field(default_factory=dict)
    trials_issued: int = 0
    trials_finished: int = 0
    best: Optional[dict] = None
    timings: dict = field(default_factory=dict)


@dataclass
class Analysis:
    table: RawTable
    train: RawTable
    valid: RawTable
    problem: ProblemType
    profiles: dict
    schema: SchemaReport
    mf: MetaFeatures
    imbalance: Optional[ImbalanceInfo]
    n_dropped: int


@dataclass
class _Job:
    """What the phases of one job share."""

    cfg: JobConfig
    out: Path
    report: JobReport
    analysis: Optional[Analysis] = None
    portfolio: Optional[StrategyPortfolio] = None
    defs: list[PipelineDefinition] = field(default_factory=list)


def _validated_problem(t: RawTable, override: Optional[str], valid_fraction: float) -> ProblemType:
    """The inferred problem, or the override when the target fits it.

    A classification problem must have a class big enough to put a row in
    the valid fold of `valid_fraction`; otherwise the split would warn once
    per class and leave that fold empty.
    """
    counts = Counter(t.column(t.target_index))
    counts.pop(None, None)
    problem = infer_problem_type(counts)
    if override == "regression":
        if any(parse_number(v) is None for v in counts):
            raise WrongProblemType("regression override but target has unparseable values")
        problem = ProblemType(kind="regression")
    elif override == "binary_classification":
        if len(counts) != 2:
            raise WrongProblemType(f"binary override but target has {len(counts)} classes")
        problem = ProblemType(kind="binary_classification", n_classes=2)
    elif override == "multiclass_classification":
        if len(counts) < 2:
            raise WrongProblemType("multiclass override but target is constant")
        problem = ProblemType(kind="multiclass_classification", n_classes=len(counts))
    elif override is not None:
        raise WrongProblemType(f"unknown problem type {override!r}")
    if problem.is_classification and not any(
        m > 1 and stratum_valid_rows(m, valid_fraction) for m in counts.values()
    ):
        raise WrongProblemType(
            f"{problem.kind}: the target has {len(counts)} distinct values in"
            f" {sum(counts.values())} rows, and no class has enough rows for the valid fold"
        )
    return problem


class Split(NamedTuple):
    table: RawTable  # the rows that have a target
    n_dropped: int
    problem: ProblemType
    train: RawTable
    valid: RawTable


def split_table(
    t: RawTable, seed: int, fraction: float, problem_override: Optional[str] = None
) -> Split:
    """Drop the rows without a target, settle the problem, split off `fraction`.

    Every fold in the engine comes from here: a job's train/valid folds, and
    the bench's test fold.
    """
    t, n_dropped = drop_missing_target(t)
    problem = _validated_problem(t, problem_override, fraction)
    return Split(t, n_dropped, problem, *stratified_split(t, fraction, problem, seed))


def analyze_table(
    t: RawTable, seed: int, valid_fraction: float, problem_override: Optional[str] = None
) -> Analysis:
    """The candidate-generation analysis pass over one loaded table."""
    t, n_dropped, problem, train, valid = split_table(t, seed, valid_fraction, problem_override)

    feature_idx = train.feature_indices()
    names = [train.column_names[i] for i in feature_idx]
    profile_list = [profile_column(train.column(i)) for i in feature_idx]
    schema = build_schema(profile_list, names=names)
    mf = compute_meta_features(train, profile_list, [e.primary for e in schema.entries])
    imbalance = None
    if problem.kind == "binary_classification":
        imbalance = detect_imbalance(train.column(train.target_index), problem)
    return Analysis(
        table=t,
        train=train,
        valid=valid,
        problem=problem,
        profiles=dict(zip(names, profile_list)),
        schema=schema,
        mf=mf,
        imbalance=imbalance,
        n_dropped=n_dropped,
    )


def generate_definitions(analysis: Analysis, portfolio: StrategyPortfolio) -> list[PipelineDefinition]:
    chosen = recommend_strategies(analysis.mf, analysis.schema, portfolio)
    defs = []
    for s in chosen:
        d = realize(s, analysis.schema, analysis.profiles, analysis.mf, analysis.problem)
        plan = resources.plan_for(
            d.algorithm,
            analysis.mf.n_rows,
            analysis.mf.n_cols,
            analysis.mf.density,
            space=d.space,
        )
        d.resources = plan.to_dict()
        defs.append(d)
    return defs


def _fill_analysis_report(report: JobReport, analysis: Analysis) -> None:
    report.problem_kind = analysis.problem.kind
    report.n_classes = analysis.problem.n_classes
    report.n_rows = analysis.table.n_rows
    report.n_cols = analysis.table.n_cols
    report.n_dropped_rows = analysis.n_dropped
    report.type_counts = dict(analysis.mf.type_distribution)
    if analysis.imbalance is not None:
        report.imbalance = {
            "minority_fraction": analysis.imbalance.minority_fraction,
            "is_imbalanced": analysis.imbalance.is_imbalanced,
        }


def _render_markdown(report: JobReport, analysis: Optional[Analysis]) -> str:
    lines = ["# Job report", "", f"status: **{report.status}**"]
    if report.message:
        lines.append(f"message: {report.message}")
    if analysis is not None:
        lines += [
            "",
            "## Data",
            f"- rows: {report.n_rows} (dropped for missing target: {report.n_dropped_rows})",
            f"- columns: {report.n_cols}",
            f"- problem: {report.problem_kind}"
            + (f" ({report.n_classes} classes)" if report.n_classes else ""),
            f"- column types: {report.type_counts}",
        ]
        if report.imbalance is not None:
            lines.append(
                f"- minority fraction: {report.imbalance['minority_fraction']:.3f}"
                f" (imbalanced: {report.imbalance['is_imbalanced']})"
            )
        lines += ["", "## Schema"]
        for e in analysis.schema.entries:
            lines.append(f"- `{e.name}`: {', '.join(c.value for c in e.candidates)}")
    if report.candidates:
        lines += ["", "## Candidates"] + [f"- {c}" for c in report.candidates]
    if report.best is not None:
        lines += [
            "",
            "## Best model",
            f"- pipeline: {report.best['pipeline']}",
            f"- loss: {report.best['loss']} ({report.best['loss_kind']})",
            f"- trial: {report.best['trial']}",
        ]
    return "\n".join(lines) + "\n"


def _write_report(job: _Job) -> None:
    artifacts.dump_json(asdict(job.report), job.out / "report" / "report.json")
    with artifacts.replacing(job.out / "report" / "report.md") as f:
        f.write(_render_markdown(job.report, job.analysis))


def _analyze(job: _Job) -> None:
    cfg, timings = job.cfg, job.report.timings
    started = time.monotonic()
    table = load_csv(cfg.input_path, cfg.target)
    timings["load_s"] = time.monotonic() - started

    started = time.monotonic()
    analysis = analyze_table(table, cfg.seed, cfg.valid_fraction, cfg.problem_override)
    timings["analyze_s"] = time.monotonic() - started
    _fill_analysis_report(job.report, analysis)
    job.analysis = analysis


def _write_folds(job: _Job) -> None:
    artifacts.write_fold_csv(job.analysis.train, job.out / "folds" / "train.csv")
    artifacts.write_fold_csv(job.analysis.valid, job.out / "folds" / "valid.csv")


def _write_candidates(job: _Job) -> None:
    paths = serialize_definitions(job.defs, job.out / "candidates")
    job.report.candidates = [p.name for p in paths]


def job_portfolio(cfg: JobConfig) -> StrategyPortfolio:
    """The portfolio at `cfg.portfolio_path`, read and checked, or the
    built-in one."""
    return load_portfolio(cfg.portfolio_path) if cfg.portfolio_path else builtin_portfolio()


def _load_portfolio(job: _Job) -> None:
    """The portfolio phase, before any data is read: the one the job was
    given, or `job_portfolio`."""
    if job.portfolio is None:
        job.portfolio = job_portfolio(job.cfg)


def _generate(job: _Job) -> None:
    started = time.monotonic()
    job.defs = generate_definitions(job.analysis, job.portfolio)
    _write_candidates(job)
    job.report.timings["generate_s"] = time.monotonic() - started


def load_trial_model(model_path) -> tuple[learners.Model, list, Optional[dict], dict]:
    """A `models/trial_<k>.json` artifact's model, with its pipeline's fitted
    transformers, label mapping and metadata (see `preprocessor_from_dict`)."""
    model_path = Path(model_path)
    doc = artifacts.load_json(model_path)
    fitted, mapping, meta = preprocessor_from_dict(
        artifacts.load_json(model_path.parent.parent / doc["preprocessor"])
    )
    return learners.model_from_dict(doc["model"]), fitted, mapping, meta


def train_and_score(
    d: PipelineDefinition, prep, hp: dict, analysis: Analysis, seed: int
) -> tuple[learners.Model, learners.Loss]:
    """The one training protocol of job trials, the bench baseline and zeroshot
    cells: train on `prep`'s train fold, class-weighted when the problem is
    imbalanced binary, and score on its valid fold. `hp` is used as given, since
    clamping could move a tuner point that sits one ulp past a bound."""
    imbalanced = analysis.imbalance is not None and analysis.imbalance.is_imbalanced
    weights = learners.class_weights(prep.y_train) if imbalanced else None
    model = learners.train(d.algorithm, prep.X_train, prep.y_train, hp, weights=weights, seed=seed)
    preds = learners.predict(model, prep.X_valid)
    return model, learners.evaluate(preds, prep.y_valid, analysis.problem)


def score_strategy(
    s: Strategy, hp: dict, analysis: Analysis, seed: int, valid: Optional[RawTable] = None
) -> learners.Loss:
    """The loss of strategy `s` at `hp` (clamped into its space), realized on
    `analysis` and trained by `train_and_score` on its train fold. It is
    scored on `valid`, or on the analysis's own valid fold when not given."""
    d = realize(s, analysis.schema, analysis.profiles, analysis.mf, analysis.problem)
    prep = execute_preprocessing(d, analysis.train, analysis.valid if valid is None else valid)
    return train_and_score(d, prep, d.space.clamp(hp), analysis, seed)[1]


def _make_arm(d: PipelineDefinition, prep, out: Path, analysis: Analysis) -> TunerArm:
    pid = d.pipeline_id

    def runner(trial: Trial, seed: int):
        model, loss = train_and_score(d, prep, trial.hp, analysis, seed)
        model_rel = f"models/trial_{trial.trial_id}.json"
        artifacts.dump_json(
            {
                "model": learners.model_to_dict(model),
                "hp": trial.hp,
                "pipeline": pid,
                "preprocessor": f"models/{pid}.preprocessor.json",
                "valid_loss": loss.value,
                "loss_kind": loss.kind,
            },
            out / model_rel,
            compact=True,
        )
        return loss, {"model": model_rel, "preprocessor": f"models/{pid}.preprocessor.json"}

    return TunerArm(pipeline_id=pid, space=d.space, seeds=list(d.seeds), runner=runner)


def _fit(job: _Job) -> None:
    cfg, out, report, analysis = job.cfg, job.out, job.report, job.analysis
    started = time.monotonic()
    arms = []
    for d in job.defs:
        try:
            prep = execute_preprocessing(d, analysis.train, analysis.valid)
        except Exception as exc:
            report.skipped_pipelines[d.pipeline_id] = f"{type(exc).__name__}: {exc}"
            continue
        tdir = out / "transformed" / d.pipeline_id
        tdir.mkdir(parents=True, exist_ok=True)
        artifacts.write_matrix_csv(
            prep.X_train, prep.y_train, analysis.train.target_name, tdir / "train.csv"
        )
        artifacts.write_matrix_csv(
            prep.X_valid, prep.y_valid, analysis.valid.target_name, tdir / "valid.csv"
        )
        artifacts.dump_json(
            preprocessor_to_dict(d, prep.fitted, prep.label_mapping),
            out / "models" / f"{d.pipeline_id}.preprocessor.json",
        )
        arms.append(_make_arm(d, prep, out, analysis))
    report.timings["preprocess_s"] = time.monotonic() - started

    if not arms:
        raise AutomlError("no pipeline survived preprocessing")

    started = time.monotonic()
    log = artifacts.TrialLog(out / "trials.jsonl")
    leaderboard, state = tuner_run(arms, cfg, log_sink=log)
    report.timings["tune_s"] = time.monotonic() - started
    report.trials_issued = state.issued
    report.trials_finished = sum(
        1 for t in state.trials.values() if t.state == "finished"
    )
    artifacts.dump_json(artifacts.leaderboard_doc(leaderboard), out / "leaderboard.json")
    best = leaderboard.best
    report.best = {
        "pipeline": best.pipeline_id,
        "trial": best.trial_id,
        "loss": best.loss,
        "loss_kind": best.loss_kind,
        "model": best.extra.get("model"),
        "preprocessor": best.extra.get("preprocessor"),
    }
    report.status = "completed"


def _run(
    cfg: JobConfig,
    phases: list[Callable[[_Job], None]],
    portfolio: Optional[StrategyPortfolio] = None,
) -> JobReport:
    """Run the phases in order, then write the report, whatever happened.

    A job that stops before the fit phase is `generated_only`; the first
    exception ends the job as `failed` with the message `<ExcType>: <msg>`.
    """
    job = _Job(cfg, artifacts.ensure_layout(cfg.output_dir), JobReport(status="generated_only"),
               portfolio=portfolio)
    try:
        for phase in phases:
            phase(job)
    except Exception as exc:
        job.report.status = "failed"
        job.report.message = f"{type(exc).__name__}: {exc}"
    _write_report(job)
    return job.report


def run_analyze(cfg: JobConfig) -> JobReport:
    """Data analysis only: report, no candidates, no training."""
    return _run(cfg, [_analyze])


def run_generate(cfg: JobConfig) -> JobReport:
    """Candidate generation: analysis + folds + definition files. No training.
    The portfolio is read first, so a bad one fails before any data is read."""
    return _run(cfg, [_load_portfolio, _analyze, _write_folds, _generate])


def run_fit(cfg: JobConfig, portfolio: Optional[StrategyPortfolio] = None) -> JobReport:
    """Full job: generation then candidate exploration. A `portfolio` given
    here is used as it is, and `cfg.portfolio_path` is not read."""
    return _run(cfg, [_load_portfolio, _analyze, _write_folds, _generate, _fit], portfolio)


def run_rerun(cfg: JobConfig, definitions_path) -> JobReport:
    """Re-run edited definitions verbatim: no recommendation, no realization.

    The definitions are parsed before the analysis, so a bad edit fails the
    job before any data is read.
    """

    def parse(job: _Job) -> None:
        job.defs = parse_definitions(definitions_path)

    return _run(cfg, [parse, _analyze, _write_folds, _write_candidates, _fit])
