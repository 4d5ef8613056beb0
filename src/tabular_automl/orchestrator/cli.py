"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 job failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
import typing
from pathlib import Path

from .. import learners
from ..data_core import PROBLEM_KINDS, load_csv, load_feature_csv
from ..errors import OptionOutOfRange
from ..files import load_json, replacing
from ..strategy import apply_preprocessor, builtin_portfolio
from ..strategy.core import save_portfolio
from ..zeroshot import (
    DatasetHandle,
    ZeroShotConfig,
    ZeroShotOptions,
    build_performance_table,
    normalize,
    save_performance_table,
    select_portfolio_exact,
    select_portfolio_greedy,
    selection_to_portfolio,
)
from . import job
from .bench import BenchDataset, run_bench

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2


class _UsageError(Exception):
    pass


def _add_job_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="training CSV path")
    p.add_argument("--target", help="target column name")
    p.add_argument("--output-dir", help="job directory (created if absent)")
    p.add_argument("--problem-type", choices=PROBLEM_KINDS)
    p.add_argument("--budget", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--parallelism", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-runtime", type=float, help="wall-clock cap in seconds")
    p.add_argument("--config", help="JSON file supplying any of the above keys")


def _load_config_file(path) -> dict:
    try:
        doc = load_json(path)
    except ValueError as exc:
        raise _UsageError(f"{path}: config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise _UsageError(f"{path}: config must be a JSON object")
    return doc


# Config keys, manifest keys and flags that name a dataclass field differently.
_PUBLIC_NAMES = {"input_path": "input", "problem_override": "problem_type", "dataset_id": "id"}


def _check_type(key: str, value, hint) -> None:
    """Reject a config value that does not fit its field's type."""
    allowed = typing.get_args(hint) if typing.get_origin(hint) is typing.Union else (hint,)
    if float in allowed:
        allowed += (int,)
    if isinstance(value, bool) or not isinstance(value, allowed):
        names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
        raise _UsageError(f"config key {key!r} must be {names}, got {value!r}")


def _record(cls, doc: dict, what: str, names: dict = _PUBLIC_NAMES, skip=()) -> dict:
    """The keys of `doc` as keyword arguments of the dataclass `cls`.

    `names` gives a field's key where the two differ; the fields in `skip` are
    not keys. An unknown key, a value that does not fit its field's type and a
    `problem_type` outside PROBLEM_KINDS are usage errors.
    """
    fields = {names.get(f.name, f.name): f.name for f in dataclasses.fields(cls)
              if f.name not in skip}
    unknown = set(doc) - set(fields)
    if unknown:
        raise _UsageError(f"unknown {what} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    for key, value in doc.items():
        _check_type(key, value, hints[fields[key]])
    if doc.get("problem_type") not in (None, *PROBLEM_KINDS):
        raise _UsageError(f"config key 'problem_type' must be one of {', '.join(PROBLEM_KINDS)},"
                          f" got {doc['problem_type']!r}")
    return {fields[key]: value for key, value in doc.items()}


def _merged_job_config(args) -> job.JobConfig:
    """JobConfig defaults < --config file < explicit flags."""
    file_cfg = _load_config_file(args.config) if args.config else {}
    merged = _record(job.JobConfig, file_cfg, "config")
    for f in dataclasses.fields(job.JobConfig):
        key = _PUBLIC_NAMES.get(f.name, f.name)
        value = getattr(args, key, None)
        if value is not None:
            merged[f.name] = value
        elif f.default is dataclasses.MISSING and f.name not in merged:
            raise _UsageError(f"--{key.replace('_', '-')} is required (flag or config)")
    return job.JobConfig(**merged)


def _report_exit(report: job.JobReport) -> int:
    if report.status == "failed":
        print(f"status={report.status} message={report.message}", file=sys.stderr)
        return EXIT_FAILURE
    line = f"status={report.status}"
    if report.candidates:
        line += f" candidates={len(report.candidates)}"
    if report.best is not None:
        line += (
            f" best={report.best['pipeline']}"
            f" loss={report.best['loss']:.6g} ({report.best['loss_kind']})"
        )
    print(line)
    return EXIT_OK


# The subcommands that run one job: name, help, and the `job.run_*` that runs it.
_JOB_COMMANDS = (
    ("analyze", "profile the data and write a report", job.run_analyze),
    ("generate", "analysis plus editable pipeline definitions", job.run_generate),
    ("fit", "full run: generate candidates, tune, train", job.run_fit),
    ("rerun", "re-run edited definition files verbatim", job.run_rerun),
)


def cmd_job(args) -> int:
    extra = [args.definitions] if args.command == "rerun" else []
    return _report_exit(args.run(_merged_job_config(args), *extra))


def cmd_predict(args) -> int:
    model, fitted, mapping, meta = job.load_trial_model(args.model)
    header, cells = load_feature_csv(args.input)
    X = apply_preprocessor(fitted, header, cells)
    preds = learners.predict(model, X)

    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    # Rows are zipped from whole columns; csv writes each float as its repr.
    with replacing(out, newline="") as f:
        w = csv.writer(f)
        if meta["problem_kind"] == "regression":
            w.writerow(["prediction"])
            w.writerows(zip(preds.tolist()))
        else:
            classes = sorted(mapping, key=mapping.get)
            w.writerow(["prediction"] + [f"p_{c}" for c in classes])
            labels = [classes[k] for k in preds.argmax(axis=1).tolist()]
            w.writerows(zip(labels, *preds.T.tolist()))
    print(f"wrote {len(preds)} predictions to {out}")
    return EXIT_OK


def _dataset(entry) -> BenchDataset:
    if not isinstance(entry, dict):
        raise _UsageError(f"dataset entry must be an object, got {entry!r}")
    for key in ("id", "path", "target"):
        if key not in entry:
            raise _UsageError(f"dataset entry missing {key!r}: {entry}")
    return BenchDataset(**_record(BenchDataset, entry, "dataset entry"))


def _manifest(path, cls, names: dict = _PUBLIC_NAMES, skip=()):
    """A bench or zeroshot manifest: its `datasets`, its `output_dir`, and
    its other keys read by `_record` as fields of `cls`."""
    doc = _load_config_file(path)
    datasets, out = doc.pop("datasets", None), doc.pop("output_dir", None)
    options = _record(cls, doc, "manifest", names, skip)
    if not isinstance(datasets, list) or not datasets:
        raise _UsageError("config needs a non-empty 'datasets' list")
    datasets = [_dataset(entry) for entry in datasets]
    ids = [ds.dataset_id for ds in datasets]
    if len(set(ids)) < len(ids):
        raise _UsageError(f"dataset ids must be unique, got {ids}")
    if not out:
        raise _UsageError("config needs 'output_dir'")
    _check_type("output_dir", out, str)
    return datasets, out, options


def cmd_zeroshot(args) -> int:
    datasets, out, options = _manifest(args.config, ZeroShotOptions)
    opts = ZeroShotOptions(**options)
    strategies = builtin_portfolio().strategies
    configs = [ZeroShotConfig(s, dict(hp)) for s in strategies for hp in s.seeds][:opts.max_configs]
    if not 1 <= opts.k <= len(configs):
        raise _UsageError(f"k must be in [1, {len(configs)}] (the configs scored), got {opts.k}")

    # Each dataset is split and analyzed as `fit` would do it.
    handles = [
        DatasetHandle(
            id=ds.dataset_id,
            analysis=job.analyze_table(
                load_csv(ds.path, ds.target), opts.seed, opts.valid_fraction, ds.problem_override
            ),
        )
        for ds in datasets
    ]

    table = normalize(build_performance_table(configs, handles, opts.seed))
    select = select_portfolio_exact if opts.solver == "exact" else select_portfolio_greedy
    selection = select(table, opts.k)
    portfolio = selection_to_portfolio(table, selection)

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    save_performance_table(table, out / "performance_table.csv")
    save_portfolio(portfolio, out / "portfolio.json")
    ids = [s.id for s in portfolio.strategies]
    print(
        f"portfolio k={len(ids)} objective={selection.objective:.6g}"
        f" solver={opts.solver} strategies={','.join(ids)}"
    )
    return EXIT_OK


# The JobConfig fields that bench sets for each dataset; the rest are manifest keys.
_PER_DATASET = ("input_path", "target", "output_dir", "problem_override")


def cmd_bench(args) -> int:
    names = dict(_PUBLIC_NAMES, portfolio_path="portfolio")
    datasets, out, job_args = _manifest(args.config, job.JobConfig, names, _PER_DATASET)
    summary = run_bench(datasets, out, **job_args)
    for r in summary.results:
        if r.status == "completed":
            print(
                f"{r.dataset_id}: engine={r.engine_loss:.6g} baseline={r.baseline_loss:.6g}"
                f" red={r.relative_error_difference:+.4f} best={r.best_pipeline}"
            )
        else:
            print(f"{r.dataset_id}: FAILED {r.message}")
    mean = summary.mean_relative_error_difference
    stderr = summary.stderr_relative_error_difference
    print(
        f"success_rate={summary.success_rate:.2f}"
        f" baseline_match_rate={summary.baseline_match_rate:.2f}"
        + (f" mean_red={mean:+.4f}+-{stderr:.4f}" if mean is not None else "")
    )
    return EXIT_OK if summary.success_rate > 0 else EXIT_FAILURE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="automl",
        description="White-box AutoML for tabular CSV data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, run in _JOB_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        _add_job_flags(p)
        p.set_defaults(func=cmd_job, run=run)
        if name == "rerun":
            p.add_argument("--definitions", required=True, help="definition file or directory")

    p = sub.add_parser("predict", help="score new rows with a trained model artifact")
    p.add_argument("--model", required=True, help="models/trial_<k>.json from a fit job")
    p.add_argument("--input", required=True, help="CSV of feature rows")
    p.add_argument("--output", required=True, help="predictions CSV to write")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("zeroshot", help="build a performance table and select a portfolio")
    p.add_argument("--config", required=True, help="JSON manifest of datasets and options")
    p.set_defaults(func=cmd_zeroshot)

    p = sub.add_parser("bench", help="benchmark the engine across datasets")
    p.add_argument("--config", required=True, help="JSON manifest of datasets and options")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented usage code
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (_UsageError, OptionOutOfRange) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except Exception as exc:  # job failures must not escape as tracebacks
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
