"""Span tracing around the public functions of each tabular_automl layer.

The child side (`Tracer`, `install`) runs inside one `automl` CLI process
started by `launch.py`: it rebinds the listed functions to wrappers that
record a span (name, start, end, parent, run id, attributes) per call.
Spans stay in memory until the process ends. Nothing under `src/` is
edited; a function imported by name into another module is rebound there
too, so every call site is seen.

The parent side (`self_times`, `layer_metrics`) turns the spans of several
processes into the per-layer metrics that `run.py` prints.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder; safe to use from several threads."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, parent=None):
        stack = self._stack()
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": parent if parent is not None else (stack[-1] if stack else None),
            "run": self.run_id,
            "attrs": {},
            "start": time.perf_counter(),
        }
        stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _gbt_trees(args, kwargs, _result) -> dict:
    """Trees grown by one gbt fit: rounds times one-vs-rest chains."""
    y, hp = _arg(args, kwargs, 2, "y"), _arg(args, kwargs, 3, "hp")
    chains = int(y.max()) + 1 if hp.get("loss") == "softmax_ovr" else 1
    return {"trees": int(hp["n_trees"]) * chains}


def _file_bytes(index, name):
    return lambda args, kwargs, _result: {
        "bytes": os.path.getsize(_arg(args, kwargs, index, name))
    }


# (module, attribute, span name, attrs(args, kwargs, result) or None)
FUNCTIONS = [
    ("tabular_automl.data_core", "load_csv", "data_core.load_csv",
     lambda a, k, r: {"rows": r.n_rows}),
    ("tabular_automl.data_core", "load_feature_csv", "data_core.load_feature_csv",
     lambda a, k, r: {"rows": len(r[1])}),
    ("tabular_automl.data_core", "profile_column", "data_core.profile_column", None),
    ("tabular_automl.data_core", "compute_meta_features", "data_core.compute_meta_features",
     None),
    ("tabular_automl.data_core", "stratified_split", "data_core.stratified_split", None),
    ("tabular_automl.schema", "build_schema", "schema.build_schema", None),
    ("tabular_automl.strategy.core", "realize", "strategy.realize", None),
    ("tabular_automl.strategy.definitions", "serialize_definitions",
     "strategy.serialize_definitions", None),
    ("tabular_automl.strategy.definitions", "parse_definitions", "strategy.parse_definitions",
     None),
    ("tabular_automl.strategy.preprocess", "execute_preprocessing",
     "strategy.execute_preprocessing", None),
    ("tabular_automl.strategy.preprocess", "apply_preprocessor", "strategy.apply_preprocessor",
     lambda a, k, r: {"rows": len(r)}),
    ("tabular_automl.transforms", "fit", "transforms.fit", None),
    ("tabular_automl.transforms", "apply", "transforms.apply", None),
    ("tabular_automl.learners", "predict", "learners.predict",
     lambda a, k, r: {"rows": len(r)}),
    ("tabular_automl.learners", "evaluate", "learners.evaluate", None),
    ("tabular_automl.tuner.bandit", "next_action", "tuner.next_action", None),
    ("tabular_automl.tuner.bandit", "suggest_random", "tuner.suggest_random", None),
    ("tabular_automl.tuner.bo", "suggest_bo", "tuner.suggest_bo",
     lambda a, k, r: {"history": len(_arg(a, k, 0, "history"))}),
    ("tabular_automl.orchestrator.artifacts", "dump_json", "orchestrator.dump_json",
     _file_bytes(1, "path")),
    ("tabular_automl.orchestrator.artifacts", "load_json", "orchestrator.load_json",
     _file_bytes(0, "path")),
    ("tabular_automl.orchestrator.artifacts", "write_fold_csv", "orchestrator.write_fold_csv",
     None),
    ("tabular_automl.orchestrator.artifacts", "write_matrix_csv",
     "orchestrator.write_matrix_csv", None),
    ("tabular_automl.orchestrator.cli", "cmd_predict", "orchestrator.cmd_predict", None),
]

# (module, class, method, span name)
METHODS = [
    ("tabular_automl.tuner.bo", "GaussianProcess", "fit", "tuner.gp_fit"),
    ("tabular_automl.orchestrator.artifacts", "TrialLog", "__call__", "orchestrator.trial_log"),
]


def _wrap(tracer: Tracer, fn, name, attrs):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name(args, kwargs) if callable(name) else name
        with tracer.span(span_name) as rec:
            result = fn(*args, **kwargs)
            if attrs is not None:
                rec["attrs"].update(attrs(args, kwargs, result))
            return result

    return wrapper


def _traced_run(tracer: Tracer, run):
    """tuner.run, with a `tuner.trial` span around every runner call.

    Runners may execute on pool threads, whose span stacks are empty, so
    the trial span names the run span as its parent explicitly.
    """

    def trial_runner(runner, run_span_id):
        def traced(trial, seed):
            with tracer.span("tuner.trial", parent=run_span_id):
                return runner(trial, seed)

        return traced

    @functools.wraps(run)
    def wrapper(arms, *args, **kwargs):
        with tracer.span("tuner.run") as rec:
            for arm in arms:
                arm.runner = trial_runner(arm.runner, rec["id"])
            leaderboard, state = run(arms, *args, **kwargs)
            rec["attrs"].update(
                issued=state.issued,
                failed=sum(1 for t in state.trials.values() if t.state == "failed"),
            )
            return leaderboard, state

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every tabular_automl module-level name bound to `original` at `replacement`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("tabular_automl"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced function; call after the CLI module is imported."""
    for mod_name, attr, name, attrs in FUNCTIONS:
        fn = getattr(importlib.import_module(mod_name), attr)
        _rebind(fn, _wrap(tracer, fn, name, attrs))
    learners = importlib.import_module("tabular_automl.learners")
    train = learners.train
    _rebind(train, _wrap(
        tracer, train,
        lambda a, k: f"learners.train.{_arg(a, k, 0, 'algorithm')}",
        lambda a, k, r: _gbt_trees(a, k, r) if _arg(a, k, 0, "algorithm") == "gbt" else {},
    ))
    engine = importlib.import_module("tabular_automl.tuner.engine")
    _rebind(engine.run, _traced_run(tracer, engine.run))
    for mod_name, cls_name, method, name in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        setattr(cls, method, _wrap(tracer, getattr(cls, method), name, None))


# ---------------------------------------------------------------- parent side


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> None:
    """Set each span's `self`: its duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    for s in spans:
        covered = [
            (max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]
        ]
        s["self"] = (s["end"] - s["start"]) - _union_length(
            (a, b) for a, b in covered if b > a
        )


SELF_TIMED = [
    "data_core.load_csv", "data_core.load_feature_csv", "data_core.profile_column",
    "data_core.compute_meta_features", "data_core.stratified_split", "schema.build_schema",
    "strategy.realize", "strategy.serialize_definitions", "strategy.parse_definitions",
    "strategy.execute_preprocessing", "strategy.apply_preprocessor", "transforms.fit",
    "transforms.apply", "learners.train.gbt", "learners.train.linear", "learners.predict",
    "learners.evaluate", "tuner.next_action", "tuner.suggest_bo", "tuner.gp_fit",
    "orchestrator.dump_json", "orchestrator.write_fold_csv", "orchestrator.write_matrix_csv",
    "orchestrator.trial_log", "orchestrator.load_json",
]
COUNTED = [
    "transforms.apply", "learners.train.gbt", "learners.train.linear", "tuner.suggest_bo",
    "tuner.suggest_random", "orchestrator.dump_json",
]


def layer_metrics(processes: list[list[dict]], rounds: int, import_s: list[float]) -> dict:
    """Per-layer metrics from the spans of every traced process, per round.

    `.s` is self time, except `tuner.run.s` and `tuner.trial.s`, which are
    whole span time (their ratio is `tuner.concurrency`).
    """
    spans = []
    for proc in processes:
        self_times(proc)
        spans.extend(proc)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(name, key="self"):
        if key == "wall":
            return sum(s["end"] - s["start"] for s in by_name[name])
        if key == "self":
            return sum(s["self"] for s in by_name[name])
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m = {f"{name}.s": total(name) / rounds for name in SELF_TIMED}
    m.update({f"{name}.calls": len(by_name[name]) / rounds for name in COUNTED})
    m["data_core.load_csv.rows_per_s"] = rate(total("data_core.load_csv", "rows"),
                                              total("data_core.load_csv"))
    m["strategy.apply_preprocessor.rows_per_s"] = rate(
        total("strategy.apply_preprocessor", "rows"), total("strategy.apply_preprocessor", "wall"))
    m["learners.predict.rows_per_s"] = rate(total("learners.predict", "rows"),
                                            total("learners.predict", "wall"))
    trees = total("learners.train.gbt", "trees")
    m["learners.gbt.trees"] = trees / rounds
    m["learners.gbt.ms_per_tree"] = 1000 * rate(total("learners.train.gbt", "wall"), trees)
    m["tuner.run.s"] = total("tuner.run", "wall") / rounds
    m["tuner.run.self_s"] = total("tuner.run") / rounds
    m["tuner.suggest_bo.max_history"] = max(
        (s["attrs"].get("history", 0) for s in by_name["tuner.suggest_bo"]), default=0)
    trial_s = [s["end"] - s["start"] for s in by_name["tuner.trial"]]
    m["tuner.trial.s"] = sum(trial_s) / rounds
    m["tuner.trial.median_s"] = statistics.median(trial_s) if trial_s else 0.0
    m["tuner.concurrency"] = rate(sum(trial_s), total("tuner.run", "wall"))
    m["tuner.trials.issued"] = total("tuner.run", "issued") / rounds
    m["tuner.trials.failed"] = total("tuner.run", "failed") / rounds
    m["orchestrator.import_s"] = statistics.median(import_s)
    m["orchestrator.dump_json.mb"] = total("orchestrator.dump_json", "bytes") / 1e6 / rounds
    m["orchestrator.load_json.mb"] = total("orchestrator.load_json", "bytes") / 1e6 / rounds
    m["orchestrator.trial_log.records"] = len(by_name["orchestrator.trial_log"]) / rounds
    m["orchestrator.cmd_predict.self_s"] = total("orchestrator.cmd_predict") / rounds
    return m


def attributed_share(spans: list[dict], wall: float) -> float:
    """Share of one serial process's wall time that traced layers' self times cover."""
    self_times(spans)
    return sum(s["self"] for s in spans) / wall
