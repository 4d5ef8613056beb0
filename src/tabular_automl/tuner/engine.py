"""Trial execution loop: issue, run, report, rank.

Arms carry a runner callable so the same engine drives real training jobs
and simulated losses. With parallelism=1 the loop runs every trial in this
process, strictly in turn. With parallelism=P > 1 each trial runs in its
own forked child process, which inherits the arms (runners may be closures
over in-memory matrices, so nothing is pickled on the way in) and sends
back only `(loss, payload, error, duration)`. Results are applied in
trial-id order, and trial k is issued only after trials 0..k-P have been
applied, so the trial log depends on P but never on timing.
"""
from __future__ import annotations

import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import AllTrialsFailed, Exhausted
from ..learners import HpSpace, Loss
from .bandit import (
    PipelineState,
    Trial,
    TunerConfig,
    TunerState,
    next_action,
    report_result,
)

# runner(trial, seed) -> (Loss, payload dict merged into the leaderboard row)
Runner = Callable[[Trial, int], tuple[Loss, dict]]


@dataclass
class TunerArm:
    pipeline_id: str
    space: HpSpace
    seeds: list[dict]
    runner: Runner


@dataclass
class LeaderboardEntry:
    rank: int
    trial_id: int
    pipeline_id: str
    hp: dict
    loss: float
    loss_kind: str
    logloss: Optional[float]
    extra: dict = field(default_factory=dict)


@dataclass
class Leaderboard:
    entries: list[LeaderboardEntry]

    @property
    def best(self) -> LeaderboardEntry:
        return self.entries[0]


def trial_seed(base_seed: int, trial_id: int) -> int:
    """Stable per-trial training seed, independent of scheduling order."""
    return int(
        np.random.SeedSequence(entropy=base_seed, spawn_key=(9000 + trial_id,)).generate_state(1)[0]
    )


def build_leaderboard(state: TunerState) -> Leaderboard:
    finished = [t for t in state.trials.values() if t.state == "finished"]
    finished.sort(
        key=lambda t: (
            t.loss.value,
            t.loss.logloss if t.loss.logloss is not None else float("inf"),
            t.trial_id,
        )
    )
    entries = [
        LeaderboardEntry(
            rank=i + 1,
            trial_id=t.trial_id,
            pipeline_id=t.pipeline_id,
            hp=dict(t.hp),
            loss=t.loss.value,
            loss_kind=t.loss.kind,
            logloss=t.loss.logloss,
            extra=dict(t.payload),
        )
        for i, t in enumerate(finished)
    ]
    return Leaderboard(entries=entries)


def _execute(trial: Trial, arm: TunerArm, cfg: TunerConfig):
    """Run one trial: (loss, payload, error, duration), one of loss/error None."""
    started = time.monotonic()
    try:
        loss, payload = arm.runner(trial, trial_seed(cfg.seed, trial.trial_id))
        return loss, payload, None, time.monotonic() - started
    except Exception:
        return None, None, traceback.format_exc(limit=3), time.monotonic() - started


def _child(conn, trial: Trial, arm: TunerArm, cfg: TunerConfig) -> None:
    conn.send(_execute(trial, arm, cfg))
    conn.close()


def _log(sink, record: dict):
    if sink is not None:
        sink(record)


def _report(state: TunerState, trial: Trial, outcome, sink) -> None:
    loss, payload, error, duration = outcome
    trial.duration = duration
    if error is None:
        trial.payload = payload
        report_result(state, trial.trial_id, loss=loss)
        _log(
            sink,
            {
                "event": "finished",
                "trial": trial.trial_id,
                "loss": loss.value,
                "loss_kind": loss.kind,
                "logloss": loss.logloss,
            },
        )
    else:
        report_result(state, trial.trial_id, error=error)
        _log(sink, {"event": "failed", "trial": trial.trial_id, "error": error.splitlines()[-1]})


def _collect(proc, recv, started: float):
    """The outcome a finished child sent, or a failure if it died without one."""
    try:
        outcome = recv.recv()
    except EOFError:
        outcome = None
    recv.close()
    proc.join()
    if outcome is None:
        error = f"WorkerDied: trial process exited with code {proc.exitcode} and no result"
        outcome = (None, None, error, time.monotonic() - started)
    return outcome


def _run_forked(state: TunerState, by_id: dict, cfg: TunerConfig, issue, deadline, sink) -> None:
    """Keep up to P trials in flight, one forked child each; apply in id order.

    Only the head (oldest) trial's pipe is waited on, until the deadline. A
    child that dies without sending a result reads as EOF and fails its
    trial. Once the deadline has passed nothing more is issued, and each
    trial still in flight when it reaches the head is killed and failed.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    pending: deque = deque()  # (trial, process, receiving end, start time)
    try:
        while True:
            while len(pending) < cfg.parallelism and (trial := issue()) is not None:
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_child, args=(send, trial, by_id[trial.pipeline_id], cfg))
                proc.start()
                send.close()
                pending.append((trial, proc, recv, time.monotonic()))
            if not pending:
                return
            trial, proc, recv, started = pending[0]
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            if recv.poll(wait):
                outcome = _collect(proc, recv, started)
            else:
                proc.kill()
                proc.join()
                recv.close()
                error = f"TimeoutError: trial killed at the {cfg.max_runtime} s wall-clock limit"
                outcome = (None, None, error, time.monotonic() - started)
            pending.popleft()
            _report(state, trial, outcome, sink)
    finally:
        for _, proc, recv, _ in pending:
            proc.kill()
            proc.join()
            recv.close()


def run(
    arms: list[TunerArm],
    cfg: TunerConfig,
    log_sink: Optional[Callable[[dict], None]] = None,
) -> tuple[Leaderboard, TunerState]:
    """Explore the arms under budget/epsilon/parallelism; rank finished trials."""
    if not arms:
        raise ValueError("need at least one pipeline")
    if cfg.total_budget < len(arms):
        raise ValueError(
            f"budget {cfg.total_budget} is below the pipeline count {len(arms)}"
        )
    by_id = {a.pipeline_id: a for a in arms}
    state = TunerState(
        [
            PipelineState(pipeline_id=a.pipeline_id, space=a.space, seeds=list(a.seeds))
            for a in arms
        ],
        seed=cfg.seed,
    )
    deadline = time.monotonic() + cfg.max_runtime if cfg.max_runtime else None

    def issue() -> Optional[Trial]:
        if deadline is not None and time.monotonic() >= deadline:
            return None
        try:
            trial = next_action(state, cfg)
        except Exhausted:
            return None
        _log(
            log_sink,
            {
                "event": "suggested",
                "trial": trial.trial_id,
                "pipeline": trial.pipeline_id,
                "hp": trial.hp,
                "phase": state.phase,
            },
        )
        trial.state = "running"
        _log(log_sink, {"event": "running", "trial": trial.trial_id})
        return trial

    if cfg.parallelism == 1:
        while True:
            trial = issue()
            if trial is None:
                break
            _report(state, trial, _execute(trial, by_id[trial.pipeline_id], cfg), log_sink)
    else:
        _run_forked(state, by_id, cfg, issue, deadline, log_sink)

    leaderboard = build_leaderboard(state)
    if not leaderboard.entries:
        if state.issued > 0:
            raise AllTrialsFailed("every trial failed; nothing to rank")
        raise AllTrialsFailed("wall-clock limit expired before any trial ran")
    return leaderboard, state
