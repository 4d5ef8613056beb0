"""Trial execution loop: issue, run, report, rank.

Arms carry a runner callable so the same engine drives real training jobs
and simulated losses. With parallelism=1 the loop runs every trial in this
process, strictly in turn. With parallelism=P > 1 each trial runs in its
own forked child process, which inherits the arms (runners may be closures
over in-memory matrices, so nothing is pickled on the way in) and sends
back only `(loss, payload, error, duration)`. Results are applied in
trial-id order, and trial k is issued only after trials 0..k-P have been
applied, so the trial log depends on P but never on timing.

At P > 1 the run also has P training slots (`slots.Slots`). Each trial is
forked into a slot of its own, waiting for one if need be, and gives it
back when its runner returns. While it trains it may borrow slots left
idle to boost GBT class chains in helper processes. So at most P processes
train at once. Each trial leads its own process group, so a trial that is
killed, or dies, takes its helpers with it. The run waits in one
`select.poll` on the free-slot pipe and every unread trial pipe, so a trial
that dies is noticed as soon as its pipe closes, and only this process
reaps its trials.
"""
from __future__ import annotations

import os
import select
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional

import numpy as np

from .. import slots
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


def _trial(trial: Trial, arm: TunerArm, cfg: TunerConfig, lease: slots.Lease):
    """The body of a forked trial: its outcome, which `slots.fork` sends back."""
    os.setpgrp()  # the trial's helpers join its group, so killing the group ends them too
    slots.current = lease
    outcome = _execute(trial, arm, cfg)
    lease.give_back()  # idle while the result waits to be applied
    return outcome


@dataclass
class _Flight:
    """A trial in flight at P > 1: its process, result pipe and slots, and
    its outcome once the pipe has been read.

    Helpers forked from the trial close their copy of its pipe, so the pipe
    reads EOF as soon as the trial exits, whether it sent a result or not.
    """

    trial: Trial
    pid: int
    fd: int
    lease: slots.Lease
    started: float
    outcome: Any = None

    def end(self, error: Optional[str] = None) -> None:
        """Take the outcome from the trial's readable pipe, or with `error`
        close the pipe unread; then kill the trial and the helpers in its
        process group, reap it, and free every slot it held. A trial that
        exited without sending an outcome fails."""
        if error is None:
            self.outcome = slots.receive(self.fd)
        else:
            os.close(self.fd)
        code = slots.end(self.pid)
        self.lease.close()
        if self.outcome is None:
            error = error or f"WorkerDied: trial process exited with code {code} and no result"
            self.outcome = None, None, error, time.monotonic() - self.started


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


def _wait(pending: deque, deadline, slot_fd: Optional[int] = None) -> bool:
    """Wait until an unread trial pipe or `slot_fd` is readable (True), or
    until the deadline (False). Every readable trial pipe is read."""
    unread = {flight.fd: flight for flight in pending if flight.outcome is None}
    poller = select.poll()  # select.select rejects fds past 1023
    for fd in [*unread, slot_fd] if slot_fd is not None else unread:
        poller.register(fd, select.POLLIN)
    timeout = None if deadline is None else max(0.0, deadline - time.monotonic()) * 1000
    events = poller.poll(timeout)
    for fd, _ in events:
        if fd in unread:
            unread[fd].end()
    return bool(events)


def _next_slot(pool: slots.Slots, pending: deque, deadline) -> Optional[slots.Lease]:
    """A slot for the next trial, or None once the deadline has passed.

    While the trials in flight hold every slot, wait for one to be given
    back. A trial that exits meanwhile is read and ended, which frees its
    slots, but nothing is applied, so the trial log never depends on that
    wait.
    """
    while (lease := pool.lease()) is None:
        if not _wait(pending, deadline, pool.fd):
            return None
    return lease


def _run_forked(state: TunerState, by_id: dict, cfg: TunerConfig, issue, deadline, sink) -> None:
    """Keep up to P trials in flight, one forked child each; apply in id order.

    Each trial is forked into a slot (`_next_slot`). Every outcome is read
    as soon as its pipe is readable, and a trial that exits without sending
    one fails. The head (oldest) trial is waited for until the deadline, and
    once it is applied, trials are issued again. Once the deadline has
    passed nothing more is issued, and each trial still unread when it
    reaches the head is killed and failed.
    """
    pool = slots.Slots(cfg.parallelism)
    pending: deque = deque()  # _Flight, oldest first
    try:
        while True:
            while len(pending) < cfg.parallelism and (lease := _next_slot(pool, pending, deadline)):
                trial = issue()
                if trial is None:
                    lease.close()
                    break
                pid, fd = slots.fork(partial(_trial, trial, by_id[trial.pipeline_id], cfg, lease))
                pending.append(_Flight(trial, pid, fd, lease, time.monotonic()))
            if not pending:
                return
            head = pending[0]
            while head.outcome is None and _wait(pending, deadline):
                pass
            if head.outcome is None:
                head.end(f"TimeoutError: trial killed at the {cfg.max_runtime} s wall-clock limit")
            pending.popleft()
            _report(state, head.trial, head.outcome, sink)
    finally:
        for flight in pending:
            if flight.outcome is None:
                flight.end("the run ended")
        pool.close()


def run(
    arms: list[TunerArm],
    cfg: TunerConfig,
    log_sink: Optional[Callable[[dict], None]] = None,
) -> tuple[Leaderboard, TunerState]:
    """Explore the arms under budget/epsilon/parallelism; rank finished trials."""
    if cfg.budget < len(arms):
        raise ValueError(
            f"budget {cfg.budget} is below the pipeline count {len(arms)}"
        )
    by_id = {a.pipeline_id: a for a in arms}
    state = TunerState(
        [
            PipelineState(pipeline_id=a.pipeline_id, space=a.space, seeds=list(a.seeds))
            for a in arms
        ],
        seed=cfg.seed,
    )
    deadline = None if cfg.max_runtime is None else time.monotonic() + cfg.max_runtime

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
        while (trial := issue()) is not None:
            _report(state, trial, _execute(trial, by_id[trial.pipeline_id], cfg), log_sink)
    else:
        _run_forked(state, by_id, cfg, issue, deadline, log_sink)

    leaderboard = build_leaderboard(state)
    if not leaderboard.entries:
        if state.issued > 0:
            raise AllTrialsFailed("every trial failed; nothing to rank")
        raise AllTrialsFailed("wall-clock limit expired before any trial ran")
    return leaderboard, state
