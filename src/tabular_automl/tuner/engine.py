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
killed, or dies, takes its helpers with it.
"""
from __future__ import annotations

import os
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
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


POLL_S = 0.05  # how often the forked run looks for trials that exited


def _poll_for(deadline) -> float:
    """One wait of at most POLL_S, ending at the deadline."""
    return POLL_S if deadline is None else max(0.0, min(POLL_S, deadline - time.monotonic()))


def _child(conn, trial: Trial, arm: TunerArm, cfg: TunerConfig, lease: slots.Lease) -> None:
    os.setpgrp()  # the trial's helpers join its group, so killing the group ends them too
    slots.current = lease
    outcome = _execute(trial, arm, cfg)
    lease.give_back()  # idle while the result waits to be applied
    conn.send(outcome)
    conn.close()


@dataclass
class _Flight:
    """A trial in flight at P > 1: its process, result pipe and slots.

    Helpers forked from the trial inherit its end of the pipe, so when the
    trial dies while they run the pipe stays open; its exit is polled too.
    """

    trial: Trial
    proc: Any
    recv: Any
    lease: slots.Lease
    started: float
    ended: bool = False

    def exited(self) -> bool:
        """Whether the trial process has exited. It is not reaped here, so
        its pid still names its process group."""
        try:
            flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
            return os.waitid(os.P_PID, self.proc.pid, flags) is not None
        except ChildProcessError:  # reaped already
            return True

    def wait(self, deadline) -> bool:
        """Wait until the trial has sent its result or exited (True), or
        until the deadline (False)."""
        while not (self.recv.poll(_poll_for(deadline)) or self.exited()):
            if deadline is not None and time.monotonic() >= deadline:
                return False
        return True

    def outcome(self):
        """What the trial sent, or a failure if it exited without sending."""
        if self.recv.poll():
            try:
                outcome = self.recv.recv()
                self.proc.join()
                self.lease.close()
                return outcome
            except EOFError:
                pass
        self.end()  # its helpers may still run
        error = f"WorkerDied: trial process exited with code {self.proc.exitcode} and no result"
        return None, None, error, time.monotonic() - self.started

    def end(self) -> None:
        """Kill the trial and the helpers in its process group, then free
        every slot it held. Only the first call does anything."""
        if self.ended:
            return
        self.ended = True
        try:
            # Only while the trial is unreaped is its pid sure to name its group.
            os.waitid(os.P_PID, self.proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ChildProcessError, ProcessLookupError):
            pass
        self.proc.kill()
        self.proc.join()
        self.lease.close()


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


def _next_slot(pool: slots.Slots, pending: deque, deadline) -> Optional[slots.Lease]:
    """A slot for the next trial, or None once the deadline has passed.

    While the trials in flight hold every slot, wait for one to be given
    back; nothing is applied meanwhile, so the trial log never depends on
    that wait. A trial that died still counts its slots and may leave
    helpers running, so first end every trial that exited holding slots.
    """
    while True:
        for flight in pending:
            if not flight.ended and flight.lease.held[0] > 0 and flight.exited():
                flight.end()
        if deadline is not None and time.monotonic() >= deadline:
            return None
        lease = pool.lease(_poll_for(deadline))
        if lease is not None:
            return lease


def _run_forked(state: TunerState, by_id: dict, cfg: TunerConfig, issue, deadline, sink) -> None:
    """Keep up to P trials in flight, one forked child each; apply in id order.

    Each trial is forked into a slot (`_next_slot`). Only the head (oldest)
    trial is waited on, until the deadline. A child that exits without
    sending a result fails its trial. Once the deadline has passed nothing
    more is issued, and each trial still in flight when it reaches the head
    is killed and failed.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    pool = slots.Slots(ctx, cfg.parallelism)
    pending: deque = deque()  # _Flight, oldest first
    try:
        while True:
            while len(pending) < cfg.parallelism and (
                lease := _next_slot(pool, pending, deadline)
            ) is not None:
                trial = issue()
                if trial is None:
                    lease.close()
                    break
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_child, args=(send, trial, by_id[trial.pipeline_id], cfg, lease)
                )
                proc.start()
                send.close()
                pending.append(_Flight(trial, proc, recv, lease, time.monotonic()))
            if not pending:
                return
            head = pending[0]
            if head.wait(deadline):
                outcome = head.outcome()
            else:
                head.end()
                error = f"TimeoutError: trial killed at the {cfg.max_runtime} s wall-clock limit"
                outcome = (None, None, error, time.monotonic() - head.started)
            head.recv.close()
            pending.popleft()
            _report(state, head.trial, outcome, sink)
    finally:
        for flight in pending:
            flight.end()
            flight.recv.close()


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
