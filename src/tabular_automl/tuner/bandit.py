"""The ε-greedy bandit over pipelines with exploration-phase gating.

Two phases, one forward-only transition. Exploration round-robins on the
fewest-suggested pipeline until (i) every pipeline has ≥ gate_suggested
suggestions AND (ii) some pipeline has ≥ bo_min_finished finished trials.
After the flip: explore a uniform pipeline with probability ε, otherwise
exploit the best (lowest) reward. Reward = best finished loss so far;
failures never touch it. Five consecutive failures quarantine a pipeline
out of the greedy pick (ε can still reach it).

Suggested counts include in-flight trials, so condition (i) stays
meaningful under parallel issue.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from ..errors import DegenerateHistory, DoubleReport, Exhausted, OptionOutOfRange, UnknownTrial
from ..learners import HpSpace, Loss
from .bo import suggest_bo

EXPLORATION = "exploration"
EPSILON_GREEDY = "epsilon_greedy"

QUARANTINE_AFTER = 5


@dataclass
class TunerConfig:
    budget: int = 250
    epsilon: float = 0.1
    parallelism: int = 1
    seed: int = 0
    max_runtime: Optional[float] = None  # seconds

    bo_min_finished: ClassVar[int] = 5
    gate_suggested: ClassVar[int] = 5

    def __post_init__(self):
        if not 0 <= self.epsilon <= 1:
            raise OptionOutOfRange(f"epsilon must be in [0,1], got {self.epsilon}")
        if self.parallelism < 1:
            raise OptionOutOfRange(f"parallelism must be >= 1, got {self.parallelism}")
        if self.budget < 1:
            raise OptionOutOfRange(f"budget must be >= 1, got {self.budget}")
        if self.seed < 0:
            raise OptionOutOfRange(f"seed must be >= 0, got {self.seed}")
        if self.max_runtime is not None and self.max_runtime <= 0:
            raise OptionOutOfRange(f"max_runtime must be > 0, got {self.max_runtime}")


@dataclass
class Trial:
    trial_id: int
    pipeline_id: str
    hp: dict
    state: str = "suggested"  # suggested -> running -> finished | failed
    loss: Optional[Loss] = None
    error: Optional[str] = None
    duration: Optional[float] = None
    payload: dict = field(default_factory=dict)


@dataclass
class PipelineState:
    pipeline_id: str
    space: HpSpace
    seeds: list[dict] = field(default_factory=list)
    suggested: int = 0
    finished: int = 0
    failed: int = 0
    consecutive_failures: int = 0
    quarantined: bool = False
    reward: float = math.inf  # best finished loss
    history: list[tuple[dict, float]] = field(default_factory=list)
    theta: Optional[np.ndarray] = None  # the last GP fit's theta: the next fit's warm start


class TunerState:
    def __init__(self, pipelines: list[PipelineState], seed: int):
        if not pipelines:
            raise ValueError("need at least one pipeline")
        ids = [p.pipeline_id for p in pipelines]
        if len(set(ids)) != len(ids):
            raise ValueError("pipeline ids must be unique")
        self.pipelines: dict[str, PipelineState] = {p.pipeline_id: p for p in pipelines}
        self.order: list[str] = sorted(ids)
        self.phase = EXPLORATION
        self.trials: dict[int, Trial] = {}
        self.issued = 0
        self.rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))

    def gate_satisfied(self, cfg: TunerConfig) -> bool:
        ps = self.pipelines.values()
        return all(p.suggested >= cfg.gate_suggested for p in ps) and any(
            p.finished >= cfg.bo_min_finished for p in ps
        )


def _pick_exploration(state: TunerState) -> PipelineState:
    return min(state.pipelines.values(), key=lambda p: (p.suggested, p.pipeline_id))


def _pick_greedy(state: TunerState) -> PipelineState:
    candidates = [p for p in state.pipelines.values() if not p.quarantined]
    if not candidates:  # everything quarantined: ignore the flag rather than stall
        candidates = list(state.pipelines.values())
    return min(candidates, key=lambda p: (p.reward, p.pipeline_id))


def suggest_random(space: HpSpace, rng: np.random.Generator) -> dict:
    """Uniform sample per domain (log domains uniform in log space)."""
    return space.sample(rng)


def _suggest_hp(p: PipelineState, cfg: TunerConfig, rng: np.random.Generator) -> dict:
    if p.suggested < len(p.seeds[:5]):
        return p.space.clamp(p.seeds[p.suggested])
    if not p.space.tunables:
        return dict(p.space.statics)
    if p.finished >= cfg.bo_min_finished:
        try:
            hp, p.theta = suggest_bo(p.history, p.space, rng, p.theta)
            return hp
        except DegenerateHistory:
            pass
    return suggest_random(p.space, rng)


def next_action(state: TunerState, cfg: TunerConfig) -> Trial:
    """Pick a pipeline and an HP config; registers the suggestion immediately."""
    if state.issued >= cfg.budget:
        raise Exhausted(f"budget of {cfg.budget} trials spent")

    if state.phase == EXPLORATION and state.gate_satisfied(cfg):
        state.phase = EPSILON_GREEDY

    if state.phase == EXPLORATION:
        p = _pick_exploration(state)
    elif state.rng.random() < cfg.epsilon:
        p = state.pipelines[state.order[int(state.rng.integers(len(state.order)))]]
    else:
        p = _pick_greedy(state)

    hp = _suggest_hp(p, cfg, state.rng)
    trial = Trial(trial_id=state.issued, pipeline_id=p.pipeline_id, hp=hp)
    state.trials[trial.trial_id] = trial
    state.issued += 1
    p.suggested += 1
    return trial


def report_result(
    state: TunerState,
    trial_id: int,
    loss: Optional[Loss] = None,
    error: Optional[str] = None,
) -> None:
    """Record a trial outcome; exactly one of loss/error must be given."""
    if (loss is None) == (error is None):
        raise ValueError("pass either a loss or an error")
    trial = state.trials.get(trial_id)
    if trial is None:
        raise UnknownTrial(f"trial {trial_id} was never issued")
    if trial.state in ("finished", "failed"):
        raise DoubleReport(f"trial {trial_id} already reported as {trial.state}")
    p = state.pipelines[trial.pipeline_id]
    if loss is not None:
        trial.state = "finished"
        trial.loss = loss
        p.finished += 1
        p.consecutive_failures = 0
        p.history.append((dict(trial.hp), loss.value))
        p.reward = min(p.reward, loss.value)
    else:
        trial.state = "failed"
        trial.error = error
        p.failed += 1
        p.consecutive_failures += 1
        if p.consecutive_failures >= QUARANTINE_AFTER:
            p.quarantined = True
