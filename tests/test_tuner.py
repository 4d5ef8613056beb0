import ast
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import tabular_automl
from tabular_automl import slots
from tabular_automl.errors import (
    AllTrialsFailed,
    DegenerateHistory,
    DoubleReport,
    Exhausted,
    UnknownTrial,
    WorkerDied,
)
from tabular_automl.learners import HpDomain, HpSpace, Loss
from tabular_automl.tuner import (
    EPSILON_GREEDY,
    EXPLORATION,
    Leaderboard,
    PipelineState,
    TunerArm,
    TunerConfig,
    TunerState,
    build_leaderboard,
    expected_improvement,
    next_action,
    report_result,
    run,
    suggest_bo,
    trial_seed,
)
from tabular_automl.tuner import bo
from tabular_automl.tuner.bandit import QUARANTINE_AFTER

STATIC_SPACE = HpSpace(statics={"c": 1})


def pipeline(pid, seeds=(), space=None):
    return PipelineState(pipeline_id=pid, space=space or STATIC_SPACE, seeds=list(seeds))


def state_of(*pipelines, seed=0):
    return TunerState(list(pipelines), seed=seed)


def finish(state, trial, value):
    report_result(state, trial.trial_id, loss=Loss(kind="rmse", value=value))


class TestExplorationPhase:
    def test_fewest_suggested_goes_next(self):
        a, b, c = pipeline("a"), pipeline("b"), pipeline("c")
        a.suggested, b.suggested, c.suggested = 5, 5, 4
        st = state_of(a, b, c)
        assert next_action(st, TunerConfig()).pipeline_id == "c"
        assert st.phase == EXPLORATION

    def test_suggestion_ties_break_by_id(self):
        st = state_of(pipeline("zeta"), pipeline("alpha"))
        assert next_action(st, TunerConfig()).pipeline_id == "alpha"

    def test_gate_needs_both_conditions(self):
        cfg = TunerConfig()
        for suggested in itertools.product([4, 5], repeat=3):
            for max_finished in (0, 5):
                ps = [pipeline(f"p{i}") for i in range(3)]
                for p, s in zip(ps, suggested):
                    p.suggested = s
                ps[0].finished = max_finished
                st = state_of(*ps)
                expected = all(s >= 5 for s in suggested) and max_finished >= 5
                assert st.gate_satisfied(cfg) == expected

    def test_inflight_counts_toward_gate(self):
        st = state_of(pipeline("a"))
        cfg = TunerConfig()
        trials = [next_action(st, cfg) for _ in range(5)]
        assert st.pipelines["a"].suggested == 5  # none reported yet
        finish(st, trials[0], 0.5)
        # 5 suggested and 5 finished would be needed? no: one pipeline,
        # >=5 suggested and >=5 finished on some pipeline
        assert not st.gate_satisfied(cfg)
        for t in trials[1:]:
            finish(st, t, 0.5)
        assert st.gate_satisfied(cfg)


class TestEpsilonGreedy:
    def _flipped_state(self, rewards, seed=0):
        ps = []
        for i, r in enumerate(rewards):
            p = pipeline(f"p{i}")
            p.suggested, p.finished, p.reward = 5, 5, r
            ps.append(p)
        return state_of(*ps, seed=seed)

    def test_zero_epsilon_takes_lowest_reward(self):
        st = self._flipped_state([0.5, 0.2, 0.9])
        cfg = TunerConfig(epsilon=0.0)
        trial = next_action(st, cfg)
        assert st.phase == EPSILON_GREEDY
        assert trial.pipeline_id == "p1"

    def test_reward_ties_break_by_id(self):
        st = self._flipped_state([0.2, 0.2])
        assert next_action(st, TunerConfig(epsilon=0.0)).pipeline_id == "p0"

    def test_quarantined_pipeline_skipped_by_greedy(self):
        st = self._flipped_state([0.1, 0.5])
        st.pipelines["p0"].quarantined = True
        assert next_action(st, TunerConfig(epsilon=0.0)).pipeline_id == "p1"

    def test_epsilon_still_reaches_quarantined(self):
        st = self._flipped_state([0.1, 0.5], seed=3)
        st.pipelines["p0"].quarantined = True
        picked = {next_action(st, TunerConfig(epsilon=1.0)).pipeline_id for _ in range(50)}
        assert picked == {"p0", "p1"}

    def test_all_quarantined_does_not_stall(self):
        st = self._flipped_state([0.1, 0.5])
        for p in st.pipelines.values():
            p.quarantined = True
        assert next_action(st, TunerConfig(epsilon=0.0)).pipeline_id == "p0"


class TestReporting:
    def test_reward_is_best_finished_loss(self):
        st = state_of(pipeline("a"))
        cfg = TunerConfig()
        for value in (0.9, 0.3, 0.7):
            finish(st, next_action(st, cfg), value)
        assert st.pipelines["a"].reward == 0.3
        assert st.pipelines["a"].history[-1] == ({"c": 1}, 0.7)

    def test_failures_never_touch_reward(self):
        st = state_of(pipeline("a"))
        cfg = TunerConfig()
        finish(st, next_action(st, cfg), 0.4)
        report_result(st, next_action(st, cfg).trial_id, error="boom")
        p = st.pipelines["a"]
        assert p.reward == 0.4
        assert p.failed == 1
        assert p.consecutive_failures == 1

    def test_quarantine_after_five_consecutive(self):
        st = state_of(pipeline("a"))
        cfg = TunerConfig()
        for i in range(QUARANTINE_AFTER):
            p = st.pipelines["a"]
            assert not p.quarantined
            report_result(st, next_action(st, cfg).trial_id, error=f"e{i}")
        assert st.pipelines["a"].quarantined

    def test_success_resets_the_streak(self):
        st = state_of(pipeline("a"))
        cfg = TunerConfig()
        for i in range(QUARANTINE_AFTER - 1):
            report_result(st, next_action(st, cfg).trial_id, error=f"e{i}")
        finish(st, next_action(st, cfg), 0.5)
        p = st.pipelines["a"]
        assert p.consecutive_failures == 0
        assert not p.quarantined

    def test_unknown_trial(self):
        st = state_of(pipeline("a"))
        with pytest.raises(UnknownTrial):
            report_result(st, 12, loss=Loss(kind="rmse", value=1.0))

    def test_double_report(self):
        st = state_of(pipeline("a"))
        trial = next_action(st, TunerConfig())
        finish(st, trial, 0.5)
        with pytest.raises(DoubleReport):
            finish(st, trial, 0.5)

    def test_loss_xor_error(self):
        st = state_of(pipeline("a"))
        trial = next_action(st, TunerConfig())
        with pytest.raises(ValueError):
            report_result(st, trial.trial_id)
        with pytest.raises(ValueError):
            report_result(st, trial.trial_id, loss=Loss(kind="rmse", value=1.0), error="x")


class TestBudgetAndSeeds:
    def test_budget_exhausts(self):
        st = state_of(pipeline("a"))
        cfg = TunerConfig(budget=3)
        for _ in range(3):
            next_action(st, cfg)
        with pytest.raises(Exhausted):
            next_action(st, cfg)

    def test_seeds_issue_first_in_order(self):
        space = HpSpace(tunables=[HpDomain("n", "int", 1, 100)])
        seeds = [{"n": 7}, {"n": 50}, {"n": 99}]
        st = state_of(pipeline("a", seeds=seeds, space=space))
        cfg = TunerConfig(budget=5)
        got = [next_action(st, cfg).hp for _ in range(5)]
        assert got[:3] == seeds
        for hp in got[3:]:
            assert space.contains(hp)

    def test_out_of_range_seed_clamped(self):
        space = HpSpace(tunables=[HpDomain("n", "int", 1, 10)])
        st = state_of(pipeline("a", seeds=[{"n": 500}], space=space))
        assert next_action(st, TunerConfig()).hp == {"n": 10}

    def test_five_seed_budget_five_runs_only_seeds(self):
        space = HpSpace(tunables=[HpDomain("n", "int", 1, 100)])
        seeds = [{"n": v} for v in (1, 2, 3, 4, 5)]
        st = state_of(pipeline("a", seeds=seeds, space=space))
        cfg = TunerConfig(budget=5)
        assert [next_action(st, cfg).hp for _ in range(5)] == seeds


class TestSuggestionLadder:
    SPACE = HpSpace(tunables=[HpDomain("x", "float", 0.0, 1.0)])

    def _state_with_history(self, history):
        p = pipeline("a", space=self.SPACE)
        p.suggested = len(history)
        p.finished = len(history)
        p.history = [(dict(h), v) for h, v in history]
        return state_of(p)

    def test_below_five_finished_samples_at_random(self):
        history = [({"x": 0.1 * i}, 0.5 - 0.01 * i) for i in range(4)]
        st = self._state_with_history(history)
        hp = next_action(st, TunerConfig()).hp
        assert self.SPACE.contains(hp)
        # random, not seed or history replay
        assert hp not in [h for h, _ in history]

    def test_five_finished_with_signal_uses_the_surrogate(self):
        history = [({"x": 0.2 * i}, (0.2 * i - 0.7) ** 2) for i in range(5)]
        st = self._state_with_history(history)
        hp = next_action(st, TunerConfig()).hp
        assert self.SPACE.contains(hp)
        assert 0.4 <= hp["x"] <= 1.0  # surrogate pulls toward the minimum

    def test_flat_history_falls_back_to_random(self):
        history = [({"x": 0.2 * i}, 0.5) for i in range(5)]
        st = self._state_with_history(history)
        assert self.SPACE.contains(next_action(st, TunerConfig()).hp)


class TestWarmTheta:
    SPACE = HpSpace(tunables=[HpDomain("x", "float", 0.0, 1.0)])

    def _tuning(self, pid, reward, flat=False):
        p = pipeline(pid, space=self.SPACE)
        p.history = [({"x": 0.2 * i}, 0.5 if flat else (0.2 * i - 0.7) ** 2 + reward) for i in range(5)]
        p.suggested = p.finished = 5
        p.reward = min(v for _, v in p.history)
        return p

    def _fit_starts(self, monkeypatch) -> list:
        """The theta argument of every GP fit from now on."""
        starts = []
        fit = bo.GaussianProcess.fit

        def spy(gp, X, y, rng, theta=None):
            starts.append(None if theta is None else theta.copy())
            return fit(gp, X, y, rng, theta)

        monkeypatch.setattr(bo.GaussianProcess, "fit", spy)
        return starts

    def test_next_fit_starts_from_the_last_theta(self, monkeypatch):
        a, b = self._tuning("a", 0.0), self._tuning("b", 1.0)
        b_theta = np.array([0.1, 0.2, -3.0])
        b.theta = b_theta
        st, cfg = state_of(a, b), TunerConfig(epsilon=0.0)
        starts = self._fit_starts(monkeypatch)

        finish(st, next_action(st, cfg), 0.3)
        assert starts == [None]
        first = a.theta
        assert first is not None and first.shape == (3,)
        next_action(st, cfg)
        assert len(starts) == 2 and starts[1].tobytes() == first.tobytes()
        assert a.theta is not first
        assert b.theta is b_theta and b_theta.tobytes() == np.array([0.1, 0.2, -3.0]).tobytes()

    def test_degenerate_history_leaves_theta_as_it_was(self):
        p = self._tuning("a", 0.0, flat=True)
        theta = np.array([0.0, 0.0, -2.0])
        p.theta = theta
        st = state_of(p)
        assert self.SPACE.contains(next_action(st, TunerConfig(epsilon=0.0)).hp)
        assert p.theta is theta


class TestExpectedImprovement:
    def test_zero_uncertainty_at_incumbent(self):
        ei = expected_improvement(np.array([0.3]), np.array([0.0]), best=0.3)
        assert ei[0] <= 1e-9

    def test_unit_sigma_at_incumbent_mean(self):
        ei = expected_improvement(np.array([0.3]), np.array([1.0]), best=0.3)
        assert ei[0] == pytest.approx(0.3989, abs=1e-3)

    def test_worse_mean_zero_sigma_is_zero(self):
        ei = expected_improvement(np.array([0.9]), np.array([0.0]), best=0.3)
        assert ei[0] == 0.0

    def test_monotone_in_sigma(self):
        sigmas = np.array([0.1, 0.5, 1.0, 2.0])
        ei = expected_improvement(np.full(4, 0.5), sigmas, best=0.3)
        assert np.all(np.diff(ei) > 0)


class TestSuggestBo:
    SPACE = HpSpace(tunables=[HpDomain("x", "float", 0.0, 1.0)])

    def test_needs_history(self):
        with pytest.raises(DegenerateHistory):
            suggest_bo([({"x": 0.5}, 1.0)], self.SPACE, np.random.default_rng(0))

    def test_flat_losses_rejected(self):
        history = [({"x": 0.1 * i}, 2.0) for i in range(6)]
        with pytest.raises(DegenerateHistory):
            suggest_bo(history, self.SPACE, np.random.default_rng(0))

    def test_avoids_repeating_observed_configs(self):
        space = HpSpace(tunables=[HpDomain("n", "int", 1, 3)])
        history = [({"n": 1}, 0.9), ({"n": 3}, 0.1)]
        for seed in range(5):
            hp, _ = suggest_bo(history, space, np.random.default_rng(seed))
            assert hp == {"n": 2}

    def test_saturated_space_returns_top_candidate(self):
        space = HpSpace(tunables=[HpDomain("n", "int", 1, 3)])
        history = [({"n": 1}, 0.9), ({"n": 2}, 0.5), ({"n": 3}, 0.1)]
        hp, _ = suggest_bo(history, space, np.random.default_rng(1))
        assert space.contains(hp)

    def test_statics_pass_through(self):
        assert suggest_bo([], STATIC_SPACE, np.random.default_rng(0))[0] == {"c": 1}

    def test_non_finite_losses_are_left_out_of_the_surrogate(self):
        history = [({"x": 0.1 * i}, float(i)) for i in range(5)]
        for bad in (float("inf"), float("nan")):
            hp, _ = suggest_bo(history + [({"x": 0.55}, bad)], self.SPACE, np.random.default_rng(0))
            assert hp == suggest_bo(history, self.SPACE, np.random.default_rng(0))[0]

    def test_non_finite_configs_still_count_as_seen(self):
        space = HpSpace(tunables=[HpDomain("n", "int", 1, 3)])
        history = [({"n": 1}, 0.9), ({"n": 3}, 0.1), ({"n": 2}, float("inf"))]
        hp, _ = suggest_bo(history, space, np.random.default_rng(0))
        # every config is seen, so the top candidate comes back whatever it is
        assert space.contains(hp)
        assert suggest_bo(history[:2], space, np.random.default_rng(0))[0] == {"n": 2}

    def test_fewer_than_two_finite_losses_rejected(self):
        history = [({"x": 0.2}, 1.0), ({"x": 0.4}, float("inf")), ({"x": 0.6}, float("nan"))]
        with pytest.raises(DegenerateHistory):
            suggest_bo(history, self.SPACE, np.random.default_rng(0))

    def test_no_scipy_import_on_any_path_to_a_suggestion(self):
        # A fresh interpreter: this test process has scipy loaded already. A
        # meta-path finder records every attempt to import scipy, so an import
        # that a later line removed from sys.modules is still seen.
        script = textwrap.dedent(
            """
            import sys

            attempts = []

            class RecordScipy:
                def find_spec(self, name, path=None, target=None):
                    if name == "scipy" or name.startswith("scipy."):
                        attempts.append(name)
                    return None

            sys.meta_path.insert(0, RecordScipy())

            import numpy as np
            import tabular_automl.orchestrator.cli
            from tabular_automl.learners import HpDomain, HpSpace, Loss
            from tabular_automl.tuner import TunerArm, TunerConfig, run
            from tabular_automl.tuner.bo import suggest_bo

            assert "multiprocessing" not in sys.modules, "multiprocessing imported at module level"
            space = HpSpace(tunables=[HpDomain("x", "float", 0.0, 1.0)])
            history = [({"x": 0.1}, 0.9), ({"x": 0.5}, 0.4), ({"x": 0.9}, 0.7)]
            rng = np.random.default_rng(0)
            hp, theta = suggest_bo(history, space, rng)  # a pipeline's first GP fit
            assert space.contains(hp), hp
            hp, _ = suggest_bo(history + [(hp, 0.5)], space, rng, theta)  # a warm one
            assert space.contains(hp), hp
            assert not attempts, attempts
            assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

            def runner(trial, seed):
                return Loss(kind="rmse", value=0.5), {}

            arm = TunerArm(pipeline_id="a", space=space, seeds=[], runner=runner)
            board, _ = run([arm], TunerConfig(budget=4, parallelism=2))  # forks trials
            assert len(board.entries) == 4
            assert "multiprocessing" not in sys.modules, "a forked run imported multiprocessing"
            """
        )
        src = str(Path(tabular_automl.__file__).resolve().parent.parent)
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


class TestGpGradient:
    # Signal std in [1/e, e], length-scales in [0.1, 2] and noise std in
    # [0.01, 1]: inside the fit's bounds, where the kernel matrix is well
    # enough conditioned for central differences to agree to 1e-4.
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_finite_differences(self, d):
        rng = np.random.default_rng(40 + d)
        box = [(-1.0, 1.0)] + [(math.log(0.1), math.log(2.0))] * d + [(math.log(1e-2), 0.0)]
        bounds = [bo._SIGNAL_BOUNDS] + [bo._LENGTH_BOUNDS] * d + [bo._NOISE_BOUNDS]
        assert all(blo <= lo and hi <= bhi for (lo, hi), (blo, bhi) in zip(box, bounds))
        for _ in range(10):
            n = int(rng.integers(3, 25))
            X = rng.random((n, d))
            y = rng.normal(size=n)
            theta = np.array([lo + rng.random() * (hi - lo) for lo, hi in box])
            args = (bo._sq_diffs(X, X), y, np.eye(n))
            _, grad = bo._neg_lml_and_grad(theta, *args)
            eps = 1e-5
            for j in range(len(theta)):
                tp, tm = theta.copy(), theta.copy()
                tp[j] += eps
                tm[j] -= eps
                fd = (bo._neg_lml_and_grad(tp, *args)[0] - bo._neg_lml_and_grad(tm, *args)[0]) / (2 * eps)
                assert grad[j] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def make_arm(pid, fn, seeds=(), space=None):
    def runner(trial, seed):
        return Loss(kind="rmse", value=fn(trial)), {}

    return TunerArm(pipeline_id=pid, space=space or STATIC_SPACE, seeds=list(seeds), runner=runner)


def _ends_soon(pid: int, within: float = 3.0) -> bool:
    """Whether process `pid` is gone or a zombie within `within` seconds."""
    stop = time.monotonic() + within
    while time.monotonic() < stop:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as f:
                if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except FileNotFoundError:
            return True
        time.sleep(0.02)
    return False


class TestEngine:
    def test_budget_and_ranks(self):
        arm = make_arm("a", lambda t: 1.0 + t.trial_id * 0.1)
        board, state = run([arm], TunerConfig(budget=6, parallelism=1))
        assert state.issued == 6
        assert [e.rank for e in board.entries] == [1, 2, 3, 4, 5, 6]
        assert board.best.trial_id == 0
        assert board.best.loss == 1.0

    def test_leaderboard_sorted_with_logloss_tiebreak(self):
        losses = {
            0: Loss(kind="error_rate", value=0.2, logloss=0.9),
            1: Loss(kind="error_rate", value=0.2, logloss=0.4),
            2: Loss(kind="error_rate", value=0.1, logloss=2.0),
        }

        def runner(trial, seed):
            return losses[trial.trial_id], {}

        arm = TunerArm(pipeline_id="a", space=STATIC_SPACE, seeds=[], runner=runner)
        board, _ = run([arm], TunerConfig(budget=3, parallelism=1))
        assert [e.trial_id for e in board.entries] == [2, 1, 0]

    def test_same_seed_same_stream(self):
        space = HpSpace(tunables=[HpDomain("x", "float", 0.0, 1.0)])

        def play():
            events = []
            arm = make_arm("a", lambda t: abs(t.hp["x"] - 0.6), space=space)
            run(
                [arm, make_arm("b", lambda t: 0.9)],
                TunerConfig(budget=20, parallelism=1, seed=11),
                log_sink=events.append,
            )
            return events

        assert play() == play()

    def test_failing_arm_quarantined_but_run_completes(self):
        def bad(trial):
            raise RuntimeError("always broken")

        ok = make_arm("ok", lambda t: 0.5)
        bad_arm = TunerArm(
            pipeline_id="bad",
            space=STATIC_SPACE,
            seeds=[],
            runner=lambda trial, seed: (_ for _ in ()).throw(RuntimeError("broken")),
        )
        board, state = run([ok, bad_arm], TunerConfig(budget=30, parallelism=1, epsilon=0.1))
        assert state.issued == 30
        assert state.pipelines["bad"].quarantined
        assert state.pipelines["bad"].consecutive_failures >= QUARANTINE_AFTER
        assert all(e.pipeline_id == "ok" for e in board.entries)

    def test_every_trial_failing_raises(self):
        arm = TunerArm(
            pipeline_id="a",
            space=STATIC_SPACE,
            seeds=[],
            runner=lambda trial, seed: (_ for _ in ()).throw(ValueError("nope")),
        )
        with pytest.raises(AllTrialsFailed):
            run([arm], TunerConfig(budget=8, parallelism=1))

    def test_parallel_run_completes_budget(self):
        arm = make_arm("a", lambda t: 1.0 / (1 + t.trial_id))
        board, state = run([arm], TunerConfig(budget=25, parallelism=5))
        assert state.issued == 25
        assert len(board.entries) == 25

    def test_parallel_log_is_reproducible(self):
        space = HpSpace(tunables=[HpDomain("x", "float", 0.0, 1.0)])

        def lossy(t):
            time.sleep(jitter.uniform(0, 0.01))  # completion order varies from run to run
            return abs(t.hp["x"] - 0.6)

        jitter = random.SystemRandom()

        def play():
            events = []
            arms = [make_arm("a", lossy, space=space), make_arm("b", lossy, space=space)]
            run(arms, TunerConfig(budget=24, parallelism=2, seed=4), log_sink=events.append)
            return events

        first = play()
        assert sum(e["event"] == "finished" for e in first) == 24
        assert first == play()

    def test_dead_worker_fails_its_trial_and_run_completes(self):
        def runner(trial, seed):
            if trial.trial_id == 1:
                os._exit(3)
            return Loss(kind="rmse", value=0.5), {}

        events = []
        arm = TunerArm(pipeline_id="a", space=STATIC_SPACE, seeds=[], runner=runner)
        board, state = run([arm], TunerConfig(budget=6, parallelism=2),
                           log_sink=events.append)
        assert state.issued == 6
        assert state.trials[1].state == "failed"
        assert "code 3" in state.trials[1].error
        assert [e.trial_id for e in board.entries] == [0, 2, 3, 4, 5]
        assert {"event": "failed", "trial": 1, "error": state.trials[1].error} in events

    def test_parallel_leaderboard_carries_runner_payload(self):
        def runner(trial, seed):
            return Loss(kind="rmse", value=1.0 + trial.trial_id), {"model": f"m{trial.trial_id}"}

        arm = TunerArm(pipeline_id="a", space=STATIC_SPACE, seeds=[], runner=runner)
        board, state = run([arm], TunerConfig(budget=5, parallelism=2))
        assert [e.extra for e in board.entries] == [{"model": f"m{k}"} for k in range(5)]
        assert all(t.duration is not None for t in state.trials.values())

    def test_deadline_kills_parallel_trials(self, tmp_path):
        def sleeper(trial, seed):
            (tmp_path / f"{os.getpid()}.pid").touch()
            time.sleep(30)
            return Loss(kind="rmse", value=0.1), {}

        arms = [
            make_arm("fast", lambda t: 0.5),
            TunerArm(pipeline_id="sleeper", space=STATIC_SPACE, seeds=[], runner=sleeper),
        ]
        started = time.monotonic()
        board, state = run(arms, TunerConfig(budget=20, parallelism=2, max_runtime=0.5))
        assert time.monotonic() - started < 5
        slept = [t for t in state.trials.values() if t.pipeline_id == "sleeper"]
        assert slept and all(t.state == "failed" for t in slept)
        assert all("TimeoutError" in t.error and "0.5 s" in t.error for t in slept)
        assert all(e.pipeline_id == "fast" for e in board.entries)
        pids = [int(p.stem) for p in tmp_path.glob("*.pid")]
        assert pids
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_deadline_kills_helpers_with_their_trial(self, tmp_path):
        def splitter(trial, seed):
            def work(i):
                (tmp_path / f"{os.getpid()}.pid").touch()
                time.sleep(0.2 if i == 0 else 30)  # the trial claims again after task 0

            slots.share(6, work)
            return Loss(kind="rmse", value=0.1), {}

        arm = TunerArm(pipeline_id="split", space=STATIC_SPACE, seeds=[], runner=splitter)
        events = []
        started = time.monotonic()
        with pytest.raises(AllTrialsFailed):
            run([arm], TunerConfig(budget=1, parallelism=3, max_runtime=1.0),
                log_sink=events.append)
        assert time.monotonic() - started < 5
        assert "TimeoutError" in events[-1]["error"]
        pids = [int(p.stem) for p in tmp_path.glob("*.pid")]
        assert len(pids) == 3  # the trial and the two helpers it borrowed idle slots for
        for pid in pids:
            assert _ends_soon(pid)

    def test_dead_helper_fails_only_its_trial(self):
        def runner(trial, seed):
            trial_pid = os.getpid()

            def work(i):
                if os.getpid() != trial_pid:
                    os._exit(3)
                time.sleep(0.1)
                return i

            assert slots.share(4, work) == [0, 1, 2, 3]
            return Loss(kind="rmse", value=0.5), {}

        arms = [make_arm("fast", lambda t: 0.1),
                TunerArm(pipeline_id="split", space=STATIC_SPACE, seeds=[], runner=runner)]
        board, state = run(arms, TunerConfig(budget=2, parallelism=3))
        split = [t for t in state.trials.values() if t.pipeline_id == "split"]
        assert [t.state for t in split] == ["failed"]
        assert split[0].error.splitlines()[-1].endswith(
            "WorkerDied: helper process exited with code 3 and no result")
        assert [e.pipeline_id for e in board.entries] == ["fast"]

    @pytest.mark.parametrize("ending", ["dies", "deadline"])
    def test_wait_for_a_slot_ends_with_the_trial_holding_them(self, tmp_path, monkeypatch,
                                                              ending):
        # Trial 0 gives its slot back, then is slow to send its result, so
        # trial 1 borrows that slot. Once trial 0 is applied, the engine
        # waits for a slot while trial 1 holds both. Trial 1 then dies, or
        # the deadline passes; either ends the wait, and trial 1's helper.
        slow_sender = []
        give_back = slots.Lease.give_back

        def give_back_then_dawdle(lease):
            give_back(lease)
            if slow_sender:
                time.sleep(0.5)

        monkeypatch.setattr(slots.Lease, "give_back", give_back_then_dawdle)

        def fast(trial, seed):
            slow_sender.append(True)
            return Loss(kind="rmse", value=0.1), {}

        def borrowing(trial, seed):
            trial_pid = os.getpid()

            def work(i):
                if os.getpid() != trial_pid:
                    (tmp_path / f"{os.getpid()}.pid").touch()
                    time.sleep(30)
                elif i > 0:
                    time.sleep(1 if ending == "dies" else 30)
                    os._exit(4)
                time.sleep(0.2)

            slots.share(4, work)
            return Loss(kind="rmse", value=0.5), {}

        arms = [TunerArm(pipeline_id="a_fast", space=STATIC_SPACE, seeds=[], runner=fast),
                TunerArm(pipeline_id="b_borrowing", space=STATIC_SPACE, seeds=[],
                         runner=borrowing)]
        started = time.monotonic()
        board, state = run(arms, TunerConfig(budget=3, parallelism=2,
                                              max_runtime=20 if ending == "dies" else 1.5))
        assert time.monotonic() - started < 3
        assert state.trials[1].pipeline_id == "b_borrowing"
        expected = ("WorkerDied: trial process exited with code 4" if ending == "dies"
                    else "TimeoutError: trial killed at the 1.5 s wall-clock limit")
        assert expected in state.trials[1].error
        assert [e.pipeline_id for e in board.entries] == ["a_fast"] * (len(board.entries))
        assert state.issued == (3 if ending == "dies" else 2)
        pids = [int(p.stem) for p in tmp_path.glob("*.pid")]
        assert len(pids) == 1
        assert _ends_soon(pids[0])

    def test_serial_run_makes_no_slots_and_forks_nothing(self, monkeypatch):
        monkeypatch.setattr(slots, "Slots", None)
        pids = set()

        def runner(trial, seed):
            pids.add(os.getpid())
            slots.share(3, lambda i: pids.add(os.getpid()))
            return Loss(kind="rmse", value=0.5), {}

        arm = TunerArm(pipeline_id="a", space=STATIC_SPACE, seeds=[], runner=runner)
        run([arm], TunerConfig(budget=3, parallelism=1))
        assert pids == {os.getpid()}

    def test_deadline_stops_early_but_keeps_results(self):
        def slow_runner(trial, seed):
            time.sleep(0.03)
            return Loss(kind="rmse", value=0.5), {}

        arm = TunerArm(pipeline_id="a", space=STATIC_SPACE, seeds=[], runner=slow_runner)
        board, state = run(
            [arm], TunerConfig(budget=500, parallelism=1, max_runtime=0.15)
        )
        assert 1 <= state.issued < 500
        assert len(board.entries) == state.issued

    def test_budget_below_pipeline_count_rejected(self):
        arms = [make_arm(f"p{i}", lambda t: 0.5) for i in range(4)]
        with pytest.raises(ValueError):
            run(arms, TunerConfig(budget=3))

    def test_trial_seed_is_stable_and_spread(self):
        assert trial_seed(0, 7) == trial_seed(0, 7)
        assert trial_seed(0, 7) != trial_seed(0, 8)
        assert trial_seed(0, 7) != trial_seed(1, 7)

    def test_empty_leaderboard_never_returned(self):
        board, _ = run(
            [make_arm("a", lambda t: 0.1)], TunerConfig(budget=1, parallelism=1)
        )
        assert isinstance(board, Leaderboard)
        assert board.entries


def _blob(seed: int) -> bytes:
    """1 MiB of seeded random bytes, more than one pipe buffer holds."""
    return np.random.default_rng(seed).bytes(1 << 20)


def _halving_dumps(monkeypatch, cut):
    """Make `pickle.dumps` give the first half of any pickle of an object
    for which `cut(obj)` holds, as a child killed while sending would."""
    whole = pickle.dumps

    def dumps(obj, *args, **kwargs):
        data = whole(obj, *args, **kwargs)
        return data[: len(data) // 2] if cut(obj) else data

    monkeypatch.setattr(pickle, "dumps", dumps)


class TestForkedProcesses:
    """Trials and helpers are forked by `slots.fork`, send one pickle down a
    pipe, and are reaped only by the process that forked them."""

    def test_trial_dying_with_a_helper_running_takes_it_along(self, tmp_path, monkeypatch):
        # Trial 0 gives its slot back, then is slow to send its result, so
        # trial 1 borrows that slot for a helper. Once trial 0 is applied
        # the engine waits for a slot. Trial 1 exits with its helper running;
        # trial 2 saw it exit, and gives back its slot at once, so trial 3
        # is forked while the engine is learning of trial 1's death.
        dawdle = []
        give_back = slots.Lease.give_back

        def give_back_then_dawdle(lease):
            give_back(lease)
            if dawdle:
                time.sleep(0.5)

        monkeypatch.setattr(slots.Lease, "give_back", give_back_then_dawdle)
        died = tmp_path / "died"

        def runner(trial, seed):
            if trial.trial_id == 0:
                dawdle.append(True)
            elif trial.trial_id == 1:
                trial_pid = os.getpid()

                def work(i):
                    if os.getpid() != trial_pid:
                        (tmp_path / f"{os.getpid()}.pid").touch()
                        time.sleep(30)
                    elif i > 0:
                        time.sleep(0.5)
                        died.touch()
                        os._exit(5)
                    time.sleep(0.2)

                slots.share(3, work)
            elif trial.trial_id == 2:
                stop = time.monotonic() + 10
                while not died.exists() and time.monotonic() < stop:
                    time.sleep(0.005)
            return Loss(kind="rmse", value=0.1), {}

        arm = TunerArm(pipeline_id="a", space=STATIC_SPACE, seeds=[], runner=runner)
        started = time.monotonic()
        board, state = run([arm], TunerConfig(budget=4, parallelism=3))
        assert time.monotonic() - started < 5
        assert state.issued == 4
        assert "WorkerDied: trial process exited with code 5" in state.trials[1].error
        assert [e.trial_id for e in board.entries] == [0, 2, 3]
        pids = [int(p.stem) for p in tmp_path.glob("*.pid")]
        assert len(pids) == 1  # the helper trial 1 borrowed a slot for
        assert _ends_soon(pids[0])

    def test_a_megabyte_trial_payload_comes_back_equal(self):
        def runner(trial, seed):
            return Loss(kind="rmse", value=1.0 + trial.trial_id), {"blob": _blob(trial.trial_id)}

        arm = TunerArm(pipeline_id="a", space=STATIC_SPACE, seeds=[], runner=runner)
        board, _ = run([arm], TunerConfig(budget=3, parallelism=2))
        assert [e.extra for e in board.entries] == [{"blob": _blob(k)} for k in range(3)]

    def test_a_megabyte_helper_result_comes_back_equal(self, trial_lease):
        _, borrowed = trial_lease
        assert slots.share(2, _blob) == [_blob(0), _blob(1)]
        assert borrowed == [True]

    def test_half_a_trial_pickle_fails_only_that_trial(self, monkeypatch):
        _halving_dumps(monkeypatch, lambda obj: isinstance(obj, tuple) and "blob" in (obj[1] or {}))

        def runner(trial, seed):
            payload = {"blob": _blob(trial.trial_id)} if trial.trial_id == 1 else {}
            return Loss(kind="rmse", value=0.5), payload

        arm = TunerArm(pipeline_id="a", space=STATIC_SPACE, seeds=[], runner=runner)
        board, state = run([arm], TunerConfig(budget=4, parallelism=2))
        assert state.trials[1].error == (
            "WorkerDied: trial process exited with code 0 and no result")
        assert [e.trial_id for e in board.entries] == [0, 2, 3]

    def test_half_a_helper_pickle_fails_share(self, trial_lease, monkeypatch):
        lease, _ = trial_lease
        _halving_dumps(monkeypatch, lambda obj: isinstance(obj, dict))
        with pytest.raises(WorkerDied, match="helper process exited with code 0 and no result"):
            slots.share(2, _blob)
        assert lease.held[0] == 1  # the helper's slot came back

    def test_share_claims_more_tasks_than_a_pipe_of_indices_holds(self, trial_lease):
        _, borrowed = trial_lease
        n = 20_000  # past 16 384, where a pipe of 4-byte indices would fill
        assert slots.share(n, lambda i: i) == list(range(n))
        assert any(borrowed)

    def test_output_is_written_once_from_every_process(self):
        # Buffered stdout on a pipe: what the parent buffered before a fork
        # must not be written again by the child, and what a child printed
        # must be written before it exits.
        script = textwrap.dedent(
            """
            from tabular_automl.learners import HpSpace, Loss
            from tabular_automl.tuner import TunerArm, TunerConfig, run

            def runner(trial, seed):
                print(f"trial {trial.trial_id}")
                return Loss(kind="rmse", value=0.5), {}

            print("before the run")
            arm = TunerArm(pipeline_id="a", space=HpSpace(), seeds=[], runner=runner)
            run([arm], TunerConfig(budget=4, parallelism=2))
            """
        )
        src = str(Path(tabular_automl.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert sorted(proc.stdout.splitlines()) == sorted(
            ["before the run"] + [f"trial {k}" for k in range(4)])

    def test_no_module_imports_multiprocessing(self):
        src = Path(tabular_automl.__file__).parent
        found = []
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                found += [f"{path.relative_to(src)}:{node.lineno}" for name in names
                          if name.split(".")[0] == "multiprocessing"]
        assert found == []


class TestTunerConfigValidation:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            TunerConfig(epsilon=1.5)

    def test_parallelism_positive(self):
        with pytest.raises(ValueError):
            TunerConfig(parallelism=0)

    def test_budget_positive(self):
        with pytest.raises(ValueError):
            TunerConfig(budget=0)

    def test_gate_constants_are_not_options(self):
        with pytest.raises(TypeError):
            TunerConfig(gate_suggested=3)


class TestLeaderboardBuild:
    def test_only_finished_trials_ranked(self):
        st = state_of(pipeline("a"))
        cfg = TunerConfig()
        finish(st, next_action(st, cfg), 0.8)
        report_result(st, next_action(st, cfg).trial_id, error="x")
        finish(st, next_action(st, cfg), 0.2)
        board = build_leaderboard(st)
        assert [e.trial_id for e in board.entries] == [2, 0]
        assert board.best.loss == 0.2
