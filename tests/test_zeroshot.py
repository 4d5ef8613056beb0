import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tabular_automl
from tabular_automl.data_core import DEFAULT_VALID_FRACTION, RawTable, load_csv
from tabular_automl.errors import TooLarge
from tabular_automl.orchestrator.job import JobConfig, analyze_table, run_rerun
from tabular_automl.strategy import builtin_portfolio, realize, serialize_definitions
from tabular_automl.synth import make_imbalanced_csv
from tabular_automl.zeroshot import (
    DatasetHandle,
    PerformanceTable,
    ZeroShotConfig,
    build_performance_table,
    load_portfolio,
    normalize,
    save_portfolio,
    select_portfolio_exact,
    select_portfolio_greedy,
    selection_to_portfolio,
)


def configs(n):
    pool = builtin_portfolio().strategies
    return [ZeroShotConfig(strategy=pool[i % len(pool)], hp={"n": i}) for i in range(n)]


def make_table(losses):
    losses = np.asarray(losses, dtype=float)
    return PerformanceTable(
        losses=losses,
        configs=configs(losses.shape[0]),
        dataset_ids=[f"d{j}" for j in range(losses.shape[1])],
    )


# One column favors row 0, the other row 1, row 2 is a compromise:
# the best pair beats the best-single-row greedy start.
TRADEOFF = [[1.0, 9.0], [9.0, 1.0], [2.0, 2.0]]


class TestExact:
    def test_single_pick_is_best_row_sum(self):
        sel = select_portfolio_exact(make_table(TRADEOFF), k=1)
        assert sel.indices == [2]
        assert sel.objective == 4.0

    def test_pair_covers_both_columns(self):
        sel = select_portfolio_exact(make_table(TRADEOFF), k=2)
        assert sorted(sel.indices) == [0, 1]
        assert sel.objective == 2.0

    def test_ties_break_lexicographically(self):
        sel = select_portfolio_exact(make_table([[1.0, 1.0], [1.0, 1.0]]), k=1)
        assert sel.indices == [0]

    def test_k_equals_rows_hits_column_minima(self):
        P = make_table([[3.0, 5.0], [4.0, 1.0], [2.0, 9.0]])
        sel = select_portfolio_exact(P, k=3)
        assert sel.objective == pytest.approx(2.0 + 1.0)

    def test_enumeration_guard(self):
        P = make_table(np.ones((50, 2)))
        with pytest.raises(TooLarge):
            select_portfolio_exact(P, k=25)

    def test_k_bounds(self):
        P = make_table(TRADEOFF)
        with pytest.raises(ValueError):
            select_portfolio_exact(P, k=0)
        with pytest.raises(ValueError):
            select_portfolio_exact(P, k=4)


class TestGreedy:
    def test_takes_largest_marginal_gain_each_step(self):
        sel = select_portfolio_greedy(make_table(TRADEOFF), k=2)
        assert sel.indices == [2, 0]  # best single first, then smallest-index tie
        assert sel.objective == 3.0

    def test_never_beats_exact(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            B = int(rng.integers(2, 9))
            D = int(rng.integers(1, 6))
            k = int(rng.integers(1, min(B, 4) + 1))
            P = make_table(rng.uniform(size=(B, D)).round(3))
            greedy = select_portfolio_greedy(P, k)
            exact = select_portfolio_exact(P, k)
            assert greedy.objective >= exact.objective - 1e-12
            if k > 1:
                assert exact.objective <= select_portfolio_exact(P, k - 1).objective + 1e-12

    def test_matches_exact_for_single_pick(self):
        rng = np.random.default_rng(5)
        P = make_table(rng.uniform(size=(7, 4)))
        assert select_portfolio_greedy(P, 1).indices == select_portfolio_exact(P, 1).indices


class TestNormalize:
    def test_min_max_per_column(self):
        P = normalize(make_table([[2.0], [4.0], [6.0]]))
        assert P.losses[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert P.normalization == "minmax"

    def test_constant_column_goes_to_zero(self):
        P = normalize(make_table([[3.0], [3.0]]))
        assert P.losses[:, 0].tolist() == [0.0, 0.0]

    def test_columns_scale_independently(self):
        P = normalize(make_table([[1.0, 100.0], [3.0, 300.0]]))
        assert P.losses.tolist() == [[0.0, 0.0], [1.0, 1.0]]


class TestBuildTable:
    def test_failed_cell_penalized_against_column_worst(self):
        def evaluator(config, handle, seed):
            if config.hp["n"] == 1:
                raise RuntimeError("boom")
            return 2.0 if config.hp["n"] == 0 else 1.0

        handles = [DatasetHandle(id="d0", analysis=None)]
        P = build_performance_table(configs(3), handles, seed=0, evaluator=evaluator)
        assert P.losses[:, 0].tolist() == [2.0, 3.0, 1.0]

    def test_whole_column_failure_uses_unit_loss(self):
        def evaluator(config, handle, seed):
            raise RuntimeError("boom")

        handles = [DatasetHandle(id="d0", analysis=None)]
        P = build_performance_table(configs(2), handles, seed=0, evaluator=evaluator)
        assert P.losses[:, 0].tolist() == [1.0, 1.0]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_performance_table([], [], seed=0)

    def test_real_datasets_produce_finite_losses(self):
        rng = np.random.default_rng(31)

        def handle(hid, slope):
            xs = rng.uniform(size=80)
            ys = slope * xs + 0.05 * rng.normal(size=80)
            names = ["x", "y"]
            cells = [[f"{x:.5f}", f"{v:.5f}"] for x, v in zip(xs, ys)]
            t = RawTable(column_names=names, cells=cells, target_index=1)
            return DatasetHandle(id=hid, analysis=analyze_table(t, seed=0, valid_fraction=0.25))

        pool = builtin_portfolio().strategies
        cfgs = [
            ZeroShotConfig(strategy=pool[0], hp=dict(pool[0].seeds[0])),
            ZeroShotConfig(strategy=pool[7], hp=dict(pool[7].seeds[0])),
        ]
        P = build_performance_table(cfgs, [handle("a", 2.0), handle("b", -1.0)], seed=0)
        assert P.losses.shape == (2, 2)
        assert np.isfinite(P.losses).all()
        assert (P.losses >= 0).all()


class TestTrainingProtocol:
    def test_cell_equals_a_one_trial_rerun_on_an_imbalanced_table(self, tmp_path):
        # 300 rows with 17% positives: `fit` trains this problem class-weighted.
        path = str(tmp_path / "churn.csv")
        make_imbalanced_csv(path, n_rows=300, seed=3)
        analysis = analyze_table(load_csv(path, "churned"), 0, DEFAULT_VALID_FRACTION)
        assert analysis.imbalance.is_imbalanced
        strategy = next(s for s in builtin_portfolio().strategies if s.id == "gbt_fast_shallow")
        hp = dict(strategy.seeds[2])
        assert hp["subsample"] == 1.0  # the trial seed cannot change the model
        P = build_performance_table(
            [ZeroShotConfig(strategy, hp)], [DatasetHandle("churn", analysis)], seed=0
        )

        d = realize(strategy, analysis.schema, analysis.profiles, analysis.mf, analysis.problem)
        d.seeds = [hp]
        serialize_definitions([d], tmp_path / "defs")
        cfg = JobConfig(input_path=path, target="churned", output_dir=str(tmp_path / "job"),
                        budget=1, seed=0)
        report = run_rerun(cfg, tmp_path / "defs")
        assert report.status == "completed", report.message
        trial = json.loads((tmp_path / "job" / report.best["model"]).read_text())
        assert trial["hp"] == d.space.clamp(hp)
        assert P.losses[0, 0] == trial["valid_loss"]


@pytest.mark.parametrize(
    "script",
    [
        "import tabular_automl.zeroshot",
        "import sys, tabular_automl.orchestrator.job\n"
        "assert 'tabular_automl.zeroshot' not in sys.modules, 'job imports zeroshot'",
    ],
    ids=["zeroshot_alone", "job_without_zeroshot"],
)
def test_import_direction(script):
    # A fresh interpreter: this test process has every module loaded already.
    src = str(Path(tabular_automl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestTableValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            PerformanceTable(losses=np.ones((2, 2)), configs=configs(3), dataset_ids=["d0", "d1"])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            make_table([[np.nan], [1.0]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make_table([[-0.5], [1.0]])


class TestPersistence:
    def test_portfolio_round_trip(self, tmp_path):
        P = make_table(TRADEOFF)
        sel = select_portfolio_greedy(P, 2)
        portfolio = selection_to_portfolio(P, sel)
        path = tmp_path / "portfolio.json"
        save_portfolio(portfolio, path)
        loaded = load_portfolio(path)
        assert [s.id for s in loaded.strategies] == [s.id for s in portfolio.strategies]
        assert loaded.metadata["source"] == "zeroshot"
        assert loaded.metadata["objective"] == sel.objective


class TestSelectionToPortfolio:
    def test_selected_hp_becomes_first_seed(self):
        P = make_table(TRADEOFF)
        portfolio = selection_to_portfolio(P, select_portfolio_greedy(P, 2))
        for s, idx in zip(portfolio.strategies, [2, 0]):
            assert s.seeds[0] == {"n": idx}
            assert len(s.seeds) <= 5

    def test_duplicate_strategies_get_distinct_ids(self):
        pool = builtin_portfolio().strategies
        cfgs = [ZeroShotConfig(strategy=pool[0], hp={"n": i}) for i in range(3)]
        P = PerformanceTable(
            losses=np.array([[1.0, 9.0], [9.0, 1.0], [5.0, 5.0]]),
            configs=cfgs,
            dataset_ids=["d0", "d1"],
        )
        portfolio = selection_to_portfolio(P, select_portfolio_exact(P, 2))
        ids = [s.id for s in portfolio.strategies]
        assert len(set(ids)) == 2
        assert ids[0] == pool[0].id
        assert ids[1].startswith(pool[0].id + ".")
