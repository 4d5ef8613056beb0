import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from tabular_automl import data_core, learners
from tabular_automl.data_core import profile_column
from tabular_automl.errors import WrongProblemType
from tabular_automl.orchestrator import JobConfig, JobReport, bench, job, run_fit, run_rerun
from tabular_automl.orchestrator.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    _build_parser,
    _merged_job_config,
    main,
)
from tabular_automl.synth import make_multiclass_csv


@pytest.fixture(scope="module")
def multiclass_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "stages.csv"
    make_multiclass_csv(path, n_rows=240, seed=2)
    return path


@pytest.fixture(scope="module")
def int_target_csv(tmp_path_factory):
    """200 rows whose integer target 1-4 is inferred as four classes."""
    path = tmp_path_factory.mktemp("data") / "levels.csv"
    rng = np.random.default_rng(4)
    x, noise = rng.normal(size=200), rng.normal(size=200)
    rows = [f"{a:.4f},{b:.4f},{int(np.clip(round(a + 2.5), 1, 4))}" for a, b in zip(x, noise)]
    path.write_text("\n".join(["x,noise,level"] + rows) + "\n")
    return str(path)


def _scored_problem_kinds(monkeypatch) -> list:
    """The problem kind of every `learners.evaluate` call made from now on."""
    kinds = []
    evaluate = learners.evaluate

    def spy(predictions, y, problem):
        kinds.append(problem.kind)
        return evaluate(predictions, y, problem)

    monkeypatch.setattr(learners, "evaluate", spy)
    return kinds


@pytest.fixture(scope="module")
def fit_job(tmp_path_factory, small_regression_csv):
    """One completed fit shared by the artifact-inspection tests."""
    out = tmp_path_factory.mktemp("job") / "fit"
    code = main(
        [
            "fit",
            "--input", str(small_regression_csv),
            "--target", "response",
            "--output-dir", str(out),
            "--budget", "10",
            "--parallelism", "1",
            "--seed", "3",
        ]
    )
    assert code == EXIT_OK
    return out


class TestExitCodes:
    def test_no_command_is_usage(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag_is_usage(self):
        assert main(["fit", "--frobnicate"]) == EXIT_USAGE

    def test_missing_required_inputs_is_usage(self, capsys):
        assert main(["fit"]) == EXIT_USAGE
        assert "--input is required" in capsys.readouterr().err

    def test_help_exits_clean(self):
        assert main(["--help"]) == EXIT_OK

    def test_unreadable_input_fails(self, tmp_path, capsys):
        code = main(
            [
                "fit",
                "--input", str(tmp_path / "missing.csv"),
                "--target", "y",
                "--output-dir", str(tmp_path / "job"),
            ]
        )
        assert code == EXIT_FAILURE
        assert "status=failed" in capsys.readouterr().err


class TestAnalyze:
    def test_writes_report_without_training(self, tmp_path, small_regression_csv, capsys):
        out = tmp_path / "job"
        code = main(
            [
                "analyze",
                "--input", str(small_regression_csv),
                "--target", "response",
                "--output-dir", str(out),
            ]
        )
        assert code == EXIT_OK
        assert "status=generated_only" in capsys.readouterr().out
        report = json.loads((out / "report" / "report.json").read_text())
        assert report["status"] == "generated_only"
        assert report["problem_kind"] == "regression"
        assert report["trials_issued"] == 0
        assert report["n_rows"] > 0
        assert (out / "report" / "report.md").exists()
        assert not list((out / "models").glob("*.json"))
        assert not list((out / "folds").iterdir())
        assert not list((out / "candidates").iterdir())

    def test_feature_spread_past_float_cube_range_is_profiled(self, tmp_path, capsys):
        # std_dev**3 of this column overflows a float; analysis must still finish.
        rows = ["big,small,y"] + [f"{(i * 7 % 40) * 2.5e102!r},{i % 3},{i % 2}" for i in range(40)]
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["analyze", "--input", str(path), "--target", "y",
                         "--output-dir", str(tmp_path / "job")])
        assert code == EXIT_OK
        assert "status=generated_only" in capsys.readouterr().out
        assert caught == []

    def test_impossible_override_fails(self, tmp_path, small_regression_csv):
        code = main(
            [
                "analyze",
                "--input", str(small_regression_csv),
                "--target", "response",
                "--output-dir", str(tmp_path / "job"),
                "--problem-type", "binary_classification",
            ]
        )
        assert code == EXIT_FAILURE
        report = json.loads((tmp_path / "job" / "report" / "report.json").read_text())
        assert report["status"] == "failed"
        assert "WrongProblemType" in report["message"]

    def test_classification_override_without_a_valid_fold_fails_cleanly(
        self, tmp_path, small_regression_csv, capsys
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                [
                    "analyze",
                    "--input", str(small_regression_csv),
                    "--target", "response",
                    "--output-dir", str(tmp_path / "job"),
                    "--problem-type", "multiclass_classification",
                ]
            )
        assert code == EXIT_FAILURE
        report = json.loads((tmp_path / "job" / "report" / "report.json").read_text())
        assert report["message"] == (
            "WrongProblemType: multiclass_classification: the target has 300 distinct values"
            " in 300 rows, and no class has enough rows for the valid fold"
        )
        assert caught == []
        assert "Warning" not in capsys.readouterr().err

    def test_inferred_classification_without_a_valid_fold_fails(self):
        # 12 distinct labels of 2 rows each: a class needs 3 rows to put one in a 0.2 fold
        cells = [[str(i), f"id{i // 2}"] for i in range(24)]
        t = data_core.RawTable(["x", "y"], cells, 1)
        with pytest.raises(WrongProblemType, match="12 distinct values in 24 rows"):
            job.analyze_table(t, seed=0, valid_fraction=0.2)
        assert job.analyze_table(t, seed=0, valid_fraction=0.5).valid.n_rows == 12

    def test_profiles_each_feature_column_once(self, monkeypatch, small_regression_csv):
        calls = []

        def counting(values):
            calls.append(len(values))
            return profile_column(values)

        monkeypatch.setattr(job, "profile_column", counting)
        monkeypatch.setattr(data_core, "profile_column", counting)
        t = data_core.load_csv(small_regression_csv, "response")
        job.analyze_table(t, seed=0, valid_fraction=0.2)
        assert len(calls) == len(t.feature_indices())


class TestGenerate:
    def test_definitions_and_folds(self, tmp_path, small_regression_csv):
        out = tmp_path / "job"
        code = main(
            [
                "generate",
                "--input", str(small_regression_csv),
                "--target", "response",
                "--output-dir", str(out),
            ]
        )
        assert code == EXIT_OK
        written = sorted(p.name for p in (out / "candidates").glob("*.pipeline"))
        report = json.loads((out / "report" / "report.json").read_text())
        assert sorted(report["candidates"]) == written
        assert len(written) >= 2
        assert (out / "folds" / "train.csv").exists()
        assert (out / "folds" / "valid.csv").exists()
        assert report["trials_issued"] == 0

    def test_definition_files_are_editable_text(self, tmp_path, small_regression_csv):
        out = tmp_path / "job"
        main(
            [
                "generate",
                "--input", str(small_regression_csv),
                "--target", "response",
                "--output-dir", str(out),
            ]
        )
        text = next((out / "candidates").glob("*.pipeline")).read_text()
        assert text.startswith("# pipeline definition v1")
        for section in ("[pipeline]", "[transformers]", "[algorithm]", "[tunables]", "[seeds]"):
            assert section in text


class TestPortfolioReadFirst:
    @pytest.mark.parametrize("command", ["generate", "fit"])
    def test_bad_rule_fails_the_job_before_any_fold_is_written(
        self, tmp_path, small_regression_csv, command
    ):
        from tabular_automl.strategy import builtin_portfolio
        from tabular_automl.strategy.core import strategy_to_dict

        strategies = [strategy_to_dict(s) for s in builtin_portfolio().strategies
                      if s.id in ("baseline_gbt", "gbt_binned")]
        strategies[1]["rules"][0]["action"]["kind"] = "quantile_bn"
        portfolio = tmp_path / "portfolio.json"
        portfolio.write_text(json.dumps({"metadata": {}, "strategies": strategies}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"portfolio_path": str(portfolio)}))
        out = tmp_path / "out"
        code = main([command, "--input", small_regression_csv, "--target", "response",
                     "--output-dir", str(out), "--budget", "8", "--config", str(cfg)])
        assert code == EXIT_FAILURE
        report = json.loads((out / "report" / "report.json").read_text())
        assert report["status"] == "failed"
        assert report["message"].startswith("ValueError: strategy 'gbt_binned': ")
        assert "'quantile_bn'" in report["message"]
        assert report["problem_kind"] is None
        assert list((out / "folds").iterdir()) == []
        assert list((out / "candidates").iterdir()) == []


class TestFitArtifacts:
    def test_budget_respected_and_best_recorded(self, fit_job):
        report = json.loads((fit_job / "report" / "report.json").read_text())
        assert report["status"] == "completed"
        assert report["trials_issued"] == 10
        assert 0 < report["trials_finished"] <= 10
        best = report["best"]
        assert (fit_job / best["model"]).exists()
        assert (fit_job / best["preprocessor"]).exists()

    def test_trial_log_is_json_lines(self, fit_job):
        lines = (fit_job / "trials.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        suggested = [e for e in events if e["event"] == "suggested"]
        assert len(suggested) == 10
        assert {e["event"] for e in events} <= {"suggested", "running", "finished", "failed"}
        assert all("wall_clock" not in e and "time" not in e for e in events)

    def test_leaderboard_sorted(self, fit_job):
        doc = json.loads((fit_job / "leaderboard.json").read_text())
        losses = [e["loss"] for e in doc["entries"]]
        assert losses == sorted(losses)
        assert [e["rank"] for e in doc["entries"]] == list(range(1, len(losses) + 1))

    def test_transformed_folds_written_per_pipeline(self, fit_job):
        report = json.loads((fit_job / "report" / "report.json").read_text())
        pid = report["best"]["pipeline"]
        assert (fit_job / "transformed" / pid / "train.csv").exists()
        assert (fit_job / "transformed" / pid / "valid.csv").exists()


class TestArtifactFormat:
    """Models are one line of compact sorted-key JSON; documents people read
    stay indented; a seed fixes every byte."""

    def test_models_are_compact_single_lines(self, fit_job):
        paths = sorted((fit_job / "models").glob("trial_*.json"))
        assert paths
        for path in paths:
            text = path.read_text(encoding="utf-8")
            doc = json.loads(text)
            assert text == json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"

    def test_documents_stay_indented(self, fit_job):
        paths = [fit_job / "leaderboard.json", fit_job / "report" / "report.json"]
        paths += sorted((fit_job / "models").glob("*.preprocessor.json"))
        assert len(paths) > 2
        for path in paths:
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_same_seed_gives_byte_identical_models(self, fit_job, small_regression_csv, tmp_path):
        out = tmp_path / "again"
        code = main(
            [
                "fit",
                "--input", str(small_regression_csv),
                "--target", "response",
                "--output-dir", str(out),
                "--budget", "10",
                "--parallelism", "1",
                "--seed", "3",
            ]
        )
        assert code == EXIT_OK
        names = sorted(p.name for p in (fit_job / "models").iterdir())
        assert sorted(p.name for p in (out / "models").iterdir()) == names
        for name in names:
            assert (out / "models" / name).read_bytes() == (
                fit_job / "models" / name
            ).read_bytes()


class TestConfigMerging:
    def test_flag_beats_config_file(self, tmp_path, small_regression_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "input": str(small_regression_csv),
                    "target": "response",
                    "budget": 11,
                    "parallelism": 1,
                    "seed": 3,
                }
            )
        )
        out = tmp_path / "job"
        code = main(
            ["fit", "--config", str(cfg), "--output-dir", str(out), "--budget", "10"]
        )
        assert code == EXIT_OK
        report = json.loads((out / "report" / "report.json").read_text())
        assert report["trials_issued"] == 10

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"buget": 10}))
        assert main(["fit", "--config", str(cfg)]) == EXIT_USAGE
        assert "buget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("budget", "10"),
            ("parallelism", True),
            ("seed", 1.5),
            ("epsilon", "0.1"),
            ("max_runtime", [5]),
            ("target", 3),
            ("problem_type", False),
        ],
    )
    def test_wrong_typed_config_value_fails_before_any_phase(
        self, tmp_path, small_regression_csv, capsys, key, value
    ):
        cfg = tmp_path / "cfg.json"
        doc = {
            "input": small_regression_csv,
            "target": "response",
            "output_dir": str(tmp_path / "job"),
            key: value,
        }
        cfg.write_text(json.dumps(doc))
        assert main(["fit", "--config", str(cfg)]) == EXIT_USAGE
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "job" / "folds").exists()
        assert not (tmp_path / "job" / "candidates").exists()

    def test_null_and_int_accepted_where_the_field_allows(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "input": "in.csv",
                    "target": "y",
                    "output_dir": "job",
                    "max_runtime": None,
                    "problem_type": None,
                    "epsilon": 0,
                }
            )
        )
        args = _build_parser().parse_args(["fit", "--config", str(cfg)])
        assert _merged_job_config(args) == JobConfig(
            input_path="in.csv", target="y", output_dir="job", epsilon=0
        )

    def test_required_flags_alone_give_job_config_defaults(self):
        args = _build_parser().parse_args(
            ["fit", "--input", "in.csv", "--target", "y", "--output-dir", "job"]
        )
        assert _merged_job_config(args) == JobConfig(
            input_path="in.csv", target="y", output_dir="job"
        )

    def test_every_job_config_field_is_a_config_key(self, tmp_path):
        keys = {
            "input": "in.csv",
            "target": "y",
            "output_dir": "job",
            "problem_type": "regression",
            "budget": 7,
            "epsilon": 0.2,
            "parallelism": 2,
            "seed": 4,
            "max_runtime": 9.5,
            "valid_fraction": 0.3,
            "portfolio_path": "p.json",
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(keys))
        args = _build_parser().parse_args(["fit", "--config", str(cfg)])
        assert _merged_job_config(args) == JobConfig(
            input_path="in.csv",
            target="y",
            output_dir="job",
            problem_override="regression",
            budget=7,
            epsilon=0.2,
            parallelism=2,
            seed=4,
            max_runtime=9.5,
            valid_fraction=0.3,
            portfolio_path="p.json",
        )


class TestPredict:
    def _features_only(self, src: Path, dst: Path, target: str):
        lines = src.read_text().splitlines()
        header = lines[0].split(",")
        keep = [i for i, name in enumerate(header) if name != target]
        with open(dst, "w", encoding="utf-8") as f:
            for line in lines:
                cells = line.split(",")
                f.write(",".join(cells[i] for i in keep) + "\n")
        return len(lines) - 1

    def test_regression_round_trip(self, fit_job, tmp_path):
        new_rows = tmp_path / "new.csv"
        n = self._features_only(fit_job / "folds" / "valid.csv", new_rows, "response")
        report = json.loads((fit_job / "report" / "report.json").read_text())
        out = tmp_path / "preds.csv"
        code = main(
            [
                "predict",
                "--model", str(fit_job / report["best"]["model"]),
                "--input", str(new_rows),
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "prediction"
        assert len(lines) == n + 1
        [float(v) for v in lines[1:]]  # all parse

    def test_classification_emits_per_class_probabilities(self, tmp_path, multiclass_csv):
        out = tmp_path / "job"
        code = main(
            [
                "fit",
                "--input", str(multiclass_csv),
                "--target", "stage",
                "--output-dir", str(out),
                "--budget", "10",
                "--parallelism", "1",
                "--seed", "5",
            ]
        )
        assert code == EXIT_OK
        report = json.loads((out / "report" / "report.json").read_text())
        new_rows = tmp_path / "new.csv"
        n = self._features_only(out / "folds" / "valid.csv", new_rows, "stage")
        preds = tmp_path / "preds.csv"
        code = main(
            [
                "predict",
                "--model", str(out / report["best"]["model"]),
                "--input", str(new_rows),
                "--output", str(preds),
            ]
        )
        assert code == EXIT_OK
        lines = preds.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "prediction"
        assert all(h.startswith("p_") for h in header[1:])
        assert len(header) == 1 + report["n_classes"]
        assert len(lines) == n + 1
        first = lines[1].split(",")
        probs = [float(v) for v in first[1:]]
        assert sum(probs) == pytest.approx(1.0)
        assert f"p_{first[0]}" in header


class TestParallelFit:
    def test_two_workers_rank_as_the_serial_fit_does(self, tmp_path, multiclass_csv):
        from tabular_automl.strategy import StrategyPortfolio, builtin_portfolio
        from tabular_automl.zeroshot import save_portfolio

        cheap = {"gbt_fast_shallow", "linear_standard"}
        portfolio = tmp_path / "portfolio.json"
        save_portfolio(
            StrategyPortfolio(
                strategies=[s for s in builtin_portfolio().strategies if s.id in cheap],
                metadata={},
            ),
            portfolio,
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"portfolio_path": str(portfolio)}))
        runs = []
        for p in ("1", "2", "2"):
            out = tmp_path / f"run{len(runs)}"
            code = main(
                [
                    "fit",
                    "--input", str(multiclass_csv),
                    "--target", "stage",
                    "--output-dir", str(out),
                    "--budget", "6",
                    "--parallelism", p,
                    "--seed", "5",
                    "--config", str(config),
                ]
            )
            assert code == EXIT_OK
            files = ["leaderboard.json"] + sorted(f"models/{m.name}" for m in (out / "models").iterdir())
            runs.append({f: (out / f).read_bytes() for f in files + ["trials.jsonl"]})
        assert len(json.loads(runs[0]["leaderboard.json"])["entries"]) == 6
        serial, par, par_again = runs
        # Class chains boosted in borrowed slots leave every model byte as it was.
        assert {f: b for f, b in par.items() if f != "trials.jsonl"} == {
            f: b for f, b in serial.items() if f != "trials.jsonl"}
        assert par_again == par


class TestRerun:
    def test_verbatim_rerun_reproduces_the_run(self, fit_job, small_regression_csv, tmp_path):
        out = tmp_path / "again"
        code = main(
            [
                "rerun",
                "--definitions", str(fit_job / "candidates"),
                "--input", str(small_regression_csv),
                "--target", "response",
                "--output-dir", str(out),
                "--budget", "10",
                "--parallelism", "1",
                "--seed", "3",
            ]
        )
        assert code == EXIT_OK
        assert (out / "trials.jsonl").read_bytes() == (fit_job / "trials.jsonl").read_bytes()
        assert (out / "leaderboard.json").read_bytes() == (
            fit_job / "leaderboard.json"
        ).read_bytes()

    def test_invalid_edit_reported_with_location(self, tmp_path, small_regression_csv):
        gen = tmp_path / "gen"
        main(
            [
                "generate",
                "--input", str(small_regression_csv),
                "--target", "response",
                "--output-dir", str(gen),
            ]
        )
        victim = sorted((gen / "candidates").glob("*.pipeline"))[0]
        text = victim.read_text()
        victim.write_text(text.replace("n_trees = int(10, 300)", "n_trees = int(300, 10)"))
        cfg = JobConfig(
            input_path=str(small_regression_csv),
            target="response",
            output_dir=str(tmp_path / "rerun"),
            budget=10,
            parallelism=1,
        )
        report = run_rerun(cfg, gen / "candidates")
        assert report.status == "failed"
        assert victim.name in report.message
        line_no = text.splitlines().index("n_trees = int(10, 300)") + 1
        assert f":{line_no}:" in report.message

    def test_missing_definitions_fail_before_analysis(self, tmp_path, small_regression_csv):
        out = tmp_path / "rerun"
        cfg = JobConfig(input_path=str(small_regression_csv), target="response", output_dir=str(out))
        report = run_rerun(cfg, tmp_path / "no_such_candidates")
        assert report.status == "failed"
        assert report.message.startswith("FileNotFoundError: ")
        assert report.problem_kind is None
        assert "## Data" not in (out / "report" / "report.md").read_text()
        assert not list((out / "folds").iterdir())


class TestWallClock:
    def test_partial_results_still_complete(self, small_regression_csv, tmp_path):
        cfg = JobConfig(
            input_path=str(small_regression_csv),
            target="response",
            output_dir=str(tmp_path / "job"),
            budget=250,
            parallelism=1,
            seed=0,
            max_runtime=1.5,
        )
        report = run_fit(cfg)
        assert report.status == "completed"
        assert 1 <= report.trials_finished < 250
        assert report.best is not None


class TestZeroShotCommand:
    def test_builds_table_and_portfolio(self, tmp_path, small_regression_csv, capsys):
        manifest = tmp_path / "manifest.json"
        out = tmp_path / "zs"
        manifest.write_text(
            json.dumps(
                {
                    "datasets": [
                        {
                            "id": "reg_small",
                            "path": str(small_regression_csv),
                            "target": "response",
                        }
                    ],
                    "output_dir": str(out),
                    "k": 2,
                    "solver": "exact",
                    "max_configs": 6,
                    "seed": 0,
                }
            )
        )
        assert main(["zeroshot", "--config", str(manifest)]) == EXIT_OK
        assert "portfolio k=2" in capsys.readouterr().out
        assert (out / "performance_table.csv").exists()
        assert (out / "performance_table.json").exists()
        portfolio = json.loads((out / "portfolio.json").read_text())
        assert len(portfolio["strategies"]) == 2
        assert portfolio["metadata"]["source"] == "zeroshot"

    def test_manifest_validation(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"datasets": []}))
        assert main(["zeroshot", "--config", str(manifest)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "top, entry",
        [
            ({"solvr": "exact"}, {}),
            ({}, {"problem": "regression"}),
            ({"k": 2.5}, {}),
            ({"max_configs": "3"}, {}),
            ({"seed": True}, {}),
            ({}, {"target": 7}),
        ],
        ids=["unknown_key", "unknown_entry_key", "float_k", "str_max_configs", "bool_seed",
             "int_target"],
    )
    def test_unknown_or_wrong_typed_manifest_key_is_usage_error(
        self, tmp_path, small_regression_csv, capsys, top, entry
    ):
        out = tmp_path / "zs"
        dataset = {"id": "reg_small", "path": small_regression_csv, "target": "response"}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {"datasets": [dict(dataset, **entry)], "output_dir": str(out), "max_configs": 1}
                | top
            )
        )
        assert main(["zeroshot", "--config", str(manifest)]) == EXIT_USAGE
        (key,) = top | entry
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bounds",
        [{"k": 0}, {"k": 60}, {"max_configs": 0}, {"max_configs": -6},
         {"k": 3, "max_configs": 2}],
        ids=["k_0", "k_past_pool", "max_configs_0", "max_configs_negative", "k_past_cut"],
    )
    def test_out_of_range_k_or_max_configs_is_usage_error_before_any_read(
        self, tmp_path, capsys, bounds
    ):
        # The dataset does not exist: reading it first would exit 2, not 1.
        out = tmp_path / "zs"
        dataset = {"id": "missing", "path": str(tmp_path / "missing.csv"), "target": "y"}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"datasets": [dataset], "output_dir": str(out)} | bounds))
        assert main(["zeroshot", "--config", str(manifest)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "k must be in [1, " in err or "max_configs must be at least 1" in err
        assert not out.exists()

    def test_problem_type_override_is_scored_as_fit_would(
        self, tmp_path, int_target_csv, monkeypatch
    ):
        kinds = _scored_problem_kinds(monkeypatch)
        manifest = tmp_path / "manifest.json"
        dataset = {
            "id": "levels",
            "path": int_target_csv,
            "target": "level",
            "problem_type": "regression",
        }
        manifest.write_text(
            json.dumps(
                {"datasets": [dataset], "output_dir": str(tmp_path / "zs"), "k": 1, "max_configs": 2}
            )
        )
        assert main(["zeroshot", "--config", str(manifest)]) == EXIT_OK
        assert kinds == ["regression", "regression"]


class TestBenchCommand:
    def test_single_dataset_bench(self, tmp_path, small_regression_csv, capsys):
        manifest = tmp_path / "bench.json"
        out = tmp_path / "bench"
        manifest.write_text(
            json.dumps(
                {
                    "datasets": [
                        {
                            "id": "reg_small",
                            "path": str(small_regression_csv),
                            "target": "response",
                        }
                    ],
                    "output_dir": str(out),
                    "budget": 10,
                    "parallelism": 1,
                    "seed": 0,
                }
            )
        )
        assert main(["bench", "--config", str(manifest)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "success_rate=1.00" in stdout
        doc = json.loads((out / "bench_report.json").read_text())
        assert doc["results"][0]["status"] == "completed"
        assert doc["results"][0]["dataset_id"] == "reg_small"

    def test_bad_portfolio_rule_fails_before_any_dataset_is_read(
        self, tmp_path, small_regression_csv, capsys
    ):
        from tabular_automl.strategy import builtin_portfolio
        from tabular_automl.strategy.core import strategy_to_dict

        strategies = [strategy_to_dict(s) for s in builtin_portfolio().strategies
                      if s.id in ("baseline_gbt", "gbt_binned")]
        strategies[1]["rules"][0]["action"]["kind"] = "quantile_bn"
        portfolio = tmp_path / "portfolio.json"
        portfolio.write_text(json.dumps({"metadata": {}, "strategies": strategies}))
        out = tmp_path / "bench"
        datasets = [{"id": name, "path": str(small_regression_csv), "target": "response"}
                    for name in ("a", "b")]
        manifest = tmp_path / "bench.json"
        manifest.write_text(json.dumps({"datasets": datasets, "output_dir": str(out),
                                        "budget": 8, "portfolio": str(portfolio)}))
        assert main(["bench", "--config", str(manifest)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "ValueError: strategy 'gbt_binned': " in err and "'quantile_bn'" in err
        assert not list(out.rglob("input.csv"))
        assert not (out / "bench_report.json").exists()

    def test_unknown_manifest_key_is_usage_error(self, tmp_path, small_regression_csv, capsys):
        manifest = tmp_path / "bench.json"
        out = tmp_path / "bench"
        manifest.write_text(
            json.dumps(
                {
                    "datasets": [
                        {"id": "reg_small", "path": str(small_regression_csv), "target": "response"}
                    ],
                    "output_dir": str(out),
                    "budegt": 10,
                }
            )
        )
        assert main(["bench", "--config", str(manifest)]) == EXIT_USAGE
        assert "budegt" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("budget", 2.9), ("seed", True), ("portfolio", 5)])
    def test_wrong_typed_manifest_value_is_usage_error(
        self, tmp_path, small_regression_csv, capsys, key, value
    ):
        manifest = tmp_path / "bench.json"
        out = tmp_path / "bench"
        dataset = {"id": "reg_small", "path": small_regression_csv, "target": "response"}
        doc = {"datasets": [dataset], "output_dir": str(out), "budget": 10, "parallelism": 1}
        manifest.write_text(json.dumps(doc | {key: value}))
        assert main(["bench", "--config", str(manifest)]) == EXIT_USAGE
        assert repr(key) in capsys.readouterr().err
        assert not (out / "jobs").exists()

    def test_problem_type_override_reaches_engine_and_baseline(
        self, tmp_path, int_target_csv, monkeypatch
    ):
        kinds = _scored_problem_kinds(monkeypatch)
        manifest = tmp_path / "bench.json"
        out = tmp_path / "bench"
        dataset = {
            "id": "levels",
            "path": int_target_csv,
            "target": "level",
            "problem_type": "regression",
        }
        manifest.write_text(
            json.dumps(
                {"datasets": [dataset], "output_dir": str(out), "budget": 10, "parallelism": 1}
            )
        )
        assert main(["bench", "--config", str(manifest)]) == EXIT_OK
        doc = json.loads((out / "bench_report.json").read_text())
        assert doc["results"][0]["loss_kind"] == "rmse"
        assert kinds and set(kinds) == {"regression"}

    def test_manifest_without_tuning_keys_uses_job_config_defaults(
        self, tmp_path, small_regression_csv, monkeypatch
    ):
        seen = []

        def fake_fit(cfg, portfolio):
            seen.append(cfg)
            return JobReport(status="failed", message="not run")

        monkeypatch.setattr(bench, "run_fit", fake_fit)
        manifest = tmp_path / "bench.json"
        out = tmp_path / "bench"
        manifest.write_text(
            json.dumps(
                {
                    "datasets": [
                        {"id": "reg_small", "path": str(small_regression_csv), "target": "response"}
                    ],
                    "output_dir": str(out),
                }
            )
        )
        assert main(["bench", "--config", str(manifest)]) == EXIT_FAILURE
        job_dir = out / "jobs" / "reg_small"
        assert seen == [
            JobConfig(
                input_path=str(job_dir / "input.csv"),
                target="response",
                output_dir=str(job_dir),
            )
        ]


_OUT_OF_RANGE = [("budget", 0), ("epsilon", 2), ("parallelism", 0), ("seed", -1),
                 ("max_runtime", 0), ("max_runtime", -5), ("valid_fraction", 0),
                 ("valid_fraction", 1.5)]


class TestInputsCheckedBeforeAnyRead:
    """A bad value or a bad file is a usage error in every JSON input, as the
    same value is as a flag, and nothing is read or written first."""

    @pytest.mark.parametrize(
        "how, key, value",
        [(how, key, value) for how in ("flag", "config", "bench") for key, value in _OUT_OF_RANGE
         if (how, key) != ("flag", "valid_fraction")]  # valid_fraction has no flag
        + [("zeroshot", key, value) for key, value in _OUT_OF_RANGE
           if key in ("seed", "valid_fraction")],
    )
    def test_out_of_range_value_is_usage_error(
        self, tmp_path, small_regression_csv, capsys, how, key, value
    ):
        out = tmp_path / "out"
        # A small budget keeps a run that wrongly goes ahead short.
        small = {"max_configs": 1, "k": 1} if how == "zeroshot" else {"budget": 8, "parallelism": 1}
        options = small | {key: value}
        dataset = {"id": "reg_small", "path": small_regression_csv, "target": "response"}
        if how == "flag":
            argv = ["fit", "--input", small_regression_csv, "--target", "response",
                    "--output-dir", str(out)]
            for k, v in options.items():
                argv += [f"--{k.replace('_', '-')}", str(v)]
        else:
            if how == "config":
                doc = {"input": small_regression_csv, "target": "response", "output_dir": str(out)}
            else:
                doc = {"datasets": [dataset], "output_dir": str(out)}
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc | options))
            argv = ["fit" if how == "config" else how, "--config", str(cfg)]
        assert main(argv) == EXIT_USAGE
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "zeroshot", "bench"])
    def test_unknown_problem_type_is_usage_error(
        self, tmp_path, small_regression_csv, capsys, command
    ):
        out = tmp_path / "out"
        if command == "fit":
            doc = {"input": small_regression_csv, "target": "response", "output_dir": str(out),
                   "problem_type": "regresion"}
        else:
            dataset = {"id": "reg_small", "path": small_regression_csv, "target": "response",
                       "problem_type": "regresion"}
            doc = {"datasets": [dataset], "output_dir": str(out)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'problem_type'" in err and "'regresion'" in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[1, 2]", "{bad"], ids=["not_an_object", "not_json"])
    @pytest.mark.parametrize("command", ["fit", "zeroshot", "bench"])
    def test_config_that_is_not_a_json_object_is_usage_error(
        self, tmp_path, small_regression_csv, capsys, command, text
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        flags = ["--input", small_regression_csv, "--target", "response",
                 "--output-dir", str(out)] if command == "fit" else []
        assert main([command, "--config", str(cfg), *flags]) == EXIT_USAGE
        assert str(cfg) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["zeroshot", "bench"])
    def test_repeated_dataset_id_is_usage_error(
        self, tmp_path, small_regression_csv, multiclass_csv, capsys, command
    ):
        out = tmp_path / "out"
        small = {"max_configs": 1, "k": 1} if command == "zeroshot" else {"budget": 8}
        datasets = [{"id": "x", "path": small_regression_csv, "target": "response"},
                    {"id": "x", "path": str(multiclass_csv), "target": "stage"}]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"datasets": datasets, "output_dir": str(out)} | small))
        assert main([command, "--config", str(cfg)]) == EXIT_USAGE
        assert "dataset ids must be unique" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dataset_id", ["../../escaped", "a/b", ".."])
    @pytest.mark.parametrize("command", ["zeroshot", "bench"])
    def test_dataset_id_that_is_not_a_plain_name_is_usage_error(
        self, tmp_path, small_regression_csv, capsys, command, dataset_id
    ):
        out = tmp_path / "bench" / "out"
        small = {"max_configs": 1, "k": 1} if command == "zeroshot" else {"budget": 8}
        datasets = [{"id": dataset_id, "path": small_regression_csv, "target": "response"}]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"datasets": datasets, "output_dir": str(out)} | small))
        assert main([command, "--config", str(cfg)]) == EXIT_USAGE
        assert f"dataset id {dataset_id!r} must be a plain file name" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "old, new",
        [("epochs = int(5, 100)", "epochs = int(5, inf)"),
         ("l2 = log_float(1e-06, 10.0)", "l2 = log_float(1e-06, inf)"),
         ("epochs = int(5, 100)", "epochs = int(5.5, 7.5)")],
        ids=["int_to_inf", "log_float_to_inf", "fractional_int"],
    )
    def test_tunable_bound_the_tuner_cannot_use_fails_rerun_at_parse(
        self, tmp_path, small_regression_csv, old, new
    ):
        gen = tmp_path / "gen"
        assert main(["generate", "--input", small_regression_csv, "--target", "response",
                     "--output-dir", str(gen)]) == EXIT_OK
        victim = gen / "candidates" / "linear_standard.pipeline"
        text = victim.read_text()
        assert old in text
        victim.write_text(text.replace(old, new))
        cfg = JobConfig(input_path=small_regression_csv, target="response",
                        output_dir=str(tmp_path / "rerun"), budget=8)
        report = run_rerun(cfg, gen / "candidates")
        assert report.status == "failed"
        assert report.message.startswith("ValidationError: ")
        line_no = text.splitlines().index(old) + 1
        assert f"{victim.name}:{line_no}: " in report.message
        assert report.problem_kind is None
