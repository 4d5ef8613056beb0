"""Run a fixed set of seeded `automl` commands from one source tree, or compare two runs.

    python3 scripts/diff_outputs.py SRC OUT
    python3 scripts/diff_outputs.py --compare A B

The first form writes into OUT (which must not exist) with SRC, a checkout's
`src/` directory, first on PYTHONPATH and BLAS pinned to one thread:

- the synthetic inputs (`data/`): `make_regression_csv` (300 rows, seed 17),
  `make_multiclass_csv` (240 rows, seed 2), `make_imbalanced_csv` (1 000 rows,
  seed 1) and a 100 000-row `make_imbalanced_csv` (seed 5);
- one job directory per command: `fit`, `rerun` of its candidates, `rerun`
  of a hand-edited copy of them (a comment and a blank line added to every
  section, `[resources]` moved after `[provenance]`, and the `n_trees` range
  of `baseline_gbt` narrowed to `int(10, 60)`), a GP-EI
  `rerun` of its `linear_*` definitions, `analyze`, `generate`, two `analyze`
  runs with a `--problem-type` the target cannot take, a multiclass `fit`,
  the same `fit` at `--parallelism 2` (forked trials, whose GBT class
  chains may be boosted in borrowed slots), a one-trial `rerun` of `baseline_gbt` on the 1 000-row table, `predict`
  with the best model of each fit, and `analyze` and
  `predict` (with the `imb_fit` and the `baseline_gbt` models) on the
  100 000-row table;
- a three-dataset `bench` (regression, multiclass and the 1 000-row binary
  table), so the test-fold labels of a classification dataset are encoded
  and scored, and the baseline is trained with class weights;
- a `zeroshot` over the regression and multiclass tables with 7 configs, plus
  the 1 000-row binary table twice: as it is (imbalanced, so its cells are
  trained with class weights) and with a `"problem_type": "regression"`
  override;
- a `fit --config` on the regression table, whose file sets `input`,
  `target`, `output_dir`, `problem_type`, `budget`, `seed`,
  `valid_fraction`, `portfolio_path` (the `zeroshot` step's portfolio) and
  a `max_runtime` of 600 s, so the P = 1 path with a deadline set runs too;
- `<step>.log` per command: its exit code, stdout and stderr.

Commands run inside OUT on relative paths, and the logs name SRC as `<src>`
without line numbers, so runs from two checkouts can be compared file by file.

The second form compares A and B file by file. It prints a `diff` of every
pair that differs in bytes; for a `.json` pair it prints instead whether both
parse to the same value (a re-encoding such as compact model files shows as
"same value"). Every `report.json` is compared with its `timings` values
removed (the keys must match). It exits 0 only when no file differs in bytes,
whatever the parsed values.
"""
from __future__ import annotations

import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

TUNE = ["--parallelism", "1"]


def _job(cmd, data, target, out, *extra):
    return [cmd, "--input", f"data/{data}", "--target", target, "--output-dir", out, *extra]


def _hand_edited(text: str) -> str:
    """A definition file as a person might edit it, with the same meaning:
    each section gets a comment and a blank line, and `[resources]` moves to
    the end of the file."""
    text, provenance = text.rstrip("\n").split("\n\n[provenance]\n")
    text, resources = text.split("\n\n[resources]\n")
    text += f"\n\n[provenance]\n{provenance}\n\n[resources]\n{resources}\n"
    return re.sub(r"^(\[[a-z]+\])$", r"\1\n  # edited by hand\n", text, flags=re.M)


def _steps(out: Path):
    """(name, argv) pairs in run order; later steps read the jobs earlier ones wrote."""
    yield "reg_fit", _job("fit", "regression.csv", "response", "reg_fit",
                          "--budget", "12", "--seed", "3", *TUNE)
    yield "reg_rerun", _job("rerun", "regression.csv", "response", "reg_rerun",
                            "--definitions", "reg_fit/candidates",
                            "--budget", "12", "--seed", "3", *TUNE)
    edited = out / "data" / "edited_defs"
    edited.mkdir()
    for path in sorted((out / "reg_fit" / "candidates").glob("*.pipeline")):
        text = _hand_edited(path.read_text(encoding="utf-8"))
        if path.name == "baseline_gbt.pipeline":
            text = text.replace("n_trees = int(10, 300)", "n_trees = int(10, 60)")
        (edited / path.name).write_text(text, encoding="utf-8")
    yield "reg_edited_rerun", _job("rerun", "regression.csv", "response", "reg_edited_rerun",
                                   "--definitions", "data/edited_defs",
                                   "--budget", "12", "--seed", "3", *TUNE)
    linear = out / "data" / "linear_defs"
    linear.mkdir()
    for path in sorted((out / "reg_fit" / "candidates").glob("linear_*")):
        shutil.copy(path, linear / path.name)
    yield "reg_bo", _job("rerun", "regression.csv", "response", "reg_bo",
                         "--definitions", "data/linear_defs", "--budget", "20", "--seed", "5",
                         *TUNE)
    yield "reg_analyze", _job("analyze", "regression.csv", "response", "reg_analyze")
    yield "reg_generate", _job("generate", "regression.csv", "response", "reg_generate")
    for kind in ("binary_classification", "multiclass_classification"):
        yield f"reg_as_{kind}", _job("analyze", "regression.csv", "response", f"reg_as_{kind}",
                                     "--problem-type", kind)
    yield "mc_fit", _job("fit", "multiclass.csv", "stage", "mc_fit",
                         "--budget", "8", "--seed", "1", *TUNE)
    yield "mc_fit_par2", _job("fit", "multiclass.csv", "stage", "mc_fit_par2",
                              "--budget", "8", "--seed", "1", "--parallelism", "2")
    yield "mc_analyze", _job("analyze", "multiclass.csv", "stage", "mc_analyze")
    yield "mc_generate", _job("generate", "multiclass.csv", "stage", "mc_generate")
    yield "imb_fit", _job("fit", "imbalanced.csv", "churned", "imb_fit",
                          "--budget", "10", "--seed", "3", *TUNE)
    # One baseline_gbt trial (its first seed point: 100 trees of depth 6), so
    # the 100 000-row scoring always runs trees, standardize, one-hot and tf-idf.
    gbt = out / "data" / "gbt_defs"
    gbt.mkdir()
    shutil.copy(out / "imb_fit" / "candidates" / "baseline_gbt.pipeline", gbt)
    yield "imb_gbt", _job("rerun", "imbalanced.csv", "churned", "imb_gbt",
                          "--definitions", "data/gbt_defs", "--budget", "1", "--seed", "3", *TUNE)
    for job, data in (("reg_fit", "regression.csv"), ("reg_bo", "regression.csv"),
                      ("mc_fit", "multiclass.csv"), ("imb_fit", "large.csv"),
                      ("imb_gbt", "large.csv")):
        report = json.loads((out / job / "report" / "report.json").read_text(encoding="utf-8"))
        yield f"{job}_predict", ["predict", "--model", f"{job}/{report['best']['model']}",
                                 "--input", f"data/{data}", "--output", f"{job}_predict.csv"]
    yield "bench", ["bench", "--config", "data/bench.json"]
    yield "zeroshot", ["zeroshot", "--config", "data/zeroshot.json"]
    yield "reg_config_fit", ["fit", "--config", "data/fit_config.json", *TUNE]
    yield "large_analyze", _job("analyze", "large.csv", "churned", "large_analyze", "--seed", "3")


def _write_data(out: Path, env: dict) -> None:
    (out / "data").mkdir(parents=True)
    code = (
        "from tabular_automl import synth\n"
        "synth.make_regression_csv('data/regression.csv', n_rows=300, seed=17)\n"
        "synth.make_multiclass_csv('data/multiclass.csv', n_rows=240, seed=2)\n"
        "synth.make_imbalanced_csv('data/imbalanced.csv', n_rows=1000, seed=1)\n"
        "synth.make_imbalanced_csv('data/large.csv', n_rows=100000, seed=5)\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=out, env=env, check=True)
    regression = {"id": "regression", "path": "data/regression.csv", "target": "response"}
    multiclass = {"id": "multiclass", "path": "data/multiclass.csv", "target": "stage"}
    churn = {"id": "churn", "path": "data/imbalanced.csv", "target": "churned"}
    bench = {
        "datasets": [regression, multiclass, churn],
        "output_dir": "bench",
        "budget": 10,
        "seed": 3,
        "parallelism": 1,
    }
    # The binary 0/1 target with a regression override must be scored as regression.
    churn_as_regression = dict(churn, id="churn_as_regression", problem_type="regression")
    zeroshot = {
        "datasets": [regression, multiclass, churn, churn_as_regression],
        "output_dir": "zeroshot",
        "k": 3,
        "max_configs": 7,
        "seed": 3,
    }
    fit_config = {
        "input": "data/regression.csv",
        "target": "response",
        "output_dir": "reg_config_fit",
        "problem_type": "regression",
        "budget": 8,
        "seed": 2,
        "valid_fraction": 0.25,
        "portfolio_path": "zeroshot/portfolio.json",
        "max_runtime": 600,
    }
    for name, manifest in (("bench", bench), ("zeroshot", zeroshot), ("fit_config", fit_config)):
        (out / "data" / f"{name}.json").write_text(json.dumps(manifest, indent=1),
                                                   encoding="utf-8")


def run(src: Path, out: Path) -> int:
    src, out = src.resolve(), out.resolve()
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    _write_data(out, env)
    src_at_line = re.compile(re.escape(str(src)) + r"(/[^:\s]*\.py):\d+")
    for name, argv in _steps(out):
        proc = subprocess.run(
            [sys.executable, "-m", "tabular_automl.orchestrator.cli", *argv],
            cwd=out, env=env, capture_output=True, text=True,
        )
        logs = "\n".join([f"exit={proc.returncode}", "--- stdout", proc.stdout,
                          "--- stderr", proc.stderr])
        logs = src_at_line.sub(r"<src>\1", logs).replace(str(src), "<src>")
        (out / f"{name}.log").write_text(logs, encoding="utf-8")
        print(f"{name}: exit {proc.returncode}")
    return 0


def _without_timing_values(path: Path) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["timings"] = sorted(doc.get("timings", {}))
    return doc


def _same_value(x: Path, y: Path) -> bool:
    try:
        return json.loads(x.read_bytes()) == json.loads(y.read_bytes())
    except ValueError:
        return False


def compare(a: Path, b: Path) -> int:
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    for rel in sorted(files_a ^ files_b):
        print(f"only in {a if rel in files_a else b}: {rel}")
    differs, same_value = bool(files_a ^ files_b), 0
    for rel in sorted(files_a & files_b):
        if rel.name == "report.json":
            if _without_timing_values(a / rel) != _without_timing_values(b / rel):
                print(f"{rel} differs outside its timing values")
                differs = True
        elif not filecmp.cmp(a / rel, b / rel, shallow=False):
            differs = True
            if rel.suffix != ".json":
                print(f"diff {rel}", flush=True)
                subprocess.run(["diff", str(a / rel), str(b / rel)])
            elif _same_value(a / rel, b / rel):
                same_value += 1
                print(f"{rel} differs in bytes, same value")
            else:
                print(f"{rel} differs in bytes, DIFFERENT value or does not parse")
    n_reports = sum(1 for rel in files_a if rel.name == "report.json")
    print(f"{len(files_a)} files, {n_reports} report.json: {'DIFFER' if differs else 'identical'}"
          f" ({same_value} .json differ in bytes only)")
    return 1 if differs else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) == 2 and not argv[0].startswith("-"):
        return run(Path(argv[0]), Path(argv[1]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
