"""Benchmark of the `automl` CLI: one workload per invocation.

    python3 perfbench/run.py --workload fit-multiclass --seed 0 --seconds 10 --trace 0

Run from the repository root. Inputs are generated from `--seed`; rounds
of the workload's CLI commands repeat, each in a fresh process, until
`--seconds` have passed (at least two rounds). The last line of standard
output is one JSON object: whether every check passed, the operations
attempted and failed, and the metrics: the end-to-end medians over rounds
with `--trace 0`, or the per-layer numbers of traced processes with
`--trace 1`. See README.md.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 2  # a serial job's outputs are compared between two rounds
# In a serial job, spans must account for this share of the traced wall time;
# the rest is interpreter start-up and glue between the traced calls.
MIN_ATTRIBUTED_SHARE = 0.9
CALL_TIMEOUT_S = 120

class CommandFailed(Exception):
    pass


@dataclass
class Call:
    wall: float
    setup_s: Optional[float]
    peak_rss_mb: float
    spans: Optional[list]


class Bench:
    """Runs CLI commands in fresh processes and keeps the run's tallies."""

    def __init__(self, root: Path, work: Path, trace: bool):
        self.work, self.trace = work, trace
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.traced: list[list] = []
        self.job_traces: list[tuple[list, float]] = []
        self.import_s: list[float] = []
        self._ids = itertools.count()
        pythonpath = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return bool(ok)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def _spawn(self, cmd: list[str]) -> float:
        self.attempted += 1
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.work, capture_output=True,
                                  text=True, timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.failed += 1
            raise CommandFailed(f"timed out after {CALL_TIMEOUT_S} s: {cmd[3:6]}")
        if proc.returncode != 0:
            self.failed += 1
            raise CommandFailed(f"exit {proc.returncode}: {cmd}\n{proc.stderr[-2000:]}")
        return started

    def automl(self, *args: str, job: bool = False, traced: Optional[bool] = None) -> Call:
        """Run one `automl` command in a fresh process; traced if the run is."""
        traced = self.trace if traced is None else traced
        n = next(self._ids)
        record_path = self.work / f"call{n}.json"
        cmd = [sys.executable, str(HERE / "launch.py"), str(record_path),
               "trace" if traced else "plain", f"{n}:{args[0]}", *args]
        started = self._spawn(cmd)
        wall = time.monotonic() - started
        record = json.loads(record_path.read_text(encoding="utf-8"))
        record_path.unlink()
        spans = record.get("spans")
        if spans is not None:
            self.traced.append(spans)
            if job:
                self.job_traces.append((spans, wall))
        tuner_call = record.get("tuner_call")
        return Call(wall=wall, setup_s=None if tuner_call is None else tuner_call - started,
                    peak_rss_mb=record["peak_rss_mb"], spans=spans)

    def warm_up(self) -> float:
        """Import the CLI in a bare process: fills bytecode and file caches; returns its wall time."""
        started = self._spawn([sys.executable, "-c", "import tabular_automl.orchestrator.cli"])
        return time.monotonic() - started


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    import tracing
    from workloads import WORKLOADS, medians

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    work = root / ".bench_work" / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(root, work, trace)
    samples: list[dict] = []
    try:
        workload = WORKLOADS[workload_name](bench, seed)
        workload.setup()
        # A failed set-up command ends the run above; from here on, only whole
        # rounds count, so `failed` is the same share of `attempted` in every run.
        bench.attempted = bench.failed = 0
        started = time.monotonic()
        while len(samples) < MIN_ROUNDS or time.monotonic() - started < seconds:
            samples.append(workload.round())
            if trace:
                bench.import_s.append(bench.warm_up())
    except CommandFailed as exc:
        bench.problems.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if not samples:
        raise SystemExit("perfbench: no round completed:\n" + "\n".join(bench.problems))

    if trace:
        values = tracing.layer_metrics(bench.traced, len(samples), bench.import_s)
        values["trace.job_wall_s"] = statistics.median(w for _, w in bench.job_traces)
        share = values["trace.attributed_share"] = statistics.median(
            tracing.attributed_share(spans, wall) for spans, wall in bench.job_traces)
        if workload.parallelism == 1:
            bench.check(share >= MIN_ATTRIBUTED_SHARE,
                        f"traced layers cover {share:.1%} of the job's wall time, "
                        f"below {MIN_ATTRIBUTED_SHARE:.0%}")
    else:
        values = medians(samples)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tabular_automl" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/tabular_automl is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
