"""Run one `automl` CLI command in this process and record what it did.

    python3 perfbench/launch.py RECORD.json plain|trace RUN_ID automl-args...

The command runs through `tabular_automl.orchestrator.cli.main`, the same
entry point as the `automl` script. `plain` hooks one call only: the
monotonic time at which the job calls `tuner.run`, which ends set-up.
`trace` wraps every layer's public functions (see `tracing.py`). Either
way RECORD.json receives the exit code, the process's own peak resident
memory and, when traced, the spans.
"""
from __future__ import annotations

import json
import resource
import sys
import time


def peak_rss_mb() -> float:
    """High-water resident memory of this process image.

    VmHWM covers only the memory of this program after exec, unlike
    ru_maxrss, which can carry over the parent's size at fork.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    record_path, mode, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    record: dict = {}
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer(run_id)
        with tracer.span("orchestrator.import"):
            from tabular_automl.orchestrator import cli
        tracing.install(tracer)
    else:
        from tabular_automl.orchestrator import cli, job

        tuner_run = job.tuner_run

        def hooked(*args, **kwargs):
            record["tuner_call"] = time.monotonic()
            return tuner_run(*args, **kwargs)

        job.tuner_run = hooked

    code = cli.main(argv)
    record["exit"] = code
    record["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        record["spans"] = tracer.spans
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
