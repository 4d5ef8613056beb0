"""Every name the benchmark's tracer and launcher hook must keep resolving.

`perfbench/tracing.py` rebinds the functions and methods it lists, and
`perfbench/launch.py` hooks `orchestrator.job.tuner_run`; a rename under
`src/` would break them without failing any other test. The tracing module
is loaded from its file, read only, without installing anything.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_names", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in tracing.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, method", [(m, c, f) for m, c, f, _ in tracing.METHODS])
def test_traced_method_resolves(module, cls, method):
    assert callable(getattr(getattr(importlib.import_module(module), cls), method))


@pytest.mark.parametrize(
    "module, attr",
    [
        ("tabular_automl.learners", "train"),
        ("tabular_automl.tuner.engine", "run"),
        ("tabular_automl.orchestrator.job", "tuner_run"),
    ],
)
def test_hooked_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
