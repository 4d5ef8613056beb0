"""Compare GP likelihood start rules by regret on three test functions.

    python3 scripts/bo_regret_study.py [--seeds 50]

Run from the repository root (it puts `src/` first on the path). Each seed
runs `suggest_bo` for 30 suggestions, the first 5 uniform at random, on three
minimization problems in the unit cube: Branin (2-D), Hartmann-3 and a
weighted 4-D quadratic. Three rules fit the GP:

- `3 starts`: the default theta plus two random draws on every fit (the rule
  before warm starts);
- `default + previous`: the default theta plus the pipeline's previous
  fitted theta, one random draw on the first fit (`GaussianProcess.fit`);
- `default + previous, scipy L-BFGS-B`: the same starts, each minimized by
  `scipy.optimize.minimize(method="L-BFGS-B")` instead of
  `boxmin.minimize_in_box`. This rule needs scipy, which the package itself
  does not use.

All rules see the same random points, from the same generator seed. The
script prints a markdown table: the mean milliseconds per GP fit, and the
median / upper quartile over seeds of the best regret after the last
suggestion (the best value found minus the known minimum).
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tabular_automl.errors import DegenerateHistory  # noqa: E402
from tabular_automl.learners import HpDomain, HpSpace  # noqa: E402
from tabular_automl.tuner import bo  # noqa: E402

N_SUGGESTIONS = 30
N_RANDOM = 5


def branin(u):
    x1, x2 = 15.0 * u[0] - 5.0, 15.0 * u[1]
    b, c = 5.1 / (4 * math.pi**2), 5.0 / math.pi
    return (x2 - b * x1**2 + c * x1 - 6.0) ** 2 + 10.0 * (1 - 1 / (8 * math.pi)) * math.cos(x1) + 10.0


_H3_A = np.array([[3.0, 10, 30], [0.1, 10, 35], [3.0, 10, 30], [0.1, 10, 35]])
_H3_C = np.array([1.0, 1.2, 3.0, 3.2])
_H3_P = 1e-4 * np.array([[3689, 1170, 2673], [4699, 4387, 7470], [1091, 8732, 5547], [381, 5743, 8828]])


def hartmann3(u):
    return -float(_H3_C @ np.exp(-(_H3_A * (np.asarray(u) - _H3_P) ** 2).sum(axis=1)))


_Q_W = np.array([1.0, 2.0, 4.0, 8.0])
_Q_C = np.array([0.3, 0.6, 0.2, 0.8])


def quadratic4(u):
    return float(_Q_W @ (np.asarray(u) - _Q_C) ** 2)


# name, function, dimension, known minimum
PROBLEMS = [
    ("Branin", branin, 2, 0.397887357729739),
    ("Hartmann-3", hartmann3, 3, -3.86278214782076),
    ("quadratic-4", quadratic4, 4, 0.0),
]


def _three_starts(gp, X, y, rng, theta=None):
    d = np.shape(X)[1]
    return gp.fit_from(X, y, [bo.default_theta(d), bo.random_theta(rng, d), bo.random_theta(rng, d)])


_two_starts = bo.GaussianProcess.fit  # best_regret patches the attribute while it runs


def _scipy_lbfgsb(gp, X, y, rng, theta=None):
    from scipy import optimize

    def minimize(fun, x0, lo, hi):
        res = optimize.minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=list(zip(lo, hi)))
        return res.x, float(res.fun)

    with mock.patch.object(bo, "minimize_in_box", minimize):
        return _two_starts(gp, X, y, rng, theta)


RULES = [
    ("3 starts", _three_starts),
    ("default + previous", _two_starts),
    ("default + previous, scipy L-BFGS-B", _scipy_lbfgsb),
]


def best_regret(fn, d, f_min, seed, fit, fit_seconds):
    """Best value found in one search, fitting the GP with `fit`, minus f_min.

    Appends each fit's wall time to fit_seconds.
    """
    space = HpSpace(tunables=[HpDomain(f"x{i}", "float", 0.0, 1.0) for i in range(d)])
    rng = np.random.default_rng([seed, d])

    def timed(gp, *args):
        started = time.perf_counter()
        try:
            return fit(gp, *args)
        finally:
            fit_seconds.append(time.perf_counter() - started)

    history, theta = [], None
    with mock.patch.object(bo.GaussianProcess, "fit", timed):
        for i in range(N_SUGGESTIONS):
            cfg = None
            if i >= N_RANDOM:
                try:
                    cfg, theta = bo.suggest_bo(history, space, rng, theta)
                except DegenerateHistory:
                    pass
            if cfg is None:
                cfg = space.sample(rng)
            history.append((cfg, fn(space.to_unit(cfg))))
    return min(v for _, v in history) - f_min


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=50, help="seeds per problem (default 50)")
    args = ap.parse_args(argv)
    import scipy.optimize  # noqa: F401  (loaded before any fit is timed)

    print(f"{args.seeds} seeds x {N_SUGGESTIONS} suggestions (the first {N_RANDOM} random); "
          "best regret median / upper quartile")
    print("| starts | ms per fit | " + " | ".join(name for name, *_ in PROBLEMS) + " |")
    print("|---" * (2 + len(PROBLEMS)) + "|")
    for rule, fit in RULES:
        fit_seconds, cells = [], []
        for _, fn, d, f_min in PROBLEMS:
            regrets = [best_regret(fn, d, f_min, seed, fit, fit_seconds) for seed in range(args.seeds)]
            q50, q75 = np.percentile(regrets, [50, 75])
            cells.append(f"{q50:.4f} / {q75:.4f}")
        ms = 1000 * sum(fit_seconds) / len(fit_seconds)
        print(f"| {rule} | {ms:.1f} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
