"""The box-constrained minimizer behind the GP likelihood fit (`tuner/boxmin.py`)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabular_automl.tuner.boxmin import PGTOL, minimize_in_box


def quadratic(center, weights):
    """sum_i w_i (x_i - c_i)^2 plus a coupling term, with its gradient."""
    center, weights = np.asarray(center, dtype=float), np.asarray(weights, dtype=float)

    def fun(x):
        r = x - center
        coupling = 0.1 * float(r[:-1] @ r[1:])
        grad = 2.0 * weights * r
        grad[:-1] += 0.1 * r[1:]
        grad[1:] += 0.1 * r[:-1]
        return float(weights @ r**2) + coupling, grad

    return fun


def rosenbrock(x):
    x = np.asarray(x, dtype=float)
    a, b = x[:-1], x[1:]
    value = float((100.0 * (b - a**2) ** 2 + (1.0 - a) ** 2).sum())
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * a * (b - a**2) - 2.0 * (1.0 - a)
    grad[1:] += 200.0 * (b - a**2)
    return value, grad


def recording(fun, points):
    def wrapped(x):
        points.append(np.array(x, copy=True))
        return fun(x)

    return wrapped


def projected_gradient(fun, x, lo, hi):
    _, g = fun(x)
    return np.abs(np.clip(x - g, lo, hi) - x).max()


class TestKnownMinimizers:
    def test_interior_quadratic(self):
        fun = quadratic([0.3, -0.2, 0.5], [1.0, 4.0, 9.0])
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        x, value = minimize_in_box(fun, np.array([0.9, 0.9, -0.9]), lo, hi)
        np.testing.assert_allclose(x, [0.3, -0.2, 0.5], atol=1e-5)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_with_its_minimizer_outside_the_box(self):
        # Unconstrained minimizer (2, 0.25, -3); the box pins x0 at 1 and x2 at -1.
        fun = quadratic([2.0, 0.25, -3.0], [1.0, 1.0, 1.0])
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        x, value = minimize_in_box(fun, np.zeros(3), lo, hi)
        assert x[0] == 1.0 and x[2] == -1.0
        # with x0 and x2 fixed, 2 (x1 - 0.25) + 0.1 ((x0 - 2) + (x2 + 3)) = 0
        assert x[1] == pytest.approx(0.25 - 0.05 * ((1.0 - 2.0) + (-1.0 + 3.0)), abs=1e-5)
        assert value == pytest.approx(fun(x)[0])
        assert projected_gradient(fun, x, lo, hi) <= PGTOL

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_rosenbrock(self, n):
        lo, hi = np.full(n, -2.0), np.full(n, 2.0)
        x, value = minimize_in_box(rosenbrock, np.full(n, -1.2), lo, hi)
        np.testing.assert_allclose(x, np.ones(n), atol=1e-3)
        assert value < 1e-6

    def test_rosenbrock_minimizer_on_a_bound(self):
        # Capped at 0.5, the 2-D problem is solved by x = (0.5, 0.25), where
        # the x0 derivative 2 (x0 - 1) is negative and points out of the box.
        lo, hi = np.array([-2.0, -2.0]), np.array([0.5, 2.0])
        x, value = minimize_in_box(rosenbrock, np.array([-1.2, 1.0]), lo, hi)
        assert x[0] == 0.5
        assert x[1] == pytest.approx(0.25, abs=1e-4)
        assert value == pytest.approx(0.25, abs=1e-6)


class TestBox:
    def test_start_outside_the_box_is_clipped(self):
        fun = quadratic([0.0, 0.0], [1.0, 1.0])
        points = []
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        minimize_in_box(recording(fun, points), np.array([5.0, -7.0]), lo, hi)
        assert points[0].tolist() == [1.0, -1.0]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_every_evaluated_point_lies_in_the_box(self, seed, n):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-2.0, 0.0, n)
        hi = lo + rng.uniform(0.1, 3.0, n)
        # the unconstrained minimizer lies outside the box in about half the coordinates
        fun = quadratic(rng.uniform(-3.0, 3.0, n), rng.uniform(0.01, 100.0, n))
        points = []
        x, value = minimize_in_box(recording(fun, points), rng.uniform(-4.0, 4.0, n), lo, hi)
        assert points
        for p in points:
            assert np.all((lo <= p) & (p <= hi)), p
        assert np.all((lo <= x) & (x <= hi))
        assert value == fun(x)[0]

    def test_sentinel_start_is_returned_unchanged(self):
        # A likelihood returns (1e25, zero gradient) where its kernel matrix
        # is not positive definite; a start there has nothing to follow.
        calls = []

        def fun(x):
            calls.append(np.array(x, copy=True))
            return 1e25, np.zeros_like(x)

        x0 = np.array([0.5, -0.25, 0.125])
        x, value = minimize_in_box(fun, x0, np.full(3, -1.0), np.full(3, 1.0))
        assert x.tobytes() == x0.tobytes() and value == 1e25
        assert len(calls) == 1
