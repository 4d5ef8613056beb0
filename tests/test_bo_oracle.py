"""The BO inner loops against reference implementations.

The GP reference below is the scipy implementation that the numpy-only
`tuner/bo.py` replaced: `_neg_lml_and_grad`, `GaussianProcess` and
`suggest_bo` factor and solve through `scipy.linalg.cholesky`/`cho_solve`/
`solve_triangular` and fit with `scipy.optimize.minimize(method="L-BFGS-B")`
from the default theta and a warm theta (one random draw when there is
none). The numpy code factors with `np.linalg.cholesky`, inverts the factor
and minimizes with `boxmin.minimize_in_box`, L-BFGS-B's method in numpy, so
its numbers differ in the last digits and a fit can end in another local
optimum. The GP tests compare within 1e-9 relative, or within the rounding
that the kernel matrix's condition number allows, and compare fitted
likelihoods over a fixed set of histories. `loss_and_grad` and `train_linear` are the versions that
fancy-indexed `X`, `y` and the row weights once per batch, computed the loss
on every step, and checked for divergence only after the last epoch; the
current code must give the same bytes (`tobytes()`), or raise the same
exception.
"""
import math
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabular_automl.errors import DegenerateHistory, NonFiniteInput, SingleClass
from tabular_automl.learners import HpDomain, HpSpace
from tabular_automl.learners.linear import BATCH_SIZE, LinearModel, _sigmoid, _softmax
from tabular_automl.learners.linear import loss_and_grad as new_loss_and_grad
from tabular_automl.learners.linear import train_linear as new_train_linear
from tabular_automl.tuner import bo
from tabular_automl.tuner.bo import (
    _LENGTH_BOUNDS,
    _NOISE_BOUNDS,
    _SIGNAL_BOUNDS,
    JITTER,
    LOCAL_SCALE,
    N_CANDIDATES,
    N_LOCAL,
    SQRT5,
    _unpack,
    expected_improvement,
)

# ------------------------------------------------------------- GP reference


def _scaled_dists(X1: np.ndarray, X2: np.ndarray, lengths: np.ndarray):
    diff = (X1[:, None, :] - X2[None, :, :]) / lengths
    sq = diff**2
    r = np.sqrt(np.maximum(sq.sum(axis=2), 0.0))
    return r, sq


def _matern52(r: np.ndarray, signal_var: float) -> np.ndarray:
    return signal_var * (1.0 + SQRT5 * r + (5.0 / 3.0) * r**2) * np.exp(-SQRT5 * r)


def _neg_lml_and_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray):
    from scipy.linalg import cho_solve, cholesky

    n, d = X.shape
    signal_var, lengths, noise_var = _unpack(theta, d)
    r, sq = _scaled_dists(X, X, lengths)
    K_f = _matern52(r, signal_var)
    K = K_f + (noise_var + JITTER) * np.eye(n)
    try:
        L = cholesky(K, lower=True)
    except np.linalg.LinAlgError:
        return 1e25, np.zeros_like(theta)
    alpha = cho_solve((L, True), y)
    lml = -0.5 * float(y @ alpha) - float(np.log(np.diag(L)).sum()) - 0.5 * n * math.log(2 * math.pi)

    K_inv = cho_solve((L, True), np.eye(n))
    M = np.outer(alpha, alpha) - K_inv

    grad = np.zeros_like(theta)
    grad[0] = 0.5 * float((M * (2.0 * K_f)).sum())
    base = (5.0 / 3.0) * signal_var * (1.0 + SQRT5 * r) * np.exp(-SQRT5 * r)
    for i in range(d):
        grad[1 + i] = 0.5 * float((M * (base * sq[:, :, i])).sum())
    grad[1 + d] = 0.5 * float(np.trace(M) * 2.0 * noise_var)
    return -lml, -grad


class GaussianProcess:
    def __init__(self):
        self.X: Optional[np.ndarray] = None
        self.theta: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator, theta=None) -> "GaussianProcess":
        from scipy import optimize

        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n, d = X.shape
        bounds = [_SIGNAL_BOUNDS] + [_LENGTH_BOUNDS] * d + [_NOISE_BOUNDS]
        starts = [np.array([0.0] + [0.0] * d + [math.log(0.1)])]
        if theta is None:
            theta = np.array([lo + rng.random() * (hi - lo) for lo, hi in bounds])
        starts.append(theta)

        best_val, best_theta = math.inf, starts[0]
        for theta0 in starts:
            res = optimize.minimize(
                _neg_lml_and_grad,
                theta0,
                args=(X, y),
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
            )
            if res.fun < best_val:
                best_val, best_theta = float(res.fun), res.x

        return self.at(X, y, best_theta)

    def at(self, X: np.ndarray, y: np.ndarray, theta: np.ndarray) -> "GaussianProcess":
        """The posterior at a fixed theta."""
        from scipy.linalg import cho_solve, cholesky

        n, d = X.shape
        self.X = X
        self.y = y
        self.theta = theta
        signal_var, lengths, noise_var = _unpack(theta, d)
        r, _ = _scaled_dists(X, X, lengths)
        K = _matern52(r, signal_var) + (noise_var + JITTER) * np.eye(n)
        self._L = cholesky(K, lower=True)
        self._alpha = cho_solve((self._L, True), y)
        self._lengths = lengths
        self._signal_var = signal_var
        return self

    def predict(self, X_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        from scipy.linalg import solve_triangular

        X_new = np.asarray(X_new, dtype=float)
        r, _ = _scaled_dists(X_new, self.X, self._lengths)
        K_star = _matern52(r, self._signal_var)
        mu = K_star @ self._alpha
        v = solve_triangular(self._L, K_star.T, lower=True)
        var = self._signal_var - (v**2).sum(axis=0)
        return mu, np.sqrt(np.maximum(var, 0.0))


def suggest_bo(history: list[tuple[dict, float]], space: HpSpace, rng: np.random.Generator, theta=None):
    if not space.tunables:
        return dict(space.statics), theta
    if len(history) < 2:
        raise DegenerateHistory("not enough finished trials for a surrogate")

    X = np.array([space.to_unit(cfg) for cfg, _ in history])
    y_raw = np.array([loss for _, loss in history], dtype=float)
    y_std = float(y_raw.std())
    if y_std < 1e-12:
        raise DegenerateHistory("all observed losses identical")
    y = (y_raw - y_raw.mean()) / y_std

    gp = GaussianProcess().fit(X, y, rng, theta)

    d = X.shape[1]
    candidates = rng.random((N_CANDIDATES, d))
    incumbent = X[int(np.argmin(y))]
    local = np.clip(incumbent + rng.normal(0.0, LOCAL_SCALE, size=(N_LOCAL, d)), 0.0, 1.0)
    pool = np.vstack([candidates, local])

    mu, sigma = gp.predict(pool)
    ei = expected_improvement(mu, sigma, float(y.min()))

    seen = [cfg for cfg, _ in history]
    order = np.argsort(-ei, kind="stable")
    fallback = space.from_unit(pool[order[0]])
    for idx in order:
        cfg = space.from_unit(pool[idx])
        if cfg not in seen:
            return cfg, gp.theta
    return fallback, gp.theta


# --------------------------------------------------------- linear reference


def loss_and_grad(w, b, X, y, link, l2, weights):
    n = len(y)
    wsum = weights.sum()
    if link == "identity":
        pred = X @ w + b[0]
        resid = (pred - y) * weights
        loss = 0.5 * float(resid @ (pred - y)) / wsum + 0.5 * l2 * float(w @ w)
        gw = X.T @ resid / wsum + l2 * w
        gb = np.array([resid.sum() / wsum])
        return loss, gw, gb
    if link == "logistic":
        p = _sigmoid(X @ w + b[0])
        p = np.clip(p, 1e-12, 1 - 1e-12)
        loss = -float(np.sum(weights * (y * np.log(p) + (1 - y) * np.log(1 - p)))) / wsum
        loss += 0.5 * l2 * float(w @ w)
        resid = (p - y) * weights
        gw = X.T @ resid / wsum + l2 * w
        gb = np.array([resid.sum() / wsum])
        return loss, gw, gb
    if link == "softmax":
        K = w.shape[1]
        P = _softmax(X @ w + b[None, :])
        P = np.clip(P, 1e-12, 1.0)
        onehot = np.zeros((n, K))
        onehot[np.arange(n), y.astype(int)] = 1.0
        loss = -float(np.sum(weights * np.log(P[np.arange(n), y.astype(int)]))) / wsum
        loss += 0.5 * l2 * float(np.sum(w * w))
        resid = (P - onehot) * weights[:, None]
        gw = X.T @ resid / wsum + l2 * w
        gb = resid.sum(axis=0) / wsum
        return loss, gw, gb
    raise ValueError(f"unknown link {link!r}")


def train_linear(X, y, hp, weights=None, seed=0) -> LinearModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y.astype(float)))):
        raise NonFiniteInput("training data contains non-finite values")
    if weights is None:
        weights = np.ones(len(y))
    else:
        weights = np.asarray(weights, dtype=float)

    link = hp["link"]
    l2 = float(hp["l2"])
    lr = float(hp["learning_rate"])
    epochs = int(hp["epochs"])
    n, d = X.shape

    n_classes = None
    if link in ("logistic", "softmax"):
        classes = np.unique(y)
        if len(classes) < 2:
            raise SingleClass("classification target has a single class")
        n_classes = int(y.max()) + 1

    if link == "softmax":
        w = np.zeros((d, n_classes))
        b = np.zeros(n_classes)
    else:
        w = np.zeros(d)
        b = np.zeros(1)

    yf = y.astype(float)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            _, gw, gb = loss_and_grad(w, b, X[idx], yf[idx], link, l2, weights[idx])
            w = w - lr * gw
            b = b - lr * gb

    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
        raise NonFiniteInput("training diverged to non-finite weights")
    return LinearModel(link=link, n_features=d, n_classes=n_classes, weights=w, bias=b)


# --------------------------------------------------------------------- GP


def history_points(seed: int, n: int, d: int, grid: bool):
    """Unit-cube inputs (on a coarse grid when `grid`, so rows repeat) and standardized targets."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, d)) / 3.0 if grid else rng.random((n, d))
    y = np.sin(3.0 * X).sum(axis=1) + 0.1 * rng.normal(size=n)
    y = (y - y.mean()) / max(float(y.std()), 1e-12)
    return X, y


def random_theta(rng: np.random.Generator, d: int) -> np.ndarray:
    bounds = [_SIGNAL_BOUNDS] + [_LENGTH_BOUNDS] * d + [_NOISE_BOUNDS]
    return np.array([lo + rng.random() * (hi - lo) for lo, hi in bounds])


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def condition_tolerance(X: np.ndarray, theta: np.ndarray) -> float:
    """Relative tolerance between two factorizations of K at theta: 1e-9,
    or 100 eps cond(K) where rounding in either one can be that large."""
    signal_var, lengths, noise_var = _unpack(theta, X.shape[1])
    r, _ = _scaled_dists(X, X, lengths)
    K = _matern52(r, signal_var) + (noise_var + JITTER) * np.eye(len(X))
    return max(1e-9, 100 * np.finfo(float).eps * np.linalg.cond(K))


def box(d: int):
    return np.array([_SIGNAL_BOUNDS] + [_LENGTH_BOUNDS] * d + [_NOISE_BOUNDS]).T


class TestLikelihood:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 60),
        st.integers(1, 10),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_reference(self, seed, n, d, grid):
        X, y = history_points(seed, n, d, grid)
        theta = random_theta(np.random.default_rng(seed + 1), d)
        ref_val, ref_grad = _neg_lml_and_grad(theta, X, y)
        val, grad = bo._neg_lml_and_grad(theta, bo._sq_diffs(X, X), y, np.eye(n))
        if ref_val == 1e25:
            assert val == 1e25 and not grad.any()
            return
        tol = condition_tolerance(X, theta)
        assert val == pytest.approx(ref_val, rel=tol)
        np.testing.assert_allclose(grad, ref_grad, rtol=tol, atol=tol * max(1.0, np.abs(ref_grad).max()))

    # Signal std in [1/e, e], length-scales in [0.1, 2] and noise std in
    # [0.01, 1]: well enough conditioned for central differences to agree.
    @given(st.integers(0, 2**32 - 1), st.integers(3, 40), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_gradient_matches_finite_differences(self, seed, n, d):
        rng = np.random.default_rng(seed)
        X, y = rng.random((n, d)), rng.normal(size=n)
        lo = np.array([-1.0] + [math.log(0.1)] * d + [math.log(1e-2)])
        hi = np.array([1.0] + [math.log(2.0)] * d + [0.0])
        theta = lo + rng.random(d + 2) * (hi - lo)
        args = (bo._sq_diffs(X, X), y, np.eye(n))
        _, grad = bo._neg_lml_and_grad(theta, *args)
        eps = 1e-5
        for j in range(len(theta)):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += eps
            tm[j] -= eps
            fd = (bo._neg_lml_and_grad(tp, *args)[0] - bo._neg_lml_and_grad(tm, *args)[0]) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_not_positive_definite_returns_the_same_sentinel(self):
        # Largest signal and length-scale, least noise: the factor fails.
        X = np.random.default_rng(0).random((10, 1))
        y = np.linspace(-1.0, 1.0, 10)
        theta = np.array([_SIGNAL_BOUNDS[1], _LENGTH_BOUNDS[1], _NOISE_BOUNDS[0]])
        ref = _neg_lml_and_grad(theta, X, y)
        new = bo._neg_lml_and_grad(theta, bo._sq_diffs(X, X), y, np.eye(10))
        assert ref[0] == new[0] == 1e25
        assert same_bytes(ref[1], new[1])


def seeded_histories():
    """300 fixed histories: n 3-60, d 1-10, a third of them on a coarse grid."""
    for seed in range(300):
        rng = np.random.default_rng([seed, 23])
        n, d, grid = int(rng.integers(3, 61)), int(rng.integers(1, 11)), rng.random() < 1 / 3
        X, y = history_points(seed, n, d, grid)
        yield seed, X, y, [default_theta(d), random_theta(rng, d)]


def default_theta(d: int) -> np.ndarray:
    return np.array([0.0] + [0.0] * d + [math.log(0.1)])


class TestGaussianProcess:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 60),
        st.integers(1, 10),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_fit_starts_from_two_thetas_and_keeps_the_lower(self, seed, n, d, grid, warm):
        X, y = history_points(seed, n, d, grid)
        theta = random_theta(np.random.default_rng(seed + 3), d) if warm else None
        minimize = bo.minimize_in_box
        runs = []

        def recording(fun, x0, lo, hi):
            x0 = np.array(x0, copy=True)
            x, val = minimize(fun, x0, lo, hi)
            runs.append((x0, val, x))
            return x, val

        with mock.patch.object(bo, "minimize_in_box", recording):
            new = bo.GaussianProcess().fit(X, y, np.random.default_rng(seed), theta)

        # exactly two starts: the default theta, then the warm one or one random draw
        second = theta if warm else random_theta(np.random.default_rng(seed), d)
        assert [x0.tobytes() for x0, _, _ in runs] == [default_theta(d).tobytes(), second.tobytes()]
        # the lower result is kept (the first on a tie)
        kept = runs[1] if runs[1][1] < runs[0][1] else runs[0]
        assert same_bytes(new.theta, kept[2])
        lo, hi = box(d)
        assert np.all((lo <= new.theta) & (new.theta <= hi))

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 60),
        st.integers(1, 10),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_predict_equals_reference_at_the_fitted_theta(self, seed, n, d, grid):
        X, y = history_points(seed, n, d, grid)
        new = bo.GaussianProcess().fit(X, y, np.random.default_rng(seed))
        ref = GaussianProcess().at(X, y, new.theta)
        tol = condition_tolerance(X, new.theta)
        X_new = np.random.default_rng(seed + 2).random((200, d))
        (mu, sigma), (ref_mu, ref_sigma) = new.predict(X_new), ref.predict(X_new)
        np.testing.assert_allclose(mu, ref_mu, rtol=tol, atol=tol * max(1.0, np.abs(ref_mu).max()))
        # compare variances: a standard deviation near 0 amplifies the rounding of its square
        np.testing.assert_allclose(sigma**2, ref_sigma**2, rtol=tol, atol=tol * ref._signal_var)

    def test_likelihood_is_as_low_as_lbfgsb_on_seeded_histories(self):
        """The kept -LML of the two starts, against scipy's L-BFGS-B from the same two.

        The likelihood has several local optima, and which one a descent
        reaches can turn on rounding: L-BFGS-B against itself with 9
        instead of 10 curvature pairs ends higher on 11 of these 300
        histories. So the fit may end higher than the reference on at most
        2% of them (6), more than 1e-6 relative.
        """
        from scipy import optimize

        higher = []
        for seed, X, y, starts in seeded_histories():
            n, d = X.shape
            ref = min(
                optimize.minimize(
                    _neg_lml_and_grad, t0, args=(X, y), jac=True, method="L-BFGS-B", bounds=list(zip(*box(d)))
                ).fun
                for t0 in starts
            )
            got = bo.GaussianProcess().fit_from(X, y, starts)
            val = _neg_lml_and_grad(got.theta, X, y)[0]
            if val > ref + 1e-6 * max(1.0, abs(ref)):
                higher.append((seed, n, d, ref, val))
        for case in higher:
            print("higher than L-BFGS-B: seed %d, n %d, d %d: %.6f against %.6f" % case)
        assert len(higher) <= 6, f"{len(higher)} of 300 higher than L-BFGS-B"


class TestSuggestBo:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 53),
        st.lists(st.sampled_from(["float", "log_float", "int", "categorical"]), min_size=1, max_size=10),
    )
    @settings(max_examples=50, deadline=None)
    @example(2001627, 24, ["categorical", "categorical", "float"])  # a line-search step rounded past a bound
    def test_consumes_the_generator_as_the_reference(self, seed, n, kinds):
        domains = []
        for i, kind in enumerate(kinds):
            if kind == "categorical":
                domains.append(HpDomain(f"h{i}", kind, choices=["a", "b", "c"]))
            elif kind == "log_float":
                domains.append(HpDomain(f"h{i}", kind, 1e-4, 1.0))
            elif kind == "int":
                domains.append(HpDomain(f"h{i}", kind, 1, 6))
            else:
                domains.append(HpDomain(f"h{i}", kind, -2.0, 3.0))
        space = HpSpace(statics={"link": "identity"}, tunables=domains)
        rng = np.random.default_rng(seed)
        history = [(space.sample(rng), float(rng.normal())) for _ in range(n)]
        ref_rng, new_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        lo, hi = box(len(domains))
        theta = ref_theta = None
        # a pipeline's first suggestion, then the next one warm from its theta
        for _ in range(2):
            try:
                _, ref_theta = suggest_bo(history, space, ref_rng, ref_theta)
            except DegenerateHistory:
                with pytest.raises(DegenerateHistory):
                    bo.suggest_bo(history, space, new_rng, theta)
                return
            got, theta = bo.suggest_bo(history, space, new_rng, theta)
            assert space.contains(got), got
            assert np.all((lo <= theta) & (theta <= hi))
            # both drew the same number of values from the generator
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state
            history = history + [(got, float(ref_rng.normal()))]
            new_rng.normal()


# ----------------------------------------------------------------- linear


@st.composite
def linear_problems(draw):
    link = draw(st.sampled_from(["identity", "logistic", "softmax"]))
    n = draw(st.integers(2, 150))
    d = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * draw(st.sampled_from([0.1, 1.0, 5.0]))
    if link == "identity":
        y = X @ rng.normal(size=d) + rng.normal(size=n)
    else:
        k = 2 if link == "logistic" else draw(st.integers(2, 5))
        y = np.concatenate([np.arange(k), rng.integers(0, k, size=n)])[:n]
        if n < k:
            y = np.arange(n) % 2
    weights = rng.uniform(0.2, 3.0, size=n) if draw(st.booleans()) else None
    hp = {
        "link": link,
        "l2": draw(st.sampled_from([0.0, 1e-4, 0.1, 10.0])),
        "learning_rate": draw(st.sampled_from([1e-3, 0.05, 0.3, 1.0])),
        "epochs": draw(st.integers(0, 8)),
    }
    return X, y, hp, weights, draw(st.integers(0, 2**31))


def assert_same_fit(X, y, hp, weights, seed):
    try:
        want = train_linear(X, y, hp, weights=weights, seed=seed)
    except (NonFiniteInput, SingleClass) as exc:
        with pytest.raises(type(exc), match=str(exc)):
            new_train_linear(X, y, hp, weights=weights, seed=seed)
        return None
    got = new_train_linear(X, y, hp, weights=weights, seed=seed)
    assert (got.link, got.n_features, got.n_classes) == (want.link, want.n_features, want.n_classes)
    assert same_bytes(got.weights, want.weights)
    assert same_bytes(got.bias, want.bias)
    return got


class TestTrainLinear:
    @given(linear_problems())
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, problem):
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_fit(*problem)

    @given(linear_problems())
    @settings(max_examples=200, deadline=None)
    def test_loss_and_grad_equal_reference(self, problem):
        X, y, hp, weights, seed = problem
        rng = np.random.default_rng(seed)
        link = hp["link"]
        shape = (X.shape[1], int(y.max()) + 1) if link == "softmax" else (X.shape[1],)
        w = rng.normal(size=shape)
        b = rng.normal(size=shape[1:] or (1,))
        rw = np.ones(len(y)) if weights is None else weights
        want = loss_and_grad(w, b, X, y.astype(float), link, hp["l2"], rw)
        got = new_loss_and_grad(w, b, X, y.astype(float), link, hp["l2"], rw)
        assert got[0] == want[0]
        assert same_bytes(got[1], want[1])
        assert same_bytes(got[2], want[2])

    @pytest.mark.parametrize("link", ["identity", "logistic", "softmax"])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("n", [31, 33, 100, 129])
    def test_partial_last_batch(self, link, weighted, n):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 4))
        y = X[:, 0] + rng.normal(size=n) if link == "identity" else np.arange(n) % (3 if link == "softmax" else 2)
        weights = rng.uniform(0.5, 2.0, size=n) if weighted else None
        hp = {"link": link, "l2": 1e-3, "learning_rate": 0.05, "epochs": 5}
        assert assert_same_fit(X, y, hp, weights, 7) is not None

    @pytest.mark.parametrize("link", ["identity", "logistic", "softmax"])
    def test_zero_epochs(self, link):
        X = np.random.default_rng(0).normal(size=(50, 3))
        y = np.arange(50) % 2
        model = assert_same_fit(X, y, {"link": link, "l2": 0.1, "learning_rate": 0.1, "epochs": 0}, None, 0)
        assert not model.weights.any() and not model.bias.any()

    def test_diverging_fit_raises_in_both(self):
        # The benchmark probe's first point: l2 10 with learning rate 1.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.normal(size=300)
        hp = {"link": "identity", "l2": 10.0, "learning_rate": 1.0, "epochs": 100}
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteInput, match="diverged"):
                train_linear(X, y, hp)
            with pytest.raises(NonFiniteInput, match="diverged"):
                new_train_linear(X, y, hp)
