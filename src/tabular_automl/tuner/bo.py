"""Gaussian-process surrogate with expected-improvement suggestion.

Inputs live in the unit cube (HpSpace handles the mapping, log domains in
log space); targets are standardized. Kernel: Matern-5/2 with ARD
length-scales plus observation noise, all fit by maximizing the log
marginal likelihood with L-BFGS-B from two starts: the default theta and
the pipeline's previous fitted theta, or one seeded random draw on the
pipeline's first fit. The acquisition is maximized over seeded random
candidates plus local perturbations of the incumbent, never by gradient
ascent, so integer and categorical domains need no special casing.

scipy is imported inside the functions that use it, so a CLI process that
never reaches GP-EI never pays scipy's import time and memory.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import DegenerateHistory
from ..learners import HpSpace

SQRT5 = math.sqrt(5.0)
JITTER = 1e-10

N_CANDIDATES = 1000
N_LOCAL = 25
LOCAL_SCALE = 0.05

# log-space bounds for (signal std, length-scales..., noise std)
_SIGNAL_BOUNDS = (math.log(1e-3), math.log(1e3))
_LENGTH_BOUNDS = (math.log(1e-2), math.log(1e2))
_NOISE_BOUNDS = (math.log(1e-6), math.log(1.0))


def _pairwise_diff(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """(n1, n2, d) differences X1[i] - X2[j]; the length-scales divide them later."""
    return X1[:, None, :] - X2[None, :, :]


def _scaled_dists(diff: np.ndarray, lengths: np.ndarray):
    """Pairwise r and per-dimension squared scaled differences d_i^2."""
    sq = (diff / lengths) ** 2
    r = np.sqrt(np.maximum(sq.sum(axis=2), 0.0))
    return r, sq


def _matern52(r: np.ndarray, signal_var: float, e: Optional[np.ndarray] = None) -> np.ndarray:
    """Matern-5/2 kernel at distances r; e is exp(-sqrt5 r) if the caller has it already."""
    if e is None:
        e = np.exp(-SQRT5 * r)
    return signal_var * (1.0 + SQRT5 * r + (5.0 / 3.0) * r**2) * e


def _bounds(d: int) -> list[tuple[float, float]]:
    return [_SIGNAL_BOUNDS] + [_LENGTH_BOUNDS] * d + [_NOISE_BOUNDS]


def default_theta(d: int) -> np.ndarray:
    """Unit signal std and length-scales, noise std 0.1."""
    return np.array([0.0] + [0.0] * d + [math.log(0.1)])


def random_theta(rng: np.random.Generator, d: int) -> np.ndarray:
    """One uniform draw from the (log-space) theta box."""
    return np.array([lo + rng.random() * (hi - lo) for lo, hi in _bounds(d)])


def _unpack(theta: np.ndarray, d: int):
    signal_var = math.exp(2.0 * theta[0])
    lengths = np.exp(theta[1 : 1 + d])
    noise_var = math.exp(2.0 * theta[1 + d])
    return signal_var, lengths, noise_var


def _cholesky(K: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factor of K, or None when K is not positive definite.

    Calls LAPACK directly: K is finite whenever theta and the history are
    (suggest_bo fits finite losses only), so scipy.linalg's finiteness check
    and batching wrapper are only overhead.
    """
    from scipy.linalg.lapack import dpotrf

    L, info = dpotrf(K, lower=1, clean=1)
    return None if info > 0 else L


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    from scipy.linalg.lapack import dpotrs

    x, _ = dpotrs(L, b, lower=1)
    return x


def _neg_lml_and_grad(theta: np.ndarray, diff: np.ndarray, y: np.ndarray, eye: np.ndarray):
    """Negative log marginal likelihood and its gradient in theta.

    diff is _pairwise_diff(X, X) and eye the (n, n) identity; both depend on
    X only, so a fit builds them once for all its evaluations.
    """
    n, _, d = diff.shape
    signal_var, lengths, noise_var = _unpack(theta, d)
    r, sq = _scaled_dists(diff, lengths)
    e = np.exp(-SQRT5 * r)
    K_f = _matern52(r, signal_var, e)
    K = K_f + (noise_var + JITTER) * eye
    L = _cholesky(K)
    if L is None:
        return 1e25, np.zeros_like(theta)
    alpha = _cho_solve(L, y)
    lml = -0.5 * float(y @ alpha) - float(np.log(np.diag(L)).sum()) - 0.5 * n * math.log(2 * math.pi)

    K_inv = _cho_solve(L, eye)
    M = np.outer(alpha, alpha) - K_inv  # dLML/dtheta_j = 0.5 tr(M dK/dtheta_j)

    grad = np.zeros_like(theta)
    grad[0] = 0.5 * float((M * (2.0 * K_f)).sum())
    # dK/dlog l_i = (5/3) sigma_f^2 (1 + sqrt5 r) exp(-sqrt5 r) d_i^2
    base = (5.0 / 3.0) * signal_var * (1.0 + SQRT5 * r) * e
    for i in range(d):
        grad[1 + i] = 0.5 * float((M * (base * sq[:, :, i])).sum())
    grad[1 + d] = 0.5 * float(np.trace(M) * 2.0 * noise_var)
    return -lml, -grad


class GaussianProcess:
    """Exact GP regression; immutable after fit."""

    def __init__(self):
        self.X: Optional[np.ndarray] = None
        self.theta: Optional[np.ndarray] = None

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        rng: np.random.Generator,
        theta: Optional[np.ndarray] = None,
    ) -> "GaussianProcess":
        """Fit from two starts: the default theta and a warm one.

        theta is the previous fit's theta for the same space; without it
        the second start is one random draw from rng.
        """
        d = np.shape(X)[1]
        if theta is None:
            theta = random_theta(rng, d)
        return self.fit_from(X, y, [default_theta(d), theta])

    def fit_from(self, X: np.ndarray, y: np.ndarray, starts: list[np.ndarray]) -> "GaussianProcess":
        """Run L-BFGS-B on the likelihood from each start, in order; keep the lowest."""
        from scipy import optimize

        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n, d = X.shape
        diff, eye, bounds = _pairwise_diff(X, X), np.eye(n), _bounds(d)
        best_val, best_theta = math.inf, starts[0]
        for theta0 in starts:
            res = optimize.minimize(
                _neg_lml_and_grad,
                theta0,
                args=(diff, y, eye),
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
            )
            if res.fun < best_val:
                best_val, best_theta = float(res.fun), res.x

        self.X = X
        self.y = y
        self.theta = best_theta
        signal_var, lengths, noise_var = _unpack(best_theta, d)
        r, _ = _scaled_dists(diff, lengths)
        K = _matern52(r, signal_var) + (noise_var + JITTER) * eye
        self._L = _cholesky(K)
        if self._L is None:
            raise np.linalg.LinAlgError("GP kernel matrix is not positive definite")
        self._alpha = _cho_solve(self._L, y)
        self._lengths = lengths
        self._signal_var = signal_var
        return self

    def predict(self, X_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation of the latent function."""
        from scipy.linalg.lapack import dtrtrs

        X_new = np.asarray(X_new, dtype=float)
        r, _ = _scaled_dists(_pairwise_diff(X_new, self.X), self._lengths)
        K_star = _matern52(r, self._signal_var)
        mu = K_star @ self._alpha
        v, _ = dtrtrs(self._L, K_star.T, lower=1)
        var = self._signal_var - (v**2).sum(axis=0)
        return mu, np.sqrt(np.maximum(var, 0.0))


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z**2) / math.sqrt(2 * math.pi)


def expected_improvement(mu: np.ndarray, sigma: np.ndarray, best: float) -> np.ndarray:
    """EI for minimization: E[max(best - Y, 0)] under N(mu, sigma^2)."""
    from scipy.special import ndtr

    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    ei = np.maximum(best - mu, 0.0)
    ok = sigma > 1e-12
    if np.any(ok):
        z = (best - mu[ok]) / sigma[ok]
        ei[ok] = (best - mu[ok]) * ndtr(z) + sigma[ok] * _norm_pdf(z)
    return ei


def suggest_bo(
    history: list[tuple[dict, float]],
    space: HpSpace,
    rng: np.random.Generator,
    theta: Optional[np.ndarray] = None,
) -> tuple[dict, Optional[np.ndarray]]:
    """Suggest the next config by maximizing EI under a GP surrogate.

    history: (config, loss) pairs of finished trials for one pipeline. The
    surrogate fits the finite losses only: a finished trial can score inf
    (finite weights that overflow on the valid fold). theta is the
    pipeline's previous GP theta (None before its first fit), the warm
    start of this fit. Returns the config and the fitted theta to pass next
    time. Raises DegenerateHistory when the finite losses carry no signal.
    """
    if not space.tunables:
        return dict(space.statics), theta
    finite = [(cfg, loss) for cfg, loss in history if math.isfinite(loss)]
    if len(finite) < 2:
        raise DegenerateHistory("not enough finished trials with a finite loss for a surrogate")

    X = np.array([space.to_unit(cfg) for cfg, _ in finite])
    y_raw = np.array([loss for _, loss in finite], dtype=float)
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
