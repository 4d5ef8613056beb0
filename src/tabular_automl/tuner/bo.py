"""Gaussian-process surrogate with expected-improvement suggestion.

Inputs live in the unit cube (HpSpace handles the mapping, log domains in
log space); targets are standardized. Kernel: Matern-5/2 with ARD
length-scales plus observation noise, all fit by maximizing the log
marginal likelihood (Rasmussen & Williams 2006, section 5.4) inside a box
of bounds, from two starts: the default theta and the pipeline's previous
fitted theta, or one seeded random draw on the pipeline's first fit. The
box-constrained minimizer is `boxmin.minimize_in_box`, L-BFGS-B's method
with a dense model matrix. The acquisition is maximized over seeded random
candidates plus local perturbations of the incumbent, never by gradient
ascent, so integer and categorical domains need no special casing.

numpy is the only dependency: the kernel matrix is factored by
`np.linalg.cholesky`, and one inverse of the factor gives the likelihood,
its gradient and the predictive variance.
"""
from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from ..errors import DegenerateHistory
from ..learners import HpSpace
from .boxmin import minimize_in_box

SQRT5 = math.sqrt(5.0)
LOG_2PI = math.log(2.0 * math.pi)
JITTER = 1e-10

N_CANDIDATES = 1000
N_LOCAL = 25
LOCAL_SCALE = 0.05

# log-space bounds for (signal std, length-scales..., noise std)
_SIGNAL_BOUNDS = (math.log(1e-3), math.log(1e3))
_LENGTH_BOUNDS = (math.log(1e-2), math.log(1e2))
_NOISE_BOUNDS = (math.log(1e-6), math.log(1.0))


def _sq_diffs(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """(n1 * n2, d) squared differences (X1[i] - X2[j])**2 in row i * n2 + j."""
    return ((X1[:, None, :] - X2[None, :, :]) ** 2).reshape(-1, X1.shape[1])


def _matern52(r2: np.ndarray, signal_var: float):
    """Matern-5/2 kernel at squared scaled distances r2, and (1 + sqrt5 r) exp(-sqrt5 r)."""
    sr = SQRT5 * np.sqrt(r2)
    e = np.exp(-sr)
    a = 1.0 + sr
    return signal_var * (a + (5.0 / 3.0) * r2) * e, a * e


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


def _neg_lml_and_grad(theta: np.ndarray, sq: np.ndarray, y: np.ndarray, eye: np.ndarray):
    """Negative log marginal likelihood and its gradient in theta.

    sq is _sq_diffs(X, X) and eye the (n, n) identity; both depend on X
    only, so a fit builds them once for all its evaluations. A kernel matrix
    that is not positive definite gives 1e25 and a zero gradient.
    """
    n, d = len(y), sq.shape[1]
    signal_var, lengths, noise_var = _unpack(theta, d)
    inv_sq_lengths = lengths**-2
    K_f, ae = _matern52((sq @ inv_sq_lengths).reshape(n, n), signal_var)
    try:
        L = np.linalg.cholesky(K_f + (noise_var + JITTER) * eye)
    except np.linalg.LinAlgError:
        return 1e25, np.zeros_like(theta)
    L_inv = np.linalg.inv(L)
    z = L_inv @ y
    alpha = z @ L_inv  # K^-1 y
    nll = 0.5 * float(z @ z) + float(np.log(L.diagonal()).sum()) + 0.5 * n * LOG_2PI

    M = alpha[:, None] * alpha - L_inv.T @ L_inv  # dLML/dtheta_j = 0.5 tr(M dK/dtheta_j)
    grad = np.empty_like(theta)
    grad[0] = np.vdot(M, K_f)
    # dK/dlog l_i = (5/3) sigma_f^2 (1 + sqrt5 r) exp(-sqrt5 r) (x_i - x'_i)^2 / l_i^2
    grad[1 : 1 + d] = ((M * ae).ravel() @ sq) * ((5.0 / 6.0) * signal_var * inv_sq_lengths)
    grad[1 + d] = np.trace(M) * noise_var
    return nll, -grad


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
        """Minimize the likelihood from each start, in order; keep the lowest."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n, d = X.shape
        sq = _sq_diffs(X, X)
        lo, hi = np.array(_bounds(d)).T
        nll = functools.partial(_neg_lml_and_grad, sq=sq, y=y, eye=np.eye(n))
        best_val, best_theta = math.inf, starts[0]
        for theta0 in starts:
            theta, val = minimize_in_box(nll, theta0, lo, hi)
            if val < best_val:
                best_val, best_theta = val, theta

        self.X = X
        self.y = y
        self.theta = best_theta
        signal_var, lengths, noise_var = _unpack(best_theta, d)
        K_f, _ = _matern52((sq @ lengths**-2).reshape(n, n), signal_var)
        self._L_inv = np.linalg.inv(np.linalg.cholesky(K_f + (noise_var + JITTER) * np.eye(n)))
        self._alpha = (self._L_inv @ y) @ self._L_inv
        self._lengths = lengths
        self._signal_var = signal_var
        return self

    def predict(self, X_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation of the latent function."""
        X_new = np.asarray(X_new, dtype=float)
        r2 = (_sq_diffs(X_new, self.X) @ self._lengths**-2).reshape(len(X_new), len(self.X))
        K_star, _ = _matern52(r2, self._signal_var)
        mu = K_star @ self._alpha
        v = self._L_inv @ K_star.T
        var = self._signal_var - (v**2).sum(axis=0)
        return mu, np.sqrt(np.maximum(var, 0.0))


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z**2) / math.sqrt(2 * math.pi)


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, 0.5 erfc(-z / sqrt2): accurate in the lower tail too."""
    return 0.5 * np.fromiter(map(math.erfc, (-z / math.sqrt(2.0)).tolist()), float, len(z))


def expected_improvement(mu: np.ndarray, sigma: np.ndarray, best: float) -> np.ndarray:
    """EI for minimization: E[max(best - Y, 0)] under N(mu, sigma^2)."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    ei = np.maximum(best - mu, 0.0)
    ok = sigma > 1e-12
    if np.any(ok):
        z = (best - mu[ok]) / sigma[ok]
        ei[ok] = (best - mu[ok]) * _norm_cdf(z) + sigma[ok] * _norm_pdf(z)
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
