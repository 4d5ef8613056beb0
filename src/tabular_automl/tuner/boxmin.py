"""Minimize a smooth function over a box: L-BFGS-B with a dense model matrix.

`minimize_in_box(fun, x0, lo, hi)` follows L-BFGS-B (Byrd, Lu, Nocedal &
Zhu, SIAM J. Sci. Comput. 16(5), 1995) in its version 3.0 (Morales &
Nocedal, ACM TOMS 38(1), 2011), with that code's usual settings: 10
curvature pairs, pgtol 1e-5, factr 1e7 and at most 20 evaluations per line
search. Each iteration

1. finds the generalized Cauchy point: the first minimizer of the quadratic
   model along the projected gradient path P(x - t g). The variables that
   path pins at a bound, or that start at a bound with the gradient pointing
   out of the box, are held there;
2. minimizes the model over the other variables, and projects the result
   into the box, or backtracks to the box when the projection is not a
   descent direction;
3. searches the line from x to that point for a step that meets the strong
   Wolfe conditions (More & Thuente, ACM TOMS 20(3), 1994).

The model matrix is L-BFGS's, built from the last MEMORY curvature pairs
and scaled by theta = y.y / s.y of the newest one. It is formed densely:
the GP likelihood has at most a dozen variables, where a few small numpy
products cost less than L-BFGS-B's limited-memory bookkeeping. The same
steps in the same order matter: the likelihood has several local optima,
and simpler projected quasi-Newton methods ended in a worse one than
L-BFGS-B from the same start on 7-17% of test histories. Every point passed to `fun` lies in the box.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

MEMORY = 10  # curvature pairs in the model
PGTOL = 1e-5  # stop when the projected gradient's largest entry is at most this
FTOL = 1e7 * np.finfo(float).eps  # ... or when a step lowers f by at most this, relative
MAX_ITER = 15000
MAX_EVALS_PER_SEARCH = 20
SEARCH_FTOL, SEARCH_GTOL, SEARCH_XTOL = 1e-3, 0.9, 0.1
EPS = np.finfo(float).eps


def _cubic_step(stx, fx, dx, stp, fp, dp, clamp=False):
    """gamma and theta of the cubic through (stx, fx, dx) and (stp, fp, dp), as dcstep forms them."""
    theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
    s = max(abs(theta), abs(dx), abs(dp))
    disc = (theta / s) ** 2 - (dx / s) * (dp / s)
    gamma = s * math.sqrt(max(0.0, disc) if clamp else disc)
    if stp > stx:
        gamma = -gamma
    return gamma, theta


def _safeguarded_step(stx, fx, dx, sty, fy, dy, stp, fp, dp, bracketed, stpmin, stpmax):
    """MINPACK-2's dcstep: the next trial step, and the updated interval of uncertainty.

    (stx, fx, dx) is the best step so far, (sty, fy, dy) the other end of
    the interval, (stp, fp, dp) the trial just evaluated; d* are slopes.
    """
    sgnd = dp * math.copysign(1.0, dx)
    if fp > fx:  # higher value: the minimum is bracketed
        gamma, theta = _cubic_step(stx, fx, dx, stp, fp, dp)
        gamma = -gamma
        stpc = stx + ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp) * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) < abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        bracketed = True
    elif sgnd < 0.0:  # the slopes change sign: bracketed
        gamma, theta = _cubic_step(stx, fx, dx, stp, fp, dp)
        stpc = stp + ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx) * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        bracketed = True
    elif abs(dp) < abs(dx):  # lower value, same slope sign, the slope shrinks
        gamma, theta = _cubic_step(stx, fx, dx, stp, fp, dp, clamp=True)
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stpmax if stp > stx else stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if bracketed:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            bound = stp + 0.66 * (sty - stp)
            stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(max(stpf, stpmin), stpmax)
    elif bracketed:  # lower value, same slope sign, the slope does not shrink
        gamma, theta = _cubic_step(sty, fy, dy, stp, fp, dp)
        stpf = stp + ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy) * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin

    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0.0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, bracketed


def _line_search(phi: Callable, f0: float, g0: float, stpmax: float):
    """MINPACK-2's dcsrch from step 1, for at most MAX_EVALS_PER_SEARCH evaluations.

    phi(stp) returns (value, slope, point) at that step; g0 < 0 is the slope
    at step 0. Returns the point of the step that ends the search, or None.
    """
    stp, gtest = 1.0, SEARCH_FTOL * g0
    bracketed, stage = False, 1
    width = stpmax
    width1 = 2.0 * width
    stx, fx, gx = sty, fy, gy = 0.0, f0, g0
    stmin, stmax = 0.0, 5.0 * stp
    for _ in range(MAX_EVALS_PER_SEARCH):
        f, g, point = phi(stp)
        ftest = f0 + stp * gtest
        if stage == 1 and f <= ftest and g >= 0.0:
            stage = 2
        if (
            (bracketed and (stp <= stmin or stp >= stmax or stmax - stmin <= SEARCH_XTOL * stmax))
            or (stp == stpmax and f <= ftest and g <= gtest)
            or (stp == 0.0 and (f > ftest or g >= gtest))
            or (f <= ftest and abs(g) <= -SEARCH_GTOL * g0)
        ):
            return point
        if stage == 1 and fx >= f > ftest:  # step on the function less its sufficient-decrease line
            stx, fx, gx, sty, fy, gy, stp, bracketed = _safeguarded_step(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                stp, f - stp * gtest, g - gtest, bracketed, stmin, stmax,
            )
            fx, fy, gx, gy = fx + stx * gtest, fy + sty * gtest, gx + gtest, gy + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, bracketed = _safeguarded_step(
                stx, fx, gx, sty, fy, gy, stp, f, g, bracketed, stmin, stmax
            )
        if bracketed:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), stpmax)
        if bracketed and (stp <= stmin or stp >= stmax or stmax - stmin <= SEARCH_XTOL * stmax):
            stp = stx
    return None


def _model_matrix(S: list, Y: list, eye: np.ndarray) -> tuple[np.ndarray, float]:
    """L-BFGS's B = theta I - W M W' from the pairs (s, y), oldest first, and theta.

    W = [Y' theta S'] and M is the inverse of [[-D, L'], [L, theta S'S]],
    where D and L are the diagonal and the strictly lower part of S'Y.
    """
    k = len(S)
    Z = np.array(Y + S)  # the pairs as rows: Z' = [Y S]
    G = Z @ Z.T  # [[Y'Y, Y'S], [S'Y, S'S]]
    theta = G[k - 1, k - 1] / G[-1, k - 1]
    middle = G * _MIDDLE_MASKS[k]
    middle[k:, k:] *= theta
    middle[_DIAG[k]] = -G[_SY_DIAG[k]]
    Z[k:] *= theta
    return theta * eye - Z.T @ np.linalg.solve(middle, Z), float(theta)


def _middle_mask(k: int) -> np.ndarray:
    mask = np.zeros((2 * k, 2 * k))
    mask[:k, k:] = np.triu(np.ones((k, k)), 1)  # L' from the block Y'S
    mask[k:, :k] = np.tril(np.ones((k, k)), -1)  # L from the block S'Y
    mask[k:, k:] = 1.0
    return mask


_MIDDLE_MASKS = [None] + [_middle_mask(k) for k in range(1, MEMORY + 1)]
_DIAG = [None] + [(np.arange(k), np.arange(k)) for k in range(1, MEMORY + 1)]
_SY_DIAG = [None] + [(np.arange(k, 2 * k), np.arange(k)) for k in range(1, MEMORY + 1)]

# The vector steps below work on Python lists: for the dozen or so
# variables of a likelihood fit, a loop over floats costs less than the
# numpy calls it replaces.


def _projected_path(x, g, lo, hi):
    """Where the path P(x - t g) goes: -g with the variables that stay put zeroed, the
    free flags, the breakpoints (t, i) at which variable i reaches its bound, and
    the largest entry of the projected gradient.

    A variable at a bound with the gradient pointing out of the box is held
    there (not free); one with a zero gradient does not move either.
    """
    n = len(x)
    d, free, breaks, pg = [0.0] * n, [True] * n, [], 0.0
    for i in range(n):
        if (x[i] <= lo[i] and g[i] >= 0.0) or (x[i] >= hi[i] and g[i] <= 0.0):
            free[i] = False
        elif g[i] != 0.0:
            d[i] = -g[i]
            room = x[i] - lo[i] if g[i] > 0.0 else hi[i] - x[i]
            breaks.append((room / abs(g[i]), i))
            pg = max(pg, min(room, abs(g[i])))
    return d, free, breaks, pg


def _cauchy_point(x, g, d, free, breaks, B, theta, lo, hi):
    """The first local minimizer of the model along the projected path from x.

    Takes _projected_path's d, free and breaks, and updates free in place.
    Returns the point and B (point - x), which the subspace step uses.
    """
    n = len(x)
    dv = np.array(d)
    slope = -float(dv @ dv)  # model slope and curvature along the current piece
    curv_floor = EPS * theta * -slope
    Bd = B @ dv
    dtm = -slope / float(Bd @ dv)
    breaks.sort()
    xcp, t, reached = list(x), 0.0, False
    for k, (tb, i) in enumerate(breaks):
        if dtm < tb - t:
            break
        t, reached = tb, True
        xcp[i] = hi[i] if d[i] > 0.0 else lo[i]
        d[i] = 0.0
        free[i] = False
        if k == len(breaks) - 1:
            return xcp, B @ (np.array(xcp) - x)
        dv = np.array(d)
        Bd = B @ dv
        offset = np.array([t * d[j] if d[j] else xcp[j] - x[j] for j in range(n)])
        slope = sum(gj * dj for gj, dj in zip(g, d)) + float(offset @ Bd)
        dtm = -slope / max(curv_floor, float(Bd @ dv))
    dtm = max(dtm, 0.0)
    if not reached:
        return [xj + dtm * dj for xj, dj in zip(x, d)], dtm * Bd
    t += dtm
    xcp = [x[j] + t * d[j] if d[j] else xcp[j] for j in range(n)]
    return xcp, B @ (np.array(xcp) - x)


def _subspace_point(x, g, B, xcp, Bz, free, lo, hi):
    """Minimize the model over the free variables from xcp, and bring the result into the box.

    x and g are arrays, Bz is B (xcp - x); the rest are lists.
    """
    r = -(g + Bz)
    if all(free):
        idx, dz = range(len(x)), np.linalg.solve(B, r).tolist()
    else:
        idx = [i for i in range(len(x)) if free[i]]
        dz = np.linalg.solve(B[np.ix_(idx, idx)], r[idx]).tolist()
    z, hit = list(xcp), False
    for k, i in enumerate(idx):
        z[i] = min(max(xcp[i] + dz[k], lo[i]), hi[i])
        hit = hit or z[i] == lo[i] or z[i] == hi[i]
    if not hit or float((np.array(z) - x) @ g) <= 0.0:
        return z
    # The projection is not a descent direction: the longest step along dz
    # from xcp inside the box, with the variable that stops it at its bound.
    alpha, stop = 1.0, None
    for k, i in enumerate(idx):
        room = (lo[i] - xcp[i] if dz[k] < 0.0 else hi[i] - xcp[i]) / dz[k] if dz[k] else math.inf
        if max(room, 0.0) < alpha:
            alpha, stop = max(room, 0.0), k
    z = list(xcp)
    for k, i in enumerate(idx):
        z[i] = xcp[i] + alpha * dz[k]
    if stop is not None:
        i = idx[stop]
        z[i] = hi[i] if dz[stop] > 0.0 else lo[i]
    return z


def _room(x, d, lo, hi) -> float:
    """The longest step along d from x that stays in the box (at most 1e10)."""
    room = 1e10
    for xi, di, l, h in zip(x, d, lo, hi):
        if di < 0.0:
            room = min(room, (l - xi) / di if l - xi < 0.0 else 0.0)
        elif di > 0.0:
            room = min(room, (h - xi) / di if h - xi > 0.0 else 0.0)
    return room


def minimize_in_box(fun: Callable, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize fun over lo <= x <= hi from x0 clipped into the box; returns (x, value).

    fun(x) returns (value, gradient). A start whose gradient is zero, such
    as a likelihood's sentinel value, is returned as it is.
    """
    x = np.minimum(np.maximum(np.asarray(x0, dtype=float), lo), hi)
    f, g = fun(x)
    seen = {x.tobytes(): (f, g)}  # line searches come back to points evaluated before
    lo_, hi_, eye = lo.tolist(), hi.tolist(), np.eye(len(x))
    S, Y = [], []  # curvature pairs, oldest first
    for it in range(MAX_ITER):
        xs, gs = x.tolist(), g.tolist()
        d, free, breaks, pg = _projected_path(xs, gs, lo_, hi_)
        if pg <= PGTOL:
            break
        try:
            B, theta = _model_matrix(S, Y, eye) if S else (eye, 1.0)
            xcp, Bz = _cauchy_point(xs, gs, d, free, breaks, B, theta, lo_, hi_)
            z = np.array(_subspace_point(x, g, B, xcp, Bz, free, lo_, hi_) if S and any(free) else xcp)
        except np.linalg.LinAlgError:  # a singular model matrix: start it afresh
            S, Y = [], []
            continue
        d = z - x
        slope0 = float(g @ d)
        found = None
        if slope0 < 0.0:
            stpmax = _room(xs, d.tolist(), lo_, hi_) if it else 1.0

            def phi(stp):
                xt = z if stp == 1.0 else x + stp * d
                key = xt.tobytes()
                if key not in seen:
                    seen[key] = fun(xt)
                ft, gt = seen[key]
                slope = float(gt @ d)
                return ft, slope, (stp, xt, ft, gt, slope)

            found = _line_search(phi, f, slope0, stpmax)
        if found is None:  # no acceptable step: start the model afresh, or stop if it was fresh
            if not S:
                break
            S, Y = [], []
            continue
        stp, x_new, f_new, g_new, slope = found
        if f - f_new <= FTOL * max(abs(f), abs(f_new), 1.0):
            return x_new, f_new
        if (slope - slope0) * stp > EPS * -slope0 * stp:  # s.y > 0: keep the pair
            S.append(stp * d)
            Y.append(g_new - g)
            del S[:-MEMORY], Y[:-MEMORY]
        x, f, g = x_new, f_new, g_new
    return x, f
