"""Linear models trained with mini-batch gradient descent.

Links: identity (squared loss), logistic, softmax. L2 applies to weights
only, never the bias. Weights start at zero so zero-epoch models predict
the link of 0 exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ArityMismatch, NonFiniteInput, SingleClass

BATCH_SIZE = 32


@dataclass
class LinearModel:
    link: str  # identity | logistic | softmax
    n_features: int
    n_classes: Optional[int]
    weights: np.ndarray  # (d,) for identity/logistic, (d, K) for softmax
    bias: np.ndarray  # (1,) or (K,)

    def to_dict(self) -> dict:
        return {
            "algorithm": "linear",
            "link": self.link,
            "n_features": self.n_features,
            "n_classes": self.n_classes,
            "weights": self.weights.tolist(),
            "bias": self.bias.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearModel":
        return cls(
            link=d["link"],
            n_features=d["n_features"],
            n_classes=d["n_classes"],
            weights=np.array(d["weights"], dtype=float),
            bias=np.array(d["bias"], dtype=float),
        )


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _residual(w, b, X, y, link, weights):
    """Link output and weighted residual (output - target) * row weight."""
    if link == "identity":
        pred = X @ w + b[0]
        return pred, (pred - y) * weights
    if link == "logistic":
        p = _sigmoid(X @ w + b[0])
        p = np.clip(p, 1e-12, 1 - 1e-12)
        return p, (p - y) * weights
    if link == "softmax":
        P = _softmax(X @ w + b[None, :])
        P = np.clip(P, 1e-12, 1.0)
        onehot = np.zeros(P.shape)
        onehot[np.arange(len(y)), y.astype(int)] = 1.0
        return P, (P - onehot) * weights[:, None]
    raise ValueError(f"unknown link {link!r}")


def _grad(w, X, resid, l2, wsum):
    """Gradients in w and b; the bias one is a scalar for the one-output links."""
    return X.T @ resid / wsum + l2 * w, resid.sum(axis=0) / wsum


def loss_and_grad(
    w: np.ndarray,
    b: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    link: str,
    l2: float,
    weights: np.ndarray,
):
    """Mean per-row loss plus L2 penalty, with gradients in (w, b).

    Exposed separately so the gradient can be checked against finite
    differences; training steps compute the same gradient without the loss.
    """
    wsum = weights.sum()
    out, resid = _residual(w, b, X, y, link, weights)
    if link == "identity":
        loss = 0.5 * float(resid @ (out - y)) / wsum + 0.5 * l2 * float(w @ w)
    elif link == "logistic":
        loss = -float(np.sum(weights * (y * np.log(out) + (1 - y) * np.log(1 - out)))) / wsum
        loss += 0.5 * l2 * float(w @ w)
    else:
        loss = -float(np.sum(weights * np.log(out[np.arange(len(y)), y.astype(int)]))) / wsum
        loss += 0.5 * l2 * float(np.sum(w * w))
    gw, gb = _grad(w, X, resid, l2, wsum)
    return loss, gw, np.reshape(gb, b.shape)


def train_linear(
    X: np.ndarray,
    y: np.ndarray,
    hp: dict,
    weights: Optional[np.ndarray] = None,
    seed: int = 0,
) -> LinearModel:
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
    full = n - n % BATCH_SIZE
    for _ in range(epochs):
        order = rng.permutation(n)
        Xe, ye, we = X[order], yf[order], weights[order]
        # every batch's weight sum in one call; a row adds up in the order its slice would
        wsums = we[:full].reshape(-1, BATCH_SIZE).sum(axis=1).tolist()
        if full < n:
            wsums.append(we[full:].sum())
        for step, start in enumerate(range(0, n, BATCH_SIZE)):
            rows = slice(start, start + BATCH_SIZE)
            _, resid = _residual(w, b, Xe[rows], ye[rows], link, we[rows])
            gw, gb = _grad(w, Xe[rows], resid, l2, wsums[step])
            w = w - lr * gw
            b = b - lr * gb
        # inf and NaN weights never turn finite again: stop at the first such epoch
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise NonFiniteInput("training diverged to non-finite weights")
    return LinearModel(link=link, n_features=d, n_classes=n_classes, weights=w, bias=b)


def predict_linear(model: LinearModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ArityMismatch(f"expected {model.n_features} features, got {X.shape}")
    if model.link == "identity":
        return X @ model.weights + model.bias[0]
    if model.link == "logistic":
        p1 = _sigmoid(X @ model.weights + model.bias[0])
        return np.column_stack([1 - p1, p1])
    return _softmax(X @ model.weights + model.bias[None, :])
