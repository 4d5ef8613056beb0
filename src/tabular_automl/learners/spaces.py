"""Hyperparameter domains and the data-dependent default search spaces."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..data_core import ProblemType

INT = "int"
FLOAT = "float"
LOG_FLOAT = "log_float"
CATEGORICAL = "categorical"


@dataclass
class HpDomain:
    name: str
    kind: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    choices: Optional[list] = None

    def __post_init__(self):
        if self.kind == CATEGORICAL:
            if not self.choices:
                raise ValueError(f"{self.name}: categorical domain needs choices")
            return
        if self.lo is None or self.hi is None or not self.lo < self.hi:
            raise ValueError(f"{self.name}: need lo < hi, got [{self.lo}, {self.hi}]")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"{self.name}: need finite bounds, got [{self.lo}, {self.hi}]")
        if self.kind == INT and not (float(self.lo).is_integer() and float(self.hi).is_integer()):
            raise ValueError(f"{self.name}: need integer bounds, got [{self.lo}, {self.hi}]")
        if self.kind == LOG_FLOAT and self.lo <= 0:
            raise ValueError(f"{self.name}: log domain needs lo > 0")

    def sample(self, rng: np.random.Generator):
        if self.kind == INT:
            return int(rng.integers(int(self.lo), int(self.hi) + 1))
        if self.kind == FLOAT:
            return float(rng.uniform(self.lo, self.hi))
        if self.kind == LOG_FLOAT:
            return float(math.exp(rng.uniform(math.log(self.lo), math.log(self.hi))))
        return self.choices[int(rng.integers(len(self.choices)))]

    def clamp(self, value):
        if self.kind == CATEGORICAL:
            return value if value in self.choices else self.choices[0]
        x = min(max(float(value), self.lo), self.hi)
        return int(round(x)) if self.kind == INT else float(x)

    def contains(self, value) -> bool:
        if self.kind == CATEGORICAL:
            return value in self.choices
        if self.kind == INT and float(value) != int(value):
            return False
        return self.lo <= float(value) <= self.hi

    # Map to/from [0,1] for the surrogate model.
    def to_unit(self, value) -> float:
        if self.kind == CATEGORICAL:
            return self.choices.index(value) / max(1, len(self.choices) - 1)
        if self.kind == LOG_FLOAT:
            return (math.log(value) - math.log(self.lo)) / (math.log(self.hi) - math.log(self.lo))
        return (float(value) - self.lo) / (self.hi - self.lo)

    def from_unit(self, u: float):
        u = min(max(u, 0.0), 1.0)
        if self.kind == CATEGORICAL:
            return self.choices[int(round(u * (len(self.choices) - 1)))]
        if self.kind == LOG_FLOAT:
            return float(math.exp(math.log(self.lo) + u * (math.log(self.hi) - math.log(self.lo))))
        x = self.lo + u * (self.hi - self.lo)
        return int(round(x)) if self.kind == INT else float(x)


@dataclass
class HpSpace:
    statics: dict = field(default_factory=dict)
    tunables: list[HpDomain] = field(default_factory=list)

    def __post_init__(self):
        overlap = set(self.statics) & {d.name for d in self.tunables}
        if overlap:
            raise ValueError(f"hyperparameters both static and tunable: {sorted(overlap)}")

    @property
    def tunable_names(self) -> list[str]:
        return [d.name for d in self.tunables]

    def domain(self, name: str) -> HpDomain:
        for d in self.tunables:
            if d.name == name:
                return d
        raise KeyError(name)

    def sample(self, rng: np.random.Generator) -> dict:
        config = dict(self.statics)
        config.update({d.name: d.sample(rng) for d in self.tunables})
        return config

    def clamp(self, config: dict) -> dict:
        """Project a config into this space; absent tunables get the midpoint."""
        out = dict(self.statics)
        for d in self.tunables:
            out[d.name] = d.clamp(config[d.name]) if d.name in config else d.from_unit(0.5)
        return out

    def contains(self, config: dict) -> bool:
        if set(config) != set(self.statics) | {d.name for d in self.tunables}:
            return False
        return all(d.contains(config[d.name]) for d in self.tunables)

    def to_unit(self, config: dict) -> np.ndarray:
        return np.array([d.to_unit(config[d.name]) for d in self.tunables])

    def from_unit(self, u: np.ndarray) -> dict:
        config = dict(self.statics)
        config.update({d.name: d.from_unit(x) for d, x in zip(self.tunables, u)})
        return config


def default_hp_space(algorithm: str, problem: ProblemType, n_rows: int, n_cols: int) -> HpSpace:
    """Search space sized so training scales without failures on small data.

    Tree depth is capped at log2(n_rows); min_child_rows collapses to a
    static 1 below 200 rows where its range would be empty.
    """
    if n_rows < 10:
        raise ValueError(f"need n_rows >= 10, got {n_rows}")

    if algorithm == "gbt":
        loss = {
            "regression": "squared_error",
            "binary_classification": "logistic",
            "multiclass_classification": "softmax_ovr",
        }[problem.kind]
        statics = {"loss": loss}
        tunables = [
            HpDomain("n_trees", INT, 10, 300),
            HpDomain("max_depth", INT, 2, min(10, int(math.floor(math.log2(n_rows))))),
            HpDomain("learning_rate", LOG_FLOAT, 0.01, 0.5),
        ]
        mcr_hi = max(1, n_rows // 100)
        if mcr_hi > 1:
            tunables.append(HpDomain("min_child_rows", INT, 1, mcr_hi))
        else:
            statics["min_child_rows"] = 1
        tunables.append(HpDomain("subsample", FLOAT, 0.5, 1.0))
        return HpSpace(statics=statics, tunables=tunables)

    if algorithm == "linear":
        link = {
            "regression": "identity",
            "binary_classification": "logistic",
            "multiclass_classification": "softmax",
        }[problem.kind]
        return HpSpace(
            statics={"link": link},
            tunables=[
                HpDomain("l2", LOG_FLOAT, 1e-6, 10.0),
                HpDomain("learning_rate", LOG_FLOAT, 1e-4, 1.0),
                HpDomain("epochs", INT, 5, 100),
            ],
        )

    raise ValueError(f"unknown algorithm {algorithm!r}")
