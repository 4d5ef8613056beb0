"""Peak-memory estimation and instance selection.

A linear model over dataset shape predicts worst-case training memory
(worst case over the HP search space, since the tuner may pick any depth);
the recommender takes the cheapest catalog entry that covers the estimate
with a 1.2x safety margin.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from importlib import resources as _importlib_resources
from typing import Optional

from .errors import OverCapacityWarning
from .learners import HpSpace

SAFETY_FACTOR = 1.2


@dataclass
class MemoryModel:
    intercept_bytes: float
    bytes_per_cell: float
    depth_multiplier: float = 0.0  # GBT only

    def __post_init__(self):
        if min(self.intercept_bytes, self.bytes_per_cell, self.depth_multiplier) < 0:
            raise ValueError("memory model coefficients must be non-negative")


def load_memory_models(path=None) -> dict[str, MemoryModel]:
    """Per-algorithm coefficient config; refit with scripts/calibrate_memory.py."""
    if path is None:
        text = (
            _importlib_resources.files("tabular_automl")
            .joinpath("data/memory_models.json")
            .read_text(encoding="utf-8")
        )
    else:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    return {name: MemoryModel(**coeffs) for name, coeffs in json.loads(text).items()}


DEFAULT_MEMORY_MODELS = load_memory_models()

GB = 1024**3


@dataclass
class InstanceType:
    name: str
    memory_bytes: int
    hourly_cost: float


@dataclass
class InstanceCatalog:
    instances: list[InstanceType]

    def __post_init__(self):
        if not self.instances:
            raise ValueError("catalog cannot be empty")
        if any(i.memory_bytes <= 0 for i in self.instances):
            raise ValueError("capacities must be positive")
        self.instances = sorted(self.instances, key=lambda i: (i.hourly_cost, i.memory_bytes))


DEFAULT_CATALOG = InstanceCatalog(
    [
        InstanceType("c1.small", 2 * GB, 1.0),
        InstanceType("c1.medium", 4 * GB, 1.9),
        InstanceType("c1.large", 8 * GB, 3.6),
        InstanceType("c2.xlarge", 16 * GB, 7.0),
        InstanceType("c2.2xlarge", 32 * GB, 13.5),
        InstanceType("c2.4xlarge", 64 * GB, 26.0),
    ]
)


@dataclass
class ResourcePlan:
    instance: InstanceType
    instance_count: int
    estimate_bytes: float

    def to_dict(self) -> dict:
        return {
            "instance": self.instance.name,
            "memory_bytes": self.instance.memory_bytes,
            "hourly_cost": self.instance.hourly_cost,
            "instance_count": self.instance_count,
            "memory_estimate_bytes": int(self.estimate_bytes),
        }


def estimate_memory(
    algorithm: str,
    n_rows: int,
    n_cols: int,
    density: float,
    space: Optional[HpSpace],
    model: MemoryModel,
) -> float:
    """Predicted peak training bytes for the most memory-hungry HP choice."""
    if n_rows <= 0 or n_cols <= 0:
        raise ValueError("dimensions must be positive")
    if algorithm == "linear":
        return model.intercept_bytes + model.bytes_per_cell * n_cols
    if algorithm != "gbt":
        raise ValueError(f"unknown algorithm {algorithm!r}")
    base = model.intercept_bytes + model.bytes_per_cell * n_rows * n_cols * density
    depth_hi = 0.0
    if space is not None:
        for dom in space.tunables:
            if dom.name == "max_depth":
                depth_hi = float(dom.hi)
        depth_hi = float(space.statics.get("max_depth", depth_hi))
    return base * (1.0 + model.depth_multiplier * depth_hi)


def recommend(estimate: float, catalog: InstanceCatalog = DEFAULT_CATALOG) -> ResourcePlan:
    """Cheapest instance covering estimate x safety factor; largest if none."""
    needed = estimate * SAFETY_FACTOR
    for inst in catalog.instances:  # sorted ascending by cost
        if inst.memory_bytes >= needed:
            return ResourcePlan(instance=inst, instance_count=1, estimate_bytes=estimate)
    largest = max(catalog.instances, key=lambda i: i.memory_bytes)
    warnings.warn(
        f"estimate {needed / GB:.2f} GB exceeds every instance; using {largest.name}",
        OverCapacityWarning,
    )
    return ResourcePlan(instance=largest, instance_count=1, estimate_bytes=estimate)


def plan_for(
    algorithm: str,
    n_rows: int,
    n_cols: int,
    density: float,
    space: Optional[HpSpace] = None,
) -> ResourcePlan:
    model = DEFAULT_MEMORY_MODELS[algorithm]
    return recommend(estimate_memory(algorithm, n_rows, n_cols, density, space, model))
