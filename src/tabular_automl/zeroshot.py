"""Offline portfolio optimization over a configuration-by-dataset loss table.

Given B candidate configurations evaluated on D datasets, select the k rows
minimizing sum over datasets of the best selected loss. The exact solver
enumerates k-subsets (test oracle, guarded); the greedy solver scales.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .data_core import DEFAULT_VALID_FRACTION
from .errors import OptionOutOfRange, TooLarge
from .files import dump_json, replacing
from .orchestrator.job import Analysis, score_strategy
from .strategy import Strategy, StrategyPortfolio, is_applicable
from .strategy.core import load_portfolio, save_portfolio  # noqa: F401 (re-exported)
from .strategy.core import strategy_from_dict, strategy_to_dict

FAILURE_PENALTY = 1.5
EXACT_GUARD = 10**6


@dataclass
class ZeroShotOptions:
    """The options of `automl zeroshot` besides its datasets and output_dir."""

    k: int = 5  # portfolio size
    solver: str = "greedy"  # or "exact"
    seed: int = 0
    valid_fraction: float = DEFAULT_VALID_FRACTION
    max_configs: Optional[int] = None  # score only the first this many configs

    def __post_init__(self):
        if self.solver not in ("greedy", "exact"):
            raise OptionOutOfRange(f"solver must be greedy or exact, got {self.solver!r}")
        if self.max_configs is not None and self.max_configs < 1:
            raise OptionOutOfRange(f"max_configs must be at least 1, got {self.max_configs}")
        if self.seed < 0:
            raise OptionOutOfRange(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.valid_fraction < 1:
            raise OptionOutOfRange(f"valid_fraction must be in (0,1), got {self.valid_fraction}")


@dataclass
class ZeroShotConfig:
    """One table row: a strategy plus a concrete HP configuration."""

    strategy: Strategy
    hp: dict


@dataclass
class DatasetHandle:
    """One table column: a dataset as a job analyzes it (`job.analyze_table`),
    with its problem, train and valid folds, schema and meta-features."""

    id: str
    analysis: Analysis


@dataclass
class PerformanceTable:
    losses: np.ndarray  # B x D
    configs: list[ZeroShotConfig]
    dataset_ids: list[str]
    normalization: str = "raw"

    def __post_init__(self):
        self.losses = np.asarray(self.losses, dtype=float)
        if self.losses.shape != (len(self.configs), len(self.dataset_ids)):
            raise ValueError("table shape does not match descriptors")
        if not np.all(np.isfinite(self.losses)) or np.any(self.losses < 0):
            raise ValueError("losses must be finite and non-negative")


@dataclass
class PortfolioSelection:
    indices: list[int]
    objective: float


def _evaluate_cell(config: ZeroShotConfig, handle: DatasetHandle, seed: int) -> float:
    a = handle.analysis
    if not is_applicable(config.strategy, a.schema, a.mf):
        raise ValueError(f"strategy {config.strategy.id} not applicable to {handle.id}")
    return score_strategy(config.strategy, config.hp, a, seed).value


def build_performance_table(
    configs: list[ZeroShotConfig],
    collection: list[DatasetHandle],
    seed: int,
    evaluator: Optional[Callable] = None,
) -> PerformanceTable:
    """Evaluate every configuration on every dataset.

    Failed cells never abort the table: they get 1.5x the worst finite loss
    observed in their column (1.0 when the whole column failed).
    """
    if not configs or not collection:
        raise ValueError("need at least one configuration and one dataset")
    evaluator = evaluator or _evaluate_cell
    B, D = len(configs), len(collection)
    raw = np.full((B, D), np.nan)
    for j, handle in enumerate(collection):
        for i, config in enumerate(configs):
            try:
                raw[i, j] = evaluator(config, handle, seed)
            except Exception:
                pass  # left as NaN, penalized below

    losses = raw.copy()
    for j in range(D):
        col = raw[:, j]
        finite = col[np.isfinite(col)]
        fallback = FAILURE_PENALTY * float(finite.max()) if len(finite) else 1.0
        losses[~np.isfinite(col), j] = fallback
    return PerformanceTable(
        losses=losses, configs=configs, dataset_ids=[h.id for h in collection]
    )


def normalize(P: PerformanceTable) -> PerformanceTable:
    """Min-max scale each column to [0,1]; constant columns map to 0."""
    scaled = np.zeros_like(P.losses)
    for j in range(P.losses.shape[1]):
        col = P.losses[:, j]
        lo, hi = float(col.min()), float(col.max())
        if hi > lo:
            scaled[:, j] = (col - lo) / (hi - lo)
    return PerformanceTable(
        losses=scaled,
        configs=P.configs,
        dataset_ids=list(P.dataset_ids),
        normalization="minmax",
    )


def _objective(losses: np.ndarray, indices) -> float:
    return float(losses[list(indices), :].min(axis=0).sum())


def select_portfolio_exact(P: PerformanceTable, k: int) -> PortfolioSelection:
    """Exhaustive optimum over all k-subsets; ties break lexicographically."""
    B = len(P.configs)
    if not 1 <= k <= B:
        raise ValueError(f"k must be in [1, {B}], got {k}")
    if math.comb(B, k) > EXACT_GUARD:
        raise TooLarge(f"C({B},{k}) exceeds the enumeration guard")
    best_obj = math.inf
    best = None
    for subset in itertools.combinations(range(B), k):
        obj = _objective(P.losses, subset)
        if obj < best_obj:
            best_obj = obj
            best = subset
    return PortfolioSelection(indices=list(best), objective=best_obj)


def select_portfolio_greedy(P: PerformanceTable, k: int) -> PortfolioSelection:
    """Iteratively add the row with the largest objective decrease."""
    B = len(P.configs)
    if not 1 <= k <= B:
        raise ValueError(f"k must be in [1, {B}], got {k}")
    selected: list[int] = []
    column_best = np.full(P.losses.shape[1], np.inf)
    for _ in range(k):
        best_obj = math.inf
        best_row = None
        for i in range(B):
            if i in selected:
                continue
            obj = float(np.minimum(column_best, P.losses[i]).sum())
            if obj < best_obj:
                best_obj = obj
                best_row = i
        selected.append(best_row)
        column_best = np.minimum(column_best, P.losses[best_row])
    return PortfolioSelection(indices=selected, objective=float(column_best.sum()))


def selection_to_portfolio(P: PerformanceTable, sel: PortfolioSelection) -> StrategyPortfolio:
    """Package selected rows as a strategy portfolio for recommendation.

    Each selected row's HP config becomes the first zero-shot seed of its
    strategy copy; remaining seed slots keep the strategy's own seeds.
    """
    strategies = []
    used_ids = set()
    for rank, i in enumerate(sel.indices):
        cfg = P.configs[i]
        base = strategy_to_dict(cfg.strategy)
        new_id = cfg.strategy.id if cfg.strategy.id not in used_ids else f"{cfg.strategy.id}.{rank}"
        used_ids.add(new_id)
        base["id"] = new_id
        base["seeds"] = ([dict(cfg.hp)] + base.get("seeds", []))[:5]
        strategies.append(strategy_from_dict(base))
    return StrategyPortfolio(
        strategies=strategies,
        metadata={
            "source": "zeroshot",
            "table_hash": table_hash(P),
            "objective": sel.objective,
            "normalization": P.normalization,
        },
    )


def table_hash(P: PerformanceTable) -> str:
    return hashlib.sha256(render_table_csv(P).encode("utf-8")).hexdigest()


def render_table_csv(P: PerformanceTable) -> str:
    rows = [["config"] + list(P.dataset_ids)]
    for i, cfg in enumerate(P.configs):
        rows.append([f"{i}:{cfg.strategy.id}"] + [repr(x) for x in P.losses[i].tolist()])
    return "\n".join(",".join(map(str, r)) for r in rows) + "\n"


def save_performance_table(P: PerformanceTable, csv_path) -> None:
    """CSV of losses plus a JSON sidecar with full config descriptors."""
    csv_path = Path(csv_path)
    with replacing(csv_path) as f:
        f.write(render_table_csv(P))
    sidecar = {
        "normalization": P.normalization,
        "dataset_ids": list(P.dataset_ids),
        "configs": [
            {"strategy": strategy_to_dict(c.strategy), "hp": dict(c.hp)} for c in P.configs
        ],
    }
    dump_json(sidecar, csv_path.with_suffix(".json"))

