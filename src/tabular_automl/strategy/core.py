"""Strategy DSL: conditional rules with symbolic parameters, realized per dataset.

A Strategy is dataset-independent: rules fire on column profiles or dataset
meta-features, actions are transformer templates whose parameters may be the
symbols X1..X4 (bound per strategy) or round(Xi * <meta field>). Realization
substitutes every symbol and pins columns, yielding a PipelineDefinition.
"""
from __future__ import annotations

import typing
from dataclasses import dataclass, field
from typing import Optional

from ..data_core import ColumnProfile, MetaFeatures, ProblemType
from ..errors import NoApplicableStrategy, RealizationMismatch
from ..files import dump_json, is_plain_name, load_json
from ..learners import ALGORITHMS, HpSpace, default_hp_space
from ..schema import ColumnType, SchemaReport
from ..transforms import COLUMN_KINDS, INT_PARAMS, MATRIX_KINDS, TransformerSpec

SYMBOLS = ("X1", "X2", "X3", "X4")
DEFAULT_BINDINGS = {"X1": 10.0, "X2": 5.0, "X3": 100.0, "X4": 0.5}
DEFAULT_TFIDF_MAX_FEATURES = 200

SINGLE_COLUMN = "single_column"
MULTI_COLUMN = "multi_column"

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
}


def _numeric_fields(cls) -> tuple:
    return tuple(sorted(name for name, hint in typing.get_type_hints(cls).items()
                        if hint in (int, float, Optional[int], Optional[float])))


# What a rule of each scope takes: its transformer kinds and the fields its
# condition may test. `round_mul` multiplies by a meta-feature in both.
_SCOPES = {
    SINGLE_COLUMN: (COLUMN_KINDS, _numeric_fields(ColumnProfile)),
    MULTI_COLUMN: (MATRIX_KINDS, _numeric_fields(MetaFeatures)),
}


def _is_value(v) -> bool:
    """A number or a symbol."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)) or v in SYMBOLS


def _is_param(v) -> bool:
    """A value, or {"round_mul": [value, meta-feature]}."""
    if isinstance(v, dict) and list(v) == ["round_mul"]:
        factor = v["round_mul"]
        return (isinstance(factor, list) and len(factor) == 2 and _is_value(factor[0])
                and factor[1] in _SCOPES[MULTI_COLUMN][1])
    return _is_value(v)


@dataclass
class StrategyRule:
    scope: str  # single_column | multi_column
    action: dict  # {"kind": ..., "params": {name: literal | "Xi" | {"round_mul": ["Xi", mf_field]}}}
    column_type: Optional[ColumnType] = None  # single_column only
    condition: Optional[dict] = None  # {"field", "op", "value"}; None fires always

    def __post_init__(self):
        if self.scope not in (SINGLE_COLUMN, MULTI_COLUMN):
            raise ValueError(f"bad rule scope {self.scope!r}")
        if self.scope == SINGLE_COLUMN and self.column_type is None:
            raise ValueError("single-column rule needs a column_type")
        kinds, fields = _SCOPES[self.scope]
        kind, params = self.action.get("kind"), self.action.get("params", {})
        if kind not in kinds:
            raise ValueError(f"{self.scope} rules take {', '.join(kinds)}, got {kind!r}")
        names = sorted(INT_PARAMS.get(kind, {}))
        if sorted(params) != names or not all(map(_is_param, params.values())):
            raise ValueError(f"{kind} takes the parameters {names}, each a number, a symbol"
                             f" or round_mul, got {params}")
        cond = self.condition
        if cond is not None and not (set(cond) == {"field", "op", "value"} and cond["field"]
                                     in fields and cond["op"] in _OPS and _is_value(cond["value"])):
            raise ValueError(f"a {self.scope} condition tests one of {', '.join(fields)} by one"
                             f" of {' '.join(_OPS)} against a number or a symbol, got {cond}")


@dataclass
class Strategy:
    id: str
    algorithm: str
    rules: list[StrategyRule] = field(default_factory=list)
    bindings: dict = field(default_factory=lambda: dict(DEFAULT_BINDINGS))
    seeds: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if not is_plain_name(self.id):
            raise ValueError(f"strategy id {self.id!r} must be a plain file name")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if len(self.seeds) > 5:
            raise ValueError("at most 5 zero-shot seeds per strategy")
        for sym in self.bindings:
            if sym not in SYMBOLS:
                raise ValueError(f"unknown symbol {sym!r}")
        # single-column rules must precede multi-column rules
        seen_multi = False
        for r in self.rules:
            if r.scope == MULTI_COLUMN:
                seen_multi = True
            elif seen_multi:
                raise ValueError("single-column rules must precede multi-column rules")

    def transformer_kinds(self) -> set[str]:
        return {r.action["kind"] for r in self.rules}


@dataclass
class StrategyPortfolio:
    strategies: list[Strategy]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.strategies) > 10:
            raise ValueError("portfolio holds at most 10 strategies")
        ids = [s.id for s in self.strategies]
        if len(set(ids)) != len(ids):
            raise ValueError("strategy ids must be unique")


@dataclass
class PipelineDefinition:
    pipeline_id: str
    problem_kind: str
    n_classes: Optional[int]
    transformers: list[TransformerSpec]
    algorithm: str
    space: HpSpace
    seeds: list[dict]
    resources: Optional[dict] = None
    provenance: dict = field(default_factory=dict)


def strategy_to_dict(s: Strategy) -> dict:
    return {
        "id": s.id,
        "algorithm": s.algorithm,
        "bindings": dict(s.bindings),
        "seeds": [dict(seed) for seed in s.seeds],
        "rules": [
            {
                "scope": r.scope,
                "column_type": r.column_type.value if r.column_type else None,
                "condition": r.condition,
                "action": r.action,
            }
            for r in s.rules
        ],
    }


def strategy_from_dict(d: dict) -> Strategy:
    """The strategy `d` describes; a rule or value its checks reject raises
    `ValueError` naming the strategy."""
    try:
        rules = [
            StrategyRule(
                scope=r["scope"],
                column_type=ColumnType(r["column_type"]) if r.get("column_type") else None,
                condition=r.get("condition"),
                action=r["action"],
            )
            for r in d.get("rules", [])
        ]
        return Strategy(
            id=d["id"],
            algorithm=d["algorithm"],
            rules=rules,
            bindings=dict(d.get("bindings", DEFAULT_BINDINGS)),
            seeds=[dict(seed) for seed in d.get("seeds", [])],
        )
    except ValueError as exc:
        raise ValueError(f"strategy {d.get('id')!r}: {exc}") from None


def save_portfolio(portfolio: StrategyPortfolio, path) -> None:
    dump_json({"metadata": portfolio.metadata,
               "strategies": [strategy_to_dict(s) for s in portfolio.strategies]}, path)


def load_portfolio(path) -> StrategyPortfolio:
    doc = load_json(path)
    return StrategyPortfolio(
        strategies=[strategy_from_dict(s) for s in doc["strategies"]],
        metadata=doc.get("metadata", {}),
    )


def _resolve_value(v, bindings: dict, mf: MetaFeatures):
    """Substitute a rule parameter: literal, symbol, or round(Xi * mf field)."""
    if isinstance(v, str):
        if v not in bindings:
            raise RealizationMismatch(f"unbound symbol {v!r}")
        return bindings[v]
    if isinstance(v, dict):
        sym, mf_field = v["round_mul"]
        factor = bindings[sym] if isinstance(sym, str) else float(sym)
        return int(round(factor * getattr(mf, mf_field)))
    return v


def _concrete_params(action: dict, bindings: dict, mf: MetaFeatures) -> dict:
    ints = INT_PARAMS.get(action["kind"], {})
    out = {}
    for name, v in action.get("params", {}).items():
        resolved = _resolve_value(v, bindings, mf)
        out[name] = int(round(resolved)) if name in ints else resolved
    return out


def _condition_holds(cond: Optional[dict], subject, bindings: dict) -> bool:
    if cond is None:
        return True
    actual = getattr(subject, cond["field"])
    if actual is None:
        return False
    threshold = cond["value"]
    if isinstance(threshold, str):
        threshold = bindings[threshold]
    return _OPS[cond["op"]](actual, threshold)


def is_applicable(s: Strategy, schema: SchemaReport, mf: MetaFeatures) -> bool:
    """Gate check: every rule's inputs exist on this dataset."""
    if "tfidf" in s.transformer_kinds() and not schema.columns_of(ColumnType.TEXT):
        return False
    if "pca" in s.transformer_kinds() and mf.n_cols < 3:
        return False
    for r in s.rules:
        if r.scope == SINGLE_COLUMN and not schema.columns_of(r.column_type):
            return False
    return True


def recommend_strategies(
    mf: MetaFeatures, schema: SchemaReport, portfolio: StrategyPortfolio
) -> list[Strategy]:
    """Filter the portfolio down to strategies applicable to this dataset."""
    if not portfolio.strategies:
        raise NoApplicableStrategy("portfolio is empty")
    kept = [s for s in portfolio.strategies if is_applicable(s, schema, mf)]
    if not kept:
        raise NoApplicableStrategy("no strategy passes the applicability gates")
    return kept[:10]


DEFAULT_TRANSFORMERS = {
    ColumnType.NUMERIC: ("standardize", {}),
    ColumnType.CATEGORICAL: ("one_hot", {}),
    ColumnType.TEXT: ("tfidf", {"max_features": DEFAULT_TFIDF_MAX_FEATURES}),
}


def realize(
    s: Strategy,
    schema: SchemaReport,
    profiles: dict[str, ColumnProfile],
    mf: MetaFeatures,
    problem: ProblemType,
) -> PipelineDefinition:
    """Instantiate a strategy on one dataset.

    Single-column rules are tried in order per column (first firing rule
    wins); columns no rule claimed get the per-type default. Multi-column
    rules then append whole-matrix transformers. The result contains no
    symbols and references only schema columns.
    """
    single_rules = [r for r in s.rules if r.scope == SINGLE_COLUMN]
    multi_rules = [r for r in s.rules if r.scope == MULTI_COLUMN]

    for r in single_rules:
        if not schema.columns_of(r.column_type):
            raise RealizationMismatch(
                f"strategy {s.id}: rule targets {r.column_type.value} but schema has none"
            )

    firings: list[dict] = []
    specs: list[TransformerSpec] = []
    for entry in schema.entries:
        chosen: Optional[TransformerSpec] = None
        for rule_index, r in enumerate(single_rules):
            if r.column_type != entry.primary:
                continue
            if not _condition_holds(r.condition, profiles[entry.name], s.bindings):
                continue
            chosen = TransformerSpec(
                kind=r.action["kind"],
                params=_concrete_params(r.action, s.bindings, mf),
                select_columns=[entry.name],
            )
            firings.append({"rule": rule_index, "column": entry.name})
            break
        if chosen is None and entry.primary in DEFAULT_TRANSFORMERS:
            kind, params = DEFAULT_TRANSFORMERS[entry.primary]
            chosen = TransformerSpec(kind=kind, params=dict(params), select_columns=[entry.name])
        if chosen is not None:
            specs.append(chosen)

    for rule_index, r in enumerate(multi_rules):
        if not _condition_holds(r.condition, mf, s.bindings):
            continue
        specs.append(
            TransformerSpec(kind=r.action["kind"], params=_concrete_params(r.action, s.bindings, mf))
        )
        firings.append({"rule": len(single_rules) + rule_index, "scope": "multi"})

    return PipelineDefinition(
        pipeline_id=s.id,
        problem_kind=problem.kind,
        n_classes=problem.n_classes,
        transformers=specs,
        algorithm=s.algorithm,
        space=default_hp_space(s.algorithm, problem, mf.n_rows, mf.n_cols),
        seeds=[dict(seed) for seed in s.seeds],
        provenance={"strategy": s.id, "firings": firings},
    )
