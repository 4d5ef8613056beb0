"""Column type inference from profiles.

A column may carry several candidate types (an integer code column is both
numeric and categorical); the first matching rule decides the primary type
and downstream strategies may attach transformers for any candidate.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .data_core import ColumnProfile
from .errors import AllColumnsIgnored


class ColumnType(Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    TEXT = "text"
    DATETIME = "datetime"
    IGNORED = "ignored"


# Rule order is load-bearing: the first match is the primary type.
def detect_column_type(p: ColumnProfile) -> list[ColumnType]:
    """Return all matching types, primary first; [IGNORED] when none match."""
    matches = []
    if p.numeric_parse_fraction == 1.0:
        matches.append(ColumnType.NUMERIC)
    if p.n_unique < 20:
        matches.append(ColumnType.CATEGORICAL)
    if p.alpha_token_fraction >= 0.5 and p.mean_token_count >= 3:
        matches.append(ColumnType.TEXT)
    if p.datetime_parse_fraction >= 0.9:
        matches.append(ColumnType.DATETIME)
    return matches if matches else [ColumnType.IGNORED]


@dataclass
class SchemaEntry:
    name: str
    candidates: list[ColumnType]

    @property
    def primary(self) -> ColumnType:
        return self.candidates[0]

    @property
    def ambiguous(self) -> bool:
        return len(self.candidates) > 1


@dataclass
class SchemaReport:
    entries: list[SchemaEntry]

    def columns_of(self, ctype: ColumnType) -> list[str]:
        """Names of columns whose primary type is ctype."""
        return [e.name for e in self.entries if e.primary == ctype]

    def entry(self, name: str) -> SchemaEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    @property
    def names(self) -> list[str]:
        return [e.name for e in self.entries]


def build_schema(profiles: Sequence[ColumnProfile], names: Sequence[str]) -> SchemaReport:
    """Detect a type set for each feature column (the target is not passed in).

    Raises AllColumnsIgnored when no column matches any rule.
    """
    if len(names) != len(profiles):
        raise ValueError("names and profiles must align")
    entries = [SchemaEntry(name=n, candidates=detect_column_type(p)) for n, p in zip(names, profiles)]
    if entries and all(e.primary == ColumnType.IGNORED for e in entries):
        raise AllColumnsIgnored("no feature column matched any type rule")
    return SchemaReport(entries=entries)
