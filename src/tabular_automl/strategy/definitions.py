"""Pipeline definition files: a line-oriented, human-editable text format.

One file per pipeline. Serialization is canonical (sections in a fixed
order, sorted keys, repr floats) so generated files round-trip
byte-identically; hand-edited files, whose sections may come in any order,
may normalize on re-serialization but parse losslessly.
"""
from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterator, NoReturn, Union

from ..data_core import PROBLEM_KINDS
from ..errors import ParseError, ValidationError
from ..files import is_plain_name, replacing
from ..learners import ALGORITHMS, HpDomain, HpSpace
from ..transforms import TransformerSpec
from .core import PipelineDefinition

HEADER = "# pipeline definition v1"
SECTIONS = ("pipeline", "transformers", "algorithm", "tunables", "seeds", "resources", "provenance")

_SECTION_RE = re.compile(r"^\[([a-z_]+)\]$")
_KV_RE = re.compile(r"^([A-Za-z0-9_]+)\s*=\s*(.*)$")
_TRANSFORMER_RE = re.compile(r"^([a-z_]+)(?:\(([^)]*)\))?(?:\s+on\s+(.+))?$")
_DOMAIN_RE = re.compile(r"^(int|float|log_float)\(\s*([^,\s]+)\s*,\s*([^)\s]+)\s*\)$")


def _fmt_number(x) -> str:
    if isinstance(x, bool):
        raise ValueError("booleans not supported in definitions")
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _fmt_value(x) -> str:
    return x if isinstance(x, str) else _fmt_number(x)


def _parse_value(raw: str) -> Union[int, float, str]:
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def serialize_definition(d: PipelineDefinition) -> str:
    """Render one definition in canonical text form."""
    if not is_plain_name(d.pipeline_id):
        raise ValueError(f"pipeline id {d.pipeline_id!r} is not filesystem-safe")
    lines = [HEADER, "", "[pipeline]", f"id = {d.pipeline_id}", f"problem = {d.problem_kind}"]
    if d.n_classes is not None:
        lines.append(f"classes = {d.n_classes}")

    lines += ["", "[transformers]"]
    for spec in d.transformers:
        part = spec.kind
        if spec.params:
            inner = ", ".join(f"{k}={_fmt_number(v)}" for k, v in sorted(spec.params.items()))
            part += f"({inner})"
        if spec.select_columns:
            part += " on " + ", ".join(json.dumps(c) for c in spec.select_columns)
        lines.append(part)

    lines += ["", "[algorithm]", f"name = {d.algorithm}"]
    for k in sorted(d.space.statics):
        lines.append(f"{k} = {_fmt_value(d.space.statics[k])}")

    lines += ["", "[tunables]"]
    for dom in d.space.tunables:
        if dom.kind == "int":
            lines.append(f"{dom.name} = int({int(dom.lo)}, {int(dom.hi)})")
        else:
            lines.append(f"{dom.name} = {dom.kind}({_fmt_number(dom.lo)}, {_fmt_number(dom.hi)})")

    lines += ["", "[seeds]"]
    for seed in d.seeds:
        lines.append(json.dumps(seed, sort_keys=True))

    if d.resources is not None:
        lines += ["", "[resources]"]
        for k in sorted(d.resources):
            lines.append(f"{k} = {_fmt_value(d.resources[k])}")

    lines += ["", "[provenance]", f"strategy = {d.provenance.get('strategy', d.pipeline_id)}"]
    for firing in d.provenance.get("firings", []):
        lines.append(f"firing = {json.dumps(firing, sort_keys=True)}")
    return "\n".join(lines) + "\n"


def serialize_definitions(defs: list[PipelineDefinition], path) -> list[Path]:
    """Write one `<pipeline_id>.pipeline` file per definition into a directory."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for d in defs:
        target = directory / f"{d.pipeline_id}.pipeline"
        with replacing(target) as f:
            f.write(serialize_definition(d))
        written.append(target)
    return written


def _fail(path, n: int, message: str, kind=ParseError) -> NoReturn:
    raise kind(message, path=path, line=n)


def _parse_transformer_line(path, n: int, line: str) -> TransformerSpec:
    m = _TRANSFORMER_RE.match(line)
    if not m:
        _fail(path, n, f"cannot parse transformer line: {line!r}")
    kind, raw_params, raw_cols = m.group(1), m.group(2), m.group(3)
    params = {}
    if raw_params:
        for piece in raw_params.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                _fail(path, n, f"transformer parameter {piece!r} is not name=value")
            pname, pval = (p.strip() for p in piece.split("=", 1))
            val = _parse_value(pval)
            if isinstance(val, str):
                _fail(path, n, f"transformer parameter {pname!r} must be numeric")
            params[pname] = val
    columns = None
    if raw_cols:
        try:
            columns = json.loads(f"[{raw_cols}]")
        except json.JSONDecodeError:
            _fail(path, n, f"cannot parse column list: {raw_cols!r}")
        if not all(isinstance(c, str) for c in columns):
            _fail(path, n, "column names must be quoted strings")
    try:
        return TransformerSpec(kind=kind, params=params, select_columns=columns)
    except ValueError as exc:
        _fail(path, n, str(exc), ValidationError)


def _parse_domain_line(path, n: int, name: str, raw: str) -> HpDomain:
    m = _DOMAIN_RE.match(raw)
    if not m:
        _fail(path, n, f"cannot parse tunable domain: {raw!r}")
    kind, lo_s, hi_s = m.groups()
    lo, hi = _parse_value(lo_s), _parse_value(hi_s)
    if isinstance(lo, str) or isinstance(hi, str):
        _fail(path, n, "domain bounds must be numeric")
    try:
        return HpDomain(name=name, kind=kind, lo=float(lo), hi=float(hi))
    except ValueError as exc:
        _fail(path, n, str(exc), ValidationError)


def _sections(lines: list[str], path) -> dict[str, list[tuple[int, str]]]:
    """Each section's content lines with their line numbers; blank lines and
    comments dropped. Every fault of the file's section structure fails here."""
    sections: dict[str, list[tuple[int, str]]] = {}
    body = None
    for n, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m is None:
            if body is None:
                _fail(path, n, f"content before any section: {line!r}")
            body.append((n, line))
        elif m.group(1) not in SECTIONS:
            _fail(path, n, f"unknown section [{m.group(1)}]")
        elif m.group(1) in sections:
            _fail(path, n, f"duplicate section [{m.group(1)}]")
        else:
            body = sections[m.group(1)] = []
    for required in SECTIONS[:5]:  # [resources] and [provenance] may be left out
        if required not in sections:
            _fail(path, len(lines), f"missing required section [{required}]")
    return sections


def _key_values(body, path, expected="key = value") -> Iterator[tuple[int, str, str]]:
    """A section's `key = value` lines as (line number, key, raw value)."""
    for n, line in body:
        m = _KV_RE.match(line)
        if not m:
            _fail(path, n, f"expected {expected}, got {line!r}")
        yield n, m.group(1), m.group(2).strip()


def parse_definition_text(text: str, path="<input>") -> PipelineDefinition:
    lines = text.split("\n")
    sections = _sections(lines, path)

    pipeline = {key: (n, value) for n, key, value in _key_values(sections["pipeline"], path)}
    if "id" not in pipeline:
        _fail(path, 1, "missing pipeline id", ValidationError)
    id_line, pipeline_id = pipeline["id"]
    if not is_plain_name(pipeline_id):
        _fail(path, id_line, f"invalid pipeline id {pipeline_id!r}", ValidationError)
    if "problem" not in pipeline:
        _fail(path, id_line, "missing problem kind", ValidationError)
    prob_line, problem_kind = pipeline["problem"]
    if problem_kind not in PROBLEM_KINDS:
        _fail(path, prob_line, f"unknown problem kind {problem_kind!r}", ValidationError)
    n_classes = None
    if "classes" in pipeline:
        cls_line, raw_classes = pipeline["classes"]
        n_classes = _parse_value(raw_classes)
        if not isinstance(n_classes, int) or n_classes < 2:
            _fail(path, cls_line, f"classes must be an integer >= 2, got {raw_classes!r}",
                  ValidationError)
    if problem_kind != "regression" and n_classes is None:
        _fail(path, prob_line, "classification definitions need a classes line", ValidationError)

    transformers = [_parse_transformer_line(path, n, line) for n, line in sections["transformers"]]

    algorithm, statics = None, {}
    for n, key, value in _key_values(sections["algorithm"], path):
        if key != "name":
            statics[key] = _parse_value(value)
        elif value not in ALGORITHMS:
            _fail(path, n, f"unknown algorithm {value!r}", ValidationError)
        else:
            algorithm = value

    tunables = [_parse_domain_line(path, n, name, raw) for n, name, raw
                in _key_values(sections["tunables"], path, "name = domain(...)")]

    seeds = []
    for n, line in sections["seeds"]:
        try:
            seeds.append(json.loads(line))
        except json.JSONDecodeError as exc:
            _fail(path, n, f"seed is not valid JSON: {exc}")
        if not isinstance(seeds[-1], dict):
            _fail(path, n, "seed must be a JSON object")

    resources = None
    if "resources" in sections:
        resources = {key: _parse_value(value)
                     for _, key, value in _key_values(sections["resources"], path)}

    provenance = {"strategy": pipeline_id, "firings": []}
    for n, key, value in _key_values(sections.get("provenance", []), path):
        if key == "strategy":
            provenance["strategy"] = value
        elif key == "firing":
            try:
                provenance["firings"].append(json.loads(value))
            except json.JSONDecodeError as exc:
                _fail(path, n, f"firing is not valid JSON: {exc}")
        else:
            _fail(path, n, f"unknown provenance key {key!r}")

    if algorithm is None:
        _fail(path, len(lines), "missing algorithm name", ValidationError)
    try:
        space = HpSpace(statics=statics, tunables=tunables)
    except ValueError as exc:
        _fail(path, len(lines), str(exc), ValidationError)
    if len(seeds) > 5:
        _fail(path, len(lines), "at most 5 zero-shot seeds", ValidationError)

    return PipelineDefinition(
        pipeline_id=pipeline_id,
        problem_kind=problem_kind,
        n_classes=n_classes,
        transformers=transformers,
        algorithm=algorithm,
        space=space,
        seeds=seeds,
        resources=resources,
        provenance=provenance,
    )


def parse_definitions(path) -> list[PipelineDefinition]:
    """Parse a definition file, or every *.pipeline file in a directory."""
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.pipeline"))
        if not files:
            raise ParseError("no *.pipeline files found", path=str(p))
        return [parse_definition_text(f.read_text(encoding="utf-8"), str(f)) for f in files]
    return [parse_definition_text(p.read_text(encoding="utf-8"), str(p))]
