"""Pipeline definition files: a line-oriented, human-editable text format.

One file per pipeline, sections in fixed order. Serialization is canonical
(sorted keys, repr floats) so generated files round-trip byte-identically;
hand-edited files may normalize on re-serialization but parse losslessly.
"""
from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Optional, Union

from ..data_core import PROBLEM_KINDS
from ..errors import ParseError, ValidationError
from ..learners import ALGORITHMS, HpDomain, HpSpace
from ..transforms import TransformerSpec
from .core import PipelineDefinition

HEADER = "# pipeline definition v1"
SECTIONS = ("pipeline", "transformers", "algorithm", "tunables", "seeds", "resources", "provenance")

_ID_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
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
    if not _ID_RE.match(d.pipeline_id):
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
        target.write_text(serialize_definition(d), encoding="utf-8")
        written.append(target)
    return written


class _Reader:
    def __init__(self, text: str, path):
        self.lines = text.split("\n")
        self.path = path

    def fail(self, line_no: int, message: str, kind=ParseError):
        raise kind(message, path=self.path, line=line_no)


def _parse_transformer_line(rd: _Reader, n: int, line: str) -> TransformerSpec:
    m = _TRANSFORMER_RE.match(line)
    if not m:
        rd.fail(n, f"cannot parse transformer line: {line!r}")
    kind, raw_params, raw_cols = m.group(1), m.group(2), m.group(3)
    params = {}
    if raw_params:
        for piece in raw_params.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                rd.fail(n, f"transformer parameter {piece!r} is not name=value")
            pname, pval = (p.strip() for p in piece.split("=", 1))
            val = _parse_value(pval)
            if isinstance(val, str):
                rd.fail(n, f"transformer parameter {pname!r} must be numeric")
            params[pname] = val
    columns = None
    if raw_cols:
        try:
            columns = json.loads(f"[{raw_cols}]")
        except json.JSONDecodeError:
            rd.fail(n, f"cannot parse column list: {raw_cols!r}")
        if not all(isinstance(c, str) for c in columns):
            rd.fail(n, "column names must be quoted strings")
    try:
        return TransformerSpec(kind=kind, params=params, select_columns=columns)
    except ValueError as exc:
        rd.fail(n, str(exc), kind=ValidationError)


def _parse_domain_line(rd: _Reader, n: int, name: str, raw: str) -> HpDomain:
    m = _DOMAIN_RE.match(raw)
    if not m:
        rd.fail(n, f"cannot parse tunable domain: {raw!r}")
    kind, lo_s, hi_s = m.groups()
    lo, hi = _parse_value(lo_s), _parse_value(hi_s)
    if isinstance(lo, str) or isinstance(hi, str):
        rd.fail(n, "domain bounds must be numeric")
    try:
        return HpDomain(name=name, kind=kind, lo=float(lo), hi=float(hi))
    except ValueError as exc:
        rd.fail(n, str(exc), kind=ValidationError)


def parse_definition_text(text: str, path="<input>") -> PipelineDefinition:
    rd = _Reader(text, path)
    section: Optional[str] = None
    pipeline_kv: dict = {}
    transformers: list[TransformerSpec] = []
    statics: dict = {}
    tunables: list[HpDomain] = []
    seeds: list[dict] = []
    resources: dict = {}
    saw_resources = False
    provenance: dict = {"firings": []}
    seen_sections: set[str] = set()

    for n, raw in enumerate(rd.lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            section = m.group(1)
            if section not in SECTIONS:
                rd.fail(n, f"unknown section [{section}]")
            if section in seen_sections:
                rd.fail(n, f"duplicate section [{section}]")
            seen_sections.add(section)
            if section == "resources":
                saw_resources = True
            continue
        if section is None:
            rd.fail(n, f"content before any section: {line!r}")

        if section == "pipeline":
            kv = _KV_RE.match(line)
            if not kv:
                rd.fail(n, f"expected key = value, got {line!r}")
            pipeline_kv[kv.group(1)] = (n, kv.group(2).strip())
        elif section == "transformers":
            transformers.append(_parse_transformer_line(rd, n, line))
        elif section == "algorithm":
            kv = _KV_RE.match(line)
            if not kv:
                rd.fail(n, f"expected key = value, got {line!r}")
            key, raw_val = kv.group(1), kv.group(2).strip()
            if key == "name":
                if raw_val not in ALGORITHMS:
                    rd.fail(n, f"unknown algorithm {raw_val!r}", kind=ValidationError)
                statics["__name__"] = raw_val
            else:
                statics[key] = _parse_value(raw_val)
        elif section == "tunables":
            kv = _KV_RE.match(line)
            if not kv:
                rd.fail(n, f"expected name = domain(...), got {line!r}")
            tunables.append(_parse_domain_line(rd, n, kv.group(1), kv.group(2).strip()))
        elif section == "seeds":
            try:
                seed = json.loads(line)
            except json.JSONDecodeError as exc:
                rd.fail(n, f"seed is not valid JSON: {exc}")
            if not isinstance(seed, dict):
                rd.fail(n, "seed must be a JSON object")
            seeds.append(seed)
        elif section == "resources":
            kv = _KV_RE.match(line)
            if not kv:
                rd.fail(n, f"expected key = value, got {line!r}")
            resources[kv.group(1)] = _parse_value(kv.group(2).strip())
        elif section == "provenance":
            kv = _KV_RE.match(line)
            if not kv:
                rd.fail(n, f"expected key = value, got {line!r}")
            key, raw_val = kv.group(1), kv.group(2).strip()
            if key == "strategy":
                provenance["strategy"] = raw_val
            elif key == "firing":
                try:
                    provenance["firings"].append(json.loads(raw_val))
                except json.JSONDecodeError as exc:
                    rd.fail(n, f"firing is not valid JSON: {exc}")
            else:
                rd.fail(n, f"unknown provenance key {key!r}")

    for required in ("pipeline", "transformers", "algorithm", "tunables", "seeds"):
        if required not in seen_sections:
            rd.fail(len(rd.lines), f"missing required section [{required}]")

    if "id" not in pipeline_kv:
        rd.fail(1, "missing pipeline id", kind=ValidationError)
    id_line, pipeline_id = pipeline_kv["id"]
    if not _ID_RE.match(pipeline_id):
        rd.fail(id_line, f"invalid pipeline id {pipeline_id!r}", kind=ValidationError)
    if "problem" not in pipeline_kv:
        rd.fail(id_line, "missing problem kind", kind=ValidationError)
    prob_line, problem_kind = pipeline_kv["problem"]
    if problem_kind not in PROBLEM_KINDS:
        rd.fail(prob_line, f"unknown problem kind {problem_kind!r}", kind=ValidationError)
    n_classes = None
    if "classes" in pipeline_kv:
        cls_line, raw_classes = pipeline_kv["classes"]
        parsed = _parse_value(raw_classes)
        if not isinstance(parsed, int) or parsed < 2:
            rd.fail(cls_line, f"classes must be an integer >= 2, got {raw_classes!r}", kind=ValidationError)
        n_classes = parsed
    if problem_kind != "regression" and n_classes is None:
        rd.fail(prob_line, "classification definitions need a classes line", kind=ValidationError)

    if "__name__" not in statics:
        rd.fail(len(rd.lines), "missing algorithm name", kind=ValidationError)
    algorithm = statics.pop("__name__")

    try:
        space = HpSpace(statics=statics, tunables=tunables)
    except ValueError as exc:
        rd.fail(len(rd.lines), str(exc), kind=ValidationError)
    if len(seeds) > 5:
        rd.fail(len(rd.lines), "at most 5 zero-shot seeds", kind=ValidationError)

    return PipelineDefinition(
        pipeline_id=pipeline_id,
        problem_kind=problem_kind,
        n_classes=n_classes,
        transformers=transformers,
        algorithm=algorithm,
        space=space,
        seeds=seeds,
        resources=resources if saw_resources else None,
        provenance={"strategy": provenance.get("strategy", pipeline_id), "firings": provenance["firings"]},
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
