"""Diagnostics, reports and their text/JSON renderings.

The diagnostic code catalog is stable:

* ``E0xx`` lexing/parsing, ``E1xx`` name resolution (plumbing, no rule id);
* ``E2xx`` architecture and conformance, ``E3xx`` axioms and instance rules;
* ``W2xx`` property-schema advisories, ``W3xx`` cardinality advisories.

Codes starting with ``E`` are errors, ``W`` are warnings. Every rule-backed
diagnostic carries an anchor quoting the ThingFO / FCD-OntoArch wording it
enforces, so reports are self-explaining.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from .metamodel import ARCHITECTURE_RULES, AXIOMS
from .source import SourceSpan

REPORT_VERSION = 1


def severity_of(code: str) -> str:
    return "error" if code.startswith("E") else "warning"


@dataclass(slots=True, unsafe_hash=True)
class Diagnostic:
    code: str
    message: str
    span: SourceSpan
    rule: str | None = None
    anchor: str = ""
    witness: str | None = None

    @property
    def severity(self) -> str:
        return severity_of(self.code)

    def sort_key(self) -> tuple:
        """Order by place, then code. Every code starts with its severity's
        letter and "E" < "W", so at one place errors come before warnings."""
        span = self.span
        return (span.file, span.start_line, span.start_col, self.code, self.message)


@dataclass(frozen=True)
class CodeDoc:
    title: str
    rule: str | None
    anchor: str
    example: str


def _axiom_anchor(axiom_id: str) -> str:
    ax = AXIOMS[axiom_id]
    return f"{ax.description} [{ax.constraint}]"


CODE_CATALOG: dict[str, CodeDoc] = {
    "E001": CodeDoc("invalid character", None, "", "term Pro¢ess (the cent sign is not legal in identifiers)"),
    "E002": CodeDoc("unexpected token", None, "", "ontology A CO { }"),
    "E003": CodeDoc("unknown level name", None, "", "ontology A at XX { }"),
    "E004": CodeDoc("unknown fact predicate", None, "", "emits(t1, t2) inside a world"),
    "E101": CodeDoc("unresolved reference", None, "", "term X enriches ThingFO.Entityy"),
    "E102": CodeDoc("duplicate definition", None, "", "two terms named X in one ontology"),
    "E103": CodeDoc("import cycle", None, "", "A imports B and B imports A"),
    "E104": CodeDoc("self-import", None, "", "ontology A { imports A }"),
    "E105": CodeDoc("enrichment cycle", None, "", "term X enriches Y, term Y enriches X"),
    "E201": CodeDoc(
        "user-defined foundational ontology",
        "G2",
        ARCHITECTURE_RULES["G2"],
        "ontology MyFO at FO { }",
    ),
    "E202": CodeDoc(
        "import crosses levels",
        "R2",
        "Ontologies of the same level, except at the FO level, can be "
        "related to each other.",
        "a CO ontology importing a TDO ontology",
    ),
    "E203": CodeDoc(
        "import at the foundational level",
        "G2",
        "Ontologies at the same level can be related to each other, except "
        "at the foundational level, where only the ThingFO ontology is found.",
        "an FO ontology declaring imports",
    ),
    "E211": CodeDoc(
        "enrichment skips levels",
        "R1",
        "Any new ontology must guarantee a correspondence of its elements "
        "with the elements defined at the immediately higher level.",
        "a TDO term enriching ThingFO.Thing directly",
    ),
    "E212": CodeDoc(
        "relationship kind chain does not reach ThingFO",
        "R1",
        "This allows the terms and relationships of the lower-level "
        "ontologies to be semantically enriched by the terms and "
        "relationships of the higher-level ontologies.",
        "relation r ... kind r",
    ),
    "E213": CodeDoc(
        "term lacks an enrichment target",
        "R1",
        "Any new ontology must guarantee a correspondence of its elements "
        "with the elements defined at the immediately higher level.",
        "a programmatically built term with no enrichment link",
    ),
    "E221": CodeDoc(
        "joint definition violates the next higher level",
        "R2",
        "It must be guaranteed that their joint definition (as a whole) does "
        "not violate the principles of the next higher level.",
        "a cross-ontology kind chain that never reaches ThingFO",
    ),
    "E231": CodeDoc(
        "relationship domain or range mismatch",
        "RelConformance",
        "Each ThingFO relationship connects fixed kinds of terms; see "
        "`ontoarch explain <relationship>`.",
        "relation r from a Thing-rooted term to a Thing-rooted term kind "
        "ThingFO.belongsTo",
    ),
    "E232": CodeDoc(
        "belongsTo target is not a Thing Category",
        "RelConformance",
        "Particular Things may belong to none or more Thing Categories.",
        "belongsTo(t1, ProcessCO.Process)",
    ),
    "E233": CodeDoc(
        "defines target is not an Assertion",
        "RelConformance",
        "A Thing defines none or many Assertions.",
        "defines(t1, ProcessCO.Process)",
    ),
    "E234": CodeDoc(
        "a thing relates with itself",
        "RelConformance",
        "A Thing relates to other particular Things.",
        "relatesWith(t1, t1)",
    ),
    "E301": CodeDoc(
        "individual of a Thing Category",
        "R3",
        "A Thing Category as universal does not result in instances, at "
        "least with the valuable meaning of individual.",
        "individual c1 : ProcessCO.ProductCategory",
    ),
    "E302": CodeDoc(
        "individual of a Property or Power",
        "R3",
        ARCHITECTURE_RULES["R3"],
        "individual p1 : SomeCO.SomePropertyLikeTerm",
    ),
    "E311": CodeDoc(
        "a property enables a power of another thing",
        "A1",
        _axiom_anchor("A1"),
        "enables(t1.p1, t2.w2)",
    ),
    "E312": CodeDoc(
        "a power acts upon a property of another thing",
        "A2",
        _axiom_anchor("A2"),
        "actsUpon(t1.w1, t2.p2)",
    ),
    "E313": CodeDoc(
        "a power interacts with its own thing",
        "A3",
        _axiom_anchor("A3"),
        "interacts(t1.w1, t1)",
    ),
    "W201": CodeDoc(
        "attribute key not owned by the enrichment root",
        "PropConformance",
        "Amount of Properties: 10 (each ThingFO term owns a fixed set).",
        'a Thing-rooted term declaring descriptive_statement "..."',
    ),
    "W202": CodeDoc(
        "thing-rooted term lacks a description",
        "PropConformance",
        "An unambiguous textual statement describing a particular Thing.",
        "term X enriches ThingFO.Thing with no attributes",
    ),
    "W203": CodeDoc(
        "scope facet on a non-assertion term",
        "PropConformance",
        "Assertions can be specified for both particulars and universals.",
        "term X enriches ThingFO.Thing scope particulars",
    ),
    "W301": CodeDoc(
        "power with no acts-upon edges",
        "Cardinality",
        "A Power acts upon one or more Properties, so it can look at them or "
        "update the status of the Thing's properties.",
        "a world declaring actsUpon facts where some power has none",
    ),
}


@dataclass(frozen=True)
class Report:
    """An ordered batch of diagnostics plus suite summary counts."""

    diagnostics: tuple[Diagnostic, ...]
    summary: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def build(cls, diagnostics: Iterable[Diagnostic], summary: dict[str, Any] | None = None) -> "Report":
        ordered = tuple(sorted(diagnostics, key=Diagnostic.sort_key))
        return cls(diagnostics=ordered, summary=dict(summary or {}))

    @property
    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == "error")

    @property
    def warning_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == "warning")


def _plural(n: int, word: str) -> str:
    return f"{n} {word}" if n == 1 else f"{n} {word}s"


def render_text(report: Report) -> str:
    """One `file:line:col: severity[code] message (anchor)` line per
    diagnostic, then a summary line."""
    lines = []
    for d in report.diagnostics:
        line = f"{d.span}: {d.severity}[{d.code}] {d.message}"
        if d.witness:
            line += f" [witness: {d.witness}]"
        if d.anchor:
            line += f" ({d.anchor})"
        lines.append(line)
    lines.append(f"{_plural(report.error_count, 'error')}, {_plural(report.warning_count, 'warning')}")
    return "\n".join(lines) + "\n"


def _diagnostic_json(d: Diagnostic) -> dict[str, Any]:
    return {
        "code": d.code,
        "severity": d.severity,
        "rule": d.rule,
        "message": d.message,
        "file": d.span.file,
        "start_line": d.span.start_line,
        "start_col": d.span.start_col,
        "end_line": d.span.end_line,
        "end_col": d.span.end_col,
        "anchor": d.anchor,
        "witness": d.witness,
    }


def render_json(report: Report) -> str:
    """Canonical JSON: sorted keys, no insignificant whitespace, UTF-8."""
    summary = dict(report.summary)
    summary["errors"] = report.error_count
    summary["warnings"] = report.warning_count
    payload = {
        "report_version": REPORT_VERSION,
        "diagnostics": [_diagnostic_json(d) for d in report.diagnostics],
        "summary": summary,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def exit_code(report: Report, *, strict: bool = False) -> int:
    """0 when clean (warnings allowed unless strict), 1 on errors; 2 is
    reserved for CLI usage/IO failures."""
    if report.error_count:
        return 1
    if strict and report.warning_count:
        return 1
    return 0
