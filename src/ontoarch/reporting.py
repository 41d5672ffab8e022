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

from types import MappingProxyType
from typing import Any, Iterable, Mapping, NamedTuple

from .metamodel import ARCHITECTURE_RULES, AXIOMS, PROPERTIES, WORLD_PREDICATES
from .source import Record, SourceSpan

REPORT_VERSION = 1


def severity_of(code: str) -> str:
    return "error" if code.startswith("E") else "warning"


class Diagnostic(Record):
    __slots__ = ("code", "message", "span", "rule", "anchor", "witness")
    _compared = __slots__  # the same finding at two places is two findings

    def __init__(self, code: str, message: str, span: SourceSpan, rule: str | None = None, anchor: str = "",
                 witness: str | None = None):
        self.code = code
        self.message = message
        self.span = span
        self.rule = rule
        self.anchor = anchor
        self.witness = witness

    @property
    def severity(self) -> str:
        return severity_of(self.code)

    def sort_key(self) -> tuple:
        """Order by place, then code. Every code starts with its severity's
        letter and "E" < "W", so at one place errors come before warnings.

        A Python key reads `span` once; `operator.attrgetter` with dotted
        names reads it three times, and sorted 3,960 findings about 10%
        slower on CPython 3.11."""
        span = self.span
        return (span.file, span.start_line, span.start_col, self.code, self.message)


class CodeDoc(NamedTuple):
    title: str
    rule: str | None
    anchor: str
    example: str


def _axiom_anchor(axiom_id: str) -> str:
    ax = AXIOMS[axiom_id]
    return f"{ax.description} [{ax.constraint}]"


CODE_CATALOG: Mapping[str, CodeDoc] = MappingProxyType({
    "E001": CodeDoc("invalid character", None, "", "term Pro¢ess (the cent sign is not legal in identifiers)"),
    "E002": CodeDoc("unexpected token", None, "", "ontology A CO { }"),
    "E003": CodeDoc("unknown level name", None, "", "ontology A at XX { }"),
    "E004": CodeDoc("unknown fact predicate", None, "", "emits(t1, t2) inside a world"),
    "E101": CodeDoc("unresolved reference", None, "", "term X enriches ThingFO.Entityy"),
    "E102": CodeDoc("duplicate definition", None, "", "two terms named X in one ontology"),
    "E103": CodeDoc("import cycle", None, "", "A imports B and B imports A"),
    "E104": CodeDoc("self-import", None, "", "ontology A at CO { imports A }"),
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
        WORLD_PREDICATES["belongsTo"].definition,
        "belongsTo(t1, ProcessCO.Process)",
    ),
    "E233": CodeDoc(
        "defines target is not an Assertion",
        "RelConformance",
        WORLD_PREDICATES["defines"].definition,
        "defines(t1, ProcessCO.Process)",
    ),
    "E234": CodeDoc(
        "a thing relates with itself",
        "RelConformance",
        WORLD_PREDICATES["relatesWith"].definition,
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
        next(p.definition for p in PROPERTIES if (p.owner, p.key) == ("Thing", "description")),
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
        WORLD_PREDICATES["actsUpon"].definition,
        "a world declaring actsUpon facts where some power has none",
    ),
})


class Report(Record):
    """An ordered batch of diagnostics and suite summary counts; it counts its
    errors and warnings itself, by each code's first letter (see
    `severity_of`), with no Python call per finding."""

    _fields = ("diagnostics", "summary")
    __slots__ = _fields + ("error_count", "warning_count")

    def __init__(self, diagnostics: tuple[Diagnostic, ...], summary: dict[str, Any] | None = None):
        self.diagnostics = diagnostics
        self.summary = {} if summary is None else summary
        self.error_count = errors = [d.code[:1] for d in diagnostics].count("E")
        self.warning_count = len(diagnostics) - errors

    @classmethod
    def build(cls, diagnostics: Iterable[Diagnostic], summary: dict[str, Any] | None = None) -> "Report":
        return cls(tuple(sorted(diagnostics, key=Diagnostic.sort_key)), dict(summary or {}))


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


#: About how many characters of findings `render_json` joins before it
#: adds them to its text.
_RENDER_CHUNK = 1 << 16


def render_json(report: Report) -> str:
    """Canonical JSON: sorted keys, no insignificant whitespace, UTF-8. It
    equals `json.dumps(payload, sort_keys=True, separators=(",", ":"),
    ensure_ascii=False)`: each finding is written with its keys in sorted
    order and its strings escaped by the same `encode_basestring`. Files,
    anchors, rules and codes repeat, so each distinct one is escaped once.

    The text grows as one local string, by chunks of about
    `_RENDER_CHUNK` characters of findings, each joined from its parts.
    CPython extends a string in place when `+=` holds its only reference, so
    the rendering peaks at about the length of its result plus one chunk; a
    list of every part and their join would hold twice that. Under a trace
    or profile hook, as in a coverage run or a debugger, `+=` copies the
    text instead: growing it once per chunk rather than once per finding
    makes that one copy per chunk."""
    import json  # here, so that a text report never loads it
    from json.encoder import encode_basestring
    encoded: dict[str | None, str] = {None: "null"}
    by_code: dict[str, tuple[str, str]] = {}  # code -> its text and its severity's
    text = '{"diagnostics":['
    chunk: list[str] = []
    size = 0  # characters in `chunk`
    sep = ""
    for d in report.diagnostics:
        span = d.span
        if (file := encoded.get(span.file)) is None:
            file = encoded[span.file] = encode_basestring(span.file)
        if (anchor := encoded.get(d.anchor)) is None:
            anchor = encoded[d.anchor] = encode_basestring(d.anchor)
        if (rule := encoded.get(d.rule)) is None:
            rule = encoded[d.rule] = encode_basestring(d.rule)
        if (code := by_code.get(d.code)) is None:
            code = by_code[d.code] = (encode_basestring(d.code), encode_basestring(d.severity))
        witness = "null" if d.witness is None else encode_basestring(d.witness)
        part = (
            f'{sep}{{"anchor":{anchor},"code":{code[0]},"end_col":{span.end_col},'
            f'"end_line":{span.end_line},"file":{file},"message":{encode_basestring(d.message)},'
            f'"rule":{rule},"severity":{code[1]},"start_col":{span.start_col},'
            f'"start_line":{span.start_line},"witness":{witness}}}'
        )
        chunk.append(part)
        size += len(part)
        if size >= _RENDER_CHUNK:
            text += "".join(chunk)
            chunk.clear()
            size = 0
        sep = ","
    text += "".join(chunk)
    summary = {**report.summary, "errors": report.error_count, "warnings": report.warning_count}
    summary_text = json.dumps(summary, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    text += f'],"report_version":{REPORT_VERSION},"summary":{summary_text}}}'
    return text


def exit_code(report: Report, *, strict: bool = False) -> int:
    """0 when clean (warnings allowed unless strict), 1 on errors; 2 is
    reserved for CLI usage/IO failures."""
    if report.error_count:
        return 1
    if strict and report.warning_count:
        return 1
    return 0
