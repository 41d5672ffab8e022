"""Rule #1's term findings (E211, E213), the property schema (W201-W203) and
relationship conformance (E231) against oracles re-derived from the rule
text and the metamodel tables.

The oracles in `tests/oracles.py` share no helper with `validator.py`, and
the property compares each finding's code and span as a multiset, not its
text. Suites come from the grammar generator of `test_file_order.py`, in
its acyclic mode with no edits, so that almost every one resolves, and
from `term_suites`, which varies what those leave fixed: module levels,
attribute keys owned by no root or by another one, and scopes on terms of
every root. Each suite also holds a programmatic module whose term has no
enrichment target (E213), `BROKEN` of `test_world_facts.py`. E231 is held
to its oracle on the grammar-generated suites and on `relation_suites`,
whose relations take every relationship key, reached directly or along a
kind chain, between terms of every root, each with and without a scope."""

from __future__ import annotations

from collections import Counter

from hypothesis import event, given, settings, strategies as st

from oracles import oracle_property_conformance, oracle_relationship_conformance, oracle_rule1
from test_file_order import FO_TERMS, suites
from test_world_facts import BROKEN

from ontoarch import metamodel
from ontoarch.metamodel import BUILTIN_MODULE
from ontoarch.model import MODULE_LEVELS, resolve
from ontoarch.parser import parse_suite
from ontoarch.validator import validate_suite

CODES = frozenset({"E211", "E213", "W201", "W202", "W203"})

#: Every catalog attribute key, and one that no root owns.
KEYS = (*dict.fromkeys(spec.key for spec in metamodel.PROPERTIES), "colour")

#: Every relationship spec, each `relates with` variant on its own.
SPECS = metamodel.RELATIONSHIPS

#: A term's name suffix and scope clause, for no scope and each scope.
SCOPES = (("", ""), ("p", " scope particulars"), ("u", " scope universals"))


@st.composite
def term_suites(draw) -> list[tuple[str, str]]:
    """One to four modules at random levels, one file each and no imports.
    Each term enriches a ThingFO term or a term of an earlier module, so no
    chain cycles, and takes a random scope and distinct attribute keys."""
    files = []
    earlier: list[str] = []
    for k in range(draw(st.integers(1, 4))):
        lines = [f"ontology M{k} at {draw(st.sampled_from(MODULE_LEVELS)).name} {{"]
        names = []
        for t in range(draw(st.integers(1, 4))):
            if earlier and draw(st.booleans()):
                target = draw(st.sampled_from(earlier))
            else:
                target = f"{BUILTIN_MODULE}.{draw(st.sampled_from(FO_TERMS))}"
            scope = draw(st.sampled_from(("", " scope particulars", " scope universals")))
            keys = draw(st.lists(st.sampled_from(KEYS), max_size=3, unique=True))
            block = " {" + "".join(f' {key} "v"' for key in keys) + " }" if keys or draw(st.booleans()) else ""
            lines.append(f"  term t{t} enriches {target}{scope}{block}")
            names.append(f"M{k}.t{t}")
        lines.append("}")
        earlier += names
        files.append((f"m{k}.onto", "\n".join(lines) + "\n"))
    return files


@settings(max_examples=250, deadline=None)
@given(st.one_of(suites(edits=False, acyclic=True), term_suites()))
def test_rule1_and_property_findings_equal_the_oracles(files):
    ast, diagnostics = parse_suite(files)
    if diagnostics:
        event("parse error")
        return
    suite, diagnostics = resolve([*ast.modules, BROKEN], ast.instance_files)
    if suite is None:
        event("unresolved")
        return
    found = Counter((d.code, d.span) for d in validate_suite(suite) if d.code in CODES)
    expected = Counter(oracle_rule1(suite) + oracle_property_conformance(suite))
    assert found == expected
    event("findings: " + ", ".join(sorted({code for code, _ in found})))


@st.composite
def relation_suites(draw) -> list[tuple[str, str]]:
    """A CO module whose terms enrich ThingFO terms of every root, each one
    three times: `t<i>` with no scope, `t<i>p` and `t<i>u` with either.
    Relations come in groups. A group takes a relationship spec's key as its
    kind, directly or through an earlier relation of that key, and for each
    side either one of the drawn roots or the spec's own domain or range, a
    ThingFO term. Its two or three relations differ only in their
    endpoints' scopes, so a judgment carried from one scope to another would
    show. A second module, at CO or below, may add relations whose kind is
    one of the first module's; at CO it imports the first or not, so its
    chains are followed or end in a dead end."""
    anchors = draw(st.lists(st.sampled_from(FO_TERMS), min_size=1, max_size=4))
    count = len(anchors)
    lines = ["ontology R0 at CO {"]
    for i, anchor in enumerate(anchors):
        for suffix, scope in SCOPES:
            lines.append(f"  term t{i}{suffix} enriches {BUILTIN_MODULE}.{anchor}{scope}")
    kinds: dict[str, list[str]] = {}  # each key's relations so far
    relations: list[str] = []
    for _ in range(draw(st.integers(1, 4))):
        spec = draw(st.sampled_from(SPECS))
        earlier = kinds.setdefault(spec.key, [])
        kind = draw(st.sampled_from(earlier)) if earlier and draw(st.booleans()) else f"{BUILTIN_MODULE}.{spec.key}"
        ends = [draw(st.one_of(st.integers(0, count - 1), st.just(f"{BUILTIN_MODULE}.{sort}")))
                for sort in (spec.domain, spec.range)]
        for _ in range(draw(st.integers(2, 3))):
            source, target = (end if isinstance(end, str) else f"t{end}{draw(st.sampled_from(SCOPES))[0]}"
                              for end in ends)
            name = f"r{len(relations)}"
            lines.append(f"  relation {name} from {source} to {target} kind {kind}")
            earlier.append(name)
            relations.append(name)
    files = [("r0.onto", "\n".join(lines + ["}"]) + "\n")]
    if draw(st.booleans()):
        level = draw(st.sampled_from(MODULE_LEVELS[1:]))
        lines = [f"ontology R1 at {level.name} {{"]
        if level.name == "CO" and draw(st.booleans()):
            lines.append("  imports R0")
        for k in range(draw(st.integers(1, 3))):
            source, target = (f"R0.t{draw(st.integers(0, count - 1))}{draw(st.sampled_from(SCOPES))[0]}"
                              for _ in range(2))
            lines.append(f"  relation s{k} from {source} to {target} kind R0.{draw(st.sampled_from(relations))}")
        files.append(("r1.onto", "\n".join(lines + ["}"]) + "\n"))
    return files


@settings(max_examples=250, deadline=None)
@given(st.one_of(suites(edits=False, acyclic=True), relation_suites()))
def test_relationship_conformance_equals_the_oracle(files):
    ast, diagnostics = parse_suite(files)
    if diagnostics:
        event("parse error")
        return
    suite, diagnostics = resolve(ast.modules, ast.instance_files)
    if suite is None:
        event("unresolved")
        return
    found = Counter((d.code, d.span) for d in validate_suite(suite) if d.code == "E231")
    assert found == Counter(oracle_relationship_conformance(suite))
    event("E231" if found else "no E231")
