"""Rule #1's term findings (E211, E213) and the property schema (W201-W203)
against oracles re-derived from the rule text and the metamodel tables.

The oracles in `tests/oracles.py` share no helper with `validator.py`, and
the property compares each finding's code and span as a multiset, not its
text. Suites come from the grammar generator of `test_file_order.py`, in
its acyclic mode with no edits, so that almost every one resolves, and
from `term_suites`, which varies what those leave fixed: module levels,
attribute keys owned by no root or by another one, and scopes on terms of
every root. Each suite also holds a programmatic module whose term has no
enrichment target (E213), `BROKEN` of `test_world_facts.py`."""

from __future__ import annotations

from collections import Counter

from hypothesis import event, given, settings, strategies as st

from oracles import oracle_property_conformance, oracle_rule1
from test_file_order import FO_TERMS, suites
from test_world_facts import BROKEN

from ontoarch import metamodel
from ontoarch.metamodel import BUILTIN_MODULE
from ontoarch.model import MODULE_LEVELS, resolve
from ontoarch.parser import parse_suite
from ontoarch.validator import validate_suite

CODES = frozenset({"E211", "E213", "W201", "W202", "W203"})

#: Every catalog attribute key, and one that no root owns.
KEYS = (*dict.fromkeys(spec.key for spec in metamodel.all_property_specs()), "colour")


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
