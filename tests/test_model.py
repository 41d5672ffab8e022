"""Resolution and enrichment chains, and resolution's duplicate and
enrichment-cycle findings held to a brute-force oracle."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import event, given, settings, strategies as st

from oracles import oracle_duplicates_and_enrichment_cycles

from ontoarch.cli import build_report
from ontoarch.metamodel import BUILTIN_MODULE
from ontoarch.model import (
    Level,
    OntologyModule,
    QualifiedRef,
    TermDef,
    resolve,
)
from ontoarch.parser import parse_suite


def parse_ok(src: str, path: str = "f.onto"):
    ast, diags = parse_suite([(path, src)])
    assert not diags, diags
    return ast


def resolve_src(src: str):
    ast = parse_ok(src)
    return resolve(ast.modules, ast.instance_files)


def codes(diags):
    return sorted(d.code for d in diags)


def test_empty_suite_resolves_to_builtin_only():
    suite, diags = resolve([], [])
    assert diags == []
    assert suite is not None
    assert suite.modules == {}
    assert suite.levels == {BUILTIN_MODULE: Level.FO}
    assert build_report([]).summary["modules_per_level"] == {"FO": 1, "CO": 0, "TDO": 0, "LDO": 0}


def test_core_module_binds_to_builtin_term():
    suite, diags = resolve_src(
        'ontology ProcessCO at CO { term Process enriches ThingFO.Thing { description "d" } }'
    )
    assert diags == []
    assert suite.enrichment_root("ProcessCO", "Process") == "Thing"


def test_unknown_builtin_term_is_e101_with_span():
    suite, diags = resolve_src("ontology A at CO { term X enriches ThingFO.Entityy }")
    assert suite is None
    assert codes(diags) == ["E101"]
    assert diags[0].span.file == "f.onto"
    assert diags[0].span.start_line == 1
    assert "Entityy" in diags[0].message


def test_unknown_module_reference_is_e101():
    _, diags = resolve_src("ontology A at CO { term X enriches Nowhere.Thing }")
    assert codes(diags) == ["E101"]


#: A comment that names every word and mark a reference can follow.
_NOTE = "// from A.B to (C, D), kind: enriches"
_TERM_A = "ontology M at CO { term A enriches ThingFO.Thing }\n"


@pytest.mark.parametrize(
    "src, message, span",
    [
        (f"ontology M at CO {{\n  term X enriches {_NOTE}\n    Nowhere {_NOTE}\n    .Thing\n}}",
         "term M.X: unknown module Nowhere", (3, 5, 4, 10)),
        (f"ontology M at CO {{\n  term A enriches ThingFO.Thing\n  relation r from {_NOTE}\n    Ghost {_NOTE}\n"
         "    .A to A kind ThingFO.relatesWith\n}",
         "relation M.r: unknown module Ghost", (4, 5, 5, 6)),
        (f"ontology M at CO {{\n  term A enriches ThingFO.Thing\n  relation r from A to {_NOTE}\n    Ghost {_NOTE}\n"
         "    .A kind ThingFO.relatesWith\n}",
         "relation M.r: unknown module Ghost", (4, 5, 5, 6)),
        (f"ontology M at CO {{\n  term A enriches ThingFO.Thing\n  relation r from A to A kind {_NOTE}\n"
         f"    ThingFO {_NOTE}\n    .nope\n}}",
         "relation M.r: no foundational relationship named nope", (4, 5, 5, 9)),
        (f"{_TERM_A}instances of M {{\n  individual i : {_NOTE}\n    Ghost {_NOTE}\n    .A\n}}",
         "individual i: unknown module Ghost", (4, 5, 5, 6)),
        (f"{_TERM_A}instances of M {{ world w {{\n  thing t : {_NOTE}\n    Ghost {_NOTE}\n    .A {{ property p; }}\n}} }}",
         "thing t: unknown module Ghost", (4, 5, 5, 6)),
        (f"{_TERM_A}instances of M {{ world w {{\n  thing t : A {{ property p; power q; }}\n  enables( {_NOTE}\n"
         f"    t {_NOTE}\n    .zz, t.q)\n}} }}",
         "enables fact in world w: thing t has no property named zz", (5, 5, 6, 7)),
        (f"{_TERM_A}instances of M {{ world w {{\n  thing t : A {{ property p; power q; }}\n  enables(t.p, {_NOTE}\n"
         f"    t {_NOTE}\n    .zz)\n}} }}",
         "enables fact in world w: thing t has no power named zz", (5, 5, 6, 7)),
    ],
    ids=["term", "relation from", "relation to", "relation kind", "individual", "thing", "fact left", "fact right"],
)
def test_an_e101_spans_its_reference_across_comments(src, message, span):
    # A comment before the reference and one between its name and its `.`,
    # each naming the words and marks that come before a reference.
    _, diags = resolve_src(src)
    assert [(d.code, d.message, tuple(d.span)) for d in diags] == [("E101", message, ("f.onto", *span))]


def test_duplicate_module_is_e102():
    src = "ontology A at CO { }\nontology A at CO { }"
    _, diags = resolve_src(src)
    assert codes(diags) == ["E102"]


def test_two_files_with_one_path_order_their_modules_by_line_and_column():
    # Offsets would put the first file's module first; lines and columns
    # put the second's first, so the first file's module is the duplicate.
    lines = ("f.onto", "\n\nontology A at CO { }")
    columns = ("f.onto", " " * 20 + "ontology A at CO { }")
    for files in ([lines, columns], [columns, lines]):
        diags = build_report(files).diagnostics
        assert [(d.code, d.message, tuple(d.span)) for d in diags] == [
            ("E102", "duplicate module A", ("f.onto", 3, 1, 3, 20)),
        ]


def test_builtin_module_name_is_reserved():
    _, diags = resolve_src("ontology ThingFO at FO { }")
    assert codes(diags) == ["E102"]


def test_duplicate_term_is_e102():
    src = "ontology A at CO { term X enriches ThingFO.Thing term X enriches ThingFO.Power }"
    _, diags = resolve_src(src)
    assert codes(diags) == ["E102"]


@pytest.mark.parametrize(
    "body, expected",
    [
        # The kept `a` enriches `b`, which enriches it back: a cycle that the
        # rejected `a` would hide.
        ("term a enriches b  term b enriches a  term a enriches ThingFO.Thing",
         [("E105", "enrichment cycle: M.a -> M.b -> M.a", "m.onto:1:20"),
          ("E102", "duplicate declaration a in module M", "m.onto:1:58")]),
        # The cycle runs through the rejected `a` only, so there is none.
        ("term a enriches ThingFO.Thing  term b enriches a  term a enriches b",
         [("E102", "duplicate declaration a in module M", "m.onto:1:70")]),
    ],
)
def test_a_name_declared_twice_binds_to_the_declaration_e102_keeps(body, expected):
    report = build_report([("m.onto", f"ontology M at CO {{ {body} }}")])
    assert [(d.code, d.message, str(d.span)) for d in report.diagnostics] == expected


def test_duplicate_attribute_key_is_e102():
    src = 'ontology A at CO { term X enriches ThingFO.Thing { description "a" description "b" } }'
    _, diags = resolve_src(src)
    assert codes(diags) == ["E102"]


def test_self_import_is_e104():
    _, diags = resolve_src("ontology A at CO { imports A }")
    assert codes(diags) == ["E104"]


def test_import_cycle_is_e103():
    src = (
        "ontology A at CO { imports B }\n"
        "ontology B at CO { imports A }\n"
    )
    _, diags = resolve_src(src)
    assert codes(diags) == ["E103"]
    assert "A -> B -> A" in diags[0].message


def test_unknown_import_is_e101():
    _, diags = resolve_src("ontology A at CO { imports Ghost }")
    assert codes(diags) == ["E101"]


def test_enrichment_cycle_is_e105():
    src = "ontology A at CO { term X enriches Y term Y enriches X }"
    _, diags = resolve_src(src)
    assert codes(diags) == ["E105"]


def test_cross_module_enrichment_cycle_is_reported_from_the_first_module_by_name():
    modules = [
        OntologyModule("B", Level.CO, body=(TermDef("Y", QualifiedRef("A", "X")),)),
        OntologyModule("A", Level.CO, body=(TermDef("X", QualifiedRef("B", "Y")),)),
    ]
    for order in (modules, modules[::-1]):
        _, diags = resolve(order, [])
        assert [d.message for d in diags] == ["enrichment cycle: A.X -> B.Y -> A.X"]


def test_two_step_chain_reaches_thing():
    src = (
        'ontology C at CO { term Base enriches ThingFO.Thing { description "d" } }\n'
        'ontology T at TDO { term Mid enriches C.Base { description "d" } }\n'
    )
    suite, diags = resolve_src(src)
    assert diags == []
    # manual chain walk: Mid -> C.Base -> ThingFO.Thing
    assert suite.enrichment_root("T", "Mid") == "Thing"


def test_builtin_term_is_its_own_root():
    suite, _ = resolve([], [])
    assert suite.enrichment_root(BUILTIN_MODULE, "QualityAssertion") == "QualityAssertion"


def test_category_enrichment_root_over_fig2(fig2_suite):
    assert fig2_suite.enrichment_root("ProcessCO", "ProductCategory") == "ThingCategory"
    assert fig2_suite.enrichment_root("AcmeTestingLDO", "RegressionProcess") == "Thing"
    assert fig2_suite.enrichment_root("ProcessCO", "ProcessGoal") == "IntentionAssertion"


def test_enrichment_root_stable_under_module_reordering():
    a = 'ontology C at CO { term Base enriches ThingFO.Thing { description "d" } }'
    b = 'ontology T at TDO { term Mid enriches C.Base { description "d" } }'
    ast1 = parse_ok(a + "\n" + b)
    ast2 = parse_ok(b + "\n" + a)
    s1, _ = resolve(ast1.modules, ast1.instance_files)
    s2, _ = resolve(ast2.modules, ast2.instance_files)
    assert s1.enrichment_root("T", "Mid") == s2.enrichment_root("T", "Mid") == "Thing"


def test_resolution_is_deterministic_on_errors():
    src = (
        "ontology A at CO { term X enriches ThingFO.Nope term X enriches ThingFO.Thing }\n"
        "instances of Ghost { }\n"
    )
    ast = parse_ok(src)
    _, d1 = resolve(ast.modules, ast.instance_files)
    _, d2 = resolve(ast.modules, ast.instance_files)
    assert d1 == d2
    assert codes(d1) == ["E101", "E101", "E102"]


def test_world_fact_sort_mismatch_is_e101():
    src = (
        "instances of ThingFO {\n"
        "  world w {\n"
        "    thing t1 { property p; power q; }\n"
        "    thing t2 { }\n"
        "    enables(t1, t2)\n"
        "  }\n"
        "}\n"
    )
    _, diags = resolve_src(src)
    assert codes(diags) == ["E101", "E101"]
    assert "property" in diags[0].message


def test_world_part_reference_must_exist():
    src = (
        "instances of ThingFO {\n"
        "  world w {\n"
        "    thing t1 { property p; }\n"
        "    enables(t1.p, t1.q)\n"
        "  }\n"
        "}\n"
    )
    _, diags = resolve_src(src)
    assert codes(diags) == ["E101"]
    assert "no power named q" in diags[0].message


def test_duplicate_part_and_thing_names_are_e102():
    src = (
        "instances of ThingFO {\n"
        "  world w {\n"
        "    thing t1 { property p; power p; }\n"
        "    thing t1 { }\n"
        "  }\n"
        "}\n"
    )
    _, diags = resolve_src(src)
    assert codes(diags) == ["E102", "E102"]


def test_duplicate_individual_is_e102():
    src = "instances of ThingFO { individual a : Thing individual a : Thing }"
    _, diags = resolve_src(src)
    assert codes(diags) == ["E102"]


def test_instances_of_unknown_module_is_e101():
    _, diags = resolve_src("instances of Ghost { }")
    assert codes(diags) == ["E101"]


def test_a_duplicate_part_is_reported_at_its_own_place():
    # A part's place is read from its thing's `loc`, after the type's slot,
    # which is 0 for a thing with no type; a power counts after every
    # property.
    src = (
        "ontology M at CO { term T enriches ThingFO.Thing }\n"
        "instances of M {\n"
        "  world w {\n"
        "    thing a : T { property p; property q; power p; power r; power r; }\n"
        "    thing b { property s; property s; power s; }\n"
        "  }\n"
        "}\n"
    )
    _, diags = resolve_src(src)
    assert [(d.code, d.message, d.span.start_line, d.span.start_col, d.span.end_col) for d in diags] == [
        ("E102", "duplicate part p on thing a", 4, 49, 49),
        ("E102", "duplicate part r on thing a", 4, 67, 67),
        ("E102", "duplicate part s on thing b", 5, 36, 36),
        ("E102", "duplicate part s on thing b", 5, 45, 45),
    ]


def test_world_ownership_is_functional_by_construction(fig2_suite):
    for world in (w for f in fig2_suite.instance_files for w in f.worlds):
        seen: dict[str, str] = {}
        for thing in world.things:
            for part in thing.properties + thing.powers:
                key = f"{thing.name}.{part}"
                assert key not in seen
                seen[key] = thing.name
        for fact in world.facts:
            for ref in (fact.left, fact.right):
                if ref.module is not None and f"{ref.module}.{ref.name}" in seen:
                    assert seen[f"{ref.module}.{ref.name}"] == ref.module


def test_level_monotonicity_over_fig2(fig2_suite):
    for module_name, module in fig2_suite.modules.items():
        for term in module.terms:
            target_mod = term.enriches.module or module_name
            assert fig2_suite.levels[target_mod].rank == module.level.rank - 1


def test_programmatic_term_without_enrichment_resolves():
    module = OntologyModule("A", Level.CO, body=(TermDef("X", None),))
    suite, diags = resolve([module], [])
    assert diags == []
    assert suite.enrichment_root("A", "X") is None


def test_qualified_ref_str_forms():
    assert str(QualifiedRef("M", "T")) == "M.T"
    assert str(QualifiedRef(None, "T")) == "T"


# ---------------------------------------------------------------------------
# Duplicates (E102) and enrichment cycles (E105) against a brute-force oracle.
# ---------------------------------------------------------------------------

#: Module names: ThingFO's is reserved, and an instances block may name a
#: module no one declares. Declaration names are listed largest first, so
#: that the name hypothesis draws most is not the smallest, and walks often
#: enter a cycle past its smallest member.
MODULE_NAMES = ("M0", "M1")
DECL_NAMES = ("t2", "t1", "t0")


@st.composite
def module_plan(draw) -> tuple[str, str, list[tuple[str, str, list[str]]]]:
    """A module's name, level and declarations, each a kind, a name and
    attribute keys; the name, a declaration's name and a key may repeat."""
    name = BUILTIN_MODULE if draw(st.integers(0, 5)) == 5 else draw(st.sampled_from(MODULE_NAMES))
    decl = st.tuples(st.sampled_from(("term", "term", "term", "relation")), st.sampled_from(DECL_NAMES),
                     st.lists(st.sampled_from(("description", "name", "note")), max_size=3))
    return name, draw(st.sampled_from(("CO", "TDO", "LDO"))), draw(st.lists(decl, max_size=5))


@st.composite
def instances_block(draw) -> list[str]:
    """An instances block whose individuals and worlds share names, and
    whose worlds repeat things, and parts across properties and powers."""
    of = draw(st.sampled_from(MODULE_NAMES + (BUILTIN_MODULE, "Nowhere")))
    lines = [f"instances of {of} {{"]
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(("a", "b")))
        if draw(st.booleans()):
            lines.append(f"  individual {name} : ThingFO.Thing")
            continue
        lines.append(f"  world {name} {{")
        for _ in range(draw(st.integers(0, 3))):
            parts = draw(st.lists(st.tuples(st.sampled_from(("property", "power")), st.sampled_from(("p", "q"))),
                                  max_size=4))
            parts.sort(key=lambda part: part[0] == "power")  # properties come first
            body = " ".join(f"{sort} {part};" for sort, part in parts)
            lines.append(f"    thing {draw(st.sampled_from(('x', 'y')))} {{ {body} }}")
        lines.append("  }")
    return lines + ["}"]


@st.composite
def duplicate_suites(draw) -> list[tuple[str, str]]:
    """One to four files of one or two blocks each; now and then two files
    share a path, so that only their spans order their modules.

    The terms' keys are put in a random cyclic order, and most terms enrich
    the next key in it, or any key, so that chains run across modules and
    into cycles, at any member; the rest enrich ThingFO.Thing."""
    block = st.one_of(module_plan(), module_plan(), instances_block())  # two modules to one instances block
    files = [draw(st.lists(block, min_size=1, max_size=2)) for _ in range(draw(st.integers(1, 4)))]
    plans = [block for blocks in files for block in blocks if isinstance(block, tuple)]
    keys = list(dict.fromkeys((m, d) for m, _, decls in plans for kind, d, _ in decls if kind == "term"))
    order = draw(st.permutations(keys))
    after = {key: order[(i + 1) % len(order)] for i, key in enumerate(order)}
    texts = []
    for k, blocks in enumerate(files):
        lines = []
        for block in blocks:
            if isinstance(block, list):
                lines += block
                continue
            name, level, decls = block
            lines.append(f"ontology {name} at {level} {{")
            for kind, decl, attrs in decls:
                if kind == "relation":
                    lines.append(f"  relation {decl} from ThingFO.Thing to ThingFO.Thing kind ThingFO.relatesWith")
                    continue
                choice = draw(st.integers(0, 4))
                module, term = ((BUILTIN_MODULE, "Thing") if choice == 4 or (name, decl) not in after else
                                draw(st.sampled_from(order)) if choice == 3 else after[(name, decl)])
                target = term if module == name and draw(st.booleans()) else f"{module}.{term}"
                body = " { " + " ".join(f'{attr} "v"' for attr in attrs) + " }" if attrs else ""
                lines.append(f"  term {decl} enriches {target}{body}")
            lines.append("}")
        path = f"f{draw(st.integers(0, k))}.onto" if draw(st.integers(0, 4)) == 0 else f"f{k}.onto"
        texts.append((path, "\n".join(lines) + "\n"))
    return texts


@settings(max_examples=300, deadline=None)
@given(duplicate_suites())
def test_duplicates_and_enrichment_cycles_equal_the_brute_force_oracle(files):
    ast, parse_errors = parse_suite(files)
    assert parse_errors == []
    _, diagnostics = resolve(ast.modules, ast.instance_files)
    got = Counter((d.code, d.message, d.span) for d in diagnostics if d.code in ("E102", "E105"))
    want = Counter(oracle_duplicates_and_enrichment_cycles(ast.modules, ast.instance_files))
    for code, message, _ in want:
        if code == "E105":
            members = message.split(": ")[1].split(" -> ")[:-1]
            event(f"E105 entered {'at' if members[0] == min(members) else 'past'} its smallest member")
        else:
            event(f"E102 {'reserved' if 'reserved' in message else message.split()[1]}")
    assert got == want
