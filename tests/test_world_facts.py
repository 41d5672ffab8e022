"""World facts: the exact text of every diagnostic a fact can draw.

Resolution checks each side of a fact against the sort its predicate's
ThingFO relationship fixes (a thing, a property or power part, or a term);
conformance checks term-valued targets against their required root. These
cases pin message, witness, rule and anchor, not only the code: each
binding fault on each side of each predicate with its span, and duplicate
things and parts. A property on generated world suites checks every world
finding of `validate_suite` against the brute-force oracles.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import event, given, settings, strategies as st

from oracles import oracle_check_axioms, oracle_world_rules

from ontoarch.cli import build_report
from ontoarch.metamodel import WORLD_PREDICATES
from ontoarch.model import (
    Fact,
    InstanceFile,
    Level,
    OntologyModule,
    QualifiedRef,
    TermDef,
    ThingNode,
    World,
    resolve,
)
from ontoarch.parser import parse_suite
from ontoarch.reporting import CODE_CATALOG
from ontoarch.source import SYNTHETIC_SOURCE
from ontoarch.validator import validate_suite

MODULE = """\
ontology M at CO {
  term Proc enriches ThingFO.Thing { description "p" }
  term Cat enriches ThingFO.ThingCategory
  term Goal enriches ThingFO.Assertion
}
"""

WORLD = """\
instances of M {
  world w {
    thing t1 : Proc { property p; power x; }
    thing t2 { property q; power y; }
    %s
  }
}
"""


def _report(fact: str) -> list[tuple]:
    report = build_report([("m.onto", MODULE), ("i.onto", WORLD % fact)])
    return [(d.code, d.message, d.witness) for d in report.diagnostics]


def _e101(predicate: str, detail: str) -> tuple:
    return ("E101", f"{predicate} fact in world w: {detail}", None)


CLEAN = [
    "enables(t1.p, t1.x)",
    "actsUpon(t1.x, t1.p) actsUpon(t2.y, t2.q)",
    "interacts(t1.x, t2)",
    "belongsTo(t1, Cat)",
    "belongsTo(t1, ThingFO.ThingCategory)",
    "relatesWith(t1, t2)",
    "isSeenAs(t1.p, t2)",
    "isSeenAs(t1.p, t1)",  # "other" is a tendency in ThingFO, not a constraint
    "defines(t1, M.Goal)",
]

RESOLUTION = [
    # wrong sort on each side of each predicate
    ("enables(t1, t1.x)", "enables", "expected a property reference thing.part, got t1"),
    ("enables(t1.p, t1)", "enables", "expected a power reference thing.part, got t1"),
    ("actsUpon(t1, t1.p)", "actsUpon", "expected a power reference thing.part, got t1"),
    ("actsUpon(t1.x, t1)", "actsUpon", "expected a property reference thing.part, got t1"),
    ("interacts(t1, t2)", "interacts", "expected a power reference thing.part, got t1"),
    ("interacts(t1.x, t2.q)", "interacts", "expected a thing, got part reference t2.q"),
    ("belongsTo(t1.p, Cat)", "belongsTo", "expected a thing, got part reference t1.p"),
    ("belongsTo(t1, t2.q)", "belongsTo", "expected a term, got part reference t2.q"),
    ("defines(t1, t2.y)", "defines", "expected a term, got part reference t2.y"),
    ("belongsTo(t1, t9.q)", "belongsTo", "unknown module t9"),
    ("relatesWith(t1.p, t2)", "relatesWith", "expected a thing, got part reference t1.p"),
    ("relatesWith(t1, t2.y)", "relatesWith", "expected a thing, got part reference t2.y"),
    ("isSeenAs(t1, t2)", "isSeenAs", "expected a property reference thing.part, got t1"),
    ("isSeenAs(t1.p, t2.q)", "isSeenAs", "expected a thing, got part reference t2.q"),
    ("defines(t1.x, Goal)", "defines", "expected a thing, got part reference t1.x"),
    ("defines(t1, Nowhere.Goal)", "defines", "unknown module Nowhere"),
    # unknown things, parts and terms
    ("enables(t9.p, t1.x)", "enables", "unknown thing t9 in world w"),
    ("actsUpon(t1.x, t9.p)", "actsUpon", "unknown thing t9 in world w"),
    ("interacts(t1.x, t9)", "interacts", "unknown thing t9 in world w"),
    ("relatesWith(t9, t2)", "relatesWith", "unknown thing t9 in world w"),
    ("enables(t1.x, t1.x)", "enables", "thing t1 has no property named x"),
    ("enables(t1.p, t1.p)", "enables", "thing t1 has no power named p"),
    ("isSeenAs(t2.y, t1)", "isSeenAs", "thing t2 has no property named y"),
    ("belongsTo(t1, Kat)", "belongsTo", "no term named Kat in module M"),
    ("defines(t1, ThingFO.Goal)", "defines", "no foundational term named Goal in ThingFO"),
]


@pytest.mark.parametrize("fact", CLEAN)
def test_well_sorted_fact_is_clean(fact):
    assert _report(fact) == []


@pytest.mark.parametrize("fact, predicate, detail", RESOLUTION)
def test_ill_sorted_fact_text(fact, predicate, detail):
    assert _report(fact) == [_e101(predicate, detail)]


#: A well-sorted argument of each sort, on the left and on the right.
WELL_SORTED = {"Thing": ("t1", "t2"), "Property": ("t1.p", "t2.q"), "Power": ("t1.x", "t2.y"),
               "ThingCategory": ("Cat", "Cat"), "Assertion": ("Goal", "Goal")}

#: Each fault an argument of a sort can have, and the E101 detail it draws:
#: an unknown thing, a bare name where a part belongs, a part of the other
#: sort, a part where a thing or a term belongs, and an unknown term.
FAULTS = {
    "Thing": [("t9", "unknown thing t9 in world w"), ("t2.q", "expected a thing, got part reference t2.q")],
    "Property": [("t9.q", "unknown thing t9 in world w"), ("t2", "expected a property reference thing.part, got t2"),
                 ("t2.y", "thing t2 has no property named y")],
    "Power": [("t9.y", "unknown thing t9 in world w"), ("t2", "expected a power reference thing.part, got t2"),
              ("t2.q", "thing t2 has no power named q")],
    "ThingCategory": [("t2.q", "expected a term, got part reference t2.q"), ("Kat", "no term named Kat in module M")],
    "Assertion": [("t2.y", "expected a term, got part reference t2.y"), ("Gaol", "no term named Gaol in module M")],
}

#: Every predicate, side and fault: the fact, which side is wrong, and why.
BINDING = [
    (predicate, (bad, WELL_SORTED[spec.range][1]) if index == 0 else (WELL_SORTED[spec.domain][0], bad), index, detail)
    for predicate, spec in WORLD_PREDICATES.items()
    for index, sort in enumerate((spec.domain, spec.range))
    for bad, detail in FAULTS[sort]
]


@pytest.mark.parametrize("predicate, sides, index, detail", BINDING)
def test_each_fault_on_each_side_of_each_predicate_draws_one_text_at_its_argument(predicate, sides, index, detail):
    fact = f"{predicate}({sides[0]}, {sides[1]})"
    report = build_report([("m.onto", MODULE), ("i.onto", WORLD % fact)])
    # The fact stands on line 5 from column 5; the span is the argument's.
    start = 5 + len(predicate) + 1 + (len(sides[0]) + 2 if index else 0)
    assert [(d.code, d.message, d.witness, tuple(d.span)) for d in report.diagnostics] == [
        (*_e101(predicate, detail), ("i.onto", 5, start, 5, start + len(sides[index]) - 1))
    ]


def test_every_predicate_and_sort_has_its_faults_pinned():
    # Binding looks terms up on the right side only.
    assert {spec.domain for spec in WORLD_PREDICATES.values()} <= {"Thing", "Property", "Power"}
    assert {(p, i) for p, _, i, _ in BINDING} == {(p, i) for p in WORLD_PREDICATES for i in (0, 1)}
    assert len(BINDING) == sum(len(FAULTS[s]) for spec in WORLD_PREDICATES.values() for s in (spec.domain, spec.range))


@pytest.mark.parametrize(
    "things, facts, expected",
    [
        # A duplicate thing is reported at its own span; facts bind to the first.
        ("thing t1 { property zz; }", "enables(t1.zz, t1.x)",
         [("E102", "duplicate thing t1 in world w", (5, 5, 5, 29)),
          ("E101", "enables fact in world w: thing t1 has no property named zz", (6, 13, 6, 17))]),
        # A part named as a property and as a power, at its second place
        # (`test_model.py` pins more duplicate parts).
        ("thing t3 { property z; power y; power z; }", "", [("E102", "duplicate part z on thing t3", (5, 43, 5, 43))]),
    ],
)
def test_duplicate_things_and_parts_text(things, facts, expected):
    world = WORLD.replace("    %s", "    %s\n    %s") % (things, facts)
    report = build_report([("m.onto", MODULE), ("i.onto", world)])
    assert [(d.code, d.message, tuple(d.span)[1:]) for d in report.diagnostics] == expected


def test_a_module_name_wins_over_a_thing_name_on_a_term_side():
    world = WORLD.replace("thing t2 {", "thing M {") % "belongsTo(t1, M.Cat) belongsTo(t1, M.q)"
    report = build_report([("m.onto", MODULE), ("i.onto", world)])
    assert [(d.code, d.message) for d in report.diagnostics] == [
        ("E101", "belongsTo fact in world w: no term named q in module M")
    ]


def test_both_sides_are_reported_left_first():
    assert _report("actsUpon(t9.x, t2)") == [
        _e101("actsUpon", "unknown thing t9 in world w"),
        _e101("actsUpon", "expected a property reference thing.part, got t2"),
    ]


@pytest.mark.parametrize(
    "fact, code, message, witness, where",
    [
        ("belongsTo(t1, M.Proc)", "E232", "belongsTo target M.Proc is rooted at Thing, not Thing Category",
         "belongsTo(t1, M.Proc)", (5, 5)),
        ("belongsTo(t1, Goal)", "E232", "belongsTo target M.Goal is rooted at Assertion, not Thing Category",
         "belongsTo(t1, Goal)", (5, 5)),
        ("belongsTo(t1, ThingFO.Thing)", "E232",
         "belongsTo target ThingFO.Thing is rooted at Thing, not Thing Category",
         "belongsTo(t1, ThingFO.Thing)", (5, 5)),
        ("defines(t1, M.Cat)", "E233", "defines target M.Cat is rooted at ThingCategory, not Assertion",
         "defines(t1, M.Cat)", (5, 5)),
        ("defines(t1, ThingFO.Property)", "E233",
         "defines target ThingFO.Property is rooted at Property, not Assertion",
         "defines(t1, ThingFO.Property)", (5, 5)),
        ("relatesWith(t2, t2)", "E234", "thing t2 relates with itself in world w",
         "relatesWith(t2, t2)", (5, 5)),
        ("actsUpon(t1.x, t1.p)", "W301",
         "power t2.y acts upon no property in world w, which declares actsUpon facts",
         "power t2.y; 0 actsUpon edges", (4, 34)),
    ],
)
def test_conformance_fact_text(fact, code, message, witness, where):
    report = build_report([("m.onto", MODULE), ("i.onto", WORLD % fact)])
    (d,) = report.diagnostics
    assert (d.code, d.message, d.witness) == (code, message, witness)
    assert (d.rule, d.anchor) == (CODE_CATALOG[code].rule, CODE_CATALOG[code].anchor)
    assert (d.span.file, d.span.start_line, d.span.start_col) == ("i.onto", *where)


def test_programmatic_unknown_predicate_is_e101():
    ast, diags = parse_suite([("m.onto", MODULE)])
    assert diags == []
    fact = Fact("emits", QualifiedRef(None, "t1"), QualifiedRef(None, "t1"))
    world = World("w", (ThingNode("t1"),), (fact,))
    suite, diags = resolve(ast.modules, [InstanceFile("M", (world,))])
    assert suite is None
    assert [(d.code, d.message, d.span) for d in diags] == [
        ("E101", "unknown predicate emits in world w", SYNTHETIC_SOURCE.span(fact.loc))
    ]


# ---------------------------------------------------------------------------
# Every world finding against the brute-force oracles.
# ---------------------------------------------------------------------------

#: The codes that findings on world facts carry.
WORLD_CODES = frozenset({"E232", "E233", "E234", "W301", "E311", "E312", "E313"})

#: What a module's terms may enrich; `K0`..`K2` get a root each, per module.
TERM_TARGETS = ("Thing", "ThingCategory", "Assertion", "IntentionAssertion", "Property", "Power")

#: Term references a fact may name: bare (bound in the instance file's
#: module, where each `K` may have another root), qualified, ThingFO's own
#: terms, and a term whose enrichment chain is broken (Rule #1's E213).
TERM_REFS = ("K0", "K1", "K2", "M.K0", "N.K1", "N.K2", "ThingFO.Thing", "ThingFO.ThingCategory",
             "ThingFO.IntentionAssertion", "ThingFO.Power", "B.Broken")


@st.composite
def world_suites(draw) -> list[tuple[str, str]]:
    """Two CO modules with the same term names rooted at random, and an
    instances block of each holding worlds of random things whose facts are
    well sorted and drawn at random, so that worlds with no `actsUpon` fact
    are common."""
    files = []
    for module in ("M", "N"):
        terms = [f"  term K{k} enriches ThingFO.{draw(st.sampled_from(TERM_TARGETS))}" for k in range(3)]
        lines = [f"ontology {module} at CO {{", *terms, "}", f"instances of {module} {{"]
        for w in range(draw(st.integers(1, 2))):
            lines.append(f"  world w{w} {{")
            by_sort: dict[str, list[str]] = {"Thing": [], "Property": [], "Power": []}
            for t in range(draw(st.integers(1, 3))):
                props = [f"p{k}" for k in range(draw(st.integers(0, 2)))]
                powers = [f"x{k}" for k in range(draw(st.integers(0, 3)))]
                kind = draw(st.sampled_from(("", " : K0", " : ThingFO.Thing")))
                lines.append(f"    thing t{t}{kind} {{ " + "".join(f"property {p}; " for p in props)
                             + "".join(f"power {x}; " for x in powers) + "}")
                by_sort["Thing"].append(f"t{t}")
                by_sort["Property"] += [f"t{t}.{p}" for p in props]
                by_sort["Power"] += [f"t{t}.{x}" for x in powers]
            for _ in range(draw(st.integers(0, 12))):
                predicate = draw(st.sampled_from(sorted(WORLD_PREDICATES)))
                spec = WORLD_PREDICATES[predicate]
                left, right = (by_sort.get(sort, TERM_REFS) for sort in (spec.domain, spec.range))
                if left and right:
                    lines.append(f"    {predicate}({draw(st.sampled_from(left))}, {draw(st.sampled_from(right))})")
            lines.append("  }")
        lines.append("}")
        files.append((f"{module.lower()}.onto", "\n".join(lines) + "\n"))
    return files


#: A module of one term whose enrichment chain is broken, as only a
#: programmatic term can be.
BROKEN = OntologyModule("B", Level.CO, (), (TermDef("Broken", None),))


@settings(max_examples=150, deadline=None)
@given(world_suites())
def test_world_findings_equal_the_oracles(files):
    ast, diagnostics = parse_suite(files)
    assert diagnostics == []
    suite, diagnostics = resolve([*ast.modules, BROKEN], ast.instance_files)
    assert diagnostics == [] and suite is not None
    found = Counter(d for d in validate_suite(suite) if d.code in WORLD_CODES)
    expected = Counter(oracle_world_rules(suite))
    for f, world in suite.all_worlds():
        expected.update(oracle_check_axioms(world, f.source))
    assert found == expected
    acting = [any(fact.predicate == "actsUpon" for fact in w.facts) for _, w in suite.all_worlds()]
    event(f"worlds with actsUpon facts: {sum(acting)} of {len(acting)}")
