"""World facts: the exact text of every diagnostic a fact can draw.

Resolution checks each side of a fact against the sort its predicate's
ThingFO relationship fixes (a thing, a property or power part, or a term);
conformance checks term-valued targets against their required root. These
cases pin message, witness, rule and anchor, not only the code.
"""

from __future__ import annotations

import pytest

from ontoarch.cli import build_report
from ontoarch.model import Fact, InstanceFile, QualifiedRef, ThingNode, World, resolve
from ontoarch.parser import parse_suite
from ontoarch.reporting import CODE_CATALOG

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
        ("E101", "unknown predicate emits in world w", fact.span)
    ]
