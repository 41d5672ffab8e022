"""Architecture, rules, conformance and axiom checks, with the brute-force
oracle as the independent reference for A1-A3."""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from conftest import load_bench
from oracles import oracle_check_axioms

from ontoarch import metamodel
from ontoarch.cli import build_report
from ontoarch.model import (
    Fact,
    InstanceFile,
    QualifiedRef,
    ResolvedSuite,
    ThingNode,
    World,
    resolve,
)
from ontoarch.parser import parse_suite
from ontoarch.reporting import CODE_CATALOG
from ontoarch.validator import (
    check_architecture,
    check_axioms,
    check_property_conformance,
    check_relationship_conformance,
    check_rule1,
    check_rule2,
    check_rule3,
    validate_suite,
)


def resolve_src(*files: str):
    inputs = [(f"f{i}.onto", text) for i, text in enumerate(files)]
    ast, diags = parse_suite(inputs)
    assert not diags, diags
    suite, rdiags = resolve(ast.modules, ast.instance_files)
    assert not rdiags, rdiags
    return suite


def codes(violations):
    return sorted(v.code for v in violations)


# ---------------------------------------------------------------------------
# world builders for programmatic axiom tests
# ---------------------------------------------------------------------------

def _ref(text: str) -> QualifiedRef:
    if "." in text:
        thing, part = text.split(".")
        return QualifiedRef(thing, part)
    return QualifiedRef(None, text)


def build_world(things, facts, name="w"):
    """things: [(name, [props], [pows])]; facts: [(pred, left, right)]."""
    nodes = tuple(
        ThingNode(
            tname,
            None,
            tuple(props),
            tuple(pows),
        )
        for tname, props, pows in things
    )
    # Fact i covers character i, so each finding has its own span.
    fact_nodes = tuple(
        Fact(pred, _ref(left), _ref(right), i << 32 | i + 1)
        for i, (pred, left, right) in enumerate(facts)
    )
    return World(name, nodes, fact_nodes)


# ---------------------------------------------------------------------------
# Architecture (G1/G2).
# ---------------------------------------------------------------------------

def test_co_tdo_only_suite_is_clean():
    suite = resolve_src(
        'ontology A at CO { term X enriches ThingFO.Thing { description "d" } }',
        'ontology B at TDO { term Y enriches A.X { description "d" } }',
    )
    assert check_architecture(suite) == []


def test_user_fo_module_is_e201():
    suite = resolve_src("ontology MyFO at FO { }")
    violations = check_architecture(suite)
    assert codes(violations) == ["E201"]
    assert violations[0].rule == "G2"
    assert "only one foundational ontology" in violations[0].anchor


def test_cross_level_import_is_e202():
    suite = resolve_src(
        "ontology A at CO { }",
        "ontology B at TDO { imports A }",
    )
    assert codes(check_architecture(suite)) == ["E202"]


def test_import_in_fo_module_is_e203():
    suite = resolve_src(
        "ontology A at CO { }",
        "ontology MyFO at FO { imports A }",
    )
    assert codes(check_architecture(suite)) == ["E201", "E203"]


def test_no_false_g2_positives(fig2_suite):
    assert not any(v.code == "E201" for v in validate_suite(fig2_suite))


# ---------------------------------------------------------------------------
# Rule #1.
# ---------------------------------------------------------------------------

def test_rule1_accepts_direct_enrichment():
    suite = resolve_src('ontology A at CO { term X enriches ThingFO.Thing { description "d" } }')
    assert check_rule1(suite) == []


def test_rule1_flags_level_skip():
    suite = resolve_src('ontology A at TDO { term X enriches ThingFO.Thing { description "d" } }')
    assert codes(check_rule1(suite)) == ["E211"]


def test_rule1_flags_same_level_enrichment():
    suite = resolve_src(
        'ontology A at CO { term X enriches ThingFO.Thing { description "d" } }',
        'ontology B at CO { term Y enriches A.X { description "d" } }',
    )
    assert codes(check_rule1(suite)) == ["E211"]


def test_rule1_kind_chain_through_higher_relation_is_fine(fig2_suite):
    assert check_rule1(fig2_suite) == []


def test_rule1_self_cycle_kind_is_e212():
    suite = resolve_src(
        'ontology A at CO { term X enriches ThingFO.Thing { description "d" } '
        "relation r from X to X kind r }"
    )
    violations = check_rule1(suite)
    assert codes(violations) == ["E212"]
    assert "cycle" in violations[0].witness


def test_rule1_two_relation_cycle_is_e212():
    suite = resolve_src(
        'ontology A at CO { term X enriches ThingFO.Thing { description "d" } '
        "relation r1 from X to X kind r2 relation r2 from X to X kind r1 }"
    )
    assert codes(check_rule1(suite)) == ["E212", "E212"]


def test_rule1_downward_kind_is_e212():
    suite = resolve_src(
        'ontology A at CO { term X enriches ThingFO.Thing { description "d" } '
        "relation r from X to X kind B.s }",
        'ontology B at TDO { term Y enriches A.X { description "d" } '
        "relation s from Y to Y kind ThingFO.relatesWith }",
    )
    assert codes(check_rule1(suite)) == ["E212"]


# ---------------------------------------------------------------------------
# Rule #2.
# ---------------------------------------------------------------------------

def test_rule2_clean_joint_definition(fig2_suite):
    assert check_rule2(fig2_suite) == []


def test_rule2_adds_nothing_for_singleton_components():
    suite = resolve_src('ontology A at TDO { term X enriches ThingFO.Thing { description "d" } }')
    assert codes(check_rule1(suite)) == ["E211"]
    assert check_rule2(suite) == []
    assert codes(validate_suite(suite)) == ["E211"]


def test_rule2_flags_cross_module_kind_cycle_as_e221():
    suite = resolve_src(
        'ontology A at CO { imports B term X enriches ThingFO.Thing { description "d" } '
        "relation r1 from X to X kind B.r2 }",
        "ontology B at CO { relation r2 from A.X to A.X kind A.r1 }",
    )
    assert check_rule1(suite) == []  # lateral chains are Rule #2's concern
    violations = check_rule2(suite)
    assert codes(violations) == ["E221", "E221"]
    assert "A, B" in violations[0].witness


def test_rule2_flags_chain_leaving_component_as_e221():
    suite = resolve_src(
        'ontology A at CO { term X enriches ThingFO.Thing { description "d" } '
        "relation r from X to X kind C.s }",
        'ontology C at CO { term Y enriches ThingFO.Thing { description "d" } '
        "relation s from Y to Y kind ThingFO.relatesWith }",
    )
    assert check_rule1(suite) == []
    violations = check_rule2(suite)
    assert codes(violations) == ["E221"]
    assert "not related" in violations[0].witness


def test_rule2_accepts_imported_lateral_chain():
    suite = resolve_src(
        'ontology A at CO { imports C term X enriches ThingFO.Thing { description "d" } '
        "relation r from X to X kind C.s }",
        'ontology C at CO { term Y enriches ThingFO.Thing { description "d" } '
        "relation s from Y to Y kind ThingFO.relatesWith }",
    )
    assert check_rule1(suite) == []
    assert check_rule2(suite) == []


# ---------------------------------------------------------------------------
# Rule #3.
# ---------------------------------------------------------------------------

SUITE_FOR_RULE3 = (
    "ontology GoalCO at CO {\n"
    '  term Agent enriches ThingFO.Thing { description "d" }\n'
    '  term Goal enriches ThingFO.IntentionAssertion { positive_statement "p" }\n'
    '  term AgentKind enriches ThingFO.ThingCategory { descriptive_statement "s" }\n'
    '  term Trait enriches ThingFO.Property { structural_description "s" }\n'
    '  term Skill enriches ThingFO.Power { behavioral_description "b" }\n'
    "}\n"
)


def _rule3_suite(indiv: str):
    return resolve_src(SUITE_FOR_RULE3, f"instances of GoalCO {{ {indiv} }}")


def test_rule3_allows_thing_rooted_individuals():
    assert check_rule3(_rule3_suite("individual a1 : Agent")) == []


def test_rule3_allows_assertion_rooted_individuals():
    assert check_rule3(_rule3_suite("individual g1 : Goal")) == []


def test_rule3_rejects_category_individuals():
    violations = check_rule3(_rule3_suite("individual k1 : AgentKind"))
    assert codes(violations) == ["E301"]
    assert "does not result in instances" in violations[0].anchor


def test_rule3_rejects_part_individuals():
    assert codes(check_rule3(_rule3_suite("individual t1 : Trait"))) == ["E302"]
    assert codes(check_rule3(_rule3_suite("individual s1 : Skill"))) == ["E302"]


def test_rule3_checks_world_thing_typing():
    suite = _rule3_suite("world w { thing c1 : AgentKind { } }")
    assert codes(check_rule3(suite)) == ["E301"]


def test_rule3_applies_to_builtin_typed_individuals():
    suite = resolve_src("instances of ThingFO { individual x : ThingCategory }")
    assert codes(check_rule3(suite)) == ["E301"]
    suite = resolve_src("instances of ThingFO { individual x : Thing }")
    assert check_rule3(suite) == []


def test_rule1_flags_programmatic_term_without_enrichment():
    from ontoarch.model import Level, OntologyModule, TermDef

    module = OntologyModule("A", Level.CO, body=(TermDef("X", None),))
    suite, diags = resolve([module], [])
    assert not diags
    assert codes(check_rule1(suite)) == ["E213"]
    # dependent checks skip the broken chain instead of crashing
    assert check_rule3(suite) == []
    assert check_property_conformance(suite) == []
    assert check_relationship_conformance(suite) == []


# ---------------------------------------------------------------------------
# Axioms.
# ---------------------------------------------------------------------------

def test_axiom_clean_world_agrees_with_oracle():
    world = build_world(
        [("t1", ["p1"], ["w1"]), ("t2", [], [])],
        [("enables", "t1.p1", "t1.w1"), ("actsUpon", "t1.w1", "t1.p1"), ("interacts", "t1.w1", "t2")],
    )
    assert check_axioms(world) == []
    assert oracle_check_axioms(world) == []


def test_axiom_a1_cross_owner_enables_is_e311():
    world = build_world(
        [("t1", ["p1"], []), ("t2", [], ["w2"])],
        [("enables", "t1.p1", "t2.w2")],
    )
    violations = check_axioms(world)
    assert codes(violations) == ["E311"]
    assert "owner(t1.p1)=t1" in violations[0].witness
    assert set(oracle_check_axioms(world)) == set(violations)


def test_axiom_a2_cross_owner_acts_upon_is_e312():
    world = build_world(
        [("t1", [], ["w1"]), ("t2", ["p2"], [])],
        [("actsUpon", "t1.w1", "t2.p2")],
    )
    violations = check_axioms(world)
    assert codes(violations) == ["E312"]
    assert set(oracle_check_axioms(world)) == set(violations)


def test_axiom_a3_self_interaction_is_e313():
    world = build_world([("t1", [], ["w1"])], [("interacts", "t1.w1", "t1")])
    violations = check_axioms(world)
    assert codes(violations) == ["E313"]
    assert set(oracle_check_axioms(world)) == set(violations)


def test_axioms_vacuous_on_empty_world():
    world = build_world([], [])
    assert check_axioms(world) == []
    assert oracle_check_axioms(world) == []


def test_axioms_vacuous_without_edges():
    world = build_world([("t1", ["p1"], ["w1"])], [])
    assert check_axioms(world) == []
    assert oracle_check_axioms(world) == []


def _exhaustive_worlds(thing_specs):
    """All edge subsets over the well-typed candidate edges of a fixed
    ownership configuration."""
    props = [f"{t}.{p}" for t, ps, _ in thing_specs for p in ps]
    pows = [f"{t}.{p}" for t, _, ps in thing_specs for p in ps]
    things = [t for t, _, _ in thing_specs]
    candidates = (
        [("enables", p, w) for p in props for w in pows]
        + [("actsUpon", w, p) for w in pows for p in props]
        + [("interacts", w, t) for w in pows for t in things]
    )
    for mask in range(2 ** len(candidates)):
        facts = [c for i, c in enumerate(candidates) if mask >> i & 1]
        yield build_world(thing_specs, facts)


def test_small_exhaustive_oracle_agreement():
    # one representative config here; the full two-thing domain runs in the
    # acceptance suite
    spec = [("t1", ["p1"], ["w1"]), ("t2", [], ["w2"])]
    count = 0
    for world in _exhaustive_worlds(spec):
        assert set(check_axioms(world)) == set(oracle_check_axioms(world))
        count += 1
    assert count == 2 ** 8


@st.composite
def world_strategy(draw):
    n_things = draw(st.integers(min_value=1, max_value=3))
    specs = []
    for i in range(n_things):
        n_props = draw(st.integers(min_value=0, max_value=2))
        n_pows = draw(st.integers(min_value=0, max_value=2))
        specs.append(
            (f"t{i}", [f"p{i}_{j}" for j in range(n_props)], [f"w{i}_{j}" for j in range(n_pows)])
        )
    props = [f"{t}.{p}" for t, ps, _ in specs for p in ps]
    pows = [f"{t}.{p}" for t, _, ps in specs for p in ps]
    things = [t for t, _, _ in specs]
    candidates = (
        [("enables", p, w) for p in props for w in pows]
        + [("actsUpon", w, p) for w in pows for p in props]
        + [("interacts", w, t) for w in pows for t in things]
    )
    facts = [c for c in candidates if draw(st.booleans())]
    return specs, facts


@settings(max_examples=150, deadline=None)
@given(world_strategy())
def test_oracle_equivalence_on_random_worlds(data):
    specs, facts = data
    world = build_world(specs, facts)
    assert set(check_axioms(world)) == set(oracle_check_axioms(world))


@settings(max_examples=100, deadline=None)
@given(world_strategy())
def test_adding_an_edge_never_removes_violations(data):
    specs, facts = data
    props = [f"{t}.{p}" for t, ps, _ in specs for p in ps]
    pows = [f"{t}.{p}" for t, _, ps in specs for p in ps]
    if not (props and pows):
        return
    base = set(check_axioms(build_world(specs, facts)))
    extended = set(check_axioms(build_world(specs, facts + [("enables", props[0], pows[-1])])))
    assert base <= extended


# ---------------------------------------------------------------------------
# Relationship conformance and cardinality.
# ---------------------------------------------------------------------------

def test_generalizes_accepts_scoped_assertion_terms():
    suite = resolve_src(
        "ontology A at CO {\n"
        '  term Up enriches ThingFO.QualityAssertion scope universals { positive_statement "p" }\n'
        '  term Down enriches ThingFO.QualityAssertion scope particulars { positive_statement "p" }\n'
        "  relation abs from Up to Down kind ThingFO.generalizes\n"
        "}"
    )
    assert check_relationship_conformance(suite) == []


def test_generalizes_accepts_scope_subtype_enrichment():
    suite = resolve_src(
        "ontology A at CO {\n"
        '  term Up enriches ThingFO.AssertionOnUniversals { positive_statement "p" }\n'
        '  term Down enriches ThingFO.AssertionOnParticulars { positive_statement "p" }\n'
        "  relation abs from Up to Down kind ThingFO.generalizes\n"
        "}"
    )
    assert check_relationship_conformance(suite) == []


def test_unscoped_assertion_term_fails_generalizes():
    suite = resolve_src(
        "ontology A at CO {\n"
        '  term Up enriches ThingFO.QualityAssertion { positive_statement "p" }\n'
        '  term Down enriches ThingFO.QualityAssertion scope particulars { positive_statement "p" }\n'
        "  relation abs from Up to Down kind ThingFO.generalizes\n"
        "}"
    )
    assert codes(check_relationship_conformance(suite)) == ["E231"]


def test_domain_range_mismatch_is_e231():
    suite = resolve_src(
        "ontology A at CO {\n"
        '  term X enriches ThingFO.Thing { description "d" }\n'
        "  relation r from X to X kind ThingFO.belongsTo\n"
        "}"
    )
    violations = check_relationship_conformance(suite)
    assert codes(violations) == ["E231"]
    assert "belong to none or more Thing Categories" in violations[0].anchor


def test_relates_with_matches_any_variant():
    suite = resolve_src(
        "ontology A at CO {\n"
        '  term C1 enriches ThingFO.ThingCategory { descriptive_statement "s" }\n'
        '  term C2 enriches ThingFO.ThingCategory { descriptive_statement "s" }\n'
        "  relation r from C1 to C2 kind ThingFO.relatesWith\n"
        "}"
    )
    assert check_relationship_conformance(suite) == []


WORLD_SUITE = (
    "ontology A at CO {\n"
    '  term X enriches ThingFO.Thing { description "d" }\n'
    '  term K enriches ThingFO.ThingCategory { descriptive_statement "s" }\n'
    '  term G enriches ThingFO.IntentionAssertion { positive_statement "p" }\n'
    "}\n"
)


def _world_suite(facts: str, things: str = "thing t1 : X { property p; power q; } thing t2 : X { }"):
    return resolve_src(WORLD_SUITE, f"instances of A {{ world w {{ {things} {facts} }} }}")


def test_belongs_to_thing_rooted_target_is_e232():
    suite = _world_suite("belongsTo(t1, A.X)")
    assert codes(check_relationship_conformance(suite)) == ["E232"]


def test_belongs_to_category_target_is_clean():
    suite = _world_suite("belongsTo(t1, A.K)")
    assert check_relationship_conformance(suite) == []


def test_defines_non_assertion_target_is_e233():
    suite = _world_suite("defines(t1, A.K)")
    assert codes(check_relationship_conformance(suite)) == ["E233"]


def test_relates_with_self_is_e234():
    suite = _world_suite("relatesWith(t1, t1)")
    assert codes(check_relationship_conformance(suite)) == ["E234"]


def test_power_without_acts_upon_is_w301():
    suite = _world_suite(
        "actsUpon(t1.q, t1.p)",
        things="thing t1 : X { property p; power q; } thing t2 : X { power idle; }",
    )
    violations = check_relationship_conformance(suite)
    assert codes(violations) == ["W301"]
    assert "idle" in violations[0].message
    # Reported at the power's own place, on a thing with no type and a
    # property before its powers as well.
    things = "thing t1 : X { property p; power q; } thing t2 { property r; power busy; power idle; }"
    (w301,) = check_relationship_conformance(_world_suite("actsUpon(t1.q, t1.p) actsUpon(t2.busy, t2.r)", things))
    text = f"instances of A {{ world w {{ {things} "
    column = text.index("idle") + 1
    assert (w301.span.start_line, w301.span.start_col, w301.span.end_col) == (1, column, column + 3)


def test_no_w301_when_world_declares_no_acting():
    suite = _world_suite("relatesWith(t1, t2)")
    assert check_relationship_conformance(suite) == []


# ---------------------------------------------------------------------------
# Property schema.
# ---------------------------------------------------------------------------

def test_unowned_attribute_key_is_w201():
    suite = resolve_src(
        'ontology A at CO { term X enriches ThingFO.Thing { description "d" descriptive_statement "s" } }'
    )
    violations = check_property_conformance(suite)
    assert codes(violations) == ["W201"]
    assert "descriptive_statement" in violations[0].message


def test_assertion_attributes_are_clean():
    suite = resolve_src(
        'ontology A at CO { term G enriches ThingFO.BehaviorAssertion { positive_statement "p" specification "s" } }'
    )
    assert check_property_conformance(suite) == []


def test_thing_rooted_term_without_description_is_w202():
    suite = resolve_src("ontology A at CO { term X enriches ThingFO.Thing }")
    assert codes(check_property_conformance(suite)) == ["W202"]


def test_scope_on_non_assertion_root_is_w203():
    suite = resolve_src(
        'ontology A at CO { term X enriches ThingFO.Thing scope particulars { description "d" } }'
    )
    assert codes(check_property_conformance(suite)) == ["W203"]


# ---------------------------------------------------------------------------
# Orchestration.
# ---------------------------------------------------------------------------

def test_validate_suite_reports_each_finding_once_in_check_order():
    suite = resolve_src(
        "ontology A at TDO { term X enriches ThingFO.Thing relation r from X to X kind r }"
    )
    violations = validate_suite(suite)
    assert [v.code for v in violations] == ["E211", "E212", "W202"]
    assert len(set(violations)) == len(violations)


def test_report_build_orders_findings_by_place():
    """`check_architecture` runs first, so its E201 on line 2 comes before
    Rule #1's E211 on line 1 until the report orders them."""
    text = "ontology A at TDO { term X enriches ThingFO.Thing { description \"d\" } }\nontology MyFO at FO { }"
    assert [v.code for v in validate_suite(resolve_src(text))] == ["E201", "E211"]
    report = build_report([("f0.onto", text)])
    assert [(d.span.start_line, d.code) for d in report.diagnostics] == [(1, "E211"), (2, "E201")]


def test_a_fact_listed_twice_is_reported_twice():
    """Each listed fact is one finding. Two equal findings need a fact
    repeated programmatically: parsed facts carry distinct spans."""
    fact = Fact("enables", QualifiedRef("t1", "p1"), QualifiedRef("t2", "w2"))
    world = World(
        "w",
        (ThingNode("t1", None, ("p1",)), ThingNode("t2", None, (), ("w2",))),
        (fact, fact),
    )
    ast, diags = parse_suite([("a.onto", "ontology A at CO { }")])
    assert not diags
    suite, rdiags = resolve(ast.modules, [InstanceFile("A", (world,))])
    assert not rdiags and suite is not None
    violations = validate_suite(suite)
    assert codes(violations) == ["E311", "E311"]
    assert violations[0] == violations[1]


def test_validate_fig2_is_fully_clean(fig2_suite):
    assert validate_suite(fig2_suite) == []


def test_every_violation_carries_rule_and_anchor():
    suite = resolve_src(
        "ontology A at TDO { term X enriches ThingFO.Thing scope universals relation r from X to X kind r }",
        "ontology MyFO at FO { }",
    )
    for v in validate_suite(suite):
        assert v.rule == CODE_CATALOG[v.code].rule and isinstance(v.rule, str)
        assert v.anchor, v.code


def test_no_per_term_metamodel_call_remains(monkeypatch):
    """No timing: call counts. On wide_clean's 5,000 terms, 1,000 typed
    things and 3 relations, the checks read each term's root kind and
    allowed keys from tables. Only relations call the metamodel's lookups,
    at most once per side of each kind variant, and only relation endpoints
    ask the suite's `enrichment_root`."""
    ast, _ = parse_suite(sorted(load_bench("generators").wide_clean(1).files.items()))
    suite, _ = resolve(ast.modules, ast.instance_files)
    relations = sum(len(m.relations) for m in suite.modules.values())
    calls: Counter = Counter()

    def counted(name, original):
        return lambda *args: calls.update([name]) or original(*args)

    for name in ("root_kind", "property_keys_for_root"):
        monkeypatch.setattr(metamodel, name, counted(name, getattr(metamodel, name)))
    monkeypatch.setattr(ResolvedSuite, "enrichment_root", counted("enrichment_root", ResolvedSuite.enrichment_root))
    for check in (check_rule1, check_rule3, check_property_conformance):
        calls.clear()
        assert check(suite) == []
        assert not calls, check.__name__
    calls.clear()
    assert validate_suite(suite) == []
    assert calls["property_keys_for_root"] == 0
    assert calls["root_kind"] <= 2 * 3 * relations  # `relates with` has three variants
    assert calls["enrichment_root"] <= 2 * relations


def test_relationship_conformance_judges_each_question_once(monkeypatch):
    """No timing: call counts. On deep_chains, 603 relations whose kind
    chains reach ThingFO ask one question, a kind with each endpoint's root
    and scope. The metamodel's lookups run a bounded number of times per
    distinct question, not per relation, and the suite's `enrichment_root`
    at most twice per relation."""
    ast, _ = parse_suite(sorted(load_bench("generators").deep_chains(1).files.items()))
    suite, _ = resolve(ast.modules, ast.instance_files)
    roots = suite.enrichment_roots

    def end(module: str, ref: QualifiedRef) -> tuple:
        key = (ref.module or module, ref.name)
        return roots[key], getattr(suite.terms.get(key), "scope", None)

    questions = {
        (suite.kind_chains[module, r.name].key, *end(module, r.from_ref), *end(module, r.to_ref))
        for (module, _), r in suite.relations.items() if suite.kind_chains[module, r.name].outcome == "foundational"
    }
    assert len(questions) == 1 and len(suite.relations) > 600
    calls: Counter = Counter()

    def counted(name, original):
        return lambda *args: calls.update([name]) or original(*args)

    for name in ("relationship_variants", "is_descendant", "root_kind"):
        monkeypatch.setattr(metamodel, name, counted(name, getattr(metamodel, name)))
    monkeypatch.setattr(ResolvedSuite, "enrichment_root", counted("enrichment_root", ResolvedSuite.enrichment_root))
    assert check_relationship_conformance(suite) == []
    assert calls["relationship_variants"] <= len(questions)
    assert calls["is_descendant"] <= 2 * 3 * len(questions)  # `relates with` has three variants
    assert calls["root_kind"] <= 2 * 3 * len(questions)
    assert calls["enrichment_root"] <= 2 * len(suite.relations)
