"""Resolution and enrichment chains."""

from __future__ import annotations

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
    assert suite.level_of(BUILTIN_MODULE) is Level.FO
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
    for _, world in fig2_suite.all_worlds():
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
    for module_name, term in fig2_suite.all_terms():
        module = fig2_suite.modules[module_name]
        target_mod, _ = fig2_suite.term_target(term.enriches, module_name)
        assert fig2_suite.level_of(target_mod).is_exactly_above(module.level)


def test_programmatic_term_without_enrichment_resolves():
    module = OntologyModule("A", Level.CO, body=(TermDef("X", None),))
    suite, diags = resolve([module], [])
    assert diags == []
    assert suite.enrichment_root("A", "X") is None


def test_qualified_ref_str_forms():
    assert str(QualifiedRef("M", "T")) == "M.T"
    assert str(QualifiedRef(None, "T")) == "T"
