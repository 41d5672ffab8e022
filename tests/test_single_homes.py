"""Four decisions that the parser, the report and the checks share are each
made in one place, and every reader follows it: the levels a module can sit
at (`model.Level`), the level each module of a resolved suite sits at
(`ResolvedSuite.levels`), the scopes a term can declare
(`metamodel.SCOPE_FACETS`) and the root a term-valued world fact requires
(`metamodel.root_kind` of the predicate's range). A reader that states its
own copy of one falls out of step with the others, and these tests fail."""

from __future__ import annotations

from hypothesis import assume, example, given, settings

from fig2_corpus import load_fig2
from test_file_order import suites

from ontoarch import metamodel
from ontoarch.cli import _summary_from_ast, build_report
from ontoarch.metamodel import BUILTIN_MODULE, SCOPE_FACETS, RootKind
from ontoarch.model import Level, resolve
from ontoarch.parser import KEYWORDS, SuiteAst, parse_suite
from ontoarch.validator import _TERM_TARGETS, _anchor_matches


def test_the_level_keywords_and_summary_keys_are_the_levels_a_module_can_sit_at():
    names = [level.name for level in Level if level is not Level.IO]
    assert sorted(word for word in KEYWORDS if word in Level.__members__) == sorted(names)
    assert list(_summary_from_ast(SuiteAst())["modules_per_level"]) == names
    for word in sorted(KEYWORDS | {"IO", "XX"}):
        ast, diagnostics = parse_suite([("a.onto", f"ontology A at {word} {{ }}")])
        if word in names:
            assert (diagnostics, [m.level for m in ast.modules]) == ([], [Level[word]])
        else:
            assert [d.code for d in diagnostics] == ["E003"], word
            assert diagnostics[0].message.endswith(f"(expected {', '.join(names[:-1])} or {names[-1]})")


@settings(max_examples=100, deadline=None)
@given(suites(edits=False, acyclic=True))
@example(load_fig2())
def test_a_resolved_suite_holds_the_level_each_module_declares(files):
    ast, diagnostics = parse_suite(files)
    assert diagnostics == []
    suite, _ = resolve(ast.modules, ast.instance_files)
    assume(suite is not None)
    assert suite.levels == {BUILTIN_MODULE: Level.FO, **{m.name: m.level for m in ast.modules}}


def test_the_scopes_the_parser_accepts_are_the_scope_facets_each_an_assertion_subtype():
    assert set(SCOPE_FACETS) <= KEYWORDS
    for word in sorted(KEYWORDS | set(SCOPE_FACETS) | {"both"}):
        text = f"ontology A at CO {{ term X enriches ThingFO.Assertion scope {word} }}"
        ast, diagnostics = parse_suite([("a.onto", text)])
        if word in SCOPE_FACETS:
            assert diagnostics == [] and ast.modules[0].terms[0].scope == word
        else:
            assert [d.code for d in diagnostics] == ["E002"], word
            assert all(f"'{scope}'" in diagnostics[0].message for scope in SCOPE_FACETS)
    subtypes = set(SCOPE_FACETS.values())
    assert all(metamodel.term_spec(subtype).parent == "Assertion" for subtype in subtypes)
    terms = " ".join(f"term T{scope} enriches ThingFO.Assertion scope {scope}" for scope in SCOPE_FACETS)
    ast, _ = parse_suite([("a.onto", f"ontology A at CO {{ {terms} }}")])
    suite, diagnostics = resolve(ast.modules)
    assert diagnostics == [] and suite is not None
    for scope, subtype in SCOPE_FACETS.items():
        for required in subtypes:
            declared = suite.terms["A", f"T{scope}"].scope
            assert _anchor_matches("Assertion", declared, required) is (required == subtype)


def test_each_term_valued_fact_requires_the_root_of_its_range():
    roots = [kind.value for kind in RootKind]
    terms = "\n".join(f"  term T{root} enriches ThingFO.{root}" for root in roots)
    facts = [
        (predicate, root)
        for predicate, spec in metamodel.WORLD_PREDICATES.items() if spec.range in _TERM_TARGETS
        for root in roots
    ]
    assert {predicate for predicate, _ in facts} == {"belongsTo", "defines"}
    # Both predicates relate a thing of the world to a term.
    world = "\n".join(f"    {predicate}(x, T{root})" for predicate, root in facts)
    text = f"ontology M at CO {{\n{terms}\n}}\ninstances of M {{\n  world w {{\n    thing x {{ }}\n{world}\n  }}\n}}\n"
    found = {d.witness: d.code for d in build_report([("m.onto", text)]).diagnostics if d.code in ("E232", "E233")}
    for predicate, root in facts:
        spec = metamodel.WORLD_PREDICATES[predicate]
        wrong = metamodel.root_kind(root) is not metamodel.root_kind(spec.range)
        assert found.get(f"{predicate}(x, T{root})") == (_TERM_TARGETS[spec.range] if wrong else None)
