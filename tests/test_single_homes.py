"""Seven decisions that the parser, the report and the checks share are each
made in one place, and every reader follows it: the levels a module can sit
at (`model.Level`), the level each module of a resolved suite sits at
(`ResolvedSuite.levels`), the scopes a term can declare
(`metamodel.SCOPE_FACETS`), the root a term-valued world fact requires
(`metamodel.ROOT_SCHEMAS` of the predicate's range), how a reference reads
(`parser._Parser.parse_qname`), where a reference that an E101 names stands
(`parse_qname` again, in its holder's own production), and which axiom
restricts each world predicate and which code reports it
(`RelationshipSpec.axiom_links` and `reporting.CODE_CATALOG`). A reader that
states its own copy of one falls out of step with the others, and these
tests fail."""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings

import test_model
from conftest import load_bench
from fig2_corpus import load_fig2
from test_file_order import suites

from ontoarch import metamodel
from ontoarch.cli import _summary_from_ast, build_report
from ontoarch.metamodel import BUILTIN_MODULE, SCOPE_FACETS, RootKind
from ontoarch.model import Fact, Level, QualifiedRef, World, resolve
from ontoarch.parser import KEYWORDS, SuiteAst, _Parser, parse_suite
from ontoarch.reporting import CODE_CATALOG
from ontoarch.validator import _TERM_TARGETS, _anchor_matches, check_axioms


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
    assert all(metamodel.TERM_SPECS[subtype].parent == "Assertion" for subtype in subtypes)
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
        wrong = metamodel.ROOT_SCHEMAS[root][0] is not metamodel.ROOT_SCHEMAS[spec.range][0]
        assert found.get(f"{predicate}(x, T{root})") == (_TERM_TARGETS[spec.range] if wrong else None)


def _count_parse_qname(monkeypatch) -> list[int]:
    """A one-item list that counts `_Parser.parse_qname`'s calls from now on."""
    calls = [0]
    real = _Parser.parse_qname

    def parse_qname(self, *args):
        calls[0] += 1
        return real(self, *args)

    monkeypatch.setattr(_Parser, "parse_qname", parse_qname)
    return calls


@pytest.mark.parametrize("workload", ["fig2", "dirty_worlds"])
def test_every_reference_is_read_by_parse_qname(workload, monkeypatch):
    files = load_fig2() if workload == "fig2" else sorted(load_bench("generators").dirty_worlds(1).files.items())
    calls = _count_parse_qname(monkeypatch)
    ast, diagnostics = parse_suite(files)
    assert diagnostics == []  # so every reference read is in the AST
    worlds = [w for f in ast.instance_files for w in f.worlds]
    references = (
        sum(len(m.terms) + 3 * len(m.relations) for m in ast.modules)
        + sum(len(f.individuals) for f in ast.instance_files)
        + sum(t.instance_of is not None for w in worlds for t in w.things)
        + sum(2 * len(w.facts) for w in worlds)
    )
    assert calls[0] == references > 0


def test_an_e101_place_is_read_by_parse_qname(monkeypatch):
    # The eight E101s whose references run across comments, in
    # `test_model.py`. Each is placed by its holder's own production, which
    # reads every reference the holder has: a term's one, a relation's
    # three, an individual's or a thing's one, and a fact's two.
    mark = next(m for m in test_model.test_an_e101_spans_its_reference_across_comments.pytestmark
                if m.name == "parametrize")
    cases = mark.args[1]
    asts = [parse_suite([("f.onto", src)])[0] for src, _, _ in cases]
    calls = _count_parse_qname(monkeypatch)
    read = []
    for ast, (_, message, span) in zip(asts, cases):
        before = calls[0]
        _, diagnostics = resolve(ast.modules, ast.instance_files)
        assert [(d.code, d.message, tuple(d.span)) for d in diagnostics] == [("E101", message, ("f.onto", *span))]
        read.append(calls[0] - before)
    assert read == [1, 3, 3, 3, 1, 1, 2, 2]


def _side(sort: str, thing: str) -> QualifiedRef:
    """A fact's side of `sort` that `thing` owns: one of its parts, the thing
    itself, or, for a term, a term of module M."""
    if sort in ("Property", "Power"):
        return QualifiedRef(thing, "x")
    return QualifiedRef(None, thing) if sort == "Thing" else QualifiedRef("M", "T")


@pytest.mark.parametrize("predicate", metamodel.WORLD_PREDICATES)
def test_check_axioms_judges_each_predicate_by_its_relationship_s_axiom(predicate):
    # A fact breaks ownership when its left side belongs to t1 and its right
    # side is a part of another thing, or is t1 itself; it keeps it when
    # its right side is a part of t1, or another thing.
    spec = metamodel.WORLD_PREDICATES[predicate]
    left = _side(spec.domain, "t1")
    broken = Fact(predicate, left, _side(spec.range, "t1" if spec.range == "Thing" else "t2"))
    kept = Fact(predicate, left, _side(spec.range, "t2" if spec.range == "Thing" else "t1"))
    codes = [code for code, doc in CODE_CATALOG.items() if doc.rule in spec.axiom_links]
    assert len(codes) == len(spec.axiom_links)
    assert [d.code for d in check_axioms(World("w", (), (broken, kept)))] == codes
    assert bool(codes) is (predicate in ("enables", "actsUpon", "interacts"))
