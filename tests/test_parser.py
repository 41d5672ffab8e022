"""Tokenizer, parser, error recovery, locations and canonical round-trips."""

from __future__ import annotations

from hypothesis import given, strategies as st

from oracles import _escape, render_canonical

from ontoarch.model import Level, OntologyModule
from ontoarch.parser import (
    SuiteAst,
    TokenKind,
    parse_suite,
    tokenize,
)


def kinds_and_lexemes(tokens):
    return [(t[0], t[1]) for t in tokens]


def test_tokenize_module_header():
    tokens, _, diags = tokenize("ontology A at CO { }")
    assert not diags
    assert kinds_and_lexemes(tokens) == [
        (TokenKind.KEYWORD, "ontology"),
        (TokenKind.IDENT, "A"),
        (TokenKind.KEYWORD, "at"),
        (TokenKind.KEYWORD, "CO"),
        (TokenKind.PUNCT, "{"),
        (TokenKind.PUNCT, "}"),
        (TokenKind.EOI, ""),
    ]


def test_tokenize_empty_input():
    tokens, _, diags = tokenize("")
    assert not diags
    assert [t[0] for t in tokens] == [TokenKind.EOI]


def test_tokenize_invalid_character_recovers():
    tokens, _, diags = tokenize("term Pro¢ess")
    assert [d.code for d in diags] == ["E001"]
    assert diags[0].span.start_col == 9
    assert kinds_and_lexemes(tokens) == [
        (TokenKind.KEYWORD, "term"),
        (TokenKind.IDENT, "Pro"),
        (TokenKind.IDENT, "ess"),
        (TokenKind.EOI, ""),
    ]


def test_tokenize_strings_and_escapes():
    tokens, _, diags = tokenize('description "a \\"quoted\\" \\\\ value"')
    assert not diags
    kind, _, value, *_ = tokens[1]
    assert kind is TokenKind.STRING
    assert value == 'a "quoted" \\ value'


def test_tokenize_unterminated_string():
    tokens, _, diags = tokenize('description "oops\n')
    assert [d.code for d in diags] == ["E001"]
    assert tokens[1][0] is TokenKind.STRING


def test_tokenize_comments_discarded():
    tokens, starts, diags = tokenize("// a comment\nontology A at CO { } // tail")
    assert not diags
    kind, lexeme, _ = tokens[0]
    assert (kind, lexeme, starts[0]) == (TokenKind.KEYWORD, "ontology", len("// a comment\n"))
    assert len(tokens) == len(starts) == 7


def test_tokenize_offsets_are_ordered_and_disjoint():
    text = 'ontology A at CO {\n  term B enriches ThingFO.Thing { d "x\\"y" }\n}'
    tokens, starts, _ = tokenize(text)
    ends = [start + (tok[3] if tok[0] is TokenKind.STRING else len(tok[1])) for tok, start in zip(tokens, starts)]
    assert all(start < end for start, end in zip(starts[:-1], ends))
    assert all(end <= next_start for end, next_start in zip(ends, starts[1:]))
    assert starts[-1] == ends[-1] == len(text)
    assert [text[start:end] for start, end in zip(starts, ends)][-5:] == ["d", '"x\\"y"', "}", "}", ""]


def test_parse_single_term_module():
    src = "ontology SituationCO at CO { term Situation enriches ThingFO.SituationAssertion }"
    ast, diags = parse_suite([("f.onto", src)])
    assert not diags
    (module,) = ast.modules
    assert module.name == "SituationCO"
    assert module.level is Level.CO
    (term,) = module.terms
    assert term.name == "Situation"
    assert str(term.enriches) == "ThingFO.SituationAssertion"


def test_parse_unknown_level_is_e003():
    ast, diags = parse_suite([("f.onto", "ontology X at XX { }")])
    assert [d.code for d in diags] == ["E003"]
    assert not ast.modules  # failed files contribute no declarations


def test_parse_unexpected_token_is_e002():
    ast, diags = parse_suite([("f.onto", "ontology X CO { }")])
    assert diags and diags[0].code == "E002"
    assert not ast.modules


def test_parse_world_with_enables_edge():
    src = (
        "instances of M {\n"
        "  world w {\n"
        "    thing t1 {\n"
        "      property p1;\n"
        "      power w1;\n"
        "    }\n"
        "    enables(t1.p1, t1.w1)\n"
        "  }\n"
        "}\n"
    )
    ast, diags = parse_suite([("f.onto", src)])
    assert not diags
    (block,) = ast.instance_files
    (world,) = block.worlds
    (fact,) = world.facts
    assert fact.predicate == "enables"
    assert str(fact.left) == "t1.p1"
    assert str(fact.right) == "t1.w1"


def test_parse_unknown_predicate_is_e004():
    src = "instances of M { world w { thing t1 { } emits(t1, t1) } }"
    ast, diags = parse_suite([("f.onto", src)])
    assert [d.code for d in diags] == ["E004"]
    assert not ast.instance_files


def test_parse_recovers_and_reports_multiple_errors():
    src = (
        "ontology A at CO {\n"
        "  term X enriches enriches ThingFO.Thing\n"
        "  relation r from X to X kind kind\n"
        "}\n"
        "ontology B at XX { }\n"
    )
    _, diags = parse_suite([("f.onto", src)])
    assert len(diags) >= 2
    assert {d.code for d in diags} <= {"E002", "E003"}


def test_parse_imports_must_come_first():
    src = "ontology A at CO { term X enriches ThingFO.Thing imports B }"
    _, diags = parse_suite([("f.onto", src)])
    assert any(d.code == "E002" for d in diags)


def test_parse_things_must_precede_facts():
    src = "instances of M { world w { thing t1 { } relatesWith(t1, t1) thing t2 { } } }"
    _, diags = parse_suite([("f.onto", src)])
    assert any(d.code == "E002" for d in diags)


def test_failed_file_does_not_hide_clean_file():
    good = "ontology A at CO { term X enriches ThingFO.Thing }"
    bad = "ontology ? at CO { }"
    ast, diags = parse_suite([("good.onto", good), ("bad.onto", bad)])
    assert [m.name for m in ast.modules] == ["A"]
    assert all(d.span.file == "bad.onto" for d in diags)


def test_decl_spans_nest_within_module_span():
    src = "ontology A at CO {\n  term X enriches ThingFO.Thing\n  relation r from X to X kind ThingFO.relatesWith\n}\n"
    ast, diags = parse_suite([("f.onto", src)])
    assert not diags
    (module,) = ast.modules
    for decl in module.body:
        assert module.loc >> 32 < decl.loc >> 32 & 0xFFFFFFFF
        assert decl.loc & 0xFFFFFFFF < module.loc & 0xFFFFFFFF


def test_render_canonical_empty_module():
    ast = SuiteAst((OntologyModule("A", Level.CO),))
    assert render_canonical(ast) == "ontology A at CO {\n}\n"


def test_render_canonical_preserves_declaration_order():
    src = (
        "ontology A at CO {\n"
        "  relation r2 from Y to X kind ThingFO.relatesWith\n"
        "  term Y enriches ThingFO.Thing\n"
        "  term X enriches ThingFO.Thing\n"
        "  relation r1 from X to Y kind ThingFO.relatesWith\n"
        "}\n"
    )
    ast, _ = parse_suite([("f.onto", src)])
    rendered = render_canonical(ast)
    assert rendered.index("relation r2") < rendered.index("term Y")
    assert rendered.index("term Y") < rendered.index("term X")
    assert rendered.index("term X") < rendered.index("relation r1")


MESSY = """//   weird   spacing
ontology   A   at CO{term X enriches ThingFO.Thing
scope particulars{description "d"
}relation r from X to ThingFO.Thing kind ThingFO.relatesWith}
instances of A{individual i:X
world w{thing t:X{property p;power q;}enables(t.p,t.q)}}
"""


def test_round_trip_is_structural_fixpoint():
    ast1, diags = parse_suite([("m.onto", MESSY)])
    assert not diags
    text1 = render_canonical(ast1)
    ast2, diags2 = parse_suite([("m.onto", text1)])
    assert not diags2
    assert ast1.decls == ast2.decls
    assert render_canonical(ast2) == text1


@given(
    st.text(
        alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
        max_size=60,
    )
)
def test_attribute_values_survive_round_trip(value):
    src = f'ontology A at CO {{ term X enriches ThingFO.Thing {{ description "{_escape(value)}" }} }}'
    ast, diags = parse_suite([("f.onto", src)])
    assert not diags
    (module,) = ast.modules
    assert [(a.key, a.value) for a in module.terms[0].attributes] == [("description", value)]
    reparsed, diags2 = parse_suite([("f.onto", render_canonical(ast))])
    assert not diags2
    assert reparsed.decls == ast.decls


@given(st.text(max_size=40))
def test_tokenizer_never_crashes_and_always_terminates(text):
    tokens, starts, _ = tokenize(text)
    assert tokens[-1][0] is TokenKind.EOI and len(starts) == len(tokens)
