"""The index-based parser against the cursor parser it replaced, every
node's location against lines and columns counted by hand, and canonical
rendering as a fixed point.

`oracle_parse_file` (in `oracles.py`) is the former parser, which steps
through the tokens with a cursor, each token carrying the line and columns
that the oracle counts in the text. On the same tokens both must give the
same declarations and the same diagnostics. Nodes compare without their
locations, so `tree` (in `conftest.py`) spells every node out field by
field, with the parser's `loc` turned into a span by `Source.span`, the
line-start table and `bisect`: the two trees agree only if every node's
`source.span(loc)`, every reference's place that `Source.ref_loc` finds in
its holder's text, and every part's place that its thing's `loc` packs, is
the span the oracle computes.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from conftest import MUTATIONS, load_bench, load_fig2, mutate, tree
from oracles import oracle_parse_file, render_canonical
from test_file_order import soup_file, suites

from ontoarch import parser
from ontoarch.cli import build_report
from ontoarch.model import TermDef
from ontoarch.parser import parse_suite, tokenize
from ontoarch.reporting import render_json
from ontoarch.source import Source


def _parse_file(text: str, path: str):
    """One file's declarations, kept or not, and its parse diagnostics;
    every module and instance file must hold the file's `Source`."""
    tokens, starts, _ = tokenize(text, path)
    source = Source(path, text)
    decls, diagnostics = parser._Parser(tokens, starts, source, {}).parse_file()
    assert all(decl.source is source for decl in decls)
    return decls, diagnostics


def _oracle_parse_file(text: str, path: str):
    tokens, starts, _ = tokenize(text, path)
    return oracle_parse_file(tokens, starts, text, path)


def assert_same_parse(text: str, path: str = "f.onto") -> None:
    assert tree(_parse_file(text, path)) == tree(_oracle_parse_file(text, path))


@settings(max_examples=300, deadline=None)
@given(suites())
def test_parser_equals_the_cursor_parser_on_generated_suites(files):
    for path, text in files:
        assert_same_parse(text, path)
    ast, _ = parse_suite(files)
    assert_same_parse(render_canonical(ast), "canonical.onto")


@settings(max_examples=300, deadline=None)
@given(soup_file())
def test_parser_equals_the_cursor_parser_on_token_soup(text):
    assert_same_parse(text)
    ast, _ = parse_suite([("f.onto", text)])
    assert_same_parse(render_canonical(ast), "canonical.onto")


#: Syntax errors that reach each recovery branch: a module or an instances
#: block cut short by the next top-level keyword or by a closing brace that
#: recovery consumes, an unknown predicate with and without its argument
#: list, and errors at the end of input. A fact side and a term reference
#: share one production but keep their own message for a first token that is
#: not a name.
RECOVERY = (
    "ontology A at CO { term X enriches T scope other ontology B at CO { } }",
    "ontology A at CO { term X enriches T scope term Y enriches T }",
    "ontology A at CO { term X } term Y enriches ThingFO.Thing }",
    "ontology A at CO { relation r from X to }\ninstances of A { }",
    "ontology A at CO { term X enriches T scope other { } term Y enriches T }",
    'ontology A at CO { term X enriches T { description } } term',
    'ontology A at CO { term X enriches T { "d" "e" } }',
    "ontology A at CO { imports } ontology A at XX { } ontology at } ontology A at {",
    "ontology A at CO { term X enriches T imports B relation r from X to X kind ThingFO.relatesWith }",
    "instances of M { world w { thing t { } emits(t, t) world v { } } }",
    "instances of M { world w { emits(t, t) individual i : T } instances of N { } }",
    "instances of M { world w { emits t } individual i : T }",
    "instances of M { world w { emits(t, t }",
    "instances of M { individual i X instances of N { } }",
    "instances of M { world w { thing t { power q; property p; } } }",
    "instances of M { world w { relatesWith(t, t) thing u { } } } }",
    "instances of M { world w { ( } } individual",
    "instances of M { world w { enables(, t) } }",
    # A fact reads both of its references itself: each way either one can fail.
    "instances of M { world w { enables(t., t.q) } }",
    "instances of M { world w { enables(t.p, t.) } }",
    "instances of M { world w { enables(t.p t.q) } }",
    "instances of M { world w { enables(t.p, t.q } individual i : T }",
    "instances of M { world w { enables(t.p, ; ) } }",
    "instances of M { world w { enables(t.p, t.q",
    "instances of M { world w { enables(t.p.",
    "instances of M { world w { enables",
    "ontology A at CO { term X enriches , }",
    "instances M { } of } instances of { } instances of M individual",
    "} ; term ontology",
    "",
)


@pytest.mark.parametrize("text", RECOVERY)
def test_parser_equals_the_cursor_parser_on_recovery_cases(text):
    assert_same_parse(text)


@pytest.mark.parametrize("workload", ["wide_clean", "deep_chains", "dirty_worlds"])
def test_parser_equals_the_cursor_parser_on_bench_suites(workload):
    suite = getattr(load_bench("generators"), workload)(1)
    for path, text in suite.files.items():
        assert_same_parse(text, path)


@pytest.mark.parametrize("mutation", [None, *MUTATIONS], ids=lambda m: m[0] if m else "fig2")
def test_parser_equals_the_cursor_parser_on_fig2_and_its_mutants(mutation):
    files = load_fig2() if mutation is None else mutate(load_fig2(), *mutation[1:])
    for path, text in files:
        assert_same_parse(text, path)


#: Texts whose layout moves columns and lines away from what a count of
#: tokens would give: CRLF line ends, a byte order mark (an invalid
#: character), tabs, escaped strings whose lexeme is shorter than their
#: source, unterminated strings, declarations cut off by the end of input,
#: with and without a final line feed, characters outside ASCII, one code
#: point each, and comments that name the words and marks a reference
#: follows, before each kind of reference and between its name and its `.`.
LAYOUTS = {
    "crlf": 'ontology A at CO {\r\n  term X enriches ThingFO.Thing {\r\n    description "d"\r\n  }\r\n}\r\n'
            "instances of A {\r\n  individual i : X\r\n}\r\n",
    "bom": "\ufeffontology A at CO { term X enriches ThingFO.Thing }\n\ufeffinstances of A { }",
    "tabs": "\tontology\tA at CO {\n\t\tterm X enriches\tThingFO.Thing\t{ description\t\"d\" }\n\t}\n"
            "instances of A {\n\tworld w {\n\t\tthing t : X { property p;\tpower q; }\n\t\tenables(t.p,\tt.q)\n\t}\n}",
    "escapes": 'ontology A at CO {\n  term X enriches ThingFO.Thing { description "a \\"b\\" \\\\ c" name "\\"" }\n'
               '  term Y enriches X { description "\\q" }\n  relation r from X to Y kind ThingFO.relatesWith\n}',
    "unterminated": 'ontology A at CO {\n  term X enriches ThingFO.Thing { description "open\n  name "x" }\n'
                    '  term Y enriches X { description "\\\n  }\n}',
    "end of input": "ontology A at CO {\n  term X enriches ThingFO.Thing\n  relation r from X to",
    "end of input after a line feed": "instances of A {\n  world w {\n    thing t { property p; }\n",
    "end of input in a string": 'ontology A at CO { term X enriches ThingFO.Thing { description "d\\',
    "wide characters": 'ontology A at CO {\n  term X enriches ThingFO.Thing { description "é ß 𝔘" }\n'
                       '  term Y enriches X { description "🙂" } term Z enriches Y\n}',
    "comments": "// from A.B to (C, D)\nontology A at CO { // kind: enriches\n  term X enriches // from X\n"
                "    ThingFO // .Thing, to\n    .Thing\n  relation r from // (\n    X // .Y\n  to X kind // :\n"
                "    ThingFO.relatesWith\n}\ninstances of A {\n  individual i : // to\n    X\n  world w {\n"
                "    thing t : // , kind\n      X { property p; // power q;\n      power q; }\n"
                "    enables( // t.p,\n      t // .q\n      .p, // (\n      t.q)\n  }\n}",
}


@pytest.mark.parametrize("text", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_every_node_location_equals_the_span_counted_by_hand(text):
    decls, diagnostics = _parse_file(text, "f.onto")
    assert decls or diagnostics
    assert_same_parse(text)
    # The same tokens on other lines: doubled line feeds, and CRLF ends.
    assert_same_parse(text.replace("\n", "\n\n"))
    assert_same_parse(text.replace("\r\n", "\n").replace("\n", "\r\n"))


def _spans(node) -> list[tuple]:
    """The fields of every span in a node, or a list or tuple of nodes."""
    stack, spans = [tree(node)], []
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            if item[:1] == ("span",):
                spans.append(item[1:])
            else:
                stack.extend(item)
    return spans


def _counting_spans(monkeypatch) -> list[int]:
    """Each `loc` that `Source.span` is asked for from now on."""
    asked: list[int] = []
    real = Source.span

    def counting(self, loc):
        asked.append(loc)
        return real(self, loc)

    monkeypatch.setattr(Source, "span", counting)
    return asked


def test_parser_gives_every_node_an_int_loc_and_builds_no_span(monkeypatch):
    lines = ["ontology M at CO {", "  imports N"]
    for k in range(1000):
        lines.append(f'  term t{k} enriches ThingFO.Thing scope particulars {{ description "t{k}" }}')
        lines.append(f"  relation r{k} from t{k} to M.t{k} kind ThingFO.relatesWith")
    text = "\n".join(lines + ["}"])

    asked = _counting_spans(monkeypatch)
    ast, diagnostics = parse_suite([("m.onto", text)])
    assert (diagnostics, asked) == ([], [])
    (module,) = ast.decls
    assert module.source.path == "m.onto" and module.source.text is text
    # the module and its import; each term and its attribute; each relation:
    # each its own place alone
    locs = _field_values(ast.decls, "loc")
    assert len(locs) == 1 + 1 + 1000 * 2 + 1000
    assert all(type(loc) is int and loc >> 32 < loc & 0xFFFFFFFF <= len(text) for loc in locs)
    # `ref_loc` finds each term's target, and each relation's three
    # references, in its declaration's text, and builds no span either
    refs = [(decl, index, ref) for decl in module.body for index, ref in enumerate(
        (decl.enriches,) if isinstance(decl, TermDef) else (decl.from_ref, decl.to_ref, decl.kind_ref))]
    places = [module.source.ref_loc(decl.loc, index) for decl, index, _ in refs]
    assert asked == []
    assert len(places) == 1000 * 4
    assert all(decl.loc >> 32 < place >> 32 < place & 0xFFFFFFFF <= decl.loc & 0xFFFFFFFF
               for (decl, _, _), place in zip(refs, places))
    assert [text[place >> 32:place & 0xFFFFFFFF] for place in places] == [str(ref) for _, _, ref in refs]


def _field_values(node, name: str) -> list:
    """The value of field `name` in every record in a node, or a list or
    tuple of nodes."""
    stack, values = [node], []
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        elif hasattr(item, "_fields"):
            values += [getattr(item, name)] if name in item._fields else []
            stack.extend(getattr(item, field) for field in item._fields if field != name)
    return values


@pytest.mark.parametrize("workload", ["wide_clean", "deep_chains", "dirty_worlds"])
def test_a_clean_parse_builds_no_span(workload, monkeypatch):
    files = sorted(getattr(load_bench("generators"), workload)(1).files.items())
    asked = _counting_spans(monkeypatch)
    ast, diagnostics = parse_suite(files)
    assert diagnostics == [] and ast.decls
    assert asked == []
    ast.decls[0].source.span(ast.decls[0].loc)  # the count does see a span
    assert asked == [ast.decls[0].loc]


def assert_spans_well_formed(text: str, path: str = "f.onto") -> None:
    """Every span of a file's declarations and diagnostics, kept or not,
    names `path` and starts no later than it ends, on lines and columns
    that the text has (one past a line's end marks where it ends)."""
    _, _, lex_diagnostics = tokenize(text, path)
    decls, parse_diagnostics = _parse_file(text, path)
    widths = [len(line) + 1 for line in text.split("\n")]
    for file, start_line, start_col, end_line, end_col in _spans((decls, lex_diagnostics, parse_diagnostics)):
        assert file == path
        assert (start_line, start_col) <= (end_line, end_col)
        assert 1 <= start_line and end_line <= len(widths)
        assert 1 <= start_col <= widths[start_line - 1] and end_col <= widths[end_line - 1]


@settings(max_examples=200, deadline=None)
@given(suites())
def test_every_parsed_span_is_well_formed_on_generated_suites(files):
    for path, text in files:
        assert_spans_well_formed(text, path)
    assert_spans_well_formed(render_canonical(parse_suite(files)[0]))


@settings(max_examples=200, deadline=None)
@given(soup_file())
def test_every_parsed_span_is_well_formed_on_token_soup(text):
    assert_spans_well_formed(text)
    assert_spans_well_formed(render_canonical(parse_suite([("f.onto", text)])[0]))


@pytest.mark.parametrize("workload", ["wide_clean", "deep_chains", "dirty_worlds"])
def test_every_parsed_span_is_well_formed_on_bench_suites(workload):
    for path, text in getattr(load_bench("generators"), workload)(1).files.items():
        assert_spans_well_formed(text, path)


def _each_canonical(files: list[tuple[str, str]]) -> list[tuple[str, str]]:
    return [(path, render_canonical(parse_suite([(path, text)])[0])) for path, text in files]


def _positionless(files: list[tuple[str, str]]) -> dict:
    """The JSON report with line and column numbers dropped, and so with
    the diagnostics in an order that does not depend on them."""
    payload = json.loads(render_json(build_report(files)))
    for d in payload["diagnostics"]:
        for key in ("start_line", "start_col", "end_line", "end_col"):
            del d[key]
    payload["diagnostics"].sort(key=lambda d: json.dumps(d, sort_keys=True))
    return payload


@settings(max_examples=200, deadline=None)
@given(suites(edits=False))
def test_canonical_rendering_is_a_fixed_point_that_keeps_the_report(files):
    ast, diagnostics = parse_suite(files)
    assert diagnostics == []
    once = _each_canonical(files)
    assert _each_canonical(once) == once
    assert parse_suite(once)[0].decls == ast.decls
    # canonical layout moves findings, so their positions are left out
    assert _positionless(once) == _positionless(files)
