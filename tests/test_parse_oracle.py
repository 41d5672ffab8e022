"""The index-based parser against the cursor parser it replaced, and
canonical rendering as a fixed point.

`oracle_parse_file` (in `oracles.py`) is the former parser, which steps
through the tokens with a cursor. On the same tokens both must give the same
declarations and the same diagnostics. Nodes compare without their spans
(`span` is `compare=False`), so `tree` (in `conftest.py`) spells every node
out field by field, spans included.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from conftest import MUTATIONS, load_bench, load_fig2, mutate, tree
from oracles import oracle_parse_file
from test_file_order import soup_file, suites

from ontoarch import parser
from ontoarch.cli import build_report
from ontoarch.parser import parse_suite, render_canonical, tokenize
from ontoarch.reporting import render_json
from ontoarch.source import SourceSpan


def _parsed(parse_file, text: str, path: str):
    tokens, _ = tokenize(text, path)
    decls, diagnostics = parse_file(tokens, path)
    return tree(decls), tree(diagnostics)


def _parse_file(tokens, path):
    return parser._Parser(tokens, path).parse_file()


def assert_same_parse(text: str, path: str = "f.onto") -> None:
    assert _parsed(_parse_file, text, path) == _parsed(oracle_parse_file, text, path)


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


def test_parser_builds_only_the_spans_its_ast_holds(monkeypatch):
    lines = ["ontology M at CO {", "  imports N"]
    for k in range(1000):
        lines.append(f'  term t{k} enriches ThingFO.Thing scope particulars {{ description "t{k}" }}')
        lines.append(f"  relation r{k} from t{k} to M.t{k} kind ThingFO.relatesWith")
    text = "\n".join(lines + ["}"])

    built = []
    real = parser._span

    def counting(fields):
        built.append(fields)
        return real(fields)

    monkeypatch.setattr(parser, "_span", counting)
    ast, diagnostics = parse_suite([("m.onto", text)])
    assert diagnostics == []
    # the module and its import; each term, its target and its attribute;
    # each relation and its three references
    assert len(_spans(ast.decls)) == 1 + 1 + 1000 * 3 + 1000 * 4
    assert len(built) == len(_spans(ast.decls))


@pytest.mark.parametrize("workload", ["wide_clean", "deep_chains", "dirty_worlds"])
def test_a_clean_parse_never_calls_the_checked_span_constructor(workload, monkeypatch):
    files = sorted(getattr(load_bench("generators"), workload)(1).files.items())
    calls = []
    checked = SourceSpan.__new__

    def counting(cls, *fields):
        calls.append(fields)
        return checked(cls, *fields)

    monkeypatch.setattr(SourceSpan, "__new__", counting)
    ast, diagnostics = parse_suite(files)
    assert diagnostics == [] and ast.decls
    assert calls == []
    SourceSpan("f.onto", 1, 1, 1, 1)  # the count does see a checked span
    assert calls == [("f.onto", 1, 1, 1, 1)]


def assert_spans_well_formed(text: str, path: str = "f.onto") -> None:
    """Every span of a file's declarations and diagnostics, kept or not,
    names `path` and starts no later than it ends, on lines and columns
    that the text has (one past a line's end marks where it ends)."""
    tokens, lex_diagnostics = tokenize(text, path)
    decls, parse_diagnostics = _parse_file(tokens, path)
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
