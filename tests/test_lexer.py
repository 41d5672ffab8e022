"""The regex scanner `tokenize` against a character-by-character walk.

`oracle_tokenize` (in `oracles.py`) returns `Token` objects; `tokenize`
returns plain tuples and builds no span. Both must give the same tokens,
spans, string values and diagnostics on any text.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import load_bench
from oracles import oracle_tokenize

from ontoarch import parser
from ontoarch.parser import KEYWORDS, parse_suite, tokenize
from ontoarch.source import SourceSpan

#: Pieces that exercise every branch of both lexers, including the ones that
#: only one of them takes a shortcut for: escapes, bad escapes, strings cut
#: off by a line break or the end of input, comments, a lone slash, line
#: separators other than a line feed, and letters and digits outside ASCII.
ATOMS = (
    *sorted(KEYWORDS), "x", "_a1", "Foo9", "ThingFO", "9",
    "{", "}", "(", ")", ",", ":", ";", ".",
    '"', "\\", '\\"', "\\\\", '"d"', "//", "/",
    " ", "\n", "\r\n", "\r", "\t", "\x00", "\x0b", "\u2028",
    "é", "ß", "٣", "ﬁ",
)

texts = st.one_of(
    st.lists(st.sampled_from(ATOMS), max_size=40).map("".join),
    st.text(max_size=40),
)


def _lexed(text: str, path: str = "f.onto"):
    tokens, diagnostics = tokenize(text, path)
    return [
        (kind, lexeme, SourceSpan(path, line, col, line, end_col), value)
        for kind, lexeme, value, line, col, end_col in tokens
    ], diagnostics


def _oracle_lexed(text: str, path: str = "f.onto"):
    tokens, diagnostics = oracle_tokenize(text, path)
    return [(t.kind, t.lexeme, t.span, t.value) for t in tokens], diagnostics


@settings(max_examples=2000, deadline=None)
@given(texts)
@example('"')  # a quote at the end of input
@example('description "ab\\')  # a backslash at the end of input, inside a string
@example('"a\\q" "b\\\n"c')  # bad escapes, one of them before a line break
@example('x "a\\"b\\\\" // tail "\n\ty')  # good escapes, a comment with a quote
@example("a / b")  # a lone slash
@example("a /\nb")  # a slash before a line break
@example("a //")  # a comment at the end of input
def test_tokenize_equals_the_character_walk(text):
    assert _lexed(text) == _oracle_lexed(text)


def test_an_escape_of_a_line_end_or_an_unprintable_character_is_named_on_one_line():
    text = 'description "x\\\n "a\\q" "b\\\r" "c\\\x1b[31m" "d\\'
    assert [(d.message, d.span.start_col) for d in _lexed(text)[1]] == [
        ("invalid escape at end of line", 15),
        ("unterminated string literal", 13),
        ("invalid escape \\q in string", 4),
        ("invalid escape of U+000D in string", 10),
        ("invalid escape of U+001B in string", 16),
        ("invalid escape \\<eof> in string", 26),
        ("unterminated string literal", 24),
    ]


#: A quote and a backslash before a control character, a line or paragraph
#: separator or an invisible format character.
unprintable_escapes = st.one_of(
    st.characters(max_codepoint=0x9F), st.sampled_from("\u2028\u2029\u200b\ufeff")
).map(lambda c: '"\\' + c)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(ATOMS), unprintable_escapes), max_size=30).map("".join))
def test_every_diagnostic_message_is_printable(text):
    _, diagnostics = parse_suite([("f.onto", text)])
    assert [d.message for d in diagnostics if not d.message.isprintable()] == []
    assert _lexed(text)[1] == _oracle_lexed(text)[1]


@pytest.mark.parametrize("workload", ["wide_clean", "deep_chains", "dirty_worlds"])
def test_tokenize_equals_the_character_walk_on_bench_suites(workload):
    suite = getattr(load_bench("generators"), workload)(1)
    for name, text in suite.files.items():
        assert _lexed(text, name) == _oracle_lexed(text, name)


def test_tokenize_builds_no_span_and_returns_plain_six_tuples(monkeypatch):
    lines = ["ontology M at CO {"]
    for k in range(1000):
        lines.append(f'  term t{k} enriches ThingFO.Thing scope particulars {{ description "t \\"{k}\\"" }}')
        lines.append(f"  relation r{k} from t{k} to M.t{k} kind ThingFO.relatesWith")
    text = "\n".join(lines + ["}"])
    expected, _ = oracle_tokenize(text, "m.onto")

    built = []
    real = parser._span

    def counting(fields):
        built.append(fields)
        return real(fields)

    monkeypatch.setattr(parser, "_span", counting)
    tokens, diagnostics = tokenize(text, "m.onto")
    assert (diagnostics, built) == ([], [])
    assert len(tokens) == len(expected)
    assert all(type(tok) is tuple and len(tok) == 6 for tok in tokens)
