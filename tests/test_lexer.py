"""The regex scanner `tokenize` against a character-by-character walk.

`oracle_tokenize` (in `oracles.py`) returns `Token` objects that count their
own lines and columns; `tokenize` returns shared tuples and start offsets,
and builds no span. Both must give the same tokens, spans (through
`Source.span` for `tokenize`), string values and diagnostics on any text,
however `tokenize` cuts it into chunks.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import load_bench
from oracles import oracle_tokenize

from ontoarch import parser
from ontoarch.parser import KEYWORDS, TokenKind, parse_suite, tokenize
from ontoarch.source import Source

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


def _token_length(tok: tuple) -> int:
    return tok[3] if tok[0] is TokenKind.STRING else len(tok[1])


def _lexed(text: str, path: str = "f.onto"):
    tokens, starts, diagnostics = tokenize(text, path)
    source = Source(path, text)
    return [
        (tok[0], tok[1], source.span(start << 32 | start + _token_length(tok)), tok[2])
        for tok, start in zip(tokens, starts, strict=True)
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


#: Pieces that `tokenize` must read the same wherever a chunk is cut: a
#: carriage return before a line feed and alone, indentation after a line
#: feed, comments right after a word, a mark and a string, first and last in
#: a chunk and at the end of input, `//` inside a string, whole and cut off
#: by a line feed, an invalid character and an escaped string first or last
#: in one, an unterminated string ending in blanks before a line feed and at
#: the end of input, and no final line feed.
AT_A_CUT = (
    "a\r\nb\r\n", "a\rb\r\n", "a\n    b\n\t\tc",
    "a // c \nb", "a //c\r\n", "a// c\nb", "{// c\n}", '"s"// c\nb', "// c\na", "a\n// c",
    "// c\n// d\n  a // e\n", '"a // b" c\n', 'x "a // b\ny',
    "@ b\n", "a\t@\n", '"x\\"y" b\n', 'a "x\\"y"  \n',
    '"ab \t \n  b', 'a "ab \t', '"ab \\\n', "a b",
)


@pytest.mark.parametrize("piece", AT_A_CUT)
def test_tokenize_equals_the_character_walk_wherever_a_chunk_is_cut(piece):
    # With chunks of 1 to 64 characters, each line feed of these texts is a
    # cut, so each piece lies at, just before and just after one.
    for text in (piece, f"{piece}\n{piece}", f"x\n{piece}\n  y {piece}"):
        expected = _oracle_lexed(text)
        for size in range(1, 65):
            with mock.patch.object(parser, "_CHUNK_SIZE", size):
                assert _lexed(text) == expected, (text, size)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(ATOMS), max_size=120).map("".join), st.integers(1, 64))
def test_tokenize_equals_the_character_walk_over_many_chunks(text, size):
    with mock.patch.object(parser, "_CHUNK_SIZE", size):
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


def test_tokenize_builds_no_span_and_shares_every_tuple_but_strings(monkeypatch):
    lines = ["ontology M at CO {"]
    for k in range(1000):
        lines.append(f'  term t{k} enriches ThingFO.Thing scope particulars {{ description "t \\"{k}\\"" }}')
        lines.append(f"  relation r{k} from t{k} to M.t{k} kind ThingFO.relatesWith")
    text = "\n".join(lines + ["}"])
    expected, _ = oracle_tokenize(text, "m.onto")

    asked = []
    monkeypatch.setattr(Source, "span", lambda self, loc: asked.append(loc))
    names: dict = {}
    tokens, starts, diagnostics = tokenize(text, "m.onto", names)
    assert (diagnostics, asked) == ([], [])
    assert len(tokens) == len(starts) == len(expected)
    assert starts.typecode == "l"
    strings = [tok for tok in tokens if tok[0] is TokenKind.STRING]
    assert len(strings) == 1000 and all(type(tok) is tuple and len(tok) == 4 for tok in strings)
    shared = [tok for tok in tokens if tok[0] is not TokenKind.STRING]
    assert all(type(tok) is tuple and len(tok) == 3 for tok in shared)
    # One tuple per distinct lexeme, kept in the name table that was passed.
    assert len({id(tok) for tok in shared}) == len({tok[1] for tok in shared})
    assert all(names[tok[1]] is tok for tok in shared if tok[0] is not TokenKind.EOI)
    again, _, _ = tokenize(text, "n.onto", names)
    assert all(a is b for a, b in zip(again, tokens) if a[0] is not TokenKind.STRING)

