"""The `SourceSpan` contract, a checked, ordered tuple of positions, and
`Source.span`, which turns a node's packed offsets into one: with one
bisect of the line table when they lie on one line."""

from __future__ import annotations

import random
from bisect import bisect_right

import pytest

from ontoarch import source as source_module
from ontoarch.parser import TokenKind, tokenize
from ontoarch.source import SYNTHETIC_SOURCE, Source, SourceSpan


def test_a_span_that_starts_after_it_ends_is_rejected():
    with pytest.raises(ValueError, match="span starts after it ends: f:2:1"):
        SourceSpan("f", 2, 1, 1, 9)
    with pytest.raises(ValueError):
        SourceSpan("f", 1, 5, 1, 4)
    assert SourceSpan("f", 1, 5, 1, 5).end_col == 5


def test_str_is_file_line_column():
    assert str(SourceSpan("f", 2, 1, 3, 9)) == "f:2:1"


def test_spans_sort_by_file_line_column_and_end():
    spans = [
        SourceSpan("g", 1, 1, 1, 1),
        SourceSpan("f", 2, 1, 2, 1),
        SourceSpan("f", 1, 4, 1, 4),
        SourceSpan("f", 1, 2, 3, 1),
        SourceSpan("f", 1, 2, 1, 9),
    ]
    assert sorted(spans) == [spans[4], spans[3], spans[2], spans[1], spans[0]]
    assert [s.file for s in sorted(spans)] == ["f", "f", "f", "f", "g"]


def _token_spans(text: str, path: str = "f.onto") -> list[SourceSpan]:
    tokens, starts, _ = tokenize(text, path)
    source = Source(path, text)
    return [
        source.span(start << 32 | start + (tok[3] if tok[0] is TokenKind.STRING else len(tok[1])))
        for tok, start in zip(tokens, starts)
    ]


def test_the_span_of_each_token_equals_the_span_built_by_hand():
    assert _token_spans('ontology A\n  description "x\\"y"') == [
        SourceSpan("f.onto", 1, 1, 1, 8),
        SourceSpan("f.onto", 1, 10, 1, 10),
        SourceSpan("f.onto", 2, 3, 2, 13),
        SourceSpan("f.onto", 2, 15, 2, 20),
        SourceSpan("f.onto", 2, 21, 2, 21),
    ]


def test_only_a_line_feed_ends_a_line_and_the_end_of_input_spans_one_place():
    assert _token_spans("a\r\n\tb\n") == [
        SourceSpan("f.onto", 1, 1, 1, 1),
        SourceSpan("f.onto", 2, 2, 2, 2),
        SourceSpan("f.onto", 3, 1, 3, 1),
    ]
    assert _token_spans("") == [SourceSpan("f.onto", 1, 1, 1, 1)]


def test_a_loc_spans_lines_and_counts_code_points():
    source = Source("f.onto", "é {\n  x\n}\n")
    assert source.span(2 << 32 | 9) == SourceSpan("f.onto", 1, 3, 3, 1)
    assert source.span(0 << 32 | 1) == SourceSpan("f.onto", 1, 1, 1, 1)
    # the line feed itself ends its line
    assert source.span(3 << 32 | 4) == SourceSpan("f.onto", 1, 4, 1, 4)


def test_a_built_node_spans_the_start_of_the_synthetic_source():
    assert SYNTHETIC_SOURCE.span(0) == SourceSpan("<builtin>", 1, 1, 1, 1)
    assert repr(SYNTHETIC_SOURCE) == "Source('<builtin>')"


def test_the_line_table_is_built_once_and_only_when_a_span_is_asked_for():
    source = Source("f.onto", "a\nb\n")
    assert source._lines is None
    source.span(2 << 32 | 3)
    lines = source._lines
    assert list(lines) == [0, 2, 4]
    source.span(0 << 32 | 1)
    assert source._lines is lines


def _two_bisect_span(source: Source, loc: int) -> SourceSpan:
    """`Source.span` as it was: one bisect for each end."""
    lines = source._lines
    start = loc >> 32
    last = max((loc & 0xFFFFFFFF) - 1, start)
    start_line = bisect_right(lines, start)
    end_line = bisect_right(lines, last)
    return SourceSpan(source.path, start_line, start - lines[start_line - 1] + 1,
                      end_line, last - lines[end_line - 1] + 1)


def test_a_span_on_one_line_takes_one_bisect_and_one_line_number(monkeypatch):
    rng = random.Random(7)
    # Past line 256, so that a line number is not one of CPython's cached
    # small ints; lines of 0 to 12 characters, some of them empty.
    text = "".join("x" * rng.randrange(13) + "\n" for _ in range(600)) + "tail"
    source = Source("f.onto", text)
    source.span(0)  # builds the line table
    calls = []

    def counting(*args):
        calls.append(args)
        return bisect_right(*args)

    monkeypatch.setattr(source_module, "bisect_right", counting)
    n = len(text)
    feeds = [i for i, c in enumerate(text) if c == "\n"]
    locs = [start << 32 | end for start, end in (sorted(rng.sample(range(n + 1), 2)) for _ in range(3000))]
    locs += [start << 32 | start + rng.randrange(8) for start in rng.sample(range(n), 2000)]
    locs += [
        (feeds[300] - 3) << 32 | feeds[300] + 1,  # ends at a line feed
        feeds[400] << 32 | feeds[400] + 1,  # the line feed alone
        feeds[500] << 32 | feeds[500],  # empty
        n << 32 | n,  # the end of input
        (n - 2) << 32 | n,  # the last line, which has no line feed
    ]
    one_line = 0
    for loc in locs:
        calls.clear()
        span = source.span(loc)
        assert span == _two_bisect_span(source, loc), loc
        if span.start_line == span.end_line:
            one_line += 1
            assert len(calls) == 1 and span.end_line is span.start_line, loc
        else:
            assert len(calls) == 2, loc
    assert one_line > 1000 and len(locs) - one_line > 1000
