"""The `SourceSpan` contract, a checked, ordered tuple of positions, and
`Source.span`, which turns a node's packed offsets into one."""

from __future__ import annotations

import pytest

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
