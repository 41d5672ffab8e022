"""The `SourceSpan` contract: a checked, ordered tuple of positions."""

from __future__ import annotations

import pytest

from ontoarch.parser import _token_span, tokenize
from ontoarch.source import SourceSpan


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


def test_token_span_equals_the_span_built_by_hand():
    tokens, _ = tokenize('ontology A\n  description "x y"', "f.onto")
    assert [_token_span("f.onto", t) for t in tokens] == [
        SourceSpan("f.onto", 1, 1, 1, 8),
        SourceSpan("f.onto", 1, 10, 1, 10),
        SourceSpan("f.onto", 2, 3, 2, 13),
        SourceSpan("f.onto", 2, 15, 2, 19),
        SourceSpan("f.onto", 2, 20, 2, 20),
    ]
