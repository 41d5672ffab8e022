"""Source positions shared by the tokenizer, parser, model and reports."""

from __future__ import annotations

from typing import NamedTuple


class _SpanFields(NamedTuple):
    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int


class SourceSpan(_SpanFields):
    """A 1-based, inclusive region of a source file.

    A tuple, so equality, hashing and ordering go by (file, start line,
    start column, end line, end column); the parser builds one per node."""

    __slots__ = ()

    def __new__(cls, file: str, start_line: int, start_col: int, end_line: int, end_col: int) -> SourceSpan:
        if start_line > end_line or (start_line == end_line and start_col > end_col):
            raise ValueError(f"span starts after it ends: {file}:{start_line}:{start_col}")
        return tuple.__new__(cls, (file, start_line, start_col, end_line, end_col))

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


def synthetic_span(label: str = "<builtin>") -> SourceSpan:
    """Placeholder span for declarations built in memory rather than parsed."""
    return SourceSpan(label, 1, 1, 1, 1)
