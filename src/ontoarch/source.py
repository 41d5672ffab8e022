"""Source positions shared by the tokenizer, parser, model and reports, and
the base class of their slotted records."""

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


def synthetic_span() -> SourceSpan:
    """Placeholder span for declarations built in memory rather than parsed."""
    return SourceSpan("<builtin>", 1, 1, 1, 1)


class Record:
    """Base of the slotted records. A subclass lists its constructor fields,
    in order, in `_fields`, by default its `__slots__`, and writes its own
    `__init__`. A slot after the fields holds a value that `__init__`
    computes once from them; rebinding a field afterwards does not update
    it. `repr` shows the fields, and equality and hashing go by those in
    `_compared`, by default all fields but a node's `span`."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        if "_compared" not in cls.__dict__:
            cls._compared = tuple(name for name in cls._fields if name != "span")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"
