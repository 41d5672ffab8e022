"""Source files and positions shared by the tokenizer, parser, model and
reports, and the base class of their slotted records."""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from array import array


class _SpanFields(NamedTuple):
    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int


class SourceSpan(_SpanFields):
    """A 1-based, inclusive region of a source file.

    A tuple, so equality, hashing and ordering go by (file, start line,
    start column, end line, end column); `Source.span` builds one for a
    finding."""

    __slots__ = ()

    def __new__(cls, file: str, start_line: int, start_col: int, end_line: int, end_col: int) -> SourceSpan:
        if start_line > end_line or (start_line == end_line and start_col > end_col):
            raise ValueError(f"span starts after it ends: {file}:{start_line}:{start_col}")
        return tuple.__new__(cls, (file, start_line, start_col, end_line, end_col))

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


_LINE_END = re.compile("\n")
_END_MASK = (1 << 32) - 1
_LOC_MASK = (1 << 64) - 1

#: The lexemes, as one string of alternatives with no capture group, so
#: `parser.tokenize` tells them apart by their first characters. What no
#: alternative matches is exactly the blanks: spaces, tabs, carriage returns
#: and line feeds. A string match takes every string, well-formed or not: it
#: ends after the closing quote or before the end of the line. A `/` that
#: starts no comment is an invalid character. No lexeme spans a line feed.
_BLANKS = " \t\r\n"
_LEXEME = (
    r"//[^\n]*"                       # comment
    r"|[A-Za-z_][A-Za-z0-9_]*"        # keyword or identifier (ASCII only)
    r"|[{}(),:;.]"                    # punctuation
    r'|"[^"\\\n]*(?:\\["\\]?[^"\\\n]*)*"?'  # string: plain runs between escapes
    f"|[^{_BLANKS}]"                  # invalid character
)

#: A lexeme alone: where the next one starts, one re-read at its offset, or
#: the lexemes of one declaration's text.
_SCAN = re.compile(_LEXEME)

#: The words and marks that stand right before a reference in the grammar:
#: a term's `enriches`, a relation's `from`, `to` and `kind`, the `:` of an
#: individual's or a thing's type, and a fact's `(` and `,`. In the text of
#: a term, relation, individual, thing or fact, outside comments and
#: strings, each stands before a reference and nowhere else.
_BEFORE_REF = frozenset(("enriches", "from", "to", "kind", ":", "(", ","))


class Source:
    """One parsed file: its path, its text, and where its lines start.

    A node holds its place in the file as one `loc`, the character offsets
    `start << 32 | end`, where `end` is one past its last character. A
    `QualifiedRef` is shared by every place that names it, so it has no
    place; `ref_loc` finds where a declaration's reference stands again,
    from the declaration's own text, which only an E101 asks for. A thing's
    parts are names, read on the hot paths of W301 and of a duplicate part,
    so the thing holds their places above its own, 64 bits each, which
    `model.ThingNode.part_locs` reads. `span` reads only the low 64 bits.
    The line-start table is built the first time `span` needs it, so a file
    without findings never has one. Columns count code points from 1, and
    only a line feed ends a line."""

    __slots__ = ("path", "text", "_lines")

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self._lines: array | None = None

    def __repr__(self) -> str:
        return f"Source({self.path!r})"

    def span(self, loc: int) -> SourceSpan:
        """The span of the characters that `loc` covers; an empty stretch,
        such as the end of input, spans the one place where it starts."""
        lines = self._lines
        if lines is None:
            from array import array  # here, as in `parser.tokenize`

            lines = self._lines = array("l", [0])
            lines.extend([m.end() for m in _LINE_END.finditer(self.text)])
        loc &= _LOC_MASK  # the node's own offsets; a thing's parts lie above them
        start = loc >> 32
        last = (loc & _END_MASK) - 1
        if last < start:  # a test, not a `max()` call: this runs once per finding
            last = start
        start_line = bisect_right(lines, start)
        line_start = lines[start_line - 1]
        if start_line == len(lines) or last < lines[start_line]:
            # On one line, as most are: one bisect, and one line number
            # object for both ends.
            return tuple.__new__(SourceSpan, (self.path, start_line, start - line_start + 1,
                                              start_line, last - line_start + 1))
        end_line = bisect_right(lines, last, start_line)
        return tuple.__new__(SourceSpan, (self.path, start_line, start - line_start + 1,
                                          end_line, last - lines[end_line - 1] + 1))

    def ref_loc(self, loc: int, index: int) -> int:
        """The `loc` of reference `index` (0 for the first, in field order)
        of the term, relation, individual, thing or fact whose own `loc` is
        `loc`: the name, or the two names and the `.` between them, after
        the `index`-th word or mark of `_BEFORE_REF` in its text. Only that
        text is scanned, comments skipped, so finding a place costs the
        length of its declaration, not of the file. A declaration built in
        memory, with `loc` 0, has no text: its reference's `loc` is 0 too."""
        loc &= _LOC_MASK
        lexemes = (m for m in _SCAN.finditer(self.text, loc >> 32, loc & _END_MASK) if m[0][:2] != "//")
        for m in lexemes:
            if m[0] in _BEFORE_REF:
                if not index:
                    break
                index -= 1
        else:
            return loc
        name = next(lexemes)
        after = next(lexemes, None)
        end = next(lexemes).end() if after is not None and after[0] == "." else name.end()
        return name.start() << 32 | end


#: The source of declarations built in memory rather than parsed: their
#: `loc` is 0, which spans `<builtin>:1:1`.
SYNTHETIC_SOURCE = Source("<builtin>", "")


class Record:
    """Base of the slotted records. A subclass lists its constructor fields,
    in order, in `_fields`, by default its `__slots__`, and writes its own
    `__init__`. A slot after the fields holds a value that `__init__`
    computes once from them; rebinding a field afterwards does not update
    it. `repr` shows the fields, and equality and hashing go by those in
    `_compared`, by default all fields but a node's `loc` and `source`."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        if "_compared" not in cls.__dict__:
            cls._compared = tuple(name for name in cls._fields if name not in ("loc", "source"))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"
