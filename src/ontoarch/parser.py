"""Lexer and parser for the `.onto` DSL.

Grammar (EBNF; `//` comments run to end of line, files are UTF-8):

    file        := (moduleDecl | instancesDecl)*
    moduleDecl  := "ontology" IDENT "at" level "{" importDecl* (termDecl | relDecl)* "}"
    level       := "FO" | "CO" | "TDO" | "LDO"
    importDecl  := "imports" IDENT
    termDecl    := "term" IDENT "enriches" qname scope? attrBlock?
    scope       := "scope" ("particulars" | "universals")
    attrBlock   := "{" (attrKey STRING)* "}"
    relDecl     := "relation" IDENT "from" qname "to" qname "kind" qname
    instancesDecl := "instances" "of" IDENT "{" (indivDecl | worldDecl)* "}"
    indivDecl   := "individual" IDENT ":" qname
    worldDecl   := "world" IDENT "{" thingDecl* factDecl* "}"
    thingDecl   := "thing" IDENT (":" qname)? "{" ("property" IDENT ";")* ("power" IDENT ";")* "}"
    factDecl    := predicate "(" ref "," ref ")"
    predicate   := "enables" | "actsUpon" | "interacts" | "belongsTo"
                 | "relatesWith" | "isSeenAs" | "defines"
    ref         := IDENT ("." IDENT)?
    qname       := IDENT "." IDENT | IDENT

`ref` and `qname` are one production, which builds a `QualifiedRef`;
`parse_qname` reads it, and `parse_world` reads each fact's two in line,
the same way. A fact's `thing.part` is qualified by its thing.

Files that produce any diagnostic are excluded from the returned AST, so
resolution only ever sees well-formed declarations.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import accumulate
from typing import TYPE_CHECKING, NoReturn

from .metamodel import BUILTIN_MODULE, SCOPE_FACETS, WORLD_PREDICATES
from .model import (
    MODULE_LEVELS,
    AttrPair,
    Fact,
    ImportRef,
    Individual,
    InstanceFile,
    Level,
    OntologyModule,
    QualifiedRef,
    RelationDecl,
    TermDef,
    ThingNode,
    World,
)
from .reporting import Diagnostic
from .source import Record, Source, SourceSpan

if TYPE_CHECKING:
    from array import array

_LEVELS = {level.name: level for level in MODULE_LEVELS}

KEYWORDS = frozenset(
    {
        "ontology", "at", "imports", "term", "enriches", "scope",
        "relation", "from", "to", "kind", "instances", "of", "individual",
        "world", "thing", "property", "power", *_LEVELS, *SCOPE_FACETS,
    }
)

*_FIRST_LEVELS, _LAST_LEVEL = _LEVELS
_EXPECTED_LEVEL = f"(expected {', '.join(_FIRST_LEVELS)} or {_LAST_LEVEL})"
_EXPECTED_SCOPE = "expected " + " or ".join(f"'{scope}'" for scope in SCOPE_FACETS)


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENT = "identifier"
    STRING = "string"
    PUNCT = "punctuation"
    EOI = "end-of-input"


_IDENT, _STRING = TokenKind.IDENT, TokenKind.STRING

#: The tokens that every run shares, by lexeme: each keyword, whose lexeme
#: is the `KEYWORDS` string, each punctuation mark, and an identifier for
#: `ThingFO` and each fact predicate, whose lexemes are the metamodel's
#: `BUILTIN_MODULE` and `WORLD_PREDICATES` keys. A run's name table takes its
#: token from here the first time it meets one of these lexemes.
_SHARED: dict[str, tuple] = {
    **{name: (_IDENT, name, "") for name in (BUILTIN_MODULE, *WORLD_PREDICATES)},
    **{word: (TokenKind.KEYWORD, word, "") for word in KEYWORDS},
    **{mark: (TokenKind.PUNCT, mark, "") for mark in "{}(),:;."},
}
_EOI = (TokenKind.EOI, "", "")

#: The lexemes, as one string of alternatives with no capture group, so
#: `tokenize` tells them apart by their first characters. What no
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

#: A lexeme alone, to find where the next one starts and to re-read one at
#: its offset; and a lexeme with the blanks after it, so that the matches of
#: one `findall` from a lexeme's start lie end to end.
_SCAN = re.compile(_LEXEME)
_SCAN_WITH_BLANKS = re.compile(f"(?:{_LEXEME})[{_BLANKS}]*")

#: About how many characters `tokenize` scans at a time: its working set
#: beyond the tokens it returns is one chunk's matches and their table. A
#: chunk ends only after a line feed, so text without one is a single chunk.
_CHUNK_SIZE = 8192

#: The first characters of the lexemes that a name table holds: words and
#: punctuation.
_SHAREABLE = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_{}(),:;.")

#: A chunk's table entry for a lexeme that needs its offset: an invalid
#: character, or a string with a backslash or no closing quote.
_BY_OFFSET = object()


def tokenize(
    text: str, path: str = "<input>", names: dict[str, tuple] | None = None
) -> tuple[list[tuple], array, list[Diagnostic]]:
    """Full token stream (with end-of-input marker), each token's start
    offset, and the lex diagnostics.

    A token is a plain tuple `(kind, lexeme, value)`: a `TokenKind`, its
    source text and "". A STRING token is `(kind, lexeme, value, length)`:
    its value is the unescaped payload and its length is the one it has in
    the source, since an escaped or unterminated string rebuilds its lexeme.
    Token `i` starts at offset `starts[i]` and ends `len(lexeme)` (or a
    STRING's length) later; the end-of-input token starts and ends at
    `len(text)`. Tokens know neither line nor file.

    Every token but a STRING is shared: `names` maps each word and mark met
    so far to its one token, and `tokenize` adds each new one, taking a
    keyword's, a mark's or a metamodel name's from `_SHARED`. So each
    distinct name is one string that every token, AST node, index key and
    finding naming it shares, for as long as the table is used:
    `parse_suite` passes one table for all its files, and without one
    `tokenize` starts its own. No name is interned. No STRING enters the
    name table, though equal strings in one chunk may share a tuple.

    The text is read in chunks, each with one `findall` of a lexeme and the
    blanks after it. The matches lie end to end, so their lengths give the
    starts, and a table from each distinct match to its token gives the
    tokens: Python runs once per distinct match in a chunk, not once per
    token. A chunk holding a comment, an invalid character or a string with
    an escape or no closing quote is read match by match, since a comment
    yields no token and the others need offsets. A chunk is cut only after a
    line feed, so text with none (one long line, or lone carriage returns as
    line ends) is one chunk, and the working set then grows with the text.

    The tokenizer always recovers: invalid characters and malformed strings
    are reported and skipped, and scanning continues."""
    from array import array  # here, so that `import ontoarch` does not load it

    if names is None:
        names = {}
    tokens: list[tuple] = []
    starts = array("l")
    errors: list[tuple[str, int]] = []  # (message, loc) of each E001, in order
    n = len(text)
    following = _SCAN.search(text)
    while following:
        # A chunk runs from a lexeme's start to the next lexeme after the
        # first line feed at least `_CHUNK_SIZE` characters on.
        pos = following.start()
        cut = text.find("\n", pos + _CHUNK_SIZE) + 1
        following = _SCAN.search(text, cut) if cut else None
        matches = _SCAN_WITH_BLANKS.findall(text, pos, following.start() if following else n)
        table = dict.fromkeys(matches)  # each distinct match to its token; a comment's stays None
        by_offset = False
        for match in table:
            first = match[0]
            if first in _SHAREABLE:
                lexeme = match.rstrip(_BLANKS)
                tok = names.get(lexeme)
                if tok is None:
                    tok = names[lexeme] = _SHARED.get(lexeme) or (_IDENT, lexeme, "")
                table[match] = tok
            elif first == '"' and (lexeme := match.rstrip(_BLANKS)).endswith('"', 1) and "\\" not in lexeme:
                table[match] = (_STRING, lexeme, lexeme[1:-1], len(lexeme))
            elif match[:2] == "//":
                by_offset = True  # its entry stays None, so the match-by-match loop drops it
            else:
                table[match] = _BY_OFFSET
                by_offset = True
        *chunk_starts, _ = accumulate(map(len, matches), initial=pos)
        if by_offset:
            for match, start in zip(matches, chunk_starts):
                tok = table[match]
                if tok is _BY_OFFSET:
                    if match[0] != '"':
                        errors.append((f"invalid character {match[0]!r}", start << 32 | start + 1))
                        continue
                    # Re-read at its offset: the blanks after an unterminated
                    # string cannot be told from its own.
                    end = _SCAN.match(text, start).end()
                    tok = _escaped_string(text[start:end], text[end:end + 1] or "<eof>", start, errors)
                elif tok is None:
                    continue
                tokens.append(tok)
                starts.append(start)
        else:
            tokens.extend(map(table.__getitem__, matches))
            starts.fromlist(chunk_starts)
    tokens.append(_EOI)
    starts.append(n)
    if not errors:
        return tokens, starts, []
    source = Source(path, text)
    return tokens, starts, [Diagnostic("E001", message, source.span(loc)) for message, loc in errors]


def _escaped_string(raw: str, after: str, start: int, errors: list[tuple[str, int]]) -> tuple:
    """The STRING token for `raw`, a string with a backslash in it or with no
    closing quote, which starts at offset `start`. `after` is what follows
    `raw` (a line feed, or "<eof>"), which an escape at its very end reads.
    Adds each invalid escape and a missing closing quote to `errors`."""
    parts: list[str] = []
    i, n = 1, len(raw)
    closed = False
    while i < n:
        c = raw[i]
        if c == '"':
            closed = True
            break
        if c == "\\":
            escaped = raw[i + 1] if i + 1 < n else after
            if escaped in ('"', "\\"):
                parts.append(escaped)
                i += 2
                continue
            # A line feed or other unprintable character would break the
            # one-line finding, so it is named instead of shown.
            shown = f"\\{escaped}" if escaped.isprintable() else f"of U+{ord(escaped):04X}"
            message = "invalid escape at end of line" if escaped == "\n" else f"invalid escape {shown} in string"
            errors.append((message, (start + i) << 32 | start + i + 1))
            i += 1
            continue
        parts.append(c)
        i += 1
    if not closed:
        errors.append(("unterminated string literal", start << 32 | start + 1))
    value = "".join(parts)
    return (_STRING, f'"{value}"', value, n)


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------

class SuiteAst(Record):
    """Parsed (unresolved) declaration trees for all files that parsed, in
    input order, with their modules and instance files split out once."""

    _fields = ("decls",)
    __slots__ = _fields + ("modules", "instance_files")

    def __init__(self, decls: tuple[OntologyModule | InstanceFile, ...] = ()):
        self.decls = decls
        self.modules: tuple[OntologyModule, ...] = tuple(d for d in decls if isinstance(d, OntologyModule))
        self.instance_files: tuple[InstanceFile, ...] = tuple(d for d in decls if isinstance(d, InstanceFile))


class _ParseError(Exception):
    pass


_TOP_SYNC = ("ontology", "instances")
_MODULE_SYNC = _TOP_SYNC + ("imports", "term", "relation")
_INSTANCE_SYNC = _TOP_SYNC + ("individual", "world")


class _Parser:
    """Recursive descent over the token list. Each production takes the index
    of its first token and returns its node and the index after it. Tokens
    are read by field index (see `tokenize`): `tok[0]` is the kind, `tok[1]`
    the lexeme. A node's `loc` runs from its first token's start to its last
    token's end; every node of the file shares the parser's `source`.

    Keywords and punctuation are told apart by lexeme alone: only KEYWORD
    tokens carry keyword lexemes, only PUNCT tokens carry punctuation, a
    STRING lexeme starts with a quote and the end-of-input token, always the
    last one, has the empty lexeme. A production reads `toks[i + 1]` only
    after `toks[i]` has matched a lexeme or a kind, which end of input never
    does, so no index runs past the list. On a syntax error, `fail` records
    the failing token's index in `pos`, where recovery resumes.

    `refs` holds one `QualifiedRef` per distinct reference, as one dict of
    names per qualifier (None for a bare name), so a lookup builds no key;
    `parse_suite` passes one table for all its files. A declaration packs
    the `loc` of each reference it holds above its own (see
    `source.Source`), and a thing the `loc` of each part after its type's
    (see `model.ThingNode`)."""

    def __init__(self, tokens: list[tuple], starts: array, source: Source,
                 refs: dict[str | None, dict[str, QualifiedRef]]):
        self.toks = tokens
        self.starts = starts
        self.end = len(tokens) - 1  # index of the end-of-input token
        self.source = source
        self.refs = refs
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    def token_span(self, i: int) -> SourceSpan:
        """The span of token `i`, which a diagnostic reports."""
        tok, start = self.toks[i], self.starts[i]
        return self.source.span(start << 32 | start + (tok[3] if tok[0] is _STRING else len(tok[1])))

    def fail(self, message: str, i: int) -> _ParseError:
        shown = self.toks[i][1] or "end of input"
        self.diagnostics.append(Diagnostic("E002", f"{message}, got {shown!r}", self.token_span(i)))
        self.pos = i
        return _ParseError()

    def skip_to(self, i: int, keywords: tuple[str, ...], *, stop_at_close: bool = True) -> int:
        """Error recovery from token `i`: consume at least one token, then
        stop before a sync keyword or after a closing brace."""
        toks, end = self.toks, self.end
        if i < end:
            i += 1
        while i < end:
            lexeme = toks[i][1]
            if lexeme in keywords:
                return i
            if stop_at_close and lexeme == "}":
                return i + 1
            i += 1
        return i

    # -- grammar ------------------------------------------------------------

    def parse_file(self) -> tuple[tuple[OntologyModule | InstanceFile, ...], list[Diagnostic]]:
        toks = self.toks
        decls: list[OntologyModule | InstanceFile] = []
        i = 0
        while i < self.end:
            lexeme = toks[i][1]
            try:
                if lexeme == "ontology":
                    decl, i = self.parse_module(i)
                elif lexeme == "instances":
                    decl, i = self.parse_instances(i)
                else:
                    raise self.fail("expected 'ontology' or 'instances'", i)
                decls.append(decl)
            except _ParseError:
                i = self.skip_to(self.pos, _TOP_SYNC, stop_at_close=False)
        return tuple(decls), self.diagnostics

    def parse_level(self, i: int) -> tuple[Level, int]:
        tok = self.toks[i]
        level = _LEVELS.get(tok[1])
        if level is not None:
            return level, i + 1
        if tok[0] is _IDENT or tok[1] in KEYWORDS:
            self.diagnostics.append(
                Diagnostic("E003", f"unknown level name {tok[1]!r} {_EXPECTED_LEVEL}", self.token_span(i))
            )
            return Level.CO, i + 1  # placeholder; the file is excluded anyway
        raise self.fail("expected a level name", i)

    def parse_qname(self, i: int) -> tuple[QualifiedRef, int, int]:
        """The shared reference from token `i`, its `loc` and the index
        after it; E002 "expected a name" where token `i` is no name."""
        toks = self.toks
        first = toks[i]
        if first[0] is not _IDENT:
            raise self.fail("expected a name", i)
        start = self.starts[i]
        if toks[i + 1][1] == ".":
            second = toks[i + 2]
            if second[0] is not _IDENT:
                raise self.fail("expected a name after '.'", i + 2)
            module = first[1]
            name = second[1]
            loc = start << 32 | self.starts[i + 2] + len(name)
            i += 3
        else:
            module = None
            name = first[1]
            loc = start << 32 | start + len(name)
            i += 1
        by_name = self.refs.get(module)
        if by_name is None:
            by_name = self.refs[module] = {}
        ref = by_name.get(name)
        if ref is None:
            ref = by_name[name] = QualifiedRef(module, name)
        return ref, loc, i

    def parse_module(self, i: int) -> tuple[OntologyModule, int]:
        toks, starts = self.toks, self.starts
        start = starts[i]
        name = toks[i + 1]
        if name[0] is not _IDENT:
            raise self.fail("expected ontology name", i + 1)
        if toks[i + 2][1] != "at":
            raise self.fail("expected 'at'", i + 2)
        level, i = self.parse_level(i + 3)
        if toks[i][1] != "{":
            raise self.fail("expected '{'", i)
        i += 1
        imports: list[ImportRef] = []
        while toks[i][1] == "imports":
            target = toks[i + 1]
            if target[0] is not _IDENT:
                raise self.fail("expected imported module name", i + 1)
            at = starts[i + 1]
            imports.append(ImportRef(target[1], at << 32 | at + len(target[1])))
            i += 2
        body, last, i = self.parse_body(i, _MODULE_BODY, _MODULE_SYNC, "expected 'term', 'relation' or '}'")
        loc = start << 32 | starts[last] + len(toks[last][1])
        return OntologyModule(name[1], level, tuple(imports), tuple(body), loc, self.source), i

    def parse_body(self, i: int, productions: dict, sync: tuple[str, ...], expected: str) -> tuple[list, int, int]:
        """The declarations of a block from token `i` up to its closing
        brace. `productions` maps each declaration keyword to the `_Parser`
        function that parses it. A declaration that fails to parse is skipped
        up to the next `sync` keyword; if recovery consumes the closing brace
        or reaches a top-level keyword, the block ends there. Returns the
        declarations, the index of the block's last token, a brace or a
        keyword, and the index after the block."""
        toks = self.toks
        body = []
        while i < self.end:
            lexeme = toks[i][1]
            if lexeme == "}":
                break
            try:
                production = productions.get(lexeme)
                if production is None:
                    raise self.fail(expected, i)
                decl, i = production(self, i)
                body.append(decl)
            except _ParseError:
                i = self.skip_to(self.pos, sync)
                if toks[i - 1][1] == "}":
                    return body, i - 1, i
                if toks[i][1] in _TOP_SYNC:
                    return body, i, i
        if toks[i][1] != "}":
            raise self.fail("expected '}'", i)
        return body, i, i + 1

    def misplaced_imports(self, i: int) -> NoReturn:
        raise self.fail("imports must precede term and relation declarations", i)

    def parse_term(self, i: int) -> tuple[TermDef, int]:
        toks, starts = self.toks, self.starts
        start = starts[i]
        name = toks[i + 1]
        if name[0] is not _IDENT:
            raise self.fail("expected term name", i + 1)
        if toks[i + 2][1] != "enriches":
            raise self.fail("expected 'enriches'", i + 2)
        target, target_loc, i = self.parse_qname(i + 3)
        end = starts[i - 1] + len(toks[i - 1][1])  # the target's last name
        scope: str | None = None
        if toks[i][1] == "scope":
            scope = toks[i + 1][1]
            if scope not in SCOPE_FACETS:
                raise self.fail(_EXPECTED_SCOPE, i + 1)
            i += 2
        if toks[i][1] != "{":
            return TermDef(name[1], target, scope, (), start << 32 | end | target_loc << 64), i
        i += 1
        attrs: list[AttrPair] = []
        while toks[i][1] != "}":
            key = toks[i]
            if key[0] is not _IDENT:
                raise self.fail("expected attribute key", i)
            value = toks[i + 1]
            if value[0] is not _STRING:
                raise self.fail("expected a string attribute value", i + 1)
            attrs.append(AttrPair(key[1], value[2], starts[i] << 32 | starts[i + 1] + value[3]))
            i += 2
        return TermDef(name[1], target, scope, tuple(attrs), start << 32 | starts[i] + 1 | target_loc << 64), i + 1

    def parse_relation(self, i: int) -> tuple[RelationDecl, int]:
        toks = self.toks
        start = self.starts[i]
        name = toks[i + 1]
        if name[0] is not _IDENT:
            raise self.fail("expected relation name", i + 1)
        if toks[i + 2][1] != "from":
            raise self.fail("expected 'from'", i + 2)
        from_ref, from_loc, i = self.parse_qname(i + 3)
        if toks[i][1] != "to":
            raise self.fail("expected 'to'", i)
        to_ref, to_loc, i = self.parse_qname(i + 1)
        if toks[i][1] != "kind":
            raise self.fail("expected 'kind'", i)
        kind_ref, kind_loc, i = self.parse_qname(i + 1)
        end = self.starts[i - 1] + len(toks[i - 1][1])  # the reference's last name
        loc = start << 32 | end | from_loc << 64 | to_loc << 128 | kind_loc << 192
        return RelationDecl(name[1], from_ref, to_ref, kind_ref, loc), i

    def parse_instances(self, i: int) -> tuple[InstanceFile, int]:
        toks, starts = self.toks, self.starts
        start = starts[i]
        if toks[i + 1][1] != "of":
            raise self.fail("expected 'of'", i + 1)
        module = toks[i + 2]
        if module[0] is not _IDENT:
            raise self.fail("expected module name", i + 2)
        if toks[i + 3][1] != "{":
            raise self.fail("expected '{'", i + 3)
        body, last, i = self.parse_body(i + 4, _INSTANCE_BODY, _INSTANCE_SYNC, "expected 'individual', 'world' or '}'")
        loc = start << 32 | starts[last] + len(toks[last][1])
        return InstanceFile(module[1], tuple(body), loc, self.source), i

    def parse_individual(self, i: int) -> tuple[Individual, int]:
        toks = self.toks
        start = self.starts[i]
        name = toks[i + 1]
        if name[0] is not _IDENT:
            raise self.fail("expected individual name", i + 1)
        if toks[i + 2][1] != ":":
            raise self.fail("expected ':'", i + 2)
        type_ref, type_loc, i = self.parse_qname(i + 3)
        end = self.starts[i - 1] + len(toks[i - 1][1])
        return Individual(name[1], type_ref, start << 32 | end | type_loc << 64), i

    def parse_world(self, i: int) -> tuple[World, int]:
        """A world: its things, then its facts. Each fact's two references
        are read in line, each as `parse_qname` reads one: two calls, or a
        loop over the sides, cost the 7% of `_Parser`'s time on dirty_worlds
        that this saves."""
        toks, starts, refs = self.toks, self.starts, self.refs
        start = starts[i]
        world = toks[i + 1]
        if world[0] is not _IDENT:
            raise self.fail("expected world name", i + 1)
        if toks[i + 2][1] != "{":
            raise self.fail("expected '{'", i + 2)
        i += 3
        things: list[ThingNode] = []
        while toks[i][1] == "thing":
            thing, i = self.parse_thing(i)
            things.append(thing)
        facts: list[Fact] = []
        while toks[i][0] is _IDENT:
            pred = toks[i][1]
            if pred not in WORLD_PREDICATES:
                self.diagnostics.append(Diagnostic("E004", f"unknown fact predicate {pred!r}", self.token_span(i)))
                # Skip the argument list. That only moves where recovery
                # starts: the world fails, and `parse_body` skips the rest
                # of it, later facts included (ROADMAP item 9).
                i += 1
                if toks[i][1] == "(":
                    while i < self.end and toks[i][1] not in (")", "}"):
                        i += 1
                    if toks[i][1] == ")":
                        i += 1
                self.pos = i
                raise _ParseError()
            if toks[i + 1][1] != "(":
                raise self.fail("expected '('", i + 1)
            loc = starts[i] << 32
            i += 2
            first = toks[i]
            if first[0] is not _IDENT:
                raise self.fail("expected a reference", i)
            at = starts[i]
            if toks[i + 1][1] == ".":
                second = toks[i + 2]
                if second[0] is not _IDENT:
                    raise self.fail("expected a name after '.'", i + 2)
                module, name = first[1], second[1]
                loc |= (at << 32 | starts[i + 2] + len(name)) << 64
                i += 3
            else:
                module, name = None, first[1]
                loc |= (at << 32 | at + len(name)) << 64
                i += 1
            by_name = refs.get(module)
            if by_name is None:
                by_name = refs[module] = {}
            left = by_name.get(name)
            if left is None:
                left = by_name[name] = QualifiedRef(module, name)
            if toks[i][1] != ",":
                raise self.fail("expected ','", i)
            i += 1
            first = toks[i]
            if first[0] is not _IDENT:
                raise self.fail("expected a reference", i)
            at = starts[i]
            if toks[i + 1][1] == ".":
                second = toks[i + 2]
                if second[0] is not _IDENT:
                    raise self.fail("expected a name after '.'", i + 2)
                module, name = first[1], second[1]
                loc |= (at << 32 | starts[i + 2] + len(name)) << 128
                i += 3
            else:
                module, name = None, first[1]
                loc |= (at << 32 | at + len(name)) << 128
                i += 1
            by_name = refs.get(module)
            if by_name is None:
                by_name = refs[module] = {}
            right = by_name.get(name)
            if right is None:
                right = by_name[name] = QualifiedRef(module, name)
            if toks[i][1] != ")":
                raise self.fail("expected ')'", i)
            facts.append(Fact(pred, left, right, loc | starts[i] + 1))
            i += 1
        close = toks[i][1]
        if close != "}":
            if i == self.end:
                raise self.fail("expected '}'", i)
            if close == "thing":  # the things loop took every thing before the first fact
                raise self.fail("thing declarations must precede facts", i)
            raise self.fail("expected a thing declaration, a fact or '}'", i)
        return World(world[1], tuple(things), tuple(facts), start << 32 | starts[i] + 1), i + 1

    def parse_thing(self, i: int) -> tuple[ThingNode, int]:
        toks, starts = self.toks, self.starts
        start = starts[i]
        name = toks[i + 1]
        if name[0] is not _IDENT:
            raise self.fail("expected thing name", i + 1)
        i += 2
        instance_of: QualifiedRef | None = None
        type_loc = 0
        if toks[i][1] == ":":
            instance_of, type_loc, i = self.parse_qname(i + 1)
        if toks[i][1] != "{":
            raise self.fail("expected '{'", i)
        i += 1
        parts: tuple[list[str], list[str]] = ([], [])
        places: list[bytes] = []  # each part's `loc`, as 8 bytes, least significant first
        for keyword, out in zip(("property", "power"), parts):
            while toks[i][1] == keyword:
                part = toks[i + 1]
                if part[0] is not _IDENT:
                    raise self.fail(f"expected {keyword} name", i + 1)
                if toks[i + 2][1] != ";":
                    raise self.fail("expected ';'", i + 2)
                at = starts[i + 1]
                out.append(part[1])
                places.append((at << 32 | at + len(part[1])).to_bytes(8, "little"))
                i += 3
        close = toks[i][1]
        if close == "property":
            raise self.fail("property declarations must precede power declarations", i)
        if close != "}":
            raise self.fail("expected '}'", i)
        loc = start << 32 | starts[i] + 1 | type_loc << 64
        if places:
            # Above the type's place, built in one pass: or-ing in one part
            # at a time would copy the growing `int` once per part.
            loc |= int.from_bytes(b"".join(places), "little") << 128
        return ThingNode(name[1], instance_of, tuple(parts[0]), tuple(parts[1]), loc), i + 1


#: Block productions by their first keyword, as plain functions: bound
#: methods kept on a parser would make a reference cycle.
_MODULE_BODY = {"term": _Parser.parse_term, "relation": _Parser.parse_relation, "imports": _Parser.misplaced_imports}
_INSTANCE_BODY = {"individual": _Parser.parse_individual, "world": _Parser.parse_world}


def parse_suite(files: list[tuple[str, str]]) -> tuple[SuiteAst, list[Diagnostic]]:
    """Parse every `(path, text)` pair.

    Files that produce any diagnostic contribute their diagnostics but no
    declarations, so the returned AST is fully well-formed. One name table
    and one reference table serve every file, and live only for this call:
    each distinct name is one string and each distinct reference one
    `QualifiedRef`. One file's tokens live only while that file is parsed."""
    names: dict[str, tuple] = {}
    refs: dict[str | None, dict[str, QualifiedRef]] = {}
    decls: list[OntologyModule | InstanceFile] = []
    diagnostics: list[Diagnostic] = []
    for path, text in files:
        _parse_file(path, text, names, refs, decls, diagnostics)
    return SuiteAst(tuple(decls)), diagnostics


def _parse_file(path: str, text: str, names: dict[str, tuple], refs: dict[str | None, dict[str, QualifiedRef]],
                decls: list, diagnostics: list[Diagnostic]) -> None:
    """Add one file's diagnostics to `diagnostics`, and its declarations to
    `decls` if it has none. Its token list, its parser and the declarations
    of a file that failed are freed on return, before the next file is
    lexed."""
    tokens, starts, lex_diags = tokenize(text, path, names)
    file_decls, parse_diags = _Parser(tokens, starts, Source(path, text), refs).parse_file()
    diagnostics.extend(lex_diags)
    diagnostics.extend(parse_diags)
    if not lex_diags and not parse_diags:
        decls.extend(file_decls)
