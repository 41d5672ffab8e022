"""Lexer, parser and canonical renderer for the `.onto` DSL.

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

`ref` and `qname` are one production, `parse_qname`, which builds a
`QualifiedRef`; a fact's `thing.part` is qualified by its thing.

Files that produce any diagnostic are excluded from the returned AST, so
resolution only ever sees well-formed declarations. The renderer emits a
canonical form whose reparse is structurally identical (spans aside).
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from functools import partial
from typing import NoReturn

from .metamodel import WORLD_PREDICATES
from .model import (
    AttrPair,
    Fact,
    ImportRef,
    Individual,
    InstanceFile,
    Level,
    OntologyModule,
    PartDecl,
    QualifiedRef,
    RelationDecl,
    TermDef,
    ThingNode,
    World,
)
from .reporting import Diagnostic
from .source import Record, SourceSpan

KEYWORDS = frozenset(
    {
        "ontology", "at", "imports", "term", "enriches", "scope",
        "particulars", "universals", "relation", "from", "to", "kind",
        "instances", "of", "individual", "world", "thing", "property",
        "power", "FO", "CO", "TDO", "LDO",
    }
)

#: Each keyword mapped to itself: `tokenize` looks a word up here, and a
#: keyword token's lexeme is the one `KEYWORDS` string for that word.
_KEYWORD_LEXEMES = {word: word for word in KEYWORDS}

LEVEL_NAMES = ("FO", "CO", "TDO", "LDO")


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENT = "identifier"
    STRING = "string"
    PUNCT = "punctuation"
    EOI = "end-of-input"


_IDENT, _STRING = TokenKind.IDENT, TokenKind.STRING

#: `_span((file, start_line, start_col, end_line, end_col))` builds a
#: `SourceSpan` without the start <= end check of `SourceSpan(...)`: the
#: parser takes each span's ends from tokens in order, and the tests check
#: every span it builds.
_span = partial(tuple.__new__, SourceSpan)

#: The lexer's one pattern. It has no capture group, since groups slow every
#: match (by about a fifth under `finditer` on the bench suites), so
#: `tokenize` tells matches apart by their first character. `finditer` skips
#: what no alternative matches, which is exactly blanks, tabs and carriage
#: returns. A string match takes every string, well-formed or not: it ends
#: after the closing quote or before the end of the line. A `/` that starts
#: no comment is an invalid character.
_SCAN = re.compile(
    r"//[^\n]*"                       # comment
    r"|\n"                            # line break
    r"|[A-Za-z_][A-Za-z0-9_]*"        # keyword or identifier (ASCII only)
    r"|[{}(),:;.]"                    # punctuation
    r'|"(?:[^"\\\n]|\\["\\]?)*"?'     # string
    r"|[^ \t\r]"                      # invalid character
)

_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_PUNCT = frozenset("{}(),:;.")


def tokenize(text: str, path: str = "<input>") -> tuple[list[tuple], list[Diagnostic]]:
    """Full token stream (with end-of-input marker) plus lex diagnostics.

    Each token is a plain tuple `(kind, lexeme, value, line, col, end_col)`:
    a `TokenKind`, the source text, the unescaped payload of a STRING token
    ("" otherwise), and the token's line and first and last columns; every
    token sits on one line. The file is `path` for every token, so a token
    leaves it out; `_token_span` builds a token's span when one is needed.

    An identifier's lexeme is interned with `sys.intern` and a keyword's
    lexeme is the member of `KEYWORDS`, so each distinct name is one string
    that every token, AST node, index key and finding naming it shares.

    The tokenizer always recovers: invalid characters and malformed strings
    are reported and skipped, and scanning continues. Columns count code
    points from 1, and only a line feed ends a line."""
    tokens: list[tuple] = []
    diagnostics: list[Diagnostic] = []
    append = tokens.append
    keyword, ident, punct, string = TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.PUNCT, TokenKind.STRING
    ident_start, punctuation, keywords, intern = _IDENT_START, _PUNCT, _KEYWORD_LEXEMES, sys.intern
    line, line_start = 1, 0
    for m in _SCAN.finditer(text):
        lexeme = m.group()
        first = lexeme[0]
        if first in ident_start:
            col = m.start() - line_start + 1
            word = keywords.get(lexeme)
            if word is None:
                append((ident, intern(lexeme), "", line, col, col + len(lexeme) - 1))
            else:
                append((keyword, word, "", line, col, col + len(lexeme) - 1))
        elif first in punctuation:
            col = m.start() - line_start + 1
            append((punct, lexeme, "", line, col, col))
        elif first == "\n":
            line += 1
            line_start = m.end()
        elif first == '"':
            col = m.start() - line_start + 1
            if len(lexeme) > 1 and lexeme[-1] == '"' and "\\" not in lexeme:
                append((string, lexeme, lexeme[1:-1], line, col, col + len(lexeme) - 1))
            else:
                after = text[m.end():m.end() + 1] or "<eof>"
                append(_escaped_string(lexeme, after, path, line, col, diagnostics))
        elif len(lexeme) == 1:  # an invalid character; a comment is longer
            col = m.start() - line_start + 1
            diagnostics.append(
                Diagnostic("E001", f"invalid character {lexeme!r}", _span((path, line, col, line, col)))
            )
    col = len(text) - line_start + 1
    append((TokenKind.EOI, "", "", line, col, col))
    return tokens, diagnostics


def _escaped_string(
    raw: str, after: str, path: str, line: int, col: int, diagnostics: list[Diagnostic]
) -> tuple:
    """The STRING token for `raw`, a string with a backslash in it or with no
    closing quote, which starts at `col`. `after` is what follows `raw` (a
    line feed, or "<eof>"), which an escape at its very end reads. Reports
    each invalid escape and a missing closing quote."""
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
            diagnostics.append(Diagnostic("E001", message, _span((path, line, col + i, line, col + i))))
            i += 1
            continue
        parts.append(c)
        i += 1
    if not closed:
        diagnostics.append(Diagnostic("E001", "unterminated string literal", _span((path, line, col, line, col))))
    value = "".join(parts)
    return (_STRING, f'"{value}"', value, line, col, col + n - 1)


def _token_span(path: str, tok: tuple) -> SourceSpan:
    """The span of one token of file `path`."""
    return _span((path, tok[3], tok[4], tok[3], tok[5]))


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
_LEVELS = {name: Level[name] for name in LEVEL_NAMES}


class _Parser:
    """Recursive descent over the token list. Each production takes the index
    of its first token and returns its node and the index after it. Tokens
    are read by field index (see `tokenize`): `tok[0]` is the kind, `tok[1]`
    the lexeme.

    Keywords and punctuation are told apart by lexeme alone: only KEYWORD
    tokens carry keyword lexemes, only PUNCT tokens carry punctuation, a
    STRING lexeme starts with a quote and the end-of-input token, always the
    last one, has the empty lexeme. A production reads `toks[i + 1]` only
    after `toks[i]` has matched a lexeme or a kind, which end of input never
    does, so no index runs past the list. On a syntax error, `fail` records
    the failing token's index in `pos`, where recovery resumes."""

    def __init__(self, tokens: list[tuple], path: str):
        self.toks = tokens
        self.end = len(tokens) - 1  # index of the end-of-input token
        self.path = path
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    def fail(self, message: str, i: int) -> _ParseError:
        tok = self.toks[i]
        shown = tok[1] or "end of input"
        self.diagnostics.append(Diagnostic("E002", f"{message}, got {shown!r}", _token_span(self.path, tok)))
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
                Diagnostic("E003", f"unknown level name {tok[1]!r} (expected FO, CO, TDO or LDO)",
                           _token_span(self.path, tok))
            )
            return Level.CO, i + 1  # placeholder; the file is excluded anyway
        raise self.fail("expected a level name", i)

    def parse_qname(self, i: int, expected: str = "expected a name") -> tuple[QualifiedRef, int]:
        toks = self.toks
        first = toks[i]
        if first[0] is not _IDENT:
            raise self.fail(expected, i)
        if toks[i + 1][1] == ".":
            second = toks[i + 2]
            if second[0] is not _IDENT:
                raise self.fail("expected a name after '.'", i + 2)
            span = _span((self.path, first[3], first[4], second[3], second[5]))
            return QualifiedRef(first[1], second[1], span), i + 3
        return QualifiedRef(None, first[1], _span((self.path, first[3], first[4], first[3], first[5]))), i + 1

    def parse_module(self, i: int) -> tuple[OntologyModule, int]:
        toks, path = self.toks, self.path
        start = toks[i]
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
            imports.append(ImportRef(target[1], _token_span(path, target)))
            i += 2
        body, last, i = self.parse_body(i, _MODULE_BODY, _MODULE_SYNC, "expected 'term', 'relation' or '}'")
        span = _span((path, start[3], start[4], last[3], last[5]))
        return OntologyModule(name[1], level, tuple(imports), tuple(body), span), i

    def parse_body(self, i: int, productions: dict, sync: tuple[str, ...], expected: str) -> tuple[list, tuple, int]:
        """The declarations of a block from token `i` up to its closing
        brace. `productions` maps each declaration keyword to the `_Parser`
        function that parses it. A declaration that fails to parse is skipped
        up to the next `sync` keyword; if recovery consumes the closing brace
        or reaches a top-level keyword, the block ends there. Returns the
        declarations, the block's last token and the index after the block."""
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
                    return body, toks[i - 1], i
                if toks[i][1] in _TOP_SYNC:
                    return body, toks[i], i
        close = toks[i]
        if close[1] != "}":
            raise self.fail("expected '}'", i)
        return body, close, i + 1

    def misplaced_imports(self, i: int) -> NoReturn:
        raise self.fail("imports must precede term and relation declarations", i)

    def parse_term(self, i: int) -> tuple[TermDef, int]:
        toks, path = self.toks, self.path
        start = toks[i]
        name = toks[i + 1]
        if name[0] is not _IDENT:
            raise self.fail("expected term name", i + 1)
        if toks[i + 2][1] != "enriches":
            raise self.fail("expected 'enriches'", i + 2)
        target, i = self.parse_qname(i + 3)
        scope: str | None = None
        if toks[i][1] == "scope":
            scope = toks[i + 1][1]
            if scope != "particulars" and scope != "universals":
                raise self.fail("expected 'particulars' or 'universals'", i + 1)
            i += 2
        if toks[i][1] != "{":
            end = target.span
            span = _span((path, start[3], start[4], end.end_line, end.end_col))
            return TermDef(name[1], target, scope, (), span), i
        i += 1
        attrs: list[AttrPair] = []
        while toks[i][1] != "}":
            key = toks[i]
            if key[0] is not _IDENT:
                raise self.fail("expected attribute key", i)
            value = toks[i + 1]
            if value[0] is not _STRING:
                raise self.fail("expected a string attribute value", i + 1)
            attrs.append(AttrPair(key[1], value[2], _span((path, key[3], key[4], value[3], value[5]))))
            i += 2
        close = toks[i]
        span = _span((path, start[3], start[4], close[3], close[5]))
        return TermDef(name[1], target, scope, tuple(attrs), span), i + 1

    def parse_relation(self, i: int) -> tuple[RelationDecl, int]:
        toks = self.toks
        start = toks[i]
        name = toks[i + 1]
        if name[0] is not _IDENT:
            raise self.fail("expected relation name", i + 1)
        if toks[i + 2][1] != "from":
            raise self.fail("expected 'from'", i + 2)
        from_ref, i = self.parse_qname(i + 3)
        if toks[i][1] != "to":
            raise self.fail("expected 'to'", i)
        to_ref, i = self.parse_qname(i + 1)
        if toks[i][1] != "kind":
            raise self.fail("expected 'kind'", i)
        kind_ref, i = self.parse_qname(i + 1)
        end = kind_ref.span
        span = _span((self.path, start[3], start[4], end.end_line, end.end_col))
        return RelationDecl(name[1], from_ref, to_ref, kind_ref, span), i

    def parse_instances(self, i: int) -> tuple[InstanceFile, int]:
        toks, path = self.toks, self.path
        start = toks[i]
        if toks[i + 1][1] != "of":
            raise self.fail("expected 'of'", i + 1)
        module = toks[i + 2]
        if module[0] is not _IDENT:
            raise self.fail("expected module name", i + 2)
        if toks[i + 3][1] != "{":
            raise self.fail("expected '{'", i + 3)
        body, last, i = self.parse_body(i + 4, _INSTANCE_BODY, _INSTANCE_SYNC, "expected 'individual', 'world' or '}'")
        span = _span((path, start[3], start[4], last[3], last[5]))
        return InstanceFile(module[1], tuple(body), span), i

    def parse_individual(self, i: int) -> tuple[Individual, int]:
        toks = self.toks
        start = toks[i]
        name = toks[i + 1]
        if name[0] is not _IDENT:
            raise self.fail("expected individual name", i + 1)
        if toks[i + 2][1] != ":":
            raise self.fail("expected ':'", i + 2)
        type_ref, i = self.parse_qname(i + 3)
        end = type_ref.span
        span = _span((self.path, start[3], start[4], end.end_line, end.end_col))
        return Individual(name[1], type_ref, span), i

    def parse_world(self, i: int) -> tuple[World, int]:
        toks = self.toks
        start = toks[i]
        name = toks[i + 1]
        if name[0] is not _IDENT:
            raise self.fail("expected world name", i + 1)
        if toks[i + 2][1] != "{":
            raise self.fail("expected '{'", i + 2)
        i += 3
        things: list[ThingNode] = []
        facts: list[Fact] = []
        while i < self.end:
            tok = toks[i]
            if tok[1] == "}":
                break
            if tok[1] == "thing":
                if facts:
                    raise self.fail("thing declarations must precede facts", i)
                thing, i = self.parse_thing(i)
                things.append(thing)
            elif tok[0] is _IDENT:
                fact, i = self.parse_fact(i)
                facts.append(fact)
            else:
                raise self.fail("expected a thing declaration, a fact or '}'", i)
        close = toks[i]
        if close[1] != "}":
            raise self.fail("expected '}'", i)
        span = _span((self.path, start[3], start[4], close[3], close[5]))
        return World(name[1], tuple(things), tuple(facts), span), i + 1

    def parse_thing(self, i: int) -> tuple[ThingNode, int]:
        toks = self.toks
        start = toks[i]
        name = toks[i + 1]
        if name[0] is not _IDENT:
            raise self.fail("expected thing name", i + 1)
        i += 2
        instance_of: QualifiedRef | None = None
        if toks[i][1] == ":":
            instance_of, i = self.parse_qname(i + 1)
        if toks[i][1] != "{":
            raise self.fail("expected '{'", i)
        i += 1
        parts: tuple[list[PartDecl], list[PartDecl]] = ([], [])
        for keyword, out in zip(("property", "power"), parts):
            while toks[i][1] == keyword:
                part = toks[i + 1]
                if part[0] is not _IDENT:
                    raise self.fail(f"expected {keyword} name", i + 1)
                if toks[i + 2][1] != ";":
                    raise self.fail("expected ';'", i + 2)
                out.append(PartDecl(part[1], _token_span(self.path, part)))
                i += 3
        close = toks[i]
        if close[1] == "property":
            raise self.fail("property declarations must precede power declarations", i)
        if close[1] != "}":
            raise self.fail("expected '}'", i)
        span = _span((self.path, start[3], start[4], close[3], close[5]))
        return ThingNode(name[1], instance_of, tuple(parts[0]), tuple(parts[1]), span), i + 1

    def parse_fact(self, i: int) -> tuple[Fact, int]:
        """A fact; the caller has checked that its first token is a name."""
        toks = self.toks
        pred = toks[i]
        if pred[1] not in WORLD_PREDICATES:
            self.diagnostics.append(
                Diagnostic("E004", f"unknown fact predicate {pred[1]!r}", _token_span(self.path, pred))
            )
            # Recover past the argument list so later facts still parse.
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
        left, i = self.parse_qname(i + 2, "expected a reference")
        if toks[i][1] != ",":
            raise self.fail("expected ','", i)
        right, i = self.parse_qname(i + 1, "expected a reference")
        close = toks[i]
        if close[1] != ")":
            raise self.fail("expected ')'", i)
        span = _span((self.path, pred[3], pred[4], close[3], close[5]))
        return Fact(pred[1], left, right, span), i + 1


#: Block productions by their first keyword, as plain functions: bound
#: methods kept on a parser would make a reference cycle.
_MODULE_BODY = {"term": _Parser.parse_term, "relation": _Parser.parse_relation, "imports": _Parser.misplaced_imports}
_INSTANCE_BODY = {"individual": _Parser.parse_individual, "world": _Parser.parse_world}


def parse_suite(files: list[tuple[str, str]]) -> tuple[SuiteAst, list[Diagnostic]]:
    """Parse every `(path, text)` pair.

    Files that produce any diagnostic contribute their diagnostics but no
    declarations, so the returned AST is fully well-formed. One file's
    tokens live only while that file is parsed."""
    decls: list[OntologyModule | InstanceFile] = []
    diagnostics: list[Diagnostic] = []
    for path, text in files:
        _parse_file(path, text, decls, diagnostics)
    return SuiteAst(tuple(decls)), diagnostics


def _parse_file(path: str, text: str, decls: list, diagnostics: list[Diagnostic]) -> None:
    """Add one file's diagnostics to `diagnostics`, and its declarations to
    `decls` if it has none. Its token list, its parser and the declarations
    of a file that failed are freed on return, before the next file is
    lexed."""
    tokens, lex_diags = tokenize(text, path)
    file_decls, parse_diags = _Parser(tokens, path).parse_file()
    diagnostics.extend(lex_diags)
    diagnostics.extend(parse_diags)
    if not lex_diags and not parse_diags:
        decls.extend(file_decls)


# ---------------------------------------------------------------------------
# Canonical rendering.
# ---------------------------------------------------------------------------

def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _render_term(t: TermDef, indent: str) -> list[str]:
    head = f"{indent}term {t.name} enriches {t.enriches}"
    if t.scope:
        head += f" scope {t.scope}"
    if not t.attributes:
        return [head]
    lines = [head + " {"]
    for attr in t.attributes:
        lines.append(f'{indent}  {attr.key} "{_escape(attr.value)}"')
    lines.append(indent + "}")
    return lines


def _render_module(m: OntologyModule) -> list[str]:
    lines = [f"ontology {m.name} at {m.level.name} {{"]
    for imp in m.imports:
        lines.append(f"  imports {imp.name}")
    for decl in m.body:
        if isinstance(decl, TermDef):
            lines.extend(_render_term(decl, "  "))
        else:
            lines.append(
                f"  relation {decl.name} from {decl.from_ref} to {decl.to_ref} kind {decl.kind_ref}"
            )
    lines.append("}")
    return lines


def _render_thing(t: ThingNode, indent: str) -> list[str]:
    head = f"{indent}thing {t.name}"
    if t.instance_of is not None:
        head += f" : {t.instance_of}"
    lines = [head + " {"]
    for part in t.properties:
        lines.append(f"{indent}  property {part.name};")
    for part in t.powers:
        lines.append(f"{indent}  power {part.name};")
    lines.append(indent + "}")
    return lines


def _render_instances(f: InstanceFile) -> list[str]:
    lines = [f"instances of {f.of_module} {{"]
    for decl in f.body:
        if isinstance(decl, Individual):
            lines.append(f"  individual {decl.name} : {decl.type_ref}")
        else:
            lines.append(f"  world {decl.name} {{")
            for thing in decl.things:
                lines.extend(_render_thing(thing, "    "))
            for fact in decl.facts:
                lines.append(f"    {fact.predicate}({fact.left}, {fact.right})")
            lines.append("  }")
    lines.append("}")
    return lines


def render_canonical(ast: SuiteAst) -> str:
    """Deterministic canonical text for an AST.

    Declarations are re-emitted in source order; reparsing the result yields
    a structurally identical AST, and rendering is a fixpoint."""
    blocks: list[str] = []
    for decl in ast.decls:
        if isinstance(decl, OntologyModule):
            blocks.append("\n".join(_render_module(decl)) + "\n")
        else:
            blocks.append("\n".join(_render_instances(decl)) + "\n")
    return "\n".join(blocks)
