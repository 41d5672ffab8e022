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

Files that produce any diagnostic are excluded from the returned AST, so
resolution only ever sees well-formed declarations. The renderer emits a
canonical form whose reparse is structurally identical (spans aside).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

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
    WorldRef,
)
from .reporting import Diagnostic
from .source import SourceSpan

KEYWORDS = frozenset(
    {
        "ontology", "at", "imports", "term", "enriches", "scope",
        "particulars", "universals", "relation", "from", "to", "kind",
        "instances", "of", "individual", "world", "thing", "property",
        "power", "FO", "CO", "TDO", "LDO",
    }
)

LEVEL_NAMES = ("FO", "CO", "TDO", "LDO")


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENT = "identifier"
    STRING = "string"
    PUNCT = "punctuation"
    EOI = "end-of-input"


@dataclass(slots=True)
class Token:
    """One token; every token sits on one line, from `col` to `end_col`.

    The span is built only when asked for: most tokens' spans are never read."""

    kind: TokenKind
    lexeme: str
    value: str  # unescaped payload for STRING tokens, "" otherwise
    file: str
    line: int
    col: int
    end_col: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.file, self.line, self.col, self.line, self.end_col)


#: The lexer's one pattern. `finditer` skips what no alternative matches,
#: which is exactly blanks, tabs and carriage returns, and a comment matches
#: with no group; the numbered groups tell the rest apart. Group 4 takes
#: every string, well-formed or not: it ends after the closing quote or
#: before the end of the line.
_SCAN = re.compile(
    r"//[^\n]*"                       # comment (no group)
    r"|(\n)"                          # 1: line break
    r"|([A-Za-z_][A-Za-z0-9_]*)"      # 2: keyword or identifier (ASCII only)
    r"|([{}(),:;.])"                  # 3: punctuation
    r'|("(?:[^"\\\n]|\\["\\]?)*"?)'   # 4: string
    r"|([^ \t\r])"                    # 5: invalid character
)


def tokenize(text: str, path: str = "<input>") -> tuple[list[Token], list[Diagnostic]]:
    """Full token stream (with end-of-input marker) plus lex diagnostics.

    The tokenizer always recovers: invalid characters and malformed strings
    are reported and skipped, and scanning continues. Columns count code
    points from 1, and only a line feed ends a line."""
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    append = tokens.append
    keyword, ident, punct, string = TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.PUNCT, TokenKind.STRING
    line, line_start = 1, 0
    for m in _SCAN.finditer(text):
        group = m.lastindex
        col = m.start() - line_start + 1
        if group == 2:
            lexeme = m.group(2)
            kind = keyword if lexeme in KEYWORDS else ident
            append(Token(kind, lexeme, "", path, line, col, col + len(lexeme) - 1))
        elif group == 3:
            append(Token(punct, m.group(3), "", path, line, col, col))
        elif group == 1:
            line += 1
            line_start = m.end()
        elif group == 4:
            lexeme = m.group(4)
            if len(lexeme) > 1 and lexeme[-1] == '"' and "\\" not in lexeme:
                append(Token(string, lexeme, lexeme[1:-1], path, line, col, col + len(lexeme) - 1))
            else:
                after = text[m.end():m.end() + 1] or "<eof>"
                append(_escaped_string(lexeme, after, path, line, col, diagnostics))
        elif group == 5:
            diagnostics.append(
                Diagnostic("E001", f"invalid character {m.group(5)!r}", SourceSpan(path, line, col, line, col))
            )
    col = len(text) - line_start + 1
    append(Token(TokenKind.EOI, "", "", path, line, col, col))
    return tokens, diagnostics


def _escaped_string(
    raw: str, after: str, path: str, line: int, col: int, diagnostics: list[Diagnostic]
) -> Token:
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
            diagnostics.append(
                Diagnostic("E001", f"invalid escape \\{escaped} in string",
                           SourceSpan(path, line, col + i, line, col + i))
            )
            i += 1
            continue
        parts.append(c)
        i += 1
    if not closed:
        diagnostics.append(Diagnostic("E001", "unterminated string literal", SourceSpan(path, line, col, line, col)))
    value = "".join(parts)
    return Token(TokenKind.STRING, f'"{value}"', value, path, line, col, col + n - 1)


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FileAst:
    path: str
    decls: tuple[OntologyModule | InstanceFile, ...]


@dataclass(frozen=True)
class SuiteAst:
    """Parsed (unresolved) declaration trees for all files that parsed."""

    files: tuple[FileAst, ...] = ()

    @property
    def decls(self) -> tuple[OntologyModule | InstanceFile, ...]:
        return tuple(d for f in self.files for d in f.decls)

    @property
    def modules(self) -> tuple[OntologyModule, ...]:
        return tuple(d for d in self.decls if isinstance(d, OntologyModule))

    @property
    def instance_files(self) -> tuple[InstanceFile, ...]:
        return tuple(d for d in self.decls if isinstance(d, InstanceFile))


class _ParseError(Exception):
    pass


_TOP_SYNC = ("ontology", "instances")
_MODULE_SYNC = _TOP_SYNC + ("imports", "term", "relation")
_INSTANCE_SYNC = _TOP_SYNC + ("individual", "world")
_LEVELS = {name: Level[name] for name in LEVEL_NAMES}


class _Parser:
    """Recursive descent over the token list. Each production takes the index
    of its first token and returns its node and the index after it.

    Keywords and punctuation are told apart by lexeme alone: only KEYWORD
    tokens carry keyword lexemes, only PUNCT tokens carry punctuation, a
    STRING lexeme starts with a quote and the end-of-input token, always the
    last one, has the empty lexeme. A production reads `toks[i + 1]` only
    after `toks[i]` has matched a lexeme or a kind, which end of input never
    does, so no index runs past the list. On a syntax error, `fail` records
    the failing token's index in `pos`, where recovery resumes."""

    def __init__(self, tokens: list[Token], path: str):
        self.toks = tokens
        self.end = len(tokens) - 1  # index of the end-of-input token
        self.path = path
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    def fail(self, message: str, i: int) -> _ParseError:
        tok = self.toks[i]
        shown = tok.lexeme or "end of input"
        self.diagnostics.append(Diagnostic("E002", f"{message}, got {shown!r}", tok.span))
        self.pos = i
        return _ParseError()

    def skip_to(self, i: int, keywords: tuple[str, ...], *, stop_at_close: bool = True) -> int:
        """Error recovery from token `i`: consume at least one token, then
        stop before a sync keyword or after a closing brace."""
        toks, end = self.toks, self.end
        if i < end:
            i += 1
        while i < end:
            lexeme = toks[i].lexeme
            if lexeme in keywords:
                return i
            if stop_at_close and lexeme == "}":
                return i + 1
            i += 1
        return i

    # -- grammar ------------------------------------------------------------

    def parse_file(self) -> tuple[FileAst, list[Diagnostic]]:
        toks = self.toks
        decls: list[OntologyModule | InstanceFile] = []
        i = 0
        while i < self.end:
            lexeme = toks[i].lexeme
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
        return FileAst(self.path, tuple(decls)), self.diagnostics

    def parse_level(self, i: int) -> tuple[Level, int]:
        tok = self.toks[i]
        level = _LEVELS.get(tok.lexeme)
        if level is not None:
            return level, i + 1
        if tok.kind is TokenKind.IDENT or tok.lexeme in KEYWORDS:
            self.diagnostics.append(
                Diagnostic("E003", f"unknown level name {tok.lexeme!r} (expected FO, CO, TDO or LDO)", tok.span)
            )
            return Level.CO, i + 1  # placeholder; the file is excluded anyway
        raise self.fail("expected a level name", i)

    def parse_qname(self, i: int) -> tuple[QualifiedRef, int]:
        toks = self.toks
        first = toks[i]
        if first.kind is not TokenKind.IDENT:
            raise self.fail("expected a name", i)
        if toks[i + 1].lexeme == ".":
            second = toks[i + 2]
            if second.kind is not TokenKind.IDENT:
                raise self.fail("expected a name after '.'", i + 2)
            span = SourceSpan(first.file, first.line, first.col, second.line, second.end_col)
            return QualifiedRef(first.lexeme, second.lexeme, span), i + 3
        span = SourceSpan(first.file, first.line, first.col, first.line, first.end_col)
        return QualifiedRef(None, first.lexeme, span), i + 1

    def parse_module(self, i: int) -> tuple[OntologyModule, int]:
        toks = self.toks
        start = toks[i]
        name = toks[i + 1]
        if name.kind is not TokenKind.IDENT:
            raise self.fail("expected ontology name", i + 1)
        if toks[i + 2].lexeme != "at":
            raise self.fail("expected 'at'", i + 2)
        level, i = self.parse_level(i + 3)
        if toks[i].lexeme != "{":
            raise self.fail("expected '{'", i)
        i += 1
        imports: list[ImportRef] = []
        body: list[TermDef | RelationDecl] = []
        while toks[i].lexeme == "imports":
            target = toks[i + 1]
            if target.kind is not TokenKind.IDENT:
                raise self.fail("expected imported module name", i + 1)
            imports.append(ImportRef(target.lexeme, target.span))
            i += 2
        while i < self.end:
            lexeme = toks[i].lexeme
            if lexeme == "}":
                break
            try:
                if lexeme == "term":
                    decl, i = self.parse_term(i)
                elif lexeme == "relation":
                    decl, i = self.parse_relation(i)
                elif lexeme == "imports":
                    raise self.fail("imports must precede term and relation declarations", i)
                else:
                    raise self.fail("expected 'term', 'relation' or '}'", i)
                body.append(decl)
            except _ParseError:
                i = self.skip_to(self.pos, _MODULE_SYNC)
                if toks[i - 1].lexeme == "}":
                    # recovery consumed the module's closing brace
                    last = toks[i - 1]
                elif toks[i].lexeme in _TOP_SYNC:
                    last = toks[i]
                else:
                    continue
                span = SourceSpan(start.file, start.line, start.col, last.line, last.end_col)
                return OntologyModule(name.lexeme, level, tuple(imports), tuple(body), span), i
        close = toks[i]
        if close.lexeme != "}":
            raise self.fail("expected '}'", i)
        span = SourceSpan(start.file, start.line, start.col, close.line, close.end_col)
        return OntologyModule(name.lexeme, level, tuple(imports), tuple(body), span), i + 1

    def parse_term(self, i: int) -> tuple[TermDef, int]:
        toks = self.toks
        start = toks[i]
        name = toks[i + 1]
        if name.kind is not TokenKind.IDENT:
            raise self.fail("expected term name", i + 1)
        if toks[i + 2].lexeme != "enriches":
            raise self.fail("expected 'enriches'", i + 2)
        target, i = self.parse_qname(i + 3)
        scope: str | None = None
        if toks[i].lexeme == "scope":
            scope = toks[i + 1].lexeme
            if scope != "particulars" and scope != "universals":
                raise self.fail("expected 'particulars' or 'universals'", i + 1)
            i += 2
        if toks[i].lexeme != "{":
            end = target.span
            span = SourceSpan(start.file, start.line, start.col, end.end_line, end.end_col)
            return TermDef(name.lexeme, target, scope, (), span), i
        i += 1
        attrs: list[AttrPair] = []
        while toks[i].lexeme != "}":
            key = toks[i]
            if key.kind is not TokenKind.IDENT:
                raise self.fail("expected attribute key", i)
            value = toks[i + 1]
            if value.kind is not TokenKind.STRING:
                raise self.fail("expected a string attribute value", i + 1)
            attrs.append(AttrPair(key.lexeme, value.value,
                                  SourceSpan(key.file, key.line, key.col, value.line, value.end_col)))
            i += 2
        close = toks[i]
        span = SourceSpan(start.file, start.line, start.col, close.line, close.end_col)
        return TermDef(name.lexeme, target, scope, tuple(attrs), span), i + 1

    def parse_relation(self, i: int) -> tuple[RelationDecl, int]:
        toks = self.toks
        start = toks[i]
        name = toks[i + 1]
        if name.kind is not TokenKind.IDENT:
            raise self.fail("expected relation name", i + 1)
        if toks[i + 2].lexeme != "from":
            raise self.fail("expected 'from'", i + 2)
        from_ref, i = self.parse_qname(i + 3)
        if toks[i].lexeme != "to":
            raise self.fail("expected 'to'", i)
        to_ref, i = self.parse_qname(i + 1)
        if toks[i].lexeme != "kind":
            raise self.fail("expected 'kind'", i)
        kind_ref, i = self.parse_qname(i + 1)
        end = kind_ref.span
        span = SourceSpan(start.file, start.line, start.col, end.end_line, end.end_col)
        return RelationDecl(name.lexeme, from_ref, to_ref, kind_ref, span), i

    def parse_instances(self, i: int) -> tuple[InstanceFile, int]:
        toks = self.toks
        start = toks[i]
        if toks[i + 1].lexeme != "of":
            raise self.fail("expected 'of'", i + 1)
        module = toks[i + 2]
        if module.kind is not TokenKind.IDENT:
            raise self.fail("expected module name", i + 2)
        if toks[i + 3].lexeme != "{":
            raise self.fail("expected '{'", i + 3)
        i += 4
        body: list[Individual | World] = []
        while i < self.end:
            lexeme = toks[i].lexeme
            if lexeme == "}":
                break
            try:
                if lexeme == "individual":
                    decl, i = self.parse_individual(i)
                elif lexeme == "world":
                    decl, i = self.parse_world(i)
                else:
                    raise self.fail("expected 'individual', 'world' or '}'", i)
                body.append(decl)
            except _ParseError:
                i = self.skip_to(self.pos, _INSTANCE_SYNC)
                if toks[i - 1].lexeme == "}":
                    last = toks[i - 1]
                elif toks[i].lexeme in _TOP_SYNC:
                    last = toks[i]
                else:
                    continue
                span = SourceSpan(start.file, start.line, start.col, last.line, last.end_col)
                return InstanceFile(module.lexeme, tuple(body), span), i
        close = toks[i]
        if close.lexeme != "}":
            raise self.fail("expected '}'", i)
        span = SourceSpan(start.file, start.line, start.col, close.line, close.end_col)
        return InstanceFile(module.lexeme, tuple(body), span), i + 1

    def parse_individual(self, i: int) -> tuple[Individual, int]:
        toks = self.toks
        start = toks[i]
        name = toks[i + 1]
        if name.kind is not TokenKind.IDENT:
            raise self.fail("expected individual name", i + 1)
        if toks[i + 2].lexeme != ":":
            raise self.fail("expected ':'", i + 2)
        type_ref, i = self.parse_qname(i + 3)
        end = type_ref.span
        span = SourceSpan(start.file, start.line, start.col, end.end_line, end.end_col)
        return Individual(name.lexeme, type_ref, span), i

    def parse_world(self, i: int) -> tuple[World, int]:
        toks = self.toks
        start = toks[i]
        name = toks[i + 1]
        if name.kind is not TokenKind.IDENT:
            raise self.fail("expected world name", i + 1)
        if toks[i + 2].lexeme != "{":
            raise self.fail("expected '{'", i + 2)
        i += 3
        things: list[ThingNode] = []
        facts: list[Fact] = []
        while i < self.end:
            tok = toks[i]
            if tok.lexeme == "}":
                break
            if tok.lexeme == "thing":
                if facts:
                    raise self.fail("thing declarations must precede facts", i)
                thing, i = self.parse_thing(i)
                things.append(thing)
            elif tok.kind is TokenKind.IDENT:
                fact, i = self.parse_fact(i)
                facts.append(fact)
            else:
                raise self.fail("expected a thing declaration, a fact or '}'", i)
        close = toks[i]
        if close.lexeme != "}":
            raise self.fail("expected '}'", i)
        span = SourceSpan(start.file, start.line, start.col, close.line, close.end_col)
        return World(name.lexeme, tuple(things), tuple(facts), span), i + 1

    def parse_thing(self, i: int) -> tuple[ThingNode, int]:
        toks = self.toks
        start = toks[i]
        name = toks[i + 1]
        if name.kind is not TokenKind.IDENT:
            raise self.fail("expected thing name", i + 1)
        i += 2
        instance_of: QualifiedRef | None = None
        if toks[i].lexeme == ":":
            instance_of, i = self.parse_qname(i + 1)
        if toks[i].lexeme != "{":
            raise self.fail("expected '{'", i)
        i += 1
        parts: tuple[list[PartDecl], list[PartDecl]] = ([], [])
        for keyword, out in zip(("property", "power"), parts):
            while toks[i].lexeme == keyword:
                part = toks[i + 1]
                if part.kind is not TokenKind.IDENT:
                    raise self.fail(f"expected {keyword} name", i + 1)
                if toks[i + 2].lexeme != ";":
                    raise self.fail("expected ';'", i + 2)
                out.append(PartDecl(part.lexeme, part.span))
                i += 3
        close = toks[i]
        if close.lexeme == "property":
            raise self.fail("property declarations must precede power declarations", i)
        if close.lexeme != "}":
            raise self.fail("expected '}'", i)
        span = SourceSpan(start.file, start.line, start.col, close.line, close.end_col)
        return ThingNode(name.lexeme, instance_of, tuple(parts[0]), tuple(parts[1]), span), i + 1

    def parse_ref(self, i: int) -> tuple[WorldRef, int]:
        toks = self.toks
        first = toks[i]
        if first.kind is not TokenKind.IDENT:
            raise self.fail("expected a reference", i)
        if toks[i + 1].lexeme == ".":
            second = toks[i + 2]
            if second.kind is not TokenKind.IDENT:
                raise self.fail("expected a name after '.'", i + 2)
            span = SourceSpan(first.file, first.line, first.col, second.line, second.end_col)
            return WorldRef(first.lexeme, second.lexeme, span), i + 3
        span = SourceSpan(first.file, first.line, first.col, first.line, first.end_col)
        return WorldRef(first.lexeme, None, span), i + 1

    def parse_fact(self, i: int) -> tuple[Fact, int]:
        """A fact; the caller has checked that its first token is a name."""
        toks = self.toks
        pred = toks[i]
        if pred.lexeme not in WORLD_PREDICATES:
            self.diagnostics.append(
                Diagnostic("E004", f"unknown fact predicate {pred.lexeme!r}", pred.span)
            )
            # Recover past the argument list so later facts still parse.
            i += 1
            if toks[i].lexeme == "(":
                while i < self.end and toks[i].lexeme not in (")", "}"):
                    i += 1
                if toks[i].lexeme == ")":
                    i += 1
            self.pos = i
            raise _ParseError()
        if toks[i + 1].lexeme != "(":
            raise self.fail("expected '('", i + 1)
        left, i = self.parse_ref(i + 2)
        if toks[i].lexeme != ",":
            raise self.fail("expected ','", i)
        right, i = self.parse_ref(i + 1)
        close = toks[i]
        if close.lexeme != ")":
            raise self.fail("expected ')'", i)
        span = SourceSpan(pred.file, pred.line, pred.col, close.line, close.end_col)
        return Fact(pred.lexeme, left, right, span), i + 1


def parse_suite(files: list[tuple[str, str]]) -> tuple[SuiteAst, list[Diagnostic]]:
    """Parse every `(path, text)` pair.

    Files that produce any diagnostic contribute their diagnostics but no
    declarations, so the returned AST is fully well-formed."""
    parsed: list[FileAst] = []
    diagnostics: list[Diagnostic] = []
    for path, text in files:
        tokens, lex_diags = tokenize(text, path)
        parser = _Parser(tokens, path)
        file_ast, parse_diags = parser.parse_file()
        file_diags = lex_diags + parse_diags
        diagnostics.extend(file_diags)
        if not file_diags:
            parsed.append(file_ast)
    return SuiteAst(tuple(parsed)), diagnostics


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
