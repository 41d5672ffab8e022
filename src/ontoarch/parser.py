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

    @property
    def end_line(self) -> int:
        return self.line

    def to(self, other: SourceSpan | Token) -> SourceSpan:
        """Smallest span covering this token and `other`, as `SourceSpan.to`
        gives, without building this token's span or `other`'s."""
        return SourceSpan(self.file, self.line, self.col, other.end_line, other.end_col)

    def is_kw(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.lexeme == word

    def is_punct(self, ch: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.lexeme == ch


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


class _Parser:
    def __init__(self, tokens: list[Token], path: str):
        self.tokens = tokens
        self.path = path
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOI:
            self.pos += 1
        return tok

    def at_eof(self) -> bool:
        return self.peek().kind is TokenKind.EOI

    def fail(self, message: str, tok: Token | None = None) -> _ParseError:
        tok = tok or self.peek()
        shown = tok.lexeme if tok.kind is not TokenKind.EOI else "end of input"
        self.diagnostics.append(Diagnostic("E002", f"{message}, got {shown!r}", tok.span))
        return _ParseError()

    def expect_kw(self, word: str) -> Token:
        if self.peek().is_kw(word):
            return self.next()
        raise self.fail(f"expected '{word}'")

    def expect_punct(self, ch: str) -> Token:
        if self.peek().is_punct(ch):
            return self.next()
        raise self.fail(f"expected '{ch}'")

    def expect_ident(self, what: str = "identifier") -> Token:
        if self.peek().kind is TokenKind.IDENT:
            return self.next()
        raise self.fail(f"expected {what}")

    def skip_to(self, keywords: tuple[str, ...], *, stop_at_close: bool = True) -> None:
        """Error recovery: consume at least one token, then stop before a
        sync keyword or after a closing brace."""
        if not self.at_eof():
            self.pos += 1
        while not self.at_eof():
            tok = self.peek()
            if tok.kind is TokenKind.KEYWORD and tok.lexeme in keywords:
                return
            if stop_at_close and tok.is_punct("}"):
                self.next()
                return
            self.next()

    # -- grammar ------------------------------------------------------------

    def parse_file(self) -> tuple[FileAst, list[Diagnostic]]:
        decls: list[OntologyModule | InstanceFile] = []
        while not self.at_eof():
            tok = self.peek()
            try:
                if tok.is_kw("ontology"):
                    decls.append(self.parse_module())
                elif tok.is_kw("instances"):
                    decls.append(self.parse_instances())
                else:
                    raise self.fail("expected 'ontology' or 'instances'")
            except _ParseError:
                self.skip_to(_TOP_SYNC, stop_at_close=False)
        return FileAst(self.path, tuple(decls)), self.diagnostics

    def parse_level(self) -> Level:
        tok = self.peek()
        if tok.kind is TokenKind.KEYWORD and tok.lexeme in LEVEL_NAMES:
            self.next()
            return Level[tok.lexeme]
        if tok.kind in (TokenKind.IDENT, TokenKind.KEYWORD):
            self.diagnostics.append(
                Diagnostic("E003", f"unknown level name {tok.lexeme!r} (expected FO, CO, TDO or LDO)", tok.span)
            )
            self.next()
            return Level.CO  # placeholder; the file is excluded anyway
        raise self.fail("expected a level name")

    def parse_qname(self) -> QualifiedRef:
        first = self.expect_ident("a name")
        if self.peek().is_punct("."):
            self.next()
            second = self.expect_ident("a name after '.'")
            return QualifiedRef(first.lexeme, second.lexeme, first.to(second))
        return QualifiedRef(None, first.lexeme, first.span)

    def parse_module(self) -> OntologyModule:
        start = self.expect_kw("ontology")
        name = self.expect_ident("ontology name")
        self.expect_kw("at")
        level = self.parse_level()
        self.expect_punct("{")
        imports: list[ImportRef] = []
        body: list[TermDef | RelationDecl] = []
        while self.peek().is_kw("imports"):
            self.next()
            target = self.expect_ident("imported module name")
            imports.append(ImportRef(target.lexeme, target.span))
        while not self.at_eof() and not self.peek().is_punct("}"):
            tok = self.peek()
            try:
                if tok.is_kw("term"):
                    body.append(self.parse_term())
                elif tok.is_kw("relation"):
                    body.append(self.parse_relation())
                elif tok.is_kw("imports"):
                    raise self.fail("imports must precede term and relation declarations", tok)
                else:
                    raise self.fail("expected 'term', 'relation' or '}'")
            except _ParseError:
                self.skip_to(_MODULE_SYNC)
                if self.pos and self.tokens[self.pos - 1].is_punct("}"):
                    # recovery consumed the module's closing brace
                    return OntologyModule(name.lexeme, level, tuple(imports), tuple(body),
                                          start.to(self.tokens[self.pos - 1]))
                if self.peek().kind is TokenKind.KEYWORD and self.peek().lexeme in _TOP_SYNC:
                    return OntologyModule(name.lexeme, level, tuple(imports), tuple(body),
                                          start.to(self.peek()))
        end = self.expect_punct("}")
        return OntologyModule(name.lexeme, level, tuple(imports), tuple(body), start.to(end))

    def parse_term(self) -> TermDef:
        start = self.expect_kw("term")
        name = self.expect_ident("term name")
        self.expect_kw("enriches")
        target = self.parse_qname()
        scope: str | None = None
        if self.peek().is_kw("scope"):
            self.next()
            tok = self.peek()
            if tok.is_kw("particulars") or tok.is_kw("universals"):
                scope = tok.lexeme
                self.next()
            else:
                raise self.fail("expected 'particulars' or 'universals'")
        attrs: list[AttrPair] = []
        end: SourceSpan | Token = target.span
        if self.peek().is_punct("{"):
            self.next()
            while not self.peek().is_punct("}"):
                key = self.expect_ident("attribute key")
                if self.peek().kind is not TokenKind.STRING:
                    raise self.fail("expected a string attribute value")
                value = self.next()
                attrs.append(AttrPair(key.lexeme, value.value, key.to(value)))
            end = self.expect_punct("}")
        return TermDef(name.lexeme, target, scope, tuple(attrs), start.to(end))

    def parse_relation(self) -> RelationDecl:
        start = self.expect_kw("relation")
        name = self.expect_ident("relation name")
        self.expect_kw("from")
        from_ref = self.parse_qname()
        self.expect_kw("to")
        to_ref = self.parse_qname()
        self.expect_kw("kind")
        kind_ref = self.parse_qname()
        return RelationDecl(name.lexeme, from_ref, to_ref, kind_ref, start.to(kind_ref.span))

    def parse_instances(self) -> InstanceFile:
        start = self.expect_kw("instances")
        self.expect_kw("of")
        module = self.expect_ident("module name")
        self.expect_punct("{")
        body: list[Individual | World] = []
        while not self.at_eof() and not self.peek().is_punct("}"):
            tok = self.peek()
            try:
                if tok.is_kw("individual"):
                    body.append(self.parse_individual())
                elif tok.is_kw("world"):
                    body.append(self.parse_world())
                else:
                    raise self.fail("expected 'individual', 'world' or '}'")
            except _ParseError:
                self.skip_to(_INSTANCE_SYNC)
                if self.pos and self.tokens[self.pos - 1].is_punct("}"):
                    return InstanceFile(module.lexeme, tuple(body), start.to(self.tokens[self.pos - 1]))
                if self.peek().kind is TokenKind.KEYWORD and self.peek().lexeme in _TOP_SYNC:
                    return InstanceFile(module.lexeme, tuple(body), start.to(self.peek()))
        end = self.expect_punct("}")
        return InstanceFile(module.lexeme, tuple(body), start.to(end))

    def parse_individual(self) -> Individual:
        start = self.expect_kw("individual")
        name = self.expect_ident("individual name")
        self.expect_punct(":")
        type_ref = self.parse_qname()
        return Individual(name.lexeme, type_ref, start.to(type_ref.span))

    def parse_world(self) -> World:
        start = self.expect_kw("world")
        name = self.expect_ident("world name")
        self.expect_punct("{")
        things: list[ThingNode] = []
        facts: list[Fact] = []
        while not self.at_eof() and not self.peek().is_punct("}"):
            tok = self.peek()
            if tok.is_kw("thing"):
                if facts:
                    raise self.fail("thing declarations must precede facts", tok)
                things.append(self.parse_thing())
            elif tok.kind is TokenKind.IDENT:
                facts.append(self.parse_fact())
            else:
                raise self.fail("expected a thing declaration, a fact or '}'")
        end = self.expect_punct("}")
        return World(name.lexeme, tuple(things), tuple(facts), start.to(end))

    def parse_thing(self) -> ThingNode:
        start = self.expect_kw("thing")
        name = self.expect_ident("thing name")
        instance_of: QualifiedRef | None = None
        if self.peek().is_punct(":"):
            self.next()
            instance_of = self.parse_qname()
        self.expect_punct("{")
        properties: list[PartDecl] = []
        powers: list[PartDecl] = []
        while self.peek().is_kw("property"):
            self.next()
            part = self.expect_ident("property name")
            self.expect_punct(";")
            properties.append(PartDecl(part.lexeme, part.span))
        while self.peek().is_kw("power"):
            self.next()
            part = self.expect_ident("power name")
            self.expect_punct(";")
            powers.append(PartDecl(part.lexeme, part.span))
        if self.peek().is_kw("property"):
            raise self.fail("property declarations must precede power declarations")
        end = self.expect_punct("}")
        return ThingNode(name.lexeme, instance_of, tuple(properties), tuple(powers), start.to(end))

    def parse_ref(self) -> WorldRef:
        first = self.expect_ident("a reference")
        if self.peek().is_punct("."):
            self.next()
            second = self.expect_ident("a name after '.'")
            return WorldRef(first.lexeme, second.lexeme, first.to(second))
        return WorldRef(first.lexeme, None, first.span)

    def parse_fact(self) -> Fact:
        pred = self.expect_ident("a fact predicate")
        if pred.lexeme not in WORLD_PREDICATES:
            self.diagnostics.append(
                Diagnostic("E004", f"unknown fact predicate {pred.lexeme!r}", pred.span)
            )
            # Recover past the argument list so later facts still parse.
            if self.peek().is_punct("("):
                while not self.at_eof() and not self.peek().is_punct(")"):
                    if self.peek().is_punct("}"):
                        break
                    self.next()
                if self.peek().is_punct(")"):
                    self.next()
            raise _ParseError()
        self.expect_punct("(")
        left = self.parse_ref()
        self.expect_punct(",")
        right = self.parse_ref()
        end = self.expect_punct(")")
        return Fact(pred.lexeme, left, right, pred.to(end))


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
