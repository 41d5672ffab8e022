"""Naive reference implementations, kept as independent oracles.

`oracle_chain_status` and `oracle_enrichment_root` check the memoised
`chain_status` and `ResolvedSuite.enrichment_root`: both walk the whole chain
from scratch on every call and detect cycles by scanning the list of visited
links; neither reads nor writes any cache. `oracle_check_axioms` checks the
edge-wise `check_axioms` by enumerating every quantifier instantiation.
`oracle_tokenize` checks the regex scanner `tokenize`: it walks the text one
character at a time and builds every token's span as it goes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ontoarch.metamodel import BUILTIN_MODULE
from ontoarch.model import RelationDecl, ResolvedSuite, World
from ontoarch.parser import KEYWORDS, TokenKind
from ontoarch.reporting import Diagnostic
from ontoarch.source import SourceSpan
from ontoarch.validator import ChainStatus, Violation, _axiom_violation


def oracle_chain_status(
    suite: ResolvedSuite,
    module_name: str,
    rel: RelationDecl,
    components: dict[str, frozenset[str]] | None,
) -> ChainStatus:
    visited: list[str] = []
    cur_mod, cur_rel = module_name, rel
    while True:
        here = f"{cur_mod}.{cur_rel.name}"
        if here in visited:
            cycle = " -> ".join(visited[visited.index(here):] + [here])
            return ChainStatus("cycle", detail=f"kind chain cycles: {cycle}")
        visited.append(here)
        target_mod, target_name = suite.term_target(cur_rel.kind_ref, cur_mod)
        if target_mod == BUILTIN_MODULE:
            return ChainStatus("foundational", key=target_name)
        cur_level = suite.level_of(cur_mod)
        target_level = suite.level_of(target_mod)
        if target_level.rank > cur_level.rank:
            return ChainStatus(
                "downward",
                detail=f"kind of {here} points to the more concrete level "
                f"{target_level.name} ({target_mod}.{target_name})",
            )
        if target_level.rank == cur_level.rank and target_mod != cur_mod:
            if components is None:
                return ChainStatus("escape", detail=f"kind of {here} crosses into {target_mod}")
            if target_mod not in components.get(cur_mod, frozenset({cur_mod})):
                return ChainStatus(
                    "dead_end",
                    detail=f"kind of {here} leaves the import-connected component "
                    f"({target_mod} is not related to {cur_mod})",
                )
        next_rel = suite.get_relation(target_mod, target_name)
        assert next_rel is not None
        cur_mod, cur_rel = target_mod, next_rel


def oracle_enrichment_root(suite: ResolvedSuite, module_name: str, term_name: str) -> str:
    """The root name, or the `KeyError` message `enrichment_root` must raise."""
    chain: list[tuple[str, str]] = []
    mod, name = module_name, term_name
    while mod != BUILTIN_MODULE:
        chain.append((mod, name))
        term = suite.get_term(mod, name)
        if term.enriches is None:
            return f"KeyError: term {mod}.{name} has no enrichment target"
        mod, name = suite.term_target(term.enriches, mod)
        if (mod, name) in chain:
            return f"KeyError: enrichment cycle through {module_name}.{term_name}"
    return name


def oracle_check_axioms(world: World) -> list[Violation]:
    """Brute-force axiom evaluation by enumerating every quantifier
    instantiation (thing x property x power) with partOf as ownership.

    Semantically equal violation set to `check_axioms`; kept deliberately
    naive as the independent oracle."""
    things = [t.name for t in world.things]
    props = [(t.name, p.name) for t in world.things for p in t.properties]
    pows = [(t.name, p.name) for t in world.things for p in t.powers]

    def ref_is(ref, owner: str, part: str) -> bool:
        return ref.primary == owner and ref.part == part

    out: list[Violation] = []
    # A1: Thing(t) & Property(prop) & partOf(prop,t) & Power(pow) & enables(prop,pow) -> partOf(pow,t)
    for t in things:
        for p_owner, p_name in props:
            if p_owner != t:  # partOf(prop, t)
                continue
            for w_owner, w_name in pows:
                for fact in world.facts_of("enables"):
                    if ref_is(fact.left, p_owner, p_name) and ref_is(fact.right, w_owner, w_name):
                        if w_owner != t:  # consequent partOf(pow, t) falsified
                            out.append(_axiom_violation("E311", fact))
    # A2: Thing(t) & Power(pow) & partOf(pow,t) & Property(prop) & actsUpon(pow,prop) -> partOf(prop,t)
    for t in things:
        for w_owner, w_name in pows:
            if w_owner != t:
                continue
            for p_owner, p_name in props:
                for fact in world.facts_of("actsUpon"):
                    if ref_is(fact.left, w_owner, w_name) and ref_is(fact.right, p_owner, p_name):
                        if p_owner != t:
                            out.append(_axiom_violation("E312", fact))
    # A3: Thing(t) & Power(pow) & partOf(pow,t) -> not interactsWithOther(pow, t)
    for t in things:
        for w_owner, w_name in pows:
            if w_owner != t:
                continue
            for fact in world.facts_of("interacts"):
                if ref_is(fact.left, w_owner, w_name) and fact.right.part is None and fact.right.primary == t:
                    out.append(_axiom_violation("E313", fact))
    return out

PUNCTUATION = "{}(),:;."


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    lexeme: str
    span: SourceSpan
    value: str = ""  # unescaped payload for STRING tokens


def _ident_start(ch: str) -> bool:
    return ch.isascii() and (ch.isalpha() or ch == "_")


def _ident_char(ch: str) -> bool:
    return ch.isascii() and (ch.isalnum() or ch == "_")


def oracle_tokenize(text: str, path: str = "<input>") -> tuple[list[Token], list[Diagnostic]]:
    """Full token stream (with end-of-input marker) plus lex diagnostics.

    The tokenizer always recovers: invalid characters and malformed strings
    are reported and skipped, and scanning continues."""
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def span_at(l: int, c: int, l2: int | None = None, c2: int | None = None) -> SourceSpan:
        return SourceSpan(path, l, c, l2 if l2 is not None else l, c2 if c2 is not None else c)

    def advance(ch: str) -> None:
        nonlocal line, col
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(ch)
            i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                advance(text[i])
                i += 1
            continue
        start_line, start_col = line, col
        if _ident_start(ch):
            j = i
            while j < n and _ident_char(text[j]):
                advance(text[j])
                j += 1
            lexeme = text[i:j]
            kind = TokenKind.KEYWORD if lexeme in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, lexeme, span_at(start_line, start_col, line, col - 1)))
            i = j
            continue
        if ch in PUNCTUATION:
            tokens.append(Token(TokenKind.PUNCT, ch, span_at(start_line, start_col)))
            advance(ch)
            i += 1
            continue
        if ch == '"':
            advance(ch)
            i += 1
            parts: list[str] = []
            closed = False
            while i < n:
                c = text[i]
                if c == '"':
                    advance(c)
                    i += 1
                    closed = True
                    break
                if c == "\n":
                    break
                if c == "\\":
                    if i + 1 < n and text[i + 1] in ('"', "\\"):
                        parts.append(text[i + 1])
                        advance(c)
                        advance(text[i + 1])
                        i += 2
                        continue
                    bad = text[i + 1] if i + 1 < n else "<eof>"
                    diagnostics.append(
                        Diagnostic("E001", f"invalid escape \\{bad} in string", span_at(line, col))
                    )
                    advance(c)
                    i += 1
                    continue
                parts.append(c)
                advance(c)
                i += 1
            if not closed:
                diagnostics.append(
                    Diagnostic("E001", "unterminated string literal", span_at(start_line, start_col))
                )
            value = "".join(parts)
            tokens.append(
                Token(TokenKind.STRING, f'"{value}"', span_at(start_line, start_col, line, max(col - 1, 1)), value)
            )
            continue
        diagnostics.append(
            Diagnostic("E001", f"invalid character {ch!r}", span_at(start_line, start_col))
        )
        advance(ch)
        i += 1
    tokens.append(Token(TokenKind.EOI, "", span_at(line, col)))
    return tokens, diagnostics
