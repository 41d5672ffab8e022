"""Naive reference implementations, kept as independent oracles.

`oracle_chain_status` and `oracle_enrichment_root` check the kind-chain
outcomes and enrichment roots that resolution records for `chain_status`
and `ResolvedSuite.enrichment_root`: both walk the whole chain from scratch on
every call, reading each link from `suite.modules`, and detect cycles by
scanning the list of visited links; neither reads the suite's tables or
lookups, nor keeps any cache. `oracle_chain_status` also keeps the module-local
mode, where a lateral hop ends the chain as an "escape". `oracle_components`
checks the same-level import components that resolution records in
`ResolvedSuite.components` with a breadth-first search from each module.
`oracle_import_cycles` checks the import cycles (E103) that resolution
reports: it finds which modules reach each other by a breadth-first search
from every module. `oracle_duplicates_and_enrichment_cycles` checks
resolution's duplicates (E102) and enrichment cycles (E105): it compares
each name with every earlier one of its namespace, and follows each term's
chain from scratch, in walk order, to find the first that enters each
cycle; it reads the modules, not the suite's tables.
`oracle_check_axioms` checks the edge-wise
`check_axioms` by enumerating every quantifier instantiation, and words
each finding itself from the axiom's variables, so a wrong text fails too.
`oracle_tokenize` checks the regex scanner `tokenize`: it walks the text one
character at a time, counting lines and columns, and returns `Token` objects,
where `tokenize` returns shared tuples and start offsets. `oracle_parse_file`
checks the index-based `parser._Parser`: it is the parser that `_Parser`
replaced, which steps through the same tokens, wrapped in `Token` objects
that carry lines and columns counted from the text, with a cursor and a
method call per token test; its nodes carry spans, not offsets.
`oracle_render_json` checks the direct JSON writer `render_json`: it is the
serializer that the writer replaced, which builds one dict per finding and
has `json.dumps` sort every key. `oracle_world_rules` checks the world
findings of `check_relationship_conformance` (E232-E234 and W301): it
judges each fact on its own and looks for each part's edges among all the
facts, sharing no helper with the validator. `oracle_rule1` checks E211 and
E213 of `check_rule1` from the module list and the order of the levels, and
`oracle_property_conformance` checks W201-W203 of
`check_property_conformance` from the property catalog, walking each term's
root link by link; both return codes and spans only. So does
`oracle_relationship_conformance`, which checks E231 of
`check_relationship_conformance` relation by relation: it follows each kind
chain with `oracle_chain_status`, and judges each endpoint against each
relationship spec of the chain's key by walking ThingFO's parent links
itself.

`render_canonical` is no oracle but a test tool: it writes an AST back as
`.onto` text, which the round-trip tests reparse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from ontoarch.metamodel import (
    BUILTIN_MODULE,
    PROPERTIES,
    RELATIONSHIPS,
    SCOPE_FACETS,
    TERM_SPECS,
    WORLD_PREDICATES,
)
from ontoarch.model import (
    MODULE_LEVELS,
    AttrPair,
    ChainStatus,
    Fact,
    ImportRef,
    Individual,
    InstanceFile,
    Level,
    OntologyModule,
    QualifiedRef,
    RelationDecl,
    ResolvedSuite,
    TermDef,
    ThingNode,
    World,
)
from ontoarch.parser import KEYWORDS, SuiteAst, TokenKind
from ontoarch.reporting import CODE_CATALOG, REPORT_VERSION, Diagnostic, Report
from ontoarch.source import SYNTHETIC_SOURCE, Source, SourceSpan


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
        target_mod, target_name = cur_rel.kind_ref.module or cur_mod, cur_rel.kind_ref.name
        if target_mod == BUILTIN_MODULE:
            return ChainStatus("foundational", key=target_name)
        cur_level = suite.modules[cur_mod].level
        target_level = suite.modules[target_mod].level
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
        cur_mod, cur_rel = target_mod, next(r for r in suite.modules[target_mod].relations if r.name == target_name)


def oracle_enrichment_root(suite: ResolvedSuite, module_name: str, term_name: str) -> str | None:
    """The root name, or None where a term lacking `enriches` breaks the chain."""
    chain: list[tuple[str, str]] = []
    mod, name = module_name, term_name
    while mod != BUILTIN_MODULE:
        chain.append((mod, name))
        term = next(t for t in suite.modules[mod].terms if t.name == name)
        if term.enriches is None:
            return None
        mod, name = term.enriches.module or mod, term.enriches.name
        if (mod, name) in chain:
            return f"enrichment cycle through {module_name}.{term_name}"
    return name


def oracle_components(suite: ResolvedSuite) -> dict[str, frozenset[str]]:
    """Each module's same-level import component: a breadth-first search
    from every module over the import edges between modules of one level,
    read from the module list and taken as undirected."""
    modules = list(suite.modules.values())

    def linked(a: OntologyModule, b: OntologyModule) -> bool:
        return a.level is b.level and (
            b.name in [i.name for i in a.imports] or a.name in [i.name for i in b.imports]
        )

    out: dict[str, frozenset[str]] = {}
    for start in modules:
        queue = [start]
        for cur in queue:  # the queue grows while it is read
            queue += [m for m in modules if linked(cur, m) and m.name not in [q.name for q in queue]]
        out[start.name] = frozenset(m.name for m in queue)
    return out


def oracle_import_cycles(modules: list[OntologyModule]) -> list[tuple[str, SourceSpan]]:
    """Each E103 as its message and span: the modules that reach each other
    along imports, found by a breadth-first search from every module. Only
    the modules resolution registers count: the first of each name in
    source order, and none named like ThingFO."""
    registered: dict[str, OntologyModule] = {}
    for m in sorted(modules, key=lambda m: m.source.span(m.loc)):
        if m.name != BUILTIN_MODULE and m.name not in registered:
            registered[m.name] = m

    def reach(start: str) -> list[str]:
        queue = [start]
        for cur in queue:  # the queue grows while it is read
            for imp in registered[cur].imports:
                if imp.name in registered and imp.name not in queue:
                    queue.append(imp.name)
        return queue

    reaches = {name: reach(name) for name in registered}
    groups = {tuple(sorted(b for b in reaches[a] if a in reaches[b])) for a in registered}
    def span(name: str) -> SourceSpan:
        return registered[name].source.span(registered[name].loc)

    return [
        ("import cycle: " + " -> ".join(group + group[:1]), span(group[0]))
        for group in sorted(groups)
        if len(group) > 1
    ]


def _later(names: list[str] | tuple[str, ...]) -> list[int]:
    """The index of each name that equals some name before it."""
    return [j for j, name in enumerate(names) if name in names[:j]]


def oracle_duplicates_and_enrichment_cycles(
    modules: list[OntologyModule], instance_files: list[InstanceFile]
) -> list[tuple[str, str, SourceSpan]]:
    """Each E102 and E105 as its code, message and span, re-derived by brute
    force: each name is compared with every earlier one of its namespace,
    and every enrichment chain is followed from scratch.

    Modules count in source order, by span, after ThingFO's reserved name:
    a module named ThingFO is reserved, and a later module of a name taken
    before is a duplicate. Only the first module of each other name is
    looked into, with the instances blocks of it or of ThingFO. The other
    namespaces are a module's declarations, a term's attribute keys, an
    instances block's individuals and worlds together, a world's things,
    and a thing's properties and powers together, for the first thing of
    each name only. A name declared twice in a module binds to its first
    declaration, the one its E102 leaves alone. An enrichment cycle is
    reported once: by the first term, modules taken by name and then
    declaration order, whose chain reaches it, from the member where that
    chain enters it and at that member."""
    out: list[tuple[str, str, SourceSpan]] = []
    ordered = sorted(modules, key=lambda m: m.source.span(m.loc))
    registered: dict[str, OntologyModule] = {}
    for j, m in enumerate(ordered):
        if m.name == BUILTIN_MODULE:
            message = f"module name {BUILTIN_MODULE} is reserved for the built-in foundational ontology"
        elif m.name in [earlier.name for earlier in ordered[:j]]:
            message = f"duplicate module {m.name}"
        else:
            registered[m.name] = m
            continue
        out.append(("E102", message, m.source.span(m.loc)))
    for m in registered.values():
        for j in _later([decl.name for decl in m.body]):
            out.append(("E102", f"duplicate declaration {m.body[j].name} in module {m.name}",
                        m.source.span(m.body[j].loc)))
        for t in m.terms:
            for j in _later([attr.key for attr in t.attributes]):
                out.append(("E102", f"duplicate attribute {t.attributes[j].key} on term {m.name}.{t.name}",
                            m.source.span(t.attributes[j].loc)))
    for f in instance_files:
        if f.of_module != BUILTIN_MODULE and f.of_module not in registered:
            continue
        for j in _later([decl.name for decl in f.body]):
            decl = f.body[j]
            kind = "individual" if isinstance(decl, Individual) else "world"
            out.append(("E102", f"duplicate {kind} {decl.name} in instances of {f.of_module}",
                        f.source.span(decl.loc)))
        for w in f.worlds:
            for j, thing in enumerate(w.things):
                if thing.name in [earlier.name for earlier in w.things[:j]]:
                    out.append(("E102", f"duplicate thing {thing.name} in world {w.name}", f.source.span(thing.loc)))
                    continue
                parts = thing.properties + thing.powers
                for k in _later(parts):
                    # Part k's place is the (k + 1)-th 64 bits of the thing's
                    # `loc`, above its own; `span` reads the low 64 bits.
                    out.append(("E102", f"duplicate part {parts[k]} on thing {thing.name}",
                                f.source.span(thing.loc >> 64 * (k + 1))))

    terms: dict[tuple[str, str], TermDef] = {}
    for m in registered.values():
        for t in m.terms:
            terms.setdefault((m.name, t.name), t)

    def chain(key: tuple[str, str]) -> tuple[list[tuple[str, str]], tuple[str, str] | None]:
        """The terms from `key` on, and the first one met twice, if any."""
        path = [key]
        while (ref := terms[path[-1]].enriches) is not None:
            target = (ref.module or path[-1][0], ref.name)
            if target not in terms:
                break  # a ThingFO term, or an unbound reference
            if target in path:
                return path, target
            path.append(target)
        return path, None

    cycles: list[set[tuple[str, str]]] = []
    for name in sorted(registered):
        for t in registered[name].terms:
            path, entry = chain((name, t.name))
            if entry is None:
                continue
            cycle = path[path.index(entry):]
            if set(cycle) in cycles:
                continue
            cycles.append(set(cycle))
            text = " -> ".join(f"{mod}.{term}" for mod, term in cycle + [entry])
            out.append(("E105", f"enrichment cycle: {text}", registered[entry[0]].source.span(terms[entry].loc)))
    return out


def _facts_of(world: World, predicate: str) -> list[Fact]:
    return [f for f in world.facts if f.predicate == predicate]


def oracle_check_axioms(world: World, source: Source = SYNTHETIC_SOURCE) -> list[Diagnostic]:
    """Brute-force axiom evaluation by enumerating every quantifier
    instantiation (thing x property x power) with partOf as ownership.

    Semantically equal violation set to `check_axioms`; kept deliberately
    naive as the independent oracle."""
    things = [t.name for t in world.things]
    props = [(t.name, p) for t in world.things for p in t.properties]
    pows = [(t.name, p) for t in world.things for p in t.powers]

    def ref_is(ref, owner: str, part: str) -> bool:
        return ref.module == owner and ref.name == part

    out: list[Diagnostic] = []
    # A1: Thing(t) & Property(prop) & partOf(prop,t) & Power(pow) & enables(prop,pow) -> partOf(pow,t)
    for t in things:
        for p_owner, p_name in props:
            if p_owner != t:  # partOf(prop, t)
                continue
            for w_owner, w_name in pows:
                for fact in _facts_of(world, "enables"):
                    if ref_is(fact.left, p_owner, p_name) and ref_is(fact.right, w_owner, w_name):
                        if w_owner != t:  # consequent partOf(pow, t) falsified
                            out.append(_oracle_finding(
                                "E311",
                                f"property {t}.{p_name} enables power {w_owner}.{w_name}, but they belong to "
                                f"different things ({t} vs {w_owner})",
                                source.span(fact.loc),
                                f"enables({t}.{p_name}, {w_owner}.{w_name}); owner({t}.{p_name})={t}, "
                                f"owner({w_owner}.{w_name})={w_owner}"))
    # A2: Thing(t) & Power(pow) & partOf(pow,t) & Property(prop) & actsUpon(pow,prop) -> partOf(prop,t)
    for t in things:
        for w_owner, w_name in pows:
            if w_owner != t:
                continue
            for p_owner, p_name in props:
                for fact in _facts_of(world, "actsUpon"):
                    if ref_is(fact.left, w_owner, w_name) and ref_is(fact.right, p_owner, p_name):
                        if p_owner != t:
                            out.append(_oracle_finding(
                                "E312",
                                f"power {t}.{w_name} acts upon property {p_owner}.{p_name}, but they belong to "
                                f"different things ({t} vs {p_owner})",
                                source.span(fact.loc),
                                f"actsUpon({t}.{w_name}, {p_owner}.{p_name}); owner({t}.{w_name})={t}, "
                                f"owner({p_owner}.{p_name})={p_owner}"))
    # A3: Thing(t) & Power(pow) & partOf(pow,t) -> not interactsWithOther(pow, t)
    for t in things:
        for w_owner, w_name in pows:
            if w_owner != t:
                continue
            for fact in _facts_of(world, "interacts"):
                if ref_is(fact.left, w_owner, w_name) and fact.right.module is None and fact.right.name == t:
                    out.append(_oracle_finding(
                        "E313", f"power {t}.{w_name} interacts with its own thing {t}", source.span(fact.loc),
                        f"interacts({t}.{w_name}, {t}); owner({t}.{w_name})={t}"))
    return out


def _foundational_root(term_id: str) -> str:
    """The top of a ThingFO term's parent chain, walked link by link."""
    while (parent := TERM_SPECS[term_id].parent) is not None:
        term_id = parent
    return term_id


#: The code for a fact whose term target has the wrong root, by predicate.
_WRONG_TARGET = {"belongsTo": "E232", "defines": "E233"}


def _oracle_finding(code: str, message: str, span: SourceSpan, witness: str) -> Diagnostic:
    doc = CODE_CATALOG[code]
    return Diagnostic(code, message, span, doc.rule, doc.anchor, witness)


def oracle_world_rules(suite: ResolvedSuite) -> list[Diagnostic]:
    """E232, E233, E234 and W301 of every world, brute-forced: each fact is
    judged on its own against its predicate's relationship, with the target
    term's root walked from scratch, and each part of each thing is looked
    for among all the facts of each predicate that must have one. In no
    particular order."""
    out: list[Diagnostic] = []
    for f in suite.instance_files:
        for world in f.worlds:
            for fact in world.facts:
                spec = WORLD_PREDICATES[fact.predicate]
                span = f.source.span(fact.loc)
                witness = f"{fact.predicate}({fact.left}, {fact.right})"
                if fact.predicate in _WRONG_TARGET:
                    mod, name = fact.right.module or f.of_module, fact.right.name
                    anchor = oracle_enrichment_root(suite, mod, name)
                    if anchor is None:
                        continue  # a broken chain is Rule #1's E213
                    root = _foundational_root(anchor)
                    if root != _foundational_root(spec.range):
                        out.append(_oracle_finding(
                            _WRONG_TARGET[fact.predicate],
                            f"{fact.predicate} target {mod}.{name} is rooted at {root}, "
                            f"not {TERM_SPECS[spec.range].display}", span, witness))
                if fact.predicate == "relatesWith" and fact.left == fact.right:
                    out.append(_oracle_finding(
                        "E234", f"thing {fact.left.name} relates with itself in world {world.name}", span, witness))
            for predicate, spec in WORLD_PREDICATES.items():
                if spec.multiplicity is None or spec.multiplicity[0] == 0 or not _facts_of(world, predicate):
                    continue
                sort = spec.domain.lower()
                for thing in world.things:
                    places = thing.part_locs()
                    for k, part in enumerate(thing.properties + thing.powers):
                        if spec.domain != ("Property" if k < len(thing.properties) else "Power"):
                            continue
                        edges = [fact for fact in _facts_of(world, predicate)
                                 if (fact.left.module, fact.left.name) == (thing.name, part)]
                        if not edges:
                            out.append(_oracle_finding(
                                "W301",
                                f"{sort} {thing.name}.{part} {spec.display} no {spec.range.lower()} "
                                f"in world {world.name}, which declares {predicate} facts",
                                f.source.span(places[k]), f"{sort} {thing.name}.{part}; 0 {predicate} edges"))
    return out


def oracle_rule1(suite: ResolvedSuite) -> list[tuple[str, SourceSpan]]:
    """The code and span of each E211 and E213, straight from Rule #1's
    text: a term must enrich a term of the level immediately above its own
    module's, and a term with no enrichment target corresponds to nothing.
    The tiers are `Level`'s members sorted by value, most abstract first;
    nothing is above the first. A target's level is read from the module
    list. In no particular order."""
    tiers = [level.name for level in sorted(Level, key=lambda level: level.value)]
    declared = {m.name: m.level.name for m in suite.modules.values()}
    declared[BUILTIN_MODULE] = tiers[0]
    out: list[tuple[str, SourceSpan]] = []
    for module in suite.modules.values():
        at = tiers.index(module.level.name)
        higher = tiers[at - 1] if at > 0 else None
        for term in module.terms:
            if term.enriches is None:
                out.append(("E213", module.source.span(term.loc)))
            elif declared[term.enriches.module or module.name] != higher:
                out.append(("E211", module.source.span(term.loc)))
    return out


def oracle_property_conformance(suite: ResolvedSuite) -> list[tuple[str, SourceSpan]]:
    """The code and span of each W201, W202 and W203: a term's root is the
    top of the ThingFO parent chain above its enrichment root, both walked
    link by link; its allowed keys are those of the catalog's properties
    whose owner is that root (W201); a Thing-rooted term needs a
    `description` attribute (W202); only an Assertion-rooted term may
    declare a scope (W203). A term with a broken chain is Rule #1's. In no
    particular order."""
    out: list[tuple[str, SourceSpan]] = []
    for module in suite.modules.values():
        for term in module.terms:
            anchor = oracle_enrichment_root(suite, module.name, term.name)
            if anchor is None:
                continue
            root = _foundational_root(anchor)
            allowed = [p.key for p in PROPERTIES if p.owner == root]
            keys = [attr.key for attr in term.attributes]
            out += [("W201", module.source.span(attr.loc)) for attr in term.attributes if attr.key not in allowed]
            if root == "Thing" and "description" not in keys:
                out.append(("W202", module.source.span(term.loc)))
            if term.scope is not None and root != "Assertion":
                out.append(("W203", module.source.span(term.loc)))
    return out


def _is_a(anchor: str, scope: str | None, sort: str) -> bool:
    """Whether a term whose enrichment root is `anchor` and whose scope is
    `scope` is a `sort`: `sort` lies on `anchor`'s ThingFO parent chain, or
    `sort` is the Assertion subtype that the scope of an Assertion-rooted
    term stands for."""
    chain = [anchor]
    while (parent := TERM_SPECS[chain[-1]].parent) is not None:
        chain.append(parent)
    if sort in chain:
        return True
    return chain[-1] == "Assertion" and scope is not None and SCOPE_FACETS[scope] == sort


def oracle_relationship_conformance(suite: ResolvedSuite) -> list[tuple[str, SourceSpan]]:
    """The code and span of each E231: a relation whose kind chain reaches a
    ThingFO relationship, with the import components found breadth-first,
    must connect a term of some spec's domain to a term of the same spec's
    range, among the specs of that relationship's key. An endpoint is
    judged by its enrichment root and, for a user term, its scope; one with
    a broken chain is Rule #1's. In no particular order."""
    components = oracle_components(suite)
    out: list[tuple[str, SourceSpan]] = []
    for module in suite.modules.values():
        for rel in module.relations:
            status = oracle_chain_status(suite, module.name, rel, components)
            if status.outcome != "foundational":
                continue
            ends = []
            for ref in (rel.from_ref, rel.to_ref):
                mod = ref.module or module.name
                terms = suite.modules[mod].terms if mod in suite.modules else ()  # ThingFO's have no scope
                scope = next((t.scope for t in terms if t.name == ref.name), None)
                ends.append((oracle_enrichment_root(suite, mod, ref.name), scope))
            if any(anchor is None for anchor, _ in ends):
                continue
            specs = [spec for spec in RELATIONSHIPS if spec.key == status.key]
            if not any(_is_a(*ends[0], spec.domain) and _is_a(*ends[1], spec.range) for spec in specs):
                out.append(("E231", module.source.span(rel.loc)))
    return out


PUNCTUATION = "{}(),:;."


@dataclass(slots=True)
class Token:
    """One token of the oracles; every token sits on one line, from `col`
    to `end_col`."""

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

    def span_at(l: int, c: int) -> SourceSpan:
        return SourceSpan(path, l, c, l, c)

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
            tokens.append(Token(kind, lexeme, "", path, start_line, start_col, col - 1))
            i = j
            continue
        if ch in PUNCTUATION:
            tokens.append(Token(TokenKind.PUNCT, ch, "", path, start_line, start_col, start_col))
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
                    if bad == "\n":
                        message = "invalid escape at end of line"
                    elif bad.isprintable():
                        message = f"invalid escape \\{bad} in string"
                    else:
                        message = f"invalid escape of U+{ord(bad):04X} in string"
                    diagnostics.append(Diagnostic("E001", message, span_at(line, col)))
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
            tokens.append(Token(TokenKind.STRING, f'"{value}"', value, path, start_line, start_col, col - 1))
            continue
        diagnostics.append(
            Diagnostic("E001", f"invalid character {ch!r}", span_at(start_line, start_col))
        )
        advance(ch)
        i += 1
    tokens.append(Token(TokenKind.EOI, "", "", path, line, col, col))
    return tokens, diagnostics


# ---------------------------------------------------------------------------
# The cursor parser.
# ---------------------------------------------------------------------------

class _CursorToken(Token):
    """A lexer token with the token tests the cursor parser calls."""

    __slots__ = ()

    @property
    def end_line(self) -> int:
        return self.line

    def to(self, other: SourceSpan | Token) -> SourceSpan:
        return SourceSpan(self.file, self.line, self.col, other.end_line, other.end_col)

    def is_kw(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.lexeme == word

    def is_punct(self, ch: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.lexeme == ch


def oracle_parse_file(
    tokens: list[tuple], starts: list[int], text: str, path: str
) -> tuple[tuple[OntologyModule | InstanceFile, ...], list[Diagnostic]]:
    """What `parser._Parser(tokens, starts, Source(path, text), {}, {}).parse_file()`
    must return, for the tokens and start offsets that
    `parser.tokenize(text, path)` returns, with each node's `loc` read as a
    span.

    Each token's line is one more than the line feeds before it and its
    column one more than the characters since the last of them, counted in
    the text from token to token. Its nodes hold that `SourceSpan` in their
    `loc`; a declaration that holds references holds the tuple of its own
    span and each reference's, in field order. `tree` (in `conftest.py`)
    spells out either kind of `loc` the same way."""
    cursor_tokens = []
    line, line_start, counted = 1, 0, 0
    for (kind, lexeme, value, *rest), start in zip(tokens, starts):
        newlines = text.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", counted, start) + 1
        counted = start
        col = start - line_start + 1
        length = rest[0] if kind is TokenKind.STRING else len(lexeme)
        cursor_tokens.append(_CursorToken(kind, lexeme, value, path, line, col, col + max(length - 1, 0)))
    return _Parser(cursor_tokens, path).parse_file()


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

    def parse_file(self) -> tuple[tuple[OntologyModule | InstanceFile, ...], list[Diagnostic]]:
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
        return tuple(decls), self.diagnostics

    def parse_level(self) -> Level:
        tok = self.peek()
        if tok.kind is TokenKind.KEYWORD and tok.lexeme in (level.name for level in MODULE_LEVELS):
            self.next()
            return Level[tok.lexeme]
        if tok.kind in (TokenKind.IDENT, TokenKind.KEYWORD):
            self.diagnostics.append(
                Diagnostic("E003", f"unknown level name {tok.lexeme!r} (expected FO, CO, TDO or LDO)", tok.span)
            )
            self.next()
            return Level.CO  # placeholder; the file is excluded anyway
        raise self.fail("expected a level name")

    def parse_qname(self) -> tuple[QualifiedRef, SourceSpan]:
        first = self.expect_ident("a name")
        if self.peek().is_punct("."):
            self.next()
            second = self.expect_ident("a name after '.'")
            return QualifiedRef(first.lexeme, second.lexeme), first.to(second)
        return QualifiedRef(None, first.lexeme), first.span

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
        target, target_span = self.parse_qname()
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
        end: SourceSpan | Token = target_span
        if self.peek().is_punct("{"):
            self.next()
            while not self.peek().is_punct("}"):
                key = self.expect_ident("attribute key")
                if self.peek().kind is not TokenKind.STRING:
                    raise self.fail("expected a string attribute value")
                value = self.next()
                attrs.append(AttrPair(key.lexeme, value.value, key.to(value)))
            end = self.expect_punct("}")
        return TermDef(name.lexeme, target, scope, tuple(attrs), (start.to(end), target_span))

    def parse_relation(self) -> RelationDecl:
        start = self.expect_kw("relation")
        name = self.expect_ident("relation name")
        self.expect_kw("from")
        from_ref, from_span = self.parse_qname()
        self.expect_kw("to")
        to_ref, to_span = self.parse_qname()
        self.expect_kw("kind")
        kind_ref, kind_span = self.parse_qname()
        return RelationDecl(name.lexeme, from_ref, to_ref, kind_ref,
                            (start.to(kind_span), from_span, to_span, kind_span))

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
        type_ref, type_span = self.parse_qname()
        return Individual(name.lexeme, type_ref, (start.to(type_span), type_span))

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
        type_span: SourceSpan | None = None
        if self.peek().is_punct(":"):
            self.next()
            instance_of, type_span = self.parse_qname()
        self.expect_punct("{")
        properties: list[str] = []
        powers: list[str] = []
        part_spans: list[SourceSpan] = []
        while self.peek().is_kw("property"):
            self.next()
            part = self.expect_ident("property name")
            self.expect_punct(";")
            properties.append(part.lexeme)
            part_spans.append(part.span)
        while self.peek().is_kw("power"):
            self.next()
            part = self.expect_ident("power name")
            self.expect_punct(";")
            powers.append(part.lexeme)
            part_spans.append(part.span)
        if self.peek().is_kw("property"):
            raise self.fail("property declarations must precede power declarations")
        end = self.expect_punct("}")
        # The thing's span, its type's (None for none) and each part's.
        loc = (start.to(end), type_span, *part_spans) if type_span or part_spans else start.to(end)
        return ThingNode(name.lexeme, instance_of, tuple(properties), tuple(powers), loc)

    def parse_ref(self) -> tuple[QualifiedRef, SourceSpan]:
        first = self.expect_ident("a reference")
        if self.peek().is_punct("."):
            self.next()
            second = self.expect_ident("a name after '.'")
            return QualifiedRef(first.lexeme, second.lexeme), first.to(second)
        return QualifiedRef(None, first.lexeme), first.span

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
        left, left_span = self.parse_ref()
        self.expect_punct(",")
        right, right_span = self.parse_ref()
        end = self.expect_punct(")")
        return Fact(pred.lexeme, left, right, (pred.to(end), left_span, right_span))


# ---------------------------------------------------------------------------
# Canonical rendering, which the round-trip tests use.
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
        lines.append(f"{indent}  property {part};")
    for part in t.powers:
        lines.append(f"{indent}  power {part};")
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


def _diagnostic_json(d: Diagnostic) -> dict[str, Any]:
    return {
        "code": d.code,
        "severity": d.severity,
        "rule": d.rule,
        "message": d.message,
        "file": d.span.file,
        "start_line": d.span.start_line,
        "start_col": d.span.start_col,
        "end_line": d.span.end_line,
        "end_col": d.span.end_col,
        "anchor": d.anchor,
        "witness": d.witness,
    }


def oracle_render_json(report: Report) -> str:
    """Canonical JSON: sorted keys, no insignificant whitespace, UTF-8."""
    summary = dict(report.summary)
    summary["errors"] = report.error_count
    summary["warnings"] = report.warning_count
    payload = {
        "report_version": REPORT_VERSION,
        "diagnostics": [_diagnostic_json(d) for d in report.diagnostics],
        "summary": summary,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
