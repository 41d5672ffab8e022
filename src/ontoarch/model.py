"""Data model and name resolution for user-authored ontology suites.

Declarations are slotted `Record`s with a plain `__init__`, built by the
parser with real source locations and by tests and generators with `loc`
0. A node's `loc` packs its character offsets (see `source.Source`); its
module or instance file holds the `Source` that turns it into a span, which
only a finding needs. A `QualifiedRef` has no `loc`: the parser shares one
per distinct reference, and `Source.ref_loc` finds where it stands in the
term, relation, individual, thing or fact that holds it from that holder's
own text, which only an E101 needs. A thing's parts are names, whose places
the thing's `loc` packs above its own (see `ThingNode`). Nodes compare and
hash by their fields, locations and sources aside, and nothing changes a
node after it is built, which is what lets one reference serve every place
that names it. They are
not frozen: a frozen `__init__` sets each field through `object.__setattr__`
and costs about three times a plain one. A module's `terms` and `relations` and
an instance file's `individuals` and `worlds` are split from `body` at
construction, so rebinding `body` afterwards does not update them.

`resolve` binds every reference or reports E1xx diagnostics. Its passes are
`ResolvedSuite` methods that fill the suite's own tables once: each
module's level, the declaration indexes, each term's enrichment root, each
module's same-level import component and each relation's kind-chain
outcome. On success it returns that suite, which never changes them
afterwards.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
from struct import unpack
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import metamodel
from .metamodel import BUILTIN_MODULE
from .reporting import Diagnostic
from .source import SYNTHETIC_SOURCE, Record, Source


class Level(Enum):
    """The five tiers; lower rank = more abstract. Modules never sit at IO:
    the instance level is populated by instance files only."""

    FO = 0
    CO = 1
    TDO = 2
    LDO = 3
    IO = 4

    # `_value_` is the stored value; `.value` or a dict lookup costs ten times as much.
    @property
    def rank(self) -> int:
        return self._value_


#: The levels a module can be declared at, most abstract first.
MODULE_LEVELS: tuple[Level, ...] = tuple(level for level in Level if level is not Level.IO)

#: A declaration's key, and a reference's: (module, name).
_Key = tuple[str, str]

#: ThingFO's terms and relationships, keyed as a reference to them binds.
_THINGFO_TERMS = dict.fromkeys((BUILTIN_MODULE, term_id) for term_id in metamodel.TERM_SPECS)
_THINGFO_RELATIONS = dict.fromkeys((BUILTIN_MODULE, key) for key in metamodel.RELATIONSHIP_VARIANTS)

#: What `_walk` writes for each key on the path it is walking.
_WALKING = object()


def shown(module: str | None, name: str) -> str:
    """A reference as it reads, `module.name` or a bare `name`: how a
    `QualifiedRef` shows, and how a finding's text names one."""
    return f"{module}.{name}" if module else name


class QualifiedRef(Record):
    """A `Module.Name` or bare `Name` reference; bare names resolve in the
    declaring module (or the instance file's module). A fact's `thing`,
    `thing.part` or `Module.Term` is one too, read by its predicate position:
    `module` is the qualifier, a term's module or a part's thing.

    A reference is a value with no place of its own: `parse_suite` builds one
    per distinct `(module, name)` and shares it, and the declaration that
    holds it can tell where it stands (see `source.Source.ref_loc`)."""

    __slots__ = ("module", "name")

    def __init__(self, module: str | None, name: str):
        self.module = module
        self.name = name

    def __str__(self) -> str:
        return shown(self.module, self.name)


class ImportRef(Record):
    __slots__ = ("name", "loc")

    def __init__(self, name: str, loc: int = 0):
        self.name = name
        self.loc = loc


class AttrPair(Record):
    __slots__ = ("key", "value", "loc")

    def __init__(self, key: str, value: str, loc: int = 0):
        self.key = key
        self.value = value
        self.loc = loc


class TermDef(Record):
    __slots__ = ("name", "enriches", "scope", "attributes", "loc")

    def __init__(self, name: str, enriches: QualifiedRef | None, scope: str | None = None,
                 attributes: tuple[AttrPair, ...] = (), loc: int = 0):
        self.name = name
        self.enriches = enriches
        self.scope = scope  # a key of `metamodel.SCOPE_FACETS`
        self.attributes = attributes
        self.loc = loc


class RelationDecl(Record):
    __slots__ = ("name", "from_ref", "to_ref", "kind_ref", "loc")

    def __init__(self, name: str, from_ref: QualifiedRef, to_ref: QualifiedRef, kind_ref: QualifiedRef,
                 loc: int = 0):
        self.name = name
        self.from_ref = from_ref
        self.to_ref = to_ref
        self.kind_ref = kind_ref
        self.loc = loc


class OntologyModule(Record):
    """A module; `source` is the file it was parsed from, which places the
    `loc` of every node in it."""

    _fields = ("name", "level", "imports", "body", "loc", "source")
    __slots__ = _fields + ("terms", "relations")

    def __init__(self, name: str, level: Level, imports: tuple[ImportRef, ...] = (),
                 body: tuple[TermDef | RelationDecl, ...] = (), loc: int = 0, source: Source = SYNTHETIC_SOURCE):
        self.name = name
        self.level = level
        self.imports = imports
        self.body = body
        self.loc = loc
        self.source = source
        self.terms: tuple[TermDef, ...] = tuple(d for d in body if isinstance(d, TermDef))
        self.relations: tuple[RelationDecl, ...] = tuple(d for d in body if isinstance(d, RelationDecl))


class ThingNode(Record):
    """A thing of a world, with the names of its properties and its powers.

    A part is its name alone, the string the parser's name table shares, so
    its place lies in the thing's `loc`: above the thing's own 64 bits, one
    64-bit place per part, properties first, then powers, in the order
    written, which `part_locs` reads. W301 and a duplicate part's E102 read
    them on their hot paths, so unlike a reference's place they are kept,
    not found again."""

    __slots__ = ("name", "instance_of", "properties", "powers", "loc")

    def __init__(self, name: str, instance_of: QualifiedRef | None = None, properties: tuple[str, ...] = (),
                 powers: tuple[str, ...] = (), loc: int = 0):
        self.name = name
        self.instance_of = instance_of
        self.properties = properties
        self.powers = powers
        self.loc = loc

    def parts(self, sort: str) -> tuple[tuple[str, ...], int]:
        """The names of the thing's parts of sort `Property` or `Power`, and
        the index of the first of them among all its parts."""
        return (self.properties, 0) if sort == "Property" else (self.powers, len(self.properties))

    def part_locs(self) -> tuple[int, ...]:
        """The `loc` of each part, properties then powers, read in one pass:
        shifting the whole `loc` for each would cost a thing with thousands
        of parts once per part."""
        count = len(self.properties) + len(self.powers)
        return unpack(f"<{count}Q", (self.loc >> 64).to_bytes(8 * count, "little"))


class Fact(Record):
    __slots__ = ("predicate", "left", "right", "loc")

    def __init__(self, predicate: str, left: QualifiedRef, right: QualifiedRef, loc: int = 0):
        self.predicate = predicate
        self.left = left
        self.right = right
        self.loc = loc


class World(Record):
    __slots__ = ("name", "things", "facts", "loc")

    def __init__(self, name: str, things: tuple[ThingNode, ...] = (), facts: tuple[Fact, ...] = (),
                 loc: int = 0):
        self.name = name
        self.things = things
        self.facts = facts
        self.loc = loc


class Individual(Record):
    __slots__ = ("name", "type_ref", "loc")

    def __init__(self, name: str, type_ref: QualifiedRef, loc: int = 0):
        self.name = name
        self.type_ref = type_ref
        self.loc = loc


class InstanceFile(Record):
    """An `instances of <Module>` block: the Instance Ontological Level
    content attached to one module. `source` places its nodes, as a
    module's does."""

    _fields = ("of_module", "body", "loc", "source")
    __slots__ = _fields + ("individuals", "worlds")

    def __init__(self, of_module: str, body: tuple[Individual | World, ...] = (), loc: int = 0,
                 source: Source = SYNTHETIC_SOURCE):
        self.of_module = of_module
        self.body = body
        self.loc = loc
        self.source = source
        self.individuals: tuple[Individual, ...] = tuple(d for d in body if isinstance(d, Individual))
        self.worlds: tuple[World, ...] = tuple(d for d in body if isinstance(d, World))


# ---------------------------------------------------------------------------
# Resolution.
# ---------------------------------------------------------------------------

class ChainStatus(Record):
    """Where a relation's `kind` chain ends, following lateral hops (same
    level, other module) inside import components; `escapes` when it takes
    one. A cycle is its members' names in walk order, shared by them all."""

    __slots__ = ("outcome", "key", "detail", "cycle", "index", "escapes")

    def __init__(self, outcome: str, key: str | None = None, detail: str = "", cycle: tuple[str, ...] = (),
                 index: int = 0, escapes: bool = False):
        self.outcome = outcome  # "foundational" | "dead_end" | "cycle" | "downward"
        self.key = key  # the foundational relationship reached
        self.detail = detail  # why a "downward" or "dead_end" chain ends
        self.cycle = cycle
        self.index = index  # where the chain enters `cycle`
        self.escapes = escapes

    @property
    def text(self) -> str:
        """The detail, with a cycle spelled out from where the chain enters it."""
        if self.outcome != "cycle":
            return self.detail
        return "kind chain cycles: " + " -> ".join(self.cycle[self.index:] + self.cycle[:self.index + 1])


class ResolvedSuite:
    """All user modules plus the built-in ThingFO module, with every
    reference known to bind.

    `resolve` builds one and runs its resolution passes, which fill its
    tables: each module's level, the declaration indexes, each term's
    enrichment outcome, the same-level import components and each relation's
    kind-chain outcome. One walker, `_walk`, follows both chains, the
    `enriches` links and the `kind` links, and one rule, `_repeats`, finds
    every duplicate (E102): each later occurrence of a name in its
    namespace, which binds nowhere, whatever its sort. Readers read those
    tables. `resolve` hands the suite out only when the passes found nothing
    wrong; nothing changes it afterwards."""

    def __init__(self, instance_files: Iterable[InstanceFile]):
        self.modules: dict[str, OntologyModule] = {}
        self.instance_files: tuple[InstanceFile, ...] = tuple(instance_files)
        #: Each module's level by name, with ThingFO at FO.
        self.levels: dict[str, Level] = {BUILTIN_MODULE: Level.FO}
        #: The user modules' declarations that bind, by (module, name).
        self.terms: dict[tuple[str, str], TermDef] = {}
        self.relations: dict[tuple[str, str], RelationDecl] = {}
        #: Each term's foundational root by (module, term), or None where a
        #: missing `enriches` breaks its chain; ThingFO's terms are their own
        #: roots.
        self.enrichment_roots: dict[tuple[str, str], str | None] = {key: key[1] for key in _THINGFO_TERMS}
        #: Each module's import-connected component of same-level modules.
        self.components: dict[str, frozenset[str]] = {}
        #: Each relation's kind-chain outcome, by (module, relation).
        self.kind_chains: dict[tuple[str, str], ChainStatus] = {}
        self._diagnostics: list[Diagnostic] = []  # what the passes find

    def enrichment_root(self, module_name: str, term_name: str) -> str | None:
        """Foundational term reached by following `enriches` links upward;
        None for a chain broken by a missing enrichment link (possible only
        on programmatically built terms)."""
        return self.enrichment_roots[(module_name, term_name)]

    def _error(self, code: str, message: str, source: Source, loc: int) -> None:
        self._diagnostics.append(Diagnostic(code, message, source.span(loc)))

    # -- resolution passes, which `resolve` runs ----------------------------

    def _register_modules(self, modules: list[OntologyModule]) -> None:
        # In source order, so which of two same-named modules is the
        # duplicate does not depend on the order the files came in. Offsets
        # order the modules of one file as their spans do, so spans, and the
        # line tables they need, are built only when two files share a path.
        by_path = {m.source.path: m.source for m in modules}
        if all(by_path[m.source.path] is m.source for m in modules):
            modules = sorted(modules, key=lambda m: (m.source.path, m.loc))
        else:
            modules = sorted(modules, key=lambda m: m.source.span(m.loc))
        # ThingFO's name comes first, so that a module taking it repeats it.
        later = set(_repeats([BUILTIN_MODULE, *(m.name for m in modules)]))
        for i, m in enumerate(modules, 1):
            if i in later:
                self._error("E102", f"module name {m.name} is reserved for the built-in foundational ontology"
                            if m.name == BUILTIN_MODULE else f"duplicate module {m.name}", m.source, m.loc)
                continue
            name, body = m.name, m.body
            self.modules[name] = m
            self.levels[name] = m.level
            terms, relations = m.terms, m.relations
            if repeated := _repeats([decl.name for decl in body]):
                for j in repeated:
                    self._error("E102", f"duplicate declaration {body[j].name} in module {name}", m.source, body[j].loc)
                # Only a name's first declaration, the one E102 keeps, binds, whatever its sort.
                rejected = set(repeated)
                terms = [d for j, d in enumerate(body) if j not in rejected and isinstance(d, TermDef)]
                relations = [d for j, d in enumerate(body) if j not in rejected and isinstance(d, RelationDecl)]
            self.terms.update({(name, t.name): t for t in terms})
            self.relations.update({(name, r.name): r for r in relations})

    def _check_imports(self) -> None:
        # One walk over each module's imports reports E104/E101 and keeps the
        # edges between known modules both ways; then a Kosaraju-Sharir pass
        # finds the import cycles (E103) and a flood the same-level import
        # components. Nothing recurses, so long import chains cannot overflow.
        imports: dict[str, list[str]] = {name: [] for name in self.modules}
        importers: dict[str, list[str]] = {name: [] for name in self.modules}
        for m in self.modules.values():
            for imp in m.imports:
                if imp.name == m.name:
                    self._error("E104", f"module {m.name} imports itself", m.source, imp.loc)
                elif imp.name in self.modules:
                    imports[m.name].append(imp.name)
                    importers[imp.name].append(m.name)
                elif imp.name != BUILTIN_MODULE:
                    # ThingFO is implicitly visible; importing it resolves but
                    # is a cross-level import, flagged by the validator.
                    self._error("E101", f"import of unknown module {imp.name}", m.source, imp.loc)
        # Depth-first over imports, listing each module as its walk finishes.
        finished: list[str] = []
        seen: set[str] = set()
        for root in self.modules:
            if root in seen:
                continue
            seen.add(root)
            stack = [(root, iter(imports[root]))]
            while stack:
                v, successors = stack[-1]
                for w in successors:
                    if w not in seen:
                        seen.add(w)
                        stack.append((w, iter(imports[w])))
                        break
                else:
                    stack.pop()
                    finished.append(v)
        # Latest finisher first, the modules not yet placed that reach a
        # module back along imports form its strongly connected component.
        seen.clear()
        cycles = []
        for v in reversed(finished):
            if v not in seen:
                scc = _flood(v, seen, importers.__getitem__)
                if len(scc) > 1:
                    cycles.append(sorted(scc))
        for cycle in sorted(cycles):
            first = self.modules[cycle[0]]
            self._error("E103", "import cycle: " + " -> ".join(cycle + [cycle[0]]), first.source, first.loc)
        # Same-level import components: connected over import edges taken
        # as undirected, keeping only edges between modules of one level.
        def same_level(v: str) -> Iterator[str]:
            level = self.levels[v]
            return (w for w in imports[v] + importers[v] if self.levels[w] is level)

        seen.clear()
        for name in self.modules:
            if name not in seen:
                group = frozenset(_flood(name, seen, same_level))
                self.components.update(dict.fromkeys(group, group))

    def _check_module_bodies(self, terms: dict[_Key, Any]) -> None:
        # A reference binds when the index of its sort, user declarations
        # and ThingFO's together, holds its key: one membership test.
        # `terms` is that index for terms, which `resolve` builds once for
        # this pass and `_check_instances`. A relation's three references
        # take three tests; its sides, and `_unbound`, are looked at only to
        # word an E101.
        relations = {**_THINGFO_RELATIONS, **self.relations}
        for m in self.modules.values():
            name = m.name
            for t in m.terms:
                ref = t.enriches
                if ref is not None and (key := (ref.module or name, ref.name)) not in terms:
                    problem = self._unbound(*key)
                    self._error("E101", f"term {name}.{t.name}: {problem}", m.source, m.source.ref_loc(t.loc, 0))
                if len(t.attributes) > 1:  # the common one attribute or none builds no list
                    keys = [attr.key for attr in t.attributes]
                    for i in _repeats(keys):
                        self._error("E102", f"duplicate attribute {keys[i]} on term {name}.{t.name}", m.source,
                                    t.attributes[i].loc)
            for r in m.relations:
                source, target, kind = r.from_ref, r.to_ref, r.kind_ref
                if ((source.module or name, source.name) in terms and (target.module or name, target.name) in terms
                        and (kind.module or name, kind.name) in relations):
                    continue
                sides = ((source, terms, "term"), (target, terms, "term"), (kind, relations, "relation"))
                for index, (ref, known, sort) in enumerate(sides):
                    if (key := (ref.module or name, ref.name)) not in known:
                        problem = self._unbound(*key, sort)
                        self._error("E101", f"relation {name}.{r.name}: {problem}", m.source,
                                    m.source.ref_loc(r.loc, index))

    def _unbound(self, mod: str, name: str, sort: str = "term") -> str:
        """Why `mod.name`, which binds to no `sort`, "term" or "relation",
        names none."""
        if mod == BUILTIN_MODULE:
            return (f"no foundational term named {name} in {BUILTIN_MODULE}" if sort == "term"
                    else f"no foundational relationship named {name}")
        return f"unknown module {mod}" if mod not in self.modules else f"no {sort} named {name} in module {mod}"

    def _check_instances(self, terms: dict[_Key, Any]) -> None:
        for f in self.instance_files:
            if not (f.of_module == BUILTIN_MODULE or f.of_module in self.modules):
                self._error("E101", f"instances block names unknown module {f.of_module}", f.source, f.loc)
                continue
            for i in _repeats([decl.name for decl in f.body]):
                decl = f.body[i]
                kind = "individual" if isinstance(decl, Individual) else "world"
                self._error("E102", f"duplicate {kind} {decl.name} in instances of {f.of_module}", f.source, decl.loc)
            for ind in f.individuals:
                ref = ind.type_ref
                if (key := (ref.module or f.of_module, ref.name)) not in terms:
                    self._error("E101", f"individual {ind.name}: {self._unbound(*key)}", f.source,
                                f.source.ref_loc(ind.loc, 0))
            for w in f.worlds:
                self._check_world(f, w, terms)

    def _check_world(self, f: InstanceFile, w: World, terms: dict[_Key, Any]) -> None:
        # Each sort's table maps a reference's qualifier to the names it may
        # qualify: a part is `thing.part`, a thing a bare name (qualifier
        # None). No predicate's left side is a term; a right-side term, or
        # a thing's type, binds in `terms`, the index of every term.
        properties: dict[str, set[str]] = {}
        powers: dict[str, set[str]] = {}
        of_module, predicates = f.of_module, metamodel.WORLD_PREDICATES
        later = set(_repeats([t.name for t in w.things]))
        for i, t in enumerate(w.things):
            if i in later:
                self._error("E102", f"duplicate thing {t.name} in world {w.name}", f.source, t.loc)
                continue
            ref = t.instance_of
            if ref is not None and (key := (ref.module or of_module, ref.name)) not in terms:
                self._error("E101", f"thing {t.name}: {self._unbound(*key)}", f.source, f.source.ref_loc(t.loc, 0))
            props = properties[t.name] = set(t.properties)
            pows = powers[t.name] = set(t.powers)
            # The sets binding needs show whether any part repeats.
            if len(props) + len(pows) < len(t.properties) + len(t.powers) or not props.isdisjoint(pows):
                parts = t.properties + t.powers
                locs = t.part_locs()
                for i in _repeats(parts):
                    self._error("E102", f"duplicate part {parts[i]} on thing {t.name}", f.source, locs[i])
        tables = {"Property": properties, "Power": powers, "Thing": {None: properties}}
        for fact in w.facts:
            spec = predicates.get(fact.predicate)
            if spec is None:
                self._error("E101", f"unknown predicate {fact.predicate} in world {w.name}", f.source, fact.loc)
                continue
            left, right = fact.left, fact.right
            if left.name not in tables[spec.domain].get(left.module, ()):
                self._unbound_side(f, w, fact, 0, spec.domain, properties)
            table = tables.get(spec.range)
            if table is None:
                if (right.module or of_module, right.name) not in terms:
                    self._unbound_side(f, w, fact, 1, spec.range, properties)
            elif right.name not in table.get(right.module, ()):
                self._unbound_side(f, w, fact, 1, spec.range, properties)

    def _unbound_side(self, f: InstanceFile, w: World, fact: Fact, index: int, sort: str,
                      things: dict[str, set[str]]) -> None:
        """Report why side `index` of a fact names no `sort` in world `w`;
        `things` holds the world's things by name."""
        ref = fact.right if index else fact.left
        if sort in ("Property", "Power"):
            if ref.module is None:
                problem = f"expected a {sort.lower()} reference thing.part, got {ref}"
            elif ref.module not in things:
                problem = f"unknown thing {ref.module} in world {w.name}"
            else:
                problem = f"thing {ref.module} has no {sort.lower()} named {ref.name}"
        elif sort == "Thing":
            if ref.module is not None:
                problem = f"expected a thing, got part reference {ref}"
            else:
                problem = f"unknown thing {ref.name} in world {w.name}"
        elif ref.module in things and ref.module != BUILTIN_MODULE and ref.module not in self.modules:
            # `t.q` reads as Module.Term; when no module t exists but this
            # world has a thing t, it is a part written where a term belongs.
            problem = f"expected a term, got part reference {ref}"
        else:
            problem = self._unbound(ref.module or f.of_module, ref.name)
        self._error("E101", f"{fact.predicate} fact in world {w.name}: {problem}", f.source,
                    f.source.ref_loc(fact.loc, index))

    def _check_enrichment_cycles(self, terms: dict[_Key, Any]) -> None:
        # Broken links already produced E101 above; `terms` is the index of
        # every term, ThingFO's too. Terms are walked by module name, each
        # module's in declaration order, so which walk enters a cycle first,
        # and reports it from there, does not depend on file order.

        def link(key: _Key) -> tuple[_Key | None, Any]:
            ref = terms[key].enriches
            if ref is not None and (target := (ref.module or key[0], ref.name)) in terms:
                return target, False
            return None, None  # a missing link, or an unbound one (E101), breaks the chain

        def cycle(members: list[_Key], _lateral: bool) -> list[None]:
            pretty = " -> ".join(f"{cm}.{cn}" for cm, cn in members + members[:1])
            entry = members[0]  # where this walk entered the cycle
            self._error("E105", f"enrichment cycle: {pretty}", self.modules[entry[0]].source, terms[entry].loc)
            return [None] * len(members)

        _walk(sorted(self.terms, key=itemgetter(0)), self.enrichment_roots, link, cycle)

    def _record_kind_chains(self) -> None:
        # Lateral hops (same level, other module) are followed inside the
        # hop source's import component, and a chain that takes one escapes
        # its module.
        chains, levels, relations, components = self.kind_chains, self.levels, self.relations, self.components

        def link(key: _Key) -> tuple[_Key | None, Any]:
            mod, name = key
            kind = relations[key].kind_ref
            target = (kind.module or mod, kind.name)
            if target[0] == BUILTIN_MODULE:
                return None, ChainStatus("foundational", key=kind.name)
            level, target_level = levels[mod], levels[target[0]]
            if target_level.rank > level.rank:
                return None, ChainStatus("downward", detail=f"kind of {mod}.{name} points to the more concrete "
                                         f"level {target_level.name} ({target[0]}.{target[1]})")
            lateral = target_level is level and target[0] != mod
            if lateral and target[0] not in components[mod]:
                return None, ChainStatus("dead_end", escapes=True, detail=f"kind of {mod}.{name} leaves the "
                                         f"import-connected component ({target[0]} is not related to {mod})")
            return target, lateral

        def cycle(members: list[_Key], escapes: bool) -> list[ChainStatus]:
            names = tuple(f"{m}.{n}" for m, n in members)
            return [ChainStatus("cycle", cycle=names, index=i, escapes=escapes) for i in range(len(members))]

        _walk(relations, chains, link, cycle,
              lambda s: s if s.escapes else ChainStatus(s.outcome, s.key, s.detail, s.cycle, s.index, True))


def _walk(starts: Iterable[_Key], judged: dict[_Key, Any], link: Callable[[_Key], tuple[_Key | None, Any]],
          cycle: Callable[[list[_Key], bool], list[Any]], escape: Callable[[Any], Any] | None = None) -> None:
    """Judge each key of `starts`, and each key its chain passes, into
    `judged`, one hop at a time and without recursion.

    `link(key)` returns the next key and whether the hop is lateral, or None
    and `key`'s verdict when its hop ends the chain. A walk stops at a key
    judged by then, so each key is walked once, and writes that verdict back
    along its path, through `escape` across each lateral hop; until then each
    key on the path is `_WALKING` in `judged`, and a hop to one closes a
    cycle: `cycle` gets its members, from where this walk entered it, and
    whether any of their hops is lateral, and returns their verdicts."""
    for key in starts:
        path: list[tuple[_Key, bool]] = []  # each key walked, and whether its hop is lateral
        while key not in judged:
            target, hop = link(key)
            if target is None:
                judged[key] = hop
                break
            verdict = judged.get(target, _WALKING)
            if verdict is not _WALKING:
                judged[key] = escape(verdict) if hop else verdict
                break
            judged[key] = _WALKING
            path.append((key, hop))
            if target in judged:  # on this path: a cycle, entered at `target`
                entry = [walked for walked, _ in path].index(target)
                members = [walked for walked, _ in path[entry:]]
                judged.update(zip(members, cycle(members, any(lateral for _, lateral in path[entry:]))))
                del path[entry:]
            key = target
        if path:  # `key` is judged now, and the path leads into it
            verdict = judged[key]
            for walked, lateral in reversed(path):
                judged[walked] = verdict = escape(verdict) if lateral else verdict


def _repeats(names: Sequence[str]) -> list[int]:
    """The index of each name in `names` that an earlier one repeats, in
    order. Fewer than two names build no set; more build one, which counts
    the distinct names, and a table of first places only when some repeat."""
    if len(names) < 2 or len(set(names)) == len(names):
        return []
    first = {name: i for i, name in reversed(list(enumerate(names)))}
    return [i for i, name in enumerate(names) if first[name] != i]


def _flood(start: str, seen: set[str], step: Callable[[str], Iterable[str]]) -> list[str]:
    """`start` and every module not yet `seen` that `step` leads to from it,
    in the order reached; marks them all seen."""
    group = [start]
    seen.add(start)
    for v in group:  # the group grows while it is read
        for w in step(v):
            if w not in seen:
                seen.add(w)
                group.append(w)
    return group


def resolve(
    modules: Iterable[OntologyModule],
    instance_files: Iterable[InstanceFile] = (),
) -> tuple[ResolvedSuite | None, list[Diagnostic]]:
    """Bind all names in the suite.

    Returns `(suite, [])` on success, `(None, diagnostics)` otherwise;
    resolution never partially succeeds silently.
    """
    suite = ResolvedSuite(instance_files)
    suite._register_modules(list(modules))
    suite._check_imports()
    terms = {**_THINGFO_TERMS, **suite.terms}  # the index every term reference binds in
    suite._check_module_bodies(terms)
    suite._check_instances(terms)
    suite._check_enrichment_cycles(terms)
    if suite._diagnostics:
        return None, suite._diagnostics
    suite._record_kind_chains()
    return suite, []
