"""Data model and name resolution for user-authored ontology suites.

Declarations are slotted `Record`s with a plain `__init__`, built by the
parser with real source spans and by tests and generators with
`SYNTHETIC_SPAN`. They compare and hash by their fields, spans aside,
and nothing changes a node after it is built. They are not frozen: a frozen
`__init__` sets each field through `object.__setattr__` and costs about three
times a plain one. A module's `terms` and `relations` and an instance
file's `individuals` and `worlds` are split from `body` at construction, so
rebinding `body` afterwards does not update them.

`resolve` binds every reference or reports E1xx diagnostics; on success it
also hands the suite the facts its passes computed once: the declaration
index, each term's enrichment root, each module's same-level import
component and each relation's kind-chain outcome. A `ResolvedSuite` never
changes them afterwards.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Iterator

from . import metamodel
from .metamodel import BUILTIN_MODULE
from .reporting import Diagnostic
from .source import SYNTHETIC_SPAN, Record, SourceSpan


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

    def is_exactly_above(self, other: "Level") -> bool:
        """True iff self is exactly one tier more abstract than `other`."""
        return self._value_ == other._value_ - 1


class QualifiedRef(Record):
    """A `Module.Name` or bare `Name` reference; bare names resolve in the
    declaring module (or the instance file's module). A fact's `thing`,
    `thing.part` or `Module.Term` is one too, read by its predicate position:
    `module` is the qualifier, a term's module or a part's thing."""

    __slots__ = ("module", "name", "span")

    def __init__(self, module: str | None, name: str, span: SourceSpan = SYNTHETIC_SPAN):
        self.module = module
        self.name = name
        self.span = span

    def __str__(self) -> str:
        return f"{self.module}.{self.name}" if self.module else self.name


class ImportRef(Record):
    __slots__ = ("name", "span")

    def __init__(self, name: str, span: SourceSpan = SYNTHETIC_SPAN):
        self.name = name
        self.span = span


class AttrPair(Record):
    __slots__ = ("key", "value", "span")

    def __init__(self, key: str, value: str, span: SourceSpan = SYNTHETIC_SPAN):
        self.key = key
        self.value = value
        self.span = span


class TermDef(Record):
    __slots__ = ("name", "enriches", "scope", "attributes", "span")

    def __init__(self, name: str, enriches: QualifiedRef | None, scope: str | None = None,
                 attributes: tuple[AttrPair, ...] = (), span: SourceSpan = SYNTHETIC_SPAN):
        self.name = name
        self.enriches = enriches
        self.scope = scope  # "particulars" | "universals"
        self.attributes = attributes
        self.span = span


class RelationDecl(Record):
    __slots__ = ("name", "from_ref", "to_ref", "kind_ref", "span")

    def __init__(self, name: str, from_ref: QualifiedRef, to_ref: QualifiedRef, kind_ref: QualifiedRef,
                 span: SourceSpan = SYNTHETIC_SPAN):
        self.name = name
        self.from_ref = from_ref
        self.to_ref = to_ref
        self.kind_ref = kind_ref
        self.span = span


class OntologyModule(Record):
    _fields = ("name", "level", "imports", "body", "span")
    __slots__ = _fields + ("terms", "relations")

    def __init__(self, name: str, level: Level, imports: tuple[ImportRef, ...] = (),
                 body: tuple[TermDef | RelationDecl, ...] = (), span: SourceSpan = SYNTHETIC_SPAN):
        self.name = name
        self.level = level
        self.imports = imports
        self.body = body
        self.span = span
        self.terms: tuple[TermDef, ...] = tuple(d for d in body if isinstance(d, TermDef))
        self.relations: tuple[RelationDecl, ...] = tuple(d for d in body if isinstance(d, RelationDecl))


class PartDecl(Record):
    __slots__ = ("name", "span")

    def __init__(self, name: str, span: SourceSpan = SYNTHETIC_SPAN):
        self.name = name
        self.span = span


class ThingNode(Record):
    __slots__ = ("name", "instance_of", "properties", "powers", "span")

    def __init__(self, name: str, instance_of: QualifiedRef | None = None, properties: tuple[PartDecl, ...] = (),
                 powers: tuple[PartDecl, ...] = (), span: SourceSpan = SYNTHETIC_SPAN):
        self.name = name
        self.instance_of = instance_of
        self.properties = properties
        self.powers = powers
        self.span = span

    def parts(self, sort: str) -> tuple[PartDecl, ...]:
        """The thing's parts of sort `Property` or `Power`."""
        return self.properties if sort == "Property" else self.powers


class Fact(Record):
    __slots__ = ("predicate", "left", "right", "span")

    def __init__(self, predicate: str, left: QualifiedRef, right: QualifiedRef, span: SourceSpan = SYNTHETIC_SPAN):
        self.predicate = predicate
        self.left = left
        self.right = right
        self.span = span


class World(Record):
    __slots__ = ("name", "things", "facts", "span")

    def __init__(self, name: str, things: tuple[ThingNode, ...] = (), facts: tuple[Fact, ...] = (),
                 span: SourceSpan = SYNTHETIC_SPAN):
        self.name = name
        self.things = things
        self.facts = facts
        self.span = span


class Individual(Record):
    __slots__ = ("name", "type_ref", "span")

    def __init__(self, name: str, type_ref: QualifiedRef, span: SourceSpan = SYNTHETIC_SPAN):
        self.name = name
        self.type_ref = type_ref
        self.span = span


class InstanceFile(Record):
    """An `instances of <Module>` block: the Instance Ontological Level
    content attached to one module."""

    _fields = ("of_module", "body", "span")
    __slots__ = _fields + ("individuals", "worlds")

    def __init__(self, of_module: str, body: tuple[Individual | World, ...] = (), span: SourceSpan = SYNTHETIC_SPAN):
        self.of_module = of_module
        self.body = body
        self.span = span
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

    Resolution hands over the declaration index, each term's enrichment
    outcome, the same-level import components and each relation's
    kind-chain outcome; the suite only reads them."""

    def __init__(self, modules: dict[str, OntologyModule], instance_files: list[InstanceFile],
                 terms: dict[tuple[str, str], TermDef], relations: dict[tuple[str, str], RelationDecl],
                 roots: dict[tuple[str, str], str | None], components: dict[str, frozenset[str]],
                 kind_chains: dict[tuple[str, str], ChainStatus]):
        self.modules = modules
        self.instance_files: tuple[InstanceFile, ...] = tuple(instance_files)
        self._terms = terms
        self._relations = relations
        # Each term's foundational root, or None where a missing `enriches`
        # breaks its chain; ThingFO's terms are their own roots.
        self._enrichment_roots = roots
        #: Each module's import-connected component of same-level modules.
        self.components = components
        #: Each relation's kind-chain outcome, by (module, relation).
        self.kind_chains = kind_chains

    # -- structure queries --------------------------------------------------

    def level_of(self, module_name: str) -> Level:
        if module_name == BUILTIN_MODULE:
            return Level.FO
        return self.modules[module_name].level

    def get_term(self, module_name: str, term_name: str) -> TermDef | None:
        return self._terms.get((module_name, term_name))

    def all_terms(self) -> Iterator[tuple[str, TermDef]]:
        return ((module_name, t) for (module_name, _), t in self._terms.items())

    def all_relations(self) -> Iterator[tuple[str, RelationDecl]]:
        return ((module_name, r) for (module_name, _), r in self._relations.items())

    def all_worlds(self) -> Iterator[tuple[InstanceFile, World]]:
        for f in self.instance_files:
            for w in f.worlds:
                yield f, w

    # -- reference binding (total after a clean resolve) ---------------------

    def term_target(self, ref: QualifiedRef, context_module: str) -> tuple[str, str]:
        return (ref.module or context_module, ref.name)

    def enrichment_root(self, module_name: str, term_name: str) -> str | None:
        """Foundational term reached by following `enriches` links upward;
        None for a chain broken by a missing enrichment link (possible only
        on programmatically built terms)."""
        return self._enrichment_roots[(module_name, term_name)]


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


class _Resolver:
    def __init__(self, modules: list[OntologyModule], instance_files: list[InstanceFile]):
        self.input_modules = modules
        self.instance_files = instance_files
        self.diagnostics: list[Diagnostic] = []
        # What `ResolvedSuite` reads: the declaration index, enrichment
        # outcomes, same-level import components and kind-chain outcomes.
        self.modules: dict[str, OntologyModule] = {}
        self.terms: dict[tuple[str, str], TermDef] = {}
        self.relations: dict[tuple[str, str], RelationDecl] = {}
        self.roots: dict[tuple[str, str], str | None] = {
            (BUILTIN_MODULE, spec.id): spec.id for spec in metamodel.all_term_specs()
        }
        self.components: dict[str, frozenset[str]] = {}
        self.kind_chains: dict[tuple[str, str], ChainStatus] = {}

    def error(self, code: str, message: str, span: SourceSpan) -> None:
        self.diagnostics.append(Diagnostic(code=code, message=message, span=span))

    # -- passes ---------------------------------------------------------------

    def register_modules(self) -> None:
        # In source order, so which of two same-named modules is the
        # duplicate does not depend on the order the files came in.
        for m in sorted(self.input_modules, key=lambda m: m.span):
            if m.name == BUILTIN_MODULE:
                self.error("E102", f"module name {BUILTIN_MODULE} is reserved for the built-in foundational ontology", m.span)
            elif m.name in self.modules:
                self.error("E102", f"duplicate module {m.name}", m.span)
            else:
                self.modules[m.name] = m
                self.terms.update({(m.name, t.name): t for t in m.terms})
                self.relations.update({(m.name, r.name): r for r in m.relations})

    def check_imports(self) -> None:
        # One walk over each module's imports reports E104/E101 and keeps the
        # edges between known modules both ways; then a Kosaraju-Sharir pass
        # finds the import cycles (E103) and a flood the same-level import
        # components. Nothing recurses, so long import chains cannot overflow.
        imports: dict[str, list[str]] = {name: [] for name in self.modules}
        importers: dict[str, list[str]] = {name: [] for name in self.modules}
        for m in self.modules.values():
            for imp in m.imports:
                if imp.name == m.name:
                    self.error("E104", f"module {m.name} imports itself", imp.span)
                elif imp.name in self.modules:
                    imports[m.name].append(imp.name)
                    importers[imp.name].append(m.name)
                elif imp.name != BUILTIN_MODULE:
                    # ThingFO is implicitly visible; importing it resolves but
                    # is a cross-level import, flagged by the validator.
                    self.error("E101", f"import of unknown module {imp.name}", imp.span)
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
            self.error("E103", "import cycle: " + " -> ".join(cycle + [cycle[0]]), self.modules[cycle[0]].span)
        # Same-level import components: connected over import edges taken
        # as undirected, keeping only edges between modules of one level.
        def same_level(v: str) -> Iterator[str]:
            level = self.modules[v].level
            return (w for w in imports[v] + importers[v] if self.modules[w].level is level)

        seen.clear()
        for name in self.modules:
            if name not in seen:
                group = frozenset(_flood(name, seen, same_level))
                self.components.update(dict.fromkeys(group, group))

    def check_module_bodies(self) -> None:
        for m in self.modules.values():
            names: set[str] = set()
            for decl in m.body:
                if decl.name in names:
                    self.error("E102", f"duplicate declaration {decl.name} in module {m.name}", decl.span)
                names.add(decl.name)
            for t in m.terms:
                self._check_term(m, t)
            for r in m.relations:
                self._check_relation(m, r)

    def _unbound_term(self, mod: str, name: str) -> str | None:
        """Why `mod.name` names no term, or None when it names one."""
        if mod == BUILTIN_MODULE:
            return None if metamodel.is_term(name) else f"no foundational term named {name} in {BUILTIN_MODULE}"
        if mod not in self.modules:
            return f"unknown module {mod}"
        if (mod, name) not in self.terms:
            return f"no term named {name} in module {mod}"
        return None

    def _unbound_relation(self, mod: str, name: str) -> str | None:
        """Why `mod.name` names no relation, or None when it names one."""
        if mod == BUILTIN_MODULE:
            return None if metamodel.is_relationship_key(name) else f"no foundational relationship named {name}"
        if mod not in self.modules:
            return f"unknown module {mod}"
        if (mod, name) not in self.relations:
            return f"no relation named {name} in module {mod}"
        return None

    # The checks below format an E101 text only for a reference that is unbound.

    def _check_term(self, m: OntologyModule, t: TermDef) -> None:
        ref = t.enriches
        if ref is not None and (problem := self._unbound_term(ref.module or m.name, ref.name)):
            self.error("E101", f"term {m.name}.{t.name}: {problem}", ref.span)
        seen_keys: set[str] = set()
        for attr in t.attributes:
            if attr.key in seen_keys:
                self.error("E102", f"duplicate attribute {attr.key} on term {m.name}.{t.name}", attr.span)
            seen_keys.add(attr.key)

    def _check_relation(self, m: OntologyModule, r: RelationDecl) -> None:
        for ref, unbound in ((r.from_ref, self._unbound_term), (r.to_ref, self._unbound_term),
                             (r.kind_ref, self._unbound_relation)):
            if problem := unbound(ref.module or m.name, ref.name):
                self.error("E101", f"relation {m.name}.{r.name}: {problem}", ref.span)

    def check_instances(self) -> None:
        for f in self.instance_files:
            if not (f.of_module == BUILTIN_MODULE or f.of_module in self.modules):
                self.error("E101", f"instances block names unknown module {f.of_module}", f.span)
                continue
            names: set[str] = set()
            for decl in f.body:
                if decl.name in names:
                    kind = "individual" if isinstance(decl, Individual) else "world"
                    self.error("E102", f"duplicate {kind} {decl.name} in instances of {f.of_module}", decl.span)
                names.add(decl.name)
            for ind in f.individuals:
                ref = ind.type_ref
                if problem := self._unbound_term(ref.module or f.of_module, ref.name):
                    self.error("E101", f"individual {ind.name}: {problem}", ref.span)
            for w in f.worlds:
                self._check_world(f, w)

    def _check_world(self, f: InstanceFile, w: World) -> None:
        things: dict[str, dict[str, set[str]]] = {}  # each thing's part names by sort
        for t in w.things:
            if t.name in things:
                self.error("E102", f"duplicate thing {t.name} in world {w.name}", t.span)
                continue
            ref = t.instance_of
            if ref is not None and (problem := self._unbound_term(ref.module or f.of_module, ref.name)):
                self.error("E101", f"thing {t.name}: {problem}", ref.span)
            parts = things[t.name] = {"Property": set(), "Power": set()}
            for sort, decls in (("Property", t.properties), ("Power", t.powers)):
                for part in decls:
                    if part.name in parts["Property"] or part.name in parts["Power"]:
                        self.error("E102", f"duplicate part {part.name} on thing {t.name}", part.span)
                    parts[sort].add(part.name)

        # Each check returns what is wrong with a fact's argument, or None;
        # the fact is named only in a finding.
        def thing_problem(ref: QualifiedRef) -> str | None:
            if ref.module is not None:
                return f"expected a thing, got part reference {ref}"
            if ref.name not in things:
                return f"unknown thing {ref.name} in world {w.name}"
            return None

        def part_problem(ref: QualifiedRef, sort: str) -> str | None:
            if ref.module is None:
                return f"expected a {sort.lower()} reference thing.part, got {ref}"
            parts = things.get(ref.module)
            if parts is None:
                return f"unknown thing {ref.module} in world {w.name}"
            if ref.name not in parts[sort]:
                return f"thing {ref.module} has no {sort.lower()} named {ref.name}"
            return None

        def term_problem(ref: QualifiedRef) -> str | None:
            # `t.q` reads as Module.Term; when no module t exists but this
            # world has a thing t, it is a part written where a term belongs.
            mod = ref.module
            if mod in things and not (mod == BUILTIN_MODULE or mod in self.modules):
                return f"expected a term, got part reference {ref}"
            return self._unbound_term(mod or f.of_module, ref.name)

        for fact in w.facts:
            spec = metamodel.WORLD_PREDICATES.get(fact.predicate)
            if spec is None:
                self.error("E101", f"unknown predicate {fact.predicate} in world {w.name}", fact.span)
                continue
            for ref, sort in ((fact.left, spec.domain), (fact.right, spec.range)):
                if sort in ("Property", "Power"):
                    problem = part_problem(ref, sort)
                elif sort == "Thing":
                    problem = thing_problem(ref)
                else:
                    problem = term_problem(ref)
                if problem:
                    self.error("E101", f"{fact.predicate} fact in world {w.name}: {problem}", ref.span)

    def check_enrichment_cycles(self) -> None:
        # Only meaningful for chains whose every link resolved; broken links
        # already produced E101 above. `pending` holds the terms not yet
        # walked: each walk removes the terms it visited, so each term is
        # walked once and a walk stops at a term an earlier walk judged. The
        # first walk to enter a cycle reports it, starting where it entered;
        # modules are walked in name order, so that is independent of the
        # order the files came in. Every visited term records its chain's
        # outcome in `roots`.
        pending = dict(self.terms)
        for name in sorted(self.modules):
            for t in self.modules[name].terms:
                path: list[tuple[str, str]] = []
                on_path: dict[tuple[str, str], int] = {}
                key = (name, t.name)
                while key in pending:
                    if key in on_path:
                        cycle = path[on_path[key]:]
                        pretty = " -> ".join(f"{cm}.{cn}" for cm, cn in cycle + [cycle[0]])
                        self.error("E105", f"enrichment cycle: {pretty}", pending[cycle[0]].span)
                        break
                    on_path[key] = len(path)
                    path.append(key)
                    enriches = pending[key].enriches
                    if enriches is None:
                        break
                    key = (enriches.module or key[0], enriches.name)
                # Still pending: the term lacking `enriches`, or a cycle
                # (E105). Otherwise a ThingFO term, a term an earlier walk
                # judged, or an unbound one (E101).
                root = None if key in pending else self.roots.get(key)
                for visited in path:
                    del pending[visited]
                    self.roots[visited] = root

    def record_kind_chains(self) -> None:
        # As in `check_enrichment_cycles`, a walk stops at a relation an
        # earlier walk judged, so each relation is walked once. Lateral hops
        # (same level, other module) are followed inside the hop source's
        # import component, and a chain that takes one escapes its module.
        chains = self.kind_chains
        for key in self.relations:
            path: dict[tuple[str, str], bool] = {}  # each relation walked: is its hop lateral?
            while key not in chains:
                if key in path:
                    order = list(path)
                    cycle = order[order.index(key):]
                    names = tuple(f"{m}.{n}" for m, n in cycle)
                    escapes = any(path[member] for member in cycle)
                    for i, member in enumerate(cycle):
                        del path[member]
                        chains[member] = ChainStatus("cycle", cycle=names, index=i, escapes=escapes)
                    break
                mod, name = key
                kind = self.relations[key].kind_ref
                target = (kind.module or mod, kind.name)
                if target[0] == BUILTIN_MODULE:
                    chains[key] = ChainStatus("foundational", key=kind.name)
                    break
                level, target_level = self.modules[mod].level, self.modules[target[0]].level
                path[key] = lateral = target_level is level and target[0] != mod
                if target_level.rank > level.rank:
                    chains[key] = ChainStatus("downward", detail=f"kind of {mod}.{name} points to the more "
                                              f"concrete level {target_level.name} ({target[0]}.{target[1]})")
                    break
                if lateral and target[0] not in self.components[mod]:
                    chains[key] = ChainStatus("dead_end", escapes=True, detail=f"kind of {mod}.{name} leaves the "
                                              f"import-connected component ({target[0]} is not related to {mod})")
                    break
                key = target
            # `key` is judged now, and the path leads into it.
            status = chains[key]
            for walked, lateral in reversed(path.items()):
                if lateral and not status.escapes:
                    status = ChainStatus(status.outcome, status.key, status.detail, status.cycle, status.index, True)
                chains[walked] = status


def resolve(
    modules: Iterable[OntologyModule],
    instance_files: Iterable[InstanceFile] = (),
) -> tuple[ResolvedSuite | None, list[Diagnostic]]:
    """Bind all names in the suite.

    Returns `(suite, [])` on success, `(None, diagnostics)` otherwise;
    resolution never partially succeeds silently.
    """
    r = _Resolver(list(modules), list(instance_files))
    r.register_modules()
    r.check_imports()
    r.check_module_bodies()
    r.check_instances()
    r.check_enrichment_cycles()
    if r.diagnostics:
        return None, r.diagnostics
    r.record_kind_chains()
    suite = ResolvedSuite(r.modules, r.instance_files, r.terms, r.relations, r.roots, r.components, r.kind_chains)
    return suite, []
