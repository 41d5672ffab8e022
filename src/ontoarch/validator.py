"""Conformance checks over a resolved suite.

Enforces the architecture guidelines (G1/G2), the placement rules (R1-R3),
the three axioms (A1-A3) over ground worlds, relationship domain/range and
cardinality conformance, and the property schema. All checks are pure
functions returning findings as `Diagnostic`s; nothing here raises on bad
suites.

Resolution has bound every fact, so the checks read facts as they stand.
`check_relationship_conformance` finds E232-E234 and gathers W301's covered
parts in one walk of a world's facts; `check_axioms` walks them again, one
call per world, which `bench/tracing.py` times by name (see ROADMAP item
2), and picks each finding's code and text in one ladder. The checks read
the resolved suite's tables (`levels`, `terms`, `relations`,
`enrichment_roots`, `components`, `kind_chains`) and make no per-term
call: a term's root from `enrichment_roots`, that root's kind and allowed
attribute keys from `metamodel.ROOT_SCHEMAS`, and, in Rule #1, each
target module's level from `levels`, against the level one tier above the
term's own module.

Relationship conformance (E231) asks each relation whose kind chain
reaches ThingFO one question: may the relationship its chain reaches
connect these two endpoints, each given by its enrichment root and scope?
The scopes belong in the question because a scope decides the
`dealsWith*` and `generalizes` relationships: an Assertion-rooted term with
a scope is the Assertion subtype that scope names. The check judges each
distinct question once per call, so the metamodel's lookups run a number of
times that ThingFO's catalog bounds, whatever the suite's size; each
relation still costs a few table reads. It reads each relation's outcome
through `chain_status` and each endpoint's root through
`ResolvedSuite.enrichment_root`, not from the tables directly, because
`bench/tracing.py` counts the calls of both by name (ROADMAP item 2).

The findings on worlds repeat from world to world: the same thing names,
parts and terms give the same texts, and so do the witnesses made of level
or root names alone (E211, E231). Each check that makes them keeps a table
for its call, `texts`, from each text to the first string that held it,
and `_finding` hands a finding that one string, so equal texts are one
string. A text is its own key: a key that copied the inputs of a text's
format could drift from it, a `Record` key would hash in Python, and an
`id()` key could be handed on when a node is freed. The axioms run once per
world, so `validate_suite` passes one table to all of those calls. The
tables go with their calls, so no text outlives its verdict in one. The
other checks name module declarations, which a resolved suite holds once,
and format their texts per finding.
"""

from __future__ import annotations

from . import metamodel
from .metamodel import BUILTIN_MODULE, SCOPE_FACETS, RootKind
from .model import ChainStatus, Level, RelationDecl, ResolvedSuite, World
from .reporting import CODE_CATALOG, Diagnostic
from .source import SYNTHETIC_SOURCE, Source, SourceSpan


def _finding(code: str, message: str, span: SourceSpan, witness: str, anchor: str | None = None,
             texts: dict[str, str] | None = None) -> Diagnostic:
    """One falsified rule, with the rule's name and anchor from the code
    catalog and a witness sufficient to re-derive it by hand; with `texts`,
    its message and witness are the strings that table holds for them."""
    doc = CODE_CATALOG[code]
    if texts is not None:
        message = texts.setdefault(message, message)
        witness = texts.setdefault(witness, witness)
    return Diagnostic(code, message, span, doc.rule, doc.anchor if anchor is None else anchor, witness)


# ---------------------------------------------------------------------------
# Architecture (Guidelines #1 and #2).
# ---------------------------------------------------------------------------

def check_architecture(suite: ResolvedSuite) -> list[Diagnostic]:
    """The built-in ThingFO is the one permitted FO ontology: user modules at
    FO are errors, as are imports that cross levels."""
    out: list[Diagnostic] = []
    for m in suite.modules.values():
        if m.level is Level.FO:
            out.append(
                _finding(
                    "E201",
                    f"module {m.name} declares itself at the foundational level; "
                    f"only the built-in {BUILTIN_MODULE} ontology may live there",
                    m.source.span(m.loc),
                    witness=f"ontology {m.name} at FO",
                )
            )
        for imp in m.imports:
            if m.level is Level.FO:
                out.append(
                    _finding(
                        "E203",
                        f"foundational-level module {m.name} may not import anything",
                        m.source.span(imp.loc),
                        witness=f"{m.name} imports {imp.name}",
                    )
                )
            elif (level := suite.levels[imp.name]) is not m.level:
                out.append(
                    _finding(
                        "E202",
                        f"import crosses levels: {m.name} ({m.level.name}) imports "
                        f"{imp.name} ({level.name})",
                        m.source.span(imp.loc),
                        witness=f"{m.name} imports {imp.name}",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# Kind chains (shared by Rule #1, Rule #2 and relationship conformance).
# ---------------------------------------------------------------------------

def chain_status(suite: ResolvedSuite, module_name: str, rel: RelationDecl) -> ChainStatus:
    """Where a relation's `kind` links end, as resolution recorded it.

    Hops to a higher level or within the same module are always followed.
    Lateral hops (same level, other module) must stay inside the hop
    source's import-connected component, and a chain that takes one
    `escapes` its module: Rule #1 leaves it to Rule #2, which judges the
    joint definition. Hops toward a more concrete level never terminate."""
    return suite.kind_chains[(module_name, rel.name)]


# ---------------------------------------------------------------------------
# Rule #1: correspondence with the immediately higher level.
# ---------------------------------------------------------------------------

def check_rule1(suite: ResolvedSuite) -> list[Diagnostic]:
    texts: dict[str, str] = {}
    out: list[Diagnostic] = []
    levels = suite.levels
    for module in suite.modules.values():
        name, level, source = module.name, module.level, module.source
        above = Level(level.rank - 1) if level.rank else None  # the level its terms enrich
        for t in module.terms:
            ref = t.enriches
            if ref is None:
                out.append(
                    _finding(
                        "E213",
                        f"term {name}.{t.name} has no enrichment target",
                        source.span(t.loc),
                        witness=f"term {t.name}",
                    )
                )
                continue
            target_mod = ref.module or name
            target_level = levels[target_mod]
            if target_level is not above:
                out.append(
                    _finding(
                        "E211",
                        f"term {name}.{t.name} ({level.name}) enriches "
                        f"{target_mod}.{ref.name} ({target_level.name}), which is not "
                        f"the immediately higher level",
                        source.span(t.loc),
                        witness=f"{level.name} -> {target_level.name}",
                        texts=texts,
                    )
                )
        for r in module.relations:
            status = chain_status(suite, name, r)
            if not status.escapes and status.outcome in ("cycle", "downward"):
                detail = status.text
                out.append(
                    _finding(
                        "E212",
                        f"relation {name}.{r.name} never reaches a foundational "
                        f"relationship: {detail}",
                        source.span(r.loc),
                        witness=detail,
                    )
                )
    return out


# ---------------------------------------------------------------------------
# Rule #2: joint definitions of import-related same-level modules.
# ---------------------------------------------------------------------------

def check_rule2(suite: ResolvedSuite) -> list[Diagnostic]:
    """Failures only the joint definition of an import-connected component
    exposes, all tagged E221: relations whose kind chain escapes their module
    (so Rule #1 does not judge them) and then, followed inside the component,
    cycles, turns downward or leaves the component. Everything visible
    module-locally is Rule #1's and is not reported again here."""
    out: list[Diagnostic] = []
    joined = {component: ", ".join(sorted(component)) for component in set(suite.components.values())}
    for (module_name, _), r in suite.relations.items():
        status = chain_status(suite, module_name, r)
        if status.escapes and status.outcome in ("cycle", "downward", "dead_end"):
            members = joined[suite.components[module_name]]
            detail = status.text
            out.append(
                _finding(
                    "E221",
                    f"joint definition of {{{members}}} leaves relation "
                    f"{module_name}.{r.name} without a foundational kind: {detail}",
                    suite.modules[module_name].source.span(r.loc),
                    witness=f"component: {members}; {detail}",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Rule #3: the instance level holds only individuals of particular Things.
# ---------------------------------------------------------------------------

#: The enrichment roots whose terms result in no instances: Thing and
#: Assertion roots do, and a broken chain is Rule #1's E213.
_NOT_INSTANTIABLE = (RootKind.THING_CATEGORY, RootKind.PROPERTY, RootKind.POWER)


def _not_instantiable(name: str, type_mod: str, type_name: str, root: RootKind, source: Source, loc: int,
                      where: str, texts: dict[str, str]) -> Diagnostic:
    if root is RootKind.THING_CATEGORY:
        return _finding(
            "E301",
            f"{where} {name} instantiates {type_mod}.{type_name}, whose enrichment "
            f"root is Thing Category; categories do not result in instances",
            source.span(loc),
            witness=f"{name} : {type_mod}.{type_name} (root ThingCategory)",
            texts=texts,
        )
    return _finding(
        "E302",
        f"{where} {name} instantiates {type_mod}.{type_name}, whose enrichment "
        f"root is {root.value}; properties and powers exist only as parts of "
        f"things inside worlds",
        source.span(loc),
        witness=f"{name} : {type_mod}.{type_name} (root {root.value})",
        texts=texts,
    )


def check_rule3(suite: ResolvedSuite) -> list[Diagnostic]:
    texts: dict[str, str] = {}
    roots, schemas = suite.enrichment_roots, metamodel.ROOT_SCHEMAS
    out: list[Diagnostic] = []
    for f in suite.instance_files:
        typed = [(ind, ind.type_ref, "individual") for ind in f.individuals]
        typed += [(thing, thing.instance_of, "thing") for w in f.worlds for thing in w.things]
        for node, ref, where in typed:
            if ref is None:
                continue  # an untyped thing
            key = (ref.module or f.of_module, ref.name)
            schema = schemas.get(roots[key])  # None for a broken chain (E213)
            if schema is not None and (root := schema[0]) in _NOT_INSTANTIABLE:
                out.append(_not_instantiable(node.name, *key, root, f.source, node.loc, where, texts))
    return out


# ---------------------------------------------------------------------------
# Axioms A1-A3 over ground worlds.
# ---------------------------------------------------------------------------

#: A1 and A2: the world predicates whose two parts must belong to one
#: thing, with the code of a fact whose parts do not.
_SAME_OWNER = {"enables": "E311", "actsUpon": "E312"}


def check_axioms(world: World, source: Source = SYNTHETIC_SOURCE,
                 texts: dict[str, str] | None = None) -> list[Diagnostic]:
    """Edge-wise axiom evaluation over a world of the file `source`.

    Ownership is functional and syntactically evident (a part `thing.part`
    is qualified by its owner), so A1/A2 reduce to owner equality on each
    edge and A3 to owner inequality against the interaction target.
    `texts` shares the findings' texts across the calls that pass it (see
    the module's docstring); without it, across this call's findings."""
    texts = {} if texts is None else texts
    out: list[Diagnostic] = []
    for fact in world.facts:
        predicate, left, right = fact.predicate, fact.left, fact.right
        code = _SAME_OWNER.get(predicate)
        if code is not None and left.module != right.module:
            spec = metamodel.WORLD_PREDICATES[predicate]
            message = (
                f"{spec.domain.lower()} {left} {spec.display} {spec.range.lower()} {right}, but they belong "
                f"to different things ({left.module} vs {right.module})"
            )
            witness = f"{predicate}({left}, {right}); owner({left})={left.module}, owner({right})={right.module}"
        elif predicate == "interacts" and left.module == right.name:
            code = "E313"
            message = f"power {left} interacts with its own thing {right.name}"
            witness = f"interacts({left}, {right}); owner({left})={left.module}"
        else:
            continue
        out.append(_finding(code, message, source.span(fact.loc), witness=witness, texts=texts))
    return out


# ---------------------------------------------------------------------------
# Relationship conformance and cardinality.
# ---------------------------------------------------------------------------

def _anchor_matches(anchor: str, scope: str | None, required: str) -> bool:
    """Whether a term whose enrichment root is `anchor` and whose scope is
    `scope` is a `required`."""
    if metamodel.is_descendant(anchor, required):
        return True
    # A scope stands in for the Assertion subtype it names: an
    # assertion-rooted term with a scope satisfies that subtype only.
    if scope is not None and required in SCOPE_FACETS.values() and metamodel.root_kind(anchor) is RootKind.ASSERTION:
        return SCOPE_FACETS[scope] == required
    return False


def _mismatch(key: str, from_root: str, from_scope: str | None, to_root: str,
              to_scope: str | None) -> tuple[str, str, str] | None:
    """None when a relation of kind `key` may connect the two endpoints,
    each given by its enrichment root and scope; otherwise the kind's
    display name, the expected domains and ranges, and its definitions,
    which an E231 names."""
    variants = metamodel.relationship_variants(key)
    if any(_anchor_matches(from_root, from_scope, v.domain) and _anchor_matches(to_root, to_scope, v.range)
           for v in variants):
        return None
    expected = " or ".join(f"{v.domain} -> {v.range}" for v in variants)
    return variants[0].display, expected, "; ".join(dict.fromkeys(v.definition for v in variants))


#: The code for a world fact whose target, a term, has an enrichment root
#: other than the root of the predicate's range, by that range.
_TERM_TARGETS = {"ThingCategory": "E232", "Assertion": "E233"}

#: For each world predicate whose target is a term: the finding's code, and
#: the root kind and the name of the range, whose root the target's
#: enrichment root must be.
_TERM_FACTS = {
    predicate: (_TERM_TARGETS[spec.range], metamodel.root_kind(spec.range), metamodel.term_spec(spec.range).display)
    for predicate, spec in metamodel.WORLD_PREDICATES.items() if spec.range in _TERM_TARGETS
}

#: The world predicates that each part of their domain's sort must be the
#: left side of, once a world uses them at all (W301).
_REQUIRED_EDGES = {
    predicate: spec for predicate, spec in metamodel.WORLD_PREDICATES.items()
    if spec.multiplicity and spec.multiplicity[0] >= 1
}


def check_relationship_conformance(suite: ResolvedSuite) -> list[Diagnostic]:
    texts: dict[str, str] = {}
    out: list[Diagnostic] = []
    # Each distinct question, a kind with each endpoint's root and scope, is
    # judged once per call; ThingFO's catalog bounds how many there are.
    terms = suite.terms
    judged: dict[tuple[str, str, str | None, str, str | None], tuple[str, str, str] | None] = {}
    for (module_name, _), r in suite.relations.items():
        status = chain_status(suite, module_name, r)
        if status.outcome != "foundational":
            continue  # chain failures belong to Rule #1 / Rule #2
        from_term = (r.from_ref.module or module_name, r.from_ref.name)
        to_term = (r.to_ref.module or module_name, r.to_ref.name)
        from_root = suite.enrichment_root(*from_term)
        to_root = suite.enrichment_root(*to_term)
        if from_root is None or to_root is None:
            continue  # endpoint chain broken, already flagged as E213
        from_decl, to_decl = terms.get(from_term), terms.get(to_term)  # None for a ThingFO term
        question = (status.key, from_root, from_decl and from_decl.scope, to_root, to_decl and to_decl.scope)
        try:
            mismatch = judged[question]
        except KeyError:
            mismatch = judged[question] = _mismatch(*question)
        if mismatch is not None:
            display, expected, definition = mismatch
            out.append(
                _finding(
                    "E231",
                    f"relation {module_name}.{r.name} has kind {display!r} "
                    f"but connects {from_root}-rooted to {to_root}-rooted terms "
                    f"(expected {expected})",
                    suite.modules[module_name].source.span(r.loc),
                    witness=f"from root {from_root}, to root {to_root}",
                    anchor=definition,
                    texts=texts,
                )
            )
    # One walk of each world's facts finds E232-E234 and gathers the parts
    # that are the left side of each predicate of `_REQUIRED_EDGES`; W301
    # then names the parts left out, in worlds that use the predicate.
    roots, schemas = suite.enrichment_roots, metamodel.ROOT_SCHEMAS
    for f in suite.instance_files:
        for w in f.worlds:
            covered: dict[str, set[tuple[str, str]]] = {predicate: set() for predicate in _REQUIRED_EDGES}
            for fact in w.facts:
                predicate, left, right = fact.predicate, fact.left, fact.right
                edges = covered.get(predicate)
                if edges is not None:
                    edges.add((left.module, left.name))
                target = _TERM_FACTS.get(predicate)
                if target is not None:
                    mod, name = right.module or f.of_module, right.name
                    schema = schemas.get(roots[(mod, name)])
                    code, required, display = target
                    if schema is not None and (root := schema[0]) is not required:  # None: a broken chain, E213
                        out.append(
                            _finding(
                                code,
                                f"{predicate} target {mod}.{name} is rooted at {root.value}, not {display}",
                                f.source.span(fact.loc),
                                witness=f"{predicate}({left}, {right})",
                                texts=texts,
                            )
                        )
                elif predicate == "relatesWith" and left.name == right.name:
                    out.append(
                        _finding(
                            "E234",
                            f"thing {left.name} relates with itself in world {w.name}",
                            f.source.span(fact.loc),
                            witness=f"relatesWith({left}, {right})",
                            texts=texts,
                        )
                    )
            for predicate, edges in covered.items():
                if not edges:
                    continue  # only where the world uses it: worlds may be partial, hence a warning
                spec = _REQUIRED_EDGES[predicate]
                sort = spec.domain.lower()
                for thing in w.things:
                    names, first = thing.parts(spec.domain)
                    locs: tuple[int, ...] = ()  # read at the first part with no edge
                    for index, part in enumerate(names, first):
                        if (thing.name, part) not in edges:
                            locs = locs or thing.part_locs()
                            out.append(
                                _finding(
                                    "W301",
                                    f"{sort} {thing.name}.{part} {spec.display} no {spec.range.lower()} "
                                    f"in world {w.name}, which declares {predicate} facts",
                                    f.source.span(locs[index]),
                                    witness=f"{sort} {thing.name}.{part}; 0 {predicate} edges",
                                    texts=texts,
                                )
                            )
    return out


# ---------------------------------------------------------------------------
# Property schema conformance.
# ---------------------------------------------------------------------------

def check_property_conformance(suite: ResolvedSuite) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    thing, assertion = RootKind.THING, RootKind.ASSERTION
    roots, schemas = suite.enrichment_roots, metamodel.ROOT_SCHEMAS
    for module in suite.modules.values():
        module_name, source = module.name, module.source
        for t in module.terms:
            schema = schemas.get(roots[(module_name, t.name)])
            if schema is None:
                continue  # broken enrichment chain, already flagged as E213
            root, allowed = schema
            described = False
            for attr in t.attributes:
                key = attr.key
                if key not in allowed:
                    out.append(
                        _finding(
                            "W201",
                            f"attribute {key!r} on term {module_name}.{t.name} is not "
                            f"owned by {root.value}-rooted terms (allowed: {', '.join(allowed)})",
                            source.span(attr.loc),
                            witness=f"{t.name}.{key}",
                        )
                    )
                if key == "description":
                    described = True
            if root is thing and not described:
                out.append(
                    _finding(
                        "W202",
                        f"thing-rooted term {module_name}.{t.name} declares no description",
                        source.span(t.loc),
                        witness=f"term {t.name}",
                    )
                )
            if t.scope is not None and root is not assertion:
                out.append(
                    _finding(
                        "W203",
                        f"term {module_name}.{t.name} declares scope {t.scope!r} but its "
                        f"enrichment root is {root.value}, not Assertion",
                        source.span(t.loc),
                        witness=f"term {t.name} scope {t.scope}",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# Orchestration.
# ---------------------------------------------------------------------------

def validate_suite(suite: ResolvedSuite) -> list[Diagnostic]:
    """Run every check and emit the findings in check order; `Report.build`
    orders them.

    No check re-derives another's findings, so each one is reported once;
    a fact listed twice in a world is two findings. The axiom checks of
    all worlds share one table of texts, which lives for this call only."""
    texts: dict[str, str] = {}
    collected: list[Diagnostic] = []
    collected.extend(check_architecture(suite))
    collected.extend(check_rule1(suite))
    collected.extend(check_rule2(suite))
    collected.extend(check_rule3(suite))
    collected.extend(check_relationship_conformance(suite))
    collected.extend(check_property_conformance(suite))
    for f in suite.instance_files:
        for world in f.worlds:
            collected.extend(check_axioms(world, f.source, texts))
    return collected


def violations_to_diagnostics(findings: list[Diagnostic]) -> list[Diagnostic]:
    """The findings, unchanged. This stage exists only as the name that
    `bench/tracing.py` times; ROADMAP item 2 removes it."""
    return findings
