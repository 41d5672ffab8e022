"""Conformance checks over a resolved suite.

Enforces the architecture guidelines (G1/G2), the placement rules (R1-R3),
the three axioms (A1-A3) over ground worlds, relationship domain/range and
cardinality conformance, and the property schema. All checks are pure
functions returning findings as `Diagnostic`s; nothing here raises on bad
suites.
"""

from __future__ import annotations

from . import metamodel
from .metamodel import BUILTIN_MODULE, RootKind
from .model import (
    ChainStatus,
    Fact,
    Level,
    RelationDecl,
    ResolvedSuite,
    World,
)
from .reporting import CODE_CATALOG, Diagnostic
from .source import SourceSpan


def _finding(code: str, message: str, span: SourceSpan, witness: str, anchor: str | None = None) -> Diagnostic:
    """One falsified rule, with the rule's name and anchor from the code
    catalog and a witness sufficient to re-derive it by hand."""
    doc = CODE_CATALOG[code]
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
                    m.span,
                    witness=f"ontology {m.name} at FO",
                )
            )
        for imp in m.imports:
            if m.level is Level.FO:
                out.append(
                    _finding(
                        "E203",
                        f"foundational-level module {m.name} may not import anything",
                        imp.span,
                        witness=f"{m.name} imports {imp.name}",
                    )
                )
            elif suite.level_of(imp.name) is not m.level:
                out.append(
                    _finding(
                        "E202",
                        f"import crosses levels: {m.name} ({m.level.name}) imports "
                        f"{imp.name} ({suite.level_of(imp.name).name})",
                        imp.span,
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
    out: list[Diagnostic] = []
    for module in suite.modules.values():
        for t in module.terms:
            if t.enriches is None:
                out.append(
                    _finding(
                        "E213",
                        f"term {module.name}.{t.name} has no enrichment target",
                        t.span,
                        witness=f"term {t.name}",
                    )
                )
                continue
            target_mod, target_name = suite.term_target(t.enriches, module.name)
            target_level = suite.level_of(target_mod)
            if not target_level.is_exactly_above(module.level):
                out.append(
                    _finding(
                        "E211",
                        f"term {module.name}.{t.name} ({module.level.name}) enriches "
                        f"{target_mod}.{target_name} ({target_level.name}), which is not "
                        f"the immediately higher level",
                        t.span,
                        witness=f"{module.level.name} -> {target_level.name}",
                    )
                )
        for r in module.relations:
            status = chain_status(suite, module.name, r)
            if not status.escapes and status.outcome in ("cycle", "downward"):
                detail = status.text
                out.append(
                    _finding(
                        "E212",
                        f"relation {module.name}.{r.name} never reaches a foundational "
                        f"relationship: {detail}",
                        r.span,
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
    for module_name, r in suite.all_relations():
        status = chain_status(suite, module_name, r)
        if status.escapes and status.outcome in ("cycle", "downward", "dead_end"):
            members = joined[suite.components[module_name]]
            detail = status.text
            out.append(
                _finding(
                    "E221",
                    f"joint definition of {{{members}}} leaves relation "
                    f"{module_name}.{r.name} without a foundational kind: {detail}",
                    r.span,
                    witness=f"component: {members}; {detail}",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Rule #3: the instance level holds only individuals of particular Things.
# ---------------------------------------------------------------------------

def _classify_individual(
    suite: ResolvedSuite, name: str, type_mod: str, type_name: str, span: SourceSpan, where: str
) -> Diagnostic | None:
    anchor = suite.enrichment_root(type_mod, type_name)
    if anchor is None:
        return None  # broken enrichment chain, already flagged as E213
    root = metamodel.root_kind(anchor)
    if root is RootKind.THING_CATEGORY:
        return _finding(
            "E301",
            f"{where} {name} instantiates {type_mod}.{type_name}, whose enrichment "
            f"root is Thing Category; categories do not result in instances",
            span,
            witness=f"{name} : {type_mod}.{type_name} (root ThingCategory)",
        )
    if root in (RootKind.PROPERTY, RootKind.POWER):
        return _finding(
            "E302",
            f"{where} {name} instantiates {type_mod}.{type_name}, whose enrichment "
            f"root is {root.value}; properties and powers exist only as parts of "
            f"things inside worlds",
            span,
            witness=f"{name} : {type_mod}.{type_name} (root {root.value})",
        )
    return None  # Thing and Assertion roots result in instances


def check_rule3(suite: ResolvedSuite) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for f in suite.instance_files:
        for ind in f.individuals:
            type_mod, type_name = suite.term_target(ind.type_ref, f.of_module)
            v = _classify_individual(suite, ind.name, type_mod, type_name, ind.span, "individual")
            if v:
                out.append(v)
        for w in f.worlds:
            for thing in w.things:
                if thing.instance_of is None:
                    continue
                type_mod, type_name = suite.term_target(thing.instance_of, f.of_module)
                v = _classify_individual(suite, thing.name, type_mod, type_name, thing.span, "thing")
                if v:
                    out.append(v)
    return out


# ---------------------------------------------------------------------------
# Axioms A1-A3 over ground worlds.
# ---------------------------------------------------------------------------

def _axiom_finding(code: str, fact: Fact) -> Diagnostic:
    left, right = fact.left, fact.right
    if code == "E311":
        message = (
            f"property {left} enables power {right}, but they belong to different "
            f"things ({left.module} vs {right.module})"
        )
        witness = f"enables({left}, {right}); owner({left})={left.module}, owner({right})={right.module}"
    elif code == "E312":
        message = (
            f"power {left} acts upon property {right}, but they belong to different "
            f"things ({left.module} vs {right.module})"
        )
        witness = f"actsUpon({left}, {right}); owner({left})={left.module}, owner({right})={right.module}"
    else:  # E313
        message = f"power {left} interacts with its own thing {right.name}"
        witness = f"interacts({left}, {right}); owner({left})={left.module}"
    return _finding(code, message, fact.span, witness=witness)


def check_axioms(world: World) -> list[Diagnostic]:
    """Edge-wise axiom evaluation.

    Ownership is functional and syntactically evident (a part `thing.part`
    is qualified by its owner), so A1/A2 reduce to owner equality on each
    edge and A3 to owner inequality against the interaction target."""
    out: list[Diagnostic] = []
    for fact in world.facts:
        if fact.predicate == "enables" and fact.left.module != fact.right.module:
            out.append(_axiom_finding("E311", fact))
        elif fact.predicate == "actsUpon" and fact.left.module != fact.right.module:
            out.append(_axiom_finding("E312", fact))
        elif fact.predicate == "interacts" and fact.left.module == fact.right.name:
            out.append(_axiom_finding("E313", fact))
    return out


# ---------------------------------------------------------------------------
# Relationship conformance and cardinality.
# ---------------------------------------------------------------------------

def _anchor_matches(suite: ResolvedSuite, term: tuple[str, str], anchor: str, required: str) -> bool:
    """Whether `term`, whose enrichment root is `anchor`, is a `required`."""
    if metamodel.is_descendant(anchor, required):
        return True
    # Scope facets stand in for the two scope subtypes: an assertion-rooted
    # term with scope particulars/universals satisfies the matching subtype.
    if required in ("AssertionOnParticulars", "AssertionOnUniversals"):
        if metamodel.root_kind(anchor) is RootKind.ASSERTION:
            decl = suite.get_term(*term)
            if decl is not None and decl.scope is not None:
                wanted = "particulars" if required == "AssertionOnParticulars" else "universals"
                return decl.scope == wanted
    return False


#: World facts whose target is a term: the root the predicate's range
#: requires, and the code for a target with another enrichment root.
_TERM_TARGETS = {"ThingCategory": (RootKind.THING_CATEGORY, "E232"), "Assertion": (RootKind.ASSERTION, "E233")}


def check_relationship_conformance(suite: ResolvedSuite) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for module_name, r in suite.all_relations():
        status = chain_status(suite, module_name, r)
        if status.outcome != "foundational":
            continue  # chain failures belong to Rule #1 / Rule #2
        variants = metamodel.relationship_variants(status.key or "")
        from_term = suite.term_target(r.from_ref, module_name)
        to_term = suite.term_target(r.to_ref, module_name)
        from_root = suite.enrichment_root(*from_term)
        to_root = suite.enrichment_root(*to_term)
        if from_root is None or to_root is None:
            continue  # endpoint chain broken, already flagged as E213
        ok = any(
            _anchor_matches(suite, from_term, from_root, v.domain)
            and _anchor_matches(suite, to_term, to_root, v.range)
            for v in variants
        )
        if not ok:
            expected = " or ".join(f"{v.domain} -> {v.range}" for v in variants)
            definition = "; ".join(dict.fromkeys(v.definition for v in variants))
            out.append(
                _finding(
                    "E231",
                    f"relation {module_name}.{r.name} has kind {variants[0].display!r} "
                    f"but connects {from_root}-rooted to {to_root}-rooted terms "
                    f"(expected {expected})",
                    r.span,
                    witness=f"from root {from_root}, to root {to_root}",
                    anchor=definition,
                )
            )
    for f, w in suite.all_worlds():
        for fact in w.facts:
            spec = metamodel.WORLD_PREDICATES[fact.predicate]
            required, code = _TERM_TARGETS.get(spec.range, (None, None))
            if code is not None:
                mod, name = suite.term_target(fact.right, f.of_module)
                anchor = suite.enrichment_root(mod, name)
                if anchor is None:
                    continue  # broken enrichment chain, already flagged as E213
                root = metamodel.root_kind(anchor)
                if root is not required:
                    out.append(
                        _finding(
                            code,
                            f"{fact.predicate} target {mod}.{name} is rooted at {root.value}, "
                            f"not {metamodel.term_spec(spec.range).display}",
                            fact.span,
                            witness=f"{fact.predicate}({fact.left}, {fact.right})",
                        )
                    )
            elif fact.predicate == "relatesWith" and fact.left.name == fact.right.name:
                out.append(
                    _finding(
                        "E234",
                        f"thing {fact.left.name} relates with itself in world {w.name}",
                        fact.span,
                        witness=f"relatesWith({fact.left}, {fact.right})",
                    )
                )
        out.extend(_check_cardinality(w))
    return out


def _check_cardinality(world: World) -> list[Diagnostic]:
    # Only enforced in worlds that use the predicate at all: ground worlds
    # may legitimately be partial descriptions, hence a warning, not an error.
    out: list[Diagnostic] = []
    for predicate, spec in metamodel.WORLD_PREDICATES.items():
        if not spec.multiplicity or spec.multiplicity[0] < 1:
            continue
        covered = {(f.left.module, f.left.name) for f in world.facts if f.predicate == predicate}
        if not covered:
            continue
        sort = spec.domain.lower()
        for thing in world.things:
            for part in thing.parts(spec.domain):
                if (thing.name, part.name) not in covered:
                    out.append(
                        _finding(
                            "W301",
                            f"{sort} {thing.name}.{part.name} {spec.display} no {spec.range.lower()} "
                            f"in world {world.name}, which declares {predicate} facts",
                            part.span,
                            witness=f"{sort} {thing.name}.{part.name}; 0 {predicate} edges",
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# Property schema conformance.
# ---------------------------------------------------------------------------

def check_property_conformance(suite: ResolvedSuite) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    thing, assertion = RootKind.THING, RootKind.ASSERTION
    for module_name, t in suite.all_terms():
        anchor = suite.enrichment_root(module_name, t.name)
        if anchor is None:
            continue  # broken enrichment chain, already flagged as E213
        root = metamodel.root_kind(anchor)
        allowed = metamodel.property_keys_for_root(root)
        for attr in t.attributes:
            if attr.key not in allowed:
                out.append(
                    _finding(
                        "W201",
                        f"attribute {attr.key!r} on term {module_name}.{t.name} is not "
                        f"owned by {root.value}-rooted terms (allowed: {', '.join(allowed)})",
                        attr.span,
                        witness=f"{t.name}.{attr.key}",
                    )
                )
        if root is thing and "description" not in {a.key for a in t.attributes}:
            out.append(
                _finding(
                    "W202",
                    f"thing-rooted term {module_name}.{t.name} declares no description",
                    t.span,
                    witness=f"term {t.name}",
                )
            )
        if t.scope is not None and root is not assertion:
            out.append(
                _finding(
                    "W203",
                    f"term {module_name}.{t.name} declares scope {t.scope!r} but its "
                    f"enrichment root is {root.value}, not Assertion",
                    t.span,
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
    a fact listed twice in a world is two findings."""
    collected: list[Diagnostic] = []
    collected.extend(check_architecture(suite))
    collected.extend(check_rule1(suite))
    collected.extend(check_rule2(suite))
    collected.extend(check_rule3(suite))
    collected.extend(check_relationship_conformance(suite))
    collected.extend(check_property_conformance(suite))
    for _, world in suite.all_worlds():
        collected.extend(check_axioms(world))
    return collected


def violations_to_diagnostics(findings: list[Diagnostic]) -> list[Diagnostic]:
    """The findings, unchanged. This stage exists only as the name that
    `bench/tracing.py` times; ROADMAP item 2 removes it."""
    return findings
