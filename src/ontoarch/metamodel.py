"""Built-in ThingFO v1.3 catalog.

This module ships the foundational level itself: the 19 terms with their
taxonomy, the 10 properties, the 12 non-taxonomic relationships, the three
axioms, and the architecture guidelines/rules. Everything here is immutable
data; the rest of the system only queries it. Users cannot extend or edit
the foundational level (a suite may contain exactly one foundational
ontology, and it is this one).
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

THINGFO_VERSION = "1.3"

#: Name of the built-in foundational module as addressed from the DSL.
BUILTIN_MODULE = "ThingFO"


class RootKind(Enum):
    """The five taxonomy roots of the foundational level."""

    THING = "Thing"
    PROPERTY = "Property"
    POWER = "Power"
    THING_CATEGORY = "ThingCategory"
    ASSERTION = "Assertion"


class FoundationalTermSpec(NamedTuple):
    id: str
    display: str
    parent: str | None
    synonyms: tuple[str, ...]
    definition: str
    notes: tuple[str, ...] = ()


class PropertySpec(NamedTuple):
    owner: str
    key: str
    display: str
    definition: str
    notes: tuple[str, ...] = ()


class RelationshipSpec(NamedTuple):
    key: str
    display: str
    domain: str
    range: str
    definition: str
    #: (min, max) on the target end; max None = unbounded; None = unconstrained.
    multiplicity: tuple[int, int | None] | None = None
    axiom_links: frozenset[str] = frozenset()
    notes: tuple[str, ...] = ()


class AxiomSpec(NamedTuple):
    id: str
    description: str
    #: The implication whose falsified instances the checker reports.
    constraint: str
    formula: str


# ---------------------------------------------------------------------------
# Terms. Order follows the catalog: the five roots first, then the two scope
# subtypes, then the twelve aspect subtypes of Assertion alphabetically.
# All assertion subtypes hang directly under Assertion; the particular /
# universal distinction is additionally available as a scope facet on user
# terms, since every aspect can be stated for both.
# ---------------------------------------------------------------------------

_TERMS: tuple[FoundationalTermSpec, ...] = (
    FoundationalTermSpec(
        id="Thing",
        display="Thing",
        parent=None,
        synonyms=("Particular Thing", "Object", "Entity", "Instance", "Individual"),
        definition=(
            "Class or type of a perceivable or conceivable object, or its "
            "individuals of a given particular world."
        ),
        notes=(
            "A Thing as a class represents and implies unique individuals or "
            "instances, not a universal category. Therefore, a particular Thing "
            "results in instances, whereas a universal Thing (i.e., a Thing "
            "Category) does not result in instances, at least with the valuable "
            "meaning of individual in a given particular world.",
            "A Thing is not a particular Thing without its Properties and its "
            "Powers: things, properties and powers all emerge simultaneously to "
            "form a unity, and they are necessary and sufficient for the "
            "existence of this unity.",
            "A Thing cannot exist or be in spatiotemporal isolation from other "
            "Things in a given particular world. In other words, a target Thing "
            "is always surrounded by other context Things, in any particular "
            "situation.",
            "In contrast to a particular Thing, that is, a particular class or "
            "subclass, the individuals of a class or subclass are not "
            "instantiated by further entities.",
            "A subclass of a particular Thing as a particular class can be "
            "represented at any lower level of the ontological architecture "
            "except at the Instance Ontological Level, where only particular "
            "individuals are or exist. See Rule #3.",
        ),
    ),
    FoundationalTermSpec(
        id="Property",
        display="Property",
        parent=None,
        synonyms=(),
        definition=(
            "It refers to the intrinsic constitution, structure, or parts of a "
            "particular Thing."
        ),
        notes=(
            "A Property is one member of the triad that conforms the unique "
            "identity named Thing.",
            "A Property, which is one member of the triad that conforms a "
            "particular Thing, can be seen as another particular Thing in "
            "another situation with its own Properties and Powers.",
        ),
    ),
    FoundationalTermSpec(
        id="Power",
        display="Power",
        parent=None,
        synonyms=(),
        definition="It refers to what a particular Thing does, can do or behave.",
        notes=(
            "A Power is one member of the triad that conforms the unique "
            "identity named Thing.",
            "Powers are the way of acting of a thing's properties; powers are a "
            "thing's properties in action. Things have properties, these "
            "properties instantiate acting powers, and this ensemble of things, "
            "properties and powers cause any events that might occur.",
        ),
    ),
    FoundationalTermSpec(
        id="ThingCategory",
        display="Thing Category",
        parent=None,
        synonyms=("Entity Category", "Universal Thing"),
        definition=(
            "Class or type that represents a category that predicates on "
            "particular Things conceived by a human being's mind for "
            "abstraction and classification purposes."
        ),
        notes=(
            "A Thing Category does not exist, is or can be in a given "
            "particular world as a Thing does. Conversely, it may only be "
            "formed or developed mentally by human beings.",
            "A Thing Category as universal does not result in instances, at "
            "least with the valuable meaning of individual, but rather can be "
            "represented by more specific sub-categories of universal Things.",
        ),
    ),
    FoundationalTermSpec(
        id="Assertion",
        display="Assertion",
        parent=None,
        synonyms=("Human Expression",),
        definition=(
            "Class or type that represents a positive and explicit statement "
            "or expression that somebody makes about something concerning "
            "Things, or their categories, based on thoughts, perceptions, "
            "facts, intuitions, intentions and/or beliefs, conceived with an "
            "attempt to provide current or subsequent evidence."
        ),
        notes=(
            'The phrase "about something concerning Things" means, for '
            "example, about the substance, structure, behavior, relations, "
            "situations, quantity, quality, among other aspects of Things.",
            'The phrase "statement or expression that somebody makes" means '
            "that a concrete human being, as a particular Thing, defines or "
            "conceives Assertions.",
            "In order to be valuable, actionable and ultimately useful for any "
            "science, an Assertion should to a great extent be verified and "
            "validated by theoretical and/or empirical evidence.",
            "An Assertion and its instances can be represented and modeled by "
            "means of informal, semiformal or formal expressions and "
            "specification languages.",
            "An expression is a word or group of words or corresponding "
            "symbols that can be used in making an assertion.",
        ),
    ),
    FoundationalTermSpec(
        id="AssertionOnParticulars",
        display="Assertion on Particulars",
        parent="Assertion",
        synonyms=(),
        definition=(
            "It is an Assertion that somebody makes about something of one or "
            "more particular Things."
        ),
    ),
    FoundationalTermSpec(
        id="AssertionOnUniversals",
        display="Assertion on Universals",
        parent="Assertion",
        synonyms=(),
        definition=(
            "It is an Assertion that somebody makes about something of one or "
            "more Thing Categories."
        ),
    ),
    FoundationalTermSpec(
        id="ActionAssertion",
        display="Action-related Assertion",
        parent="Assertion",
        synonyms=(),
        definition=(
            "It is an Assertion related to the interaction and happening of "
            "Things since acting Powers cause any events that might occur."
        ),
        notes=(
            "Particular Things can interact to each other, just as a Thing can "
            "act upon itself. See axioms A2 and A3.",
            "Interrelated Things interact to each other conforming particular "
            "situations, i.e., specific circumstances, episodes and events "
            "that are of interest for an intended agent.",
            "Interactions among Things, both target entities and context "
            "entities in particular situations, can be abstracted in generic "
            "situations.",
        ),
    ),
    FoundationalTermSpec(
        id="AllotmentAssertion",
        display="Allotment-related Assertion",
        parent="Assertion",
        synonyms=(),
        definition=(
            "It is an Assertion related to the assignment of something, which "
            "implies the assignment of a Thing to itself or to other Things."
        ),
        notes=(
            "For example, a particular resource (method, tool, person, etc.) "
            "is assigned to a task in a particular situation; or a person "
            "allots a specific amount of time to an assignment.",
        ),
    ),
    FoundationalTermSpec(
        id="BehaviorAssertion",
        display="Behavior-related Assertion",
        parent="Assertion",
        synonyms=(),
        definition=(
            "It is an Assertion related to the Power, which represents the "
            "capability and responsibility that a particular Thing has and/or "
            "exhibits."
        ),
        notes=(
            "Behavior can be specified for particulars and can also be "
            "generalized for universals.",
        ),
    ),
    FoundationalTermSpec(
        id="ConstraintAssertion",
        display="Constraint-related Assertion",
        parent="Assertion",
        synonyms=(),
        definition=(
            "It is an Assertion related to the specification of restrictions "
            "or conditions imposed on Things, Properties, relationships, "
            "interactions or Thing Categories that must be satisfied or "
            "evaluated to true in given situations or events."
        ),
        notes=(
            "Constraint-related Assertions can be specified for both "
            "particulars and universals.",
        ),
    ),
    FoundationalTermSpec(
        id="IntentionAssertion",
        display="Intention-related Assertion",
        parent="Assertion",
        synonyms=(),
        definition="It is an Assertion related to the aim to be achieved by somebody.",
        notes=(
            "The statement of an Intention-related Assertion considers the "
            "propositional content of a goal purpose in a given situation and "
            "time frame.",
            "Intention-related Assertions can be specified for both "
            "particulars and universals.",
        ),
    ),
    FoundationalTermSpec(
        id="QualityAssertion",
        display="Quality-related Assertion",
        parent="Assertion",
        synonyms=(),
        definition=(
            "It is an Assertion related to the requirements and constraints to "
            "be specified regarding the quality (distinguishing "
            "characteristic, attribute, or statement item) for a Thing and "
            "possibly related entities, which may be evaluable."
        ),
        notes=(
            "Quality (cost, etc.) requirements and constraints can be "
            "specified for a particular Thing in terms of its Properties or "
            "Powers, or in terms of both as a whole.",
            "Quality requirements and constraints can be specified for "
            "particulars and can also be abstracted or generalized for "
            "universals.",
        ),
    ),
    FoundationalTermSpec(
        id="QuantityAssertion",
        display="Quantity-related Assertion",
        parent="Assertion",
        synonyms=(),
        definition=(
            "It is an Assertion related to the countable, measurable and "
            "evaluable aspect of a Thing and possibly related entities, which "
            "can be specified by means of symbolic or numerical expressions."
        ),
        notes=(
            "Qualities of Things can be measured, evaluated and analyzed by "
            "specifying Quantity-related Assertions and strategies as "
            "resources.",
            "A quantity or a relationship between quantities can be "
            "formalized, for instance, by mathematical, statistical or logical "
            "expressions.",
            "Quantity-related Assertions can be specified for both particulars "
            "and universals.",
        ),
    ),
    FoundationalTermSpec(
        id="RelationAssertion",
        display="Relation-related Assertion",
        parent="Assertion",
        synonyms=(),
        definition=(
            "It is an Assertion related to logical or natural associations "
            "between two or more Things and their categories."
        ),
        notes=(
            "A Thing cannot exist or be in spatiotemporal isolation from other "
            "Things in a given particular world. Therefore, a Thing is related "
            "to other Things.",
            "Relationships can be specified for particular Things (between "
            "classes, between instances and classes, or between instances), "
            "and can also be represented for Thing Categories.",
        ),
    ),
    FoundationalTermSpec(
        id="SituationAssertion",
        display="Situation-related Assertion",
        parent="Assertion",
        synonyms=(),
        definition=(
            "It is an Assertion related to the combination of circumstances, "
            "episodes, and relationships/events between target Things and "
            "context entities that surround them, or their categories, which "
            "is of interest or meaningful to be represented or modeled for an "
            "intended agent."
        ),
        notes=(
            "A Situation can be represented statically or dynamically "
            "depending on the intention of the agent.",
            "Situations can be specified for particulars and can also be "
            "generalized for universals.",
        ),
    ),
    FoundationalTermSpec(
        id="StructureAssertion",
        display="Structure-related Assertion",
        parent="Assertion",
        synonyms=(),
        definition=(
            "It is an Assertion related to the Property, which represents the "
            "intrinsic constitution, structure, or parts of a particular Thing."
        ),
        notes=(
            "Structural aspects can be specified for particulars and can also "
            "be abstracted for universals.",
        ),
    ),
    FoundationalTermSpec(
        id="SubstanceAssertion",
        display="Substance-related Assertion",
        parent="Assertion",
        synonyms=(),
        definition=(
            "It is an Assertion related to the ontological significance and "
            "essential import of a Thing as a whole entity, or of a set of "
            "Things."
        ),
        notes=(
            "Substance aspects can be specified for particulars and can also "
            "be abstracted for universals.",
        ),
    ),
    FoundationalTermSpec(
        id="TimeAssertion",
        display="Time-related Assertion",
        parent="Assertion",
        synonyms=(),
        definition=(
            "It is an Assertion related to the time as a Thing or its "
            "Properties or Power, which can imply specifying temporal "
            "boundaries or limits, among other aspects, for different "
            "situations and events."
        ),
        notes=(
            "Time aspects can be specified for particulars and can also be "
            "abstracted for universals.",
        ),
    ),
)

_TERM_INDEX: dict[str, FoundationalTermSpec] = {t.id: t for t in _TERMS}

#: Each term's taxonomy root; `_TERMS` lists every parent before its children.
_ROOT_KINDS: dict[str, RootKind] = {}
for _spec in _TERMS:
    _ROOT_KINDS[_spec.id] = _ROOT_KINDS[_spec.parent] if _spec.parent else RootKind(_spec.id)

#: The scopes a user term may declare, each standing in for the Assertion
#: subtype it names on an Assertion-rooted term.
SCOPE_FACETS: dict[str, str] = {"particulars": "AssertionOnParticulars", "universals": "AssertionOnUniversals"}


# ---------------------------------------------------------------------------
# Properties. Machine keys are the snake-cased catalog names; the `name`
# property of a user term is carried by its declaration identifier, but the
# key remains declarable.
# ---------------------------------------------------------------------------

_PROPERTIES: tuple[PropertySpec, ...] = (
    PropertySpec(
        owner="Thing",
        key="name",
        display="name",
        definition="Label or name that identifies the particular Thing.",
    ),
    PropertySpec(
        owner="Thing",
        key="description",
        display="description",
        definition="An unambiguous textual statement describing a particular Thing.",
    ),
    PropertySpec(
        owner="Property",
        key="name",
        display="name",
        definition="Label or name that identifies the Property of a Thing.",
    ),
    PropertySpec(
        owner="Property",
        key="structural_description",
        display="structural description",
        definition=(
            "An unambiguous textual statement describing the Property of a "
            "Thing in terms of its constituents, structure, or parts."
        ),
    ),
    PropertySpec(
        owner="Power",
        key="name",
        display="name",
        definition="Label or name that identifies the Power of a Thing.",
    ),
    PropertySpec(
        owner="Power",
        key="behavioral_description",
        display="behavioral description",
        definition=(
            "An unambiguous textual statement describing the Power of a Thing "
            "in terms of responsibilities, operations or actions."
        ),
    ),
    PropertySpec(
        owner="ThingCategory",
        key="descriptive_statement",
        display="descriptive statement",
        definition=(
            "An unambiguous textual description of the category purpose as "
            "universal."
        ),
        notes=(
            "The description of the category can be based on some Properties "
            "of particular Things, or some Powers of particular Things, or "
            "both.",
        ),
    ),
    PropertySpec(
        owner="Assertion",
        key="name",
        display="name",
        definition="Label or name that identifies the Assertion.",
    ),
    PropertySpec(
        owner="Assertion",
        key="positive_statement",
        display="positive statement",
        definition=(
            "An explicit declaration of the Assertion to be defined and "
            "expressed."
        ),
        notes=(
            "Regarding a particular Thing or category, a positive statement "
            "refers to what it is, was, or will be, and contains no indication "
            "of approval or disapproval.",
            "A positive statement should be based on current or subsequent "
            "empirical evidence.",
        ),
    ),
    PropertySpec(
        owner="Assertion",
        key="specification",
        display="specification",
        definition=(
            "The explicit and detailed representation or model of the "
            "Assertion in a given language."
        ),
        notes=(
            "Assertions can be modeled by means of informal, semiformal or "
            "formal expressions and specification languages.",
            "A specification can include text in natural language, "
            "mathematical and/or logical expressions, sketches, well-formed "
            "models and diagrams, multimedia resources, among other "
            "representations.",
        ),
    ),
)

#: Attribute keys each root's terms may declare, in catalog order.
_PROPERTY_KEYS: dict[RootKind, tuple[str, ...]] = {
    root: tuple(p.key for p in _PROPERTIES if p.owner == root.value) for root in RootKind
}


# ---------------------------------------------------------------------------
# Non-taxonomic relationships. `relates with` has three variants, one per
# root that may relate to peers of its own kind; they share the machine key.
# ---------------------------------------------------------------------------

_RELATIONSHIPS: tuple[RelationshipSpec, ...] = (
    RelationshipSpec(
        key="actsUpon",
        display="acts upon",
        domain="Power",
        range="Property",
        definition=(
            "A Power acts upon one or more Properties, so it can look at them "
            "or update the status of the Thing's properties."
        ),
        multiplicity=(1, None),
        axiom_links=frozenset({"A2"}),
        notes=(
            "This relationship represents internal actions, i.e., on the same "
            "Thing, not on other Things. This constraint is specified by "
            "axiom A2.",
        ),
    ),
    RelationshipSpec(
        key="belongsTo",
        display="belongs to",
        domain="Thing",
        range="ThingCategory",
        definition="Particular Things may belong to none or more Thing Categories.",
        multiplicity=(0, None),
        notes=(
            "A Thing Category predicates about a set of particular Things and "
            "their instances.",
        ),
    ),
    RelationshipSpec(
        key="dealsWithParticulars",
        display="deals with particulars",
        domain="AssertionOnParticulars",
        range="Thing",
        definition=(
            "An Assertion on Particulars deals with particular Things, both "
            "classes/subtypes and instances."
        ),
    ),
    RelationshipSpec(
        key="dealsWithUniversals",
        display="deals with universals",
        domain="AssertionOnUniversals",
        range="ThingCategory",
        definition=(
            "An Assertion on Universals deals with universal Things, which "
            "are categories."
        ),
    ),
    RelationshipSpec(
        key="defines",
        display="defines",
        domain="Thing",
        range="Assertion",
        definition="A Thing defines none or many Assertions.",
        multiplicity=(0, None),
        notes=(
            "For example, a particular Thing such as a Human Agent defines or "
            "conceives Assertions, such as Goals, Situations, among many "
            "others.",
        ),
    ),
    RelationshipSpec(
        key="enables",
        display="enables",
        domain="Property",
        range="Power",
        definition="A Property enables the Powers of a particular Thing.",
        axiom_links=frozenset({"A1"}),
        notes=(
            "Because the Properties of a Thing are there, the Entity behavior "
            "can be enabled and manifested.",
            "This relationship is restricted by axiom A1.",
        ),
    ),
    RelationshipSpec(
        key="generalizes",
        display="generalizes",
        domain="AssertionOnUniversals",
        range="AssertionOnParticulars",
        definition=(
            "An Assertion on Universals abstracts none or more Assertions on "
            "Particulars."
        ),
        multiplicity=(0, None),
    ),
    RelationshipSpec(
        key="interactsWithOther",
        display="interacts with other",
        domain="Power",
        range="Thing",
        definition=(
            "Due to the Power of a Thing, particular Things interact with "
            "each other."
        ),
        axiom_links=frozenset({"A3"}),
        notes=(
            "This relationship represents actions on other Things, not on the "
            "same Thing. This constraint is specified by axiom A3.",
        ),
    ),
    RelationshipSpec(
        key="isSeenAsOther",
        display="is seen as other",
        domain="Property",
        range="Thing",
        definition="A Property most of the time is seen as another Thing.",
        notes=(
            "\"Most of the time\" states a tendency, not a constraint: a Property "
            "may be seen as the Thing it belongs to, so no check enforces \"other\", "
            "and a Property with no isSeenAs fact is never flagged.",
        ),
    ),
    RelationshipSpec(
        key="relatesWith",
        display="relates with",
        domain="Thing",
        range="Thing",
        definition="A Thing relates to other particular Things.",
    ),
    RelationshipSpec(
        key="relatesWith",
        display="relates with",
        domain="ThingCategory",
        range="ThingCategory",
        definition="A Thing Category may be related to other universal Things.",
    ),
    RelationshipSpec(
        key="relatesWith",
        display="relates with",
        domain="Assertion",
        range="Assertion",
        definition="An Assertion may be related to other Assertions.",
    ),
)

#: Each machine key's relationship specs (1 or 3 variants), in catalog order.
_RELATIONSHIP_VARIANTS: dict[str, tuple[RelationshipSpec, ...]] = {
    key: tuple(r for r in _RELATIONSHIPS if r.key == key) for key in dict.fromkeys(r.key for r in _RELATIONSHIPS)
}

#: Machine keys addressable as `ThingFO.<key>` from relation declarations.
RELATIONSHIP_KEYS: tuple[str, ...] = tuple(_RELATIONSHIP_VARIANTS)

#: World fact predicates of the DSL, in grammar order, mapped to the
#: relationship each fact grounds (the first variant of its key, so
#: `relatesWith` relates Things). A side whose sort is Property or Power is a
#: `thing.part` of that sort, a Thing side is a thing of the world, and any
#: other side is a term whose enrichment root must be that sort.
WORLD_PREDICATES: dict[str, RelationshipSpec] = {
    predicate: _RELATIONSHIP_VARIANTS[key][0]
    for predicate, key in (
        ("enables", "enables"),
        ("actsUpon", "actsUpon"),
        ("interacts", "interactsWithOther"),
        ("belongsTo", "belongsTo"),
        ("relatesWith", "relatesWith"),
        ("isSeenAs", "isSeenAsOther"),
        ("defines", "defines"),
    )
}


# ---------------------------------------------------------------------------
# Axioms and architecture rules.
# ---------------------------------------------------------------------------

AXIOMS: dict[str, AxiomSpec] = {
    "A1": AxiomSpec(
        id="A1",
        description="All Property of a Thing enables only its Powers.",
        constraint="enables(prop, pow) -> partOf(pow, t)",
        formula=(
            "forall t, prop, pow: Thing(t) and Property(prop) and "
            "partOf(prop, t) and Power(pow) and enables(prop, pow) "
            "-> partOf(pow, t)"
        ),
    ),
    "A2": AxiomSpec(
        id="A2",
        description="The Power of a Thing only acts upon its Properties.",
        constraint="actsUpon(pow, prop) -> partOf(prop, t)",
        formula=(
            "forall t, pow, prop: Thing(t) and Power(pow) and partOf(pow, t) "
            "and Property(prop) and actsUpon(pow, prop) -> partOf(prop, t)"
        ),
    ),
    "A3": AxiomSpec(
        id="A3",
        description="The Power of a Thing only interacts with other Things.",
        constraint="partOf(pow, t) -> not interactsWithOther(pow, t)",
        formula=(
            "forall t, pow: Thing(t) and Power(pow) and partOf(pow, t) "
            "-> not interactsWithOther(pow, t)"
        ),
    ),
}

ARCHITECTURE_RULES: dict[str, str] = {
    "G1": (
        "An ontology cannot be conceived in isolation from an explicit "
        "layered ontological architecture; a foundational ontology must be "
        "found at the upper or top level of the architecture."
    ),
    "G2": (
        "At the Foundational Ontological Level, in order to comply with the "
        "principle of completeness and conciseness along with the principle "
        "of delegation of concerns, only one foundational ontology must be "
        "found."
    ),
    "R1": (
        "Any new ontology located at level CO, or TDO, or LDO must guarantee "
        "a correspondence of its elements with the elements defined at the "
        "immediately higher level. This allows the terms and relationships "
        "of the lower-level ontologies to be semantically enriched by the "
        "terms and relationships of the higher-level ontologies."
    ),
    "R2": (
        "Ontologies of the same level, except at the FO level, can be "
        "related to each other, but it must be guaranteed that their joint "
        "definition (as a whole) does not violate the principles of the next "
        "higher level."
    ),
    "R3": (
        "At the Instance Ontological Level, only individuals of particular "
        "Things can be found. A Thing as a particular class, or any of its "
        "subclasses with the semantics of Thing at the lower levels, results "
        "in instances; an individual is an instance of a particular class at "
        "higher levels."
    ),
}


# ---------------------------------------------------------------------------
# Queries.
# ---------------------------------------------------------------------------

def all_term_specs() -> list[FoundationalTermSpec]:
    """The full term catalog in its fixed documented order (length 19)."""
    return list(_TERMS)


def all_property_specs() -> list[PropertySpec]:
    """The 10 property specs, grouped by owner term in catalog order."""
    return list(_PROPERTIES)


def all_relationship_specs() -> list[RelationshipSpec]:
    """The 12 relationship specs; the `relates with` variants are distinct."""
    return list(_RELATIONSHIPS)


def term_spec(term_id: str) -> FoundationalTermSpec:
    """Look up one term by id; raises KeyError for unknown ids."""
    return _TERM_INDEX[term_id]


def is_term(term_id: str) -> bool:
    return term_id in _TERM_INDEX


def is_descendant(a: str, b: str) -> bool:
    """True iff `a` equals `b` or `b` appears on `a`'s parent chain."""
    if a not in _TERM_INDEX or b not in _TERM_INDEX:
        raise KeyError(f"unknown foundational term: {a if a not in _TERM_INDEX else b}")
    current: str | None = a
    while current is not None:
        if current == b:
            return True
        current = _TERM_INDEX[current].parent
    return False


def root_kind(term_id: str) -> RootKind:
    """The root of `term_id`'s parent chain."""
    return _ROOT_KINDS[term_id]


def property_keys_for_root(root: RootKind) -> tuple[str, ...]:
    """Attribute keys a term rooted at `root` may declare."""
    return _PROPERTY_KEYS[root]


def relationship_variants(key: str) -> tuple[RelationshipSpec, ...]:
    """All relationship specs with the given machine key (1 or 3 entries;
    none for an unknown key)."""
    return _RELATIONSHIP_VARIANTS.get(key, ())


def is_relationship_key(key: str) -> bool:
    return key in _RELATIONSHIP_VARIANTS
