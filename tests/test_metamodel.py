"""Catalog totals, taxonomy properties and relationship annotations."""

from __future__ import annotations

import itertools
import re

import pytest

from ontoarch import metamodel, parser, reporting
from ontoarch.cli import build_report
from ontoarch.metamodel import (
    PROPERTIES,
    RELATIONSHIP_VARIANTS,
    RELATIONSHIPS,
    ROOT_SCHEMAS,
    TERM_SPECS,
    TERMS,
    RootKind,
    is_descendant,
)
from ontoarch.reporting import severity_of

ROOTS = {"Thing", "Property", "Power", "ThingCategory", "Assertion"}


def test_catalog_totals():
    assert len(TERMS) == 19
    assert len(PROPERTIES) == 10
    assert len(RELATIONSHIPS) == 12


def test_term_ids_unique_and_stable():
    ids = list(TERM_SPECS)
    assert len(set(ids)) == 19
    assert ids[:5] == ["Thing", "Property", "Power", "ThingCategory", "Assertion"]
    assert {"Thing", "ThingCategory", "Assertion"} <= set(ids)


def test_the_catalogs_are_tuples_and_the_term_index_follows_their_order():
    assert all(type(table) is tuple for table in (TERMS, PROPERTIES, RELATIONSHIPS))
    assert list(TERM_SPECS) == [t.id for t in TERMS]
    assert all(TERM_SPECS[t.id] is t for t in TERMS)


#: The keyed tables of `metamodel`; `reporting.CODE_CATALOG` is the package's other one.
KEYED_TABLES = ("ROOT_SCHEMAS", "TERM_SPECS", "RELATIONSHIP_VARIANTS", "WORLD_PREDICATES", "AXIOMS",
                "ARCHITECTURE_RULES", "SCOPE_FACETS")


@pytest.mark.parametrize("owner, name", [*((metamodel, n) for n in KEYED_TABLES), (reporting, "CODE_CATALOG")],
                         ids=[*KEYED_TABLES, "CODE_CATALOG"])
def test_no_keyed_table_can_be_written(owner, name):
    """A write to a catalog table would change every later verdict in the
    process: `ROOT_SCHEMAS['Thing']` without `description` makes a clean
    suite report W201. Each table refuses a changed entry, a new one and a
    deletion, and a clean suite stays clean after the attempts."""
    table = getattr(owner, name)
    key = next(iter(table))
    entry = table[key]
    with pytest.raises(TypeError):
        table[key] = (RootKind.THING, ("name",))
    with pytest.raises(TypeError):
        table["Extra"] = entry
    with pytest.raises(TypeError):
        del table[key]
    assert not hasattr(table, "update") and table[key] is entry and "Extra" not in table
    report = build_report([("a.onto", 'ontology A at CO { term X enriches ThingFO.Thing { description "d" } }')])
    assert report.diagnostics == ()


def test_assertion_synonym():
    assertion = TERM_SPECS["Assertion"]
    assert "Human Expression" in assertion.synonyms


def test_thing_synonyms():
    thing = TERM_SPECS["Thing"]
    assert thing.synonyms == ("Particular Thing", "Object", "Entity", "Instance", "Individual")


def test_taxonomy_is_forest_rooted_at_the_five_roots():
    for spec in TERMS:
        if spec.id in ROOTS:
            assert spec.parent is None
        else:
            # every subtype chain ends at Assertion
            cur = spec
            seen = set()
            while cur.parent is not None:
                assert cur.id not in seen, "taxonomy must be acyclic"
                seen.add(cur.id)
                cur = TERM_SPECS[cur.parent]
            assert cur.id == "Assertion"


def test_every_term_maps_to_exactly_one_root():
    assert list(ROOT_SCHEMAS) == list(TERM_SPECS)
    for spec in TERMS:
        kind = ROOT_SCHEMAS[spec.id][0]
        assert isinstance(kind, RootKind)
        root = spec
        while root.parent is not None:
            root = TERM_SPECS[root.parent]
        assert kind is RootKind(root.id)


def _descendant_oracle() -> dict[tuple[str, str], bool]:
    """Independent reflexive-transitive closure of the parent table."""
    parents = {t.id: t.parent for t in TERMS}
    closure: dict[tuple[str, str], bool] = {}
    for a in parents:
        ancestors = {a}
        cur = parents[a]
        while cur is not None:
            ancestors.add(cur)
            cur = parents[cur]
        for b in parents:
            closure[(a, b)] = b in ancestors
    return closure


def test_is_descendant_matches_exhaustive_matrix():
    oracle = _descendant_oracle()
    ids = list(TERM_SPECS)
    for a, b in itertools.product(ids, ids):
        assert is_descendant(a, b) == oracle[(a, b)], (a, b)


def test_is_descendant_examples():
    assert is_descendant("QualityAssertion", "Assertion") is True
    assert is_descendant("Thing", "Thing") is True
    assert is_descendant("Thing", "ThingCategory") is False


def test_is_descendant_is_a_partial_order_per_tree():
    ids = list(TERM_SPECS)
    for a in ids:
        assert is_descendant(a, a)
    for a, b in itertools.product(ids, ids):
        if a != b and is_descendant(a, b):
            assert not is_descendant(b, a), (a, b)
    for a, b, c in itertools.product(ids, ids, ids):
        if is_descendant(a, b) and is_descendant(b, c):
            assert is_descendant(a, c), (a, b, c)


def test_is_descendant_rejects_unknown_ids():
    with pytest.raises(KeyError):
        is_descendant("Thing", "Zorp")
    with pytest.raises(KeyError):
        is_descendant("Zorp", "Thing")


def test_root_kind_examples():
    assert ROOT_SCHEMAS["ThingCategory"][0] is RootKind.THING_CATEGORY
    assert ROOT_SCHEMAS["TimeAssertion"][0] is RootKind.ASSERTION
    assert ROOT_SCHEMAS["Power"][0] is RootKind.POWER
    assert ROOT_SCHEMAS["AssertionOnUniversals"][0] is RootKind.ASSERTION


def test_property_grouping():
    by_owner: dict[str, list[str]] = {}
    for p in PROPERTIES:
        by_owner.setdefault(p.owner, []).append(p.key)
    assert by_owner == {
        "Thing": ["name", "description"],
        "Property": ["name", "structural_description"],
        "Power": ["name", "behavioral_description"],
        "ThingCategory": ["descriptive_statement"],
        "Assertion": ["name", "positive_statement", "specification"],
    }


def test_thing_category_owns_exactly_one_property():
    keys = [p.key for p in PROPERTIES if p.owner == "ThingCategory"]
    assert keys == ["descriptive_statement"]


def test_relationship_names_and_variants():
    keys = [r.key for r in RELATIONSHIPS]
    assert keys.count("relatesWith") == 3
    assert set(keys) == {
        "actsUpon", "belongsTo", "dealsWithParticulars", "dealsWithUniversals",
        "defines", "enables", "generalizes", "interactsWithOther",
        "isSeenAsOther", "relatesWith",
    }
    variants = RELATIONSHIP_VARIANTS["relatesWith"]
    assert [(v.domain, v.range) for v in variants] == [
        ("Thing", "Thing"),
        ("ThingCategory", "ThingCategory"),
        ("Assertion", "Assertion"),
    ]


def test_relationship_variants_are_one_table_built_at_import():
    assert list(RELATIONSHIP_VARIANTS) == list(dict.fromkeys(r.key for r in RELATIONSHIPS))
    for key, variants in RELATIONSHIP_VARIANTS.items():
        assert variants == tuple(r for r in RELATIONSHIPS if r.key == key)
    for unknown in ("", "relates", "Thing", "interacts"):
        assert unknown not in RELATIONSHIP_VARIANTS


def test_relationship_axiom_links():
    links = {r.key: r.axiom_links for r in RELATIONSHIPS if r.axiom_links}
    assert links == {
        "enables": frozenset({"A1"}),
        "actsUpon": frozenset({"A2"}),
        "interactsWithOther": frozenset({"A3"}),
    }


def test_belongs_to_multiplicity():
    (spec,) = RELATIONSHIP_VARIANTS["belongsTo"]
    assert spec.multiplicity == (0, None)


def test_acts_upon_multiplicity_is_a_warning():
    (spec,) = RELATIONSHIP_VARIANTS["actsUpon"]
    assert spec.multiplicity == (1, None)
    assert severity_of("W301") == "warning"


def test_is_seen_as_other_carries_no_cardinality():
    (spec,) = RELATIONSHIP_VARIANTS["isSeenAsOther"]
    assert spec.multiplicity is None


def test_relationship_endpoints_reference_known_terms():
    for r in RELATIONSHIPS:
        assert r.domain in TERM_SPECS, r
        assert r.range in TERM_SPECS, r


def test_property_vocabulary_is_closed_over_roots():
    catalog_keys = {p.key for p in PROPERTIES}
    from_roots = set()
    for root in RootKind:
        from_roots.update(ROOT_SCHEMAS[root.value][1])
    assert from_roots == catalog_keys


def test_predicates_map_to_relationship_keys():
    grammar = re.search(r'predicate +:=((?:\s*\|?\s*"\w+")+)', parser.__doc__)
    assert list(metamodel.WORLD_PREDICATES) == re.findall(r'"(\w+)"', grammar.group(1))
    for spec in metamodel.WORLD_PREDICATES.values():
        assert spec in RELATIONSHIPS
        assert spec.domain in ("Property", "Power", "Thing"), spec
