"""The per-declaration and per-finding records: slotted dataclasses that
compare and hash by their fields (a node's span aside), and AST nodes that a
verdict never changes.

The records are not frozen, so nothing stops an assignment to a field;
`test_a_verdict_never_changes_the_ast` guards the AST instead, field by
field and spans included (`tree` in `conftest.py`).
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings

from conftest import load_bench, tree
from test_file_order import suites

from ontoarch import cli
from ontoarch.model import (
    AttrPair,
    ChainStatus,
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
    resolve,
)
from ontoarch.parser import parse_suite
from ontoarch.reporting import Diagnostic
from ontoarch.source import SourceSpan
from ontoarch.validator import validate_suite

SPAN = SourceSpan("a.onto", 1, 1, 1, 5)
OTHER_SPAN = SourceSpan("b.onto", 2, 3, 4, 5)

#: Each record class with the fields of one instance and, for each of them,
#: a value that differs from that instance's. A node's span is left out: it
#: does not take part in equality. A finding's span does: the same finding
#: at two places is two findings.
RECORDS = (
    (QualifiedRef, {"module": "M", "name": "t"}, {"module": None, "name": "u"}),
    (ImportRef, {"name": "M"}, {"name": "N"}),
    (AttrPair, {"key": "description", "value": "d"}, {"key": "name", "value": "e"}),
    (
        TermDef,
        {"name": "t", "enriches": QualifiedRef("ThingFO", "Thing"), "scope": None, "attributes": ()},
        {
            "name": "u",
            "enriches": QualifiedRef(None, "t"),
            "scope": "particulars",
            "attributes": (AttrPair("description", "d"),),
        },
    ),
    (
        RelationDecl,
        {
            "name": "r",
            "from_ref": QualifiedRef(None, "a"),
            "to_ref": QualifiedRef(None, "b"),
            "kind_ref": QualifiedRef("ThingFO", "relatesWith"),
        },
        {
            "name": "s",
            "from_ref": QualifiedRef("M", "a"),
            "to_ref": QualifiedRef("M", "b"),
            "kind_ref": QualifiedRef(None, "r"),
        },
    ),
    (
        OntologyModule,
        {"name": "M", "level": Level.CO, "imports": (), "body": ()},
        {"name": "N", "level": Level.TDO, "imports": (ImportRef("P"),), "body": (TermDef("t", None),)},
    ),
    (WorldRef, {"primary": "x", "part": None}, {"primary": "y", "part": "p"}),
    (PartDecl, {"name": "p"}, {"name": "q"}),
    (
        ThingNode,
        {"name": "x", "instance_of": None, "properties": (), "powers": ()},
        {
            "name": "y",
            "instance_of": QualifiedRef(None, "T"),
            "properties": (PartDecl("p"),),
            "powers": (PartDecl("q"),),
        },
    ),
    (
        Fact,
        {"predicate": "enables", "left": WorldRef("x", "p"), "right": WorldRef("x", "q")},
        {"predicate": "actsUpon", "left": WorldRef("y", "q"), "right": WorldRef("y", "p")},
    ),
    (
        World,
        {"name": "w", "things": (), "facts": ()},
        {"name": "v", "things": (ThingNode("x"),), "facts": (Fact("interacts", WorldRef("x", "q"), WorldRef("y")),)},
    ),
    (Individual, {"name": "i", "type_ref": QualifiedRef(None, "T")}, {"name": "j", "type_ref": QualifiedRef("M", "T")}),
    (InstanceFile, {"of_module": "M", "body": ()}, {"of_module": "N", "body": (World("w"),)}),
    (
        Diagnostic,
        {"code": "E001", "message": "m", "span": SPAN, "rule": None, "anchor": "", "witness": None},
        {"code": "E211", "message": "n", "span": OTHER_SPAN, "rule": "R1", "anchor": "a", "witness": "w"},
    ),
    (
        ChainStatus,
        {"outcome": "foundational", "key": "belongsTo", "detail": "", "cycle": (), "index": 0, "escapes": False},
        {
            "outcome": "dead_end",
            "key": None,
            "detail": "kind of M.r leaves the import-connected component (N is not related to M)",
            "cycle": ("M.r", "M.s"),
            "index": 1,
            "escapes": True,
        },
    ),
)


@pytest.mark.parametrize(("cls", "fields", "others"), RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_slotted_and_compare_by_their_fields(cls, fields, others):
    names = {f.name for f in dataclasses.fields(cls)}
    assert set(others) == set(fields) and names - set(fields) <= {"span"}
    record = cls(**fields)
    assert not hasattr(record, "__dict__")
    twin = cls(**fields)
    assert twin == record and hash(twin) == hash(record)

    for name, value in others.items():
        assert value != fields[name]
        assert dataclasses.replace(record, **{name: value}) != record, name

    if "span" in names and "span" not in fields:
        moved = dataclasses.replace(record, span=OTHER_SPAN)
        assert moved.span != record.span
        assert moved == record and hash(moved) == hash(record)


def _assert_verdict_keeps_ast(files: list[tuple[str, str]]) -> None:
    """Resolve, validate and report on one parse of `files`, and check that
    its declarations and diagnostics are as they were, spans included."""
    ast, diagnostics = parse_suite(files)
    before = tree((ast.decls, diagnostics))
    suite, _ = resolve(ast.modules, ast.instance_files)
    if suite is not None:
        validate_suite(suite)
    # `build_report` parses its files itself; hand it the same parse.
    with mock.patch.object(cli, "parse_suite", return_value=(ast, diagnostics)):
        cli.build_report(files)
    assert tree((ast.decls, diagnostics)) == before


@settings(max_examples=300, deadline=None)
@given(suites())
def test_a_verdict_never_changes_the_ast(files):
    _assert_verdict_keeps_ast(files)


@pytest.mark.parametrize("workload", ["wide_clean", "deep_chains", "dirty_worlds"])
def test_a_verdict_never_changes_the_ast_of_bench_suites(workload):
    suite = getattr(load_bench("generators"), workload)(1)
    _assert_verdict_keeps_ast(list(suite.files.items()))
