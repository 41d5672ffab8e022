"""The records: slotted classes that compare and hash by their fields (a
node's span aside) and show every field in their `repr`, and AST nodes that a
verdict never changes.

AST nodes, findings, chain outcomes, reports and the parsed suite are plain
slotted classes (`source.Record`); the catalog entries are `NamedTuple`s.
The plain records are not frozen, so nothing stops an assignment to a field;
`test_a_verdict_never_changes_the_ast` guards the AST instead, field by
field and spans included (`tree` in `conftest.py`).
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings

from conftest import load_bench, load_fig2, tree
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
    resolve,
)
from ontoarch.metamodel import AxiomSpec, FoundationalTermSpec, PropertySpec, RelationshipSpec
from ontoarch.parser import SuiteAst, parse_suite
from ontoarch.reporting import CodeDoc, Diagnostic, Report
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
        {"predicate": "enables", "left": QualifiedRef("x", "p"), "right": QualifiedRef("x", "q")},
        {"predicate": "actsUpon", "left": QualifiedRef("y", "q"), "right": QualifiedRef("y", "p")},
    ),
    (
        World,
        {"name": "w", "things": (), "facts": ()},
        {
            "name": "v",
            "things": (ThingNode("x"),),
            "facts": (Fact("interacts", QualifiedRef("x", "q"), QualifiedRef(None, "y")),),
        },
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
    (
        FoundationalTermSpec,
        {"id": "Thing", "display": "Thing", "parent": None, "synonyms": ("Object",), "definition": "d", "notes": ()},
        {"id": "Power", "display": "Power", "parent": "Thing", "synonyms": (), "definition": "e", "notes": ("n",)},
    ),
    (
        PropertySpec,
        {"owner": "Thing", "key": "name", "display": "name", "definition": "d", "notes": ()},
        {"owner": "Power", "key": "description", "display": "description", "definition": "e", "notes": ("n",)},
    ),
    (
        RelationshipSpec,
        {
            "key": "actsUpon",
            "display": "acts upon",
            "domain": "Power",
            "range": "Property",
            "definition": "d",
            "multiplicity": (1, None),
            "axiom_links": frozenset({"A2"}),
            "notes": (),
        },
        {
            "key": "enables",
            "display": "enables",
            "domain": "Property",
            "range": "Power",
            "definition": "e",
            "multiplicity": None,
            "axiom_links": frozenset(),
            "notes": ("n",),
        },
    ),
    (
        AxiomSpec,
        {"id": "A1", "description": "d", "constraint": "c", "formula": "f"},
        {"id": "A2", "description": "e", "constraint": "k", "formula": "g"},
    ),
    (
        CodeDoc,
        {"title": "t", "rule": None, "anchor": "", "example": "x"},
        {"title": "u", "rule": "R1", "anchor": "a", "example": "y"},
    ),
    (
        Report,
        {"diagnostics": (), "summary": {}},
        {"diagnostics": (Diagnostic("W201", "m", SPAN),), "summary": {"terms": 1}},
    ),
)


@pytest.mark.parametrize(("cls", "fields", "others"), RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_slotted_and_compare_by_their_fields(cls, fields, others):
    names = set(cls._fields)
    assert set(others) == set(fields) and names - set(fields) <= {"span"}
    record = cls(**fields)
    assert not hasattr(record, "__dict__")
    twin = cls(**fields)
    assert twin == record
    if cls is not Report:  # a report's summary is a dict
        assert hash(twin) == hash(record)

    for name, value in others.items():
        assert value != fields[name]
        assert cls(**{**fields, name: value}) != record, name

    if "span" in names and "span" not in fields:
        moved = cls(**fields, span=OTHER_SPAN)
        assert moved.span != record.span
        assert moved == record and hash(moved) == hash(record)


BUILTIN_SPAN = "SourceSpan(file='<builtin>', start_line=1, start_col=1, end_line=1, end_col=1)"

#: The `repr` of each record built from its `RECORDS` fields: every field,
#: spans included, as `Name(field=value, ...)`.
REPRS = {
    "QualifiedRef": f"QualifiedRef(module='M', name='t', span={BUILTIN_SPAN})",
    "ImportRef": f"ImportRef(name='M', span={BUILTIN_SPAN})",
    "AttrPair": f"AttrPair(key='description', value='d', span={BUILTIN_SPAN})",
    "TermDef": (
        f"TermDef(name='t', enriches=QualifiedRef(module='ThingFO', name='Thing', "
        f"span={BUILTIN_SPAN}), scope=None, attributes=(), span={BUILTIN_SPAN})"
    ),
    "RelationDecl": (
        f"RelationDecl(name='r', from_ref=QualifiedRef(module=None, name='a', "
        f"span={BUILTIN_SPAN}), to_ref=QualifiedRef(module=None, name='b', "
        f"span={BUILTIN_SPAN}), kind_ref=QualifiedRef(module='ThingFO', name='relatesWith', "
        f"span={BUILTIN_SPAN}), span={BUILTIN_SPAN})"
    ),
    "OntologyModule": f"OntologyModule(name='M', level=<Level.CO: 1>, imports=(), body=(), span={BUILTIN_SPAN})",
    "PartDecl": f"PartDecl(name='p', span={BUILTIN_SPAN})",
    "ThingNode": f"ThingNode(name='x', instance_of=None, properties=(), powers=(), span={BUILTIN_SPAN})",
    "Fact": (
        f"Fact(predicate='enables', left=QualifiedRef(module='x', name='p', "
        f"span={BUILTIN_SPAN}), right=QualifiedRef(module='x', name='q', span={BUILTIN_SPAN}), "
        f"span={BUILTIN_SPAN})"
    ),
    "World": f"World(name='w', things=(), facts=(), span={BUILTIN_SPAN})",
    "Individual": (
        f"Individual(name='i', type_ref=QualifiedRef(module=None, name='T', "
        f"span={BUILTIN_SPAN}), span={BUILTIN_SPAN})"
    ),
    "InstanceFile": f"InstanceFile(of_module='M', body=(), span={BUILTIN_SPAN})",
    "Diagnostic": (
        "Diagnostic(code='E001', message='m', span=SourceSpan(file='a.onto', start_line=1, "
        "start_col=1, end_line=1, end_col=5), rule=None, anchor='', witness=None)"
    ),
    "ChainStatus": "ChainStatus(outcome='foundational', key='belongsTo', detail='', cycle=(), index=0, escapes=False)",
    "FoundationalTermSpec": (
        "FoundationalTermSpec(id='Thing', display='Thing', parent=None, "
        "synonyms=('Object',), definition='d', notes=())"
    ),
    "PropertySpec": "PropertySpec(owner='Thing', key='name', display='name', definition='d', notes=())",
    "RelationshipSpec": (
        "RelationshipSpec(key='actsUpon', display='acts upon', domain='Power', "
        "range='Property', definition='d', multiplicity=(1, None), "
        "axiom_links=frozenset({'A2'}), notes=())"
    ),
    "AxiomSpec": "AxiomSpec(id='A1', description='d', constraint='c', formula='f')",
    "CodeDoc": "CodeDoc(title='t', rule=None, anchor='', example='x')",
    "Report": "Report(diagnostics=(), summary={})",
}


@pytest.mark.parametrize(("cls", "fields"), [r[:2] for r in RECORDS], ids=[r[0].__name__ for r in RECORDS])
def test_record_repr_shows_every_field(cls, fields):
    assert repr(cls(**fields)) == REPRS[cls.__name__]


#: Each container, the field it splits and the slots it splits it into,
#: with the declaration type each keeps.
SPLITS = {
    SuiteAst: ("decls", {"modules": OntologyModule, "instance_files": InstanceFile}),
    OntologyModule: ("body", {"terms": TermDef, "relations": RelationDecl}),
    InstanceFile: ("body", {"individuals": Individual, "worlds": World}),
}


def _assert_split(container) -> None:
    """Each derived tuple of `container` is its split field filtered by
    type, in order, and every declaration lands in one of them."""
    field, derived = SPLITS[type(container)]
    decls = getattr(container, field)
    for name, kind in derived.items():
        assert getattr(container, name) == tuple(d for d in decls if isinstance(d, kind)), name
    assert sum(len(getattr(container, name)) for name in derived) == len(decls)


def _assert_splits_once(ast: SuiteAst) -> None:
    for container in (ast, *ast.decls):
        cls = type(container)
        derived = SPLITS[cls][1]
        _assert_split(container)
        assert cls.__slots__ == cls._fields + tuple(derived)
        for name in derived:
            assert getattr(container, name) is getattr(container, name)
        # The derived slots take no part in equality, hashing or `repr`.
        twin = cls(**{name: getattr(container, name) for name in cls._fields})
        for name in derived:
            setattr(twin, name, ())
        assert twin == container and hash(twin) == hash(container) and repr(twin) == repr(container)


def _interleaved() -> SuiteAst:
    ref = QualifiedRef(None, "a")
    module = OntologyModule("M", Level.CO, body=(
        TermDef("a", QualifiedRef("ThingFO", "Thing")),
        RelationDecl("r", ref, ref, QualifiedRef("ThingFO", "relatesWith")),
        TermDef("b", ref),
        RelationDecl("s", ref, ref, QualifiedRef(None, "r")),
        TermDef("c", ref),
    ))
    instances = InstanceFile("M", (World("w"), Individual("i", ref), World("v"), Individual("j", ref)))
    return SuiteAst((instances, module, InstanceFile("M"), OntologyModule("N", Level.TDO)))


def test_suite_ast_splits_its_declarations_once():
    module, instances = OntologyModule("M", Level.CO), InstanceFile("M")
    ast = SuiteAst((instances, module))
    assert ast.modules == (module,) and ast.instance_files == (instances,)
    assert ast == SuiteAst((instances, module)) and hash(ast) == hash(SuiteAst((instances, module)))
    assert ast != SuiteAst((module, instances))
    assert repr(SuiteAst((module,))) == f"SuiteAst(decls=({REPRS['OntologyModule']},))"

    # So do the modules and instance files, parsed or built.
    generators = load_bench("generators")
    _assert_splits_once(_interleaved())
    _assert_splits_once(parse_suite(load_fig2())[0])
    for workload in ("wide_clean", "deep_chains", "dirty_worlds"):
        _assert_splits_once(parse_suite(list(getattr(generators, workload)(1).files.items()))[0])


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
    # `tree` walks fields only: the split each container made when it was
    # built must still match its declarations.
    for container in (ast, *ast.decls):
        _assert_split(container)


@settings(max_examples=300, deadline=None)
@given(suites())
def test_a_verdict_never_changes_the_ast(files):
    _assert_verdict_keeps_ast(files)


@pytest.mark.parametrize("workload", ["wide_clean", "deep_chains", "dirty_worlds"])
def test_a_verdict_never_changes_the_ast_of_bench_suites(workload):
    suite = getattr(load_bench("generators"), workload)(1)
    _assert_verdict_keeps_ast(list(suite.files.items()))
