"""ontoarch: definition language and conformance validator for layered
ontology suites grounded in the ThingFO v1.3 foundational ontology."""

from .metamodel import (
    BUILTIN_MODULE,
    PROPERTIES,
    RELATIONSHIPS,
    TERMS,
    THINGFO_VERSION,
    RootKind,
    is_descendant,
)
from .model import (
    Fact,
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
    resolve,
)
from .parser import SuiteAst, parse_suite, tokenize
from .reporting import Diagnostic, Report, exit_code, render_json, render_text
from .validator import (
    check_architecture,
    check_axioms,
    check_property_conformance,
    check_relationship_conformance,
    check_rule1,
    check_rule2,
    check_rule3,
    validate_suite,
)

__version__ = "0.1.0"

#: Names that live in `ontoarch.cli`. They are looked up on first use, so
#: `import ontoarch` does not import the CLI, and `python -m ontoarch.cli`
#: runs a module that is not yet in `sys.modules`.
_CLI_NAMES = frozenset({"build_report", "explain", "export_graph", "run"})


def __getattr__(name: str):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BUILTIN_MODULE",
    "PROPERTIES",
    "RELATIONSHIPS",
    "TERMS",
    "THINGFO_VERSION",
    "RootKind",
    "is_descendant",
    "Fact",
    "Individual",
    "InstanceFile",
    "Level",
    "OntologyModule",
    "QualifiedRef",
    "RelationDecl",
    "ResolvedSuite",
    "TermDef",
    "ThingNode",
    "World",
    "resolve",
    "SuiteAst",
    "parse_suite",
    "tokenize",
    "Diagnostic",
    "Report",
    "exit_code",
    "render_json",
    "render_text",
    "check_architecture",
    "check_axioms",
    "check_property_conformance",
    "check_relationship_conformance",
    "check_rule1",
    "check_rule2",
    "check_rule3",
    "validate_suite",
    "build_report",
    "explain",
    "export_graph",
    "run",
    "__version__",
]
