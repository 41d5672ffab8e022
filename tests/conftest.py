"""Shared fixtures: the fig2 corpus and its single-edit mutants, the
benchmark's suite generators, and a field-by-field walk of AST nodes."""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from ontoarch.source import SourceSpan

FIXTURES = Path(__file__).parent / "fixtures"
FIG2 = FIXTURES / "fig2"

#: Ten single-edit mutants of the fig2 suite. Each entry is
#: (expected_code, file, needle, replacement); the E201 mutant appends a new
#: module after the last closing brace instead of replacing the first match.
MUTATIONS: tuple[tuple[str, str, str, str], ...] = (
    ("E201", "acme_ldo.onto", "@append", "\nontology AcmeFO at FO {\n}\n"),
    (
        "E202",
        "testing_tdo.onto",
        "ontology TestingTDO at TDO {",
        "ontology TestingTDO at TDO {\n  imports ProcessCO",
    ),
    ("E211", "acme_ldo.onto", "enriches TestingTDO.TestCase", "enriches ProcessCO.Activity"),
    ("E212", "acme_ldo.onto", "kind TestingTDO.exercises", "kind schedules"),
    (
        "E231",
        "process_co.onto",
        "relation categorizes from Process to ProductCategory kind ThingFO.belongsTo",
        "relation categorizes from Process to ProcessGoal kind ThingFO.belongsTo",
    ),
    (
        "E232",
        "acme_instances.onto",
        "belongsTo(run1, ProcessCO.ProductCategory)",
        "belongsTo(run1, ProcessCO.Process)",
    ),
    (
        "E301",
        "acme_instances.onto",
        "individual loginCheck : SmokeCase",
        "individual loginCheck : SmokeCase\n  individual catA : ProcessCO.ProductCategory",
    ),
    (
        "E311",
        "acme_instances.onto",
        "enables(run1.plan, run1.execute)",
        "enables(run1.plan, case1.verify)",
    ),
    (
        "E312",
        "acme_instances.onto",
        "actsUpon(run1.execute, run1.plan)",
        "actsUpon(run1.execute, case1.script)",
    ),
    (
        "E313",
        "acme_instances.onto",
        "interacts(run1.execute, case1)",
        "interacts(run1.execute, run1)",
    ),
)


def tree(node):
    """A node, or a list or tuple of them, as nested tuples of type names,
    field values and spans. Nodes compare without their spans (`span` is
    `compare=False`); their trees compare with them."""
    if isinstance(node, SourceSpan):
        return ("span", *node)
    if dataclasses.is_dataclass(node):
        return (type(node).__name__, *(tree(getattr(node, f.name)) for f in dataclasses.fields(node)))
    if isinstance(node, (list, tuple)):
        return tuple(tree(item) for item in node)
    return node


def load_fig2() -> list[tuple[str, str]]:
    return [(p.name, p.read_text(encoding="utf-8")) for p in sorted(FIG2.glob("*.onto"))]


def mutate(files: list[tuple[str, str]], fname: str, needle: str, replacement: str) -> list[tuple[str, str]]:
    out = []
    applied = False
    for name, text in files:
        if name == fname:
            if needle == "@append":
                text = text + replacement
            else:
                assert needle in text, f"mutation needle missing in {fname}: {needle}"
                text = text.replace(needle, replacement, 1)
            applied = True
        out.append((name, text))
    assert applied, f"no such fixture file: {fname}"
    return out


def load_bench_generators():
    """`bench/generators.py`, which is not a package module, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "generators.py"
    spec = importlib.util.spec_from_file_location("bench_generators", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def fig2_files() -> list[tuple[str, str]]:
    return load_fig2()


@pytest.fixture()
def fig2_suite(fig2_files):
    from ontoarch import parse_suite, resolve

    ast, diags = parse_suite(fig2_files)
    assert not diags
    suite, rdiags = resolve(ast.modules, ast.instance_files)
    assert not rdiags and suite is not None
    return suite
