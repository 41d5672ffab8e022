"""Shared fixtures: the fig2 corpus and its single-edit mutants, the
benchmark's modules loaded by path, and a field-by-field walk of AST nodes."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

from ontoarch.source import SYNTHETIC_SOURCE, Record, Source, SourceSpan

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


def tree(node, source: Source = SYNTHETIC_SOURCE):
    """A node, or a list or tuple of them, as nested tuples of type names,
    field values and spans. Nodes compare without their locations (`loc` and
    `source` are not in their `_compared`); their trees compare with them. A
    node's `loc` is spelled out as the span its file's `Source` gives it: a
    module's or instance file's own `source` places the nodes inside it, and
    `source` places the rest; the `source` fields themselves are left out. A
    `loc` that holds a `SourceSpan` already, as the oracle parser's nodes do,
    is spelled out as it is. A tree walks a record's `_fields`, not the slots
    it derives from them."""
    if isinstance(node, SourceSpan):
        return ("span", *node)
    if isinstance(node, Record):
        source = getattr(node, "source", source)
        return (type(node).__name__, *(
            ("span", *source.span(value)) if name == "loc" and isinstance(value, int) else tree(value, source)
            for name in node._fields if name != "source"
            for value in (getattr(node, name),)
        ))
    if isinstance(node, (list, tuple)):
        return tuple(tree(item, source) for item in node)
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


def load_bench(stem: str):
    """`bench/<stem>.py`, which is not a package module, loaded by path.
    It is compiled from its source, so nothing is written under `bench/`."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{stem}.py"
    module = types.ModuleType(f"bench_{stem}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses looks the module up
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
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
