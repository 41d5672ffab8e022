"""Shared fixtures: the fig2 corpus and its single-edit mutants (from
`fig2_corpus.py`), the benchmark's modules loaded by path, and a
field-by-field walk of AST nodes."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

from fig2_corpus import FIG2, FIXTURES, MUTATIONS, load_fig2, mutate  # noqa: F401 (re-exported)

from ontoarch.source import SYNTHETIC_SOURCE, Record, Source, SourceSpan


def tree(node, source: Source = SYNTHETIC_SOURCE):
    """A node, or a list or tuple of them, as nested tuples of type names,
    field values and spans. Nodes compare without their locations (`loc` and
    `source` are not in their `_compared`); their trees compare with them. A
    node's `loc` is spelled out as the span its file's `Source` gives it: a
    module's or instance file's own `source` places the nodes inside it, and
    `source` places the rest; the `source` fields themselves are left out. A
    declaration's `loc` that also packs its references' offsets, 64 bits
    each above its own, is spelled out as the tuple of its span and theirs;
    a thing's parts come after its type's place, which is None for a thing
    with no type. A `loc` that holds a `SourceSpan` already, or a tuple of
    them, as the oracle parser's nodes do, is spelled out as it is. A tree
    walks a record's `_fields`, not the slots it derives from them."""
    if isinstance(node, SourceSpan):
        return ("span", *node)
    if isinstance(node, Record):
        source = getattr(node, "source", source)
        return (type(node).__name__, *(
            _loc_tree(value, source) if name == "loc" and isinstance(value, int) else tree(value, source)
            for name in node._fields if name != "source"
            for value in (getattr(node, name),)
        ))
    if isinstance(node, (list, tuple)):
        return tuple(tree(item, source) for item in node)
    return node


def _loc_tree(loc: int, source: Source) -> tuple:
    # `Source.span` is given the whole rest of `loc`, so a tree also checks
    # that it reads only the low 64 bits.
    spans = [("span", *source.span(loc))]
    while loc := loc >> 64:
        spans.append(("span", *source.span(loc)) if loc & (1 << 64) - 1 else None)
    return spans[0] if len(spans) == 1 else tuple(spans)


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
