"""Shared fixtures: the fig2 corpus and its single-edit mutants (from
`fig2_corpus.py`), the benchmark's modules loaded by path, and a
field-by-field walk of AST nodes."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

from fig2_corpus import FIG2, FIXTURES, MUTATIONS, load_fig2, mutate  # noqa: F401 (re-exported)

from ontoarch.model import Fact, Individual, RelationDecl, TermDef, ThingNode
from ontoarch.source import SYNTHETIC_SOURCE, Record, Source, SourceSpan


def tree(node, source: Source = SYNTHETIC_SOURCE):
    """A node, or a list or tuple of them, as nested tuples of type names,
    field values and spans. Nodes compare without their locations (`loc` and
    `source` are not in their `_compared`); their trees compare with them. A
    node's `loc` is spelled out as the span its file's `Source` gives it: a
    module's or instance file's own `source` places the nodes inside it, and
    `source` places the rest; the `source` fields themselves are left out. A
    declaration that holds references is spelled out as the tuple of its own
    span and theirs, in field order, each place found again in its text by
    `Source.ref_loc`; a thing's type's place is None when it has no type,
    and its parts' places, packed 64 bits each above its own, come after
    it. A `loc` that holds a `SourceSpan` already, or a tuple of them, as
    the oracle parser's nodes do, is spelled out as it is. A tree walks a
    record's `_fields`, not the slots it derives from them."""
    if isinstance(node, SourceSpan):
        return ("span", *node)
    if isinstance(node, Record):
        source = getattr(node, "source", source)
        return (type(node).__name__, *(
            _loc_tree(node, source) if name == "loc" and isinstance(value, int) else tree(value, source)
            for name in node._fields if name != "source"
            for value in (getattr(node, name),)
        ))
    if isinstance(node, (list, tuple)):
        return tuple(tree(item, source) for item in node)
    return node


#: The fields of each holder of references, in the order `Source.ref_loc`
#: counts them.
_REFERENCES = {
    TermDef: ("enriches",), RelationDecl: ("from_ref", "to_ref", "kind_ref"), Individual: ("type_ref",),
    ThingNode: ("instance_of",), Fact: ("left", "right"),
}


def _loc_tree(node: Record, source: Source) -> tuple:
    # `Source.span` and `Source.ref_loc` are given the whole `loc`, so a
    # tree also checks that they read only the low 64 bits.
    loc = node.loc
    refs = [getattr(node, name) for name in _REFERENCES.get(type(node), ())]
    spans = [("span", *source.span(loc))]
    spans += [None if ref is None else ("span", *source.span(source.ref_loc(loc, index)))
              for index, ref in enumerate(refs)]
    while loc := loc >> 64:
        spans.append(("span", *source.span(loc)))
    return spans[0] if spans[1:] in ([], [None]) else tuple(spans)


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
