"""Naive per-start chain walks, kept as independent oracles for the
memoised `chain_status` and `ResolvedSuite.enrichment_root`.

Both walk the whole chain from scratch on every call and detect cycles by
scanning the list of visited links; neither reads nor writes any cache.
"""

from __future__ import annotations

from ontoarch.metamodel import BUILTIN_MODULE
from ontoarch.model import RelationDecl, ResolvedSuite
from ontoarch.validator import ChainStatus


def oracle_chain_status(
    suite: ResolvedSuite,
    module_name: str,
    rel: RelationDecl,
    components: dict[str, frozenset[str]] | None,
) -> ChainStatus:
    visited: list[str] = []
    cur_mod, cur_rel = module_name, rel
    while True:
        here = f"{cur_mod}.{cur_rel.name}"
        if here in visited:
            cycle = " -> ".join(visited[visited.index(here):] + [here])
            return ChainStatus("cycle", detail=f"kind chain cycles: {cycle}")
        visited.append(here)
        target_mod, target_name = suite.term_target(cur_rel.kind_ref, cur_mod)
        if target_mod == BUILTIN_MODULE:
            return ChainStatus("foundational", key=target_name)
        cur_level = suite.level_of(cur_mod)
        target_level = suite.level_of(target_mod)
        if target_level.rank > cur_level.rank:
            return ChainStatus(
                "downward",
                detail=f"kind of {here} points to the more concrete level "
                f"{target_level.name} ({target_mod}.{target_name})",
            )
        if target_level.rank == cur_level.rank and target_mod != cur_mod:
            if components is None:
                return ChainStatus("escape", detail=f"kind of {here} crosses into {target_mod}")
            if target_mod not in components.get(cur_mod, frozenset({cur_mod})):
                return ChainStatus(
                    "dead_end",
                    detail=f"kind of {here} leaves the import-connected component "
                    f"({target_mod} is not related to {cur_mod})",
                )
        next_rel = suite.get_relation(target_mod, target_name)
        assert next_rel is not None
        cur_mod, cur_rel = target_mod, next_rel


def oracle_enrichment_root(suite: ResolvedSuite, module_name: str, term_name: str) -> str:
    """The root name, or the `KeyError` message `enrichment_root` must raise."""
    chain: list[tuple[str, str]] = []
    mod, name = module_name, term_name
    while mod != BUILTIN_MODULE:
        chain.append((mod, name))
        term = suite.get_term(mod, name)
        if term.enriches is None:
            return f"KeyError: term {mod}.{name} has no enrichment target"
        mod, name = suite.term_target(term.enriches, mod)
        if (mod, name) in chain:
            return f"KeyError: enrichment cycle through {module_name}.{term_name}"
    return name
