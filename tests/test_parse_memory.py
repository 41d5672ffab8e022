"""What parsing keeps in memory: one string per name, and one file's tokens
at a time.

`tokenize` interns every identifier and takes each keyword lexeme from
`KEYWORDS`, so a name that a suite repeats is one string shared by every
node and table key that names it. `parse_suite` frees each file's token
list before it lexes the next file. The bounds below count bytes as
`tracemalloc` sees them, with the cyclic collector paused as in a CLI
verdict; they assert no timings.
"""

from __future__ import annotations

import gc
import re
import sys
import tracemalloc

import pytest

from conftest import load_bench

from ontoarch.metamodel import BUILTIN_MODULE, WORLD_PREDICATES
from ontoarch.parser import KEYWORDS, TokenKind, parse_suite, tokenize

CORE = """\
ontology Core at CO {
  term Agent enriches ThingFO.Thing scope particulars
  term Skill enriches ThingFO.Property
  term Act enriches ThingFO.Power
  relation uses from Agent to Skill kind ThingFO.relatesWith
}
"""

DOMAIN = """\
ontology Domain at TDO {
  imports Core
  term Robot enriches Core.Agent
  relation drives from Core.Agent to Core.Skill kind Core.uses
}

instances of Domain {
  individual r1 : Domain.Robot
  world W {
    thing r : Robot { property grip; power move; }
    thing s : Core.Agent { property grip; }
    enables(r.grip, r.move)
    actsUpon(r.move, s.grip)
  }
}
"""


def _table_key(table, name: str) -> str:
    return next(key for key in table if key == name)


def test_a_name_is_one_string_across_files_nodes_and_tables():
    ast, diagnostics = parse_suite([("core.onto", CORE), ("domain.onto", DOMAIN)])
    assert diagnostics == []
    core, domain = ast.modules
    agent, skill, _ = core.terms
    (uses,) = core.relations
    (robot,) = domain.terms
    (drives,) = domain.relations
    (instances,) = ast.instance_files

    assert domain.imports[0].name is core.name
    assert robot.enriches.module is core.name and robot.enriches.name is agent.name
    assert agent.enriches.module is BUILTIN_MODULE
    for ref, term in ((drives.from_ref, agent), (drives.to_ref, skill), (drives.kind_ref, uses)):
        assert ref.module is core.name and ref.name is term.name
    assert uses.from_ref.name is agent.name and uses.to_ref.name is skill.name
    assert instances.of_module is domain.name
    (individual,) = instances.individuals
    assert individual.type_ref.module is domain.name and individual.type_ref.name is robot.name

    (world,) = instances.worlds
    r, s = world.things
    assert r.instance_of.name is robot.name
    assert s.instance_of.module is core.name and s.instance_of.name is agent.name
    assert s.properties[0].name is r.properties[0].name
    enables, acts = world.facts
    assert (enables.left.module, enables.left.name) == ("r", "grip")
    assert enables.left.module is r.name and enables.left.name is r.properties[0].name
    assert enables.right.module is r.name and enables.right.name is r.powers[0].name
    assert acts.left.name is r.powers[0].name
    assert acts.right.module is s.name and acts.right.name is s.properties[0].name
    for fact in world.facts:
        assert fact.predicate is _table_key(WORLD_PREDICATES, fact.predicate)


@pytest.mark.parametrize("workload", [None, "dirty_worlds", "wide_clean"])
def test_tokenize_interns_identifiers_and_takes_keywords_from_KEYWORDS(workload):
    files = {"core.onto": CORE, "domain.onto": DOMAIN}
    if workload is not None:
        files = getattr(load_bench("generators"), workload)(1).files
    kinds = set()
    for name, text in files.items():
        tokens, _ = tokenize(text, name)
        for kind, lexeme, *_ in tokens:
            kinds.add(kind)
            if kind is TokenKind.IDENT:
                assert lexeme is sys.intern(lexeme), (name, lexeme)
            elif kind is TokenKind.KEYWORD:
                assert lexeme is _table_key(KEYWORDS, lexeme), (name, lexeme)
    assert {TokenKind.IDENT, TokenKind.KEYWORD} <= kinds


# ---------------------------------------------------------------------------
# Bytes per declaration.
# ---------------------------------------------------------------------------

def _traced_parse(files: list[tuple[str, str]]):
    """`parse_suite(files)` under `tracemalloc` with the collector paused:
    the AST, its diagnostics, and the bytes retained and at peak.

    Every word of the files is interned, and held, before tracing starts.
    Adding a name to the interpreter's table of interned strings can grow
    that table by a few MB, depending on how full what ran before left it,
    so only a parse that adds no name to it measures the same in any
    process. The distinct names then count for nothing; a string made per
    occurrence still counts in full."""
    names = {sys.intern(word) for _, text in files for word in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)}
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        ast, diagnostics = parse_suite(files)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    del names
    return ast, diagnostics, retained, peak


#: Bytes per declaration (terms, relations, individuals, things and facts)
#: that the AST keeps, and that parsing reaches at peak, on the bench suites
#: at seed 1 in the CLI's file order. Measured on CPython 3.11 at about 570
#: and 705 on dirty_worlds, and 610 and 805 on wide_clean. With a fresh
#: string per name and each file's token list alive while the next file is
#: lexed, they read about 790 and 1,000, and 800 and 1,210.
BOUNDS = {"dirty_worlds": (630, 780), "wide_clean": (680, 900)}


@pytest.mark.parametrize("workload", sorted(BOUNDS))
def test_parse_suite_bytes_per_declaration(workload):
    suite = getattr(load_bench("generators"), workload)(1)
    ast, diagnostics, retained, peak = _traced_parse(sorted(suite.files.items()))
    assert diagnostics == []
    decls = suite.props["decls"]
    max_retained, max_peak = BOUNDS[workload]
    assert retained <= max_retained * decls
    assert peak <= max_peak * decls


def _token_list_bytes(tokens: list[tuple]) -> int:
    """The list and its tuples, without the strings they share with the AST."""
    return sys.getsizeof(tokens) + sum(map(sys.getsizeof, tokens))


def test_a_file_that_fails_to_parse_frees_its_tokens_before_the_next_is_lexed():
    files = getattr(load_bench("generators"), "dirty_worlds")(1).files
    first, second = files["dirty_worlds_0.onto"], files["dirty_worlds_1.onto"]
    head, sep, tail = first.rpartition("    thing t0 : ")  # in the last world
    broken = head + "    thing thing t0 : " + tail
    assert sep

    ast, diagnostics, retained, peak = _traced_parse([("a.onto", broken), ("b.onto", second)])
    assert {(d.code, d.span.file) for d in diagnostics} == {("E002", "a.onto")}
    assert [d.span.file for d in ast.decls] == ["b.onto"]
    tokens, _ = tokenize(second, "b.onto")
    # Parsing the second file holds its own token list and its growing AST;
    # the first file's list, alive through its recovery or after it, would
    # add as much again.
    assert peak <= _token_list_bytes(tokens) + retained
