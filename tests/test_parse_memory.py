"""What parsing keeps in memory: one string per name, one file's tokens at
a time, and one `int` per node location.

`parse_suite` keeps one name table for the files of one call: `tokenize`
builds one token per distinct identifier there and takes each keyword's from
`KEYWORDS`, so a name that a suite repeats is one string shared by every
token, node and table key that names it. Nothing is interned, so the
interpreter's table of interned strings does not grow. `parse_suite` frees
each file's token list before it lexes the next file. The bounds below count
bytes as `tracemalloc` sees them, with the cyclic collector paused as in a
CLI verdict; they assert no timings.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from conftest import load_bench

from ontoarch import parser
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


def _names(node) -> list[str]:
    """Every string field of every record in a node, or a list or tuple of
    nodes: names, qualifiers, predicates and attribute values."""
    stack, names = [node], []
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            names.append(item)
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif hasattr(item, "_fields"):
            stack.extend(getattr(item, field) for field in item._fields if field not in ("loc", "source"))
    return names


@pytest.mark.parametrize("workload", [None, "dirty_worlds", "wide_clean"])
def test_names_are_shared_across_the_files_of_one_parse_and_keywords_come_from_KEYWORDS(workload):
    files = {"core.onto": CORE, "domain.onto": DOMAIN}
    if workload is not None:
        files = getattr(load_bench("generators"), workload)(1).files
    ast, diagnostics = parse_suite(sorted(files.items()))
    assert diagnostics == [] and len(ast.decls) > 1
    by_value: dict[str, set[int]] = {}
    for decl in ast.decls:
        for name in _names(decl):
            by_value.setdefault(name, set()).add(id(name))
    assert [name for name, ids in by_value.items() if len(ids) > 1] == []
    # A name repeated in two files is still one string.
    first, *rest = ast.decls
    assert set(_names(first)) & {name for decl in rest for name in _names(decl)}

    kinds = set()
    for name, text in files.items():
        tokens, _, _ = tokenize(text, name)
        for kind, lexeme, *_ in tokens:
            kinds.add(kind)
            if kind is TokenKind.KEYWORD:
                assert lexeme is _table_key(KEYWORDS, lexeme), (name, lexeme)
    assert {TokenKind.IDENT, TokenKind.KEYWORD} <= kinds


def test_no_name_is_interned():
    # A name that no code or earlier test has: built here, from pieces.
    name = "".join(["Unseen", str(id(object())), "Module"])
    copy = "".join([name[:3], name[3:]])
    ast, diagnostics = parse_suite([("f.onto", f"ontology {name} at CO {{ }}")])
    assert diagnostics == []
    (module,) = ast.modules
    assert module.name == copy
    assert sys.intern(copy) is not module.name


# ---------------------------------------------------------------------------
# Bytes per declaration.
# ---------------------------------------------------------------------------

def _traced(function, *args):
    """`function(*args)` under `tracemalloc` with the collector paused: its
    result, and the bytes retained and at peak. The arguments are held
    before tracing starts; everything the call makes counts."""
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        result = function(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    return result, retained, peak


def _traced_parse(files: list[tuple[str, str]]):
    """`parse_suite(files)` traced: the AST, its diagnostics, and the bytes
    retained and at peak, each distinct name included."""
    (ast, diagnostics), retained, peak = _traced(parse_suite, files)
    return ast, diagnostics, retained, peak


#: Bytes per declaration (terms, relations, individuals, things and facts)
#: that the AST keeps, and that parsing reaches at peak, on the bench suites
#: at seed 1 in the CLI's file order. Measured on CPython 3.11 at about 337
#: and 364 on dirty_worlds, and 441 and 542 on wide_clean, each distinct
#: name included. With a five-field `SourceSpan` per node and a six-tuple
#: per token, and with the names interned beforehand so that they counted
#: for nothing, they read about 570 and 705, and 612 and 808.
BOUNDS = {"dirty_worlds": (370, 400), "wide_clean": (485, 600)}


@pytest.mark.parametrize("workload", sorted(BOUNDS))
def test_parse_suite_bytes_per_declaration(workload):
    suite = getattr(load_bench("generators"), workload)(1)
    ast, diagnostics, retained, peak = _traced_parse(sorted(suite.files.items()))
    assert diagnostics == []
    decls = suite.props["decls"]
    max_retained, max_peak = BOUNDS[workload]
    assert retained <= max_retained * decls
    assert peak <= max_peak * decls


def _token_list_bytes(tokens: list[tuple], starts) -> int:
    """The list, its start offsets and its STRING tuples, which no other
    token shares; the other tuples belong to the run's name table."""
    strings = [tok for tok in tokens if tok[0] is TokenKind.STRING]
    return sys.getsizeof(tokens) + sys.getsizeof(starts) + sum(map(sys.getsizeof, strings))


#: Bytes per token of one file's token list, measured on CPython 3.11 at
#: about 17 on the largest file of either bench suite: a list slot and an
#: array entry. A six-tuple per token took about 100.
MAX_TOKEN_BYTES = 20


@pytest.mark.parametrize("workload", sorted(BOUNDS))
def test_a_token_costs_its_list_slot_and_its_start_offset(workload):
    files = getattr(load_bench("generators"), workload)(1).files
    path, text = max(files.items(), key=lambda item: len(item[1]))
    tokens, starts, diagnostics = tokenize(text, path)
    assert diagnostics == [] and len(tokens) > 10_000
    assert _token_list_bytes(tokens, starts) <= MAX_TOKEN_BYTES * len(tokens)


def _working_set(text: str) -> int:
    """Bytes that `tokenize(text)` holds at its peak beyond what it returns:
    one chunk's matches, their starts and their table, and the name table
    it starts and drops."""
    _, retained, peak = _traced(tokenize, text, "f.onto")
    return peak - retained


#: `tokenize`'s working set per character of a chunk, measured on CPython
#: 3.11 at about 37 on the largest dirty_worlds file: each match's string,
#: its list slot and its start offset. One `findall` over the whole file
#: held about 27 bytes per character of the file.
MAX_CHUNK_BYTES = 48


def test_tokenize_holds_one_chunk_not_the_file():
    files = load_bench("generators").dirty_worlds(1).files
    text = max(files.values(), key=len)
    assert len(text) > 4 * parser._CHUNK_SIZE
    one, four = _working_set(text), _working_set(text * 4)
    assert one <= MAX_CHUNK_BYTES * parser._CHUNK_SIZE
    assert four <= 1.25 * one


def test_text_without_a_line_feed_is_one_chunk():
    # A chunk is cut only after a line feed, since a string or a comment may
    # hold a carriage return. With lone carriage returns as line ends the
    # whole text is one chunk: measured on CPython 3.11 at about 27 bytes
    # per character of the file, however long the file.
    files = load_bench("generators").dirty_worlds(1).files
    text = max(files.values(), key=len).replace("\n", "\r")
    assert tokenize(text)[2] == []
    one, four = _working_set(text), _working_set(text * 4)
    assert 16 * len(text) <= one <= MAX_CHUNK_BYTES * len(text)
    assert four >= 3.5 * one


def test_a_file_that_fails_to_parse_frees_its_tokens_before_the_next_is_lexed():
    files = getattr(load_bench("generators"), "dirty_worlds")(1).files
    first, second = files["dirty_worlds_0.onto"], files["dirty_worlds_1.onto"]
    head, sep, tail = first.rpartition("    thing t0 : ")  # in the last world
    broken = head + "    thing thing t0 : " + tail
    assert sep
    pair = [("a.onto", broken), ("b.onto", second)]

    ast, diagnostics, retained, peak = _traced_parse(pair)
    assert {(d.code, d.span.file) for d in diagnostics} == {("E002", "a.onto")}
    assert [d.source.path for d in ast.decls] == ["b.onto"]
    (_, _, first_retained, first_peak), (_, _, _, second_peak) = (_traced_parse([file]) for file in pair)
    names: dict = {}
    first_tokens = _token_list_bytes(*tokenize(broken, "a.onto", names)[:2])
    tokenize(second, "b.onto", names)
    table = sys.getsizeof(names) + sum(map(sys.getsizeof, names.values()))
    # The pair peaks where one of its files does: the first while it holds
    # its tokens and its whole AST, or the second on top of what the first
    # leaves, its diagnostics. Each file parsed alone has a name table of its
    # own, the pair one. The first file's token list, alive through its
    # recovery or after it, would add its size to the second file's peak.
    assert table < first_tokens / 4
    # The failed file leaves its diagnostics, not its tokens or its AST.
    assert first_retained < first_tokens / 4
    assert first_retained + second_peak + first_tokens > first_peak + table
    assert peak <= max(first_peak, first_retained + second_peak) + table
