"""What parsing and a verdict keep in memory: one string per name, one
`QualifiedRef` per reference, one string per part name, one file's tokens
at a time, one `int` per node location, one string per finding text, and a
report rendered without a second copy.

`parse_suite` keeps one name table for the files of one call: `tokenize`
builds one token per distinct identifier there and takes each keyword's from
`KEYWORDS`, so a name that a suite repeats is one string shared by every
token, node and table key that names it. Beside it a reference table gives
each distinct `(module, name)` one `QualifiedRef`, whose places no node
keeps; a thing keeps its parts' places, and their names are those strings.
Nothing is interned, so the interpreter's table of interned strings does not
grow. `parse_suite` frees each file's token list before it lexes the next
file, `validate_suite` gives equal finding texts one string, and
`build_report` lets the AST go before it sorts the findings. The bounds
below count bytes as `tracemalloc` sees them, with the cyclic collector
paused as in a CLI verdict; they assert no timings. The bytes per
declaration of a parse and of a verdict are measured once per run of this
module, in a fresh interpreter (`figures`), so that they do not depend on
which tests ran before.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import load_bench

import ontoarch
from ontoarch import parser
from ontoarch.cli import build_report
from ontoarch.metamodel import BUILTIN_MODULE, WORLD_PREDICATES
from ontoarch.model import QualifiedRef, resolve
from ontoarch.parser import KEYWORDS, TokenKind, parse_suite, tokenize
from ontoarch.reporting import Diagnostic, Report, render_json
from ontoarch.source import SourceSpan
from ontoarch.validator import validate_suite

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
    assert s.properties[0] is r.properties[0]
    enables, acts = world.facts
    assert (enables.left.module, enables.left.name) == ("r", "grip")
    assert enables.left.module is r.name and enables.left.name is r.properties[0]
    assert enables.right.module is r.name and enables.right.name is r.powers[0]
    assert acts.left.name is r.powers[0]
    assert acts.right.module is s.name and acts.right.name is s.properties[0]
    for fact in world.facts:
        assert fact.predicate is _table_key(WORLD_PREDICATES, fact.predicate)


def _instances(node, kind: type) -> list:
    """Every `kind` field value of every record in a node, or a list or
    tuple of nodes, once per field that holds it; a `kind` record is not
    looked into. With `str`: names, qualifiers, predicates and attribute
    values."""
    stack, found = [node], []
    while stack:
        item = stack.pop()
        if isinstance(item, kind):
            found.append(item)
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif hasattr(item, "_fields"):
            stack.extend(getattr(item, field) for field in item._fields if field not in ("loc", "source"))
    return found


@pytest.mark.parametrize("workload", [None, "dirty_worlds", "wide_clean"])
def test_names_are_shared_across_the_files_of_one_parse_and_keywords_come_from_KEYWORDS(workload):
    files = {"core.onto": CORE, "domain.onto": DOMAIN}
    if workload is not None:
        files = getattr(load_bench("generators"), workload)(1).files
    ast, diagnostics = parse_suite(sorted(files.items()))
    assert diagnostics == [] and len(ast.decls) > 1
    by_value: dict[str, set[int]] = {}
    for decl in ast.decls:
        for name in _instances(decl, str):
            by_value.setdefault(name, set()).add(id(name))
    assert [name for name, ids in by_value.items() if len(ids) > 1] == []
    # A name repeated in two files is still one string.
    first, *rest = ast.decls
    assert set(_instances(first, str)) & {name for decl in rest for name in _instances(decl, str)}

    kinds = set()
    for name, text in files.items():
        tokens, _, _ = tokenize(text, name)
        for kind, lexeme, *_ in tokens:
            kinds.add(kind)
            if kind is TokenKind.KEYWORD:
                assert lexeme is _table_key(KEYWORDS, lexeme), (name, lexeme)
    assert {TokenKind.IDENT, TokenKind.KEYWORD} <= kinds


@pytest.mark.parametrize("workload", [None, "dirty_worlds"])
def test_a_reference_is_one_record_across_the_files_of_one_parse(workload):
    files = {"core.onto": CORE, "domain.onto": DOMAIN}
    if workload is not None:
        files = getattr(load_bench("generators"), workload)(1).files
    ast, diagnostics = parse_suite(sorted(files.items()))
    assert diagnostics == []
    refs = _instances(ast.decls, QualifiedRef)
    by_value: dict[tuple, set[int]] = {}
    for ref in refs:
        by_value.setdefault((ref.module, ref.name), set()).add(id(ref))
    assert [value for value, ids in by_value.items() if len(ids) > 1] == []
    assert len(by_value) < len(refs)
    # The table lives for one call: a second parse shares nothing with it.
    again, _ = parse_suite(sorted(files.items()))
    assert {id(ref) for ref in _instances(again.decls, QualifiedRef)}.isdisjoint(id(ref) for ref in refs)


def test_a_part_is_its_name_with_its_place_in_the_things_loc():
    files = sorted(load_bench("generators").dirty_worlds(1).files.items())
    ast, diagnostics = parse_suite(files)
    assert diagnostics == []
    parts = []
    for f in ast.instance_files:
        for world in f.worlds:
            for thing in world.things:
                names = thing.properties + thing.powers
                parts += names
                # Each part's place, 64 bits above the thing's own place and
                # each other, spans its name.
                locs = thing.part_locs()
                assert locs == tuple(thing.loc >> 64 * (k + 1) & (1 << 64) - 1 for k in range(len(names)))
                assert thing.loc >> 64 * (len(names) + 1) == 0
                assert [f.source.text[loc >> 32:loc & 0xFFFFFFFF] for loc in locs] == list(names)
    assert len(parts) > 1000
    assert len({id(part) for part in parts}) == len(set(parts)) == 4


def test_a_reference_shared_across_files_keeps_each_place_in_its_holder():
    ast, diagnostics = parse_suite([("core.onto", CORE), ("domain.onto", DOMAIN)])
    assert diagnostics == []
    _, domain = ast.modules
    (drives,) = domain.relations
    (instances,) = ast.instance_files
    (world,) = instances.worlds
    r, s = world.things
    enables, _ = world.facts
    assert drives.from_ref is s.instance_of
    assert r.properties[0] is s.properties[0]
    # Each holder spans its own text, and its `loc` packs no reference's
    # place: `Source.ref_loc` finds each in that text, in field order. A
    # thing's parts' places lie above its own, 64 bits each.
    source = instances.source
    assert domain.source is source
    mask = (1 << 64) - 1
    for holder, texts, parts in ((drives, ["Core.Agent", "Core.Skill", "Core.uses"], []),
                                 (s, ["Core.Agent"], ["grip"]), (r, ["Robot"], ["grip", "move"]),
                                 (enables, ["r.grip", "r.move"], [])):
        own = holder.loc & mask
        places = [source.ref_loc(holder.loc, index) for index in range(len(texts))]
        if parts:
            places += holder.part_locs()
        assert holder.loc >> 64 * (len(parts) + 1) == 0
        assert all(own >> 32 <= place >> 32 < place & 0xFFFFFFFF <= own & 0xFFFFFFFF for place in places)
        assert [DOMAIN[place >> 32:place & 0xFFFFFFFF] for place in places] == texts + parts


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
#: at seed 1 in the CLI's file order, as `figures` measures them. Measured
#: on CPython 3.11 at about 134 and 164 on dirty_worlds, and 344 and 485 on
#: wide_clean, each distinct name included. In the test process the figures
#: read up to a tenth lower after other tests than alone, since a tuple
#: taken from CPython's free lists is no new allocation, so they are taken
#: in a fresh interpreter. With each reference's place packed in its
#: holder's `loc`, about 149 and 177, and 355 and 496; alone in the test
#: process, 149 and 177, and 364 and 504; with a record and a `loc` per
#: part, alone, 189 and 217, and
#: 379 and 520; earlier figures, with a `QualifiedRef` and a `loc` per
#: reference as well, about 337 and 364, and 441 and 542; with a five-field
#: `SourceSpan` per node and a six-tuple per token, and with the names
#: interned beforehand so that they counted for nothing, about 570 and 705,
#: and 612 and 808.
BOUNDS = {"dirty_worlds": (147, 178), "wide_clean": (380, 536)}


def measure() -> dict[str, dict[str, int]]:
    """The figures that `BOUNDS` and `VERDICT_BOUNDS` bound, for each bench
    suite at seed 1 in the CLI's file order: its declarations, the bytes
    `parse_suite` retains and peaks at, and the bytes a verdict peaks at.
    Each suite's verdict is measured after its parse, dirty_worlds before
    wide_clean."""
    out = {}
    for workload in sorted(BOUNDS):
        suite = getattr(load_bench("generators"), workload)(1)
        files = sorted(suite.files.items())
        _, diagnostics, retained, peak = _traced_parse(files)
        assert diagnostics == []
        length, _, verdict_peak = _traced(_verdict, files)
        assert length > 0
        out[workload] = {"decls": suite.props["decls"], "retained": retained, "peak": peak,
                         "verdict_peak": verdict_peak}
    return out


#: What the fresh interpreter runs: `measure`, with this directory and
#: `src/` first on its path, written to standard output as JSON.
_MEASURE = ("import json, sys; sys.path[:0] = sys.argv[1:]; import test_parse_memory; "
            "print(json.dumps(test_parse_memory.measure()))")


@pytest.fixture(scope="module")
def figures() -> dict[str, dict[str, int]]:
    """`measure()` as a fresh interpreter takes it, once for this module:
    no earlier test has left objects on CPython's free lists there, so the
    figures are the same whichever tests ran before."""
    paths = [str(Path(__file__).parent), str(Path(ontoarch.__file__).parents[1])]
    proc = subprocess.run([sys.executable, "-c", _MEASURE, *paths], capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        pytest.fail(f"measuring in a fresh interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(BOUNDS))
def test_parse_suite_bytes_per_declaration(figures, workload):
    figure = figures[workload]
    max_retained, max_peak = BOUNDS[workload]
    assert figure["retained"] <= max_retained * figure["decls"]
    assert figure["peak"] <= max_peak * figure["decls"]


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


# ---------------------------------------------------------------------------
# The verdict's peak.
# ---------------------------------------------------------------------------

def _verdict(files: list[tuple[str, str]]) -> int:
    """The JSON report's length, as `validate --format json` renders it."""
    return len(render_json(build_report(files)))


#: Bytes per declaration at the peak of `build_report` and `render_json`
#: together, on the bench suites at seed 1 in the CLI's file order, as
#: `figures` measures them: the AST with the findings, or the report with
#: its rendering. Measured on CPython 3.11 at about 241 on dirty_worlds
#: (3.05 MB, in `validate_suite`) and 465 on wide_clean (in `parse_suite`);
#: with each reference's place packed in its holder's `loc`, about 256 and
#: 475. Alone in the test process, about 252 and 504. With a record per part and
#: a string per finding, alone, about 334 and 520; earlier, with a
#: `QualifiedRef` per reference, the AST alive while `Report.build` sorted
#: and the rendering joined from a list of parts, about 511 and 523.
VERDICT_BOUNDS = {"dirty_worlds": 260, "wide_clean": 480}


@pytest.mark.parametrize("workload", sorted(VERDICT_BOUNDS))
def test_a_verdict_peaks_below_its_bytes_per_declaration(figures, workload):
    figure = figures[workload]
    assert figure["verdict_peak"] <= VERDICT_BOUNDS[workload] * figure["decls"]


def test_a_finding_text_is_one_string_per_verdict():
    files = sorted(load_bench("generators").dirty_worlds(1).files.items())
    ast, diagnostics = parse_suite(files)
    suite, diagnostics = resolve(ast.modules, ast.instance_files)
    assert diagnostics == []
    findings = validate_suite(suite)
    assert len(findings) == 3960
    for field in ("message", "witness"):
        texts = [getattr(d, field) for d in findings]
        assert len({id(text) for text in texts}) == len(set(texts)) < len(texts) / 1.5, field
    # The table lives for one call: a second verdict shares no text with it.
    again = validate_suite(suite)
    assert again == findings
    for field in ("message", "witness"):
        assert {id(getattr(d, field)) for d in again}.isdisjoint(id(getattr(d, field)) for d in findings), field


def test_render_json_peaks_at_about_the_length_of_its_result():
    # Grown in place, the text is the one large block; joined from a list
    # of parts, the parts and the text would both be alive, about twice it.
    # ASCII text takes one byte per character.
    anchor = "A Thing defines none or many Assertions."
    report = Report.build(
        Diagnostic("E311" if i % 3 else "W301", f"finding {i} of a long run",
                   SourceSpan(f"f{i % 7}.onto", i + 1, 1, i + 1, 9), "A1", anchor, f"t{i}" if i % 2 else None)
        for i in range(12_000)
    )
    text, _, peak = _traced(render_json, report)
    assert len(report.diagnostics) >= 10_000 and text.isascii()
    assert peak < 1.25 * len(text)
