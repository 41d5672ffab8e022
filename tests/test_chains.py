"""Enrichment, kind and import chains: the enrichment roots, import
components and kind-chain outcomes recorded by resolution against naive
oracles, and deep chains that must stay linear and free of recursion."""

from __future__ import annotations

import tracemalloc
from collections import Counter

from hypothesis import event, given, settings, strategies as st

from oracles import oracle_chain_status, oracle_components, oracle_enrichment_root, oracle_import_cycles
from test_file_order import suites

from ontoarch import metamodel, model
from ontoarch.cli import build_report
from ontoarch.metamodel import BUILTIN_MODULE
from ontoarch.model import (
    ChainStatus,
    ImportRef,
    Level,
    OntologyModule,
    QualifiedRef,
    RelationDecl,
    ResolvedSuite,
    TermDef,
    resolve,
)
from ontoarch.parser import parse_suite
from ontoarch.source import Source
from ontoarch.validator import chain_status

DEPTH = 10_000


# ---------------------------------------------------------------------------
# Recorded outcomes equal the naive per-start walks.
# ---------------------------------------------------------------------------

THING = QualifiedRef(BUILTIN_MODULE, "Thing")
FO_TERMS = tuple(spec.id for spec in metamodel.all_term_specs())


@st.composite
def chain_suites(draw) -> list[OntologyModule]:
    """Modules at random levels with acyclic imports, holding a short kind
    cycle, a long chain into it, free relations whose kinds point anywhere,
    and terms whose enrichment chains end in ThingFO or break off."""
    n_mod = draw(st.integers(1, 5))
    names = [f"M{i}" for i in range(n_mod)]
    levels = [draw(st.sampled_from((Level.CO, Level.CO, Level.TDO, Level.LDO))) for _ in names]
    imports = [tuple(names[j] for j in range(i) if draw(st.booleans())) for i in range(n_mod)]

    cycle_len = draw(st.integers(0, 3))
    tail_len = draw(st.integers(0, 30)) if cycle_len else 0
    n_free = draw(st.integers(0, 15))
    total = cycle_len + tail_len + n_free
    home = [draw(st.integers(0, n_mod - 1)) for _ in range(total)]
    kinds: list[int | str] = [(i + 1) % cycle_len for i in range(cycle_len)]
    for i in range(tail_len):
        kinds.append(cycle_len + i - 1 if i else draw(st.integers(0, cycle_len - 1)))
    for _ in range(n_free):
        kinds.append(draw(st.one_of(st.sampled_from(metamodel.RELATIONSHIP_KEYS), st.integers(0, total - 1))))

    bodies: list[list[TermDef | RelationDecl]] = [[] for _ in names]
    for i, kind in enumerate(kinds):
        if isinstance(kind, str):
            ref = QualifiedRef(BUILTIN_MODULE, kind)
        elif home[kind] == home[i] and draw(st.booleans()):
            ref = QualifiedRef(None, f"r{kind}")
        else:
            ref = QualifiedRef(names[home[kind]], f"r{kind}")
        bodies[home[i]].append(RelationDecl(f"r{i}", THING, THING, ref))

    term_home: list[int] = []
    for k in range(draw(st.integers(0, 10))):
        term_home.append(draw(st.integers(0, n_mod - 1)))
        choice = draw(st.integers(0, 3))
        if choice == 0:
            enriches = None
        elif choice == 1 or k == 0:
            enriches = QualifiedRef(BUILTIN_MODULE, draw(st.sampled_from(FO_TERMS)))
        else:
            target = draw(st.integers(0, k - 1))
            enriches = QualifiedRef(names[term_home[target]], f"t{target}")
        bodies[term_home[k]].append(TermDef(f"t{k}", enriches))

    return [OntologyModule(n, lvl, tuple(map(ImportRef, imp)), tuple(body))
            for n, lvl, imp, body in zip(names, levels, imports, bodies)]


def _fresh(modules: list[OntologyModule]) -> ResolvedSuite:
    suite, diags = resolve(modules, [])
    assert diags == [] and suite is not None
    return suite


def _local(status: ChainStatus) -> tuple[str, str | None]:
    """The outcome and key of a chain followed inside its own module, where
    a lateral hop ends it as an escape."""
    return ("escape", None) if status.escapes else (status.outcome, status.key)


@settings(max_examples=200, deadline=None)
@given(chain_suites())
def test_recorded_chains_and_roots_equal_naive_oracles(modules):
    suite = _fresh(modules)
    for module, rel in suite.all_relations():
        status = chain_status(suite, module, rel)
        for joint, got in ((False, _local(status)), (True, (status.outcome, status.key))):
            want = oracle_chain_status(suite, module, rel, suite.components if joint else None)
            lateral = " lateral" if got[0] == "cycle" and status.escapes else ""
            event(f"{'joint' if joint else 'local'} {got[0]}{lateral}")
            assert got == (want.outcome, want.key), (module, rel.name, joint)
            if want.outcome in ("cycle", "downward", "dead_end"):
                assert status.text == want.detail, (module, rel.name, joint)
    for module, term in suite.all_terms():
        assert suite.enrichment_root(module, term.name) == oracle_enrichment_root(suite, module, term.name)


def _resolved(files: list[tuple[str, str]]) -> ResolvedSuite | None:
    ast, _ = parse_suite(files)
    return resolve(ast.modules, ast.instance_files)[0]


@settings(max_examples=300, deadline=None)
@given(st.one_of(chain_suites().map(_fresh), suites().map(_resolved)))
def test_components_equal_the_naive_oracle(suite):
    if suite is None:
        event("unresolved")
        return
    event(f"{len(set(suite.components.values()))} components over {len(suite.modules)} modules")
    assert suite.components == oracle_components(suite)


@st.composite
def import_graphs(draw) -> list[OntologyModule]:
    """Up to seven empty modules at any level, some sharing a name, in a
    random source order; each imports a few of the names, possibly its own or
    one twice, ThingFO or a module no one declares."""
    n = draw(st.integers(1, 7))
    names = [f"M{i}" for i in range(n)]
    targets = st.sampled_from(names + [BUILTIN_MODULE, "Nowhere"])
    modules = []
    # Module i covers offset i of one of ten paths. Two files may share a
    # path, with one layout each: n blank lines, where offset i is line
    # i + 1, or lines of two characters, where it is line i // 3 + 1.
    sources = {(k, layout): Source(f"f{k}.onto", layout * n) for k in range(10) for layout in ("\n", "xy\n")}
    for i in range(n):
        name = names[draw(st.integers(0, i))] if draw(st.integers(0, 5)) == 0 else names[i]
        level = draw(st.sampled_from((Level.CO, Level.CO, Level.CO, Level.TDO, Level.FO)))
        imports = tuple(map(ImportRef, draw(st.lists(st.one_of(st.sampled_from(names), targets), max_size=4))))
        source = sources[draw(st.integers(0, 9)), draw(st.sampled_from(("\n", "xy\n")))]
        modules.append(OntologyModule(name, level, imports, loc=i << 32 | i + 1, source=source))
    return modules


@settings(max_examples=300, deadline=None)
@given(import_graphs())
def test_import_cycles_and_components_equal_the_naive_oracles(modules):
    suite, diagnostics = resolve(modules, [])
    cycles = [(d.message, d.span) for d in diagnostics if d.code == "E103"]
    event(f"{len(cycles)} import cycles" if suite is None else "resolved")
    assert cycles == oracle_import_cycles(modules)
    if suite is not None:
        assert suite.components == oracle_components(suite)


# ---------------------------------------------------------------------------
# Deep chains: exact verdicts at depth 10^4.
# ---------------------------------------------------------------------------

def _module(name: str, lines: list[str], level: str = "CO") -> tuple[str, str]:
    return (f"{name}.onto", f"ontology {name} at {level} {{\n" + "\n".join(lines) + "\n}\n")


def test_deep_enrichment_chain():
    lines = [f'  term T{i} enriches {"ThingFO.Thing" if i == 0 else f"T{i - 1}"} {{ description "d" }}'
             for i in range(DEPTH)]
    below = [f"  term Leaf enriches Chain.T{DEPTH - 1}"]
    report = build_report([_module("Chain", lines), _module("Below", below, "TDO")])
    # Every link but the first enriches a term of its own level; the leaf
    # lacks the description its Thing root asks for.
    assert Counter(d.code for d in report.diagnostics) == Counter({"E211": DEPTH - 1, "W202": 1})
    assert "Below.Leaf" in next(d.message for d in report.diagnostics if d.code == "W202")


def test_deep_kind_chain_reaching_thingfo():
    lines = ['  term X enriches ThingFO.Thing { description "d" }', "  term C enriches ThingFO.ThingCategory"]
    for i in range(DEPTH):
        kind = "ThingFO.belongsTo" if i == 0 else f"r{i - 1}"
        ends = "C to X" if i == DEPTH - 1 else "X to C"
        lines.append(f"  relation r{i} from {ends} kind {kind}")
    report = build_report([_module("Kinds", lines)])
    # Only the deepest relation swaps its endpoints against belongsTo.
    assert Counter(d.code for d in report.diagnostics) == Counter({"E231": 1})
    assert f"relation Kinds.r{DEPTH - 1} has kind" in report.diagnostics[0].message


def test_deep_kind_chain_entering_a_cycle():
    lines = ['  term X enriches ThingFO.Thing { description "d" }']
    lines += [f"  relation c{j} from X to X kind c{(j + 1) % 3}" for j in range(3)]
    lines += [f"  relation r{i} from X to X kind {'c0' if i == 0 else f'r{i - 1}'}" for i in range(DEPTH)]
    report = build_report([_module("Loop", lines)])
    assert Counter(d.code for d in report.diagnostics) == Counter({"E212": DEPTH + 3})
    messages = {d.message.split()[1]: d.message for d in report.diagnostics}
    entry = "kind chain cycles: Loop.c0 -> Loop.c1 -> Loop.c2 -> Loop.c0"
    assert messages[f"Loop.r{DEPTH - 1}"].endswith(entry)
    assert messages["Loop.c0"].endswith(entry)
    assert messages["Loop.c1"].endswith("kind chain cycles: Loop.c1 -> Loop.c2 -> Loop.c0 -> Loop.c1")


def _import_chain(n: int, closed: bool) -> list[tuple[str, str]]:
    names = [f"M{i:05d}" for i in range(n)]
    files = []
    for i, name in enumerate(names):
        nxt = names[i + 1] if i + 1 < n else (names[0] if closed else None)
        files.append(_module(name, [f"  imports {nxt}"] if nxt else []))
    return files


def test_deep_import_chain_is_clean():
    report = build_report(_import_chain(DEPTH, closed=False))
    assert report.diagnostics == ()
    assert report.summary["modules_per_level"]["CO"] == DEPTH


def test_deep_import_chain_closed_into_a_cycle_is_one_e103():
    report = build_report(_import_chain(DEPTH, closed=True))
    assert [d.code for d in report.diagnostics] == ["E103"]
    names = [f"M{i:05d}" for i in range(DEPTH)]
    assert report.diagnostics[0].message == "import cycle: " + " -> ".join(names + [names[0]])


def test_resolve_reads_each_relation_of_a_kind_chain_once(monkeypatch):
    """Work guard without timing: walks that did not stop at relations an
    earlier walk judged would read the relation index a quadratic number
    of times. Binding each `kind` reads it once more per relation."""
    n = 2_000
    body = [RelationDecl(f"r{i}", THING, THING,
                         QualifiedRef(BUILTIN_MODULE, "relatesWith") if i == 0 else QualifiedRef(None, f"r{i - 1}"))
            for i in range(n)]
    reads = Counter()

    class CountingIndex(dict):
        def __getitem__(self, key):
            reads["relations"] += 1
            return super().__getitem__(key)

        def __contains__(self, key):
            reads["relations"] += 1
            return super().__contains__(key)

        def get(self, key, default=None):
            reads["relations"] += 1
            return super().get(key, default)

    original_init = model.ResolvedSuite.__init__

    def init(self, *args):
        original_init(self, *args)
        self._relations = CountingIndex()

    monkeypatch.setattr(model.ResolvedSuite, "__init__", init)
    suite = _fresh([OntologyModule("Kinds", Level.CO, body=tuple(body))])
    assert Counter(status.outcome for status in suite.kind_chains.values()) == Counter({"foundational": n})
    assert 0 < reads["relations"] <= 2 * n + 4


# ---------------------------------------------------------------------------
# Memory: each cycle is stored once, and no outcome keeps a per-relation text.
# ---------------------------------------------------------------------------

CHAIN_N = 3_000


def _traced_outcomes(modules: list[OntologyModule]) -> tuple[Counter, int, int]:
    """Resolve, then read each relation's chain outcome once per mode.
    Returns the outcomes and the bytes that were left allocated and at peak,
    as `tracemalloc` counts them; the modules are built before it starts."""
    tracemalloc.start()
    try:
        suite = _fresh(modules)
        outcomes: Counter = Counter()
        for module, rel in suite.all_relations():
            status = chain_status(suite, module, rel)
            outcomes[(False, *_local(status))] += 1
            outcomes[(True, status.outcome, status.key)] += 1
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return outcomes, retained, peak


def _assert_linear(retained: int, peak: int) -> None:
    # About 350 bytes a relation stay allocated (the declaration index, the
    # import components and the one outcome table) and 600 at peak on the
    # lateral chain, inside the import pass: its graph kept both ways and
    # its depth-first stack. A per-relation text or rotation, or a second
    # table, goes over.
    assert retained <= 450 * CHAIN_N
    assert peak <= 700 * CHAIN_N


def test_a_long_kind_cycle_is_stored_once():
    n = CHAIN_N
    body = tuple(RelationDecl(f"r{i}", THING, THING, QualifiedRef(None, f"r{(i + 1) % n}")) for i in range(n))
    modules = [OntologyModule("Loop", Level.CO, body=body)]
    outcomes, retained, peak = _traced_outcomes(modules)
    assert outcomes == Counter({(False, "cycle", None): n, (True, "cycle", None): n})
    _assert_linear(retained, peak)
    suite = _fresh(modules)
    names = [f"Loop.r{i}" for i in range(n)]
    for i in (0, 1, n - 1):
        status = chain_status(suite, "Loop", body[i])
        assert status.text == "kind chain cycles: " + " -> ".join(names[i:] + names[:i + 1])


def test_a_long_lateral_chain_keeps_no_text_per_relation():
    n = CHAIN_N
    names = [f"M{i:05d}" for i in range(n)]
    modules = []
    for i, name in enumerate(names):
        last = i + 1 == n
        kind = QualifiedRef(BUILTIN_MODULE, "relatesWith") if last else QualifiedRef(names[i + 1], "r")
        imports = () if last else (ImportRef(names[i + 1]),)
        modules.append(OntologyModule(name, Level.CO, imports, (RelationDecl("r", THING, THING, kind),)))
    outcomes, retained, peak = _traced_outcomes(modules)
    # Each relation but the last kinds into the next module: followed inside
    # one module it escapes, and jointly it reaches relatesWith.
    assert outcomes == Counter({
        (False, "escape", None): n - 1,
        (False, "foundational", "relatesWith"): 1,
        (True, "foundational", "relatesWith"): n,
    })
    _assert_linear(retained, peak)


def test_a_long_import_cycle_is_one_e103_in_linear_memory():
    n = CHAIN_N
    names = [f"M{i:05d}" for i in range(n)]
    modules = [OntologyModule(name, Level.CO, (ImportRef(names[(i + 1) % n]),)) for i, name in enumerate(names)]
    tracemalloc.start()
    try:
        suite, diagnostics = resolve(modules, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert suite is None
    assert [(d.code, d.message) for d in diagnostics] == [("E103", "import cycle: " + " -> ".join(names + [names[0]]))]
    # The import pass peaks near 550 bytes a module: the import graph kept
    # both ways, the depth-first stack, the finishing list and one seen set.
    # An index table or a set of neighbours per module on top goes over.
    assert peak <= 650 * n
