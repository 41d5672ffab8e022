"""The report-digest corpus: fig2, its ten single-edit mutants, a few
hundred small generated suites and a few hand-written ones, each with the
digests of its report.

`tests/fixtures/report_digests.json` holds, for each input, the sha256 of
its files, the exit code, the number of findings per code and the sha256 of
`render_text` and of `render_json`. `tests/test_report_digests.py` rebuilds
every report and compares, so a change that moves any report, by one byte,
fails tier-1. A change that moves reports on purpose rewrites the fixture
and names the rewrite, and the report change behind it, in CHANGES.md:

    PYTHONPATH=src python tests/report_digests.py --rewrite

Run without arguments, the script prints the inputs whose reports moved.

The suites come from `random.Random(seed)`, whose sequences are stable
across Python versions, not from hypothesis, whose examples are not. Their
vocabulary is that of `test_file_order.py`, with bad levels, unknown
predicates, self-imports, stray characters and every attribute key added,
so that together the inputs hit every code of `CODE_CATALOG` but E213 (see
`test_report_digests.py`). The hand-written suites reach the wordings of
E101 and E102 that no generated suite does: every name the generator draws
is declared once, and every ThingFO name it draws exists.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from typing import Iterator

from fig2_corpus import FIXTURES, MUTATIONS, load_fig2, mutate

from ontoarch import metamodel
from ontoarch.cli import build_report
from ontoarch.reporting import exit_code, render_json, render_text

DIGESTS = FIXTURES / "report_digests.json"
SUITES = 500

LEVELS = ("FO", "CO", "TDO", "LDO", "XX")
MODULES = ("M0", "M1", "M2", "M3")
TERMS = ("t0", "t1", "t2", "t3")
RELATIONS = ("r0", "r1", "r2")
FO_TERMS = tuple(metamodel.TERM_SPECS)
FO_RELATIONS = tuple(metamodel.RELATIONSHIP_VARIANTS)
PREDICATES = tuple(metamodel.WORLD_PREDICATES)
ATTRIBUTE_KEYS = (
    "description", "description", "name", "structural_description", "behavioral_description",
    "descriptive_statement", "positive_statement", "specification",
)

#: Replacement tokens for the single-token edits.
VOCABULARY = (
    "ontology", "at", "imports", "term", "enriches", "scope", "particulars",
    "relation", "from", "to", "kind", "instances", "of", "individual", "world",
    "thing", "property", "power", "CO", "TDO", "FO", "{", "}", "(", ")", ",",
    ".", ":", ";", '"d"', "ThingFO", "Thing", "belongsTo", "enables",
    *MODULES, *TERMS, *RELATIONS,
)


def _level(rnd: random.Random) -> str:
    """A level for a module: now and then FO, which only ThingFO may hold, or
    a name that is no level at all."""
    roll = rnd.random()
    if roll < 0.04:
        return "FO"
    if roll < 0.06:
        return "XX"
    return rnd.choice(("CO", "CO", "TDO", "LDO"))


def _ref(rnd: random.Random, declared: list[tuple[str, str]], builtin: tuple[str, ...], here: str) -> list[str]:
    """A ThingFO name, or a reference to one of the `declared` (module,
    name) pairs: bare inside its own module, `Module.Name` elsewhere."""
    if not declared or rnd.random() < 0.5:
        return ["ThingFO", ".", rnd.choice(builtin)]
    module, name = rnd.choice(declared)
    return [name] if module == here else [module, ".", name]


def _above(
    rnd: random.Random, name: str, declared: list, builtin: tuple[str, ...], levels: dict[str, str], stray: float
) -> list[str]:
    """What a term or relation of module `name` enriches or has as its kind:
    one of the `declared` names of the immediately higher level, or a
    ThingFO name when there is none; with odds `stray`, any name, which may
    skip a level or close a cycle."""
    if rnd.random() < stray:
        return _ref(rnd, declared, builtin, name)
    rank = LEVELS.index(levels[name])
    above = [(m, n) for m, n in declared if LEVELS.index(levels[m]) == rank - 1]
    if not above:
        return ["ThingFO", ".", rnd.choice(builtin)]
    module, target = rnd.choice(above)
    return [module, ".", target]


def _module(
    rnd: random.Random, name: str, terms: list, relations: list, levels: dict[str, str], stray: float
) -> list[str]:
    """A module imports modules of its level declared before it, or with
    odds `stray` of any level; now and then it imports any module, self
    included, which may close an import cycle."""
    out = ["ontology", name, "at", levels[name], "{"]
    here = MODULES.index(name)
    peers = [m for m in MODULES[:here] if levels[m] == levels[name] or rnd.random() < stray]
    for target in rnd.sample(peers, min(len(peers), rnd.randint(0, 2))):
        out += ["imports", target]
    if rnd.random() < 0.06:
        out += ["imports", rnd.choice(MODULES[here:])]
    for term in (t for m, t in terms if m == name):
        out += ["term", term, "enriches", *_above(rnd, name, terms, FO_TERMS, levels, stray)]
        if rnd.random() < 0.3:
            out += ["scope", rnd.choice(("particulars", "universals"))]
        if rnd.random() < 0.5:
            out += ["{", rnd.choice(ATTRIBUTE_KEYS), '"d"', "}"]
    for rel in (r for m, r in relations if m == name):
        out += ["relation", rel, "from", *_ref(rnd, terms, FO_TERMS, name)]
        out += ["to", *_ref(rnd, terms, FO_TERMS, name)]
        out += ["kind", *_above(rnd, name, relations, FO_RELATIONS, levels, stray)]
    return out + ["}"]


def _side(rnd: random.Random, sort: str, terms: list, of: str) -> list[str]:
    """A fact argument of the given sort, or now and then of any sort."""
    if rnd.random() < 0.04:
        sort = rnd.choice(("Property", "Power", "Thing", "Assertion"))
    thing = rnd.choice(("x", "y"))
    if sort in ("Property", "Power"):
        return [thing, ".", "p" if sort == "Property" else "q"]
    if sort == "Thing":
        return [thing]
    return _ref(rnd, terms, FO_TERMS, of)


def _instances(rnd: random.Random, names: tuple[str, ...], terms: list) -> list[str]:
    of = rnd.choice(names)
    out = ["instances", "of", of, "{"]
    for k in range(rnd.randint(0, 2)):
        out += ["individual", f"a{k}", ":", *_ref(rnd, terms, FO_TERMS, of)]
    for w in range(rnd.randint(0, 2)):
        out += ["world", f"w{w}", "{"]
        for thing in ("x", "x") if rnd.random() < 0.03 else ("x", "y"):
            out += ["thing", thing]
            if rnd.random() < 0.5:
                out += [":", *_ref(rnd, terms, FO_TERMS, of)]
            out += ["{", "property", "p", ";", "power", "q", ";", "}"]
        for _ in range(rnd.randint(0, 5)):
            if rnd.random() < 0.02:
                out += ["emits", "(", "x", ",", "y", ")"]
                continue
            predicate = rnd.choice(PREDICATES)
            spec = metamodel.WORLD_PREDICATES[predicate]
            sides = [_side(rnd, sort, terms, of) for sort in (spec.domain, spec.range)]
            out += [predicate, "(", *sides[0], ",", *sides[1], ")"]
        out.append("}")
    return out + ["}"]


def _join(tokens: list[str]) -> str:
    # "a . b" would lex the same as "a.b"; joining on spaces keeps the token
    # boundaries the edit chose and one line per declaration keeps spans apart.
    text = " ".join(tokens)
    for word in ("term", "relation", "imports", "individual", "world", "thing", "}"):
        text = text.replace(f" {word} ", f"\n{word} ")
    return text


def random_suite(seed: int) -> list[tuple[str, str]]:
    """Two to four modules, one file each, whose enrichment, kind and import
    references cross module boundaries at random, and up to two instance
    files. A third of the suites then take a single-token edit: a token
    dropped, doubled or replaced, or a character that is no token put in."""
    rnd = random.Random(seed)
    names = MODULES[:rnd.randint(2, len(MODULES))]
    terms = [(m, t) for m in names for t in rnd.sample(TERMS, rnd.randint(1, len(TERMS)))]
    relations = [(m, r) for m in names for r in rnd.sample(RELATIONS, rnd.choice((0, 0, 1, 2, 3)))]
    levels = [_level(rnd) for _ in names]
    if rnd.random() < 0.5:  # layered: the earlier a module, the more abstract
        levels.sort(key=LEVELS.index)
    stray = rnd.choice((0.05, 0.3, 0.6))
    files = [_module(rnd, m, terms, relations, dict(zip(names, levels)), stray) for m in names]
    files += [_instances(rnd, names, terms) for _ in range(rnd.randint(0, 2))]
    if rnd.random() < 1 / 3:
        tokens = rnd.choice(files)
        at = rnd.randrange(len(tokens))
        edit = rnd.choice(("drop", "double", "replace", "stray"))
        if edit == "drop":
            del tokens[at]
        elif edit == "double":
            tokens.insert(at, tokens[at])
        elif edit == "replace":
            tokens[at] = rnd.choice(VOCABULARY)
        else:
            tokens.insert(at, rnd.choice(("¢", "\x00", "@")))
    return [(f"f{k}.onto", _join(tokens)) for k, tokens in enumerate(files)]


#: A module with one described term, left open for more declarations.
_MODULE_A = 'ontology A at CO {\n  term X enriches ThingFO.Thing { description "x" }\n'

#: Each hand-written suite's name and its one file's text.
HAND_WRITTEN = (
    ("hand/E102-declaration", _MODULE_A + "  relation X from X to X kind ThingFO.relatesWith\n}\n"),
    ("hand/E102-attribute",
     'ontology A at CO {\n  term X enriches ThingFO.Thing { description "x" description "y" }\n}\n'),
    ("hand/E102-individual", _MODULE_A + "}\ninstances of A {\n  individual a : X\n  individual a : X\n}\n"),
    ("hand/E102-world", _MODULE_A + "}\ninstances of A {\n  world w { }\n  world w { }\n}\n"),
    ("hand/E102-part",
     _MODULE_A + "}\ninstances of A {\n  world w {\n    thing t : X { property p; power p; }\n  }\n}\n"),
    ("hand/E101-thingfo-term", 'ontology A at CO {\n  term X enriches ThingFO.Entityy { description "x" }\n}\n'),
    ("hand/E101-thingfo-relationship", _MODULE_A + "  relation r from X to X kind ThingFO.relatesTo\n}\n"),
)


def corpus() -> Iterator[tuple[str, list[tuple[str, str]]]]:
    """Each input's name and its `(path, text)` files."""
    fig2 = load_fig2()
    yield "fig2", fig2
    for code, fname, needle, replacement in MUTATIONS:
        yield f"fig2/{code}", mutate(fig2, fname, needle, replacement)
    for seed in range(SUITES):
        yield f"random/{seed:03d}", random_suite(seed)
    for name, text in HAND_WRITTEN:
        yield name, [("a.onto", text)]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(files: list[tuple[str, str]]) -> dict:
    report = build_report(files)
    return {
        "input": _sha256(json.dumps(files, ensure_ascii=False)),
        "exit": exit_code(report),
        "counts": dict(sorted(Counter(d.code for d in report.diagnostics).items())),
        "text": _sha256(render_text(report)),
        "json": _sha256(render_json(report)),
    }


def compute() -> dict[str, dict]:
    return {name: digest(files) for name, files in corpus()}


def load() -> dict[str, dict]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def moves(committed: dict[str, dict], current: dict[str, dict]) -> list[str]:
    """One line per input whose digests differ: a changed input means the
    corpus changed; otherwise its report moved, by these per-code counts."""
    out = [f"{name}: not in the committed digests" for name in current.keys() - committed.keys()]
    out += [f"{name}: no longer in the corpus" for name in committed.keys() - current.keys()]
    for name in sorted(committed.keys() & current.keys()):
        old, new = committed[name], current[name]
        if old["input"] != new["input"]:
            out.append(f"{name}: input changed (the corpus generator or fig2 moved)")
            continue
        changed = [key for key in ("exit", "text", "json") if old[key] != new[key]]
        if not changed:
            continue
        codes = sorted(old["counts"].keys() | new["counts"].keys())
        deltas = [
            f"{code} {n:+d}" for code in codes if (n := new["counts"].get(code, 0) - old["counts"].get(code, 0))
        ]
        out.append(f"{name}: {', '.join(changed)} moved; per-code counts: {', '.join(deltas) or 'unchanged'}")
    return sorted(out)


def main(argv: list[str]) -> int:
    current = compute()
    if argv == ["--rewrite"]:
        DIGESTS.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(current)} digests to {DIGESTS}")
        return 0
    if argv:
        print("usage: report_digests.py [--rewrite]", file=sys.stderr)
        return 2
    moved = moves(load(), current)
    print("\n".join(moved) if moved else f"all {len(current)} reports match their digests")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
