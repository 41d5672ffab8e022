"""Seeded `.onto` suite generators, one per benchmark workload.

Each generator takes a seed and returns a `Suite`: the files to write, the
verdict the validator must reach on them, and the input properties the
workload is chosen for. The expected verdict (exit code, diagnostic count per
code, report summary) is derived only from what the generator planted; this
module never imports ontoarch. The seed changes names, link targets and where
violations sit, never the counts, so every seed gives the same amount of work.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Suite:
    files: dict[str, str]  # file name -> text
    expected: dict  # {"exit_code", "codes", "summary"}
    props: dict  # input properties recorded beside the workload


def _hex(rng: random.Random) -> str:
    return f"{rng.getrandbits(32):08x}"


def _spread(rng: random.Random, n: int, size: int) -> list[int]:
    """`n` evenly spaced positions in `range(size)`, in seeded order.

    Lookups in ontoarch scan lists and walk chains, so their cost depends on
    the position referenced; fixed positions keep every seed's work equal."""
    positions = [(2 * i + 1) * size // (2 * n) for i in range(n)]
    rng.shuffle(positions)
    return positions


def _finish(
    files: dict[str, str],
    *,
    modules_per_level: dict[str, int],
    terms: int,
    relations: int,
    instance_files: int,
    individuals: int,
    worlds: int,
    things: int,
    facts: int,
    codes: Counter,
    terms_per_module: dict[str, int],
    max_enrichment_depth: int,
    max_kind_chain: int,
) -> Suite:
    errors = sum(n for code, n in codes.items() if code.startswith("E"))
    warnings = sum(n for code, n in codes.items() if code.startswith("W"))
    summary = {
        "errors": errors,
        "warnings": warnings,
        "individuals": individuals,
        "instance_files": instance_files,
        "modules_per_level": {"FO": 1, "CO": 0, "TDO": 0, "LDO": 0, **modules_per_level},
        "relations": relations,
        "terms": terms,
        "worlds": worlds,
    }
    expected = {
        "exit_code": 1 if errors else 0,
        "codes": dict(sorted(codes.items())),
        "summary": summary,
    }
    props = {
        "files": len(files),
        "bytes": sum(len(text.encode("utf-8")) for text in files.values()),
        "decls": terms + relations + individuals + things + facts,
        "terms_per_module": terms_per_module,
        "max_enrichment_depth": max_enrichment_depth,
        "max_kind_chain": max_kind_chain,
        "expected_diagnostics": errors + warnings,
    }
    return Suite(files, expected, props)


def wide_clean(seed: int) -> Suite:
    """Three very large CO/TDO/LDO modules and many small clean worlds: the
    shape of the acceptance suite's scale test, with seeded link targets."""
    n_terms, n_worlds = 5000, 500
    rng = random.Random(seed)
    n_tdo = n_ldo = n_terms // 3
    n_co = n_terms - n_tdo - n_ldo
    co = ["ontology WideCO at CO {"]
    for i in range(n_co):
        co.append(f'  term C{i} enriches ThingFO.Thing {{ description "core term {_hex(rng)}" }}')
    co.append(f"  relation link from C{rng.randrange(n_co)} to C{rng.randrange(n_co)} kind ThingFO.relatesWith")
    co.append("}")
    tdo = ["ontology WideTDO at TDO {"]
    for i, k in enumerate(_spread(rng, n_tdo, n_co)):
        tdo.append(f'  term T{i} enriches WideCO.C{k} {{ description "domain term {_hex(rng)}" }}')
    tdo.append(f"  relation tlink from T{rng.randrange(n_tdo)} to T{rng.randrange(n_tdo)} kind WideCO.link")
    tdo.append("}")
    ldo = ["ontology WideLDO at LDO {"]
    for i, k in enumerate(_spread(rng, n_ldo, n_tdo)):
        ldo.append(f'  term L{i} enriches WideTDO.T{k} {{ description "low term {_hex(rng)}" }}')
    ldo.append(f"  relation llink from L{rng.randrange(n_ldo)} to L{rng.randrange(n_ldo)} kind WideTDO.tlink")
    ldo.append("}")
    inst = ["instances of WideLDO {"]
    types = iter(_spread(rng, 2 * n_worlds, n_ldo))
    for i in range(n_worlds):
        a, b = f"a{i}", f"b{i}"
        inst += [
            f"  world w{i} {{",
            f"    thing {a} : L{next(types)} {{ property p; power q; }}",
            f"    thing {b} : L{next(types)} {{ property p; power q; }}",
            f"    enables({a}.p, {a}.q)",
            f"    enables({b}.p, {b}.q)",
            f"    actsUpon({a}.q, {a}.p)",
            f"    actsUpon({b}.q, {b}.p)",
            f"    interacts({a}.q, {b})",
            f"    relatesWith({a}, {b})",
            "  }",
        ]
    inst.append("}")
    files = {
        "wide_co.onto": "\n".join(co) + "\n",
        "wide_tdo.onto": "\n".join(tdo) + "\n",
        "wide_ldo.onto": "\n".join(ldo) + "\n",
        "wide_instances.onto": "\n".join(inst) + "\n",
    }
    return _finish(
        files,
        modules_per_level={"CO": 1, "TDO": 1, "LDO": 1},
        terms=n_terms,
        relations=3,
        instance_files=1,
        individuals=0,
        worlds=n_worlds,
        things=2 * n_worlds,
        facts=6 * n_worlds,
        codes=Counter(),
        terms_per_module={"WideCO": n_co, "WideTDO": n_tdo, "WideLDO": n_ldo},
        max_enrichment_depth=3,
        max_kind_chain=3,
    )


def deep_chains(seed: int) -> Suite:
    """Long chains in a small suite: a same-level enrichment chain and a
    same-module kind chain in one CO module, import-linked TDO pairs with
    lateral kind chains, planted kind cycles and lateral dead ends.

    A long import chain is left out on purpose: its cost is linear, and deep
    ones end in RecursionError in the import-cycle check."""
    depth = 200  # terms in the enrichment chain, relations in the kind chain
    pairs = 10  # import-linked TDO module pairs ...
    lateral_terms = 10  # ... with this many terms per module
    hops = 20  # relations per lateral kind chain, two chains per pair
    cycles = (2, 3, 4, 5)  # lengths of the planted kind cycles
    dead_ends, lone = 6, 3  # planted E221 relations, lone modules they point into
    rng = random.Random(seed)
    codes: Counter = Counter()

    endpoints = iter(_spread(rng, 2 * (depth + sum(cycles)), depth))

    def chain_term() -> str:
        return f"K{next(endpoints)}"

    co = ["ontology ChainCO at CO {"]
    for i in range(depth):
        target = "ThingFO.Thing" if i == 0 else f"K{i - 1}"
        co.append(f'  term K{i} enriches {target} {{ description "chain term {_hex(rng)}" }}')
    codes["E211"] += depth - 1  # K1.. enrich a term of their own level
    for i in range(depth):
        kind = "ThingFO.relatesWith" if i == 0 else f"r{i - 1}"
        co.append(f"  relation r{i} from {chain_term()} to {chain_term()} kind {kind}")
    for c, length in enumerate(cycles):
        for j in range(length):
            co.append(f"  relation c{c}_{j} from {chain_term()} to {chain_term()} kind c{c}_{(j + 1) % length}")
        codes["E212"] += length
    co.append("}")

    # Other terms enrich chain terms K<k> (depth k + 1), and each lateral
    # chain ends in a chain relation r<k> (k + 1 relations from ThingFO).
    targets = _spread(rng, 2 * pairs * lateral_terms + 2 * lone, depth)
    entries = _spread(rng, 2 * pairs, depth)
    next_target, next_entry = iter(targets), iter(entries)

    def below_chain() -> str:
        return f"ChainCO.K{next(next_target)}"

    modules: dict[str, list[str]] = {}
    for p in range(pairs):
        a, b = f"LatA{p}", f"LatB{p}"
        modules[a] = [f"ontology {a} at TDO {{"]
        modules[b] = [f"ontology {b} at TDO {{", f"  imports {a}"]
        for name in (a, b):
            for t in range(lateral_terms):
                modules[name].append(f'  term S{t} enriches {below_chain()} {{ description "lateral term {_hex(rng)}" }}')
        for chain, first, second in (("x", a, b), ("y", b, a)):
            for h in range(hops):
                here, prev = (first, second) if h % 2 == 0 else (second, first)
                kind = f"ChainCO.r{next(next_entry)}" if h == 0 else f"{prev}.{chain}{h - 1}"
                modules[here].append(
                    f"  relation {chain}{h} from S{rng.randrange(lateral_terms)} "
                    f"to S{rng.randrange(lateral_terms)} kind {kind}"
                )
    lone_lines = []
    for m in range(lone):
        lone_lines += [
            f"ontology Lone{m} at TDO {{",
            f'  term S0 enriches {below_chain()} {{ description "lone term {_hex(rng)}" }}',
            f'  term S1 enriches {below_chain()} {{ description "lone term {_hex(rng)}" }}',
            "  relation anchor from S0 to S1 kind ThingFO.relatesWith",
            "}",
        ]
    for d in range(dead_ends):
        side = rng.choice(("LatA", "LatB"))
        modules[f"{side}{rng.randrange(pairs)}"].append(
            f"  relation dead{d} from S{rng.randrange(lateral_terms)} "
            f"to S{rng.randrange(lateral_terms)} kind Lone{rng.randrange(lone)}.anchor"
        )
    codes["E221"] += dead_ends

    files = {"chain_co.onto": "\n".join(co) + "\n", "lone.onto": "\n".join(lone_lines) + "\n"}
    for p in range(pairs):
        text = [*modules[f"LatA{p}"], "}", *modules[f"LatB{p}"], "}"]
        files[f"lateral_{p:02d}.onto"] = "\n".join(text) + "\n"
    n_terms = depth + 2 * pairs * lateral_terms + 2 * lone
    n_relations = depth + sum(cycles) + 2 * pairs * hops + dead_ends + lone
    terms_per_module = {"ChainCO": depth}
    terms_per_module.update({name: lateral_terms for name in sorted(modules)})
    terms_per_module.update({f"Lone{m}": 2 for m in range(lone)})
    return _finish(
        files,
        modules_per_level={"CO": 1, "TDO": 2 * pairs + lone},
        terms=n_terms,
        relations=n_relations,
        instance_files=0,
        individuals=0,
        worlds=0,
        things=0,
        facts=0,
        codes=codes,
        terms_per_module=terms_per_module,
        max_enrichment_depth=max(depth, max(targets) + 2),
        max_kind_chain=max(depth, hops + max(entries) + 1),
    )


FACT_KINDS = ("enables", "actsUpon", "interacts", "belongsTo", "defines", "relatesWith")
#: The diagnostic a planted bad fact of each kind must produce.
BAD_FACT_CODE = {
    "enables": "E311",
    "actsUpon": "E312",
    "interacts": "E313",
    "belongsTo": "E232",
    "defines": "E233",
    "relatesWith": "E234",
}


def dirty_worlds(seed: int) -> Suite:
    """One small CO module and many worlds full of planted instance-level
    violations: the failing path through axioms, conformance, cardinality
    and report rendering."""
    n_worlds, n_files = 300, 6
    things, per_kind = 6, 6  # things per world, facts of each kind per world
    bad_share = 0.2
    rng = random.Random(seed)
    thing_terms = [f"Th{i}" for i in range(36)]
    cats = [f"Cat{i}" for i in range(8)]
    asrs = [f"Asr{i}" for i in range(8)]
    co = ["ontology DirtyCO at CO {"]
    co += [f'  term {t} enriches ThingFO.Thing {{ description "thing {_hex(rng)}" }}' for t in thing_terms]
    co += [f'  term {t} enriches ThingFO.ThingCategory {{ descriptive_statement "category {_hex(rng)}" }}' for t in cats]
    co += [f'  term {t} enriches ThingFO.IntentionAssertion {{ positive_statement "goal {_hex(rng)}" }}' for t in asrs]
    co += [
        f"  relation rel0 from {rng.choice(thing_terms)} to {rng.choice(thing_terms)} kind ThingFO.relatesWith",
        f"  relation rel1 from {rng.choice(thing_terms)} to {rng.choice(thing_terms)} kind ThingFO.relatesWith",
        f"  relation cat0 from {rng.choice(thing_terms)} to {rng.choice(cats)} kind ThingFO.belongsTo",
        f"  relation def0 from {rng.choice(thing_terms)} to {rng.choice(asrs)} kind ThingFO.defines",
        "}",
    ]
    n_relations = 4

    slots = n_worlds * per_kind
    n_bad = round(slots * bad_share)
    bad = {kind: set(rng.sample(range(slots), n_bad)) for kind in FACT_KINDS}
    codes: Counter = Counter({BAD_FACT_CODE[kind]: n_bad for kind in FACT_KINDS})
    # Each world's actsUpon facts start at distinct powers, so exactly
    # 2 * things - per_kind powers per world act upon nothing.
    codes["W301"] = n_worlds * (2 * things - per_kind)

    def other(t: int) -> int:
        return (t + 1 + rng.randrange(things - 1)) % things

    powers = [(t, w) for t in range(things) for w in range(2)]
    per_file = n_worlds // n_files
    files = {"dirty_co.onto": "\n".join(co) + "\n"}
    for f in range(n_files):
        lines = ["instances of DirtyCO {"]
        for i in range(per_file):
            g = f * per_file + i
            lines.append(f"  world w{g} {{")
            for t in range(things):
                lines.append(
                    f"    thing t{t} : {rng.choice(thing_terms)} "
                    "{ property p0; property p1; power w0; power w1; }"
                )
            facts = []
            acting = rng.sample(powers, per_kind)
            for s in range(per_kind):
                slot = g * per_kind + s
                is_bad = {kind: slot in bad[kind] for kind in FACT_KINDS}
                t = rng.randrange(things)
                u = other(t) if is_bad["enables"] else t
                facts.append(f"enables(t{t}.p{rng.randrange(2)}, t{u}.w{rng.randrange(2)})")
                t, w = acting[s]
                u = other(t) if is_bad["actsUpon"] else t
                facts.append(f"actsUpon(t{t}.w{w}, t{u}.p{rng.randrange(2)})")
                t = rng.randrange(things)
                u = t if is_bad["interacts"] else other(t)
                facts.append(f"interacts(t{t}.w{rng.randrange(2)}, t{u})")
                target = rng.choice(thing_terms + asrs) if is_bad["belongsTo"] else rng.choice(cats)
                facts.append(f"belongsTo(t{rng.randrange(things)}, {target})")
                target = rng.choice(thing_terms + cats) if is_bad["defines"] else rng.choice(asrs)
                facts.append(f"defines(t{rng.randrange(things)}, {target})")
                t = rng.randrange(things)
                u = t if is_bad["relatesWith"] else other(t)
                facts.append(f"relatesWith(t{t}, t{u})")
            rng.shuffle(facts)
            lines += [f"    {fact}" for fact in facts]
            lines.append("  }")
        lines.append("}")
        files[f"dirty_worlds_{f}.onto"] = "\n".join(lines) + "\n"
    return _finish(
        files,
        modules_per_level={"CO": 1},
        terms=len(thing_terms) + len(cats) + len(asrs),
        relations=n_relations,
        instance_files=n_files,
        individuals=0,
        worlds=n_worlds,
        things=n_worlds * things,
        facts=n_worlds * per_kind * len(FACT_KINDS),
        codes=codes,
        terms_per_module={"DirtyCO": len(thing_terms) + len(cats) + len(asrs)},
        max_enrichment_depth=1,
        max_kind_chain=1,
    )


WORKLOADS = {"wide_clean": wide_clean, "deep_chains": deep_chains, "dirty_worlds": dirty_worlds}
