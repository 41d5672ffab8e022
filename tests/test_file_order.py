"""Reports do not depend on the order of the input files.

Suites are generated from the grammar: several modules, one file each, whose
enrichment, kind and import references cross module boundaries at random,
plus instance files with individuals and worlds. Half of them then take a
single-token edit (a token dropped, doubled or replaced), so parse errors and
every class of resolution and conformance finding show up too. The same
suites check that validation reports each finding once.

Token soup (arbitrary keywords, punctuation, names, strings and stray
characters, alone or strewn into declaration fragments) must also end in a
report, never an exception, in any file order.
"""

from __future__ import annotations

import random

from hypothesis import event, example, given, settings, strategies as st

from ontoarch import metamodel
from ontoarch.cli import build_report
from ontoarch.model import resolve
from ontoarch.parser import parse_suite
from ontoarch.reporting import CODE_CATALOG, render_json
from ontoarch.validator import check_rule1, check_rule2, validate_suite

MODULES = ("M0", "M1", "M2", "M3")
TERMS = ("t0", "t1", "t2", "t3")
RELATIONS = ("r0", "r1", "r2")
FO_TERMS = tuple(spec.id for spec in metamodel.all_term_specs())

#: Replacement tokens for the single-token edits.
VOCABULARY = (
    "ontology", "at", "imports", "term", "enriches", "scope", "particulars",
    "relation", "from", "to", "kind", "instances", "of", "individual", "world",
    "thing", "property", "power", "CO", "TDO", "FO", "{", "}", "(", ")", ",",
    ".", ":", ";", '"d"', "ThingFO", "Thing", "belongsTo", "enables",
    *MODULES, *TERMS, *RELATIONS,
)


@st.composite
def ref(draw, declared, builtin, here):
    """A `Module.Name` or bare reference to a declared name, or a ThingFO
    name; `declared` maps each module to its names of the wanted kind."""
    module = draw(st.sampled_from(sorted(declared)))
    if not declared[module] or draw(st.booleans()):
        return ["ThingFO", ".", draw(st.sampled_from(builtin))]
    name = draw(st.sampled_from(declared[module]))
    return [name] if module == here else [module, ".", name]


@st.composite
def module_tokens(draw, name, terms, relations, rank=None):
    """Module `name` of the suite's modules and names; given a `rank` of every
    (module, term), it imports only the modules before it and each term
    enriches a ThingFO term or a term ranked below it, so nothing cycles."""
    out = ["ontology", name, "at", draw(st.sampled_from(("CO", "CO", "TDO", "LDO"))), "{"]
    targets = sorted(terms) if rank is None else [m for m in sorted(terms) if m < name]
    for target in draw(st.lists(st.sampled_from(targets), max_size=2, unique=True)) if targets else ():
        if target != name:
            out += ["imports", target]
    for term in terms[name]:
        below = terms if rank is None else {
            m: [t for t in names if rank[m, t] < rank[name, term]] for m, names in terms.items()
        }
        out += ["term", term, "enriches", *draw(ref(below, FO_TERMS, name))]
        if draw(st.booleans()):
            out += ["scope", draw(st.sampled_from(("particulars", "universals")))]
        if draw(st.booleans()):
            out += ["{", "description", '"d"', "}"]
    for rel in relations[name]:
        out += ["relation", rel, "from", *draw(ref(terms, FO_TERMS, name))]
        out += ["to", *draw(ref(terms, FO_TERMS, name))]
        out += ["kind", *draw(ref(relations, metamodel.RELATIONSHIP_KEYS, name))]
    return out + ["}"]


@st.composite
def side(draw, sort, terms, of, mixed):
    """A fact argument of the given sort, or, when `mixed`, now and then of
    any sort, which does not bind (E101)."""
    if mixed and draw(st.integers(0, 9)) == 0:
        sort = draw(st.sampled_from(("Property", "Power", "Thing", "Assertion")))
    thing = draw(st.sampled_from(("x", "y")))
    if sort in ("Property", "Power"):
        return [thing, ".", "p" if sort == "Property" else "q"]
    if sort == "Thing":
        return [thing]
    return draw(ref(terms, FO_TERMS, of))


@st.composite
def instance_tokens(draw, terms, mixed):
    of = draw(st.sampled_from(sorted(terms)))
    out = ["instances", "of", of, "{"]
    for k in range(draw(st.integers(0, 2))):
        out += ["individual", f"a{k}", ":", *draw(ref(terms, FO_TERMS, of))]
    for w in range(draw(st.integers(0, 2))):
        out += ["world", f"w{w}", "{"]
        for thing in ("x", "y"):
            out += ["thing", thing]
            if draw(st.booleans()):
                out += [":", *draw(ref(terms, FO_TERMS, of))]
            out += ["{", "property", "p", ";", "power", "q", ";", "}"]
        for _ in range(draw(st.integers(0, 5))):
            predicate, spec = draw(st.sampled_from(tuple(metamodel.WORLD_PREDICATES.items())))
            sides = [draw(side(sort, terms, of, mixed)) for sort in (spec.domain, spec.range)]
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


@st.composite
def suites(draw, edits: bool = True, acyclic: bool = False) -> list[tuple[str, str]]:
    """Grammar-generated files; with `edits`, half of them take a single-token
    edit, and without, every file parses clean. With `acyclic`, no imports,
    no enrichment chain cycle and every fact argument of its predicate's
    sort: the terms are ranked at random, and each enriches only terms
    ranked below it, so every shape of acyclic chain, across modules either
    way, can be drawn."""
    names = MODULES[:draw(st.integers(2, len(MODULES)))]
    terms = {m: draw(st.lists(st.sampled_from(TERMS), min_size=1, unique=True)) for m in names}
    relations = {m: draw(st.lists(st.sampled_from(RELATIONS), unique=True)) for m in names}
    rank = None
    if acyclic:
        order = draw(st.permutations([(m, t) for m in names for t in terms[m]]))
        rank = {key: i for i, key in enumerate(order)}
    files = [draw(module_tokens(m, terms, relations, rank)) for m in names]
    files += [draw(instance_tokens(terms, not acyclic)) for _ in range(draw(st.integers(0, 2)))]
    if edits and draw(st.booleans()):
        tokens = files[draw(st.integers(0, len(files) - 1))]
        at = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(("drop", "double", "replace")))
        if edit == "drop":
            del tokens[at]
        elif edit == "double":
            tokens.insert(at, tokens[at])
        else:
            tokens[at] = draw(st.sampled_from(VOCABULARY))
    return [(f"f{k}.onto", _join(tokens)) for k, tokens in enumerate(files)]


@settings(max_examples=300, deadline=None)
@given(suites(), st.randoms(use_true_random=False))
@example(  # two files declare M0: the later one in source order is the E102
    [
        ("f0.onto", "ontology M0 at CO { term t0 enriches ThingFO.Thing }"),
        ("f1.onto", "ontology M0 at CO { term t1 enriches ThingFO.Thing }"),
    ],
    random.Random(0),
)
def test_report_is_independent_of_file_order(files, rnd):
    report = build_report(files)
    assert {d.code for d in report.diagnostics} <= CODE_CATALOG.keys()
    expected = render_json(report)
    shuffled = list(files)
    rnd.shuffle(shuffled)
    for order in (files[::-1], shuffled):
        assert render_json(build_report(order)) == expected


@settings(max_examples=300, deadline=None)
@given(suites())
def test_each_finding_is_reported_once(files):
    """Rule #2 reports only what the joint definition exposes (E221), so the
    collected findings hold no copies and each Rule #1 finding appears once."""
    ast, _ = parse_suite(files)
    suite, _ = resolve(ast.modules, ast.instance_files)
    if suite is None:
        event("unresolved")
        return
    report = validate_suite(suite)
    assert {v.code for v in check_rule2(suite)} <= {"E221"}
    assert len(set(report)) == len(report)
    for v in check_rule1(suite):
        assert report.count(v) == 1, v


#: Token soup: grammar keywords, punctuation, names, strings good and bad,
#: and stray characters.
SOUP = (
    *VOCABULARY, "ThingFO", "ThingCategory", "Assertion", "relatesWith", "x", "y", "p", "q",
    '"', '"a\\q"', "\\", "//", "/", "é", "٣", "\x00", " ", "\n", "\t",
)
HEADERS = ("ontology M0 at CO {", "ontology M1 at TDO { imports M0", "ontology M2 at LDO { imports M1")
MODULE_BODY = (
    "term t0 enriches ThingFO.Thing", "term t1 enriches M0.t0", "term t2 enriches t1",
    "term c0 enriches ThingFO.ThingCategory", "term t0 enriches M1.t0",
    "relation r0 from t0 to t0 kind ThingFO.relatesWith", "relation r1 from t0 to t0 kind M0.r0",
)
THINGS = ("thing x : t0 { property p; power q; }", "thing y { property p; power q; }")
FACTS = (
    "enables(x.p, x.q)", "actsUpon(y.q, x.p)", "interacts(x.q, x)", "belongsTo(x, c0)",
    "relatesWith(x, x)", "isSeenAs(x.p, y)", "defines(y, M0.t0)", "belongsTo(x, y.p)",
)

module_blocks = st.tuples(
    st.sampled_from(HEADERS), st.lists(st.sampled_from(MODULE_BODY), max_size=5)
).map(lambda b: [b[0], *b[1], "}"])
world_blocks = st.tuples(
    st.lists(st.sampled_from(THINGS), max_size=2), st.lists(st.sampled_from(FACTS), max_size=4)
).map(lambda b: ["world w0 {", *b[0], *b[1], "}"])
instance_blocks = st.lists(
    st.one_of(st.just(["individual a0 : t0"]), world_blocks), max_size=2
).map(lambda body: ["instances of M0 {", *(piece for part in body for piece in part), "}"])


@st.composite
def soup_file(draw) -> str:
    """Arbitrary soup, or declarations stitched from fragments with a few
    soup tokens strewn in, so that some files reach resolution."""
    if draw(st.booleans()):
        return " ".join(draw(st.lists(st.sampled_from(SOUP), max_size=30)))
    pieces = [p for block in draw(st.lists(st.one_of(module_blocks, instance_blocks), max_size=3)) for p in block]
    for _ in range(draw(st.integers(0, 2))):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(SOUP)))
    return "\n".join(pieces)


@settings(max_examples=300, deadline=None)
@given(st.lists(soup_file(), min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_token_soup_reports_in_any_file_order(texts, rnd):
    files = [(f"s{k}.onto", text) for k, text in enumerate(texts)]
    expected = render_json(build_report(files))
    shuffled = list(files)
    rnd.shuffle(shuffled)
    for order in (files[::-1], shuffled):
        assert render_json(build_report(order)) == expected
