"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add `-rA` to see the printed
lines for passing tests).
"""

from __future__ import annotations

import itertools
import json
import random
import time
from contextlib import contextmanager

from conftest import FIG2, MUTATIONS, load_fig2, mutate
from oracles import oracle_check_axioms

from ontoarch import build_report, parse_suite, render_canonical, resolve
from ontoarch.cli import run
from ontoarch.model import Fact, PartDecl, QualifiedRef, ThingNode, World
from ontoarch.source import SourceSpan
from ontoarch.validator import check_axioms, check_rule1, check_rule2, validate_suite


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {number} FAIL: {title}")
        raise
    print(f"ACCEPTANCE criterion {number} PASS: {title}")


def test_criterion_1_metamodel_totals(capsys):
    with criterion(1, "metamodel --counts reports terms=19 properties=10 relationships=12"):
        start = time.perf_counter()
        rc = run(["metamodel", "--counts"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert rc == 0
        assert out == "terms=19 properties=10 relationships=12\n"
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def _two_thing_worlds():
    """Every world with 2 things, each owning <=1 property and <=1 power,
    over all subsets of the well-typed candidate edges."""
    shapes = [([], []), (["p"], []), ([], ["w"]), (["p"], ["w"])]
    span = SourceSpan("<enum>", 1, 1, 1, 1)

    def ref(text: str) -> QualifiedRef:
        if "." in text:
            a, b = text.split(".")
            return QualifiedRef(a, b, span)
        return QualifiedRef(None, text, span)

    total = 0
    for shape1, shape2 in itertools.product(shapes, repeat=2):
        specs = [("t1", *shape1), ("t2", *shape2)]
        things = tuple(
            ThingNode(
                name,
                None,
                tuple(PartDecl(f"{name}_{p}") for p in props),
                tuple(PartDecl(f"{name}_{w}") for w in pows),
            )
            for name, props, pows in specs
        )
        props = [f"{t.name}.{p.name}" for t in things for p in t.properties]
        pows = [f"{t.name}.{p.name}" for t in things for p in t.powers]
        names = [t.name for t in things]
        candidates = (
            [("enables", p, w) for p in props for w in pows]
            + [("actsUpon", w, p) for w in pows for p in props]
            + [("interacts", w, t) for w in pows for t in names]
        )
        for mask in range(2 ** len(candidates)):
            facts = tuple(
                Fact(pred, ref(a), ref(b), SourceSpan("<enum>", i + 1, 1, i + 1, 1))
                for i, (pred, a, b) in enumerate(candidates)
                if mask >> i & 1
            )
            total += 1
            yield World("w", things, facts)
    assert total == 4828  # sum over the 16 ownership configurations


def test_criterion_2_axiom_oracle_equivalence():
    with criterion(2, "check_axioms equals oracle_check_axioms on the exhaustive 2-thing domain"):
        start = time.perf_counter()
        count = 0
        for world in _two_thing_worlds():
            assert set(check_axioms(world)) == set(oracle_check_axioms(world))
            count += 1
        elapsed = time.perf_counter() - start
        assert count == 4828
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_3_fig2_suite_validates_clean(capsys):
    with criterion(3, "fig2 fixture suite validates with 0 errors and 0 warnings"):
        report = build_report(load_fig2())
        assert report.error_count == 0
        assert report.warning_count == 0
        rc = run(["validate", str(FIG2)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == "0 errors, 0 warnings\n"


def test_criterion_4_fig2_mutants_hit_exact_codes():
    with criterion(4, "ten single-edit mutants each yield exactly the targeted diagnostic"):
        assert len(MUTATIONS) == 10
        for expected, fname, needle, replacement in MUTATIONS:
            files = mutate(load_fig2(), fname, needle, replacement)
            report = build_report(files)
            got = [d.code for d in report.diagnostics]
            assert got == [expected], f"mutant {expected}: got {got}"


def test_criterion_5_parser_round_trip_over_corpus():
    with criterion(5, "parse -> render_canonical -> parse is a structural fixpoint on every corpus file"):
        for path in sorted(FIG2.glob("*.onto")):
            source = path.read_text(encoding="utf-8")
            ast1, diags1 = parse_suite([(path.name, source)])
            assert not diags1, path
            text1 = render_canonical(ast1)
            ast2, diags2 = parse_suite([(path.name, text1)])
            assert not diags2, path
            assert ast1.decls == ast2.decls, path
            assert render_canonical(ast2) == text1, path


def test_criterion_6_deterministic_reports(capsys):
    with criterion(6, "validate --format json is byte-identical across runs and path orders"):
        rc1 = run(["validate", "--format", "json", str(FIG2)])
        first = capsys.readouterr().out
        rc2 = run(["validate", "--format", "json", str(FIG2)])
        second = capsys.readouterr().out
        assert (rc1, first) == (rc2, second)
        paths = [str(p) for p in FIG2.glob("*.onto")]
        rng = random.Random(11)
        for _ in range(4):
            rng.shuffle(paths)
            rc = run(["validate", "--format", "json", *paths])
            out = capsys.readouterr().out
            assert rc == 0
            assert json.loads(out)["summary"] == json.loads(first)["summary"]
            assert out == first


def _suites_for_conservativity():
    yield load_fig2()
    for _, fname, needle, replacement in MUTATIONS:
        yield mutate(load_fig2(), fname, needle, replacement)


def test_criterion_7_rule2_conservative_on_singleton_components():
    with criterion(7, "check_rule2 adds nothing on single-module components, whose Rule #1 findings "
                      "validate_suite reports once each"):
        checked = 0
        rule1_seen = 0
        for files in _suites_for_conservativity():
            ast, diags = parse_suite(files)
            assert not diags
            suite, rdiags = resolve(ast.modules, ast.instance_files)
            assert not rdiags and suite is not None
            components = suite.components
            rule1 = check_rule1(suite)
            rule2 = check_rule2(suite)
            report = validate_suite(suite)

            def in_module(violation, module):
                return (
                    violation.span.file == module.span.file
                    and module.span.start_line <= violation.span.start_line <= module.span.end_line
                )

            for name, component in components.items():
                if len(component) != 1:
                    continue
                module = suite.modules[name]
                assert [v for v in rule2 if in_module(v, module)] == [], name
                for v in rule1:
                    if in_module(v, module):
                        assert report.count(v) == 1, (name, v)
                        rule1_seen += 1
                checked += 1
        assert checked >= 20  # TDO and LDO singletons across 11 suites
        assert rule1_seen >= 1  # some mutant breaks Rule #1 inside a singleton


def _generate_scale_suite(n_terms: int = 1000, n_worlds: int = 100) -> list[tuple[str, str]]:
    n_co = n_terms - 2 * (n_terms // 3)
    n_tdo = n_terms // 3
    n_ldo = n_terms // 3
    co = ["ontology GenCO at CO {"]
    for i in range(n_co):
        co.append(f'  term C{i} enriches ThingFO.Thing {{ description "core term {i}" }}')
    co.append("  relation link from C0 to C1 kind ThingFO.relatesWith")
    co.append("}")
    tdo = ["ontology GenTDO at TDO {"]
    for i in range(n_tdo):
        tdo.append(f'  term T{i} enriches GenCO.C{i % n_co} {{ description "domain term {i}" }}')
    tdo.append("  relation tlink from T0 to T1 kind GenCO.link")
    tdo.append("}")
    ldo = ["ontology GenLDO at LDO {"]
    for i in range(n_ldo):
        ldo.append(f'  term L{i} enriches GenTDO.T{i % n_tdo} {{ description "low term {i}" }}')
    ldo.append("  relation llink from L0 to L1 kind GenTDO.tlink")
    ldo.append("}")
    inst = ["instances of GenLDO {"]
    for i in range(n_worlds):
        inst.append(f"  world w{i} {{")
        inst.append(f"    thing a{i} : L{i % n_ldo} {{ property p; power q; }}")
        inst.append(f"    thing b{i} : L{(i + 1) % n_ldo} {{ property p; power q; }}")
        inst.append(f"    enables(a{i}.p, a{i}.q)")
        inst.append(f"    enables(b{i}.p, b{i}.q)")
        inst.append(f"    actsUpon(a{i}.q, a{i}.p)")
        inst.append(f"    actsUpon(b{i}.q, b{i}.p)")
        inst.append(f"    interacts(a{i}.q, b{i})")
        inst.append(f"    relatesWith(a{i}, b{i})")
        inst.append("  }")
    inst.append("}")
    return [
        ("gen_co.onto", "\n".join(co) + "\n"),
        ("gen_tdo.onto", "\n".join(tdo) + "\n"),
        ("gen_ldo.onto", "\n".join(ldo) + "\n"),
        ("gen_instances.onto", "\n".join(inst) + "\n"),
    ]


def test_criterion_8_scale_sanity():
    with criterion(8, "1,000 terms and 100 worlds validate end-to-end in under 5s"):
        files = _generate_scale_suite()
        assert sum(text.count("  term ") for _, text in files) == 1000
        start = time.perf_counter()
        report = build_report(files)
        elapsed = time.perf_counter() - start
        assert report.error_count == 0
        assert report.warning_count == 0
        assert elapsed < 5.0, f"took {elapsed:.3f}s"
