"""Report rendering, ordering, golden files and exit codes, and the JSON
writer against the `json.dumps` serializer it replaced."""

from __future__ import annotations

import json
import random
import re
import sys

from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, load_fig2, mutate
from oracles import oracle_render_json

from ontoarch import build_report, metamodel, reporting
from ontoarch.reporting import (
    CODE_CATALOG,
    Diagnostic,
    Report,
    exit_code,
    render_json,
    render_text,
)
from ontoarch.source import SourceSpan

GOLDEN = FIXTURES / "golden"


def span(line=1, col=1, file="f.onto"):
    return SourceSpan(file, line, col, line, col)


def test_empty_report_text():
    assert render_text(Report.build([])) == "0 errors, 0 warnings\n"


def test_e311_line_carries_code_and_anchor():
    files = mutate(
        load_fig2(),
        "acme_instances.onto",
        "enables(run1.plan, run1.execute)",
        "enables(run1.plan, case1.verify)",
    )
    text = render_text(build_report(files))
    line = next(l for l in text.splitlines() if "E311" in l)
    assert "enables(prop, pow)" in line
    assert text.endswith("1 error, 0 warnings\n")


def test_errors_listed_before_warnings_at_equal_spans():
    warn = Diagnostic("W202", "warn", span())
    err = Diagnostic("E311", "err", span())
    report = Report.build([warn, err])
    assert [d.code for d in report.diagnostics] == ["E311", "W202"]


def test_ordering_survives_shuffled_input():
    diags = [
        Diagnostic("E101", "a", span(3, 1)),
        Diagnostic("W202", "b", span(1, 5, file="b.onto")),
        Diagnostic("E311", "c", span(1, 5, file="b.onto")),
        Diagnostic("E102", "d", span(1, 2)),
        Diagnostic("E101", "e", span(1, 9)),
    ]
    expected = Report.build(diags).diagnostics
    rng = random.Random(7)
    for _ in range(10):
        shuffled = diags[:]
        rng.shuffle(shuffled)
        assert Report.build(shuffled).diagnostics == expected


def test_render_json_empty_report_shape():
    text = render_json(Report.build([], {"terms": 0}))
    assert text.startswith('{"diagnostics":[],"report_version":1,"summary":{')
    parsed = json.loads(text)
    assert parsed["summary"]["errors"] == 0
    assert parsed["summary"]["warnings"] == 0


def test_render_json_is_byte_deterministic():
    report = build_report(load_fig2())
    assert render_json(report) == render_json(report)


def test_render_json_sorts_keys_and_strips_whitespace():
    report = Report.build([Diagnostic("E311", "m", span(), rule="A1", anchor="a", witness="w")])
    text = render_json(report)
    assert " " not in text.replace('" ', "")  # no insignificant whitespace
    diag = json.loads(text)["diagnostics"][0]
    assert list(diag) == sorted(diag)


def test_fig2_report_matches_golden():
    report = build_report(load_fig2())
    assert render_json(report) + "\n" == (GOLDEN / "fig2_report.json").read_text(encoding="utf-8")


def test_e311_mutant_report_matches_golden():
    files = mutate(
        load_fig2(),
        "acme_instances.onto",
        "enables(run1.plan, run1.execute)",
        "enables(run1.plan, case1.verify)",
    )
    report = build_report(files)
    assert render_json(report) + "\n" == (
        GOLDEN / "fig2_e311_mutant_report.json"
    ).read_text(encoding="utf-8")


def test_exit_codes():
    assert exit_code(Report.build([])) == 0
    assert exit_code(Report.build([Diagnostic("W202", "w", span())])) == 0
    assert exit_code(Report.build([Diagnostic("E101", "e", span())])) == 1
    assert exit_code(Report.build([Diagnostic("W202", "w", span())]), strict=True) == 1
    assert exit_code(Report.build([]), strict=True) == 0


def test_counts_equal_list_tallies():
    report = Report.build(
        [Diagnostic("E101", "e", span()), Diagnostic("W202", "w", span(2)), Diagnostic("E311", "x", span(3))]
    )
    assert report.error_count == 2
    assert report.warning_count == 1
    # A report counts by each code's first letter; `severity` is the
    # reference, for catalog codes and for codes no check makes.
    codes = ["E101", "W301", "E311", "W202", "e101", "", "E", "W", "X1", "E232", "W301"]
    report = Report.build([Diagnostic(code, "m", span(line)) for line, code in enumerate(codes, 1)])
    severities = [d.severity for d in report.diagnostics]
    assert (report.error_count, report.warning_count) == (severities.count("error"), severities.count("warning"))
    assert (report.error_count, report.warning_count) == (4, 7)


def test_every_code_is_a_severity_letter_and_three_digits():
    """`Diagnostic.sort_key` orders errors before warnings at one place by
    the code alone, which holds because "E" < "W"."""
    for code in CODE_CATALOG:
        assert re.fullmatch(r"[EW]\d{3}", code), code


@st.composite
def crowded_diagnostics(draw) -> list[Diagnostic]:
    """Diagnostics at a few start places, so that many share one, each
    with its own end, code and message."""
    out = []
    for _ in range(draw(st.integers(0, 40))):
        file = draw(st.sampled_from(("a.onto", "b.onto")))
        line, col = draw(st.integers(1, 2)), draw(st.integers(1, 3))
        end_line = line + draw(st.integers(0, 1))
        end_col = draw(st.integers(col if end_line == line else 1, 4))
        code = draw(st.sampled_from(("E101", "E232", "E311", "W201", "W301")))
        message = draw(st.sampled_from(("m", "n", "o")))
        out.append(Diagnostic(code, message, SourceSpan(file, line, col, end_line, end_col)))
    return out


@settings(max_examples=200, deadline=None)
@given(crowded_diagnostics())
def test_a_report_orders_its_diagnostics_by_file_start_code_and_message(diagnostics):
    report = Report.build(diagnostics)
    assert sorted(report.diagnostics, key=id) == sorted(diagnostics, key=id)
    keys = [(d.span.file, d.span.start_line, d.span.start_col, d.code, d.message) for d in report.diagnostics]
    assert keys == sorted(keys)
    # At one place, every error comes before every warning.
    severities = [(key[:3], d.severity) for key, d in zip(keys, report.diagnostics)]
    assert severities == sorted(severities)


def test_severity_derived_from_code_prefix():
    assert Diagnostic("E999", "m", span()).severity == "error"
    assert Diagnostic("W999", "m", span()).severity == "warning"


def test_rule_backed_codes_have_anchors_and_examples():
    for code, doc in CODE_CATALOG.items():
        if doc.rule is not None:
            assert doc.anchor, code
        assert doc.title


def test_world_rule_anchors_are_the_catalogs_own_definitions():
    """The anchors that quote one ThingFO definition whole are that
    definition, not a copy that could drift from it."""
    predicates = metamodel.WORLD_PREDICATES
    (described,) = (p for p in metamodel.PROPERTIES if (p.owner, p.key) == ("Thing", "description"))
    quoted = {
        "E232": predicates["belongsTo"].definition,
        "E233": predicates["defines"].definition,
        "E234": predicates["relatesWith"].definition,
        "W202": described.definition,
        "W301": predicates["actsUpon"].definition,
    }
    for code, definition in quoted.items():
        assert CODE_CATALOG[code].anchor is definition, code


def test_each_catalog_example_written_as_a_declaration_raises_exactly_its_own_code():
    declarations = {code: doc.example for code, doc in CODE_CATALOG.items() if doc.example.startswith("ontology ")}
    assert sorted(declarations) == ["E002", "E003", "E104", "E201"]
    for code, example in declarations.items():
        assert [d.code for d in build_report([("f.onto", example)]).diagnostics] == [code], example


#: Characters that JSON escapes or that are easy to get wrong: a quote, a
#: backslash, C0 controls, DEL, the line and paragraph separators, an astral
#: character and a lone surrogate.
AWKWARD = '"\\\x00\x08\t\n\x1f\x7f\u2028\u2029\U0001f600\ud800é'
strings = st.text(st.sampled_from(AWKWARD) | st.characters(), max_size=8)
file_names = st.one_of(strings, st.binary(max_size=6).map(lambda b: b.decode("utf-8", "backslashreplace")))
codes = st.one_of(st.sampled_from(sorted(CODE_CATALOG)), st.text('EWe0"\\\u2028', max_size=4))
rules = st.one_of(st.none(), st.sampled_from(sorted({d.rule for d in CODE_CATALOG.values()} - {None})), strings)
positions = st.tuples(st.integers(1, 10**12), st.integers(1, 10**12))  # (line, column)
summaries = st.dictionaries(
    strings, st.one_of(st.none(), st.integers(), strings, st.dictionaries(strings, st.integers(), max_size=3)), max_size=3
)


@st.composite
def reports(draw) -> Report:
    """Reports whose files and anchors repeat across findings, as they do
    in a real report, so the writer's per-value caches are exercised."""
    files = draw(st.lists(file_names, min_size=1, max_size=3))
    anchors = draw(st.lists(strings, min_size=1, max_size=3))
    diagnostics = []
    for _ in range(draw(st.integers(0, 6))):
        start, end = sorted([draw(positions), draw(positions)])
        diagnostics.append(Diagnostic(
            draw(codes),
            draw(strings),
            SourceSpan(draw(st.sampled_from(files)), *start, *end),
            draw(rules),
            draw(st.sampled_from(anchors)),
            draw(st.none() | strings),
        ))
    return Report.build(diagnostics, draw(summaries))


@settings(max_examples=500, deadline=None)
@given(reports())
def test_render_json_equals_the_json_dumps_oracle(report):
    assert render_json(report) == oracle_render_json(report)
    severities = [d.severity for d in report.diagnostics]
    assert report.error_count == severities.count("error")
    assert report.warning_count == severities.count("warning")
    assert report.error_count + report.warning_count == len(report.diagnostics)


@settings(max_examples=200, deadline=None)
@given(st.lists(codes, max_size=8), summaries)
def test_a_report_built_directly_counts_its_severities(drawn, summary):
    diagnostics = tuple(Diagnostic(code, "m", span(line)) for line, code in enumerate(drawn, 1))
    report = Report(diagnostics, summary)
    severities = [d.severity for d in diagnostics]
    assert report.error_count == severities.count("error")
    assert report.warning_count == severities.count("warning")
    assert report.diagnostics is diagnostics and report.summary is summary


def _many_chunks() -> Report:
    """A report of several of `render_json`'s chunks, with findings of every
    size up to more than a chunk, some of them with awkward characters."""
    rng = random.Random(3)
    diagnostics = []
    for i in range(3000):
        size = rng.choice([0, 10, 100, 1000]) if i != 1500 else reporting._RENDER_CHUNK + 17
        message = "".join(rng.choice("ab \"\\\n\u2028é") for _ in range(size))
        diagnostics.append(Diagnostic(rng.choice(["E311", "W301"]), message, span(i + 1, 1 + i % 7, f"f{i % 3}.onto"),
                                      "A1", "anchor", None if i % 4 else f"w{i}"))
    return Report.build(diagnostics, {"files": 3})


def test_render_json_under_a_trace_hook_equals_it_without_one():
    # Under a trace hook CPython copies the text at each `+=` instead of
    # growing it in place; the text grows by chunks, so that stays linear.
    report = _many_chunks()
    plain = render_json(report)
    assert len(plain) > 8 * reporting._RENDER_CHUNK
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: None)
    try:
        traced = render_json(report)
    finally:
        sys.settrace(previous)
    assert traced == plain
    assert plain == oracle_render_json(report)
