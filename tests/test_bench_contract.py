"""The traced benchmark's contract with the pipeline.

`bench/tracing.py` wraps pipeline names in their modules and classes from
outside, so a rename in `src/` would only show up as a `KeyError` in a
traced benchmark run. These tests install its `Tracer` around one CLI
verdict, as the benchmark worker does, and check that every stage shows up
in the verdict's profile and that the originals come back afterwards. They
assert no timings.
"""

from __future__ import annotations

import pytest

from conftest import FIG2, MUTATIONS, load_bench, load_fig2, mutate
from oracles import oracle_tokenize

from ontoarch import cli, model, parser, reporting, validator

tracing = load_bench("tracing")

STAGES = (
    "tokenize",
    "parse_suite",
    "resolve",
    "validate_suite",
    *tracing.CHECKS,
    "violations_to_diagnostics",
    "Report.build",
    "render_json",
)
PATCHED = (cli, parser, validator, reporting.Report, model.ResolvedSuite)


def _fig2_e311_mutant(root):
    """The fig2 suite with the edit that makes one E311 finding, on disk."""
    _, fname, needle, replacement = next(m for m in MUTATIONS if m[0] == "E311")
    root.mkdir()
    for name, text in mutate(load_fig2(), fname, needle, replacement):
        (root / name).write_text(text, encoding="utf-8")
    return root


@pytest.mark.parametrize("findings", [0, 1])
def test_a_traced_verdict_profiles_every_stage_and_restores_the_originals(findings, tmp_path):
    suite = _fig2_e311_mutant(tmp_path / "suite") if findings else FIG2
    files = sorted(suite.glob("*.onto"))
    tokens = sum(len(parser.tokenize(p.read_bytes().decode("utf-8"), str(p))[0]) for p in files)
    before = [dict(vars(owner)) for owner in PATCHED]

    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        with tracer.span("verdict"):
            rc = cli.run(["validate", str(suite), "--format", "json", "--out", str(tmp_path / "report.json")])
    finally:
        restore()

    assert rc == findings
    assert len(tracer.last_report.diagnostics) == findings
    profile = tracing.verdict_profile(tracer.spans, 0)
    assert [s for s in STAGES if f"total:{s}" not in profile] == []
    assert tracer.counts["tokens"] == tokens
    after = [dict(vars(owner)) for owner in PATCHED]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert [k for k in old if old[k] is not new[k]] == []


#: The traced benchmark's `parser.tokens` for each bench suite at seed 1:
#: every file's tokens, its end-of-input token included, as counted before
#: tokens lost their line and columns.
TOKENS = {"wide_clean": 91057, "deep_chains": 9642, "dirty_worlds": 117003}


@pytest.mark.parametrize("workload", sorted(TOKENS))
def test_the_tracer_sees_one_tokenize_per_file_and_counts_every_token(workload):
    files = sorted(getattr(load_bench("generators"), workload)(1).files.items())
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        # `parse_suite` finds the wrapper only by looking `tokenize` up in
        # `parser` at call time.
        ast, diagnostics = parser.parse_suite(files)
    finally:
        restore()
    assert diagnostics == [] and ast.decls
    assert [span[2] for span in tracer.spans] == ["tokenize"] * len(files)
    assert tracer.counts["tokens"] == TOKENS[workload]
    for path, text in files:
        tokens, starts, _ = parser.tokenize(text, path)
        assert len(tokens) == len(starts) == len(oracle_tokenize(text, path)[0])
        assert tokens[-1][0] is parser.TokenKind.EOI
