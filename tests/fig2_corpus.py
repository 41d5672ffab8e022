"""The fig2 corpus and its single-edit mutants, with no pytest import, so
that `report_digests.py` runs on an interpreter that has no pytest.
`conftest.py` re-exports these names for the tests."""

from __future__ import annotations

from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
FIG2 = FIXTURES / "fig2"

#: Ten single-edit mutants of the fig2 suite. Each entry is
#: (expected_code, file, needle, replacement); the E201 mutant appends a new
#: module after the last closing brace instead of replacing the first match.
MUTATIONS: tuple[tuple[str, str, str, str], ...] = (
    ("E201", "acme_ldo.onto", "@append", "\nontology AcmeFO at FO {\n}\n"),
    (
        "E202",
        "testing_tdo.onto",
        "ontology TestingTDO at TDO {",
        "ontology TestingTDO at TDO {\n  imports ProcessCO",
    ),
    ("E211", "acme_ldo.onto", "enriches TestingTDO.TestCase", "enriches ProcessCO.Activity"),
    ("E212", "acme_ldo.onto", "kind TestingTDO.exercises", "kind schedules"),
    (
        "E231",
        "process_co.onto",
        "relation categorizes from Process to ProductCategory kind ThingFO.belongsTo",
        "relation categorizes from Process to ProcessGoal kind ThingFO.belongsTo",
    ),
    (
        "E232",
        "acme_instances.onto",
        "belongsTo(run1, ProcessCO.ProductCategory)",
        "belongsTo(run1, ProcessCO.Process)",
    ),
    (
        "E301",
        "acme_instances.onto",
        "individual loginCheck : SmokeCase",
        "individual loginCheck : SmokeCase\n  individual catA : ProcessCO.ProductCategory",
    ),
    (
        "E311",
        "acme_instances.onto",
        "enables(run1.plan, run1.execute)",
        "enables(run1.plan, case1.verify)",
    ),
    (
        "E312",
        "acme_instances.onto",
        "actsUpon(run1.execute, run1.plan)",
        "actsUpon(run1.execute, case1.script)",
    ),
    (
        "E313",
        "acme_instances.onto",
        "interacts(run1.execute, case1)",
        "interacts(run1.execute, run1)",
    ),
)


def load_fig2() -> list[tuple[str, str]]:
    return [(p.name, p.read_text(encoding="utf-8")) for p in sorted(FIG2.glob("*.onto"))]


def mutate(files: list[tuple[str, str]], fname: str, needle: str, replacement: str) -> list[tuple[str, str]]:
    out = []
    applied = False
    for name, text in files:
        if name == fname:
            if needle == "@append":
                text = text + replacement
            else:
                assert needle in text, f"mutation needle missing in {fname}: {needle}"
                text = text.replace(needle, replacement, 1)
            applied = True
        out.append((name, text))
    assert applied, f"no such fixture file: {fname}"
    return out
