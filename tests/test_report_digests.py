"""Reports stay byte-identical on a committed corpus: fig2, its ten
single-edit mutants, 500 small generated suites and seven hand-written
ones (`report_digests.py`), and that corpus hits every diagnostic code.

The corpus also pins the finding record: every finding `validate_suite`
returns carries the rule its code has in the catalog and a non-empty
witness, so the JSON never reads `""` where a witness belongs.
"""

from __future__ import annotations

from report_digests import compute, corpus, load, moves

from ontoarch.model import resolve
from ontoarch.parser import parse_suite
from ontoarch.reporting import CODE_CATALOG, Diagnostic
from ontoarch.validator import validate_suite

#: E213 is a term with no enrichment target. `parse_term` requires
#: `enriches`, so only a term built in Python, never a parsed one, has none.
UNREACHABLE_FROM_TEXT = {"E213"}


def test_reports_match_the_committed_digests():
    moved = moves(load(), compute())
    shown = moved[:40] + ([f"... and {len(moved) - 40} more"] if len(moved) > 40 else [])
    assert not moved, "reports moved (see `python tests/report_digests.py`):\n" + "\n".join(shown)


def test_the_corpus_hits_every_code():
    hit = set().union(*(entry["counts"] for entry in load().values()))
    assert hit == CODE_CATALOG.keys() - UNREACHABLE_FROM_TEXT


def test_every_validator_finding_carries_its_rule_and_a_witness():
    findings = 0
    for name, files in corpus():
        ast, _ = parse_suite(files)
        suite, _ = resolve(ast.modules, ast.instance_files)
        if suite is None:
            continue
        for d in validate_suite(suite):
            assert type(d) is Diagnostic, name
            assert d.rule == CODE_CATALOG[d.code].rule, (name, d)
            assert isinstance(d.witness, str) and d.witness, (name, d)
            findings += 1
    assert findings > 1000
