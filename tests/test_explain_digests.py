"""`metamodel` and `explain` print the same bytes for every topic.

`tests/fixtures/explain_digests.json` maps each command line to the sha256
of what it writes to stdout: `metamodel`, `metamodel --counts`, and
`explain <topic>` for every diagnostic code, axiom and rule, every ThingFO
term id, display name and synonym, every relationship key and display name,
and every property key and display name. The topics come from the catalog,
so a catalog whose order or contents changed moves the fixture's keys, not
only its digests. A change that moves the output on purpose rewrites the
fixture and names the rewrite in CHANGES.md:

    PYTHONPATH=src python tests/test_explain_digests.py --rewrite
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

from fig2_corpus import FIXTURES

from ontoarch import metamodel
from ontoarch.cli import run
from ontoarch.reporting import CODE_CATALOG

DIGESTS = FIXTURES / "explain_digests.json"


def topics() -> list[str]:
    """Every topic `explain` knows, in catalog order; a name that two
    entries share is asked once."""
    out = [*CODE_CATALOG, *metamodel.AXIOMS, *metamodel.ARCHITECTURE_RULES]
    for spec in metamodel.TERMS:
        out += [spec.id, spec.display, *spec.synonyms]
    for key, variants in metamodel.RELATIONSHIP_VARIANTS.items():
        out += [key, variants[0].display]
    for spec in metamodel.PROPERTIES:
        out += [spec.key, spec.display]
    return list(dict.fromkeys(out))


def commands() -> list[list[str]]:
    return [["metamodel"], ["metamodel", "--counts"], *(["explain", topic] for topic in topics())]


def stdout_of(argv: list[str]) -> bytes:
    """What `run(argv)` writes to stdout; it must exit 0."""
    buffer = io.BytesIO()
    stdout = io.TextIOWrapper(buffer, encoding="utf-8")
    with contextlib.redirect_stdout(stdout):
        assert run(argv) == 0, argv
    stdout.flush()
    return buffer.getvalue()


def compute() -> dict[str, str]:
    return {" ".join(argv): hashlib.sha256(stdout_of(argv)).hexdigest() for argv in commands()}


def test_metamodel_and_explain_match_the_committed_digests():
    committed = json.loads(DIGESTS.read_text(encoding="utf-8"))
    current = compute()
    assert list(current) == list(committed), "the catalog's topics or their order changed"
    moved = [command for command in current if current[command] != committed[command]]
    assert not moved, f"outputs moved: {moved}"


def test_every_topic_kind_is_covered():
    committed = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for topic in ("E101", "W301", "A3", "R2", "Thing Category", "Universal Thing", "actsUpon", "relates with",
                  "behavioral description"):
        assert f"explain {topic}" in committed


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit("usage: test_explain_digests.py --rewrite")
    current = compute()
    DIGESTS.write_text(json.dumps(current, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(current)} digests to {DIGESTS}")
