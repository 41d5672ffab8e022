"""Every CLI path over a real file tree ends in exit 0, 1 or 2, with UTF-8
output.

Trees are built on disk from names with a space, `é`, U+2028, a byte that
is not UTF-8 or a leading `-`, and from files that are empty, start with a
byte-order mark, hold token soup or are not UTF-8. Some trees also hold a
directory named `x.onto` and a symlink loop. `validate` (text and JSON, on
stdout and with `--out`) and `graph` (on stdout and with `--out`) run over
each tree, with stdout and stderr encoding strictly to UTF-8.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile

from hypothesis import HealthCheck, given, reject, settings, strategies as st

from conftest import load_fig2
from test_file_order import soup_file

from ontoarch import cli

#: Stems of file and directory names. A file is `<stem>.onto`, so no file
#: name equals a directory name.
STEMS = (b"a", b"with space", "é".encode(), "line\u2028sep".encode(), b"\xffbad", b"-lead")
SAMPLES = (
    *(text for _, text in load_fig2()),
    "ontology M0 at CO { term t0 enriches ThingFO.Thing }",
    "ontology MyFO at FO { }",
    "instances of M0 { world w { thing x { property p; power q; } enables(x.p, x.q) } }",
)

texts = st.one_of(st.sampled_from(SAMPLES), soup_file())
contents = st.one_of(
    st.just(b""),
    texts.map(str.encode),
    texts.map(lambda t: "\ufeff".encode() + t.encode()),  # byte-order mark
    st.tuples(texts, st.integers(0, 40)).map(lambda p: p[0].encode()[:p[1]] + b"\xe9" + p[0].encode()[p[1]:]),
)
files = st.tuples(st.lists(st.sampled_from(STEMS), max_size=2), st.sampled_from(STEMS), contents)


@st.composite
def file_trees(draw) -> tuple[list[tuple[bytes, bytes]], bool, bool]:
    """Files as (path under the root, content), and whether the tree also
    holds a directory `x.onto` and a symlink loop."""
    entries = [
        (b"/".join([*dirs, stem + b".onto"]), content)
        for dirs, stem, content in draw(st.lists(files, max_size=6))
    ]
    return entries, draw(st.booleans()), draw(st.booleans())


def _build(root: bytes, entries: list[tuple[bytes, bytes]], onto_dir: bool, loop: bool) -> list[bytes]:
    """Write the tree under `root` and return its file paths."""
    if onto_dir:
        entries = [*entries, (b"x.onto/inner.onto", SAMPLES[-1].encode())]
    paths = []
    for rel, content in entries:
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(content)
        paths.append(path)
    if loop:
        os.symlink(b".", os.path.join(root, b"loop"))
    return paths


def _run(argv: list[str]) -> tuple[int, str, str]:
    """`cli.run` with stdout and stderr that encode strictly to UTF-8; an
    unencodable character raises out of the command."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    out.flush()
    err.flush()
    return rc, out.buffer.getvalue().decode("utf-8"), err.buffer.getvalue().decode("utf-8")


def _check(argv: list[str], out_file: str | None) -> tuple[int, str]:
    """Run one command and check its contract; return its exit code and its
    output, from stdout or from `out_file`."""
    if out_file is not None:
        argv = [*argv, "--out", out_file]
    rc, out, err = _run(argv)
    assert rc in (0, 1, 2)
    errors = [line for line in err.split("\n") if line.startswith("ontoarch: error:")]
    assert len(errors) == (rc == 2), err
    if out_file is not None:
        assert out == ""
        if os.path.exists(out_file):
            with open(out_file, "rb") as fh:
                out = fh.read().decode("utf-8")
            os.remove(out_file)
    return rc, out


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(file_trees(), st.booleans())
def test_every_cli_path_over_a_file_tree_ends_in_0_1_or_2(tmp_path, tree, explicit):
    entries, onto_dir, loop = tree
    root = tempfile.mkdtemp(dir=tmp_path)
    try:
        try:
            paths = _build(os.fsencode(root), entries, onto_dir, loop)
        except OSError:
            if any(b"\xff" in rel for rel, _ in entries):
                reject()  # the file system refuses a name that is not UTF-8
            raise
        inputs = [os.fsdecode(p) for p in paths] if explicit and paths else [root]
        out_file = os.path.join(root, "report.out")
        for fmt in ("text", "json"):
            argv = ["validate", *inputs, "--format", fmt]
            rc, out = _check(argv, None)
            assert _check(argv, out_file) == (rc, out)
            if rc == 2:
                assert out == ""
            elif fmt == "json":
                json.loads(out)
        rc, out = _check(["graph", *inputs], None)
        assert _check(["graph", *inputs], out_file) == (rc, out)
        assert (rc == 0) == out.startswith("digraph ontoarch {")
    finally:
        shutil.rmtree(root)
