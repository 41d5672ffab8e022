"""End-to-end CLI behavior: subcommands, exit codes, determinism, DOT export,
and the pause of the cyclic garbage collector during a command."""

from __future__ import annotations

import gc
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIG2, load_bench, load_fig2
from test_file_order import soup_file, suites

import ontoarch
from ontoarch import cli, resolve
from ontoarch.cli import build_report, export_graph, run
from ontoarch.reporting import render_json, render_text


def invoke(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_validate_fig2_directory(capsys):
    rc, out, err = invoke(capsys, "validate", str(FIG2))
    assert rc == 0
    assert out == "0 errors, 0 warnings\n"
    assert err == ""


def test_validate_json_output_is_schema_v1(capsys):
    rc, out, _ = invoke(capsys, "validate", str(FIG2), "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["report_version"] == 1
    assert set(payload) == {"diagnostics", "report_version", "summary"}
    assert payload["summary"]["modules_per_level"] == {"CO": 2, "FO": 1, "LDO": 1, "TDO": 1}


def test_validate_is_byte_deterministic(capsys):
    rc1, out1, _ = invoke(capsys, "validate", str(FIG2), "--format", "json")
    rc2, out2, _ = invoke(capsys, "validate", str(FIG2), "--format", "json")
    assert (rc1, out1) == (rc2, out2)


def test_validate_ignores_input_path_order(capsys):
    paths = [str(p) for p in sorted(FIG2.glob("*.onto"))]
    _, expected, _ = invoke(capsys, "validate", "--format", "json", *paths)
    rng = random.Random(3)
    for _ in range(3):
        shuffled = paths[:]
        rng.shuffle(shuffled)
        _, out, _ = invoke(capsys, "validate", "--format", "json", *shuffled)
        assert out == expected


def test_validate_reports_errors_with_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.onto"
    bad.write_text("ontology MyFO at FO { }", encoding="utf-8")
    rc, out, _ = invoke(capsys, "validate", str(bad))
    assert rc == 1
    assert "E201" in out


def test_validate_strict_promotes_warnings(tmp_path, capsys):
    warny = tmp_path / "w.onto"
    warny.write_text("ontology A at CO { term X enriches ThingFO.Thing }", encoding="utf-8")
    rc, out, _ = invoke(capsys, "validate", str(warny))
    assert rc == 0
    assert "W202" in out
    rc_strict, _, _ = invoke(capsys, "validate", "--strict", str(warny))
    assert rc_strict == 1


def test_validate_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = invoke(capsys, "validate", str(FIG2), "--format", "json", "--out", str(target))
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["report_version"] == 1


def test_a_json_report_is_written_as_rendered_with_no_copy_of_it(tmp_path, monkeypatch):
    """`validate --out` writes the rendered text and then its line feed
    through one open file, a slice at a time. Counted from when the text is
    rendered, the write adds a few slices: joining the line feed to the text
    would add a copy of it, and encoding a report that is not ASCII in one
    piece up to two more."""
    # A directory name that is not ASCII is in every finding, so the file's
    # encoder must copy the text once.
    suite = tmp_path / "wörlds"
    suite.mkdir()
    for name, text in load_bench("generators").dirty_worlds(1).files.items():
        (suite / name).write_text(text, encoding="utf-8")
    seen = []
    real = cli.render_json

    def render_json(report):
        text = real(report)
        tracemalloc.reset_peak()
        seen.append((text, tracemalloc.get_traced_memory()[0]))  # the report and its text
        return text

    monkeypatch.setattr(cli, "render_json", render_json)
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        rc = run(["validate", str(suite), "--format", "json", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ((text, held),) = seen
    size = len(text.encode("utf-8"))
    assert rc == 1 and size > 1_000_000 and not text.isascii()
    assert out.read_bytes() == text.encode("utf-8") + b"\n"
    assert peak - held <= 0.2 * size


def test_validate_recurses_nested_directories(tmp_path, capsys):
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    (nested / "mod.onto").write_text(
        'ontology A at CO { term X enriches ThingFO.Thing { description "d" } }', encoding="utf-8"
    )
    (tmp_path / "ignored.txt").write_text("not ontology data", encoding="utf-8")
    rc, out, _ = invoke(capsys, "validate", str(tmp_path))
    assert rc == 0
    assert out == "0 errors, 0 warnings\n"


def test_a_file_name_that_is_not_utf8_is_reported_as_utf8(tmp_path, capsys, monkeypatch):
    """A name's bytes that are not UTF-8 appear as `\\xNN` in the report,
    which stays valid UTF-8 on a strict stdout and in an `--out` file."""
    raw = os.path.join(os.fsencode(tmp_path), b"\xffbad.onto")
    try:
        with open(raw, "wb") as fh:
            fh.write(b"ontology MyFO at FO { }\n")
    except OSError:
        pytest.skip("the file system refuses a file name that is not UTF-8")
    shown = os.fsencode(tmp_path).decode("utf-8", "backslashreplace") + "/\\xffbad.onto"
    out_file = tmp_path / "report.json"
    assert invoke(capsys, "validate", str(tmp_path), "--format", "json", "--out", str(out_file))[:2] == (1, "")
    report = json.loads(out_file.read_bytes().decode("utf-8", "strict"))
    assert [d["file"] for d in report["diagnostics"]] == [shown]

    for fmt in ("json", "text"):
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert run(["validate", str(tmp_path), "--format", fmt]) == 1
        stdout.flush()
        text = stdout.buffer.getvalue().decode("utf-8", "strict")
        if fmt == "json":
            assert json.loads(text) == report
        else:
            assert text.startswith(f"{shown}:1:1: error[E201] ")


def test_a_lone_carriage_return_does_not_end_a_line(tmp_path, capsys):
    """Files are decoded from their bytes with no newline translation, so the
    CLI reports the positions `build_report` gives for the same text."""
    text = "ontology A at CO {\r  term X enriches ThingFO.Thingy\r}\r"
    (tmp_path / "a.onto").write_bytes(text.encode("utf-8"))
    rc, out, _ = invoke(capsys, "validate", str(tmp_path / "a.onto"))
    assert rc == 1
    assert out.startswith(f"{tmp_path / 'a.onto'}:1:38: error[E101] ")
    assert out == render_text(build_report([(str(tmp_path / "a.onto"), text)]))


def test_validate_unreadable_path_is_exit_2(capsys):
    rc, _, err = invoke(capsys, "validate", "no/such/path.onto")
    assert rc == 2
    assert "cannot read" in err


@pytest.mark.parametrize("subcommand", ["validate", "graph"])
def test_unwritable_out_is_exit_2(subcommand, tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "report"
    rc, out, err = invoke(capsys, subcommand, str(FIG2), "--out", str(target))
    assert rc == 2
    assert out == ""
    assert err.startswith("ontoarch: error: cannot write ")
    assert "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("error, reason", [
    (MemoryError(), "out of memory"),
    (RecursionError("maximum recursion depth exceeded"), "maximum recursion depth exceeded"),
], ids=["memory", "recursion"])
@pytest.mark.parametrize("subcommand", ["validate", "graph"])
def test_running_out_of_memory_or_stack_is_exit_2(subcommand, error, reason, capsys, monkeypatch):
    """Running out ends in no verdict, so it is exit 2 with one line, not a
    traceback and exit 1, which reads as "errors found". A stand-in parser
    raises the error; nothing is allocated to provoke it."""
    def parse_suite(files):
        raise error

    monkeypatch.setattr(cli, "parse_suite", parse_suite)
    rc, out, err = invoke(capsys, subcommand, str(FIG2))
    assert (rc, out, err) == (2, "", f"ontoarch: error: {reason}\n")
    assert gc.isenabled()


def _cli_process(argv: list[str], stdout, **env: str) -> subprocess.CompletedProcess:
    """`python -m ontoarch` run on `argv` with `stdout` as its stdout; its
    stdout, when that is a pipe, and stderr come back as bytes."""
    env = dict(os.environ, PYTHONPATH=str(Path(ontoarch.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, "-m", "ontoarch", *argv], stdout=stdout, stderr=subprocess.PIPE,
                          env=env, timeout=60)


#: One command of each subcommand that writes to stdout.
STDOUT_COMMANDS = (["validate", str(FIG2), "--format", "json"], ["graph", str(FIG2)], ["metamodel"],
                   ["explain", "Thing"])


def _assert_one_error_line(proc: subprocess.CompletedProcess) -> None:
    """Exit 2 and a single `ontoarch: error:` line: no traceback, and no
    "Exception ignored" from the flush of stdout at exit."""
    err = proc.stderr.decode("utf-8")
    assert proc.returncode == 2, err
    assert err.startswith("ontoarch: error: cannot write to stdout: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=lambda argv: argv[0])
def test_a_stdout_pipe_that_nobody_reads_is_exit_2(argv):
    """As in `ontoarch validate DIR | head -c 100`, the write finds the pipe
    closed; the read end is closed before the command starts, so it does at
    once."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_process(argv, write_end)
    finally:
        os.close(write_end)
    _assert_one_error_line(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=lambda argv: argv[0])
def test_a_full_stdout_device_is_exit_2(argv):
    with open("/dev/full", "wb") as full:
        _assert_one_error_line(_cli_process(argv, full))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_stdout_gets_the_utf8_bytes_of_the_out_file_whatever_its_encoding(fmt, tmp_path):
    """A report that is not ASCII reaches an ASCII stdout as the UTF-8 bytes
    that `--out` writes."""
    suite = tmp_path / "m.onto"
    suite.write_text("ontology Mödul at CO { }\n", encoding="utf-8")
    argv = ["validate", str(suite), "--format", fmt]
    out = tmp_path / "report"
    to_file = _cli_process([*argv, "--out", str(out)], subprocess.PIPE)
    to_stdout = _cli_process(argv, subprocess.PIPE, PYTHONIOENCODING="ascii")
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (1, b"", b"")
    assert (to_stdout.returncode, to_stdout.stderr) == (1, b"")
    assert to_stdout.stdout == out.read_bytes()
    assert not to_stdout.stdout.isascii()


def test_missing_subcommand_is_exit_2(capsys):
    assert invoke(capsys)[0] == 2


def test_unknown_flag_is_exit_2(capsys):
    rc, _, err = invoke(capsys, "validate", str(FIG2), "--frobnicate")
    assert rc == 2
    assert "usage" in err


def test_metamodel_counts(capsys):
    rc, out, _ = invoke(capsys, "metamodel", "--counts")
    assert rc == 0
    assert out == "terms=19 properties=10 relationships=12\n"


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(ontoarch.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ontoarch", "metamodel", "--counts"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "terms=19 properties=10 relationships=12\n", "")


def test_python_dash_m_runs_the_cli_module():
    # `import ontoarch` must not import `ontoarch.cli`, or runpy warns that
    # the module it is about to run is already in `sys.modules`.
    env = dict(os.environ, PYTHONPATH=str(Path(ontoarch.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ontoarch.cli", "metamodel", "--counts"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "terms=19 properties=10 relationships=12\n", "")


def test_import_loads_no_dataclass_or_json_machinery():
    # The records are plain classes, `render_json` imports `json` itself and
    # the lexer and `Source.span` import `array` when they first run, so a
    # fresh `import ontoarch` loads none of these.
    env = dict(os.environ, PYTHONPATH=str(Path(ontoarch.__file__).parents[1]))
    unwanted = ("dataclasses", "inspect", "ast", "dis", "json", "array")
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, ontoarch; print([m for m in {unwanted!r} if m in sys.modules])"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_package_resolves_cli_names_on_first_use():
    from ontoarch import build_report

    assert build_report is ontoarch.cli.build_report
    assert {"build_report", "explain", "export_graph", "run"} <= set(ontoarch.__all__)
    assert all(hasattr(ontoarch, name) for name in ontoarch.__all__)
    with pytest.raises(AttributeError):
        ontoarch.no_such_name


def test_metamodel_listing(capsys):
    rc, out, _ = invoke(capsys, "metamodel")
    assert rc == 0
    assert "TimeAssertion (child of Assertion)" in out
    assert "ThingCategory.descriptive_statement" in out
    assert "interactsWithOther: Power -> Thing" in out


def test_explain_thing(capsys):
    rc, out, _ = invoke(capsys, "explain", "Thing")
    assert rc == 0
    assert "perceivable or conceivable object, or its individuals" in out


def test_explain_thing_category(capsys):
    rc, out, _ = invoke(capsys, "explain", "ThingCategory")
    assert rc == 0
    assert "does not result in instances" in out


def test_explain_e313(capsys):
    rc, out, _ = invoke(capsys, "explain", "E313")
    assert rc == 0
    assert "The Power of a Thing only interacts with other Things." in out


def test_explain_relationship_and_rule(capsys):
    rc, out, _ = invoke(capsys, "explain", "relatesWith")
    assert rc == 0
    assert out.count("->") >= 3
    for topic in ("R1", "r1"):
        rc, out, _ = invoke(capsys, "explain", topic)
        assert rc == 0
        assert out.startswith("Rule #1 (R1): ")
        assert "immediately higher level" in out
    for topic in ("A1", "a1"):
        rc, out, _ = invoke(capsys, "explain", topic)
        assert rc == 0
        assert out.startswith("A1: ")
        assert "enables" in out
    rc, out, _ = invoke(capsys, "explain", "g2")
    assert rc == 0
    assert out.startswith("Guideline #2 (G2): ")


def test_explain_is_seen_as_other_says_other_is_not_checked(capsys):
    rc, out, _ = invoke(capsys, "explain", "isSeenAsOther")
    assert rc == 0
    assert "a tendency, not a constraint" in out
    assert "no check enforces \"other\"" in out


def test_explain_unknown_topic_is_exit_2(capsys):
    rc, _, err = invoke(capsys, "explain", "Zorp")
    assert rc == 2
    assert "unknown topic" in err


def test_graph_empty_suite_contains_only_builtin_cluster():
    suite, diags = resolve([], [])
    assert not diags
    dot = export_graph(suite)
    assert dot.count("subgraph") == 1
    assert '"ThingFO" [shape=box];' in dot
    assert '"ThingFO.Thing"' in dot


def test_graph_fig2_clusters_and_node_count(fig2_suite):
    dot = export_graph(fig2_suite)
    for cluster in ("cluster_FO", "cluster_CO", "cluster_TDO", "cluster_LDO", "cluster_IO"):
        assert cluster in dot
    node_lines = [l for l in dot.splitlines() if "[shape=" in l and not l.lstrip().startswith("node ")]
    modules = 1 + len(fig2_suite.modules)
    terms = 19 + sum(len(m.terms) for m in fig2_suite.modules.values())
    blocks = len(fig2_suite.instance_files)
    assert len(node_lines) == modules + terms + blocks
    assert '"SituationCO" -> "ProcessCO" [style=dashed];' in dot
    assert '"ProcessCO.Process" -> "ThingFO.Thing";' in dot


def test_graph_cli_writes_dot(tmp_path, capsys):
    out_file = tmp_path / "suite.dot"
    rc, out, _ = invoke(capsys, "graph", str(FIG2), "--out", str(out_file))
    assert rc == 0
    assert out == ""
    text = out_file.read_text(encoding="utf-8")
    assert text.startswith("digraph ontoarch {")
    assert text.endswith("}\n")


def test_graph_cli_fails_on_unresolved_suite(tmp_path, capsys):
    bad = tmp_path / "bad.onto"
    bad.write_text("ontology A at CO { term X enriches ThingFO.Nope }", encoding="utf-8")
    rc, out, err = invoke(capsys, "graph", str(bad))
    assert rc == 1
    assert out == ""
    assert "E101" in err


@pytest.mark.parametrize(
    "broken",
    ["ontology Broken at CO { term X enriches }", "ontology Lost at CO { imports Nowhere }"],
    ids=["parse_error", "resolve_error"],
)
def test_graph_failure_reports_what_validate_reports(broken, tmp_path, capsys):
    """A suite that does not parse or resolve fails `graph` with exit 1 and
    `validate`'s text report on stderr, and nothing on stdout."""
    for name, text in load_fig2():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "broken.onto").write_text(broken, encoding="utf-8")
    rc, out, err = invoke(capsys, "graph", str(tmp_path))
    assert (rc, out) == (1, "")
    assert invoke(capsys, "validate", str(tmp_path)) == (1, err, "")


def test_graph_is_deterministic(fig2_suite):
    assert export_graph(fig2_suite) == export_graph(fig2_suite)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_validate_single_file_inputs(fmt, capsys, tmp_path):
    files = load_fig2()
    for name, text in files:
        (tmp_path / name).write_text(text, encoding="utf-8")
    rc, out, _ = invoke(
        capsys, "validate", "--format", fmt, *(str(tmp_path / name) for name, _ in files)
    )
    assert rc == 0
    assert "0" in out or json.loads(out)["summary"]["errors"] == 0


@pytest.mark.parametrize("unwritable_out", [False, True], ids=["clean", "unwritable-out"])
def test_run_pauses_an_enabled_collector_and_enables_it_again(unwritable_out, tmp_path, capsys, monkeypatch):
    seen = []
    real = cli.build_report

    def build_report_noting_the_collector(files):
        seen.append(gc.isenabled())
        return real(files)

    monkeypatch.setattr(cli, "build_report", build_report_noting_the_collector)
    out = tmp_path / "no" / "such" / "dir" / "report" if unwritable_out else tmp_path / "report"
    assert gc.isenabled()
    rc, _, _ = invoke(capsys, "validate", str(FIG2), "--out", str(out))
    assert (rc, seen, gc.isenabled()) == (2 if unwritable_out else 0, [False], True)


def test_run_leaves_a_disabled_collector_disabled(capsys):
    gc.disable()
    try:
        rc, _, _ = invoke(capsys, "validate", str(FIG2))
        enabled = gc.isenabled()
    finally:
        gc.enable()
    assert (rc, enabled) == (0, False)


soup_suites = st.lists(soup_file(), min_size=1, max_size=4).map(
    lambda texts: [(f"s{k}.onto", text) for k, text in enumerate(texts)]
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(suites(), soup_suites))
def test_a_verdict_leaves_no_cyclic_garbage(files):
    """Why `run` may pause the collector: building and rendering a report
    makes no reference cycle, so the collector would find nothing to free."""
    gc.disable()
    gc.freeze()  # from here on the collector looks only at new objects
    try:
        report = build_report(files)
        render_json(report)
        render_text(report)
        unreachable = gc.collect()
    finally:
        gc.unfreeze()
        gc.enable()
    assert unreachable == 0
