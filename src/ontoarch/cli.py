"""Command-line entry point: parse -> resolve -> validate -> report.

Subcommands:

* ``validate <paths...> [--format text|json] [--strict] [--out FILE]``
* ``metamodel [--counts]``
* ``graph <paths...> [--out FILE]``
* ``explain <topic>``

Exit codes: 0 clean (warnings allowed unless ``--strict``), 1 any error
diagnostic, 2 usage or IO failure, or memory or stack run out.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import Any

from . import metamodel
from .metamodel import ARCHITECTURE_RULES, AXIOMS, BUILTIN_MODULE
from .model import MODULE_LEVELS, Level, ResolvedSuite, resolve
from .parser import SuiteAst, parse_suite
from .reporting import CODE_CATALOG, Diagnostic, Report, exit_code, render_json, render_text
from .validator import validate_suite, violations_to_diagnostics


class UsageError(Exception):
    pass


def _collect_files(paths: list[str]) -> list[tuple[str, Path]]:
    """Explicit files are taken as given; directories are recursed for
    `.onto` files, everything else in them is ignored. Sorted by path so
    reports are independent of argument order and filesystem order. Each
    path comes with its name in reports: UTF-8, with other bytes as `\\xNN`."""
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.update(p for p in path.rglob("*.onto") if p.is_file())
        elif path.is_file():
            found.add(path)
        else:
            raise UsageError(f"cannot read {raw}: no such file or directory")
    return [(os.fsencode(p).decode("utf-8", "backslashreplace"), p) for p in sorted(found, key=str)]


def _read_files(paths: list[tuple[str, Path]]) -> list[tuple[str, str]]:
    """Decode each file's bytes as UTF-8 as they are: no newline is
    translated, so only a line feed ends a line, as in `build_report`."""
    out = []
    for name, path in paths:
        try:
            out.append((name, path.read_bytes().decode("utf-8")))
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {name}: {exc}") from exc
    return out


def _summary_from_ast(ast: SuiteAst) -> dict[str, Any]:
    per_level = {lvl.name: 0 for lvl in MODULE_LEVELS}
    per_level[Level.FO.name] = 1  # built-in ThingFO
    for m in ast.modules:
        per_level[m.level.name] += 1
    return {
        "modules_per_level": per_level,
        "terms": sum(len(m.terms) for m in ast.modules),
        "relations": sum(len(m.relations) for m in ast.modules),
        "instance_files": len(ast.instance_files),
        "individuals": sum(len(f.individuals) for f in ast.instance_files),
        "worlds": sum(len(f.worlds) for f in ast.instance_files),
    }


def _parse_and_resolve(files: list[tuple[str, str]]) -> tuple[SuiteAst, ResolvedSuite | None, list[Diagnostic]]:
    """The AST, the resolved suite or None, and the diagnostics of both steps."""
    ast, diagnostics = parse_suite(files)
    suite, resolve_diags = resolve(ast.modules, ast.instance_files)
    return ast, suite, diagnostics + resolve_diags


def build_report(files: list[tuple[str, str]]) -> Report:
    """Full pipeline over in-memory `(path, text)` pairs. The findings name
    no node, so the AST and the resolved suite are let go before
    `Report.build` sorts them."""
    ast, suite, diagnostics = _parse_and_resolve(files)
    summary = _summary_from_ast(ast)
    del ast
    if suite is not None:
        diagnostics.extend(violations_to_diagnostics(validate_suite(suite)))
    del suite
    return Report.build(diagnostics, summary)


# ---------------------------------------------------------------------------
# Graph export.
# ---------------------------------------------------------------------------

def export_graph(suite: ResolvedSuite) -> str:
    """DOT digraph mirroring the five-tier layering: one cluster per
    populated level ordered FO -> IO, module and term nodes, solid edges for
    enrichment, dashed for imports, dotted for instance attachment."""
    lines = ["digraph ontoarch {", "  rankdir=BT;", "  node [fontname=\"Helvetica\"];"]

    def node(name: str, shape: str) -> str:
        return f'    "{name}" [shape={shape}];'

    modules_by_level: dict[Level, list[str]] = {lvl: [] for lvl in Level}
    modules_by_level[Level.FO].append(BUILTIN_MODULE)
    for name in sorted(suite.modules):
        modules_by_level[suite.modules[name].level].append(name)

    for level in Level:
        members = sorted(modules_by_level[level])
        blocks = sorted(
            (f.of_module, i) for i, f in enumerate(suite.instance_files)
        ) if level is Level.IO else []
        if not members and not blocks:
            continue
        lines.append(f'  subgraph "cluster_{level.name}" {{')
        lines.append(f'    label="{level.name}";')
        for name in members:
            lines.append(node(name, "box"))
            if name == BUILTIN_MODULE:
                for spec in metamodel.TERMS:
                    lines.append(node(f"{BUILTIN_MODULE}.{spec.id}", "ellipse"))
            else:
                for term in sorted(t.name for t in suite.modules[name].terms):
                    lines.append(node(f"{name}.{term}", "ellipse"))
        for of_module, idx in blocks:
            lines.append(node(f"instances[{idx}] of {of_module}", "note"))
        lines.append("  }")

    edges: list[str] = []
    for module_name in sorted(suite.modules):
        module = suite.modules[module_name]
        for term in module.terms:
            if ref := term.enriches:
                edges.append(f'  "{module_name}.{term.name}" -> "{ref.module or module_name}.{ref.name}";')
        for imp in sorted(i.name for i in module.imports):
            edges.append(f'  "{module_name}" -> "{imp}" [style=dashed];')
    for idx, f in enumerate(suite.instance_files):
        edges.append(f'  "instances[{idx}] of {f.of_module}" -> "{f.of_module}" [style=dotted];')
    lines.extend(sorted(edges))
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Explain.
# ---------------------------------------------------------------------------

def _explain_term(spec: metamodel.FoundationalTermSpec) -> str:
    lines = [f"{spec.id} ({spec.display})"]
    if spec.parent:
        lines.append(f"parent: {spec.parent}")
    if spec.synonyms:
        lines.append("synonyms: " + ", ".join(spec.synonyms))
    lines.append(f"definition: {spec.definition}")
    keys = metamodel.ROOT_SCHEMAS[spec.id][1]
    if spec.parent is None and keys:
        lines.append("properties: " + ", ".join(keys))
    if spec.notes:
        lines.append("notes:")
        for i, note in enumerate(spec.notes, 1):
            lines.append(f"  {i}. {note}")
    return "\n".join(lines) + "\n"


def _explain_relationship(key: str, variants: tuple[metamodel.RelationshipSpec, ...]) -> str:
    lines = [f"{key} ({variants[0].display})"]
    for v in variants:
        lines.append(f"- {v.domain} -> {v.range}: {v.definition}")
        if v.multiplicity:
            low, high = v.multiplicity
            lines.append(f"  multiplicity on target: {low}..{'*' if high is None else high}")
        if v.axiom_links:
            lines.append("  restricted by axiom " + ", ".join(sorted(v.axiom_links)))
        for note in v.notes:
            lines.append(f"  note: {note}")
    return "\n".join(lines) + "\n"


def _explain_code(code: str) -> str:
    doc = CODE_CATALOG[code]
    lines = [f"{code}: {doc.title}"]
    if doc.rule:
        lines.append(f"rule: {doc.rule}")
    if doc.anchor:
        lines.append(doc.anchor)
    if doc.rule in AXIOMS:
        lines.append(f"formula: {AXIOMS[doc.rule].formula}")
    if doc.example:
        lines.append(f"example: {doc.example}")
    return "\n".join(lines) + "\n"


def explain(topic: str) -> str | None:
    """Catalog entry or diagnostic documentation for a topic; None when
    the topic is unknown."""
    ident = topic.upper()  # codes, axioms and rules are matched in any case
    if ident in CODE_CATALOG:
        return _explain_code(ident)
    if ident in AXIOMS:
        ax = AXIOMS[ident]
        return f"{ident}: {ax.description}\nformula: {ax.formula}\n"
    if ident in ARCHITECTURE_RULES:
        kind = "Guideline" if ident.startswith("G") else "Rule"
        return f"{kind} #{ident[1:]} ({ident}): {ARCHITECTURE_RULES[ident]}\n"
    lowered = topic.lower()
    for spec in metamodel.TERMS:
        if lowered == spec.id.lower() or lowered == spec.display.lower() or any(
            lowered == s.lower() for s in spec.synonyms
        ):
            return _explain_term(spec)
    for key, variants in metamodel.RELATIONSHIP_VARIANTS.items():
        if lowered == key.lower() or lowered == variants[0].display.lower():
            return _explain_relationship(key, variants)
    prop_specs = [p for p in metamodel.PROPERTIES if lowered in (p.key.lower(), p.display.lower())]
    if prop_specs:
        lines = [f"property key {prop_specs[0].key!r}"]
        for p in prop_specs:
            lines.append(f"- owned by {p.owner}: {p.definition}")
        return "\n".join(lines) + "\n"
    return None


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------

#: Characters encoded and written at a time. UTF-8 encoding first reserves
#: up to twice the bytes of a text that is not ASCII, so a report encoded
#: whole would cost that much again.
_WRITE_CHUNK = 1 << 16


def _write_output(out: str | None, *parts: str) -> None:
    """Write `parts` one after another, as UTF-8 bytes, to the file `out`,
    or to stdout when it is None, whatever encoding stdout has. They are
    encoded a slice at a time: a report is never joined with what follows
    it, nor encoded whole. A failed write is a `UsageError`."""
    try:
        if out is None:
            sys.stdout.flush()
            _write_parts(sys.stdout.buffer, parts)
        else:
            with open(out, "wb") as fh:
                _write_parts(fh, parts)
    except OSError as exc:
        if out is None:
            # Python flushes stdout again at exit, and what the failed write
            # left in its buffer would fail again there, with a traceback:
            # the null device takes it instead.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write {out or 'to stdout'}: {exc}") from exc


def _write_parts(stream: Any, parts: tuple[str, ...]) -> None:
    for part in parts:
        for i in range(0, len(part), _WRITE_CHUNK):
            stream.write(part[i:i + _WRITE_CHUNK].encode("utf-8"))
    stream.flush()


def _cmd_validate(args: argparse.Namespace) -> int:
    files = _read_files(_collect_files(args.paths))
    report = build_report(files)
    if args.format == "text":
        _write_output(args.out, render_text(report))
    else:
        _write_output(args.out, render_json(report), "\n")
    return exit_code(report, strict=args.strict)


def _cmd_metamodel(args: argparse.Namespace) -> int:
    terms, props, rels = metamodel.TERMS, metamodel.PROPERTIES, metamodel.RELATIONSHIPS
    if args.counts:
        _write_output(None, f"terms={len(terms)} properties={len(props)} relationships={len(rels)}\n")
        return 0
    lines = [f"{BUILTIN_MODULE} v{metamodel.THINGFO_VERSION}", "", "terms:"]
    for spec in terms:
        suffix = f" (child of {spec.parent})" if spec.parent else ""
        lines.append(f"  {spec.id}{suffix}")
    lines.append("")
    lines.append("properties:")
    for p in props:
        lines.append(f"  {p.owner}.{p.key}")
    lines.append("")
    lines.append("relationships:")
    for r in rels:
        lines.append(f"  {r.key}: {r.domain} -> {r.range}")
    _write_output(None, "\n".join(lines) + "\n")
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    _, suite, diagnostics = _parse_and_resolve(_read_files(_collect_files(args.paths)))
    if suite is None or diagnostics:
        sys.stderr.write(render_text(Report.build(diagnostics)))
        return 1
    _write_output(args.out, export_graph(suite))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    text = explain(args.topic)
    if text is None:
        sys.stderr.write(f"unknown topic: {args.topic}\n")
        return 2
    _write_output(None, text)
    return 0


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontoarch",
        description="Layered ontology suite validator grounded in ThingFO v1.3.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_validate = sub.add_parser("validate", help="check .onto files and report diagnostics")
    p_validate.add_argument("paths", nargs="+", help="files or directories (recursed for .onto)")
    p_validate.add_argument("--format", choices=("text", "json"), default="text")
    p_validate.add_argument("--strict", action="store_true", help="treat warnings as errors")
    p_validate.add_argument("--out", default=None, help="write the report to a file")
    p_validate.set_defaults(func=_cmd_validate)

    p_meta = sub.add_parser("metamodel", help="inspect the built-in ThingFO catalog")
    p_meta.add_argument("--counts", action="store_true", help="print catalog totals only")
    p_meta.set_defaults(func=_cmd_metamodel)

    p_graph = sub.add_parser("graph", help="export the suite layering as DOT")
    p_graph.add_argument("paths", nargs="+")
    p_graph.add_argument("--out", default=None)
    p_graph.set_defaults(func=_cmd_graph)

    p_explain = sub.add_parser("explain", help="explain a term, relationship, rule or diagnostic code")
    p_explain.add_argument("topic")
    p_explain.set_defaults(func=_cmd_explain)

    return parser


def run(argv: list[str]) -> int:
    """Run the CLI on an argument vector and return the process exit code."""
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        code = exc.code
        return code if isinstance(code, int) else 2
    # A verdict makes no reference cycles, so the cyclic collector's passes
    # over the growing AST would free nothing; pause it for the command.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (UsageError, MemoryError, RecursionError) as exc:
        # Running out of memory or stack is no verdict; exit 1 means errors.
        reason = "out of memory" if isinstance(exc, MemoryError) else exc
        sys.stderr.write(f"ontoarch: error: {reason}\n")
        return 2
    finally:
        if was_enabled:
            gc.enable()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
