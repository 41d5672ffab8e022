"""Spans and call counts around ontoarch's public calls, from outside.

`Tracer.install()` swaps module attributes for timing or counting wrappers
and returns a function that puts the originals back. The pipeline's own
calls look the names up in those modules at call time, so the wrappers see
every call `cli.run` makes without any change to ontoarch:

    verdict
      cli.run
        build_report
          parse_suite
            tokenize (one per file)
          resolve
          validate_suite
            check_architecture, check_rule1, check_rule2, check_rule3,
            check_relationship_conformance, check_property_conformance,
            check_axioms (one per world)
          violations_to_diagnostics
          Report.build
        render_json
      render_text (an extra step: `validate --format json` never renders text)

Spans stay in memory until `dump` writes them.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable

CHECKS = (
    "check_architecture",
    "check_rule1",
    "check_rule2",
    "check_rule3",
    "check_relationship_conformance",
    "check_property_conformance",
    "check_axioms",
)


class Tracer:
    def __init__(self) -> None:
        # (id, parent id or -1, name, start, end); ids index this list.
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.last_report: Any = None
        self.last_json: str = ""

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = [sid, self._stack[-1] if self._stack else -1, name, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def _timed(self, name: str, fn: Callable, on_result: Callable[[Any], None] | None = None) -> Callable:
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> Callable[[], None]:
        from ontoarch import cli, model, parser, reporting, validator

        def add(key: str, n: int) -> None:
            self.counts[key] += n

        def keep_report(report: Any) -> None:
            self.last_report = report

        def keep_json(text: str) -> None:
            self.last_json = text

        patches: list[tuple[Any, str, Any]] = [
            (cli, "build_report", self._timed("build_report", cli.build_report, keep_report)),
            (cli, "render_json", self._timed("render_json", cli.render_json, keep_json)),
            (cli, "parse_suite", self._timed("parse_suite", cli.parse_suite)),
            (cli, "resolve", self._timed("resolve", cli.resolve)),
            (cli, "validate_suite", self._timed(
                "validate_suite", cli.validate_suite, lambda r: add("violations_unique", len(r)))),
            (cli, "violations_to_diagnostics", self._timed(
                "violations_to_diagnostics", cli.violations_to_diagnostics)),
            (parser, "tokenize", self._timed("tokenize", parser.tokenize, lambda r: add("tokens", len(r[0])))),
            (validator, "chain_status", self._counted("chain_status_calls", validator.chain_status)),
            (model.ResolvedSuite, "enrichment_root", self._counted(
                "enrichment_root_calls", model.ResolvedSuite.enrichment_root)),
        ]
        for name in CHECKS:
            patches.append((validator, name, self._timed(
                name, getattr(validator, name), lambda r: add("violations_raw", len(r)))))
        build = reporting.Report.__dict__["build"]  # the classmethod object itself
        patches.append((reporting.Report, "build", classmethod(self._timed("Report.build", build.__func__))))

        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)

        def restore() -> None:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

        return restore

    def dump(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def verdict_profile(spans: list[list[Any]], root: int) -> dict[str, float]:
    """Total and self seconds per span name inside one `verdict` span.

    Self time is a span's duration minus its children's; children of one
    span run one after another, so they never overlap."""
    children: dict[int, list[int]] = {}
    inside = {root}
    for sid, parent, *_ in spans[root + 1:]:
        if parent not in inside:
            break
        inside.add(sid)
        children.setdefault(parent, []).append(sid)
    total: Counter = Counter()
    self_time: Counter = Counter()
    for sid in sorted(inside):
        _, _, name, start, end = spans[sid]
        dur = end - start
        total[name] += dur
        self_time[name] += dur - sum(spans[c][4] - spans[c][3] for c in children.get(sid, ()))
    return {**{f"total:{k}": v for k, v in total.items()}, **{f"self:{k}": v for k, v in self_time.items()}}
