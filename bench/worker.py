"""Benchmark worker: times ontoarch verdicts on a suite already on disk.

`run.py` starts it in a fresh interpreter and passes only paths, so the
worker holds no generator state and its peak RSS is ontoarch's. One client,
one verdict at a time (a closed loop), no threads. A verdict is the CLI
entry point itself, run in-process:

    ontoarch.cli.run(["validate", <suite>, "--format", "json", "--out", <file>])

Before timing, the worker validates the fig2 fixture through the same call
and compares it byte for byte with its golden report, then runs one untimed
reference verdict and keeps its report for `run.py` to check. Every later
verdict must repeat the reference's exit code and report bytes exactly.

With `--traced`, plain and traced verdicts alternate (see tracing.py), and
the worker also checks that `build_report` on a seed-shuffled file order
renders the same JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIG2 = Path("tests/fixtures/fig2")
FIG2_GOLDEN = Path("tests/fixtures/golden/fig2_report.json")
MIN_VERDICTS = 3


def import_ontoarch():
    sys.path.insert(0, str(ROOT / "src"))
    import ontoarch
    from ontoarch import cli

    where = Path(ontoarch.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"worker: imported ontoarch from {where}, not from {ROOT / 'src'}")
    return cli


def tick() -> None:
    """Hand the host to run.py for one host loop and wait until it is done."""
    print("tick", flush=True)
    if not sys.stdin.readline():
        raise SystemExit("worker: run.py closed the tick channel")


def peak_rss_kib() -> int:
    """This process's peak resident set size.

    On Linux, ru_maxrss also counts the parent's resident set at the fork
    that started this process, so read the high-water mark of this
    process's own memory instead."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--suite", required=True)
    ap.add_argument("--work", required=True, help="directory for reports and results")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--seed", type=int, default=0, help="file-order shuffle seed (traced only)")
    ap.add_argument("--spans", default=None, help="where a traced worker writes its spans")
    args = ap.parse_args()

    cli = import_ontoarch()
    work = Path(args.work)
    out = work / "report.json"
    result: dict = {"errors": []}

    anchor_out = work / "fig2_report.json"
    anchor_rc = cli.run(["validate", str(FIG2), "--format", "json", "--out", str(anchor_out)])
    result["anchor_ok"] = anchor_rc == 0 and anchor_out.read_bytes() == FIG2_GOLDEN.read_bytes()

    argv = ["validate", args.suite, "--format", "json", "--out", str(out)]
    result["first_rc"] = cli.run(argv)
    shutil.copyfile(out, work / "first.json")
    reference = (result["first_rc"], digest(out))

    attempted = failed = 0
    times: list[float] = []
    timed: list[int] = []  # attempt index of each entry of `times`

    def verdict() -> None:
        """One timed verdict."""
        nonlocal attempted, failed
        attempted += 1
        gc.collect()  # each verdict starts from a clean heap, as a fresh CLI run does
        try:
            start = time.perf_counter()
            rc = cli.run(argv)
            elapsed = time.perf_counter() - start
            if (rc, digest(out)) == reference:
                times.append(elapsed)
                timed.append(attempted - 1)
                return
            result["errors"].append(f"verdict {attempted}: exit {rc} or report differs from the reference")
        except Exception:
            result["errors"].append(traceback.format_exc())
        failed += 1

    deadline = time.perf_counter() + args.seconds
    if not args.traced:
        # run.py times its host loop at each tick: before the first verdict
        # and after every verdict, so each verdict sits between two loops.
        tick()
        while time.perf_counter() < deadline or attempted < MIN_VERDICTS:
            verdict()
            tick()
    else:
        extra_attempted, extra_failed = traced_run(cli, args, argv, out, reference, verdict, deadline, result)
        attempted += extra_attempted
        failed += extra_failed

    result.update(
        attempted=attempted,
        failed=failed,
        times=times,
        timed=timed,
        peak_rss_kib=peak_rss_kib(),
    )
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


def traced_run(cli, args, argv, out, reference, verdict, deadline, result) -> tuple[int, int]:
    """Alternate plain and traced verdicts and profile each traced one;
    return how many checks beyond plain verdicts were attempted and failed."""
    from ontoarch import reporting

    from tracing import Tracer, verdict_profile

    tracer = Tracer()
    profiles: list[dict] = []
    counts: list[dict] = []
    extra_attempted = extra_failed = 0
    while time.perf_counter() < deadline or extra_attempted < MIN_VERDICTS:
        verdict()
        extra_attempted += 1
        gc.collect()
        tracer.counts.clear()
        root = len(tracer.spans)
        restore = tracer.install()
        try:
            with tracer.span("verdict"):
                with tracer.span("cli.run"):
                    rc = cli.run(argv)
                with tracer.span("render_text"):
                    reporting.render_text(tracer.last_report)
        except Exception:
            result["errors"].append(traceback.format_exc())
            extra_failed += 1
            continue
        finally:
            restore()
        if (rc, digest(out)) != reference:
            result["errors"].append(f"traced verdict {len(profiles) + 1}: exit {rc} or report differs")
            extra_failed += 1
            continue
        profile = verdict_profile(tracer.spans, root)
        profile["diagnostics"] = len(tracer.last_report.diagnostics)
        profile["json_bytes"] = len(tracer.last_json.encode("utf-8"))
        profiles.append(profile)
        counts.append(dict(tracer.counts))

    # The README promises the same report for any file order; check it on
    # the generated suite through the in-memory pipeline entry point.
    extra_attempted += 1
    paths = sorted(Path(args.suite).rglob("*.onto"), key=str)
    files = [(str(p), p.read_text(encoding="utf-8")) for p in paths]
    random.Random(args.seed).shuffle(files)
    shuffled = cli.render_json(cli.build_report(files)) + "\n"
    result["shuffle_ok"] = hashlib.sha256(shuffled.encode("utf-8")).hexdigest() == reference[1]
    if not result["shuffle_ok"]:
        extra_failed += 1
        result["errors"].append("build_report on a shuffled file order renders a different report")

    if args.spans:
        tracer.dump(args.spans)
    result.update(profiles=profiles, counts=counts)
    return extra_attempted, extra_failed


if __name__ == "__main__":
    sys.exit(main())
