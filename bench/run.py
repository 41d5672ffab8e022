"""ontoarch benchmark: end-to-end verdict metrics, or a per-layer traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root (it finds the root from its own path). It
generates the workload's suite from the seed under `.bench_work/`, then runs
`worker.py` in a fresh interpreter on the files alone. The worker runs
validate verdicts through the CLI entry point in a closed loop (one client,
no threads) for S seconds; see its docstring for the checks it makes. This
script checks the reference report against the verdict the generator
planted: exit code, diagnostic count per code and the summary counts.

`--trace 0` prints the end-to-end metrics. Times are calibrated against a
host-speed loop that this script runs between verdicts (calibrate.py); raw
wall times and the sample count are printed above the result line.

* verdict_p50_s: median time of one verdict (collect, read, parse, resolve,
  validate, render, write --out).
* decls_per_s: terms + relations + individuals + things + facts, as planted
  by the generator, validated per second over all timed verdicts.
* setup_s: median time a fresh interpreter takes to `import ontoarch`, with
  the bytecode cache warm; every CLI user pays it once per run.
* peak_rss_mib: the worker's peak resident set.

Failed verdicts go to the `failed` count beside `attempted`.

`--trace 1` runs two traced workers on the same suite and prints per-layer
metrics: medians over traced verdicts of each layer's time (tracing.py), and
counts that must repeat exactly across both workers. Spans are written to
`.bench_work/traces/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from calibrate import NOMINAL_S, host_loop
from generators import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")  # relative to ROOT, so reports name short paths
SETUP_PROBES = 11
TIME_LIMIT_S = 170  # the whole run, worker included
PROBE = "import time; t = time.perf_counter(); import ontoarch; print(time.perf_counter() - t)"


class BenchError(Exception):
    pass


def calibrated(times: list[float], loops: list[float], slots: list[int] | None = None) -> list[float]:
    """Calibrated seconds of each time (see calibrate.py); `times[k]` ran
    between host loops `loops[j]` and `loops[j + 1]`, j = `slots[k]` or k."""
    slots = range(len(times)) if slots is None else slots
    return [t * NOMINAL_S * 2 / (loops[j] + loops[j + 1]) for t, j in zip(times, slots)]


def setup_times(n: int) -> tuple[list[float], list[float]]:
    """Import time of ontoarch in `n` fresh interpreters, after one warm-up
    import that fills the bytecode cache, and host loops around each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))

    def probe() -> float:
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import ontoarch failed:\n{proc.stderr}")
        return float(proc.stdout)

    probe()
    times, loops = [], [host_loop()]
    for _ in range(n):
        times.append(probe())
        loops.append(host_loop())
    return times, loops


def run_worker(suite_dir: Path, work: Path, seconds: float, started: float, *extra: str) -> tuple[dict, list[float]]:
    """Run worker.py to completion; return its result and the host loops
    run.py timed at its ticks."""
    work.mkdir()
    cmd = [sys.executable, "bench/worker.py", "--suite", str(suite_dir), "--work", str(work),
           "--seconds", str(seconds), *extra]
    deadline = started + TIME_LIMIT_S
    loops: list[float] = []
    with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
        try:
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise TimeoutError
                if not select.select([proc.stdout], [], [], remaining)[0]:
                    continue
                if not proc.stdout.readline():
                    break
                loops.append(host_loop())
                proc.stdin.write(b"\n")
                proc.stdin.flush()
            proc.wait(timeout=max(deadline - time.perf_counter(), 0.1))
        except (TimeoutError, subprocess.TimeoutExpired) as exc:
            proc.kill()
            raise BenchError(f"worker did not finish within {TIME_LIMIT_S}s of the start") from exc
        except BrokenPipeError:
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    for error in result["errors"][:5]:
        print(f"worker error: {error}", file=sys.stderr)
    return result, loops


def check_reference(work: Path, result: dict, expected: dict) -> list[str]:
    """Differences between the worker's reference report and the verdict
    the generator planted."""
    report = json.loads((work / "first.json").read_text(encoding="utf-8"))
    codes = dict(sorted(Counter(d["code"] for d in report["diagnostics"]).items()))
    problems = []
    if result["first_rc"] != expected["exit_code"]:
        problems.append(f"exit code {result['first_rc']}, expected {expected['exit_code']}")
    if codes != expected["codes"]:
        problems.append(f"diagnostic codes {codes}, expected {expected['codes']}")
    if report["summary"] != expected["summary"]:
        problems.append(f"summary {report['summary']}, expected {expected['summary']}")
    if not result["anchor_ok"]:
        problems.append("fig2 report differs from tests/fixtures/golden/fig2_report.json")
    return problems


def plain_run(suite, suite_dir: Path, run_dir: Path, seconds: float, started: float):
    setup, setup_loops = setup_times(SETUP_PROBES)
    result, loops = run_worker(suite_dir, run_dir / "plain", seconds, started)
    problems = check_reference(run_dir / "plain", result, suite.expected)
    times = result["times"]
    attempted = result["attempted"] + 1  # the reference verdict
    failed = attempted if problems else result["failed"]
    if not times:
        raise BenchError("no verdict succeeded")
    cal = calibrated(times, loops, result["timed"])
    scal = calibrated(setup, setup_loops)
    metrics = {
        "verdict_p50_s": (statistics.median(cal), "s"),
        "decls_per_s": (suite.props["decls"] * len(cal) / sum(cal), "1/s"),
        "setup_s": (statistics.median(scal), "s"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024, "MiB"),
    }
    print(f"verdicts: {len(times)} timed; wall p50 {statistics.median(times):.4f} s "
          f"(min {min(times):.4f}, max {max(times):.4f}); calibrated p50 {statistics.median(cal):.4f} s")
    print(f"setup: {len(setup)} probes; wall p50 {statistics.median(setup):.4f} s; "
          f"calibrated p50 {statistics.median(scal):.4f} s")
    print(f"host loop: p50 {statistics.median(loops + setup_loops):.4f} s (nominal {NOMINAL_S} s)")
    return metrics, attempted, failed, problems


def _total(name):
    return lambda p: p.get(f"total:{name}", 0.0)


def _self(name):
    return lambda p: p.get(f"self:{name}", 0.0)


# Per-layer time metric -> its value in one traced verdict's profile.
LAYER_TIMES = {
    "parser.tokenize_s": _total("tokenize"),
    "parser.parse_s": _self("parse_suite"),
    "model.resolve_s": _total("resolve"),
    **{f"validator.{c}_s": _total(c) for c in (
        "check_architecture", "check_rule1", "check_rule2", "check_rule3",
        "check_relationship_conformance", "check_property_conformance", "check_axioms")},
    "validator.validate_suite_s": _total("validate_suite"),
    "validator.merge_s": _self("validate_suite"),
    "validator.to_diagnostics_s": _total("violations_to_diagnostics"),
    "reporting.report_build_s": _total("Report.build"),
    "reporting.render_json_s": _total("render_json"),
    "reporting.render_text_s": _total("render_text"),
    "cli.run_s": _total("cli.run"),
    "cli.io_s": _self("cli.run"),
}

# Pipeline self time per layer, to confirm what each workload stresses.
LAYER_SHARES = {
    "parser": lambda p: p.get("total:parse_suite", 0.0),
    "model": _total("resolve"),
    "validator": lambda p: p.get("total:validate_suite", 0.0) + p.get("total:violations_to_diagnostics", 0.0),
    "reporting": lambda p: p.get("total:Report.build", 0.0) + p.get("total:render_json", 0.0),
    "cli": lambda p: p.get("self:cli.run", 0.0) + p.get("self:build_report", 0.0),
}
PURPOSE = {
    "wide_clean": (("parser", "model"), 0.70),
    "deep_chains": (("validator",), 0.70),
    "dirty_worlds": (("parser",), 0.50),
}
EXACT_COUNTS = ("tokens", "enrichment_root_calls", "chain_status_calls", "violations_raw", "violations_unique")


def traced_run(suite, workload: str, seed: int, suite_dir: Path, run_dir: Path, seconds: float, started: float):
    traces = WORK / "traces"
    traces.mkdir(exist_ok=True)
    results = []
    for k in (1, 2):
        spans = traces / f"{workload}-seed{seed}-run{k}.json"
        result, _ = run_worker(suite_dir, run_dir / f"traced{k}", seconds / 2, started,
                               "--traced", "--seed", str(seed), "--spans", str(spans))
        results.append(result)
    problems = []
    for k, result in enumerate(results, 1):
        problems += [f"traced worker {k}: {p}" for p in check_reference(run_dir / f"traced{k}", result, suite.expected)]
        if not result["shuffle_ok"]:
            problems.append(f"traced worker {k}: shuffled file order changed the report")
    counts = [{key: c.get(key, 0) for key in EXACT_COUNTS} for r in results for c in r["counts"]]
    if any(c != counts[0] for c in counts):
        problems.append(f"counts differ between traced verdicts: {counts[0]} vs {next(c for c in counts if c != counts[0])}")
    attempted = sum(r["attempted"] + 1 for r in results)
    failed = attempted if problems else sum(r["failed"] for r in results)
    profiles = [p for r in results for p in r["profiles"]]
    if not profiles:
        raise BenchError("no traced verdict succeeded")

    def med(fn):
        return statistics.median(fn(p) for p in profiles)

    c = counts[0]
    relations = suite.expected["summary"]["relations"]
    metrics = {name: (med(fn), "s") for name, fn in LAYER_TIMES.items()}
    metrics.update({
        "parser.tokens": (c["tokens"], "count"),
        "parser.tokens_per_s": (med(lambda p: c["tokens"] / p["total:tokenize"]), "1/s"),
        "model.enrichment_root_calls": (c["enrichment_root_calls"], "count"),
        "validator.chain_status_calls_per_relation": (c["chain_status_calls"] / relations, "count"),
        "validator.violations_raw": (c["violations_raw"], "count"),
        "validator.violations_unique": (c["violations_unique"], "count"),
        "validator.unique_ratio": (c["violations_unique"] / c["violations_raw"] if c["violations_raw"] else 1.0, "ratio"),
        "reporting.diagnostics": (profiles[0]["diagnostics"], "count"),
        "reporting.json_bytes": (profiles[0]["json_bytes"], "B"),
    })
    plain = [t for r in results for t in r["times"]]
    metrics["trace.overhead_s"] = (metrics["cli.run_s"][0] - statistics.median(plain), "s")

    shares = {layer: med(lambda p: fn(p) / p["total:cli.run"]) for layer, fn in LAYER_SHARES.items()}
    print(f"traced verdicts: {len(profiles)}, plain verdicts: {len(plain)}; "
          f"cli.run p50 {metrics['cli.run_s'][0]:.4f} s, tracing overhead {metrics['trace.overhead_s'][0]:+.4f} s")
    print("pipeline self time by layer: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    layers, floor = PURPOSE[workload]
    share = sum(shares[layer] for layer in layers)
    verdict = "confirmed" if share >= floor else "NOT confirmed"
    print(f"purpose: {' + '.join(layers)} {share:.1%} of pipeline self time (floor {floor:.0%}): {verdict}")
    return metrics, attempted, failed, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "ontoarch" / "__init__.py").is_file():
        print(f"bench: no ontoarch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # Calibration compares the worker's verdicts with this process's host
    # loop, and the host's vCPUs can run at different speeds at the same
    # moment: keep this process and its children on one vCPU.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    suite = WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        suite_dir = run_dir / "suite"
        suite_dir.mkdir()
        for name, text in suite.files.items():
            (suite_dir / name).write_text(text, encoding="utf-8")
        print(f"workload {args.workload} seed {args.seed}: {json.dumps(suite.props)}")
        print(f"expected verdict: exit {suite.expected['exit_code']}, codes {json.dumps(suite.expected['codes'])}")
        if args.trace:
            metrics, attempted, failed, problems = traced_run(
                suite, args.workload, args.seed, suite_dir, run_dir, args.seconds, started)
        else:
            metrics, attempted, failed, problems = plain_run(suite, suite_dir, run_dir, args.seconds, started)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    print(f"attempted {attempted}, failed {failed}, fail ratio {failed / attempted:.4f}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
