"""qglue benchmark: fresh-process and warm ``qglue verify`` runs, checked
against pinned outcomes, with a separate traced run for per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qglue is imported from ``<checkout>/src``
(it need not be installed). Standard library only. Scratch files go to
``.perfbench_work/`` in the checkout. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it name
every metric with its unit, the machine facts and, with ``--trace 1``, the
spans with the most self time.

Workloads (the seed is passed on as ``qglue verify --seed``; it drives only
the randomized checks in s3, hopf and confluence):

* ``verify-d64`` -- ``qglue verify --format csv`` at the defaults in a fresh
  process, what a user runs. Mostly cold exact rewriting (en-symbolic).
* ``numeric-d512`` -- the numeric suites at window d = 512 in a fresh
  process. Dense operator products, pairings and eigh dominate. nmax = 1
  keeps one process near 8 s so that a run can take the median of three.
* ``warm-repeat-d64`` -- ``qglue.cli.run`` repeated in one process after an
  untimed pass: normal-form cache hits instead of misses. Every warm pass must
  write the same CSV bytes as the first pass (results must not depend on
  process history).

A unit (one fresh process, or one warm pass) is repeated for at least
``--seconds`` seconds and at least MIN_UNITS times; times are medians over
units. Every unit's CSV is compared with the pinned outcomes in
``reference/``: per record (suite, check, status) and the rounded value of
integer-valued checks (the pairings), plus the summary counts. A unit that
exits non-zero or writes no report fails every check it was due to make.

``selfcheck.py`` tests the harness on a tiny configuration; ``pin_reference.py``
rewrites ``reference/`` when a change is meant to alter reported outcomes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from tracer import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

MIN_UNITS = 3
SETUP_LAUNCHES = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s

WORKLOADS = {
    "verify-d64": {
        "kind": "fresh",
        "args": ["verify", "--format", "csv"],
        "reference": "verify-d64",
    },
    "numeric-d512": {
        "kind": "fresh",
        "args": [
            "verify",
            "--suite",
            "disc,podles,en-numeric,chi,index",
            "--d",
            "512",
            "--nmax",
            "1",
            "--format",
            "csv",
        ],
        "reference": "numeric-d512",
    },
    "warm-repeat-d64": {
        "kind": "warm",
        "args": ["verify", "--format", "csv"],
        "reference": "verify-d64",
    },
}

# names of the qglue suites registry, for suites.<name>.wall_s
SUITE_NAMES = (
    "disc", "s3", "s2", "su2", "podles", "hopf", "en-symbolic",
    "en-numeric", "chi", "index", "convergence", "confluence",
)

SPAN_METRICS = (
    "presentations.normal_form",
    "presentations.verify_identity",
    "ncpoly.SymMatrix.matmul",
    "idempotents.build_en",
    "opnum.trace_finite_rank",
    "glue.en_numeric",
    "glue.fp_matmul",
    "kpair.pair",
)
SELF_ONLY_METRICS = ("opnum.evaluate", "opnum.inv_sqrt_psd")


# -- children -----------------------------------------------------------------


class Deadline:
    def __init__(self, seconds: float):
        self.end = perf_counter() + seconds

    def left(self) -> float:
        return self.end - perf_counter()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads())
    return env


def blas_threads() -> int:
    # at most the usable cores; at most 2 so that figures compare across hosts
    return max(1, min(2, len(os.sched_getaffinity(0))))


def usage_figures(usage) -> tuple[float, float]:
    """(peak RSS in MB, user + sys CPU seconds) from one child's rusage;
    Linux reports ru_maxrss in KiB."""
    return usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def launch(cmd, log_path: Path, deadline: Deadline) -> dict:
    """Run one child to completion; figures come from the rusage that wait4
    returns for this child alone."""
    with open(log_path, "ab") as log:
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=log, stderr=log
        )
        killer = threading.Timer(max(deadline.left(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak_mb, cpu_s = usage_figures(usage)
    return {"code": proc.returncode, "wall_s": wall, "peak_rss_mb": peak_mb, "cpu_s": cpu_s}


def qglue_cmd(args) -> list[str]:
    return [sys.executable, "-m", "qglue", *args]


def child_cmd(*args) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *map(str, args)]


# -- reference outcomes -------------------------------------------------------


def _rounded(value: str, expected: str):
    try:
        int(expected)
        return round(float(value))
    except (ValueError, OverflowError):
        return None


def outcomes(csv_text: str) -> list[list]:
    """[suite, check, status, rounded value or None] per record; only checks
    with an integer expected value (the pairings) keep a rounded value, so
    last-bit drift in value and residual does not count."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    return [
        [row["suite"], row["check"], row["status"], _rounded(row["value"], row["expected"])]
        for row in rows
    ]


def counts(records) -> dict:
    out = {"pass": 0, "fail": 0, "warn": 0}
    for record in records:
        out[record[2]] = out.get(record[2], 0) + 1
    return out


def load_reference(name: str) -> dict:
    with open(HERE / "reference" / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def compare(csv_text, reference: dict) -> tuple[int, int]:
    """(checks attempted, checks failed) for one report; None for a report
    that was never written fails every expected check. The summary counts
    are one check more."""
    expected = reference["records"]
    if csv_text is None:
        return len(expected) + 1, len(expected) + 1
    got = outcomes(csv_text)
    attempted = max(len(expected), len(got)) + 1
    failed = sum(
        1
        for i in range(attempted - 1)
        if i >= len(expected) or i >= len(got) or got[i] != expected[i]
    )
    failed += counts(got) != reference["counts"]
    return attempted, failed


def read_report(path) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return None


def read_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


class Checks:
    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def report(self, code: int, path) -> str | None:
        """Compare the report a unit wrote at path; a unit that exited
        non-zero fails every check."""
        text = read_report(path) if code == 0 else None
        attempted, failed = compare(text, self.reference)
        self.attempted += attempted
        self.failed += failed
        return text

    def same_bytes(self, text, cold) -> None:
        self.attempted += 1
        self.failed += text is None or text != cold


# -- workloads ----------------------------------------------------------------


def measure_setup(log: Path, deadline: Deadline) -> float:
    walls = []
    for _ in range(SETUP_LAUNCHES):
        unit = launch(qglue_cmd(["--version"]), log, deadline)
        if unit["code"] != 0:
            raise RuntimeError("qglue --version failed; see " + str(log))
        walls.append(unit["wall_s"])
    return statistics.median(walls)


def fresh_units(args, seconds, checks: Checks, work: Path, deadline: Deadline) -> list[dict]:
    units = []
    start = perf_counter()
    while len(units) < MIN_UNITS or perf_counter() - start < seconds:
        if units and deadline.left() < 1.5 * units[-1]["wall_s"]:
            break
        out = work / f"unit_{len(units)}.csv"
        unit = launch(qglue_cmd([*args, "--out", str(out)]), work / "qglue.log", deadline)
        checks.report(unit["code"], out)
        units.append(unit)
    return units


def warm_child(args, seconds, trace, checks: Checks, work: Path, deadline: Deadline):
    result_path = work / "warm.json"
    cmd = child_cmd("warm", result_path, work, seconds, MIN_UNITS, int(trace), "--", *args)
    child = launch(cmd, work / "child.log", deadline)
    result = read_json(result_path)
    if result is None:
        raise RuntimeError("warm child wrote no result; see " + str(work / "child.log"))
    cold = checks.report(child["code"], result["cold"])
    for unit in result["passes"] + result.get("traced", []):
        text = checks.report(child["code"], unit["out"])
        checks.same_bytes(text, cold)
    return child, result


def end_to_end(workload, args, seconds, checks, work, deadline) -> dict:
    log = work / "setup.log"
    setup_s = measure_setup(log, deadline)
    if workload["kind"] == "fresh":
        units = fresh_units(args, seconds, checks, work, deadline)
        wall_s = statistics.median(u["wall_s"] for u in units)
        peak = statistics.median(u["peak_rss_mb"] for u in units)
        print(f"units: {len(units)} fresh processes, wall_s " + " ".join(f"{u['wall_s']:.3f}" for u in units))
    else:
        child, result = warm_child(args, seconds, False, checks, work, deadline)
        wall_s = statistics.median(p["wall_s"] for p in result["passes"])
        peak = child["peak_rss_mb"]
        print(
            f"units: {len(result['passes'])} warm passes after one untimed pass, wall_s "
            + " ".join(f"{p['wall_s']:.3f}" for p in result["passes"])
        )
    return {
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (peak, "MB"),
        "setup_s": (setup_s, "s"),
    }


def layer_metrics(trace: dict, per_unit: int, nf_cache_entries) -> dict:
    """Per-layer metrics for one unit from a trace of per_unit units."""
    spans = summarize(trace["spans"])
    aggregates = trace["aggregates"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value / per_unit, unit)

    for suite in SUITE_NAMES:
        put(f"suites.{suite}.wall_s", spans.get(f"suites.{suite}", {}).get("wall_s", 0.0), "s")
    for name in SPAN_METRICS:
        row = spans.get(name, {"calls": 0, "self_s": 0.0})
        put(f"{name}.calls", row["calls"], "count")
        put(f"{name}.self_s", row["self_s"], "s")
    for name in SELF_ONLY_METRICS:
        put(f"{name}.self_s", spans.get(name, {}).get("self_s", 0.0), "s")
    for name in ("coefficients.CoefPoly.mul", "opnum.TruncOp.matmul"):
        calls, time_s, work = aggregates.get(name, (0, 0.0, 0))
        put(f"{name}.calls", calls, "count")
        put(f"{name}.time_s", time_s, "s")
    flops = aggregates.get("opnum.TruncOp.matmul", (0, 0.0, 0))[2]
    put("opnum.TruncOp.matmul.dense_flops", flops, "flop_computed")
    put("report.serialize_s", spans.get("report.serialize", {}).get("wall_s", 0.0), "s")
    if nf_cache_entries is not None:
        metrics["presentations.nf_cache_entries"] = (nf_cache_entries, "count")
    else:
        print("presentations.nf_cache_entries: absent (no normal-form cache attribute found)")
    return metrics


def traced(workload, args, seconds, checks, work, deadline) -> dict:
    """One untraced and one traced unit (fresh), or as many untraced as
    traced warm passes in one process; per-layer figures are per unit."""
    if workload["kind"] == "fresh":
        out = work / "untraced.csv"
        plain = launch(qglue_cmd([*args, "--out", str(out)]), work / "qglue.log", deadline)
        checks.report(plain["code"], out)
        out = work / "traced.csv"
        result_path = work / "trace.json"
        cmd = child_cmd("trace", result_path, out, "--", *args)
        tracer_unit = launch(cmd, work / "child.log", deadline)
        checks.report(tracer_unit["code"], out)
        result = read_json(result_path)
        if result is None:
            raise RuntimeError("traced child wrote no result; see " + str(work / "child.log"))
        per_unit = 1
        cpu_s = plain["cpu_s"]
        overhead = tracer_unit["wall_s"] - plain["wall_s"]
    else:
        _, result = warm_child(args, seconds, True, checks, work, deadline)
        per_unit = len(result["traced"])
        cpu_s = statistics.median(p["cpu_s"] for p in result["passes"])
        overhead = statistics.median(p["wall_s"] for p in result["traced"]) - statistics.median(
            p["wall_s"] for p in result["passes"]
        )
    metrics = layer_metrics(result["trace"], per_unit, result["nf_cache_entries"])
    metrics["cli.cpu_s"] = (cpu_s, "s")
    metrics["cli.tracing_overhead_s"] = (overhead, "s")
    print_top(result["trace"], per_unit)
    return metrics


def print_top(trace: dict, per_unit: int, top: int = 8) -> None:
    rows = sorted(summarize(trace["spans"]).items(), key=lambda item: -item[1]["self_s"])
    print(f"spans by self time, per unit ({per_unit} traced unit(s)):")
    for name, row in rows[:top]:
        print(f"  {name:32s} self {row['self_s'] / per_unit:9.4f} s  calls {row['calls'] // per_unit}")
    print("hot leaves, per unit (their time is inside the callers' self time):")
    for name, (calls, time_s, _) in trace["aggregates"].items():
        print(f"  {name:32s} time {time_s / per_unit:9.4f} s  calls {calls // per_unit}")


def machine_facts(work: Path, deadline: Deadline) -> dict:
    result_path = work / "facts.json"
    launch(child_cmd("facts", result_path), work / "child.log", deadline)
    facts = read_json(result_path) or {}
    facts["nproc"] = os.cpu_count()
    facts["usable_cores"] = len(os.sched_getaffinity(0))
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not (ROOT / "src" / "qglue" / "__init__.py").is_file():
        print(f"run.py: no qglue sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = Deadline(RUN_LIMIT_S)
    workload = WORKLOADS[opts.workload]
    work = WORK / opts.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    args = [*workload["args"], "--seed", str(opts.seed)]
    checks = Checks(load_reference(workload["reference"]))

    facts = machine_facts(work, deadline)
    facts["caches"] = "warm (after one untimed pass)" if workload["kind"] == "warm" else "cold (fresh process)"
    print("machine: " + json.dumps(facts, sort_keys=True))
    print("qglue " + " ".join(args))
    if opts.trace:
        metrics = traced(workload, args, opts.seconds, checks, work, deadline)
    else:
        metrics = end_to_end(workload, args, opts.seconds, checks, work, deadline)
    ratio = checks.failed / checks.attempted
    print(f"check_fail_ratio {ratio} ({checks.failed} of {checks.attempted} checks)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
