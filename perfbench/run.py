"""Benchmark for youngbounds: timed runs and a separate traced run.

    python3 perfbench/run.py --workload sweep|oracle-grid|report-light \
        --seed N --seconds S --trace 0|1 [--max-ops K]

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` times closed-loop operations for S seconds and prints the
end-to-end metrics. ``--trace 1`` runs a fixed number of operations once
untraced and twice traced, checks that the work counts of the two traced
passes agree, and prints the per-layer metrics. Both modes run the
workload's correctness gate on every operation and the golden check, outside
the timed region. The last line of standard output is one JSON object; the
exit code is 0 only when every check passed. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
WARMUP_SEED = "warm-up"
GOLDEN_PASS = 6
GOLDEN_KNOWN_FAILS = {"hh_cebysev_exp_recip", "taylor_jensen_quartic"}
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


class ProgramMissing(Exception):
    pass


def import_program():
    """A fresh import of ``youngbounds`` from ``src/``: module state starts clean."""
    if not (SRC / "youngbounds" / "__init__.py").is_file():
        raise ProgramMissing(f"no youngbounds package under {SRC}")
    for name in [n for n in sys.modules if n == "youngbounds" or n.startswith("youngbounds.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    package = importlib.import_module("youngbounds")
    if Path(package.__file__).resolve().parent != (SRC / "youngbounds").resolve():
        raise ProgramMissing(f"youngbounds imported from {package.__file__}, not {SRC}")
    return package


def setup(cls, seed: int, count: int, workdir: Path):
    """Import + input generation + one warm-up operation. The warm-up input
    comes from a fixed seed, so set-up cost does not depend on ``seed`` and
    no measured input has run before. Returns (seconds, seconds at the
    reference speed, workload, inputs, warm-up input)."""
    meter = speed.Speedometer()
    t0 = time.perf_counter()
    wl = cls(import_program(), workdir)
    inputs = wl.generate(random.Random(seed), count)
    warm = wl.generate(random.Random(WARMUP_SEED), 1)[0]
    wl.prepare(warm)
    wl.run(warm)
    seconds = time.perf_counter() - t0
    meter.after(seconds)
    return seconds, meter.rescale([seconds])[0], wl, inputs, warm


def golden_check(package) -> str | None:
    summary = package.verify_golden(ROOT / "golden")
    passed = [o.name for o in summary.outcomes if o.status == "PASS"]
    known = {o.name for o in summary.outcomes
             if o.status == "FAIL" and "known discrepancy" in o.message}
    if len(passed) == GOLDEN_PASS and known == GOLDEN_KNOWN_FAILS \
            and len(summary.outcomes) == GOLDEN_PASS + len(GOLDEN_KNOWN_FAILS):
        return None
    return "golden: " + "; ".join(f"{o.name}={o.status}" for o in summary.outcomes)


def gate(wl, records) -> list[str]:
    """Run the workload's correctness gate on every (input, output, error)."""
    failures = []
    for inp, out, err in records:
        reason = err if err is not None else wl.check(inp, out)
        if reason is not None:
            failures.append(reason)
    return failures


def run_ops(wl, inputs, seconds: float | None, max_ops: int | None, tr=None):
    """Closed loop, one operation in flight. Stops after ``seconds`` of wall
    time or ``max_ops`` operations; ``tr`` is told which operation runs.
    Returns (latencies, latencies at the reference speed, records,
    speedometer); see speed.py."""
    raw, records = [], []
    meter = speed.Speedometer()
    start = now = time.perf_counter()
    deadline = math.inf if seconds is None else start + seconds
    i = 0
    while (max_ops is None or i < max_ops) and (i == 0 or now < deadline):
        inp = inputs[i % len(inputs)]
        if tr is not None:
            tr.op_id = i
        wl.prepare(inp)
        t0 = time.perf_counter()
        try:
            out, err = wl.run(inp), None
        except Exception as exc:  # an operation that raises is a failed operation
            out, err = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        meter.after(latency)
        raw.append(latency)
        records.append((inp, out, err))
        now = time.perf_counter()
        i += 1
    return raw, meter.rescale(raw), records, meter


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile, in tenths, with at least
    TAIL_BEYOND samples above its nearest-rank position."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    pct = math.floor(1000 * (n - TAIL_BEYOND) / n) / 10
    rank = math.ceil(pct / 100 * n)
    return pct, ordered[rank - 1]


def run_record() -> dict:
    """Read-only facts about the machine and the code under test."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit()}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"


def timed_run(cls, seed: int, seconds: float, max_ops: int | None, workdir: Path):
    count = max_ops or int(seconds * cls.pool_per_second) + 8
    setups = [setup(cls, seed, count, workdir) for _ in range(SETUP_REPEATS)]
    _, _, wl, inputs, _ = setups[-1]
    raw, scaled, records, meter = run_ops(wl, inputs, seconds, max_ops)
    failures = gate(wl, records)
    digest = hashlib.sha256()
    for inp, out, err in records:
        if err is None:
            for line in wl.digest_lines(inp, out):
                digest.update(line.encode("utf-8") + b"\n")
    pct, tail_value = tail(scaled)
    ops = len(scaled)
    metrics = {
        "setup_s": (statistics.median(s[1] for s in setups), "s"),
        "p50_s": (statistics.median(scaled), "s"),
        "tail_s": (tail_value, "s"),
        "ops_per_s": (ops / math.fsum(scaled), "1/s"),
    }
    info = {
        "tail_percentile": pct, "samples": ops, "failed_ratio": len(failures) / ops,
        "output_sha256": digest.hexdigest(), "pool": len(inputs), "cycled": ops > len(inputs),
        "raw_setup_s": statistics.median(s[0] for s in setups),
        "raw_p50_s": statistics.median(raw), "raw_tail_s": tail(raw)[1],
        "raw_ops_per_s": ops / math.fsum(raw),
        "machine_speed": meter.machine_speed(),
    }
    return wl.yb, ops, failures, metrics, info


def traced_run(cls, seed: int, max_ops: int | None, workdir: Path):
    ops = max_ops or cls.trace_ops
    _, _, _, inputs, warm = setup(cls, seed, ops, workdir)
    totals, passes = [], []  # (raw, rescaled) summed latency of each pass
    for traced in (False, True, True):
        wl = cls(import_program(), workdir)
        wl.prepare(warm)
        wl.run(warm)  # before the tracer goes in
        tr = tracer.Tracer(wl.yb, keep_spans=not passes) if traced else None
        with tr or contextlib.nullcontext():
            raw, scaled, records, _ = run_ops(wl, inputs, None, len(inputs), tr)
        totals.append((math.fsum(raw), math.fsum(scaled)))
        if traced:
            passes.append((tr, records, wl))
    (tr1, records, wl), (tr2, _, _) = passes
    failures = gate(wl, records)
    c1, c2 = tracer.deterministic_counts(tr1.counts), tracer.deterministic_counts(tr2.counts)
    mismatch = sorted(k for k in set(c1) | set(c2) if c1.get(k) != c2.get(k))
    metrics = tracer.per_layer_metrics(tr1, ops, list(wl.yb.METHODS), totals[1][1] / totals[0][1])
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{cls.name}.jsonl"
    tr1.write_spans(spans_path)
    info = {
        "ops": ops, "raw_untraced_s": totals[0][0], "raw_traced_s": totals[1][0],
        "extremum_share_of_traced_time": tr1.total_ns["numerics.extremum"] / 1e9 / totals[1][0],
        "count_mismatch": mismatch, "spans": len(tr1.spans), "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return wl.yb, ops, failures, metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="cap the operations (smoke mode for the tests)")
    args = parser.parse_args(argv)
    # a terminated run still removes its problem files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    cls = workloads.WORKLOADS[args.workload]
    record = run_record()
    record["loadavg_before"] = loadavg()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            package, ops, failures, metrics, info = traced_run(
                cls, args.seed, args.max_ops, workdir)
        else:
            package, ops, failures, metrics, info = timed_run(
                cls, args.seed, args.seconds, args.max_ops, workdir)
        golden = golden_check(package)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_after"] = loadavg()
    record.update(workload=args.workload, seed=args.seed, trace=args.trace, **info)
    mismatch = info.get("count_mismatch")

    problems = failures[:5] + ([golden] if golden else []) + (
        [f"traced count mismatch: {mismatch}"] if mismatch else [])
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    correct = not failures and golden is None and not mismatch
    print("record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:<24.10g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": ops, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
