"""Tests of the benchmark itself: smoke runs, tracer hygiene, references.

    python3 -m pytest perfbench -q

The smoke runs call ``run.py`` with ``--max-ops`` so each workload runs only
a few operations.
"""

from __future__ import annotations

import importlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section,ops", [("0", "end_to_end", "3"), ("1", "per_layer", "2")])
def test_smoke(workload, trace, section, ops):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", trace, "--max-ops", ops)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (int(ops), 0)
    names = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_missing_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _bindings(package) -> dict[tuple[str, str], object]:
    found = {}
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == package.__name__
                                or modname.startswith(package.__name__ + ".")):
            for attr, obj in vars(mod).items():
                found[(modname, attr)] = obj
    return found


def test_tracer_restores_every_binding():
    package = run.import_program()
    importlib.import_module("youngbounds.cli")
    before = _bindings(package)
    with pytest.raises(RuntimeError):
        with tracer.Tracer(package) as tr:
            # the importing namespaces are wrapped, not only the defining one
            for modname, attr in [("catalog", "extremum"), ("numerics", "extremum"),
                                  ("young", "jet"), ("report", "oracle"), ("cli", "run_report")]:
                mod = sys.modules[f"youngbounds.{modname}"]
                assert getattr(mod, attr) is not before[(mod.__name__, attr)]
            package.sweep(3, 1)
            raise RuntimeError("leave the tracer by an exception")
    after = _bindings(package)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tr.counts["numerics.extremum.calls"] > 0
    assert tr.counts["report.sweep.calls"] == 1


def test_self_time_excludes_children():
    package = run.import_program()
    with tracer.Tracer(package) as tr:
        package.sweep(5, 1)
    sweep_total = tr.total_ns["report.sweep"]
    children = sum(tr.total_ns[n] for n in tr.total_ns if n.startswith(("catalog.", "young.")))
    assert 0 < tr.self_ns["report.sweep"] <= sweep_total - children + 1


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 126)]) == (92.0, 115.0)
    assert run.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
    assert run.tail([1.0, 2.0, 3.0]) == (100.0, 3.0)


@pytest.mark.parametrize("kind", workloads.FAMILIES)
def test_reference_sum_meets_young_equality(kind):
    """At b = h(a) the Young functional equals a*b exactly."""
    _, prm = workloads._draw_function(random.Random(1), kind)
    a = 0.7
    b = workloads.h_float(kind, prm, a)
    with mpmath.workdps(30):
        gap = workloads.reference_sum(kind, prm, a, b) - mpmath.mpf(a) * mpmath.mpf(b)
    # b misses h(a) by rounding only, which moves the gap at second order
    assert abs(gap) < 1e-25


def test_sweep_instance_class_matches_program():
    """The benchmark's replay of the sweep's draws agrees with the program."""
    package = run.import_program()
    draw = sys.modules["youngbounds.report"]._random_instance
    for seed_i in range(400):
        params = draw(random.Random(seed_i))
        kind, _, tie = workloads.sweep_instance_class(seed_i)
        assert tie == params["tie_b_to_a"]
        rng = random.Random(seed_i)
        rng.choice(workloads.FAMILIES)
        assert workloads._draw_function(rng, kind)[0] == params["function"]
