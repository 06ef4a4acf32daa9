"""Shared fixtures and the acceptance-criterion summary hook."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from youngbounds import expr, report, young
from youngbounds.errors import YoungBoundsError

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = REPO_ROOT / "golden"

_ACCEPTANCE: list[tuple[int, str, bool]] = []


def record_acceptance(number: int, description: str, ok: bool) -> None:
    _ACCEPTANCE.append((number, description, ok))


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture
def code_table(monkeypatch):
    """An empty code table in place of the process-wide one, so every kernel
    factory is emitted and compiled anew in the test."""
    table = expr._CodeTable()
    monkeypatch.setattr(expr, "_code_table", table)
    return table


@pytest.fixture
def domain_table(monkeypatch):
    """An empty domain table in place of the process-wide one, so every
    ``make_problem`` of a text parses it and runs the domain check anew."""
    table = expr._LruTable(young._DOMAIN_TABLE_CHARS)
    monkeypatch.setattr(young, "_domain_table", table)
    return table


def _sweep_reprs(count: int) -> list[str]:
    """On the first ``count`` instances of ``sweep(42, ·)``: the oracle's repr
    and the repr of every estimator's BoundResult, all 13 methods plus the
    sweep's two REDUCTION re-runs; ``Class: message`` where one raises.

    It calls the names ``report`` binds, as ``sweep`` does, so a test that
    patches them sees its patch."""
    rng = random.Random(42)
    out = []
    for _ in range(count):
        params = report._random_instance(rng)
        ast = report.parse_expr(params["function"])
        x_b = params["a"] if params["tie_b_to_a"] else params["t_b"] * params["c"]
        inst = report.make_problem(ast, params["a"], report.evaluate(ast, x_b), params["c"])
        anch = report.anchors(inst)
        out.append(repr(report.oracle(inst, anch)))
        runs = [(name, ()) for name in report.METHODS]
        runs += [("taylor-lagrange", (0.0,)), ("taylor-holder", (0.0,))]
        for name, args in runs:
            try:
                out.append(repr(report.run_method(inst, anch, name, args)))
            except YoungBoundsError as exc:
                out.append(f"{name}{args}: {type(exc).__name__}: {exc}")
    return out


@pytest.fixture(scope="session")
def sweep_reprs():
    """:func:`_sweep_reprs`: compares whole-pipeline runs bound by bound."""
    return _sweep_reprs


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, ok in sorted(_ACCEPTANCE):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number:>2}: {status}  {description}")
