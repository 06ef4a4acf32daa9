"""Shared fixtures, the acceptance-criterion summary hook, and every way a
test watches work: ``kernel_runs``, ``spy`` and ``patch_everywhere``."""

from __future__ import annotations

import contextlib
import inspect
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

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


# expr's private steps a test can spy on or replace: one tokenization per
# parse, one factory emission per kernel shape and order, and the point jet
# behind ``inst.deriv`` and ``inst.derivs``
TOKENIZE = expr._tokenize
EMIT = expr._factory_source
POINT_JET = expr._jet_derivs


@contextlib.contextmanager
def patched(original, replacement):
    """``replacement`` in place of ``original`` in every youngbounds module
    that binds it, for the ``with`` block; one such module at least, so a
    spy that could see nothing fails here."""
    name = original.__name__
    modules = [m for key, m in list(sys.modules.items())
               if key.split(".")[0] == "youngbounds" and getattr(m, name, None) is original]
    assert modules, f"no youngbounds module binds {name}"
    with pytest.MonkeyPatch.context() as patch:
        for module in modules:
            patch.setattr(module, name, replacement)
        yield


@contextlib.contextmanager
def spied(original):
    """The calls of ``original`` through any youngbounds module, in call
    order, each its arguments by parameter name, for the ``with`` block."""
    calls: list = []
    signature = inspect.signature(original)

    def spy(*args, **kwargs):
        calls.append(SimpleNamespace(**signature.bind(*args, **kwargs).arguments))
        return original(*args, **kwargs)

    with patched(original, spy):
        yield calls


@pytest.fixture
def patch_everywhere():
    """:func:`patched` until the test ends: ``patch_everywhere(f, g)``."""
    with contextlib.ExitStack() as stack:
        yield lambda original, replacement: stack.enter_context(patched(original, replacement))


@pytest.fixture
def spy():
    """:func:`spied` until the test ends: ``calls = spy(f)``."""
    with contextlib.ExitStack() as stack:
        yield lambda original: stack.enter_context(spied(original))


@dataclass
class KernelRuns:
    """The kernels compiled while it watches: ``compiled`` holds the order of
    each compile and ``runs`` the (order, abscissae) of each kernel call, in
    call order; order None is evaluate's kernel."""

    compiled: list = field(default_factory=list)
    runs: list = field(default_factory=list)

    def evaluations(self) -> Counter:
        """Kernel evaluations by order: one per abscissa of a run."""
        counts: Counter = Counter()
        for order, xs in self.runs:
            counts[order] += len(xs)
        return counts

    def abscissae(self, order) -> list[float]:
        """The abscissae the kernels of ``order`` ran at, in call order."""
        return [x for o, xs in self.runs if o == order for x in xs]

    def clear(self) -> None:
        self.compiled.clear()
        self.runs.clear()


@pytest.fixture
def kernel_runs():
    """A :class:`KernelRuns` of the kernels compiled from here on; those of a
    tree compiled before, an instance's copy included, are not watched."""
    runs = KernelRuns()
    compile_kernel = expr._compile

    def watched_compile(root, order):
        kernel = compile_kernel(root, order)
        runs.compiled.append(order)

        def watched(xs):
            runs.runs.append((order, xs))
            return kernel(xs)

        watched.__wrapped__ = kernel
        return watched

    with patched(compile_kernel, watched_compile):
        yield runs


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
