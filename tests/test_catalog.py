"""Estimator catalog: hand-computed fixtures, collapses, and properties."""

from __future__ import annotations

import dataclasses
import gc
import inspect
import math
import random
import sys
import time
import weakref
from collections import Counter, defaultdict

import pytest

from youngbounds import catalog as cat
from youngbounds import expr, numerics, young
from youngbounds.errors import (
    DomainError,
    ExponentDomainError,
    InvalidTError,
    OrderCapError,
    ParseError,
    YoungBoundsError,
)
from youngbounds.expr import evaluate, jet, parse_expr
from youngbounds.numerics import EXTREMUM_SCAN_POINTS
from youngbounds.report import sweep
from youngbounds.young import Anchors, Options, anchors, make_problem, oracle

INF = math.inf


@pytest.fixture(scope="module")
def cubic():
    inst = make_problem("x^3", 1.5, 1.0, 2.0)
    anch = anchors(inst)
    return inst, anch, oracle(inst, anch)


@pytest.fixture(scope="module")
def cubic_reversed():
    # a < h^{-1}(b): same function, mirrored anchors (h^{-1}(3.375) = 1.5)
    inst = make_problem("x^3", 1.0, 3.375, 2.0)
    anch = anchors(inst)
    return inst, anch, oracle(inst, anch)


# ---------------------------------------------------------------------------
# Hand-computed cubic fixture (a = 1.5, b = 1): gap = 0.515625
# ---------------------------------------------------------------------------

def test_cubic_hoorfar_qi(cubic):
    inst, anch, orc = cubic
    r = cat.bound_hoorfar_qi(inst, anch)
    assert r.lower == pytest.approx(0.375, abs=1e-12)
    assert r.upper == pytest.approx(0.84375, abs=1e-12)
    assert r.applicable
    assert r.lower <= orc.gap <= r.upper


def test_cubic_hh_cebysev(cubic):
    inst, anch, _ = cubic
    r = cat.bound_hh_cebysev(inst, anch)
    assert r.lower == pytest.approx(0.5 * (1.25 ** 3 - 1.0), abs=1e-12)   # 0.4765625
    assert r.upper == pytest.approx(0.25 * (3.375 - 1.0), abs=1e-12)      # 0.59375


def test_cubic_jensen_first(cubic):
    inst, anch, orc = cubic
    r = cat.bound_jensen_first(inst, anch)
    assert r.lower == pytest.approx(49.0 / 96.0, abs=1e-12)
    assert r.upper == pytest.approx(0.53125, abs=1e-12)
    assert r.lower <= orc.gap <= r.upper


def test_cubic_taylor_lagrange_order1(cubic):
    inst, anch, orc = cubic
    r = cat.bound_taylor_lagrange(inst, anch, 1)
    assert r.lower == pytest.approx(0.5, abs=1e-12)      # 0.375 + 6*0.125/6
    assert r.upper == pytest.approx(0.5625, abs=1e-12)   # 0.375 + 9*0.125/6
    assert r.lower <= orc.gap <= r.upper


def test_cubic_taylor_lagrange_equality_case():
    inst = make_problem("x^3", 1.5, 3.375, 2.0)  # b = h(a)
    anch = anchors(inst)
    r = cat.bound_taylor_lagrange(inst, anch, 1)
    assert r.lower == 0.0 and r.upper == 0.0


def test_cubic_taylor_holder_order1(cubic):
    inst, anch, orc = cubic
    r = cat.bound_taylor_holder(inst, anch, 1, upper_pair=(1.0, INF))
    # C_{1,1} * ||h''||_inf / 2! = (0.5^3/3) * 9 / 2
    assert r.upper == pytest.approx(0.1875, abs=1e-12)
    remainder = r.target.native_of_sum(orc.sum)
    assert remainder == pytest.approx(0.140625, abs=1e-12)
    assert remainder <= r.upper


def test_cubic_taylor_cebysev(cubic):
    inst, anch, orc = cubic
    r0 = cat.bound_taylor_cebysev(inst, anch, 0)
    assert r0.lower is None
    assert r0.upper == pytest.approx(0.59375, abs=1e-12)
    r1 = cat.bound_taylor_cebysev(inst, anch, 1)
    assert r1.upper == pytest.approx(0.15625, abs=1e-12)  # 0.25/6*(6.75-3)
    assert r1.target.native_of_sum(orc.sum) <= r1.upper


def test_cubic_taylor_jensen_exact_for_affine_second_derivative(cubic):
    inst, anch, orc = cubic
    r = cat.bound_taylor_jensen(inst, anch, 1)
    # h'' is affine, so both Jensen sides are exact
    assert r.lower == pytest.approx(0.140625, abs=1e-12)
    assert r.upper == pytest.approx(0.140625, abs=1e-12)
    assert r.target.native_of_sum(orc.sum) == pytest.approx(0.140625, abs=1e-12)


def test_cubic_taylor_product_hh(cubic):
    inst, anch, orc = cubic
    r = cat.bound_taylor_product_hh(inst, anch, 1)
    remainder = r.target.native_of_sum(orc.sum)
    assert r.lower - 1e-12 <= remainder <= r.upper + 1e-12


def test_cubic_polya_first(cubic):
    inst, anch, orc = cubic
    r = cat.bound_polya_first(inst, anch)
    assert dict(r.extras)["L"] == pytest.approx(3.0, rel=1e-12)
    assert dict(r.extras)["U"] == pytest.approx(6.75, rel=1e-12)
    assert r.lower == pytest.approx(7.328125 / 7.5, abs=1e-12)
    assert r.upper == pytest.approx(9.078125 / 7.5, abs=1e-12)
    shifted = r.target.native_of_sum(orc.sum)
    assert shifted == pytest.approx(1.015625, abs=1e-12)
    assert r.lower <= shifted <= r.upper


def test_cubic_polya_second(cubic):
    inst, anch, orc = cubic
    r = cat.bound_polya_second(inst, anch)
    # closed-form middle: SUM - a h(a) + (a^2 h'(a) - h^{-1}(b)^2 h'(h^{-1}(b)))/2
    middle_exact = 2.015625 - 1.5 * 3.375 + (2.25 * 6.75 - 3.0) / 2.0
    assert middle_exact == pytest.approx(3.046875, abs=1e-15)
    middle = r.target.native_of_sum(orc.sum)
    assert middle == pytest.approx(middle_exact, abs=1e-12)
    assert r.lower - 1e-12 <= middle <= r.upper + 1e-12


def test_cubic_polya_higher(cubic):
    inst, anch, orc = cubic
    shifted = 1.015625
    r1 = cat.bound_polya_higher(inst, anch, 1, t=1.25)
    assert r1.lower - 1e-12 <= shifted <= r1.upper + 1e-12
    r2 = cat.bound_polya_higher(inst, anch, 2)
    assert r2.lower - 1e-12 <= shifted <= r2.upper + 1e-12
    assert r2.target.native_of_sum(orc.sum) == pytest.approx(shifted, abs=1e-12)


def test_cubic_lp_remainder(cubic):
    inst, anch, orc = cubic
    r = cat.bound_lp_remainder(inst, anch, 1, INF, t=1.25)
    # [(0.25)^3 + (0.25)^3]/3! * ||h''||_inf = 0.03125/6*9
    assert r.upper == pytest.approx(0.046875, abs=1e-12)
    lhs = r.target.native_of_sum(orc.sum)
    assert lhs == pytest.approx(0.0390625, abs=1e-12)
    assert lhs <= r.upper
    assert dict(r.extras)["coarse_upper"] >= r.upper


def test_cubic_holder_norm(cubic):
    inst, anch, orc = cubic
    r = cat.bound_holder_norm(inst, anch, lower_pair=(1.0, -INF), upper_pair=(1.0, INF))
    assert r.lower == pytest.approx(0.375, abs=1e-12)   # C_1 * inf h' = d^2/2 * 3
    assert r.upper == pytest.approx(0.84375, abs=1e-12)  # C_1 * sup h'
    assert r.lower <= orc.gap <= r.upper


def test_holder_upper_pair_inf_one_telescopes(cubic):
    inst, anch, orc = cubic
    r = cat.bound_holder_norm(inst, anch, upper_pair=(INF, 1.0))
    # C_inf * ||h'||_1 = |d| * (h(beta) - h(alpha)) = 0.5 * 2.375
    assert r.upper == pytest.approx(0.5 * 2.375, rel=1e-12)
    assert orc.gap <= r.upper


def test_holder_lower_pair_minus_inf_is_zero(cubic):
    inst, anch, _ = cubic
    r = cat.bound_holder_norm(inst, anch, lower_pair=(-INF, 1.0))
    assert r.lower == 0.0


def test_holder_finite_conjugate_pair(cubic):
    inst, anch, orc = cubic
    r = cat.bound_holder_norm(inst, anch, lower_pair=(0.5, -1.0), upper_pair=(2.0, 2.0))
    assert r.lower <= orc.gap <= r.upper
    # both pairings are reported
    assert dict(r.extras)["statement_upper"] == r.upper
    assert dict(r.extras)["proof_upper"] >= orc.gap - 1e-12


def test_holder_invalid_pairs_raise(cubic):
    inst, anch, _ = cubic
    with pytest.raises(ExponentDomainError):
        cat.bound_holder_norm(inst, anch, upper_pair=(2.0, 3.0))  # not conjugate
    with pytest.raises(ExponentDomainError):
        cat.bound_holder_norm(inst, anch, lower_pair=(2.0, 2.0))  # u must be < 1
    # u = -1 is conjugate with v = 0.5 but C_{-1} leaves the reals
    with pytest.raises(ExponentDomainError):
        cat.bound_holder_norm(inst, anch, lower_pair=(-1.0, 0.5))


# ---------------------------------------------------------------------------
# Historical reference prints for the quartic instance: the survey literature
# reports these refinement intervals for int_0^3 (x^4+1)^(1/4) + int_1^3
# (x^4-1)^(1/4) to 13 digits; both estimators must reproduce them.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def quartic():
    inst = make_problem("(x^4+1)^(1/4)-1", 3.0, 2.0, 3.0)
    anch = anchors(inst)
    return inst, anch


def test_quartic_hh_cebysev_reproduces_reference_print(quartic):
    inst, anch = quartic
    r = cat.bound_hh_cebysev(inst, anch)
    assert r.upper + 9.0 == pytest.approx(9.000042868880, abs=1e-12)


def test_quartic_jensen_first_reproduces_reference_print(quartic):
    inst, anch = quartic
    r = cat.bound_jensen_first(inst, anch)
    assert r.lower + 9.0 == pytest.approx(9.000042868058, abs=1e-12)
    assert r.upper + 9.0 == pytest.approx(9.000042868066, abs=1e-12)


@pytest.mark.parametrize("estimator", [
    cat.bound_polya_first,
    cat.bound_polya_second,
    cat.bound_holder_norm,
    lambda inst, anch: cat.bound_taylor_holder(inst, anch, n=1),
], ids=["polya-first", "polya-second", "holder-norm", "taylor-holder(1)"])
def test_one_extremum_scan_per_derivative_range(quartic, monkeypatch, estimator):
    # L, U and the +-inf norms are the inf and sup of one derivative on
    # [alpha, beta]: a single scan yields both. A fresh instance, because the
    # module-scoped one's profile already holds the scans of earlier cases.
    inst, anch = quartic
    calls = _count_extremum_calls(monkeypatch)
    estimator(dataclasses.replace(inst), anch)
    assert len(calls) == 1, calls


def _count_extremum_calls(monkeypatch) -> list:
    calls = []
    for module in (cat, numerics):
        original = module.extremum

        def counted(*args, _original=original, **kwargs):
            calls.append(args[1:3])
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "extremum", counted)
    return calls


def _count_grids(monkeypatch) -> Counter:
    """``interior_grid`` calls by (lo, hi, n) in every module that binds it."""
    grids: Counter = Counter()
    for module in (numerics, young, cat):
        original = module.interior_grid

        def counted(lo, hi, n, _original=original):
            grids[lo, hi, n] += 1
            return _original(lo, hi, n)

        monkeypatch.setattr(module, "interior_grid", counted)
    return grids


@pytest.mark.parametrize("order", [1, 2])
def test_an_extremum_scan_builds_its_grid_once(quartic, monkeypatch, order):
    # extremum builds the scan's interior grid and the profile keeps that
    # list, so a fresh interval's grid is built once per scan
    inst, anch = quartic
    inst = dataclasses.replace(inst)  # an empty profile
    grids: Counter = Counter()
    for module in (numerics, young):
        original = module.interior_grid

        def counted(lo, hi, n, _original=original):
            grids[lo, hi, n] += 1
            return _original(lo, hi, n)

        monkeypatch.setattr(module, "interior_grid", counted)
    cat._extrema_of_deriv(inst, order, anch.alpha, anch.beta)
    assert grids == {(anch.alpha, anch.beta, EXTREMUM_SCAN_POINTS - 2): 1}


def test_the_h_second_scan_reads_the_h_prime_grid_and_keeps_no_golden_point(quartic, monkeypatch):
    # the h' and h'' scans of [alpha, beta] share one list of abscissae, and
    # the profile keeps their endpoints, which the anchor reads share, but
    # none of their golden-section points
    inst, anch = quartic
    inst = dataclasses.replace(inst)  # an empty profile
    grids = _count_grids(monkeypatch)
    cat._extrema_of_deriv(inst, 1, anch.alpha, anch.beta)
    cat._extrema_of_deriv(inst, 2, anch.alpha, anch.beta)
    assert grids == {(anch.alpha, anch.beta, EXTREMUM_SCAN_POINTS - 2): 1}
    assert set(inst.profile._jets) == {anch.alpha, anch.beta}


def test_instances_are_freed_without_the_collector():
    # an instance, its profile, rows, tree and kernels hold no reference
    # cycle, nor does a failed read, so dropping the instance frees them by
    # reference counting, and a sweep leaves nothing for the cyclic collector
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    runs = [(name, ()) for name in cat.METHODS]
    runs += [("taylor-lagrange", (0.0,)), ("taylor-holder", (0.0,))]
    try:
        # the quartic's reads all succeed; the jets of x^1.5 fail at a = 0,
        # and so do nine of its methods
        for problem in (("(x^4+1)^(1/4)-1", 3.0, 2.0, 3.0), ("x^1.5", 0.0, 0.5)):
            inst = make_problem(*problem)
            anch = anchors(inst)
            oracle(inst, anch)
            for name, args in runs:
                try:
                    cat.run_method(inst, anch, name, args)
                except YoungBoundsError:
                    pass
            try:
                inst.deriv(0.0, 2)  # jet itself, which fails at 0 for x^1.5
            except DomainError:
                pass
            ref = weakref.ref(inst)
            del inst
            assert ref() is None, problem
        sweep(42, 5)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_one_extremum_scan_per_derivative_range_across_methods(quartic, monkeypatch):
    # every method on one instance, plus the sweep's two REDUCTION re-runs,
    # shares the scans of h' and h'' (Polya L/U, Holder +-inf norms, and
    # lp-remainder's sup |h''|)
    inst, anch = quartic
    inst = dataclasses.replace(inst)  # an empty profile
    calls = _count_extremum_calls(monkeypatch)
    for name in cat.METHODS:
        cat.run_method(inst, anch, name)
    cat.run_method(inst, anch, "taylor-lagrange", (0.0,))
    cat.run_method(inst, anch, "taylor-holder", (0.0,))
    assert len(calls) == 2, calls


def test_lp_remainder_sup_norm_reuses_the_polya_scan(monkeypatch):
    # sup |h''| is max(|inf h''|, |sup h''|) from polya-second's scan
    kernel_evaluations = _count_kernel_evaluations(monkeypatch)
    inst = make_problem("(x^4+1)^(1/4)-1", 3.0, 2.0, 3.0)  # kernels compiled from here on
    anch = anchors(inst)
    cat.run_method(inst, anch, "polya-second")
    before = Counter(kernel_evaluations)
    calls = _count_extremum_calls(monkeypatch)
    res = cat.run_method(inst, anch, "lp-remainder", (1.0, INF))
    assert calls == [] and kernel_evaluations == before, kernel_evaluations - before
    # the same bits as a scan of |h''| itself
    _, (_, sup_abs) = numerics.extremum(lambda x: abs(inst.deriv(x, 2)), anch.alpha, anch.beta)
    assert dict(res.extras)["norm"] == sup_abs


def _patch_everywhere(monkeypatch, name: str, replacement) -> None:
    """Bind ``replacement`` to ``name`` in every youngbounds module that
    imported ``expr.<name>``."""
    original = getattr(expr, name)
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "youngbounds"]:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def _per_point_jet_rows(ast, xs, order, cap=expr.DEFAULT_ORDER_CAP):
    rows = []
    for x in xs:
        try:
            rows.append(expr.jet(ast, x, order, cap).derivs)
        except DomainError:
            rows.append(None)
    return rows


def test_sweep_output_does_not_depend_on_batching(monkeypatch, sweep_reprs):
    batched = sweep_reprs(5)
    _patch_everywhere(monkeypatch, "jet_rows", _per_point_jet_rows)
    assert sweep_reprs(5) == batched


def test_sweep_output_does_not_depend_on_the_scan_column(monkeypatch, sweep_reprs):
    # every extremum scan read point by point through f, as without a column
    columned = sweep_reprs(5)
    extremum = cat.extremum
    monkeypatch.setattr(cat, "extremum", lambda f, lo, hi, column=None: extremum(f, lo, hi))
    assert sweep_reprs(5) == columned


# Kernel evaluations by jet order (None: evaluate) of make_problem, anchors,
# all 13 methods and the sweep's two REDUCTION re-runs on the quartic. The h'
# extremum scan reads the 1,023 order-2 rows of the h'' scan, so order 1
# counts validation's 257-point scan and point reads alone.
_QUARTIC_KERNEL_EVALUATIONS = {None: 16, 1: 361, 2: 1637, 3: 514, 4: 257}
# The point reads left to jet (anchor reads, Newton slopes, extremum endpoints
# and golden-section refinement) number 201; one 257-point gate, 257-point
# validation scan or 1023-point extremum scan read point by point exceeds this.
_QUARTIC_JET_CALL_BOUND = 250


def _count_kernel_evaluations(monkeypatch) -> Counter:
    """Kernel evaluations by jet order (None: evaluate) of kernels compiled
    from here on: one per evaluate call, one per abscissa of a jet batch."""
    kernel_evaluations: Counter = Counter()
    compile_kernel = expr._compile

    def counted_compile(root, order):
        kernel = compile_kernel(root, order)

        def counted(x):
            kernel_evaluations[order] += 1 if order is None else len(x)
            return kernel(x)

        return counted

    monkeypatch.setattr(expr, "_compile", counted_compile)
    return kernel_evaluations


def test_work_count_gate(monkeypatch):
    jet_calls = []
    jet = expr.jet

    def counted_jet(ast, x0, order, *args):
        jet_calls.append(order)
        return jet(ast, x0, order, *args)

    kernel_evaluations = _count_kernel_evaluations(monkeypatch)
    _patch_everywhere(monkeypatch, "jet", counted_jet)
    inst = make_problem("(x^4+1)^(1/4)-1", 3.0, 2.0, 3.0)
    anch = anchors(inst)
    for name in cat.METHODS:
        cat.run_method(inst, anch, name)
    cat.run_method(inst, anch, "taylor-lagrange", (0.0,))
    cat.run_method(inst, anch, "taylor-holder", (0.0,))
    assert dict(kernel_evaluations) == _QUARTIC_KERNEL_EVALUATIONS
    assert len(jet_calls) <= _QUARTIC_JET_CALL_BOUND, Counter(jet_calls)


def test_sweep_fills_each_gate_grid_once(monkeypatch):
    # sweep fills each gate grid once per instance, at the highest order its
    # methods read there, and builds each grid's abscissae once: in
    # sweep(42, 10), one batch per grid and instance, 40 (70 when each higher
    # order filled a grid again), and 50 interior_grid calls (90 when an
    # upgrade and the h'' scan built their grids again)
    kernel_evaluations = _count_kernel_evaluations(monkeypatch)
    batches: Counter = Counter()
    jet_rows = expr.jet_rows

    def counted_rows(ast, xs, order, *args):
        batches[order, len(xs)] += 1
        return jet_rows(ast, xs, order, *args)

    _patch_everywhere(monkeypatch, "jet_rows", counted_rows)
    grids = _count_grids(monkeypatch)
    sweep(42, 10)
    assert batches == {(1, 257): 10, (2, 1023): 10, (3, 257): 10, (4, 257): 10}
    sizes: Counter = Counter()
    for (_, _, n), calls in grids.items():
        sizes[n] += calls
    assert sizes == {257: 30, 1023: 10, 33: 10}
    assert dict(kernel_evaluations) == {None: 2064, 1: 3804, 2: 11420, 3: 2570, 4: 2570}


def test_the_gate_table_matches_the_estimators(quartic, monkeypatch):
    # each method alone on a fresh instance reads the SCAN_POINTS grids of
    # (0, c) and [alpha, beta] at exactly the orders its _GATES entry lists;
    # a method the table leaves out reads none
    inst, anch = quartic
    reads = []
    column = young.DerivativeProfile.column

    def recorded(self, lo, hi, n, k, fill=0):
        if n == young.SCAN_POINTS:
            reads.append(((lo, hi), k))
        return column(self, lo, hi, n, k, fill)

    monkeypatch.setattr(young.DerivativeProfile, "column", recorded)
    spans = {"c": (0.0, inst.c), "ab": (anch.alpha, anch.beta)}
    assert spans["c"] != spans["ab"]
    for name, (_, arg_names) in cat.METHODS.items():
        for n in range(4) if "n" in arg_names else (0,):
            reads.clear()
            cat.run_method(dataclasses.replace(inst), anch, name, (n,) if "n" in arg_names else ())
            gates = [(spans[span], offset + n) for offset, span in cat._GATES.get(name, ())]
            assert sorted(reads) == sorted(gates), (name, n)


def test_a_failed_scan_point_is_evaluated_once(monkeypatch):
    # h' has no jet at x0, the 300th interior point of polya-first's scan of
    # [0.5, 1.5]. The scan's batch runs at order 2, and x0, where that jet
    # fails, is read once more at order 1; the None stands and x0 is not read
    # again. 1,023 order-2 interior points; 122 = x0 + 2 endpoints + 119
    # golden-section reads at order 1.
    x0 = 0.79296875
    kernel_evaluations = _count_kernel_evaluations(monkeypatch)
    ast = parse_expr(f"x + 0.1*(((x-{x0})^2)^(2/3) - {x0}^(4/3))")
    inst = make_problem(ast, 1.5, evaluate(ast, 0.5), 2.0)
    anch = Anchors(h_inv_b=0.5, alpha=0.5, beta=1.5, h_a=inst.h(1.5), orientation=1)
    with pytest.raises(DomainError):
        inst.deriv(x0, 1)
    before = Counter(kernel_evaluations)
    cat.bound_polya_first(inst, anch)
    assert (kernel_evaluations - before) == {1: 122, 2: 1023}


def _kernel_abscissae(monkeypatch) -> dict:
    """The abscissae, in call order, at which each jet order's kernels
    compiled from here on run."""
    seen: dict = defaultdict(list)
    compile_kernel = expr._compile

    def recorded_compile(root, order):
        kernel = compile_kernel(root, order)
        if order is None:
            return kernel

        def recorded(xs):
            seen[order].extend(xs)
            return kernel(xs)

        return recorded

    monkeypatch.setattr(expr, "_compile", recorded_compile)
    return seen


@pytest.mark.parametrize("text,a,b,anch,failed", [
    ("(x^4+1)^(1/4)-1", 3.0, 2.0, None, 0),
    # h'' of exp(-1/x) is not finite below about 5.6e-103, where 1/x^3
    # overflows, but h' is: 140 grid points of [1e-103, 1e-102]
    ("x+exp(-1/x)", 1e-102, 1e-103,
     Anchors(h_inv_b=1e-103, alpha=1e-103, beta=1e-102, h_a=1e-102, orientation=1), 140),
], ids=["quartic", "order-2-fails"])
def test_h_prime_scan_reads_the_h_second_rows(monkeypatch, text, a, b, anch, failed):
    # every method on one instance: the h' extremum scan of [alpha, beta]
    # evaluates order-1 jets on its grid only where the order-2 jet fails
    seen = _kernel_abscissae(monkeypatch)
    inst = make_problem(text, a, b, 3.0 if anch is None else 1.0)
    anch = anch or anchors(inst)
    seen.clear()
    for name in cat.METHODS:
        try:
            cat.run_method(inst, anch, name)
        except YoungBoundsError:  # taylor-lagrange and others at 1e-103
            pass
    assert len(seen[1]) > 0 and len(seen[2]) >= EXTREMUM_SCAN_POINTS - 2
    grid = numerics.interior_grid(anch.alpha, anch.beta, EXTREMUM_SCAN_POINTS - 2)
    order_2_fails = [x for x, row in zip(grid, expr.jet_rows(inst.ast, grid, 2)) if row is None]
    on_grid = set(grid)
    assert [x for x in seen[1] if x in on_grid] == order_2_fails
    assert len(order_2_fails) == failed


def test_taylor_holder_extras_need_no_quadrature():
    # h'' of this smooth step spikes to about 1e2 near 0.618 and integrates
    # to h'(1) - h'(0.3) = -1.3e-12 over [alpha, beta]: the r = 1 norm of the
    # proof extras comes from those two reads, not from quadrature (which
    # ran for seconds and then failed the estimator); an extra that fails is
    # dropped with a note
    text = ("x + 1e-3*((x-0.61803)/sqrt((x-0.61803)^2+1e-5^2)"
            " + 0.61803/sqrt(0.61803^2+1e-5^2))")
    inst = make_problem(text, 1.0, 0.3)
    start = time.perf_counter()
    res = cat.run_method(inst, anchors(inst), "taylor-holder", (1.0,))
    assert time.perf_counter() - start < 1.0
    assert res.lower is not None and res.upper is not None
    assert [k for k, _ in res.extras] == ["statement_lower", "statement_upper"]
    assert [n.split(":")[0] for n in res.notes[1:]] == ["proof_lower dropped", "proof_upper dropped"]


def test_a_failed_norm_quadrature_runs_once_per_instance(monkeypatch):
    # on this sharper step h'(1) - h'(0.3) is lost to rounding, so the r = 1
    # norm of both proof extras falls back to norm_r's quadrature of h'',
    # which fails; the profile keeps that failure, so the quadrature runs
    # once, not once per extra, and both extras are dropped with its message
    calls = []
    norm_r = cat.norm_r

    def counted(*args):
        calls.append(args[1])
        return norm_r(*args)

    monkeypatch.setattr(cat, "norm_r", counted)
    text = "x + 1e-3*((x-0.5)/sqrt((x-0.5)^2+1e-8^2) + 0.5/sqrt(0.5^2+1e-8^2))"
    inst = make_problem(text, 1.0, 0.3)
    res = cat.run_method(inst, anchors(inst), "taylor-holder", (1.0,))
    assert len(calls) == 1 and calls[0].r == 1.0
    reason = ("NoConvergenceError: roundoff-limited panels alone carry error 2.667e-11"
              " above the goal 9.184e-18; no further subdivision can converge")
    assert res.notes[1:] == (f"proof_lower dropped: {reason}", f"proof_upper dropped: {reason}")
    assert [k for k, _ in res.extras] == ["statement_lower", "statement_upper"]


def test_one_norm_integrates_where_an_endpoint_jet_fails():
    # h'' = 3.75 x^0.5 has no jet at alpha = a = 0, so ||h''||_1 over [0, 1]
    # comes from quadrature: the proof extras and a user (inf, 1) pair stand
    inst = make_problem("x^2.5", 0.0, 1.0, 2.0)
    anch = anchors(inst)
    res = cat.run_method(inst, anch, "taylor-holder", (1.0,))
    assert [k for k, _ in res.extras] == [
        "statement_lower", "statement_upper", "proof_lower", "proof_upper"]
    res = cat.run_method(inst, anch, "taylor-holder", (1.0, INF, 1.0))
    assert res.lower == pytest.approx(-1.25, rel=1e-12)  # -(h'(1) - h'(0)) / 2!


def test_quadrature_nodes_are_not_kept_in_the_profile(quartic):
    # finite-exponent norms integrate reads of the instance itself: the
    # profile keeps no quadrature node, only lp-remainder's two anchor jets
    inst, anch = quartic
    inst = dataclasses.replace(inst)
    cat.bound_holder_norm(inst, anch, (0.5, -1.0), (2.0, 2.0))
    assert len(inst.profile._jets) == 0
    cat.run_method(inst, anch, "lp-remainder", (1.0, 2.0))
    assert len(inst.profile._jets) == 2


def test_one_norm_integrates_when_the_endpoint_difference_is_rounding():
    # anchors one ulp apart: ln(1+beta) - ln(1+alpha) rounds to 0, so
    # ||h'||_1 comes from quadrature, about h'(a) * width
    a = 1000.0
    inst = make_problem("ln(1+x)", a, math.log1p(a))
    bp = math.nextafter(a, 0.0)
    anch = Anchors(h_inv_b=bp, alpha=bp, beta=a, h_a=inst.h(a), orientation=1)
    assert inst.h(a) - inst.h(bp) == 0.0
    res = cat.bound_holder_norm(inst, anch, upper_pair=(INF, 1.0))
    assert res.upper == pytest.approx(anch.width ** 2 / (1.0 + a), rel=1e-9)


@pytest.mark.parametrize("name,args", [
    ("taylor-jensen", (1.5,)),
    ("taylor-jensen", (-1.0,)),
    ("hoorfar-qi", (1.0,)),
    ("no-such-method", ()),
], ids=["fractional-n", "negative-n", "too-many", "unknown"])
def test_run_method_rejects_bad_arguments(quartic, name, args):
    # the library entry point checks a spec as the CLI parser does
    with pytest.raises(ParseError):
        cat.run_method(*quartic, name, args)


def test_run_method_fills_defaults_from_options(cubic):
    # a missing n is taylor_order, the Hölder pairs are the options' first
    # pairs, positional p and q replace the upper pair, lp-remainder's p is inf
    base, anch, _ = cubic
    inst = dataclasses.replace(base, options=Options(
        taylor_order=2, upper_exponent_pairs=((2.0, 2.0), (1.0, INF)),
        lower_exponent_pairs=((0.5, -1.0), (1.0, -INF))))
    for name, args, want in [
        ("taylor-jensen", (), cat.bound_taylor_jensen(inst, anch, 2)),
        ("polya-higher", (), cat.bound_polya_higher(inst, anch, 2)),
        ("lp-remainder", (), cat.bound_lp_remainder(inst, anch, 2, INF)),
        ("holder-norm", (), cat.bound_holder_norm(inst, anch, (0.5, -1.0), (2.0, 2.0))),
        ("taylor-holder", (1.0, 1.5, 3.0),
         cat.bound_taylor_holder(inst, anch, 1, (0.5, -1.0), (1.5, 3.0))),
    ]:
        assert repr(cat.run_method(inst, anch, name, args)) == repr(want), name


_ORDER_ESTIMATORS = (
    cat.bound_taylor_lagrange, cat.bound_taylor_holder, cat.bound_taylor_cebysev,
    cat.bound_taylor_jensen, cat.bound_taylor_product_hh, cat.bound_polya_higher,
    cat.bound_lp_remainder,
)


@pytest.mark.parametrize("order", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("estimator", _ORDER_ESTIMATORS, ids=lambda f: f.__name__)
def test_non_integer_order_raises_a_typed_error(estimator, order):
    # as for Options.taylor_order: 1.0 raised an untyped TypeError, and True
    # ran as order 1
    inst = make_problem("x^3", 1.5, 1.0, 2.0)
    with pytest.raises(OrderCapError, match="nonnegative integer"):
        estimator(inst, anchors(inst), order)


@pytest.mark.parametrize("b", [1.0, 3.375], ids=["no-tie", "tie"])
@pytest.mark.parametrize("estimator", _ORDER_ESTIMATORS, ids=lambda f: f.__name__)
def test_negative_order_raises_a_typed_error(estimator, b):
    # on a tie b = h(a) the zero-width shortcut must not hide the bad order
    inst = make_problem("x^3", 1.5, b, 2.0)
    with pytest.raises(OrderCapError):
        estimator(inst, anchors(inst), -1)


def test_settable_surface_is_pinned():
    # Every value a caller can set, by name. A new option, method argument or
    # estimator parameter must edit this test.
    assert [f.name for f in dataclasses.fields(Options)] == [
        "quad_rel_tol", "taylor_order", "t_grid",
        "upper_exponent_pairs", "lower_exponent_pairs", "assume",
    ]
    assert {name: args for name, (_, args) in cat.METHODS.items()} == {
        "hoorfar-qi": (),
        "hh-cebysev": (),
        "jensen-first": (),
        "holder-norm": ("p", "q"),
        "taylor-lagrange": ("n",),
        "taylor-holder": ("n", "p", "q"),
        "taylor-cebysev": ("n",),
        "taylor-jensen": ("n",),
        "taylor-product-hh": ("n",),
        "polya-first": ("L", "U"),
        "polya-second": ("L", "U"),
        "polya-higher": ("n", "t"),
        "lp-remainder": ("n", "p", "t"),
    }
    estimators = {name: getattr(cat, name) for name in dir(cat) if name.startswith("bound_")}
    assert {name: tuple(inspect.signature(fn).parameters) for name, fn in estimators.items()} == {
        "bound_hoorfar_qi": ("inst", "anch"),
        "bound_hh_cebysev": ("inst", "anch"),
        "bound_jensen_first": ("inst", "anch"),
        "bound_holder_norm": ("inst", "anch", "lower_pair", "upper_pair"),
        "bound_taylor_lagrange": ("inst", "anch", "n"),
        "bound_taylor_holder": ("inst", "anch", "n", "lower_pair", "upper_pair"),
        "bound_taylor_cebysev": ("inst", "anch", "n"),
        "bound_taylor_jensen": ("inst", "anch", "n"),
        "bound_taylor_product_hh": ("inst", "anch", "n"),
        "bound_polya_first": ("inst", "anch", "L", "U"),
        "bound_polya_second": ("inst", "anch", "L", "U"),
        "bound_polya_higher": ("inst", "anch", "n", "t"),
        "bound_lp_remainder": ("inst", "anch", "n", "p", "t"),
    }
    # the Hölder estimators default to the pairs run_method reads from Options
    for fn in (cat.bound_holder_norm, cat.bound_taylor_holder):
        params = inspect.signature(fn).parameters
        assert params["upper_pair"].default == Options().upper_exponent_pairs[0]
        assert params["lower_pair"].default == Options().lower_exponent_pairs[0]


# ---------------------------------------------------------------------------
# Reversed orientation (a < h^{-1}(b)): gap = 0.671875
# ---------------------------------------------------------------------------

def test_reversed_orientation_sandwiches(cubic_reversed):
    inst, anch, orc = cubic_reversed
    assert anch.orientation == -1
    for name in cat.METHODS:
        res = cat.run_method(inst, anch, name)
        if not res.applicable:
            continue
        native = res.target.native_of_sum(orc.sum)
        if res.target.absolute:
            assert native <= res.upper + 1e-9, name
            continue
        if res.lower is not None:
            assert native >= res.lower - 1e-9, name
        if res.upper is not None:
            assert native <= res.upper + 1e-9, name


def test_reversed_hh_cebysev_is_reversed_case(cubic_reversed):
    inst, anch, orc = cubic_reversed
    r = cat.bound_hh_cebysev(inst, anch)
    # h' increasing, b > h(a): trapezoid form becomes the lower bound
    assert r.lower == pytest.approx(0.59375, abs=1e-12)
    assert r.upper == pytest.approx(0.7109375, abs=1e-12)
    assert r.lower <= orc.gap <= r.upper
    assert "reversed" in r.notes[0]


def test_reversed_taylor_lagrange_odd_order(cubic_reversed):
    inst, anch, orc = cubic_reversed
    r = cat.bound_taylor_lagrange(inst, anch, 1)
    # T_1 = 0.84375, kernel = -0.125/6, bounds = T_1 - {M, m} |kernel|
    assert r.lower == pytest.approx(0.84375 - 9.0 * 0.125 / 6.0, abs=1e-12)
    assert r.upper == pytest.approx(0.84375 - 6.0 * 0.125 / 6.0, abs=1e-12)
    assert r.lower <= orc.gap <= r.upper


def test_lp_orientation_reflection(cubic_reversed):
    inst, anch, orc = cubic_reversed
    r = cat.bound_lp_remainder(inst, anch, 1, INF)
    assert "reflected orientation" in r.notes
    assert r.target.native_of_sum(orc.sum) <= r.upper


# ---------------------------------------------------------------------------
# Linear collapse: h = lambda*x gives lower = upper = lambda*(a - b/lambda)^2/2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
def test_linear_collapse(lam):
    a, b = 0.9, 0.5 * lam
    inst = make_problem(f"{lam}*x", a, b, 1.5)
    anch = anchors(inst)
    exact = lam * (a - b / lam) ** 2 / 2.0
    for fn in (cat.bound_hoorfar_qi, cat.bound_hh_cebysev, cat.bound_jensen_first):
        r = fn(inst, anch)
        assert r.lower == pytest.approx(exact, abs=1e-12), fn.__name__
        assert r.upper == pytest.approx(exact, abs=1e-12), fn.__name__


def test_polya_first_degenerate_linear():
    inst = make_problem("x", 1.0, 0.5, 1.0)
    anch = anchors(inst)
    r = cat.bound_polya_first(inst, anch)
    # exact shifted integral: d*(h(a)+b)/2 = 0.5*1.5/2
    assert r.lower == r.upper == pytest.approx(0.375, abs=1e-13)
    assert any("degenerate" in n for n in r.notes)


def test_polya_second_degenerate_linear():
    inst = make_problem("x", 1.0, 0.5, 1.0)
    anch = anchors(inst)
    r = cat.bound_polya_second(inst, anch)
    orc = oracle(inst, anch)
    middle = r.target.native_of_sum(orc.sum)
    assert r.lower == r.upper == pytest.approx(middle, abs=1e-12)


def test_polya_higher_linear_collapse():
    # h = x, n = 1: all S terms with w = 0 reduce to the exact shifted value
    inst = make_problem("x", 0.9, 0.4, 1.0)
    anch = anchors(inst)
    r = cat.bound_polya_higher(inst, anch, 1, t=0.6)
    exact = (0.9 ** 2 - 0.4 ** 2) / 2.0
    assert r.lower == pytest.approx(exact, abs=1e-13)
    assert r.upper == pytest.approx(exact, abs=1e-13)


# ---------------------------------------------------------------------------
# Equality case b = h(a): every gap/remainder bound collapses to zero
# ---------------------------------------------------------------------------

def test_equality_case_zeros():
    inst = make_problem("exp(x^2)-1", 0.8, evaluate(parse_expr("exp(x^2)-1"), 0.8), 1.0)
    anch = anchors(inst)
    assert anch.width == 0.0
    for name in cat.METHODS:
        res = cat.run_method(inst, anch, name)
        if res.target.tag not in ("GAP", "REMAINDER", "ABS_REMAINDER"):
            continue
        for v in (res.lower, res.upper):
            if v is not None:
                assert abs(v) <= 1e-10, name


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fn,a,b", [
    ("x^3", 1.5, 1.0),
    ("x^3", 1.0, 3.375),
    ("exp(x^2)-1", 1.0, 1.0),
    ("exp(-1/x)", 0.5, 0.5),
])
def test_taylor_lagrange_order0_is_hoorfar_qi(fn, a, b):
    inst = make_problem(fn, a, b)
    anch = anchors(inst)
    hq = cat.bound_hoorfar_qi(inst, anch)
    tl = cat.bound_taylor_lagrange(inst, anch, 0)
    assert abs(tl.lower - hq.lower) <= 1e-14 * max(1.0, abs(hq.lower))
    assert abs(tl.upper - hq.upper) <= 1e-14 * max(1.0, abs(hq.upper))


@pytest.mark.parametrize("pairs", [
    ((1.0, -INF), (1.0, INF)),
    ((0.5, -1.0), (2.0, 2.0)),
    ((-INF, 1.0), (INF, 1.0)),
])
def test_taylor_holder_order0_is_holder_norm(pairs, cubic):
    inst, anch, _ = cubic
    lower_pair, upper_pair = pairs
    hn = cat.bound_holder_norm(inst, anch, lower_pair, upper_pair)
    th = cat.bound_taylor_holder(inst, anch, 0, lower_pair, upper_pair)
    assert abs(th.lower - hn.lower) <= 1e-12 * max(1.0, abs(hn.lower))
    assert abs(th.upper - hn.upper) <= 1e-12 * max(1.0, abs(hn.upper))


# ---------------------------------------------------------------------------
# S polynomial
# ---------------------------------------------------------------------------

def test_sn_polynomial_partials_match_finite_differences():
    inst = make_problem("exp(x^2)-1", 1.0, 1.0, 1.0)
    jet5 = jet(inst.ast, 0.7, 4)
    sn = cat.SnPolynomial(5, jet5.derivs)
    w = 2.3
    for i in range(1, 5):
        for u in (0.4, 0.9, 1.3):
            h = 1e-6 * max(1.0, abs(u)) ** ((i + 1) / 3)
            if i == 1:
                fd = (sn.partial(0, u + h, w) - sn.partial(0, u - h, w)) / (2 * h)
            else:
                fd = (sn.partial(i - 1, u + h, w) - sn.partial(i - 1, u - h, w)) / (2 * h)
            assert sn.partial(i, u, w) == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_sn_polynomial_top_partial_is_u_independent():
    inst = make_problem("x^3", 1.5, 1.0, 2.0)
    sn = cat.SnPolynomial(4, jet(inst.ast, 1.2, 2).derivs)
    w = -1.7
    values = {sn.partial(4, u, w) for u in (0.1, 0.5, 2.0)}
    assert len(values) == 1
    assert values.pop() == pytest.approx((-1.0) ** 4 * w, rel=1e-15)
    assert sn.partial(5, 1.0, w) == 0.0


def test_sn_polynomial_validation():
    with pytest.raises(ValueError):
        cat.SnPolynomial(1, (0.0,))
    with pytest.raises(ValueError):
        cat.SnPolynomial(4, (0.0,))  # needs h^(0)..h^(2)


def test_polya_higher_invalid_t(cubic):
    inst, anch, _ = cubic
    with pytest.raises(InvalidTError):
        cat.bound_polya_higher(inst, anch, 1, t=1.0)   # endpoint, not interior
    with pytest.raises(InvalidTError):
        cat.bound_polya_higher(inst, anch, 1, t=2.5)


def test_lp_invalid_t_and_exponent(cubic):
    inst, anch, _ = cubic
    with pytest.raises(InvalidTError):
        cat.bound_lp_remainder(inst, anch, 1, INF, t=9.0)
    with pytest.raises(ExponentDomainError):
        cat.bound_lp_remainder(inst, anch, 1, 0.5)


# ---------------------------------------------------------------------------
# lp-remainder: tight bound never exceeds the coarse bound
# ---------------------------------------------------------------------------

def test_lp_tight_below_coarse_on_random_family():
    rng = random.Random(77)
    count = 0
    while count < 100:
        p_exp = round(rng.uniform(1.5, 4.0), 3)
        c = round(rng.uniform(1.0, 2.0), 3)
        a = rng.uniform(0.55, 0.95) * c
        ast = parse_expr(f"x^{p_exp}")
        b = evaluate(ast, rng.uniform(0.1, 0.75) * a)
        inst = make_problem(ast, a, b, c)
        anch = anchors(inst)
        if anch.width < 0.1:
            continue
        count += 1
        for p in (1.0, 2.0, INF):
            r = cat.bound_lp_remainder(inst, anch, 1, p)
            assert r.upper <= dict(r.extras)["coarse_upper"] + 1e-12, (p, a, b)


# ---------------------------------------------------------------------------
# Case-table spot checks (full enumeration lives in the acceptance suite)
# ---------------------------------------------------------------------------

def test_cebysev_side_table_is_total():
    for ha_gt_b in (True, False):
        for direction in ("increasing", "decreasing"):
            for parity in (0, 1):
                assert cat._CEBYSEV_SIDE[(ha_gt_b, direction, parity)] in ("lower", "upper")


def test_cebysev_flat_direction_is_exact():
    inst = make_problem("x", 0.8, 0.3, 1.0)
    anch = anchors(inst)
    r = cat.bound_taylor_cebysev(inst, anch, 0)
    assert r.lower == r.upper == pytest.approx((0.8 - 0.3) ** 2 / 2.0, abs=1e-13)


def test_bound_result_rejects_crossed_sides():
    tq = cat.TargetQuantity("GAP", offset=0.0)
    with pytest.raises(ValueError):
        cat.BoundResult("demo", tq, 1.0, 0.0, True)


def test_estimators_are_pure_under_concurrency(cubic):
    # instances and estimators are immutable/pure: concurrent evaluation from
    # several threads must reproduce the single-threaded results exactly
    import concurrent.futures

    inst, anch, _ = cubic
    names = sorted(cat.METHODS)
    expected = {nm: cat.run_method(inst, anch, nm) for nm in names}
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(cat.run_method, inst, anch, nm)
                   for _ in range(4) for nm in names]
        for fut, nm in zip(futures, names * 4):
            got = fut.result()
            assert got.lower == expected[nm].lower, nm
            assert got.upper == expected[nm].upper, nm


def test_threads_filling_one_profile_get_unshared_results(quartic):
    # threads that fill one fresh derivative profile at once, with frequent
    # thread switches, return exactly what each method gives on a fresh instance
    import concurrent.futures
    import sys

    inst, anch = quartic
    names = sorted(cat.METHODS)
    expected = {nm: cat.run_method(dataclasses.replace(inst), anch, nm) for nm in names}
    shared = dataclasses.replace(inst)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(cat.run_method, shared, anch, nm)
                       for nm in names * 3]
            results = [fut.result(timeout=60) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    for nm, got in zip(names * 3, results):
        assert got == expected[nm], nm


# ---------------------------------------------------------------------------
# Hypothesis gates: flagged results still carry bounds; assumptions override
# ---------------------------------------------------------------------------

def test_failed_gate_still_reports_bounds():
    # h''' changes sign on [alpha, beta], so the convexity gate must fail,
    # but the estimate is still computed and flagged
    inst = make_problem("exp(0.5*x^1.3)-1", 0.9,
                        evaluate(parse_expr("exp(0.5*x^1.3)-1"), 0.3), 1.5)
    anch = anchors(inst)
    r = cat.bound_jensen_first(inst, anch)
    assert not r.applicable
    assert r.lower is not None and r.upper is not None
    assert any(not d.passed for d in r.diagnostics)


def test_assume_option_overrides_gate():
    expr_text = "exp(0.5*x^1.3)-1"
    b = evaluate(parse_expr(expr_text), 0.3)
    assumed = make_problem(expr_text, 0.9, b, 1.5,
                           Options(assume=frozenset({"h_prime_convexity"})))
    r = cat.bound_jensen_first(assumed, anchors(assumed))
    assert r.applicable
    assert any(d.assumed and not d.passed for d in r.diagnostics)


def test_polya_first_accepts_wider_user_range(cubic):
    inst, anch, orc = cubic
    r = cat.bound_polya_first(inst, anch, L=2.0, U=8.0)
    assert r.applicable
    assert r.lower <= orc.gap + inst.a * inst.b - inst.b * anch.h_inv_b  # contains SHIFTED
    sharp = cat.bound_polya_first(inst, anch)
    assert r.lower <= sharp.lower and r.upper >= sharp.upper  # wider range, looser bound


def test_polya_first_flags_narrow_user_range(cubic):
    inst, anch, _ = cubic
    r = cat.bound_polya_first(inst, anch, L=4.0, U=6.0)  # true range is [3, 6.75]
    assert not r.applicable
    assert r.lower is not None and r.upper is not None


def test_polya_second_degenerate_denominator_diagnostic(cubic):
    inst, anch, _ = cubic
    # W equal to the interval mean of h'' makes that side's denominator vanish
    r = cat.bound_polya_second(inst, anch, L=7.5)
    assert r.lower is None and r.upper is not None
    assert not r.applicable
    assert any(d.name == "nonzero_denominator" and not d.passed for d in r.diagnostics)
