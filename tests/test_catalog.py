"""Estimator catalog: hand-computed fixtures, collapses, and properties."""

from __future__ import annotations

import dataclasses
import gc
import inspect
import math
import random
import time
import weakref
from collections import Counter

import pytest
import reference_bounds as rb
from hypothesis import given, settings
from hypothesis import strategies as st

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
@pytest.mark.workcount
def test_one_extremum_scan_per_derivative_range(quartic, spy, estimator):
    # L, U and the +-inf norms are the inf and sup of one derivative on
    # [alpha, beta]: a single scan yields both; fails when a range is
    # scanned twice. A fresh instance, because the module-scoped one's
    # profile already holds the scans of earlier cases.
    inst, anch = quartic
    calls = spy(numerics.extremum)
    estimator(dataclasses.replace(inst), anch)
    assert len(calls) == 1, calls


@pytest.mark.workcount
@pytest.mark.parametrize("order", [1, 2])
def test_an_extremum_scan_builds_its_grid_once(quartic, spy, order):
    # extremum builds the scan's interior grid and the profile keeps that
    # list, so a fresh interval's grid is built once per scan; fails when a
    # scan builds its grid's abscissae twice
    inst, anch = quartic
    inst = dataclasses.replace(inst)  # an empty profile
    calls = spy(numerics.interior_grid)
    cat._extrema_of_deriv(inst, order, anch.alpha, anch.beta)
    grids = Counter((call.lo, call.hi, call.n) for call in calls)
    assert grids == {(anch.alpha, anch.beta, EXTREMUM_SCAN_POINTS - 2): 1}


@pytest.mark.workcount
def test_the_h_second_scan_reads_the_h_prime_grid_and_keeps_no_golden_point(quartic, spy):
    # the h' and h'' scans of [alpha, beta] share one list of abscissae, and
    # the profile keeps that grid and the two extrema, but no point the
    # scans read on the instance: endpoints and golden-section points
    inst, anch = quartic
    inst = dataclasses.replace(inst)  # an empty profile
    calls = spy(numerics.interior_grid)
    cat._extrema_of_deriv(inst, 1, anch.alpha, anch.beta)
    cat._extrema_of_deriv(inst, 2, anch.alpha, anch.beta)
    grids = Counter((call.lo, call.hi, call.n) for call in calls)
    assert grids == {(anch.alpha, anch.beta, EXTREMUM_SCAN_POINTS - 2): 1}
    assert set(inst.profile._grids) == {(anch.alpha, anch.beta, EXTREMUM_SCAN_POINTS - 2)}
    assert set(inst.profile._memo) == {("extrema", k, anch.alpha, anch.beta) for k in (1, 2)}


@pytest.mark.workcount
def test_an_extremum_scan_looks_up_its_kernels_once(quartic, spy):
    # the golden-section reads of an extremum scan run one reader of the
    # order-1 kernel, looked up once per scan, and the interior is one
    # order-2 batch: fails when each read looks its kernel up again through
    # inst.deriv, 98 order-1 lookups in this scan
    inst, anch = quartic
    inst = dataclasses.replace(inst)  # an empty profile
    calls = spy(expr._kernel)
    cat._extrema_of_deriv(inst, 1, anch.alpha, anch.beta)
    assert Counter(call.order for call in calls) == {2: 1, 1: 1}


@pytest.mark.workcount
def test_a_sweep_instance_classifies_each_gate_key_once(spy):
    # the 11 gate checks of one sweep instance read 6 (order, interval)
    # keys, and each key's samples are classified once, in the profile's
    # memo of the whole verdict: fails when each check classifies its
    # samples again, 11 times
    checks = spy(cat._check)
    classes = spy(cat._sign_class)
    sweep(42, 1)
    keys = {(call.order, call.lo, call.hi) for call in checks}
    assert (len(checks), len(keys), len(classes)) == (11, 6, 6)


@pytest.mark.workcount
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


@pytest.mark.workcount
def test_one_extremum_scan_per_derivative_range_across_methods(quartic, spy):
    # every method on one instance, plus the sweep's two REDUCTION re-runs,
    # shares the scans of h' and h'' (Polya L/U, Holder +-inf norms, and
    # lp-remainder's sup |h''|): fails when a method scans a range again
    inst, anch = quartic
    inst = dataclasses.replace(inst)  # an empty profile
    calls = spy(numerics.extremum)
    for name in cat.METHODS:
        cat.run_method(inst, anch, name)
    cat.run_method(inst, anch, "taylor-lagrange", (0.0,))
    cat.run_method(inst, anch, "taylor-holder", (0.0,))
    assert len(calls) == 2, calls


@pytest.mark.workcount
def test_lp_remainder_sup_norm_reuses_the_polya_scan(domain_table, kernel_runs, spy):
    # sup |h''| is max(|inf h''|, |sup h''|) from polya-second's scan: the
    # only kernel calls left are the order-1 jets at alpha and beta that
    # the two-point Taylor sums read
    inst = make_problem("(x^4+1)^(1/4)-1", 3.0, 2.0, 3.0)  # kernels compiled from here on
    anch = anchors(inst)
    cat.run_method(inst, anch, "polya-second")
    before = kernel_runs.evaluations()
    calls = spy(numerics.extremum)
    res = cat.run_method(inst, anch, "lp-remainder", (1.0, INF))
    kernel_evaluations = kernel_runs.evaluations()
    assert calls == [] and kernel_evaluations - before == {1: 2}, kernel_evaluations - before
    # the same bits as a scan of |h''| itself
    _, (_, sup_abs) = numerics.extremum(lambda x: abs(inst.deriv(x, 2)), anch.alpha, anch.beta)
    assert dict(res.extras)["norm"] == sup_abs


def _per_point_jet_rows(ast, xs, order):
    rows = []
    for x in xs:
        try:
            rows.append(expr.jet(ast, x, order).derivs)
        except DomainError:
            rows.append(None)
    return rows


def test_sweep_output_does_not_depend_on_batching(patch_everywhere, sweep_reprs):
    batched = sweep_reprs(5)
    patch_everywhere(expr.jet_rows, _per_point_jet_rows)
    assert sweep_reprs(5) == batched


def test_sweep_output_does_not_depend_on_the_scan_column(patch_everywhere, sweep_reprs):
    # every extremum scan read point by point through f, as without a column
    columned = sweep_reprs(5)
    extremum = numerics.extremum
    patch_everywhere(extremum, lambda f, lo, hi, column=None: extremum(f, lo, hi))
    assert sweep_reprs(5) == columned


# Kernel evaluations by jet order (None: evaluate) of make_problem, anchors,
# all 13 methods and the sweep's two REDUCTION re-runs on the quartic. The h'
# extremum scan reads the 1,023 order-2 rows of the h'' scan, so order 1
# counts validation's 257-point scan and point reads alone. Point reads are
# kept nowhere, so an abscissa read by two methods runs its jet twice.
# Validation decides h(0+) on the tree, without evaluating h (None was 16
# while it sampled h at 1e-6, 1e-8 and 1e-10).
_QUARTIC_KERNEL_EVALUATIONS = {None: 13, 1: 382, 2: 1643, 3: 514, 4: 257}
# The calls left to jet are the Newton slopes of h^{-1}(b), 5 here (the
# instance's point reads run the kernel directly); one 257-point gate,
# 257-point validation scan or 1023-point extremum scan read point by point
# through jet exceeds this.
_QUARTIC_JET_CALL_BOUND = 250


@pytest.mark.workcount
def test_work_count_gate(domain_table, kernel_runs, spy):
    # jet-kernel evaluations by order and the calls left to jet on one
    # instance; fails when a gate or scan goes back to one jet call per
    # abscissa
    calls = spy(expr.jet)
    inst = make_problem("(x^4+1)^(1/4)-1", 3.0, 2.0, 3.0)
    anch = anchors(inst)
    for name in cat.METHODS:
        cat.run_method(inst, anch, name)
    cat.run_method(inst, anch, "taylor-lagrange", (0.0,))
    cat.run_method(inst, anch, "taylor-holder", (0.0,))
    kernel_evaluations = kernel_runs.evaluations()
    jet_calls = [call.order for call in calls]
    assert dict(kernel_evaluations) == _QUARTIC_KERNEL_EVALUATIONS
    assert len(jet_calls) <= _QUARTIC_JET_CALL_BOUND, Counter(jet_calls)


@pytest.mark.workcount
def test_sweep_fills_each_gate_grid_once(kernel_runs, spy):
    # sweep fills each gate grid once per instance, at the highest order its
    # methods read there, and builds each grid's abscissae once: in
    # sweep(42, 10), one batch per grid and instance, 40 (70 when each higher
    # order filled a grid again), and 40 interior_grid calls (90 when an
    # upgrade and the h'' scan built their grids again, 50 while validation's
    # h' scan of (0, c) built its own grid, which the (0, c) gates now read
    # at a higher order on the same abscissae); evaluate runs 2,034 times,
    # 2,064 while validation sampled h(0+) at three points
    rows = spy(expr.jet_rows)
    grids = spy(numerics.interior_grid)
    sweep(42, 10)
    batches = Counter((call.order, len(call.xs)) for call in rows)
    kernel_evaluations = kernel_runs.evaluations()
    assert batches == {(1, 257): 10, (2, 1023): 10, (3, 257): 10, (4, 257): 10}
    sizes = Counter(call.n for call in grids)
    assert sizes == {257: 20, 1023: 10, 33: 10}
    assert dict(kernel_evaluations) == {None: 2034, 1: 4014, 2: 11480, 3: 2570, 4: 2570}


@pytest.mark.workcount
def test_the_gate_table_matches_the_estimators(quartic, monkeypatch):
    # each method alone on a fresh instance reads the SCAN_POINTS grids of
    # (0, c) and [alpha, beta] at exactly the orders its _GATES entry lists;
    # a method the table leaves out reads none, so this fails when the gate
    # table drifts from the estimators
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
            gates = [(spans[span], offset + n) for offset, span, *_ in cat._GATES.get(name, ())]
            assert sorted(reads) == sorted(gates), (name, n)


# (check name, requirement, passed on quartic, passed on cubic) of each gate
# of every gated method at n = 0..3, None for a method without an order;
# recorded before the gate table held the names and requirement texts
_GATE_DIAGNOSTICS = {
    ("hoorfar-qi", None): (("h_prime_monotone_global", "h'' of one sign on (0, c)", True, True),),
    ("hh-cebysev", None): (
        ("h_prime_monotone_local", "h'' of one sign on [alpha, beta]", True, True),
    ),
    ("jensen-first", None): (
        ("h_prime_convexity", "h''' of one sign on [alpha, beta]", True, True),
    ),
    ("taylor-lagrange", 0): (
        ("deriv_monotone_global", "h^(2) of one sign on (0, c)", True, True),
    ),
    ("taylor-lagrange", 1): (
        ("deriv_monotone_global", "h^(3) of one sign on (0, c)", False, True),
    ),
    ("taylor-lagrange", 2): (
        ("deriv_monotone_global", "h^(4) of one sign on (0, c)", False, True),
    ),
    ("taylor-lagrange", 3): (
        ("deriv_monotone_global", "h^(5) of one sign on (0, c)", False, True),
    ),
    ("taylor-holder", 0): (("deriv_nonneg", "h^(1) >= 0 on [alpha, beta]", True, True),),
    ("taylor-holder", 1): (("deriv_nonneg", "h^(2) >= 0 on [alpha, beta]", True, True),),
    ("taylor-holder", 2): (("deriv_nonneg", "h^(3) >= 0 on [alpha, beta]", False, True),),
    ("taylor-holder", 3): (("deriv_nonneg", "h^(4) >= 0 on [alpha, beta]", True, True),),
    ("taylor-cebysev", 0): (
        ("deriv_monotone_local", "h^(2) of one sign on [alpha, beta]", True, True),
    ),
    ("taylor-cebysev", 1): (
        ("deriv_monotone_local", "h^(3) of one sign on [alpha, beta]", True, True),
    ),
    ("taylor-cebysev", 2): (
        ("deriv_monotone_local", "h^(4) of one sign on [alpha, beta]", True, True),
    ),
    ("taylor-cebysev", 3): (
        ("deriv_monotone_local", "h^(5) of one sign on [alpha, beta]", True, True),
    ),
    ("taylor-jensen", 0): (("deriv_convexity", "h^(3) of one sign on [alpha, beta]", True, True),),
    ("taylor-jensen", 1): (("deriv_convexity", "h^(4) of one sign on [alpha, beta]", True, True),),
    ("taylor-jensen", 2): (("deriv_convexity", "h^(5) of one sign on [alpha, beta]", True, True),),
    ("taylor-jensen", 3): (("deriv_convexity", "h^(6) of one sign on [alpha, beta]", True, True),),
    ("taylor-product-hh", 0): (
        ("deriv_nonneg", "h^(1) >= 0 on [alpha, beta]", True, True),
        ("deriv_convexity", "h^(3) >= 0 on [alpha, beta]", False, True),
    ),
    ("taylor-product-hh", 1): (
        ("deriv_nonneg", "h^(2) >= 0 on [alpha, beta]", True, True),
        ("deriv_convexity", "h^(4) >= 0 on [alpha, beta]", True, True),
    ),
    ("taylor-product-hh", 2): (
        ("deriv_nonneg", "h^(3) >= 0 on [alpha, beta]", False, True),
        ("deriv_convexity", "h^(5) >= 0 on [alpha, beta]", False, True),
    ),
    ("taylor-product-hh", 3): (
        ("deriv_nonneg", "h^(4) >= 0 on [alpha, beta]", True, True),
        ("deriv_convexity", "h^(6) >= 0 on [alpha, beta]", True, True),
    ),
}


@pytest.mark.workcount
def test_gate_diagnostics_are_pinned(quartic, cubic):
    # a typo in a _GATES name or requirement template fails here by method
    assert {name for name, _ in _GATE_DIAGNOSTICS} == set(cat._GATES)
    for (name, n), gates in _GATE_DIAGNOSTICS.items():
        for i, (inst, anch, *_) in enumerate((quartic, cubic)):
            res = cat.run_method(dataclasses.replace(inst), anch, name, () if n is None else (n,))
            got = [(c.name, c.required, c.passed) for c in res.diagnostics]
            assert got == [(check, text, passed[i]) for check, text, *passed in gates], (name, n)

@pytest.mark.workcount
def test_a_failed_scan_point_is_evaluated_once(kernel_runs):
    # h' has no jet at x0, the 300th interior point of polya-first's scan of
    # [0.5, 1.5]. The scan's batch runs at order 2, and x0, where that jet
    # fails, is read once more at order 1; the None stands and x0 is not read
    # again. 1,023 order-2 interior points; 122 = x0 + 2 endpoints + 119
    # golden-section reads at order 1.
    x0 = 0.79296875
    ast = parse_expr(f"x + 0.1*(((x-{x0})^2)^(2/3) - {x0}^(4/3))")
    inst = make_problem(ast, 1.5, evaluate(ast, 0.5), 2.0)
    anch = Anchors(h_inv_b=0.5, alpha=0.5, beta=1.5, h_a=inst.h(1.5), orientation=1)
    with pytest.raises(DomainError):
        inst.deriv(x0, 1)
    before = kernel_runs.evaluations()
    cat.bound_polya_first(inst, anch)
    kernel_evaluations = kernel_runs.evaluations()
    assert (kernel_evaluations - before) == {1: 122, 2: 1023}


@pytest.mark.parametrize("text,a,b,anch,failed", [
    ("(x^4+1)^(1/4)-1", 3.0, 2.0, None, 0),
    # h'' of exp(-1/x) is not finite below about 5.6e-103, where 1/x^3
    # overflows, but h' is: 140 grid points of [1e-103, 1e-102]
    ("x+exp(-1/x)", 1e-102, 1e-103,
     Anchors(h_inv_b=1e-103, alpha=1e-103, beta=1e-102, h_a=1e-102, orientation=1), 140),
], ids=["quartic", "order-2-fails"])
@pytest.mark.workcount
def test_h_prime_scan_reads_the_h_second_rows(domain_table, kernel_runs, text, a, b, anch,
                                             failed):
    # every method on one instance: the h' extremum scan of [alpha, beta]
    # evaluates order-1 jets on its grid only where the order-2 jet fails;
    # fails when the h' scan fills its grid at order 1 beside the h'' rows
    inst = make_problem(text, a, b, 3.0 if anch is None else 1.0)
    anch = anch or anchors(inst)
    kernel_runs.clear()
    for name in cat.METHODS:
        try:
            cat.run_method(inst, anch, name)
        except YoungBoundsError:  # taylor-lagrange and others at 1e-103
            pass
    seen = {order: kernel_runs.abscissae(order) for order in (1, 2)}
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


@pytest.mark.workcount
def test_a_failed_norm_quadrature_runs_once_per_instance(spy):
    # on this sharper step h'(1) - h'(0.3) is lost to rounding, so the r = 1
    # norm of both proof extras falls back to norm_r's quadrature of h'',
    # which fails; the profile keeps that failure, so the quadrature runs
    # once, not once per extra, and both extras are dropped with its message
    norm_calls = spy(numerics.norm_r)
    text = "x + 1e-3*((x-0.5)/sqrt((x-0.5)^2+1e-8^2) + 0.5/sqrt(0.5^2+1e-8^2))"
    inst = make_problem(text, 1.0, 0.3)
    res = cat.run_method(inst, anchors(inst), "taylor-holder", (1.0,))
    calls = [call.spec for call in norm_calls]
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


@pytest.mark.workcount
def test_quadrature_nodes_are_not_kept_in_the_profile(quartic):
    # finite-exponent norms integrate reads of the instance itself, and
    # lp-remainder's two anchor jets are instance reads too: the profile,
    # which keeps only grids and memos, keeps nothing of them
    assert young.DerivativeProfile.__slots__ == ("ast", "_grids", "_memo")
    inst, anch = quartic
    inst = dataclasses.replace(inst)
    cat.bound_holder_norm(inst, anch, (0.5, -1.0), (2.0, 2.0))
    cat.run_method(inst, anch, "lp-remainder", (1.0, 2.0))
    assert inst.profile._grids == {} and inst.profile._memo == {}


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


# ---------------------------------------------------------------------------
# Result builder: applicability and crossed sides
# ---------------------------------------------------------------------------

_GAP = cat.TargetQuantity("GAP", offset=0.0)


def test_result_sorts_crossed_sides_and_notes_them_last():
    res = cat._result("m", _GAP, 2.0, 1.0, notes=("first",), extras=(("x", 3.0),))
    assert (res.lower, res.upper) == (1.0, 2.0)
    assert res.notes == ("first", "sides crossed within roundoff; sorted")
    assert res.extras == (("x", 3.0),) and res.applicable and res.diagnostics == ()
    assert cat._result("m", _GAP, 1.0, 2.0, notes=("first",)).notes == ("first",)


def test_result_leaves_a_none_side_alone():
    for lower, upper in ((None, -1.0), (5.0, None), (None, None)):
        res = cat._result("m", _GAP, lower, upper)
        assert (res.lower, res.upper, res.notes) == (lower, upper, ())


def test_result_applicability_honours_assume():
    # the quartic's h''' is not >= 0 on [alpha, beta], so taylor-holder's
    # order-2 gate fails; assuming it makes the result applicable
    for assume, applicable in ((frozenset(), False), (frozenset({"deriv_nonneg"}), True)):
        inst = make_problem("(x^4+1)^(1/4)-1", 3.0, 2.0, 3.0, Options(assume=assume))
        checks = [check for check, _, _ in cat._gates(inst, anchors(inst), "taylor-holder", 2)]
        assert [(c.passed, c.assumed) for c in checks] == [(False, applicable)]
        res = cat._result("taylor-holder", _GAP, 0.0, 1.0, checks)
        assert res.applicable is applicable and res.diagnostics == tuple(checks)


def test_lp_remainder_without_checks_stays_applicable(cubic, cubic_reversed):
    for inst, anch, _ in (cubic, cubic_reversed):
        res = cat.bound_lp_remainder(inst, anch, 1)
        assert res.applicable and res.diagnostics == ()
        assert res.lower is None and res.upper > 0.0


# ---------------------------------------------------------------------------
# Taylor bounds against their 50-digit closed forms (tests/reference_bounds.py)
# ---------------------------------------------------------------------------

_FAMILIES = [rb.Power(0.9), rb.Power(2.5), rb.Power(3.0), rb.Exp(0.7), rb.Exp(1.6),
             rb.LogQuad(0.7), rb.LogQuad(1.6)]


def _close(got, want) -> bool:
    if want is None:
        return got is None
    return got is not None and math.isclose(got, float(want), rel_tol=1e-9, abs_tol=1e-13)


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda h: h.text)
@pytest.mark.parametrize("x_b", [0.6, 1.9], ids=["b_below_h_a", "b_above_h_a"])
@pytest.mark.workcount
def test_taylor_bounds_match_their_closed_forms(family, x_b):
    # a = 1.2 and c = 2; b = h(x_b) lies below h(a) for x_b = 0.6 and above
    # it for x_b = 1.9. Each family's gates hold, so every closed-form side
    # also bounds the closed-form gap or remainder.
    a, c = 1.2, 2.0
    b = float(family.deriv(x_b, 0))
    inst = make_problem(family.text, a, b, c)
    anch = anchors(inst)
    gap = rb.remainder(family, a, b, 0)
    for n in range(4):
        remainder = rb.remainder(family, a, b, n)
        offset = rb.taylor_sum(family, a, b, n) + a * b
        sign = rb.slope_sign(family, anch.alpha, anch.beta, n)
        for res, want, true in (
            (cat.bound_taylor_lagrange(inst, anch, n), rb.lagrange(family, a, b, n), gap),
            (cat.bound_taylor_jensen(inst, anch, n), rb.jensen(family, a, b, n), remainder),
            (cat.bound_taylor_cebysev(inst, anch, n), rb.cebysev(family, a, b, n, sign), remainder),
        ):
            case = (res.method, n)
            assert res.applicable, case
            assert _close(res.lower, want[0]) and _close(res.upper, want[1]), (case, res, want)
            if res.target.tag == "REMAINDER":
                assert _close(res.target.offset, offset), (case, res.target)
            slack = 1e-40 * (1 + abs(true))  # the equality cases, in 50 digits
            assert want[0] is None or want[0] - true <= slack, (case, want, true)
            assert want[1] is None or true - want[1] <= slack, (case, want, true)


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda h: h.text)
@pytest.mark.parametrize("x_b", [0.6, 1.9], ids=["b_below_h_a", "b_above_h_a"])
def test_gap_and_product_bounds_match_their_closed_forms(family, x_b):
    # as above, for hoorfar-qi, hh-cebysev, jensen-first and taylor-product-hh
    # at n = 0..3: the values on every case, and applicable and the bound on
    # the closed-form gap or remainder where the hypothesis holds in 50
    # digits; the product estimate's h^(n+3) >= 0 fails at odd n on x^0.9,
    # x^2.5 and the LogQuad family
    a, c = 1.2, 2.0
    b = float(family.deriv(x_b, 0))
    inst = make_problem(family.text, a, b, c)
    anch = anchors(inst)
    ab = (anch.alpha, anch.beta)
    gap = rb.remainder(family, a, b, 0)
    cases = [
        (cat.bound_hoorfar_qi(inst, anch), rb.hoorfar_qi(family, a, b), gap,
         len(rb.signs(family, 0.0, c, 2)) == 1),
        (cat.bound_hh_cebysev(inst, anch), rb.hh_cebysev(family, a, b), gap,
         len(rb.signs(family, *ab, 2)) == 1),
        (cat.bound_jensen_first(inst, anch), rb.jensen_first(family, a, b), gap,
         len(rb.signs(family, *ab, 3)) == 1),
    ]
    for n in range(4):
        holds = all(rb.signs(family, *ab, k) <= {0, 1} for k in (n + 1, n + 3))
        cases.append((cat.bound_taylor_product_hh(inst, anch, n), rb.product_hh(family, a, b, n),
                      rb.remainder(family, a, b, n), holds))
    for res, want, true, holds in cases:
        case = (res.method, res.target.label)
        assert _close(res.lower, want[0]) and _close(res.upper, want[1]), (case, res, want)
        if res.target.tag == "REMAINDER":
            offset = rb.taylor_sum(family, a, b, res.target.n) + a * b
            assert _close(res.target.offset, offset), (case, res.target)
        if holds:
            assert res.applicable, case
            slack = 1e-40 * (1 + abs(true))  # the equality cases, in 50 digits
            assert want[0] - true <= slack and true - want[1] <= slack, (case, want, true)


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda h: h.text)
@pytest.mark.parametrize("x_b", [0.6, 1.9], ids=["b_below_h_a", "b_above_h_a"])
@pytest.mark.parametrize("upper_pair", [(1.0, math.inf), (2.0, 2.0)], ids=["1-inf", "2-2"])
def test_holder_bounds_match_their_closed_forms(family, x_b, upper_pair):
    # holder-norm, and taylor-holder at n = 0..2, at the default lower pair
    # (1, -inf) and the upper pair (1, inf) or (2, 2), whose L2 norm runs
    # norm_r and integrate here and mpmath.quad in the reference: the values on
    # every case, and applicable and the bound on the closed-form gap or
    # remainder where h^(n+1) >= 0 holds in 50 digits, which fails at n = 1
    # on x^0.9
    a, c = 1.2, 2.0
    b = float(family.deriv(x_b, 0))
    inst = make_problem(family.text, a, b, c)
    anch = anchors(inst)
    ab = (anch.alpha, anch.beta)
    cases = [(cat.bound_holder_norm(inst, anch, upper_pair=upper_pair), 0, True)]
    for n in range(3):
        cases.append((cat.bound_taylor_holder(inst, anch, n, upper_pair=upper_pair), n,
                      rb.signs(family, *ab, n + 1) <= {0, 1}))
    for res, n, holds in cases:
        case = (res.method, n)
        want = rb.holder(family, a, b, n, upper_pair)
        true = rb.remainder(family, a, b, n)
        assert _close(res.lower, want[0]) and _close(res.upper, want[1]), (case, res, want)
        if res.target.tag == "REMAINDER":
            offset = rb.taylor_sum(family, a, b, n) + a * b
            assert _close(res.target.offset, offset), (case, res.target)
        assert res.applicable == holds, case
        if holds:
            slack = 1e-40 * (1 + abs(true))  # the equality cases, in 50 digits
            assert want[0] - true <= slack and true - want[1] <= slack, (case, want, true)


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda h: h.text)
@pytest.mark.parametrize("x_b", [0.6, 1.9], ids=["b_below_h_a", "b_above_h_a"])
def test_polya_bounds_match_their_closed_forms(family, x_b):
    # polya-first and polya-second: the default L and U, the extremum scan
    # of h' or h'' on [alpha, beta], against the 50-digit extremes to 1e-12;
    # then at a user range a quarter of the true range wider at each end,
    # where the hypothesis holds, and one a quarter narrower, where it fails,
    # the values on both, and applicable and the bound on the closed-form
    # SHIFTED or MIDDLE2 where it holds
    a, c = 1.2, 2.0
    b = float(family.deriv(x_b, 0))
    inst = make_problem(family.text, a, b, c)
    anch = anchors(inst)
    for order, estimator, reference, true in (
        (1, cat.bound_polya_first, rb.polya_first, rb.shifted(family, a, b)),
        (2, cat.bound_polya_second, rb.polya_second, rb.middle2(family, a, b)),
    ):
        lo, hi = rb.deriv_range(family, a, b, order)
        extras = dict(estimator(inst, anch).extras)
        for got, want in ((extras["L"], lo), (extras["U"], hi)):
            assert math.isclose(got, float(want), rel_tol=1e-12), (order, got, want)
        quarter = (hi - lo) / 4
        for L, U, holds in ((lo - quarter, hi + quarter, True), (lo + quarter, hi - quarter, False)):
            L, U = float(L), float(U)
            res = estimator(inst, anch, L, U)
            want = reference(family, a, b, L, U)
            case = (res.method, L, U)
            assert _close(res.lower, want[0]) and _close(res.upper, want[1]), (case, res, want)
            assert res.applicable == holds, case
            if holds:
                slack = 1e-40 * (1 + abs(true))
                assert want[0] - true <= slack and true - want[1] <= slack, (case, want, true)


# ---------------------------------------------------------------------------
# Duality: a problem and its twin bound one SUM
# ---------------------------------------------------------------------------

# (h, h^{-1}) of the two families the grammar keeps closed under inversion;
# x^(1/p) below 1/p = 0.8 is refused, which bounds p at 1.2
_TWINS = st.one_of(
    st.floats(0.3, 1.8).map(lambda lam: (f"exp({lam!r}*x)-1", f"ln(1+x)/{lam!r}")),
    st.floats(0.85, 1.2).map(lambda p: (f"x^{p!r}", f"x^(1/{p!r})")),
)
_EVERY_RUN = [(name, (n,)) for name, (_, args) in cat.METHODS.items() if "n" in args
              for n in range(4)]
_EVERY_RUN += [(name, ()) for name, (_, args) in cat.METHODS.items() if "n" not in args]


def _oracle_and_applicable_rows(inst):
    """The oracle of ``inst`` and the SUM interval of every applicable row of
    every method, at n = 0..3 where it takes n; a run that raises has none."""
    anch = anchors(inst)
    rows = []
    for name, args in _EVERY_RUN:
        try:
            res = cat.run_method(inst, anch, name, args)
        except YoungBoundsError:
            continue
        if res.applicable:
            rows.append((res.method, args, *res.target.sum_interval(res.lower, res.upper)))
    return oracle(inst, anch), rows


@settings(max_examples=200, deadline=None)
@given(twins=_TWINS, a=st.floats(0.3, 1.5), b=st.floats(0.1, 1.5), c_share=st.floats(1.1, 2.0))
def test_twin_problems_bound_one_sum(twins, a, b, c_share):
    # SUM = integral_0^a h + integral_0^b h^{-1} is unchanged by (h, a, b) ->
    # (h^{-1}, b, a), so make_problem(h^{-1}, b, a, h(c)) bounds the SUM of
    # make_problem(h, a, b, c) from other derivatives, gates and anchors. c
    # is a share above max(a, h^{-1}(b)), the least c both problems accept.
    # Any failure is a soundness finding, not a reason to narrow the family.
    text, inverse_text = twins
    inverse = parse_expr(inverse_text)
    c = c_share * max(a, evaluate(inverse, b))
    one = make_problem(text, a, b, c)
    twin = make_problem(inverse, b, a, one.h(c))
    (orc, rows), (twin_orc, twin_rows) = map(_oracle_and_applicable_rows, (one, twin))
    case = (text, a, b, c)
    # floored as the oracle floors its own two paths' agreement: an error
    # estimate counts no rounding (see the test below)
    tolerance = max(20.0 * (orc.abs_error_estimate + twin_orc.abs_error_estimate),
                    1e-13 * max(1.0, abs(orc.sum)))
    assert abs(orc.sum - twin_orc.sum) <= tolerance, (case, orc, twin_orc)
    # the slack until bound arithmetic rounds outward; the consensus of both
    # problems' rows is empty by up to 1.3e-14 relative without it
    slack = 1e-9 * abs(orc.sum)
    for row_set, other in ((rows, twin_orc.sum), (twin_rows, orc.sum)):
        for method, args, lower, upper in row_set:
            assert lower is None or lower <= other + slack, (case, method, args, lower, other)
            assert upper is None or upper >= other - slack, (case, method, args, upper, other)
    lowers = [lower for *_, lower, _ in rows + twin_rows if lower is not None]
    uppers = [upper for *_, upper in rows + twin_rows if upper is not None]
    assert max(lowers) <= min(uppers) + slack, (case, max(lowers), min(uppers))


@pytest.mark.xfail(strict=True, reason="an oracle's error estimate counts no rounding")
def test_twin_oracles_agree_within_their_error_estimates():
    # h = x: each quadrature is exact, so both error estimates are 0.0, yet
    # the SUMs, 1.1050000000000002 and 1.105, differ by one ulp
    one = make_problem("x^1.0", 1.0, 1.1, 2.2)
    twin = make_problem("x^(1/1.0)", 1.1, 1.0, one.h(2.2))
    orc, twin_orc = oracle(one), oracle(twin)
    assert abs(orc.sum - twin_orc.sum) <= 20.0 * (
        orc.abs_error_estimate + twin_orc.abs_error_estimate)
