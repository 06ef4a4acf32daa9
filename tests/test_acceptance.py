"""Acceptance criteria, one test per criterion.

Each test records a PASS/FAIL line (printed in the terminal summary) and then
asserts the criterion exactly as stated. Criteria 4 and 5 check against their
closed forms, recomputed here with mpmath at 50 digits independently of
youngbounds, because two printed reference values are misprints:

- criterion 4: the printed hh-cebysev lower 0.364469045537996606 applies h as
  exp(-x) at the midpoint instead of exp(-1/x);
- criterion 5: the printed taylor-jensen(1) upper 9.0000428983186013 uses the
  wrong point and twice the factorial weight, and the printed lower
  9.0000428680640760 is the endpoint (upper) form.

The golden fixtures keep the printed values; ``verify`` reports them as known
discrepancies.
"""

from __future__ import annotations

import math
import time

import mpmath

from conftest import record_acceptance
from youngbounds import catalog as cat
from youngbounds.expr import evaluate, parse_expr
from youngbounds.report import sweep
from youngbounds.young import anchors, make_problem, oracle

INF = math.inf


def _sum_interval(inst, res, offset):
    lo, hi = res.target.sum_interval(res.lower, res.upper)
    return lo + offset, hi + offset


def _quartic():
    inst = make_problem("(x^4+1)^(1/4)-1", 3.0, 2.0, 3.0)
    return inst, anchors(inst)


def _exp_recip():
    inst = make_problem("exp(-1/x)", 0.5, 0.5)
    return inst, anchors(inst)


def _exp_squared():
    inst = make_problem("exp(x^2)-1", 1.0, 1.0, 1.0)
    return inst, anchors(inst)


# ---------------------------------------------------------------------------
# 1. Polya first-derivative golden, quartic
# ---------------------------------------------------------------------------

def test_criterion_01_polya_first_quartic_golden():
    start = time.perf_counter()
    inst, anch = _quartic()
    res = cat.bound_polya_first(inst, anch)
    lo, hi = _sum_interval(inst, res, 3.0)
    elapsed = time.perf_counter() - start
    ok = (abs(lo - 9.00004286765564673) <= 1e-12
          and abs(hi - 9.00004287010602764) <= 1e-12
          and elapsed < 1.0)
    record_acceptance(1, "polya-first quartic golden to 1e-12, under 1 s", ok)
    assert abs(lo - 9.00004286765564673) <= 1e-12, lo
    assert abs(hi - 9.00004287010602764) <= 1e-12, hi
    assert elapsed < 1.0, elapsed


# ---------------------------------------------------------------------------
# 2. Polya first-derivative goldens, exp(-1/x) and exp(x^2)-1
# ---------------------------------------------------------------------------

def test_criterion_02_polya_first_exp_goldens():
    inst2, anch2 = _exp_recip()
    res2 = cat.bound_polya_first(inst2, anch2)
    lo2, hi2 = _sum_interval(inst2, res2, 0.0)
    inst3, anch3 = _exp_squared()
    res3 = cat.bound_polya_first(inst3, anch3)
    lo3, hi3 = _sum_interval(inst3, res3, 1.0)
    ok = (abs(lo2 - 0.388457763460961578) <= 1e-12
          and abs(hi2 - 0.455309856619062079) <= 1e-12
          and abs(lo3 - 2.05281277502489567) <= 1e-12
          and abs(hi3 - 2.06746020503978898) <= 1e-12)
    record_acceptance(2, "polya-first exp(-1/x) and exp(x^2)-1 goldens to 1e-12", ok)
    assert abs(lo2 - 0.388457763460961578) <= 1e-12, lo2
    assert abs(hi2 - 0.455309856619062079) <= 1e-12, hi2
    assert abs(lo3 - 2.05281277502489567) <= 1e-12, lo3
    assert abs(hi3 - 2.06746020503978898) <= 1e-12, hi3


# ---------------------------------------------------------------------------
# 3. Hoorfar-Qi golden, quartic: closed forms and the 9 printed decimals
# ---------------------------------------------------------------------------

def test_criterion_03_hoorfar_qi_quartic_golden():
    inst, anch = _quartic()
    res = cat.bound_hoorfar_qi(inst, anch)
    lo, hi = _sum_interval(inst, res, 3.0)
    closed_lo = 4.0 * 125.0 ** 0.25 / 27.0 * (3.0 - 2.0 * 5.0 ** 0.25) ** 2 + 9.0
    closed_hi = 27.0 / (2.0 * 82.0 ** 0.75) * (3.0 - 2.0 * 5.0 ** 0.25) ** 2 + 9.0
    ok = (abs(lo - closed_lo) <= 1e-13 and abs(hi - closed_hi) <= 1e-13
          and abs(lo - 9.000042866) <= 1e-9 and abs(hi - 9.000042871) <= 1e-9)
    record_acceptance(3, "hoorfar-qi quartic closed forms and 9 printed decimals", ok)
    assert abs(lo - closed_lo) <= 1e-13, (lo, closed_lo)
    assert abs(hi - closed_hi) <= 1e-13, (hi, closed_hi)
    assert abs(lo - 9.000042866) <= 1e-9, lo
    assert abs(hi - 9.000042871) <= 1e-9, hi


# ---------------------------------------------------------------------------
# 4. Midpoint/trapezoid closed form, exp(-1/x) (reversal-logic exercise)
# ---------------------------------------------------------------------------

def _hh_cebysev_exp_recip_lower():
    """Midpoint SUM lower bound ab + (a-x0)*(h(m) - b) for h = exp(-1/x),
    a = b = 1/2, x0 = h^-1(b) = 1/ln 2 and m = (a+x0)/2, at 50 digits."""
    with mpmath.workdps(50):
        a = b = mpmath.mpf(1) / 2
        x0 = 1 / mpmath.log(2)
        m = (a + x0) / 2
        return float(a * b + (a - x0) * (mpmath.exp(-1 / m) - b))


def test_criterion_04_hh_cebysev_exp_recip_golden():
    inst, anch = _exp_recip()
    res = cat.bound_hh_cebysev(inst, anch)
    lo, hi = _sum_interval(inst, res, 0.0)
    # The closed-form lower is 0.384629725040405678... The printed reference
    # lower 0.364469045537996606 is ab + (a-x0)*(exp(-m) - b): h applied as
    # exp(-x) instead of exp(-1/x), a misprint that golden/
    # hh_cebysev_exp_recip.json keeps and annotates. The printed upper is the
    # trapezoid form ab + (a-x0)/2*(h(a) - b) and is correct.
    want_lo = _hh_cebysev_exp_recip_lower()
    lo_ok = abs(lo - want_lo) <= 1e-12
    hi_ok = abs(hi - 0.421883810040011829) <= 1e-12
    record_acceptance(4, "hh-cebysev exp(-1/x) closed form to 1e-12", lo_ok and hi_ok)
    assert lo_ok, (lo, want_lo)
    assert hi_ok, hi


# ---------------------------------------------------------------------------
# 5. Taylor-Jensen closed form, quartic, order 1
# ---------------------------------------------------------------------------

def _taylor_jensen_quartic_closed_form():
    """Order-1 remainder sandwich for h = (x^4+1)^(1/4) - 1, a = 3, b = 2.

    With x0 = h^-1(b) = 80^(1/4) and d = a - x0, the order-1 remainder is
    the integral of h''(t)*(a-t)^2/2 over [x0, a]; the weight has mass d^3/3!
    and mean (a+3*x0)/4, and h''(x) = 3x^2 (x^4+1)^(-7/4) is convex there.
    Jensen gives the midpoint form d^3/3! * h''((a+3*x0)/4) below, and the
    chord gives the endpoint form d^3/4! * (h''(a) + 3h''(x0)) above. The SUM
    values add base = ab + 3 + h'(x0)*d^2/2 (the 3 is the test's offset).
    Returns (native lower, native upper, SUM lower, SUM upper), at 50 digits.
    """
    with mpmath.workdps(50):
        a, b = mpmath.mpf(3), mpmath.mpf(2)
        x0 = mpmath.root(80, 4)
        d = a - x0

        def h1(x):
            return x ** 3 * (x ** 4 + 1) ** mpmath.mpf(-0.75)

        def h2(x):
            return 3 * x ** 2 * (x ** 4 + 1) ** mpmath.mpf(-1.75)

        base = a * b + 3 + h1(x0) * d ** 2 / 2
        mid = d ** 3 / 6 * h2((a + 3 * x0) / 4)
        end = d ** 3 / 24 * (h2(a) + 3 * h2(x0))
        return float(mid), float(end), float(base + mid), float(base + end)


def test_criterion_05_taylor_jensen_quartic_golden():
    inst, anch = _quartic()
    res = cat.bound_taylor_jensen(inst, anch, 1)
    lo, hi = _sum_interval(inst, res, 3.0)
    # Closed forms: SUM lower 9.0000428680640335..., upper 9.0000428680640760...
    # Both printed reference values are misprints that golden/
    # taylor_jensen_quartic.json keeps: the printed lower 9.0000428680640760 is
    # the endpoint (upper) form, and the printed upper 9.0000428983186013 is
    # base + d^3/3 * h''((3+380^(1/4))/4), the wrong point and twice the
    # factorial weight. The two sides differ by only 4.3e-14 in SUM, below the
    # 1e-12 tolerance, so the native remainder values are pinned as well.
    want_rem_lo, want_rem_hi, want_lo, want_hi = _taylor_jensen_quartic_closed_form()
    lo_ok = abs(lo - want_lo) <= 1e-12
    hi_ok = abs(hi - want_hi) <= 1e-12
    rem_lo_ok = abs(res.lower - want_rem_lo) <= 1e-9 * abs(want_rem_lo)
    rem_hi_ok = abs(res.upper - want_rem_hi) <= 1e-9 * abs(want_rem_hi)
    record_acceptance(5, "taylor-jensen(1) quartic closed form to 1e-12",
                      lo_ok and hi_ok and rem_lo_ok and rem_hi_ok)
    assert lo_ok, (lo, want_lo)
    assert hi_ok, (hi, want_hi)
    assert rem_lo_ok, (res.lower, want_rem_lo)
    assert rem_hi_ok, (res.upper, want_rem_hi)


# ---------------------------------------------------------------------------
# 6. Product midpoint/endpoint golden, exp(x^2)-1
# ---------------------------------------------------------------------------

def test_criterion_06_product_hh_exp_squared_golden():
    inst, anch = _exp_squared()
    res = cat.bound_taylor_product_hh(inst, anch, 1)
    lo, hi = _sum_interval(inst, res, 1.0)
    ok = abs(lo - 2.044751320) <= 1e-8 and abs(hi - 2.060536019) <= 1e-8
    record_acceptance(6, "taylor-product-hh(1) exp(x^2)-1 golden to 1e-8", ok)
    assert abs(lo - 2.044751320) <= 1e-8, lo
    assert abs(hi - 2.060536019) <= 1e-8, hi


# ---------------------------------------------------------------------------
# 7. Oracle containment in every golden interval
# ---------------------------------------------------------------------------

def test_criterion_07_oracle_containment():
    # Printed interval endpoints and the double-precision oracle each carry a
    # computational width around 1e-12, so containment is asserted with a
    # 1e-11 slack rather than as exact float ordering. Criteria 4 and 5 use
    # their closed forms, not the misprinted reference values.
    slack = 1e-11
    _, _, jensen_lo, jensen_hi = _taylor_jensen_quartic_closed_form()
    quartic, anch_q = _quartic()
    exp_recip, _ = _exp_recip()
    exp_squared, _ = _exp_squared()
    oracles = {
        "quartic": oracle(quartic).sum + 3.0,
        "exp_recip": oracle(exp_recip).sum + 0.0,
        "exp_squared": oracle(exp_squared).sum + 1.0,
    }
    intervals = [
        ("quartic", 9.00004286765564673, 9.00004287010602764),    # criterion 1
        ("exp_recip", 0.388457763460961578, 0.455309856619062079),  # criterion 2
        ("exp_squared", 2.05281277502489567, 2.06746020503978898),  # criterion 2
        ("quartic", 9.000042866, 9.000042871),                    # criterion 3
        ("exp_recip", _hh_cebysev_exp_recip_lower(), 0.421883810040011829),  # criterion 4
        ("quartic", jensen_lo, jensen_hi),                        # criterion 5
        ("exp_squared", 2.044751320, 2.060536019),                # criterion 6
    ]
    failures = [
        f"{key}: {oracles[key]!r} not in [{lo!r}, {hi!r}]"
        for key, lo, hi in intervals
        if not (lo - slack <= oracles[key] <= hi + slack)
    ]
    record_acceptance(7, "oracle inside every criterion interval", not failures)
    assert not failures, failures


# ---------------------------------------------------------------------------
# 8. Property sweep: sandwich, reductions, equality collapse
# ---------------------------------------------------------------------------

def test_criterion_08_property_sweep():
    start = time.perf_counter()
    summary = sweep(seed=42, count=100)
    elapsed = time.perf_counter() - start
    ok = summary.ok and elapsed < 60.0
    record_acceptance(
        8, f"sweep(42, 100): {summary.checks} checks, "
           f"{len(summary.violations)} violations, {elapsed:.1f}s", ok,
    )
    assert summary.ok, "\n".join(summary.violations)
    assert elapsed < 60.0, elapsed


# ---------------------------------------------------------------------------
# 9. Hand-arithmetic cubic fixture
# ---------------------------------------------------------------------------

def test_criterion_09_cubic_hand_fixture():
    inst = make_problem("x^3", 1.5, 1.0, 2.0)
    anch = anchors(inst)
    orc = oracle(inst, anch)
    checks: list[tuple[str, float, float]] = [("gap", orc.gap, 0.515625)]

    def both(name, res, lo, hi):
        checks.append((f"{name} lower", res.lower, lo))
        checks.append((f"{name} upper", res.upper, hi))

    both("hoorfar-qi", cat.bound_hoorfar_qi(inst, anch), 0.375, 0.84375)
    both("hh-cebysev", cat.bound_hh_cebysev(inst, anch), 0.4765625, 0.59375)
    both("jensen-first", cat.bound_jensen_first(inst, anch), 49.0 / 96.0, 0.53125)
    both("polya-first", cat.bound_polya_first(inst, anch),
         7.328125 / 7.5, 9.078125 / 7.5)
    both("taylor-lagrange(1)", cat.bound_taylor_lagrange(inst, anch, 1), 0.5, 0.5625)
    th = cat.bound_taylor_holder(inst, anch, 1, upper_pair=(1.0, INF))
    checks.append(("taylor-holder(1,1,inf) upper", th.upper, 0.1875))
    checks.append(("remainder(1) oracle", th.target.native_of_sum(orc.sum), 0.140625))
    checks.append(("taylor-cebysev(0) upper",
                   cat.bound_taylor_cebysev(inst, anch, 0).upper, 0.59375))
    checks.append(("taylor-cebysev(1) upper",
                   cat.bound_taylor_cebysev(inst, anch, 1).upper, 0.15625))
    lp = cat.bound_lp_remainder(inst, anch, 1, INF, t=1.25)
    checks.append(("lp-remainder tight upper", lp.upper, 0.046875))
    checks.append(("lp-remainder lhs", lp.target.native_of_sum(orc.sum), 0.0390625))

    failures = [f"{name}: {got!r} != {want!r}" for name, got, want in checks
                if abs(got - want) > 1e-12]

    # sandwich-only fixtures (no printed two-sided values)
    tj = cat.bound_taylor_jensen(inst, anch, 1)
    ph = cat.bound_taylor_product_hh(inst, anch, 1)
    p2 = cat.bound_polya_second(inst, anch)
    p3 = cat.bound_polya_higher(inst, anch, 1, t=1.25)
    for name, res, target_value in (
        ("taylor-jensen(1)", tj, 0.140625),
        ("taylor-product-hh(1)", ph, 0.140625),
        ("polya-second", p2, 3.046875),
        ("polya-higher(1)", p3, 1.015625),
    ):
        if not (res.lower - 1e-12 <= target_value <= res.upper + 1e-12):
            failures.append(f"{name}: {target_value} not in "
                            f"[{res.lower!r}, {res.upper!r}]")

    record_acceptance(9, "cubic hand-arithmetic fixture to 1e-12", not failures)
    assert not failures, failures


# ---------------------------------------------------------------------------
# 10. Case-table exhaustiveness over synthetic instances
# ---------------------------------------------------------------------------

# polynomial families with h(0) = 0, h' > 0 on (0, 1], and a prescribed sign
# for the derivative that drives each hypothesis
_MONO_FAMILY = {
    # (n, direction of h^(n+1)) -> expression
    (0, "increasing"): "x+x^2/2",       # h'' = 1
    (0, "decreasing"): "2*x-x^2/2",     # h'' = -1
    (1, "increasing"): "x+x^3/6",       # h''' = 1
    (1, "decreasing"): "x+x^2-x^3/3",   # h''' = -2
}
_CONVEX_FAMILY = {
    # (n, curvature of h^(n+1)) -> expression
    (0, "convex"): "x+x^3/3",           # h''' = 2
    (0, "concave"): "x+3*x^2/2-x^3",    # h''' = -6
    (1, "convex"): "x+x^4/12",          # h'''' = 2
    (1, "concave"): "x+x^3-x^4/12",     # h'''' = -2
}
_NONNEG_CONVEX_FAMILY = {0: "x+x^3/3", 1: "x+x^4/12"}


def _case_instance(expr_text: str, b_above: bool):
    ast = parse_expr(expr_text)
    a, tb = (0.3, 0.8) if b_above else (0.8, 0.3)
    inst = make_problem(ast, a, evaluate(ast, tb), 1.0)
    anch = anchors(inst)
    return inst, anch, oracle(inst, anch)


def _check_case(failures, label, res, orc, applicable_required=True):
    if applicable_required and not res.applicable:
        failures.append(f"{label}: expected the hypothesis gate to pass: "
                        f"{[d.observed for d in res.diagnostics]}")
        return
    native = res.target.native_of_sum(orc.sum)
    if res.target.absolute:
        if native > res.upper + 1e-9:
            failures.append(f"{label}: |native| {native!r} > upper {res.upper!r}")
        return
    if res.lower is not None and native < res.lower - 1e-9:
        failures.append(f"{label}: native {native!r} < lower {res.lower!r}")
    if res.upper is not None and native > res.upper + 1e-9:
        failures.append(f"{label}: native {native!r} > upper {res.upper!r}")


def test_criterion_10_case_table_exhaustiveness():
    failures: list[str] = []

    # anchor-value sandwich (monotone h^(n+1)): parity x direction x side of b
    for (n, direction), expr_text in _MONO_FAMILY.items():
        for b_above in (False, True):
            inst, anch, orc = _case_instance(expr_text, b_above)
            label = f"taylor-lagrange n={n} {direction} b_above={b_above}"
            _check_case(failures, label, cat.bound_taylor_lagrange(inst, anch, n), orc)

            label = f"taylor-cebysev n={n} {direction} b_above={b_above}"
            res = cat.bound_taylor_cebysev(inst, anch, n)
            _check_case(failures, label, res, orc)
            expected_side = cat._CEBYSEV_SIDE[(not b_above, direction, n % 2)]
            got_side = "upper" if res.upper is not None else "lower"
            if res.lower is not None and res.upper is not None:
                got_side = "both"  # flat direction collapses to equality
            elif got_side != expected_side:
                failures.append(f"{label}: bounded {got_side}, case table says "
                                f"{expected_side}")

    # convexity sandwich: parity x curvature x side of b
    for (n, curvature), expr_text in _CONVEX_FAMILY.items():
        for b_above in (False, True):
            inst, anch, orc = _case_instance(expr_text, b_above)
            label = f"taylor-jensen n={n} {curvature} b_above={b_above}"
            _check_case(failures, label, cat.bound_taylor_jensen(inst, anch, n), orc)

    # product bound: parity x side of b (nonnegative convex h^(n+1) only)
    for n, expr_text in _NONNEG_CONVEX_FAMILY.items():
        for b_above in (False, True):
            inst, anch, orc = _case_instance(expr_text, b_above)
            label = f"taylor-product-hh n={n} b_above={b_above}"
            _check_case(failures, label, cat.bound_taylor_product_hh(inst, anch, n), orc)

    # S-polynomial bound: parity x side of b
    for n, expr_text in ((1, "x+x^3/6"), (2, "exp(x)-1"), (1, "exp(x)-1"), (2, "x+x^4/12")):
        for b_above in (False, True):
            inst, anch, orc = _case_instance(expr_text, b_above)
            label = f"polya-higher n={n} {expr_text} b_above={b_above}"
            _check_case(failures, label, cat.bound_polya_higher(inst, anch, n), orc)

    record_acceptance(10, "case-table exhaustiveness over synthetic instances",
                      not failures)
    assert not failures, "\n".join(failures)
