"""Quadrature, inversion, extremum, and norm tests."""

from __future__ import annotations

import math
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_quadrature import reference_integrate, rows
from reference_scans import reference_extremum, reference_golden_min, scan_columns

from youngbounds import numerics
from youngbounds.errors import (
    DomainError,
    ExponentDomainError,
    NoConvergenceError,
    NotBracketedError,
)
from youngbounds.expr import evaluate, evaluate_rows, jet, parse_expr
from youngbounds.numerics import (
    EXTREMUM_SCAN_POINTS,
    NormSpec,
    _best_index,
    _gk15,
    _golden_min,
    extremum,
    integrate,
    interior_grid,
    invert,
    norm_r,
)


# ---------------------------------------------------------------------------
# Quadrature rule constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", range(0, 21))
def test_kronrod_rule_exact_on_monomials(k):
    # The 15-point rule integrates polynomials up to degree 22 exactly; this
    # guards the hard-coded node and weight constants against transcription.
    value, _ = _gk15(rows(lambda x: x ** k), 0.0, 1.0)
    assert value == pytest.approx(1.0 / (k + 1), rel=5e-14)


def test_embedded_gauss_error_vanishes_on_low_degree():
    # G7 is exact through degree 13, so the embedded discrepancy must be noise.
    _, err = _gk15(rows(lambda x: x ** 13 - 3.0 * x ** 7 + x), 0.0, 1.0)
    assert err < 1e-14


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_linear():
    r = integrate(rows(lambda x: x), 0.0, 1.0, 1e-12)
    assert r.value == pytest.approx(0.5, abs=1e-15)
    assert r.abs_error_estimate <= 1e-12


def test_integrate_cubic_closed_form():
    # antiderivative: (1.5^4 - 1)/4 = 1.015625
    r = integrate(rows(lambda x: x ** 3), 1.0, 1.5, 1e-12)
    assert r.value == pytest.approx(1.015625, abs=1e-14)


def test_integrate_reversed_orientation_is_signed():
    fwd = integrate(rows(lambda x: x ** 3), 1.0, 1.5, 1e-12)
    rev = integrate(rows(lambda x: x ** 3), 1.5, 1.0, 1e-12)
    assert rev.value == -fwd.value


def test_integrate_quartic_sum_lies_in_reference_interval():
    # value of int_0^3 (x^4+1)^(1/4) constrained through the companion
    # integral S = int_1^3 (x^4-1)^(1/4) computed by the same integrator
    f = lambda x: (x ** 4 + 1.0) ** 0.25
    g = lambda x: (x ** 4 - 1.0) ** 0.25
    iv = integrate(rows(f), 0.0, 3.0, 1e-13)
    s = integrate(rows(g), 1.0, 3.0, 1e-13)
    assert 9.00004286765564673 - s.value < iv.value < 9.00004287010602764 - s.value


def test_integrate_improper_left_endpoint():
    # exp(-1/x) is undefined at 0; interior-node rules make it integrable.
    h = parse_expr("exp(-1/x)")
    r = integrate(rows(lambda x: evaluate(h, x)), 0.0, 0.5, 1e-12)
    assert r.value == pytest.approx(0.018767130910245226, rel=1e-12)


def test_integrate_additivity_on_random_polynomials():
    rng = random.Random(1234)
    for _ in range(40):
        coeffs = [rng.uniform(-3, 3) for _ in range(rng.randint(2, 6))]
        f = lambda x, c=coeffs: sum(ci * x ** i for i, ci in enumerate(c))
        a, b, c = sorted(rng.uniform(-2, 2) for _ in range(3))
        r1 = integrate(rows(f), a, b, 1e-12)
        r2 = integrate(rows(f), b, c, 1e-12)
        r3 = integrate(rows(f), a, c, 1e-12)
        allowance = 10.0 * (r1.abs_error_estimate + r2.abs_error_estimate
                            + r3.abs_error_estimate) + 1e-13
        assert abs(r1.value + r2.value - r3.value) <= allowance


def test_integrate_budget_exhaustion():
    with pytest.raises(NoConvergenceError):
        integrate(rows(lambda x: math.sin(1.0 / (x + 1e-9)) if x > 0 else 0.0),
                  0.0, 1.0, 1e-13, max_evals=90)


def test_integrate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        integrate(rows(lambda x: x), 0.0, math.inf, 1e-12)
    with pytest.raises(ValueError):
        integrate(rows(lambda x: x), 0.0, 1.0, 1e-15)


def test_integrate_zero_width():
    r = integrate(rows(lambda x: x), 2.0, 2.0, 1e-12)
    assert r.value == 0.0 and r.evaluations == 0


def test_integrate_error_estimate_meets_tolerance_on_success():
    # the success contract: abs_error_estimate <= rel_tol * |value|
    for f, lo, hi in [
        (lambda x: math.exp(-1.0 / x) if x > 0 else 0.0, 0.0, 0.5),
        (lambda x: (x ** 4 + 1.0) ** 0.25, 0.0, 3.0),
        (lambda x: (x ** 4 - 1.0) ** 0.25, 1.0, 3.0),
    ]:
        r = integrate(rows(f), lo, hi, 1e-13)
        assert r.abs_error_estimate <= 1e-13 * abs(r.value)


def test_integrate_interior_singularity_refuses_dishonest_estimate():
    # |x - 0.3|^(-1/2) is integrable but the panel estimates at the interior
    # singularity never converge; the integrator must raise rather than
    # return an error estimate above the goal
    f = lambda x: abs(x - 0.3) ** -0.5 if x != 0.3 else 0.0
    with pytest.raises(NoConvergenceError):
        integrate(rows(f), 0.0, 1.0, 1e-13, max_evals=200_000)


def test_integrate_propagates_domain_errors():
    def f(x):
        raise DomainError("boom")
    with pytest.raises(DomainError):
        integrate(rows(f), 0.0, 1.0, 1e-12)


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared class and message
        return type(exc), str(exc)
    return "value", repr(value)


def _polynomial(coeffs):
    return lambda x: sum(c * x ** i for i, c in enumerate(coeffs))


# The sweep's four families, with its parameter ranges.
_FAMILY_TEXTS = st.one_of(
    st.floats(1.2, 5.0).map(lambda p: f"x^{p!r}"),
    st.floats(0.4, 1.6).map(lambda lam: f"exp({lam!r}*x)-1"),
    st.floats(0.3, 1.8).map(lambda lam: f"{lam!r}*ln(1+x)+x^2"),
    st.tuples(st.floats(0.4, 0.9), st.floats(1.1, 1.8)).map(
        lambda lp: f"exp({lp[0]!r}*x^{lp[1]!r})-1"),
)


@pytest.mark.workcount
@settings(max_examples=150, deadline=None)
@given(integrand=st.one_of(
           st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8).map(lambda cs: ("poly", cs)),
           _FAMILY_TEXTS.map(lambda text: ("text", text))),
       lo=st.sampled_from([0.0, 1e-300, 2.0]) | st.floats(0.0, 2.0),
       hi=st.sampled_from([0.0, 2.0]) | st.floats(0.0, 2.0),
       rel_tol=st.sampled_from([1e-14, 1e-12, 1e-8]))
def test_batch_integrate_matches_the_scalar_loop(integrand, lo, hi, rel_tol):
    # the same QuadratureResult repr as the scalar loop the batch form
    # replaced: each family through its evaluate kernel batch, each
    # polynomial through rows
    kind, spec = integrand
    if kind == "poly":
        f = _polynomial(spec)
        batch = rows(f)
    else:
        ast = parse_expr(spec)
        f = lambda x: evaluate(ast, x)
        batch = lambda xs: evaluate_rows(ast, xs)
    want = _outcome(reference_integrate, f, lo, hi, rel_tol)
    assert _outcome(integrate, batch, lo, hi, rel_tol) == want


_TINY = 1.0 + 2 * math.ulp(1.0)


@pytest.mark.workcount
@pytest.mark.parametrize("f,lo,hi,rel_tol,max_evals,message", [
    # an interior DomainError: the first failing node of the first panel,
    # through the evaluate kernel batch
    ("ln(x-0.3)", 0.0, 1.0, 1e-12, 10**6, "ln of nonpositive value -0.2"),
    ("sqrt(0.7-x)", 0.0, 1.0, 1e-12, 10**6, "sqrt of negative value -0.2"),
    # the budget runs out
    (lambda x: math.sin(1.0 / (x + 1e-9)) if x > 0 else 0.0, 0.0, 1.0, 1e-13, 90,
     "integration budget of 90 evaluations exhausted"),
    # roundoff-limited panels, in the loop and once every panel is at the floor
    (lambda x: abs(x - 0.3) ** -0.5 if x != 0.3 else 0.0, 0.0, 1.0, 1e-13, 200_000,
     "roundoff-limited panels alone carry error"),
    (lambda x: 1.0 if x > 1.0 else 0.0, 1.0, _TINY, 1e-12, 10**6,
     "roundoff-limited panels leave error estimate"),
], ids=["ln-interior", "sqrt-interior", "budget", "roundoff-in-loop", "roundoff-at-floor"])
def test_batch_integrate_fails_as_the_scalar_loop(f, lo, hi, rel_tol, max_evals, message):
    # the same error class and message as the scalar loop
    batch = rows(f)
    if isinstance(f, str):
        ast = parse_expr(f)
        f = lambda x: evaluate(ast, x)
        batch = lambda xs: evaluate_rows(ast, xs)
    got = _outcome(integrate, batch, lo, hi, rel_tol, max_evals)
    assert got[0] in (DomainError, NoConvergenceError) and got[1].startswith(message), got
    assert got == _outcome(reference_integrate, f, lo, hi, rel_tol, max_evals)


# ---------------------------------------------------------------------------
# invert
# ---------------------------------------------------------------------------

def test_invert_identity():
    assert invert(lambda x: x, 0.7, 0.0, 1.0, 1e-12) == pytest.approx(0.7, abs=1e-13)


def test_invert_quartic_with_newton():
    ast = parse_expr("(x^4+1)^(1/4)-1")
    h = lambda x: evaluate(ast, x)
    dh = lambda x: jet(ast, x, 1).derivs[1]
    x = invert(h, 2.0, 0.0, 3.0, 1e-12, dh=dh)
    assert x == pytest.approx(2.0 * 5.0 ** 0.25, rel=1e-15)


def test_invert_exp_squared():
    ast = parse_expr("exp(x^2)-1")
    h = lambda x: evaluate(ast, x)
    x = invert(h, 1.0, 0.0, 1.0, 1e-12, dh=lambda t: jet(ast, t, 1).derivs[1])
    assert x == pytest.approx(math.sqrt(math.log(2.0)), rel=1e-14)


def test_invert_guarded_endpoint():
    ast = parse_expr("exp(-1/x)")
    h = lambda x: evaluate(ast, x)
    x = invert(h, 0.5, 0.0, 2.0, 1e-12)  # h undefined at exactly 0
    assert x == pytest.approx(1.0 / math.log(2.0), rel=1e-13)


def test_invert_not_bracketed():
    with pytest.raises(NotBracketedError):
        invert(lambda x: x, 5.0, 0.0, 1.0, 1e-12)
    with pytest.raises(NotBracketedError):
        invert(lambda x: x, -1.0, 0.0, 1.0, 1e-12)


def test_invert_no_convergence_on_jump():
    # target value inside the jump of a discontinuous map: the bracket closes
    # to the width floor without meeting the residual tolerance
    step = lambda x: x + (1.0 if x > 0.5 else 0.0)
    with pytest.raises(NoConvergenceError):
        invert(step, 1.0, 0.0, 2.0, 1e-12)


def test_invert_apply_property():
    """|h(invert(h, y)) - y| <= rel_tol * max(1, |y|) over a random family."""
    rng = random.Random(99)
    rel_tol = 1e-12
    for _ in range(100):
        p = rng.uniform(1.2, 4.0)
        lam = rng.uniform(0.3, 2.0)
        h = lambda x, p=p, lam=lam: x ** p + lam * x
        hi = rng.uniform(0.5, 3.0)
        y = rng.uniform(0.0, 1.0) * h(hi)
        x = invert(h, y, 0.0, hi, rel_tol)
        assert abs(h(x) - y) <= rel_tol * max(1.0, abs(y))


# ---------------------------------------------------------------------------
# extremum
# ---------------------------------------------------------------------------

def test_extremum_parabola_max():
    _, (x, v) = extremum(lambda t: t * t, -1.0, 2.0)
    assert (x, v) == (2.0, 4.0)


def test_extremum_interior_min():
    # the abscissa of a smooth interior minimum is only determined to ~sqrt(eps)
    # by value comparisons; the extremal value itself is full precision
    (x, v), _ = extremum(lambda t: (t - 0.3) ** 2 + 1.0, 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert v == pytest.approx(1.0, abs=1e-15)


def test_extremum_exp_squared_derivative_max():
    ast = parse_expr("exp(x^2)-1")
    f = lambda t: jet(ast, t, 1).derivs[1]
    _, (x, v) = extremum(f, math.sqrt(math.log(2.0)), 1.0)
    assert x == 1.0
    assert v == pytest.approx(2.0 * math.e, rel=1e-15)


def test_extremum_exp_recip_derivative_min():
    ast = parse_expr("exp(-1/x)")
    f = lambda t: jet(ast, t, 1).derivs[1]
    (x, v), _ = extremum(f, 0.5, 1.0 / math.log(2.0))
    assert x == pytest.approx(1.0 / math.log(2.0), rel=1e-15)
    assert v == pytest.approx(math.log(2.0) ** 2 / 2.0, rel=1e-14)


def test_extremum_dominates_random_probes():
    f = lambda t: math.sin(3.0 * t) + 0.5 * t
    (_, fmin), (_, fmax) = extremum(f, 0.0, 4.0)
    rng = random.Random(5)
    for _ in range(1000):
        t = rng.uniform(0.0, 4.0)
        assert fmax >= f(t) - 1e-12 * abs(fmax)
        assert fmin <= f(t) + 1e-12 * abs(fmin)


def test_extremum_guarded_endpoints():
    ast = parse_expr("exp(-1/x)")
    f = lambda t: evaluate(ast, t)  # undefined at exactly 0
    (_, v_min), (_, v) = extremum(f, 0.0, 1.0)
    assert v == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert v_min == 0.0  # exp(-1/x) underflows near the guarded endpoint


def test_extremum_column_matches_pointwise_reads():
    # the interior grid and its values arrive in one column call, None where
    # f raises; f itself is then read only at the endpoints and in the
    # refinement
    def f(t):
        reads.append(t)
        if t == 0.0 or 0.3 < t < 0.4:
            raise DomainError("hole")
        return math.sin(7.0 * t) * t

    def column(n):
        columns.append(n)
        xs = interior_grid(0.0, 1.0, n)
        return xs, [None if t == 0.0 or 0.3 < t < 0.4 else math.sin(7.0 * t) * t for t in xs]

    reads: list[float] = []
    columns: list[int] = []
    pointwise = extremum(f, 0.0, 1.0)
    pointwise_reads = len(reads)
    reads.clear()
    assert extremum(f, 0.0, 1.0, column=column) == pointwise
    assert columns == [EXTREMUM_SCAN_POINTS - 2]
    assert pointwise_reads - len(reads) == EXTREMUM_SCAN_POINTS - 2


# Small values give ties, the specials give -0.0 against 0.0 and the order
# edges; one- and two-point scans are drawn too.
_SCAN_VALUES = st.lists(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan)) | st.floats(),
    min_size=1, max_size=12,
)


@pytest.mark.workcount
@settings(max_examples=500, deadline=None)
@given(values=_SCAN_VALUES, flip=st.sampled_from((1.0, -1.0)))
@example(values=[0.0, -0.0], flip=1.0)
@example(values=[-0.0, 0.0], flip=-1.0)
@example(values=[1.0, 1.0, 0.5, 0.5], flip=1.0)
@example(values=[1.0], flip=-1.0)
def test_best_index_is_the_flipped_key_minimum(values, flip):
    # the refine bracket's point, chosen with no Python key, is the one the
    # per-index key picks
    assert _best_index(values, flip) == min(range(len(values)), key=lambda i: flip * values[i])


def test_interior_grid():
    assert interior_grid(1.0, 2.0, 3) == [1.25, 1.5, 1.75]
    assert interior_grid(0.0, 1.0, 0) == []


def _scan_f(kind: str, lo: float, hi: float):
    """A scan's f on [lo, hi]: smooth, or raising DomainError at lo alone
    (read again just inside), near lo (the endpoint drops out) or at both
    ends."""
    width = hi - lo

    def f(x):
        near_lo = x <= lo + (1e-6 * width if kind in ("near-lo", "both") else 0.0)
        near_hi = kind == "both" and x >= hi - 1e-6 * width
        if kind != "smooth" and (near_lo or near_hi):
            raise DomainError(f"hole at {x!r}")
        return math.sin(7.0 * x) * x
    return f


# Catches an extremum that reads its column's values before it filters out
# the failed points, and so finds another best point or error than the scan
# that filters first: a None the TypeError path misses, a filter that drops
# an endpoint, a lone-None or two-point column that raises another error,
# or a check of "fewer than 2 points" that moved.
@pytest.mark.workcount
@settings(max_examples=400, deadline=None)
@given(values=scan_columns(), kind=st.sampled_from(("smooth", "lo", "near-lo", "both")),
       span=st.sampled_from(((0.0, 1.0), (-2.0, 3.0), (1.0, 1.0 + 1e-9))))
@example(values=[None], kind="both", span=(0.0, 1.0))
@example(values=[None], kind="lo", span=(0.0, 1.0))
@example(values=[1.0], kind="both", span=(0.0, 1.0))
@example(values=[None, 2.0], kind="both", span=(0.0, 1.0))
@example(values=[None, None], kind="near-lo", span=(0.0, 1.0))
@example(values=[math.nan, None, -0.0], kind="smooth", span=(0.0, 1.0))
def test_extremum_matches_the_filter_first_scan(values, kind, span):
    lo, hi = span
    f = _scan_f(kind, lo, hi)
    column = lambda n: (interior_grid(lo, hi, len(values)), list(values))
    want = _outcome(reference_extremum, f, lo, hi, column)
    assert _outcome(extremum, f, lo, hi, column) == want


@pytest.mark.workcount
@pytest.mark.parametrize("kind", ["smooth", "near-lo", "both"])
def test_extremum_without_a_column_matches_the_filter_first_scan(kind):
    # catches the same regressions on the column extremum builds itself,
    # with f raising on a band of its interior too
    def f(x):
        if 0.3 < x < 0.4:
            raise DomainError("band")
        return inner(x)
    inner = _scan_f(kind, 0.0, 1.0)
    assert _outcome(extremum, f, 0.0, 1.0) == _outcome(reference_extremum, f, 0.0, 1.0)


def _bits(xs) -> list[bytes]:
    return [struct.pack("<d", x) for x in xs]


_GRID_ENDS = st.sampled_from(
    (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, 1e300, -1e300, 1.7e308, -1.7e308)
) | st.floats(allow_nan=False)


# Catches a grid whose float steps round otherwise than the formula with
# integer i: a step or divisor that is not the exact int-to-float of i and
# n + 1, or a table that hands one n the steps of another.
@pytest.mark.workcount
@settings(max_examples=200, deadline=None)
@given(lo=_GRID_ENDS, hi=_GRID_ENDS, n=st.sampled_from((0, 1, 2, 7, 257, 1023, 1025, 1500)))
@example(lo=-0.0, hi=0.0, n=7)
@example(lo=-0.0, hi=5e-324, n=1023)
@example(lo=0.0, hi=1e-320, n=257)
@example(lo=-1e300, hi=1e300, n=1023)
@example(lo=1.0, hi=1.0 + 2.0 ** -52, n=2)
def test_interior_grid_is_the_integer_formula_bit_for_bit(lo, hi, n):
    want = [lo + (hi - lo) * i / (n + 1) for i in range(1, n + 1)]
    assert _bits(interior_grid(lo, hi, n)) == _bits(want)


@pytest.mark.workcount
def test_grid_steps_table_stays_within_its_bound():
    # catches a steps table that grows with every distinct n, or hands a
    # float n the entry of its equal int where the formula's range raises
    for n in range(300):
        interior_grid(0.0, 1.0, n)
    info = numerics._grid_steps.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize < 300
    with pytest.raises(TypeError):
        interior_grid(0.0, 1.0, 299.0)


def _piecewise_f(values, a: float, b: float):
    """The f that takes values[0], values[1], ... on equal pieces of [a, b]."""
    m = len(values)
    if not b > a:
        return lambda x: values[0]
    return lambda x: values[min(max(int(m * ((x - a) / (b - a))), 0), m - 1)]


# Catches a golden section whose inline flip * f(x) reads another value or
# sign than the wrapper lambda x: flip * f(x) it replaced, at -0.0 and nan
# too, or reads f at other points.
@pytest.mark.workcount
@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.sampled_from((0.0, -0.0, math.nan, 1.0, -1.0)) | st.floats(),
                       min_size=1, max_size=8),
       ab=st.sampled_from(((0.0, 1.0), (-3.0, -1.0), (1.0, 1.0 + 1e-12), (-0.0, 0.0))),
       flip=st.sampled_from((1.0, -1.0)))
@example(values=[-0.0, 1.0], ab=(0.0, 1.0), flip=1.0)
@example(values=[1.0, 0.0, -0.0], ab=(0.0, 1.0), flip=-1.0)
@example(values=[math.nan, 1.0], ab=(0.0, 1.0), flip=-1.0)
@example(values=[math.nan], ab=(0.0, 1.0), flip=-1.0)
@example(values=[0.0], ab=(0.0, 1.0), flip=-1.0)
def test_golden_min_reads_flip_times_f_bit_for_bit(values, ab, flip):
    a, b = ab
    f = _piecewise_f(values, a, b)
    reads, ref_reads = [], []
    got = _golden_min(lambda x: reads.append(x) or f(x), a, b, flip)
    want = reference_golden_min(lambda x: ref_reads.append(x) or flip * f(x), a, b)
    assert _bits(got) == _bits(want)
    assert _bits(reads) == _bits(ref_reads)


def test_extremum_needs_two_points():
    def nowhere(t):
        raise DomainError("nope")
    with pytest.raises(DomainError):
        extremum(nowhere, 0.0, 1.0)


# ---------------------------------------------------------------------------
# norm_r
# ---------------------------------------------------------------------------

def test_norm_constant_function():
    # (integral of 1^2 over [0,4])^(1/2) = 2
    assert norm_r(lambda t: 1.0, NormSpec(2.0, 0.0, 4.0)) == pytest.approx(2.0, rel=1e-13)


def test_norm_sup_of_increasing_derivative():
    f = lambda t: 3.0 * t * t
    assert norm_r(f, NormSpec(math.inf, 1.0, 1.5)) == pytest.approx(6.75, rel=1e-15)


def test_norm_one_telescopes():
    f = lambda t: 3.0 * t * t
    assert norm_r(f, NormSpec(1.0, 1.0, 1.5)) == pytest.approx(2.375, rel=1e-13)


def test_norm_minus_inf_is_infimum():
    f = lambda t: 3.0 * t * t
    assert norm_r(f, NormSpec(-math.inf, 1.0, 1.5)) == pytest.approx(3.0, rel=1e-15)


def test_norm_negative_exponent():
    # integral of t^-1 over [1, e] = 1, so the (-1)-norm of t is 1
    assert norm_r(lambda t: t, NormSpec(-1.0, 1.0, math.e)) == pytest.approx(1.0, rel=1e-12)


def test_norm_sup_of_increasing_function_is_right_endpoint_value():
    rng = random.Random(21)
    for _ in range(20):
        lam = rng.uniform(0.2, 2.0)
        f = lambda t, lam=lam: math.exp(lam * t)
        hi = rng.uniform(0.5, 2.0)
        got = norm_r(f, NormSpec(math.inf, 0.0, hi))
        assert got == pytest.approx(f(hi), rel=1e-10)


def test_norm_rejects_zero_exponent():
    with pytest.raises(ExponentDomainError):
        NormSpec(0.0, 0.0, 1.0)


def test_norm_sign_guard():
    # f dips negative on the interval: fractional and negative exponents must
    # refuse rather than return complex-valued garbage
    f = lambda t: t - 0.5
    with pytest.raises(DomainError):
        norm_r(f, NormSpec(0.5, 0.0, 1.0))
    with pytest.raises(DomainError):
        norm_r(f, NormSpec(-2.0, 0.0, 1.0))
