"""Problem validation, anchors, and the quadrature oracle."""

from __future__ import annotations

import dataclasses
import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from youngbounds.errors import DomainError, ValidationError
from youngbounds.expr import evaluate, jet, parse_expr
from youngbounds.numerics import integrate, interior_grid
from youngbounds.young import (
    Options,
    ProblemInstance,
    anchors,
    make_problem,
    oracle,
    oracle_gap,
    oracle_sum,
)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_valid_identity_instance():
    inst = make_problem("x", 1.0, 1.0, 1.0)
    assert (inst.a, inst.b, inst.c) == (1.0, 1.0, 1.0)


def test_negative_a_rejected():
    with pytest.raises(ValidationError) as err:
        make_problem("x^2", -1.0, 0.0, 1.0)
    assert err.value.field == "a"


def test_b_above_range_rejected():
    with pytest.raises(ValidationError) as err:
        make_problem("x", 0.5, 2.0, 1.0)
    assert err.value.field == "b"


@pytest.mark.parametrize("kwargs", [
    {"quad_rel_tol": 1e-15},
    {"quad_rel_tol": 0.0},
    {"quad_rel_tol": 1.0},
    {"quad_rel_tol": math.inf},
    {"quad_rel_tol": math.nan},
    {"quad_rel_tol": "1e-12"},
    {"taylor_order": -1},
    {"taylor_order": 14},  # taylor-jensen(14) would need h^(17), past the jet cap
    {"taylor_order": 1.5},
    {"taylor_order": True},
    {"t_grid": 0},
    {"t_grid": -5},
    {"t_grid": 1001},  # polya-higher evaluates its bound at every grid point
    {"t_grid": 2.5},
    {"t_grid": True},
    {"upper_exponent_pairs": ()},
    {"lower_exponent_pairs": ()},
    {"upper_exponent_pairs": ((1.0,),)},
    {"lower_exponent_pairs": ((1.0, "-inf"),)},
    {"upper_exponent_pairs": [(1.0, math.inf)]},
], ids=lambda kw: f"{next(iter(kw))}={next(iter(kw.values()))}")
def test_options_out_of_range_rejected(kwargs):
    with pytest.raises(ValidationError) as err:
        Options(**kwargs)
    assert err.value.field == next(iter(kwargs))


def test_options_range_edges_accepted():
    Options(quad_rel_tol=1e-14, taylor_order=13, t_grid=1)
    Options(quad_rel_tol=0.5, taylor_order=0, t_grid=1000,
            upper_exponent_pairs=((2, 2),), lower_exponent_pairs=((1.0, -math.inf),))


def test_a_above_c_rejected():
    with pytest.raises(ValidationError) as err:
        make_problem("x", 2.0, 0.5, 1.0)
    assert err.value.field == "a"


def test_nonzero_origin_rejected():
    with pytest.raises(ValidationError) as err:
        make_problem("x^2+1", 0.5, 0.5, 1.0)
    assert err.value.field == "function"


def test_decreasing_function_rejected():
    with pytest.raises(ValidationError) as err:
        make_problem("x-x^2", 0.5, 0.2, 0.6)  # h' < 0 past x = 1/2
    assert err.value.field == "function"


# On c = 2 the h' scan samples x = 2i/258, so 1.0, 0.3333333333333333 and
# 1.937984496124031 are scan points; ((x - x0)^2)^(2/3) has no jet where x = x0.
_KINK = "(((x-{0})^2)^(2/3) - {0}^(4/3))"


@pytest.mark.parametrize("function,message", [
    ("x + 0.1*" + _KINK.format(1),
     "h' not evaluable at x=1.0: derivatives of 0.0^0.6666666666666666 are singular "
     "at a zero base"),
    ("x + 0.1*" + _KINK.format(1) + " + 0.1*" + _KINK.format(0.3333333333333333),
     "h' not evaluable at x=0.3333333333333333: derivatives of 0.0^0.6666666666666666 "
     "are singular at a zero base"),
    ("x - 0.3*x^2 + 0.01*" + _KINK.format(1.937984496124031),
     "h'(1.6589147286821706) = -0.004062010137012963 < 0: h is not increasing on [0, c]"),
], ids=["undefined", "first-undefined", "slope-before-undefined"])
def test_validation_names_the_first_failing_scan_point(function, message):
    with pytest.raises(ValidationError) as err:
        make_problem(function, 1.5, 0.5, 2.0)
    assert err.value.field == "function"
    assert str(err.value) == f"function: {message}"


def test_decreasing_function_message():
    with pytest.raises(ValidationError) as err:
        make_problem("x-x^2", 0.5, 0.2, 0.6)
    assert str(err.value) == (
        "function: h'(0.5023255813953488) = -0.0046511627906975495 < 0: "
        "h is not increasing on [0, c]"
    )


def test_limit_assumption_admits_exp_recip():
    # exp(-1/x) is undefined at 0 but has limit 0 there
    inst = make_problem("exp(-1/x)", 0.5, 0.5, 1.5)
    assert inst.h(0.0) == 0.0


def test_c_defaults_to_outer_anchor():
    inst = make_problem("exp(-1/x)", 0.5, 0.5)
    assert inst.c == pytest.approx(1.0 / math.log(2.0), rel=1e-14)
    inst2 = make_problem("x", 1.0, 0.25)
    assert inst2.c == 1.0  # a is the outer anchor here


def test_fractional_power_passes_origin_limit():
    # h(1e-6) = 1e-7.2 exceeds 1e-8 but the limit estimate uses the innermost
    # sample, so x^1.2 is admissible
    inst = make_problem("x^1.2", 0.5, 0.5, 1.0)
    assert inst.h(1e-10) < 1e-8


# ---------------------------------------------------------------------------
# Anchors
# ---------------------------------------------------------------------------

def test_anchors_identity():
    anch = anchors(make_problem("x", 0.3, 0.7, 1.0))
    assert anch.h_inv_b == pytest.approx(0.7, abs=1e-13)
    assert anch.alpha == pytest.approx(0.3)
    assert anch.beta == pytest.approx(0.7, abs=1e-13)
    assert anch.orientation == -1


def test_anchors_quartic():
    anch = anchors(make_problem("(x^4+1)^(1/4)-1", 3.0, 2.0, 3.0))
    assert anch.h_inv_b == pytest.approx(2.0 * 5.0 ** 0.25, rel=1e-15)
    assert anch.alpha == anch.h_inv_b and anch.beta == 3.0
    assert anch.orientation == 1


def test_anchors_exp_recip():
    anch = anchors(make_problem("exp(-1/x)", 0.5, 0.5))
    assert anch.h_inv_b == pytest.approx(1.0 / math.log(2.0), rel=1e-14)
    assert anch.alpha == 0.5


def test_anchors_b_zero():
    anch = anchors(make_problem("x^2", 1.0, 0.0, 1.0))
    assert anch.h_inv_b == 0.0 and anch.orientation == 1


def test_inverse_samples_h_by_its_limit_at_zero():
    # x + exp(-1/x) is undefined at 0; the inversion reads h(0) = 0, as
    # inst.h does, instead of nudging the endpoint to 1e-9*c, where h = 2e-9
    # already exceeds b
    inst = make_problem("x+exp(-1/x)", 1.0, 1e-10, 2.0)
    assert anchors(inst).h_inv_b == 1e-10
    assert make_problem("x+exp(-1/x)", 1e-10, 1e-10).c == 1e-10


def test_profile_is_not_part_of_the_instance_value():
    first = make_problem("x^2", 1.0, 0.5, 1.0)
    second = dataclasses.replace(first)
    assert first.profile is not second.profile and first.profile.inst is first
    assert second.profile.inst is second
    assert first == second and hash(first) == hash(second)
    assert "profile" not in repr(first)


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared class and message
        return type(exc), str(exc)
    return "value", repr(value)


# Functions whose jets fail at some abscissae: exp(-1/x) at 0 and where its
# derivatives underflow, x^2.5 and sqrt(x) at a zero base, ln(x) at 0; h = x
# keeps the sign of a zero abscissa in h(x).
_PROFILE_FUNCTIONS = ("exp(-1/x)", "x^2.5", "sqrt(x)", "(x^4+1)^(1/4)-1",
                      "x", "x^3+ln(x)", "x^1e300")
_PROFILE_POINTS = (0.0, -0.0, 1e-300, 1e-3, 0.0015, 0.5, 1.0, 1.0000001, 2.0, -1.0)


@settings(max_examples=200, deadline=None)
@given(text=st.sampled_from(_PROFILE_FUNCTIONS),
       reads=st.lists(st.tuples(st.sampled_from(_PROFILE_POINTS)
                                | st.floats(min_value=-0.5, max_value=3.0),
                                st.integers(min_value=0, max_value=6),
                                st.booleans()),
                      min_size=1, max_size=40))
@example(text="x", reads=[(0.0, 1, False), (-0.0, 1, True)])
def test_profile_reads_match_unshared_reads(text, reads):
    # any sequence of reads returns, or raises, what the instance itself gives
    inst = ProblemInstance(parse_expr(text), a=1.0, b=0.5, c=2.0)
    prof = inst.profile
    for x, k, whole in reads:
        if whole:
            got = _outcome(prof.derivs, x, k)
            want = _outcome(lambda x, k: jet(inst.ast, x, k).derivs, x, k)
        else:
            got, want = _outcome(prof.deriv, x, k), _outcome(inst.deriv, x, k)
        assert got == want, (text, x, k, whole)


_PROFILE_BOUNDS = st.sampled_from(_PROFILE_POINTS) | st.floats(min_value=-0.5, max_value=3.0)


@settings(max_examples=200, deadline=None)
@given(text=st.sampled_from(_PROFILE_FUNCTIONS),
       reads=st.lists(st.tuples(_PROFILE_BOUNDS, _PROFILE_BOUNDS,
                                st.integers(min_value=1, max_value=6),
                                st.integers(min_value=0, max_value=6),
                                st.integers(min_value=0, max_value=6)),
                      min_size=1, max_size=12))
@example(text="x", reads=[(-0.0, 0.0, 2, 2, 0), (0.0, -0.0, 2, 1, 0)])
# the order-2 jet of exp(-1/x) fails at 1e-120 and 2e-120 (1/x^3 overflows),
# the order-1 jet does not
@example(text="exp(-1/x)", reads=[(0.0, 3e-120, 2, 1, 2), (0.0, 3e-120, 2, 2, 0),
                                  (0.0, 3e-120, 2, 1, 0), (0.0, 3e-120, 2, 3, 0)])
def test_profile_column_reads_match_unshared_reads(text, reads):
    # a grid column is deriv at each abscissa of the grid, None where it
    # raises DomainError, whatever order the grid's rows were kept at, and
    # later point reads still match the instance
    inst = ProblemInstance(parse_expr(text), a=1.0, b=0.5, c=2.0)
    prof = inst.profile
    for lo, hi, n, k, fill in reads:
        xs = interior_grid(lo, hi, n)
        want = [_outcome(inst.deriv, x, k) for x in xs]
        got = prof.column(lo, hi, n, k, fill)
        assert [("value", repr(v)) if v is not None else DomainError for v in got] == [
            w if w[0] == "value" else w[0] for w in want], (text, lo, hi, n, k, fill)
        for x in xs:
            assert _outcome(prof.derivs, x, k) == _outcome(
                lambda x, k: jet(inst.ast, x, k).derivs, x, k), (text, x, k)


def test_failed_column_miss_leaves_no_entry():
    # a grid read keeps no point row; a point read where the grid's jet
    # failed raises what the instance raises
    inst = ProblemInstance(parse_expr("x^2.5"), a=1.0, b=0.5, c=2.0)
    prof = inst.profile
    assert prof.column(-1.0, 1.0, 3, 2) == [None, None, inst.deriv(0.5, 2)]  # -0.5, 0, 0.5
    assert prof._jets == {}
    with pytest.raises(DomainError) as got:
        prof.deriv(0.0, 2)
    with pytest.raises(DomainError) as want:
        inst.deriv(0.0, 2)
    assert str(got.value) == str(want.value)
    assert prof._jets == {}
    # a point read again at a lower order is not kept: the grid keeps the
    # rows of its one batch, at its one order
    prof = ProblemInstance(parse_expr("exp(-1/x)"), a=1.0, b=0.5, c=2.0).profile
    assert prof.column(0.0, 3e-120, 2, 1, fill=2) == [0.0, 0.0]
    assert prof._grids == {(0.0, 3e-120, 2): (2, interior_grid(0.0, 3e-120, 2), [None, None])}
    assert prof._jets == {}


def test_memo_remembers_a_typed_failure():
    prof = ProblemInstance(parse_expr("x^3"), a=1.0, b=0.5, c=2.0).profile
    calls = []

    def fails(error):
        def compute():
            calls.append(error)
            raise error
        return compute

    first = ValidationError("t", "out of range")
    with pytest.raises(ValidationError) as got:
        prof.memo(("k", 1), fails(first))
    assert got.value is first
    for _ in range(2):  # a new error of the same class, message and field
        with pytest.raises(ValidationError) as again:
            prof.memo(("k", 1), fails(first))
        assert again.value is not first and again.traceback[-1].name == "memo"
        assert (str(again.value), again.value.field) == ("t: out of range", "t")
    assert calls == [first]
    # an untyped failure leaves no entry, and a later success is kept
    with pytest.raises(ZeroDivisionError):
        prof.memo(("k", 2), fails(ZeroDivisionError("x")))
    assert prof.memo(("k", 2), lambda: 2.5) == 2.5
    assert prof.memo(("k", 2), fails(ZeroDivisionError("x"))) == 2.5
    assert len(calls) == 2


def test_column_orders_fail_as_deriv_does():
    # the grid [0.5] kept at order 3 serves no bad order, with or without fill
    prof = ProblemInstance(parse_expr("x^3"), a=1.0, b=0.5, c=2.0).profile
    prof.column(0.0, 1.0, 1, 3)
    for fill in (0, 2):
        for k in (-1, 17):
            assert _outcome(prof.column, 0.0, 1.0, 1, k, fill) == _outcome(prof.deriv, 0.5, k)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def test_oracle_equality_case():
    assert oracle_gap(make_problem("x", 0.6, 0.6, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_oracle_cubic_closed_form():
    inst = make_problem("x^3", 1.5, 1.0, 2.0)
    # C = int_1^1.5 x^3 - 1.5 + 1 = 1.015625 - 0.5
    assert oracle_gap(inst) == pytest.approx(0.515625, abs=1e-13)
    assert oracle_sum(inst) == pytest.approx(2.015625, abs=1e-13)


def test_oracle_quartic_inside_reference_interval():
    inst = make_problem("(x^4+1)^(1/4)-1", 3.0, 2.0, 3.0)
    printed = oracle_sum(inst) + 3.0
    assert 9.00004286765564673 < printed < 9.00004287010602764


def test_oracle_exp_squared_inside_reference_interval():
    inst = make_problem("exp(x^2)-1", 1.0, 1.0, 1.0)
    printed = oracle_sum(inst) + 1.0
    assert 2.05281277502489567 < printed < 2.06746020503978898


def test_oracle_paths_agree():
    inst = make_problem("exp(-1/x)", 0.5, 0.5)
    res = oracle(inst)
    assert res.path_delta <= max(20.0 * res.abs_error_estimate, 1e-13)
    assert res.gap == pytest.approx(0.3974381739713332 - 0.25, rel=1e-11)


def test_oracle_orientation_symmetry():
    # same code path regardless of which anchor is larger: the reflected
    # instance swaps a and h^{-1}(b) and must give the mirrored area
    fwd = make_problem("x^3", 1.5, 1.0, 2.0)      # a > h^{-1}(b)
    rev = make_problem("x^3", 1.0, 3.375, 2.0)    # a < h^{-1}(b)
    assert oracle_gap(fwd) == pytest.approx(0.515625, abs=1e-12)
    assert oracle_gap(rev) == pytest.approx(0.671875, abs=1e-12)


def test_oracle_nonnegative_on_random_family():
    rng = random.Random(7)
    for _ in range(25):
        p = round(rng.uniform(1.2, 4.0), 3)
        c = round(rng.uniform(0.5, 2.0), 3)
        a = rng.uniform(0.1, 1.0) * c
        ast = parse_expr(f"x^{p}")
        b = evaluate(ast, rng.uniform(0.1, 1.0) * c)
        gap = oracle_gap(make_problem(ast, a, b, c))
        assert gap >= -1e-10


def test_oracle_equality_clause_on_family():
    rng = random.Random(8)
    for _ in range(10):
        p = round(rng.uniform(1.2, 4.0), 3)
        a = rng.uniform(0.2, 0.9)
        ast = parse_expr(f"x^{p}")
        b = evaluate(ast, a)
        assert abs(oracle_gap(make_problem(ast, a, b, 1.0))) <= 1e-9


def test_oracle_equality_clause_lowest_family_exponent():
    ast = parse_expr("x^1.2")
    a = 0.7
    b = evaluate(ast, a)
    assert abs(oracle_gap(make_problem(ast, a, b, 1.0))) <= 1e-9


def test_oracle_by_parts_matches_pointwise_inversion():
    # the inverse integral over [0, b] by pointwise inversion at 30 digits
    # (mpmath) against the oracle's by-parts b*h^{-1}(b) - integral(h, 0, h^{-1}(b))
    inst = make_problem("exp(x^2)-1", 1.0, 1.0, 1.0)
    anch = anchors(inst)
    with mpmath.workdps(30):
        h = lambda x: mpmath.expm1(x * x)
        # verify=False: findroot's residual test asks for less than h's rounding
        h_inv = lambda y: mpmath.findroot(
            lambda x: h(x) - y, (0, 1), solver="anderson", verify=False)
        inverse_integral = mpmath.quad(h_inv, [0, inst.b])
        total = float(mpmath.quad(h, [0, inst.a]) + inverse_integral)
    q_0bp = integrate(inst.h, 0.0, anch.h_inv_b, inst.options.quad_rel_tol)
    by_parts = inst.b * anch.h_inv_b - q_0bp.value
    assert by_parts == pytest.approx(float(inverse_integral), rel=1e-13)
    assert oracle(inst, anch).sum == pytest.approx(total, rel=1e-13)
