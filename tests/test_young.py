"""Problem validation, anchors, and the quadrature oracle."""

from __future__ import annotations

import dataclasses
import gc
import math
import random
import sys
import threading

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from youngbounds import expr, young
from youngbounds.errors import DomainError, ValidationError
from youngbounds.expr import evaluate, jet, parse_expr
from youngbounds.numerics import integrate, interior_grid
from youngbounds.young import (
    SCAN_POINTS,
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


@pytest.mark.parametrize("field,args", [
    ("a", ("x", True, 1.0, 1.0)),
    ("b", ("x", 1.0, True, 1.0)),
    ("c", ("x", 1.0, 0.5, True)),
    ("a", ("x", "1.0", 1.0, 1.0)),
    ("function", (5, 1.0, 1.0)),
    ("function", (["x"], 1.0, 1.0)),
    ("function", (None, 1.0, 1.0)),
], ids=["a-True-1.0-1.0", "b-1.0-True-1.0", "c-1.0-0.5-True", "a-1.0-1.0-1.0",
        "function-number", "function-list", "function-None"])
def test_make_problem_rejects_non_numbers(field, args):
    # a bool is an int to Python, but not a number of the problem; a function
    # that is neither text nor a parsed tree is no expression
    with pytest.raises(ValidationError) as err:
        make_problem(*args)
    assert err.value.field == field


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


def _reference_slope_scan(inst):
    """Validation's h' scan as a walk over every point, in order: the
    reference for the verdict ``_validate`` reads from the least and the
    greatest slope."""
    seen_positive = False
    xs = interior_grid(0.0, inst.c, SCAN_POINTS)
    for x, row in zip(xs, young.jet_rows(inst.ast, xs, 1)):
        try:
            d1 = row[1] if row is not None else inst.deriv(x, 1)
        except DomainError as exc:
            raise ValidationError("function", f"h' not evaluable at x={x!r}: {exc}")
        if d1 < -1e-12 * max(1.0, abs(d1)):
            raise ValidationError(
                "function", f"h'({x!r}) = {d1!r} < 0: h is not increasing on [0, c]"
            )
        if d1 > 0.0:
            seen_positive = True
    if not seen_positive:
        raise ValidationError("function", "h' vanishes at every scan point")


_BELOW_FLOOR = math.nextafter(-1e-12, -math.inf)


def _scan_outcomes(slopes):
    """(``_validate``'s outcome, the reference scan's) for h = x on [0, 1]
    with the h' scan's rows replaced: ``slopes`` gives h' at each scan point,
    None for a point whose jet fails."""
    assert len(slopes) == SCAN_POINTS
    inst = make_problem("x", 0.5, 0.5, 1.0)

    def rows(ast, xs, order):
        return [None if d1 is None else (x, d1) for x, d1 in zip(xs, slopes)]

    def no_jet(ast, x, order):
        raise DomainError(f"no jet at x={x!r}")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(young, "jet_rows", rows)
        patch.setattr(young, "jet", no_jet)
        return _outcome(young._validate, inst), _outcome(_reference_slope_scan, inst)


def _slopes(base, changes):
    slopes = [base] * SCAN_POINTS
    for i, d1 in changes.items():
        slopes[i] = d1
    return slopes


# (slope at every scan point, changed points, verdict): accepted, "vanishes",
# or the index of the point the error names
@pytest.mark.parametrize("base,changes,verdict", [
    (1.0, {7: -1e-12}, "accepted"),
    (1.0, {7: _BELOW_FLOOR}, 7),
    (1.0, {7: -1e-12, 9: _BELOW_FLOOR}, 9),
    (-0.0, {}, "vanishes"),
    (-0.0, {200: 1e-300}, "accepted"),
    (0.0, {}, "vanishes"),
    (0.0, {3: -1e-12, 4: -0.0}, "vanishes"),
    (1.0, {3: -1.5}, 3),
    (1.0, {10: None, 20: -1.0}, 10),
    (1.0, {10: -1.0, 20: None}, 10),
    (0.0, {256: None}, 256),
], ids=["floor", "below-floor", "floor-then-below", "negative-zeros", "one-tiny-slope",
        "zeros", "zeros-and-floor", "steep", "failed-then-negative", "negative-then-failed",
        "zeros-then-failed"])
def test_validation_verdict_matches_the_point_by_point_scan(base, changes, verdict):
    slopes = _slopes(base, changes)
    got, want = _scan_outcomes(slopes)
    assert got == want
    if verdict == "accepted":
        assert got == ("value", "None")
        return
    if verdict == "vanishes":
        message = "h' vanishes at every scan point"
    else:
        x, d1 = interior_grid(0.0, 1.0, SCAN_POINTS)[verdict], slopes[verdict]
        message = (f"h' not evaluable at x={x!r}: no jet at x={x!r}" if d1 is None
                   else f"h'({x!r}) = {d1!r} < 0: h is not increasing on [0, c]")
    assert got == (ValidationError, f"function: {message}")


_SLOPES = [1.0, 1e-300, 0.0, -0.0, -1e-12, _BELOW_FLOOR, -5e-13, -1.0, -1e-300, 2e300, None]


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from([1.0, 1e-300, 0.0, -0.0, -1e-12]),
       changes=st.dictionaries(st.integers(min_value=0, max_value=SCAN_POINTS - 1),
                               st.sampled_from(_SLOPES), max_size=4))
def test_random_validation_verdicts_match_the_point_by_point_scan(base, changes):
    got, want = _scan_outcomes(_slopes(base, changes))
    assert got == want


def test_make_problem_reuses_the_kernels_of_its_text(code_table, monkeypatch):
    # make_problem evaluates h and scans h' at order 1: two kernels, emitted
    # for the first instance of the text and called with the constants of
    # every later one, of this text or another of its shape
    emitted = []
    emit = expr._factory_source

    def counted(shape, order):
        emitted.append(order)
        return emit(shape, order)

    monkeypatch.setattr(expr, "_factory_source", counted)
    first = make_problem("x^3+0.5*x", 1.0, 0.5, 2.0)
    for text, a, b in (("x^3+0.5*x", 0.5, 1.0), ("x^3+2*x", 1.5, 1.5**3 + 3.0)):
        assert make_problem(text, a, b, 2.0).ast is not first.ast
    assert sorted(emitted, key=str) == [1, None]


def test_threads_building_one_text_get_identical_oracles(monkeypatch):
    # 8 threads parse one text, build its kernels from an empty code table
    # and run the oracle at once, switching every microsecond
    text = "exp(0.7*x^1.3)-1"
    want = repr(oracle(make_problem(text, 1.2, 0.9, 2.0)))
    monkeypatch.setattr(expr, "_code_table", expr._CodeTable())
    start = threading.Barrier(8)
    got: dict = {}

    def build(i):
        start.wait(timeout=60)
        inst = make_problem(text, 1.2, 0.9, 2.0)
        got[i] = repr(oracle(inst))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert list(got.values()) == [want] * 8


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
    assert first.profile is not second.profile
    # the profile shares its instance's tree and does not refer back to it
    assert first not in gc.get_referents(first.profile)
    assert first.profile.ast is first.ast and second.profile.ast is second.ast
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


def test_an_order_upgrade_keeps_the_abscissae(monkeypatch):
    # a grid read again at a higher order computes its rows again on the
    # abscissae its entry keeps, and a lower order reads them too
    calls = []

    def counted(lo, hi, n):
        calls.append((lo, hi, n))
        return interior_grid(lo, hi, n)

    monkeypatch.setattr(young, "interior_grid", counted)
    prof = ProblemInstance(parse_expr("exp(x)-1"), a=1.0, b=0.5, c=2.0).profile
    for k in (1, 3, 2, 5, 0):
        prof.column(0.0, 2.0, SCAN_POINTS, k)
    assert calls == [(0.0, 2.0, SCAN_POINTS)]


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
