"""Problem validation, anchors, and the quadrature oracle."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import random
import sys
import threading
import tracemalloc
from collections import Counter
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import EMIT, POINT_JET, TOKENIZE, patched
from reference_quadrature import rows

from youngbounds import expr, report, young
from youngbounds.errors import DomainError, ValidationError, YoungBoundsError
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
    reference for the verdict ``_check_domain`` reads from the least and the
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
    """(``_check_domain``'s outcome, the reference scan's) for h = x on [0, 1]
    with the h' scan's rows replaced: ``slopes`` gives h' at each scan point,
    None for a point whose jet fails."""
    assert len(slopes) == SCAN_POINTS
    inst = make_problem("x", 0.5, 0.5, 1.0)

    def rows(ast, xs, order):
        return [None if d1 is None else (x, d1) for x, d1 in zip(xs, slopes)]

    def no_jet(ast, x, order):
        raise DomainError(f"no jet at x={x!r}")

    with patched(expr.jet_rows, rows), patched(POINT_JET, no_jet):
        return _outcome(young._check_domain, inst), _outcome(_reference_slope_scan, inst)


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
@pytest.mark.workcount
def test_validation_verdict_matches_the_point_by_point_scan(base, changes, verdict):
    # validation's two-reduction verdict and message against the walk over
    # every point of the h' scan: fails when either changes
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


@pytest.mark.workcount
@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from([1.0, 1e-300, 0.0, -0.0, -1e-12]),
       changes=st.dictionaries(st.integers(min_value=0, max_value=SCAN_POINTS - 1),
                               st.sampled_from(_SLOPES), max_size=4))
def test_random_validation_verdicts_match_the_point_by_point_scan(base, changes):
    # as above, on drawn slopes: fails when a verdict or message changes
    got, want = _scan_outcomes(_slopes(base, changes))
    assert got == want


@pytest.mark.workcount
def test_make_problem_reuses_the_kernels_of_its_text(code_table, domain_table, spy):
    # make_problem evaluates h and scans h' at order 1: two kernels, emitted
    # for the first instance of the text and called with the constants of
    # every later one, of this text or another of its shape
    emissions = spy(EMIT)
    first = make_problem("x^3+0.5*x", 1.0, 0.5, 2.0)
    for text, a, b in (("x^3+0.5*x", 0.5, 1.0), ("x^3+2*x", 1.5, 1.5**3 + 3.0)):
        assert make_problem(text, a, b, 2.0).ast is not first.ast
    emitted = [call.order for call in emissions]
    assert sorted(emitted, key=str) == [1, None]


@pytest.mark.workcount
def test_threads_building_one_text_get_identical_oracles(domain_table, monkeypatch):
    # 8 threads parse one text, build its kernels from an empty code table
    # and run the oracle at once, switching every microsecond: fails when
    # racing threads see different oracles
    text = "exp(0.7*x^1.3)-1"
    want = repr(oracle(make_problem(parse_expr(text), 1.2, 0.9, 2.0)))
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


def _work(tokenized, kernel_runs) -> Counter:
    """Tokenizations (key "tokenize", from a spy of TOKENIZE) and kernel
    evaluations by jet order (None: evaluate), zero counts left out."""
    return kernel_runs.evaluations() + Counter(tokenize=len(tokenized))


@pytest.mark.workcount
def test_a_second_instance_of_a_text_and_c_skips_the_parse_and_the_domain_check(
        domain_table, kernel_runs, spy):
    # the first make_problem of (text, c) parses the text and scans h' at 257
    # points; later ones, at any a and b, an int c included, build a fresh
    # tree on the kept root and only compare b with the kept h(c)
    text = "x^3+0.5*x"
    tokenized = spy(TOKENIZE)
    first = make_problem(text, 1.0, 0.5, 2.0)
    work = _work(tokenized, kernel_runs)
    assert work["tokenize"] == 1 and work[1] == SCAN_POINTS
    assert domain_table.get((text, 2.0)) == (first.ast.root, 9.0)
    assert domain_table.chars == len(text) + young._ENTRY_CHARS
    tree = parse_expr(text)
    tokenized.clear()
    kernel_runs.clear()
    for a, b, c in ((0.5, 1.0, 2.0), (1.5, 9.0, 2)):
        inst = make_problem(text, a, b, c)
        assert inst == ProblemInstance(tree, float(a), float(b), 2.0)
        assert inst.ast is not first.ast and inst.ast.root is first.ast.root
        assert inst.ast.source == text and inst.ast._kernels == {}
    work = _work(tokenized, kernel_runs)
    assert work == {}
    # a b above the kept h(c) fails as a cold b test does
    with pytest.raises(ValidationError, match=r"^b: must be <= h\(c\) = 9.0, got 9.5$"):
        make_problem(text, 1.0, 9.5, 2.0)
    work = _work(tokenized, kernel_runs)
    assert work == {}


@pytest.mark.workcount
def test_a_second_instance_with_c_omitted_skips_the_domain_check(domain_table, kernel_runs, spy):
    # with c omitted the text is parsed to default c, and the table is read
    # for that c: a second call parses again, but runs no h' scan of (0, c)
    text = "x^2.5"
    tokenized = spy(TOKENIZE)
    first = make_problem(text, 1.0, 0.5)
    cold = _work(tokenized, kernel_runs)
    assert domain_table.get((text, first.c)) == (first.ast.root, 1.0)
    tokenized.clear()
    kernel_runs.clear()
    assert make_problem(text, 1.0, 0.5) == first
    work = _work(tokenized, kernel_runs)
    assert work["tokenize"] == cold["tokenize"] == 1
    assert cold[1] - work[1] == SCAN_POINTS


def test_b_above_h_of_c_is_rejected_at_any_scale():
    # b = 500 h(c): an absolute 1e-12 slack in the b test admitted it, and
    # the report then read a collapsed "b = h(a)" row
    with pytest.raises(ValidationError) as err:
        make_problem("1e-15*x", 1.0, 5e-13, 1.0)
    assert str(err.value) == "b: must be <= h(c) = 1e-15, got 5e-13"
    make_problem("1e-15*x", 1.0, 1e-15 * (1.0 + 1e-9), 1.0)


@pytest.mark.parametrize("text", ["x^2+1", "x-x^2"])
def test_the_b_test_fails_first(domain_table, text):
    # b and the domain check both fail: the error names b, as validation in
    # its order does, and nothing is kept
    for _ in range(2):
        with pytest.raises(ValidationError) as err:
            make_problem(text, 0.5, 5.0, 1.0)
        assert err.value.field == "b"
    assert not domain_table._entries


# Texts for the table: a member of each sweep family with drawn parameters,
# and texts that fail to parse, at 0, in the h' scan or only on some c.
_FAMILY_TEXTS = (
    st.floats(1.2, 5.0).map(lambda p: f"x^{p!r}"),
    st.floats(0.4, 1.6).map(lambda lam: f"exp({lam!r}*x)-1"),
    st.floats(0.3, 1.8).map(lambda lam: f"{lam!r}*ln(1+x)+x^2"),
    st.tuples(st.floats(0.4, 0.9), st.floats(1.1, 1.8)).map(
        lambda lp: f"exp({lp[0]!r}*x^{lp[1]!r})-1"),
)
_INVALID_TEXTS = ("x+$", "2^x", "x^2+1", "x-x^2", "ln(x)", "1-exp(-x)-x^3", "0*x",
                  "1e-15*x", "exp(-1/x)", "x+0.1*((x-1)^2)^(2/3)", "sqrt(x)-x")


@pytest.mark.workcount
@settings(max_examples=150, deadline=None)
@given(text=st.one_of(*_FAMILY_TEXTS, st.sampled_from(_INVALID_TEXTS)),
       c=st.sampled_from([0.5, 1, 2.0, 1.5, 0.0, -1.0, None]) | st.floats(1e-3, 5.0),
       a_share=st.sampled_from([0.0, 1.0, 1.5]) | st.floats(0.0, 1.2),
       b_share=st.sampled_from([0.0, 1.0, 1.0 + 5e-10, 1.0 + 2e-9, 500.0]) | st.floats(0.0, 2.0))
def test_outcomes_do_not_depend_on_the_domain_table(text, c, a_share, b_share):
    # make_problem(text, a, b, c) with an empty table and with one that has
    # seen (text, c) at a = b = 0 and at (a, b) itself: the same instance, or
    # the same error class and message, b-test failures on a kept pair too
    scale = 1.0 if c is None else c
    try:
        hc = young._h_at_c(ProblemInstance(parse_expr(text), 0.0, 0.0, float(scale)))
    except YoungBoundsError:
        hc = 1.0
    args = (text, a_share * scale, b_share * hc, c)
    table = lambda: expr._LruTable(young._DOMAIN_TABLE_CHARS)
    with mock.patch.object(young, "_domain_table", table()):
        cold = _outcome(make_problem, *args)
    with mock.patch.object(young, "_domain_table", table()) as warm:
        valid = _outcome(make_problem, text, 0.0, 0.0, c)[0] == "value"
        _outcome(make_problem, *args)
        assert _outcome(make_problem, *args) == cold
    if valid and c is not None:
        assert warm.get((text, c)) is not None  # so the last call read the table


@pytest.mark.workcount
def test_threads_sharing_the_domain_table_get_identical_oracles(code_table, domain_table):
    # 8 threads build instances of one (text, c) at once from empty tables,
    # switching every microsecond: the first of each thread races the others
    # to parse and keep the pair, the rest read what is kept
    text, c = "exp(0.7*x^1.3)-1", 2.0
    queries = [(1.2, 0.9), (0.4, 2.5), (1.9, 0.1)]
    ast = parse_expr(text)
    want = [repr(oracle(make_problem(ast, a, b, c))) for a, b in queries]
    start = threading.Barrier(8)
    got: dict = {}

    def build(i):
        start.wait(timeout=60)
        got[i] = [repr(oracle(make_problem(text, a, b, c))) for a, b in queries]

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
    assert len(domain_table._entries) == 1


@pytest.mark.workcount
def test_the_domain_table_stays_within_its_character_bound(domain_table, monkeypatch):
    # 100k distinct texts, kept as make_problem keeps them: the table keeps
    # the most recent ones within the bound, and holds under 4 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(100_000):
            text = f"{k}*x"
            domain_table.put((text, 1.5), (parse_expr(text).root, 1.5 * k),
                             len(text) + young._ENTRY_CHARS)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert young._DOMAIN_TABLE_CHARS - 40 <= domain_table.chars <= young._DOMAIN_TABLE_CHARS
    assert domain_table.chars == sum(size for _, size in domain_table._entries.values())
    assert held < 4_000_000, held
    # an entry larger than the bound is not kept and evicts nothing, and an
    # instance of its text is built and validated as any other
    small = expr._LruTable(200)
    monkeypatch.setattr(young, "_domain_table", small)
    make_problem("x^2", 0.5, 0.1, 1.0)
    kept = dict(small._entries)
    assert list(kept) == [("x^2", 1.0)] and small.chars == 3 + young._ENTRY_CHARS
    long_text = "x" + "+0.5*x" * 40
    inst = make_problem(long_text, 1.0, 1.0, 1.0)
    assert inst.ast == parse_expr(long_text) and inst.h(1.0) == 21.0
    assert small._entries == kept and small.chars == 3 + young._ENTRY_CHARS


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


def test_h_rows_reads_h_point_by_point_where_the_batch_fails():
    # exp(-1/x) is undefined at 0, where the h(0+) = 0 rule stands in: the
    # batch reads h point by point, and raises what h raises elsewhere
    inst = ProblemInstance(parse_expr("exp(-1/x)"), 0.5, 0.1, 1.0)
    xs = [0.25, 0.0, -0.0, 1e-300, 0.75]
    assert repr(inst.h_rows(xs)) == repr([inst.h(x) for x in xs])
    assert inst.h_rows(xs)[1:3] == [0.0, 0.0]
    for xs in ([0.25, -1e-300, 0.0], [0.0, -1e-300]):
        with pytest.raises(DomainError, match=r"^overflow in exp\(9\.999999999999999e\+299\)$"):
            inst.h_rows(xs)
    assert inst.h_rows([0.5, 0.75]) == [inst.h(0.5), inst.h(0.75)]


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


@pytest.mark.workcount
@settings(max_examples=200, deadline=None)
@given(text=st.sampled_from(_PROFILE_FUNCTIONS),
       reads=st.lists(st.tuples(st.sampled_from(_PROFILE_POINTS)
                                | st.floats(min_value=-0.5, max_value=3.0),
                                st.integers(min_value=0, max_value=6),
                                st.booleans()),
                      min_size=1, max_size=40))
@example(text="x", reads=[(0.0, 1, False), (-0.0, 1, True)])
def test_profile_reads_match_unshared_reads(text, reads):
    # the instance's point reads return, or raise, what jet gives, and h
    # itself, with its h(0+) = 0 rule, at k = 0; the profile keeps none
    inst = ProblemInstance(parse_expr(text), a=1.0, b=0.5, c=2.0)
    for x, k, whole in reads:
        if whole:
            got = _outcome(inst.derivs, x, k)
            want = _outcome(lambda x, k: jet(inst.ast, x, k).derivs, x, k)
        else:
            got = _outcome(inst.deriv, x, k)
            want = _outcome(lambda x, k: inst.h(x) if k == 0 else jet(inst.ast, x, k).derivs[k],
                            x, k)
        assert got == want, (text, x, k, whole)
    assert inst.profile._grids == {} and inst.profile._memo == {}


_PROFILE_BOUNDS = st.sampled_from(_PROFILE_POINTS) | st.floats(min_value=-0.5, max_value=3.0)


@pytest.mark.workcount
@settings(max_examples=200, deadline=None)
@given(text=st.sampled_from(_PROFILE_FUNCTIONS),
       reads=st.lists(st.tuples(_PROFILE_BOUNDS, _PROFILE_BOUNDS,
                                st.integers(min_value=1, max_value=6),
                                st.integers(min_value=1, max_value=6),
                                st.integers(min_value=0, max_value=6)),
                      min_size=1, max_size=12))
@example(text="x", reads=[(-0.0, 0.0, 2, 2, 0), (0.0, -0.0, 2, 1, 0)])
# the order-2 jet of exp(-1/x) fails at 1e-120 and 2e-120 (1/x^3 overflows),
# the order-1 jet does not
@example(text="exp(-1/x)", reads=[(0.0, 3e-120, 2, 1, 2), (0.0, 3e-120, 2, 2, 0),
                                  (0.0, 3e-120, 2, 1, 0), (0.0, 3e-120, 2, 3, 0)])
def test_profile_column_reads_match_unshared_reads(text, reads):
    # a grid column is the grid's abscissae and deriv at each, None where it
    # raises DomainError, whatever order the grid's rows were kept at
    inst = ProblemInstance(parse_expr(text), a=1.0, b=0.5, c=2.0)
    prof = inst.profile
    for lo, hi, n, k, fill in reads:
        xs = interior_grid(lo, hi, n)
        want = [_outcome(inst.deriv, x, k) for x in xs]
        got_xs, got = prof.column(lo, hi, n, k, fill)
        assert repr(got_xs) == repr(xs), (text, lo, hi, n)
        assert [("value", repr(v)) if v is not None else DomainError for v in got] == [
            w if w[0] == "value" else w[0] for w in want], (text, lo, hi, n, k, fill)


@pytest.mark.workcount
def test_an_order_upgrade_keeps_the_abscissae(spy):
    # a grid read again at a higher order computes its rows again on the
    # abscissae its entry keeps, and a lower order reads them too; fails
    # when a grid's abscissae are built twice
    grids = spy(interior_grid)
    prof = ProblemInstance(parse_expr("exp(x)-1"), a=1.0, b=0.5, c=2.0).profile
    for k in (1, 3, 2, 5, 0):
        prof.column(0.0, 2.0, SCAN_POINTS, k)
    calls = [(call.lo, call.hi, call.n) for call in grids]
    assert calls == [(0.0, 2.0, SCAN_POINTS)]


@pytest.mark.workcount
def test_failed_column_miss_leaves_no_entry():
    # a grid read keeps its one batch and nothing else: a point where the
    # grid's jet failed is None, and its instance read raises
    inst = ProblemInstance(parse_expr("x^2.5"), a=1.0, b=0.5, c=2.0)
    prof = inst.profile
    assert prof.column(-1.0, 1.0, 3, 2) == ([-0.5, 0.0, 0.5], [None, None, inst.deriv(0.5, 2)])
    rows = [None, None, inst.derivs(0.5, 2)]
    assert prof._grids == {(-1.0, 1.0, 3): (2, [-0.5, 0.0, 0.5], rows)}
    with pytest.raises(DomainError):
        inst.deriv(0.0, 2)
    # a point read again at a lower order is not kept: the grid keeps the
    # rows of its one batch, at its one order
    prof = ProblemInstance(parse_expr("exp(-1/x)"), a=1.0, b=0.5, c=2.0).profile
    xs = interior_grid(0.0, 3e-120, 2)
    assert prof.column(0.0, 3e-120, 2, 1, fill=2) == (xs, [0.0, 0.0])
    assert prof._grids == {(0.0, 3e-120, 2): (2, xs, [None, None])}
    assert prof._memo == {}


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


@pytest.mark.workcount
def test_column_orders_fail_as_deriv_does():
    # the grid [0.5] kept at order 3 serves no bad order, with or without
    # fill, and keeps its entry; the orders 1..3 it serves read its rows
    inst = ProblemInstance(parse_expr("x^3"), a=1.0, b=0.5, c=2.0)
    prof = inst.profile
    prof.column(0.0, 1.0, 1, 3)
    entry = prof._grids[0.0, 1.0, 1]
    for fill in (0, 2):
        for k in (-1, 17):
            assert _outcome(prof.column, 0.0, 1.0, 1, k, fill) == _outcome(inst.deriv, 0.5, k)
    assert prof._grids == {(0.0, 1.0, 1): entry}
    for k in (1, 2, 3):
        assert prof.column(0.0, 1.0, 1, k) == ([0.5], [inst.deriv(0.5, k)])
    assert prof._grids[0.0, 1.0, 1] is entry


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
    q_0bp = integrate(rows(inst.h), 0.0, anch.h_inv_b, inst.options.quad_rel_tol)
    by_parts = inst.b * anch.h_inv_b - q_0bp.value
    assert by_parts == pytest.approx(float(inverse_integral), rel=1e-13)
    assert oracle(inst, anch).sum == pytest.approx(total, rel=1e-13)


# sha256 of the OracleResult reprs of _pinned_oracles(200), recorded before
# the quadrature read its panels in batches, on glibc 2.36's libm (Debian
# 12, x86-64); another libm may round exp, log or pow differently.
_ORACLES_200_SHA256 = "562decd440b5bb022ad55f950587020a1d15c03fe67669aed1fac6ae1769ecce"


def _pinned_oracles(count: int) -> tuple[list[str], set, set, int]:
    """The oracle's repr on ``count`` instances of the sweep's random family
    (seed 2023), with the families, orientations and ties they cover."""
    rng = random.Random(2023)
    reprs, families, orientations, ties = [], set(), set(), 0
    for _ in range(count):
        params = report._random_instance(rng)
        ast = parse_expr(params["function"])
        x_b = params["a"] if params["tie_b_to_a"] else params["t_b"] * params["c"]
        inst = make_problem(ast, params["a"], evaluate(ast, x_b), params["c"])
        anch = anchors(inst)
        reprs.append(repr(oracle(inst, anch)))
        text = params["function"]
        families.add(("ln" in text, "exp" in text, "x^" in text))
        orientations.add(anch.orientation)
        ties += params["tie_b_to_a"]
    return reprs, families, orientations, ties


@pytest.mark.workcount
def test_oracle_results_are_pinned():
    """Every OracleResult (gap, sum, error estimate, evaluations and path
    residual) on 200 random instances, pinned by digest: a change to the
    quadrature's nodes, weights or order of float operations shows here."""
    reprs, families, orientations, ties = _pinned_oracles(200)
    assert len(families) == 4 and {-1, 1} <= orientations and ties >= 20
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == _ORACLES_200_SHA256
