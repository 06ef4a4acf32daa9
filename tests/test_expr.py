"""Expression parsing, evaluation, serialization round-trips, and jets."""

from __future__ import annotations

import gc
import inspect
import math
import pickle
import sys
import threading
import time
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import EMIT, POINT_JET, TOKENIZE, spied
from reference_expr import _eval_node, _jet_node

from youngbounds import expr, sweep
from youngbounds.errors import (
    DomainError,
    ExprSyntaxError,
    OrderCapError,
    UnsupportedFeatureError,
)
from youngbounds.expr import (
    MAX_DEPTH,
    MAX_NESTING,
    BinOp,
    Call,
    Const,
    ExprAst,
    Neg,
    Pow,
    Var,
    evaluate,
    evaluate_rows,
    jet,
    jet_rows,
    parse_expr,
    serialize,
)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_variable():
    assert parse_expr("x").root == Var()


def test_parse_quartic_root_shape():
    ast = parse_expr("(x^4+1)^(1/4)-1")
    root = ast.root
    assert isinstance(root, BinOp) and root.op == "-"
    assert isinstance(root.left, Pow)
    assert root.left.exponent == 0.25
    inner = root.left.base
    assert isinstance(inner, BinOp) and inner.op == "+"
    assert inner.left == Pow(Var(), 4.0)


def test_parse_exp_squared():
    ast = parse_expr("exp(x^2)-1")
    root = ast.root
    assert isinstance(root, BinOp) and root.op == "-"
    assert root.left == Call("exp", Pow(Var(), 2.0))


def test_parse_named_constants_and_scientific():
    assert parse_expr("e").root == Const(math.e)
    assert parse_expr("pi").root == Const(math.pi)
    assert parse_expr("2.5e-3").root == Const(2.5e-3)


def test_parse_power_right_associative():
    # x^2^3 must parse as x^(2^3) = x^8
    assert parse_expr("x^2^3").root == Pow(Var(), 8.0)


@pytest.mark.parametrize("text,offset", [
    ("", 0),
    ("   ", 0),
    ("x +", 3),
    ("(x", 2),
    ("x)", 1),
    ("foo(x)", 0),
    ("1..2", 0),
    ("x $ 2", 2),
])
def test_parse_errors_carry_offset(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text)
    assert err.value.offset == offset


@pytest.mark.parametrize("text,offset", [
    ("(" * 200 + "x" + ")" * 200, MAX_NESTING),
    ("+".join(["x"] * 3000), 2 * MAX_DEPTH - 1),
    ("-" * 200 + "x", MAX_NESTING),
    ("x" + "^1" * 200, 2 * MAX_NESTING),
    ("exp(" * 200 + "x" + ")" * 200, 4 * MAX_NESTING),
], ids=["parentheses", "left-chain", "signs", "exponents", "calls"])
def test_parse_rejects_deep_nesting(text, offset):
    # each would overflow the stack in the parser or in a later tree walk
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text)
    assert err.value.offset == offset


def test_parse_rejects_deep_tree_inside_shallow_nesting():
    # each limit alone is kept, but the calls stack on top of the chain
    text = "exp(" * 90 + "+".join(["x"] * 150) + ")" * 90
    with pytest.raises(ExprSyntaxError, match=f"tree deeper than {MAX_DEPTH}") as err:
        parse_expr(text)
    assert text[err.value.offset:].startswith("exp(")


_CHAIN = "+".join(["x"] * MAX_DEPTH)  # a left chain MAX_DEPTH deep, 2 * MAX_DEPTH - 1 chars


@pytest.mark.parametrize("text,offset", [
    ("*".join(["x"] * (MAX_DEPTH + 1)), 2 * MAX_DEPTH - 1),  # at the last '*'
    ("-(" + _CHAIN + ")", 0),  # at the sign
    ("(" + _CHAIN + ")^2", 2 * MAX_DEPTH + 1),  # at the '^'
], ids=["product-chain", "sign", "power"])
def test_parse_rejects_one_level_past_max_depth(text, offset):
    # each tree is MAX_DEPTH + 1 deep within MAX_NESTING, so the tree depth
    # check of a product chain, a sign or a power is what rejects it
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text)
    assert err.value.offset == offset
    assert str(err.value) == f"expression tree deeper than {MAX_DEPTH} levels (offset {offset})"


def test_parse_accepts_the_depth_limits():
    ast = parse_expr("+".join(["x"] * MAX_DEPTH))  # a left chain MAX_DEPTH deep
    assert parse_expr(serialize(ast)) == ast
    assert jet(ast, 0.5, 2).derivs == (MAX_DEPTH / 2, float(MAX_DEPTH), 0.0)
    nested = "(" * (MAX_NESTING - 1) + "x" + ")" * (MAX_NESTING - 1)
    assert evaluate(parse_expr(nested), 2.0) == 2.0


def test_long_polynomial_parses():
    # a flat sum is a left chain as deep as it is long
    ast = parse_expr("1+" + "+".join(f"x^{k}" for k in range(1, 150)))
    assert evaluate(ast, 0.0) == 1.0
    assert jet(ast, 0.0, 3).derivs == (1.0, 1.0, 2.0, 6.0)


def test_deepest_trees_survive_every_walk():
    """Trees at both limits, walked with 250 frames already on the stack."""
    deepest = [
        parse_expr("sqrt(" * (MAX_NESTING - 1) + "x" + ")" * (MAX_NESTING - 1)),
        parse_expr("sqrt(" * 50 + "+".join(["x"] * (MAX_DEPTH - 50)) + ")" * 50),
    ]

    def walk(frames, ast):
        if frames:
            return walk(frames - 1, ast)
        hash(ast)
        repr(ast)
        pickle.dumps(ast.root)
        assert parse_expr(serialize(ast)) == ast
        for order in (None, 2):
            expr._compile(ast.root, order)
        _jet_node(ast.root, 0.5, 2)

    for ast in deepest:
        walk(250, ast)


def test_nonconstant_exponent_rejected():
    with pytest.raises(UnsupportedFeatureError):
        parse_expr("2^x")
    with pytest.raises(UnsupportedFeatureError):
        parse_expr("x^(x+1)")


def test_constant_exponent_expression_is_folded():
    assert parse_expr("x^(3/2-1)").root == Pow(Var(), 0.5)


def test_exponent_that_folds_badly_is_unsupported():
    with pytest.raises(UnsupportedFeatureError):
        parse_expr("x^(1/0)")
    with pytest.raises(UnsupportedFeatureError):
        parse_expr("x^ln(-1)")


@pytest.mark.workcount
def test_a_parse_error_is_raised_on_every_call(spy):
    # fails when a parse failure or a tree is kept and served again
    tokenize_calls = spy(TOKENIZE)
    errors, trees = [], []
    for _ in range(3):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("x+$")
        errors.append(err.value)
        with pytest.raises(UnsupportedFeatureError):
            parse_expr("2^x")
        trees.append(parse_expr("x+1"))
    # nothing is kept between parses, a failure or a tree
    tokenized = [call.text for call in tokenize_calls]
    assert tokenized == ["x+$", "2^x", "x+1"] * 3
    assert trees[0] == trees[1] == trees[2] and trees[0] is not trees[1]
    assert len({id(e) for e in errors}) == 3
    assert {(str(e), e.offset) for e in errors} == {(str(errors[0]), 2)}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_eval_square():
    assert evaluate(parse_expr("x^2"), 3.0) == 9.0


def test_eval_quartic_value():
    got = evaluate(parse_expr("(x^4+1)^(1/4)-1"), 3.0)
    assert got == pytest.approx(82.0 ** 0.25 - 1.0, rel=1e-15)


@pytest.mark.parametrize("text,x", [
    ("exp(-1/x)", 0.0),       # division by zero at the endpoint
    ("ln(x)", 0.0),
    ("ln(x-2)", 1.0),
    ("sqrt(x)", -1.0),
    ("x^(-1)", 0.0),
    ("x^0.5", -2.0),
    ("x^(-0.5)", 0.0),
])
def test_eval_domain_errors(text, x):
    with pytest.raises(DomainError):
        evaluate(parse_expr(text), x)


def test_eval_overflow_is_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse_expr("exp(x)"), 1e9)


# ---------------------------------------------------------------------------
# Serialization round-trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "x",
    "1+2*x",
    "x-(1-x)",
    "x*(x+1)",
    "x/(x+1)/2",
    "-x^2",
    "(-x)^2",
    "(x^2)^3",
    "x^(-2)",
    "x^0.25",
    "exp(-1/x)",
    "(x^4+1)^(1/4)-1",
    "exp(x^2)-1",
    "2*ln(1+x)+sqrt(x+1)",
    "1.25e2*x-3.5E-1",
])
def test_roundtrip_fixed_cases(text):
    ast = parse_expr(text)
    assert parse_expr(serialize(ast)) == ast


def _trees(max_depth: int):
    leaf = st.one_of(
        st.just(Var()),
        st.builds(Const, st.floats(min_value=0.0, max_value=100.0,
                                   allow_nan=False, allow_infinity=False)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from("+-*/"), children, children),
            st.builds(Pow, children,
                      st.sampled_from([2.0, 3.0, 4.0, 0.5, 0.25, -1.0, -2.0, 1.5])),
            st.builds(Call, st.sampled_from(["exp", "ln", "sqrt"]), children),
        )

    return st.recursive(leaf, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_trees(4))
def test_roundtrip_random_trees(tree):
    text = serialize(tree)
    assert parse_expr(text).root == tree


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

def test_jet_identity():
    assert jet(parse_expr("x"), 7.5, 3).derivs == (7.5, 1.0, 0.0, 0.0)


def test_jet_exp_squared_first_derivative():
    j = jet(parse_expr("exp(x^2)-1"), 1.0, 1)
    assert j.derivs[1] == pytest.approx(2.0 * math.e, rel=1e-15)


def test_jet_quartic_first_derivative():
    j = jet(parse_expr("(x^4+1)^(1/4)-1"), 3.0, 1)
    assert j.derivs[1] == pytest.approx(27.0 / 82.0 ** 0.75, rel=1e-14)


def test_jet_order_cap():
    with pytest.raises(OrderCapError):
        jet(parse_expr("x^2"), 1.0, 17)
    with pytest.raises(OrderCapError):
        jet(parse_expr("x^2"), 1.0, -1)


def test_jet_singular_base():
    with pytest.raises(DomainError):
        jet(parse_expr("sqrt(x)"), 0.0, 1)


def test_jet_integer_power_at_zero_base():
    # inner x^4 at x0 = 0 must work through the integer-power path
    j = jet(parse_expr("(x^4+1)^(1/4)"), 0.0, 2)
    assert j.derivs[0] == 1.0
    assert j.derivs[1] == pytest.approx(0.0, abs=1e-15)


# A family of expressions with comfortable real domains for the derivative
# cross-checks below.
_SMOOTH_FAMILY = [
    ("x^3+2*x", 0.2, 2.5),
    ("exp(0.5*x)-1", 0.1, 2.0),
    ("ln(x+2)", -1.0, 3.0),
    ("sqrt(x^2+1)", -2.0, 2.0),
    ("(x^2+1)^(1/3)", -2.0, 2.0),
    ("x^2/(x^2+1)+x", 0.1, 2.0),
    ("x^2.5", 0.3, 2.0),
    ("exp(-1/x)", 0.4, 2.0),
    ("2*ln(1+x)+x^2", 0.1, 2.0),
]


@pytest.mark.parametrize("text,lo,hi", _SMOOTH_FAMILY)
@settings(max_examples=25, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_jet_order_zero_matches_eval(text, lo, hi, u):
    x0 = lo + (hi - lo) * u
    ast = parse_expr(text)
    j = jet(ast, x0, 4)
    assert j.derivs[0] == pytest.approx(evaluate(ast, x0), rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("text,lo,hi", _SMOOTH_FAMILY)
def test_jet_first_derivative_matches_central_difference(text, lo, hi):
    """Independent first-derivative oracle: plain central difference of eval."""
    ast = parse_expr(text)
    for u in (0.17, 0.5, 0.83):
        x0 = lo + (hi - lo) * u
        step = 1e-5 * max(1.0, abs(x0))
        fd = (evaluate(ast, x0 + step) - evaluate(ast, x0 - step)) / (2.0 * step)
        d1 = jet(ast, x0, 1).derivs[1]
        assert d1 == pytest.approx(fd, rel=1e-6, abs=1e-9)


def _mp_eval(node, x):
    """Independent high-precision tree walk (mpmath), for derivative oracles."""
    if isinstance(node, Const):
        return mpmath.mpf(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_mp_eval(node.child, x)
    if isinstance(node, BinOp):
        a, b = _mp_eval(node.left, x), _mp_eval(node.right, x)
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[node.op]
    if isinstance(node, Pow):
        return _mp_eval(node.base, x) ** mpmath.mpf(node.exponent)
    if isinstance(node, Call):
        fn = {"exp": mpmath.exp, "ln": mpmath.log, "sqrt": mpmath.sqrt}[node.func]
        return fn(_mp_eval(node.arg, x))
    raise TypeError(node)


@pytest.mark.parametrize("text,lo,hi", _SMOOTH_FAMILY)
def test_jet_matches_high_precision_derivatives(text, lo, hi):
    """Orders 0..4 against 40-digit numerical differentiation of an
    independent evaluator. Plain double-precision differences cannot resolve
    orders >= 3 at 1e-6, so the oracle works in extended precision."""
    ast = parse_expr(text)
    with mpmath.workdps(40):
        for u in (0.21, 0.55, 0.9):
            x0 = lo + (hi - lo) * u
            j = jet(ast, x0, 4)
            for k in range(5):
                want = float(mpmath.diff(lambda t: _mp_eval(ast.root, t),
                                         mpmath.mpf(x0), k))
                assert j.derivs[k] == pytest.approx(want, rel=1e-6, abs=1e-9), (
                    f"{text} order {k} at x0={x0}"
                )


def test_jet_all_orders_of_power():
    # x^5 at 2: derivatives 5!/(5-k)! * 2^(5-k)
    j = jet(parse_expr("x^5"), 2.0, 6)
    want = [32.0, 80.0, 160.0, 240.0, 240.0, 120.0, 0.0]
    assert list(j.derivs) == pytest.approx(want, rel=1e-13)


def test_jet_overflow_is_domain_error():
    # math.pow overflows in the power rule; fsum overflows in a product;
    # fsum meets inf - inf in a product
    with pytest.raises(DomainError):
        jet(parse_expr("x^200.5"), 100.0, 1)
    with pytest.raises(DomainError):
        jet(parse_expr("1e308*x*x"), 1.0, 1)
    with pytest.raises(DomainError):
        jet(parse_expr("(1e308*x)*(1e308*(2-x))"), 1.0, 1)


# ---------------------------------------------------------------------------
# Compiled kernels against the reference tree walkers
# ---------------------------------------------------------------------------

def _reference_evaluate(ast, x):
    value = _eval_node(ast.root, x)
    if not math.isfinite(value):
        raise DomainError(f"non-finite result {value!r} at x={x!r}")
    return value


def _reference_jet(ast, x0, order):
    if not 0 <= order <= expr.DEFAULT_ORDER_CAP:
        raise OrderCapError(f"order {order} outside [0, {expr.DEFAULT_ORDER_CAP}]")
    coeffs = _jet_node(ast.root, x0, order)
    derivs = tuple(c * math.factorial(k) for k, c in enumerate(coeffs))
    for k, v in enumerate(derivs):
        if not math.isfinite(v):
            raise DomainError(f"non-finite derivative of order {k} at x={x0!r}")
    return expr.TaylorJet(center=x0, order=order, derivs=derivs)


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared class and message
        return type(exc), str(exc)
    return "value", repr(getattr(value, "derivs", value))


_EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, 1e300, 1e308, 710.0]


def _any_trees():
    """Trees over all six node kinds, with signed zeros, huge constants and
    exponents that take every branch of the power rule."""
    leaf = st.one_of(
        st.just(Var()),
        st.builds(Const, st.sampled_from(_EDGE_FLOATS)
                  | st.floats(min_value=-100.0, max_value=100.0)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from("+-*/"), children, children),
            st.builds(Pow, children, st.sampled_from(
                [0.0, -0.0, 1.0, 2.0, 3.0, 5.0, 13.0, -1.0, -2.0, 0.5, -0.5, 1.5, 200.5,
                 1 / 3, -2 / 3, 300.0, -1000.0])),
            st.builds(Call, st.sampled_from(["exp", "ln", "sqrt"]), children),
        )

    return st.recursive(leaf, extend, max_leaves=10)


def _half_non_finite(finite, min_size: int, max_size: int):
    """Lists of abscissae of which every second one is inf, -inf or nan: a
    fixed share, so that the random trees meet non-finite abscissae in every
    example. A reciprocal at inf has a finite value and a nan derivative,
    which a kernel that drops ``0.0 * inf`` misses."""
    pairs = st.lists(st.tuples(finite, st.sampled_from([math.inf, -math.inf, math.nan])),
                     min_size=min_size, max_size=max_size)
    return pairs.map(lambda ps: [x for pair in ps for x in pair])


def _half_reciprocals():
    """:func:`_any_trees`, half of them as the reciprocal of such a tree,
    which is finite at an abscissa where the tree overflows."""
    trees = _any_trees()
    return st.one_of(trees, trees.map(lambda tree: Pow(tree, -1.0)))


def _assert_runs_as_walkers(tree, xs, orders) -> None:
    """The kernels of ``tree`` (order None: evaluate) give at each of ``xs``
    what the walkers give."""
    ast = ExprAst(tree, serialize(tree))
    for x in xs:
        for order in orders:
            if order is None:
                got, want = _outcome(evaluate, ast, x), _outcome(_reference_evaluate, ast, x)
            else:
                got, want = _outcome(jet, ast, x, order), _outcome(_reference_jet, ast, x, order)
            if order is not None and want[0] in (OverflowError, ValueError):
                # the jet walkers leak fsum's and math.pow's bare errors
                assert got[0] is DomainError, (want, got)
            else:
                assert got == want, (serialize(tree), x, order)


@settings(max_examples=300, deadline=None)
@given(tree=_half_reciprocals(),
       xs=_half_non_finite(st.sampled_from(_EDGE_FLOATS + [-3.3, 100.0])
                           | st.floats(min_value=-5.0, max_value=5.0), 1, 2))
def test_kernels_match_reference_walkers(tree, xs):
    _assert_runs_as_walkers(tree, xs, (None, *range(7)))


@settings(max_examples=300, deadline=None)
@given(tree=_any_trees(),
       xs=st.lists(st.sampled_from(_EDGE_FLOATS + [-3.3, 100.0])
                   | st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=3))
def test_jet_derivatives_do_not_depend_on_the_order_taken(tree, xs):
    # A jet's derivatives 0..k are the same bits at every order m > k at which
    # the jet succeeds; the derivative profile serves low orders from high ones.
    ast = ExprAst(tree, serialize(tree))
    for x in xs:
        for m in range(1, 7):
            try:
                full = jet(ast, x, m).derivs
            except DomainError:
                continue
            for k in range(m):
                assert repr(jet(ast, x, k).derivs) == repr(full[:k + 1]), (serialize(tree), x, k, m)


# abscissae where jets fail (zero bases, ln at 0, exp and pow overflowing) or
# keep the sign of zero
_BATCH_FLOATS = _EDGE_FLOATS + [-3.3, 100.0, 1e-200, -1e300, math.inf, -math.inf, math.nan]


@settings(max_examples=300, deadline=None)
@given(tree=_half_reciprocals(),
       xs=_half_non_finite(st.sampled_from(_BATCH_FLOATS)
                           | st.floats(min_value=-5.0, max_value=5.0), 0, 4),
       order=st.integers(min_value=0, max_value=6))
def test_jet_rows_match_jet(tree, xs, order):
    # each row is jet's derivatives, bit for bit, and None exactly where jet
    # raises DomainError; and what the reference walkers give
    ast = ExprAst(tree, serialize(tree))
    rows = jet_rows(ast, xs, order)
    assert len(rows) == len(xs)
    assert repr(rows) == repr(_reference_jet_rows(ast, xs, order)), (serialize(tree), xs, order)
    for x, row in zip(xs, rows):
        want = _outcome(jet, ast, x, order)
        if want[0] is DomainError:
            assert row is None, (serialize(tree), x, order)
        else:
            assert want == ("value", repr(row)), (serialize(tree), x, order)


@pytest.mark.parametrize("order,cap", [(-1, 16), (17, 16)])
@pytest.mark.parametrize("xs", [[], [0.5, 1.0]], ids=["empty", "two"])
def test_jet_rows_order_errors_match_jet(order, cap, xs):
    # an order outside [0, cap] raises one message, the cap fixed at 16
    ast = parse_expr("exp(-1/x)")
    want = _outcome(jet, ast, 0.5, order)
    assert want == (OrderCapError, f"order {order} outside [0, {cap}]")
    assert _outcome(jet_rows, ast, xs, order) == want


# Batches that mix successes with every way a jet fails: ln of nonpositive
# values and math.pow overflowing (x^2.5 at 1e200); derivatives at a zero
# base; fsum meeting inf - inf (at 700) and exp overflowing, which the kernel
# raises from inside an except clause (at 800); non-finite derivatives of
# order 1 (at 1e-20) and 0 (at 1e20); and 0.0 next to -0.0. The last four
# fail where a sum of one or two terms, emitted as a plain addition, is not
# finite and hands back to fsum: overflowing (1e308 + 1e308), meeting
# inf - inf (x*ln(x)'s 1/x overflows at 1e-320), and 0.0 * inf and 0.0 * nan
# among the zero terms of 2*x and x^-1 at inf and nan, where x^-1's order-1
# coefficient 1.0 + 0.0 * inf is nan while order 0 is finite; 2*x at -0.0
# gives 0.0, as fsum does.
_MIXED_BATCHES = [
    ("ln(x)+x^2.5", 1, [0.5, 0.0, -0.0, 1e200, -1.0, 2.0]),
    ("x^2.5", 2, [1.0, 0.0, 0.25]),
    ("(exp(x)*1e10)*exp(-x)", 1, [1.0, 700.0, 800.0, -0.0]),
    ("sqrt(x)*1e300", 1, [1.0, 1e-20, 1e20]),
    ("x", 2, [0.0, -0.0, math.inf, 1.0]),
    ("(1e308*x)*x", 1, [1.0, 1e-10]),
    ("x*ln(x)", 2, [1e-320, 0.5]),
    ("2*x", 2, [1.0, -0.0, math.inf, math.nan]),
    ("x^-1", 1, [2.0, math.inf, -math.inf, math.nan]),
]


@pytest.mark.parametrize("text,order,xs", _MIXED_BATCHES, ids=[c[0] for c in _MIXED_BATCHES])
def test_batch_kernel_rows_match_jet_point_by_point(text, order, xs):
    # each row of one batch is what jet returns or raises at its abscissa,
    # message included, and what the reference walkers give; a stored error
    # keeps no traceback and no context
    ast = parse_expr(text)
    batch = expr._kernel(ast, order)(xs)
    rows = jet_rows(ast, xs, order)
    assert len(batch) == len(rows) == len(xs)
    assert any(isinstance(r, DomainError) for r in batch)
    assert not all(isinstance(r, DomainError) for r in batch)
    for x, got, row in zip(xs, batch, rows):
        want = _outcome(jet, ast, x, order)
        ref = _outcome(_reference_jet, ast, x, order)
        if isinstance(got, DomainError):
            assert row is None and want == (DomainError, str(got)), x
            assert got.__traceback__ is None and got.__context__ is None, x
            if ref[0] in (OverflowError, ValueError):  # jet names x in the walkers' bare errors
                ref = (DomainError, f"{ref[1]} at x={x!r}")
            assert ref == want, x
        else:
            assert want == ref == ("value", repr(got)) == ("value", repr(row)), x


# Finite abscissae where the r of a dropped zero multiple is not finite, so
# that without the closing check the kernel would give a finite row: x^2
# overflows at 1e200, and the jet of the constant 2 multiplies it by its zero
# Taylor terms; 1e308*x overflows at 3.0, and the power -1 multiplies it by
# the zero terms of the jet of 1.
_DROPPED_NON_FINITE = [
    ("1/(2*x^2)", 1e200, "non-finite derivative of order 1 at x=1e+200"),
    ("(1e308*x)^(-1)", 3.0, "non-finite derivative of order 1 at x=3.0"),
]


@pytest.mark.workcount
@pytest.mark.parametrize("text,x,message", _DROPPED_NON_FINITE,
                         ids=[c[0] for c in _DROPPED_NON_FINITE])
def test_a_non_finite_dropped_term_falls_back_to_the_exact_kernel(code_table, text, x, message):
    # the point is read again by the exact kernel, which raises what the
    # walkers raise; the other points of the batch keep their rows, and the
    # exact kernel is built once, when the first point falls back
    ast = parse_expr(text)
    assert _outcome(jet, ast, x, 2) == _outcome(_reference_jet, ast, x, 2) == (DomainError, message)
    xs = [0.5, x, 0.25, x]
    rows = jet_rows(ast, xs, 2)
    assert rows[1] is rows[3] is None
    assert repr(rows) == repr(_reference_jet_rows(ast, xs, 2))
    shape = expr._shape(ast.root)[0]
    assert [order for key, order in code_table._entries if key == shape] == [2, ("exact", 2)]


# Abscissae of evaluate_rows batches: signed zeros, negatives, the extremes,
# 2.0 and -3.3, where x^1e300 overflows, and inf and nan, where most trees give
# nan.
_ROW_POINTS = [0.0, -0.0, -1.5, -3.3, 1e-300, 1e300, 2.0, 0.5, math.inf, math.nan]


@pytest.mark.workcount
@settings(max_examples=300, deadline=None)
@given(tree=st.one_of(_any_trees(),
                      _any_trees().map(lambda tree: BinOp("+", tree, Pow(Var(), 1e300)))),
       xs=st.lists(st.sampled_from(_ROW_POINTS) | st.floats(min_value=-5.0, max_value=5.0),
                   min_size=1, max_size=15))
@example(tree=Pow(Var(), 1e300), xs=[0.5, 0.0, 2.0, -1.5])
@example(tree=BinOp("-", Var(), Var()), xs=[1e300, 1e-300, -0.0, math.inf])
@example(tree=Call("sqrt", Var()), xs=[1e-300, 0.0, -0.0, 1e300])
@example(tree=Var(), xs=[1e308, 1e308])  # finite values whose sum overflows
def test_evaluate_rows_matches_evaluate_point_by_point(tree, xs):
    # the same value reprs, or the error class and message of the first
    # abscissa evaluate fails at
    ast = ExprAst(tree, serialize(tree))
    want = _outcome(lambda: [evaluate(ast, x) for x in xs])
    assert _outcome(evaluate_rows, ast, xs) == want, (serialize(tree), xs)


def test_evaluate_rows_runs_the_kernel_once_per_batch(kernel_runs):
    # a batch that succeeds is one kernel call; one that fails is read again
    # point by point
    ast = parse_expr("ln(x)")
    xs = [0.5 + i / 16 for i in range(15)]
    assert evaluate_rows(ast, xs) == [evaluate(ast, x) for x in xs]
    calls = [len(run) for _, run in kernel_runs.runs]
    assert calls == [15] + [1] * 15
    kernel_runs.clear()
    with pytest.raises(DomainError, match=r"^ln of nonpositive value -0\.5$"):
        evaluate_rows(ast, [1.0, -0.5, 2.0])
    calls = [len(run) for _, run in kernel_runs.runs]
    assert calls == [3, 1, 1]


def test_fsum_of_negative_zeros_is_positive_zero():
    # a sum of one or two terms is emitted as l + 0.0 or l1 + l2 + 0.0, which
    # gives the 0.0 fsum gives for these; an interpreter whose fsum keeps the
    # sign of a zero sum breaks that rule
    assert repr(math.fsum((-0.0,))) == repr(math.fsum((-0.0, -0.0))) == "0.0"
    assert repr(-0.0 + 0.0) == repr(-0.0 + -0.0 + 0.0) == "0.0"


def test_huge_integer_power_compiles_in_bounded_time():
    # x^1e300 has a 997-bit exponent; its squaring chain is not unrolled
    ast = parse_expr("x^1e300")
    start = time.perf_counter()
    got = _outcome(jet, ast, 1.0000001, 16)
    elapsed = time.perf_counter() - start
    assert _outcome(_reference_jet, ast, 1.0000001, 16) == (
        OverflowError, "intermediate overflow in fsum")
    assert got == (DomainError, "intermediate overflow in fsum at x=1.0000001")
    assert elapsed < 0.05


def _reference_jet_rows(ast, xs, order):
    rows = []
    for x in xs:
        try:
            rows.append(_reference_jet(ast, x, order).derivs)
        except (DomainError, OverflowError, ValueError):
            rows.append(None)
    return rows


def test_sweep_output_matches_reference_walkers(patch_everywhere, sweep_reprs):
    """The whole pipeline, on this machine's libm: the same bounds."""
    compiled = sweep_reprs(10)
    patch_everywhere(jet, _reference_jet)
    patch_everywhere(jet_rows, _reference_jet_rows)
    patch_everywhere(POINT_JET, lambda ast, x, order: _reference_jet(ast, x, order).derivs)
    patch_everywhere(expr._jet_reader, lambda ast, k: lambda x: _reference_jet(ast, x, k).derivs[k])
    patch_everywhere(evaluate, _reference_evaluate)
    assert sweep_reprs(10) == compiled


def test_kernel_compiles_once_per_ast_and_order(kernel_runs):
    compiled = kernel_runs.compiled
    ast = parse_expr("exp(-1/x)")
    for _ in range(3):
        evaluate(ast, 0.7)
        for order in (1, 2, 4):
            jet(ast, 0.7, order)
    assert sorted(compiled, key=str) == [1, 2, 4, None]
    twin = ExprAst(ast.root, ast.source)  # equal, but its own cache
    jet(twin, 0.7, 1)
    assert compiled[-1] == 1 and len(compiled) == 5
    assert twin == ast and hash(twin) == hash(ast) and "_kernels" not in repr(ast)
    # its own kernel, running the code compiled for the first (each is read
    # past the wrapper kernel_runs watches it through)
    own, first = (inspect.unwrap(k._kernels[1]) for k in (twin, ast))
    assert own is not first and own.__code__ is first.__code__


def _free_value(kernel, name: str):
    """The value of a kernel's free variable ``name``."""
    return kernel.__closure__[kernel.__code__.co_freevars.index(name)].cell_contents


def _kernel_outcomes(text, orders=(None, 1, 2, 4), evaluate=evaluate, jet=jet):
    """Outcomes of ``parse_expr(text)`` at a few points, each order."""
    ast = parse_expr(text)
    return [_outcome(evaluate, ast, x) if order is None else _outcome(jet, ast, x, order)
            for order in orders for x in (0.0, 0.25, 0.5, 1.0, 1.75)]


def test_same_shape_kernels_share_code_but_not_constants():
    # the exponent reaches the kernel as a parameter of its factory, not
    # through its source
    low, high = parse_expr("x^2.5"), parse_expr("x^3.5")
    for order in (None, 1, 3):
        k_low, k_high = expr._kernel(low, order), expr._kernel(high, order)
        assert k_low.__code__ is k_high.__code__
        assert k_low.__globals__ is k_high.__globals__
        assert (_free_value(k_low, "p0"), _free_value(k_high, "p0")) == (2.5, 3.5)
    for ast in (low, high):
        assert _outcome(evaluate, ast, 0.7) == _outcome(_reference_evaluate, ast, 0.7)
        for order in (1, 3):
            assert _outcome(jet, ast, 0.7, order) == _outcome(_reference_jet, ast, 0.7, order)
    assert jet(low, 0.7, 3).derivs != jet(high, 0.7, 3).derivs


def test_code_table_is_thread_safe(code_table, monkeypatch):
    # 8 threads build and run same-shape kernels with different constants at
    # once, switching every microsecond, each on an empty table
    texts = [f"exp({lam}*x^{p})-1" for lam in (0.5, 0.3, 1.1, 2.0) for p in (1.5, 2.5)]
    want = [_kernel_outcomes(text) for text in texts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            table = expr._CodeTable()
            monkeypatch.setattr(expr, "_code_table", table)
            start = threading.Barrier(len(texts))
            got: dict = {}

            def build(i):
                start.wait(timeout=60)
                got[i] = [_kernel_outcomes(texts[(i + j) % len(texts)])
                          for j in range(len(texts))]

            threads = [threading.Thread(target=build, args=(i,)) for i in range(len(texts))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            for i in range(len(texts)):
                assert got[i] == want[i:] + want[:i]
            # one shape: evaluate, three jet orders and, for the zero base at
            # x = 0.0 where each jet fails, the three jets' exact kernels
            assert len(table._entries) == 7
            assert table.chars == _kept_chars(table)
    finally:
        sys.setswitchinterval(interval)


def _kept_chars(table) -> int:
    return sum(size for _, size in table._entries.values())


def test_code_table_stays_within_its_character_bound(monkeypatch):
    bound = 3000
    code_table = expr._CodeTable(bound)
    monkeypatch.setattr(expr, "_code_table", code_table)
    texts = ["x^2.5", "exp(0.6*x^1.4)-1", "0.3*ln(1+x)+x^2", "exp(-1/x)", "x/(1+x^2)"]
    for text in texts:
        for order in (None, 1, 2, 4):
            want = _kernel_outcomes(text, (order,), _reference_evaluate, _reference_jet)
            for _ in range(2):  # built, then rebuilt from the table or recompiled
                assert _kernel_outcomes(text, (order,)) == want
                assert code_table.chars <= bound
                assert code_table.chars == _kept_chars(code_table)
    # an order-6 jet of a 10-term sum emits a source far above the bound: it
    # is compiled and used but not kept, evicts nothing, and evaluates as the
    # walkers do
    big = parse_expr("+".join(f"exp({k}*x^1.5)" for k in range(1, 11)))
    kept, chars = dict(code_table._entries), code_table.chars
    assert kept
    assert _outcome(jet, big, 0.8, 6) == _outcome(_reference_jet, big, 0.8, 6)
    assert code_table._entries == kept and code_table.chars == chars


def test_code_table_frees_factories_without_the_collector(monkeypatch):
    # 29 shapes through a table that keeps two: each evicted factory is freed
    # by reference counting, as its exec namespace, which is its globals,
    # does not keep the factory itself (135 cyclic objects when it did)
    code_table = expr._CodeTable(2000)
    monkeypatch.setattr(expr, "_code_table", code_table)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for k in range(2, 31):
            expr._compile(parse_expr("+".join(["x"] * k)).root, None)
        assert len(code_table._entries) < 29
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.workcount
def test_sweep_compiles_each_kernel_source_once(code_table, monkeypatch):
    # sweep(42, 10) parses 10 functions and builds 50 kernels, which share
    # 15 shapes and orders, each compiled once; without the table each
    # kernel was compiled
    sources = []

    def counted(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(expr, "compile", counted, raising=False)
    sweep(42, 10)
    assert len(sources) == len(set(sources)) == 15
    assert code_table.chars == sum(map(len, sources))


@pytest.mark.workcount
@pytest.mark.parametrize("first,second", [("x^0", "x^-0.5"), ("x^1", "x^0.5")])
def test_integer_and_fractional_exponents_key_apart(code_table, first, second):
    # a fractional exponent keys its sign as a string, since a bool or a
    # number would equal an integer exponent (0 == 0.0 == False, 1 == True)
    # and run that exponent's kernels; from an empty table, each text builds
    # its own, bit for bit what the walkers give
    for text in (first, second):
        ast = parse_expr(text)
        for x in (0.0, 0.25, 1.0, 2.0, -1.0):
            assert _outcome(evaluate, ast, x) == _outcome(_reference_evaluate, ast, x), text
            for order in range(4):
                want = _outcome(_reference_jet, ast, x, order)
                assert _outcome(jet, ast, x, order) == want, (text, x, order)
    # evaluate and orders 0-3, twice, beside the kernel that folded -0.5,
    # and the exact kernels of the fractional power's orders 2 and 3, whose
    # jets fail at 0.0 and -1.0
    assert len([shape for shape, _ in code_table._entries if "x" in shape]) == 2 * 5 + 2


# values that take every branch of the kernels: signed zeros, huge and tiny
_CONSTANTS = st.sampled_from(_EDGE_FLOATS + [-1e300, 1e-200]) | st.floats(-100.0, 100.0)


def _fractional(c: float):
    """Non-integer exponents of the sign of ``c``."""
    magnitudes = st.sampled_from([0.5, 1 / 3, 1.5, 200.5]) | st.floats(1e-3, 300.0)
    return magnitudes.filter(lambda v: not v.is_integer()).map(lambda v: v if c > 0.0 else -v)


def _rebuilt(node, const, fractional):
    """``node`` with each constant c as ``const(c)`` and each fractional
    exponent c as ``fractional(c)``."""
    if isinstance(node, Const):
        return Const(const(node.value))
    if isinstance(node, Neg):
        return Neg(_rebuilt(node.child, const, fractional))
    if isinstance(node, BinOp):
        return BinOp(node.op, _rebuilt(node.left, const, fractional),
                     _rebuilt(node.right, const, fractional))
    if isinstance(node, Pow):
        c = node.exponent
        base = _rebuilt(node.base, const, fractional)
        return Pow(base, c if float(c).is_integer() else fractional(c))
    if isinstance(node, Call):
        return Call(node.func, _rebuilt(node.arg, const, fractional))
    return node


@pytest.mark.workcount
@settings(max_examples=200, deadline=None)
@given(tree=_any_trees(), data=st.data(),
       xs=st.lists(st.sampled_from(_EDGE_FLOATS + [-3.3]) | st.floats(-5.0, 5.0),
                   min_size=1, max_size=2))
def test_same_shape_trees_share_one_emission_per_order(tree, data, xs):
    # a tree and two perturbations of its constants and fractional
    # exponents, each sign kept, share one emission per order and each runs
    # its own values as the walkers do; they run after the tree's integer
    # twin, its fractional exponents made 1.0 or 0.0 by sign, the values a
    # bool or numeric sign key would merge them with
    twin = _rebuilt(tree, lambda v: v, lambda c: float(c > 0.0))
    trees = [_rebuilt(tree, lambda v: data.draw(_CONSTANTS),
                      lambda c: data.draw(_fractional(c))) for _ in range(2)]
    orders = (None, 0, 1, 2, 4)
    with mock.patch.object(expr, "_code_table", expr._CodeTable()), spied(EMIT) as emissions:
        _assert_runs_as_walkers(twin, xs, orders)
        emissions.clear()
        for t in [tree] + trees:
            _assert_runs_as_walkers(t, xs, orders)
    emitted = [call.order for call in emissions]
    assert len({expr._shape(t)[0] for t in [tree] + trees}) == 1
    shared = expr._shape(twin)[0] == expr._shape(tree)[0]  # no fractional exponent
    # a jet whose kernel fails at some abscissa also emits, once, its exact
    # kernel, keyed ("exact", order)
    exact = [order for order in emitted if isinstance(order, tuple)]
    assert sorted([order for order in emitted if order not in exact], key=str) \
        == ([] if shared else sorted(orders, key=str))
    assert len(exact) == len(set(exact))
    assert {order for _, order in exact} <= {0, 1, 2, 4}


@pytest.mark.workcount
def test_sweep_emits_each_kernel_shape_once(code_table, spy):
    # the 50 kernels of sweep(42, 10) are 15 factory emissions, one per
    # shape and order; keyed by tree, every kernel was emitted
    emissions = spy(EMIT)
    sweep(42, 10)
    emitted = [(call.shape, call.order) for call in emissions]
    assert len(emitted) == len(set(emitted)) == 15
    assert len(code_table._entries) == 15


@pytest.mark.workcount
def test_sweep_fsum_calls_are_pinned(code_table, monkeypatch):
    # jet kernels call fsum only at sums of three or more live terms and
    # where a plain sum is not finite: none in sweep(42, 10), as a site of
    # zero multiples only is the literal 0.0. When such a site was a name,
    # the exp(lam*x) kernels of orders 3 and 4 summed 3 and 4 live terms:
    # 2,313 calls (3,084 before each gate grid was filled once per instance,
    # 138,583 when every Taylor coefficient went through fsum)
    calls = []

    def fsum(terms):
        calls.append(None)
        return math.fsum(terms)

    monkeypatch.setitem(expr._KERNEL_GLOBALS, "fsum", fsum)
    sweep(42, 10)
    assert len(calls) == 0
