"""Expression parsing, evaluation, serialization round-trips, and jets."""

from __future__ import annotations

import math
import pickle
import sys
import time

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from youngbounds import expr
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
        expr._jet_node(ast.root, 0.5, 2)

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
    with pytest.raises(ValueError):
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
    value = expr._eval_node(ast.root, x)
    if not math.isfinite(value):
        raise DomainError(f"non-finite result {value!r} at x={x!r}")
    return value


def _reference_jet(ast, x0, order, cap=expr.DEFAULT_ORDER_CAP):
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if order > cap:
        raise OrderCapError(f"order {order} exceeds cap {cap}")
    coeffs = expr._jet_node(ast.root, x0, order)
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


@settings(max_examples=300, deadline=None)
@given(tree=_any_trees(),
       xs=st.lists(st.sampled_from(_EDGE_FLOATS + [-3.3, 100.0, math.inf, math.nan])
                   | st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=3))
def test_kernels_match_reference_walkers(tree, xs):
    ast = ExprAst(tree, serialize(tree))
    for x in xs:
        assert _outcome(evaluate, ast, x) == _outcome(_reference_evaluate, ast, x)
        for order in range(7):
            got = _outcome(jet, ast, x, order)
            want = _outcome(_reference_jet, ast, x, order)
            if want[0] in (OverflowError, ValueError):
                # the walkers leak fsum's and math.pow's bare errors
                assert got[0] is DomainError, (want, got)
            else:
                assert got == want, (serialize(tree), x, order)


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
@given(tree=_any_trees(),
       xs=st.lists(st.sampled_from(_BATCH_FLOATS) | st.floats(min_value=-5.0, max_value=5.0),
                   max_size=8),
       order=st.integers(min_value=0, max_value=6))
def test_jet_rows_match_jet(tree, xs, order):
    # each row is jet's derivatives, bit for bit, and None exactly where jet
    # raises DomainError
    ast = ExprAst(tree, serialize(tree))
    rows = jet_rows(ast, xs, order)
    assert len(rows) == len(xs)
    for x, row in zip(xs, rows):
        want = _outcome(jet, ast, x, order)
        if want[0] is DomainError:
            assert row is None, (serialize(tree), x, order)
        else:
            assert want == ("value", repr(row)), (serialize(tree), x, order)


@pytest.mark.parametrize("order,cap", [(-1, expr.DEFAULT_ORDER_CAP), (17, expr.DEFAULT_ORDER_CAP),
                                       (3, 2)])
@pytest.mark.parametrize("xs", [[], [0.5, 1.0]], ids=["empty", "two"])
def test_jet_rows_order_errors_match_jet(order, cap, xs):
    ast = parse_expr("exp(-1/x)")
    want = _outcome(jet, ast, 0.5, order, cap)
    assert want[0] in (ValueError, OrderCapError)
    assert _outcome(jet_rows, ast, xs, order, cap) == want


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


def _reference_jet_rows(ast, xs, order, cap=expr.DEFAULT_ORDER_CAP):
    rows = []
    for x in xs:
        try:
            rows.append(_reference_jet(ast, x, order, cap).derivs)
        except (DomainError, OverflowError, ValueError):
            rows.append(None)
    return rows


def test_sweep_output_matches_reference_walkers(monkeypatch):
    """The whole pipeline, on this machine's libm: same rendered sweep."""
    from youngbounds.report import sweep

    compiled = sweep(42, 10).render()
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "youngbounds"]:
        if getattr(module, "jet", None) is jet:
            monkeypatch.setattr(module, "jet", _reference_jet)
        if getattr(module, "jet_rows", None) is jet_rows:
            monkeypatch.setattr(module, "jet_rows", _reference_jet_rows)
        if getattr(module, "evaluate", None) is evaluate:
            monkeypatch.setattr(module, "evaluate", _reference_evaluate)
    assert sweep(42, 10).render() == compiled


def test_kernel_compiles_once_per_ast_and_order(monkeypatch):
    compiled = []
    original = expr._compile

    def counted(root, order):
        compiled.append(order)
        return original(root, order)

    monkeypatch.setattr(expr, "_compile", counted)
    ast = parse_expr("exp(-1/x)")
    for _ in range(3):
        evaluate(ast, 0.7)
        for order in (1, 2, 4):
            jet(ast, 0.7, order)
    assert sorted(compiled, key=str) == [1, 2, 4, None]
    twin = parse_expr("exp(-1/x)")  # equal, but its own cache
    jet(twin, 0.7, 1)
    assert compiled[-1] == 1 and len(compiled) == 5
    assert twin == ast and hash(twin) == hash(ast) and "_kernels" not in repr(ast)
