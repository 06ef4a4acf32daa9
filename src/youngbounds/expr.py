"""Expression trees for h(x): parsing, evaluation, and truncated-Taylor jets.

The grammar is a small calculator language over one variable::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ['^' unary]          # right associative, constant exponent only
    atom   := NUMBER | 'x' | 'e' | 'pi' | ('exp'|'ln'|'sqrt') '(' expr ')' | '(' expr ')'

Numbers accept decimal and scientific notation. Exponents must be constant
expressions (no ``x``); they are folded to a float at parse time, which keeps
the power rule of the jet arithmetic closed-form.

Derivatives come from jet (truncated Taylor series) arithmetic: every node
propagates the coefficients of ``h(x0 + t)`` up to the requested order, and the
k-th derivative is the k-th coefficient rescaled by the exact integer k!.

Every kernel is a batch kernel: one loop over its abscissae around a
straight-line body. The ``evaluate`` kernel gives one raw value per
abscissa, and its body raises its own :class:`DomainError`, which ends the
batch; ``evaluate`` runs a batch of one and ``evaluate_rows`` a whole
quadrature panel. Each jet order's kernel gives one row per abscissa, the
derivatives or the :class:`DomainError` that ``jet`` raises there; ``jet``
runs a batch of one and ``jet_rows`` a whole scan. A kernel's code holds no
constant: it is emitted and compiled once per tree shape and order per
process, as a factory that a bounded, locked table keeps, and each tree's
kernel is one call of that factory with the tree's constants, cached on the
:class:`ExprAst`. The recursive walkers the kernels were generated from are
in ``tests/reference_expr.py``, and the tests hold the kernels to them bit
for bit.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Union

from .errors import DomainError, ExprSyntaxError, OrderCapError, UnsupportedFeatureError

__all__ = [
    "Const", "Var", "Neg", "BinOp", "Pow", "Call", "Node",
    "ExprAst", "TaylorJet",
    "parse_expr", "evaluate", "evaluate_rows", "serialize", "jet", "jet_rows",
    "DEFAULT_ORDER_CAP", "MAX_NESTING", "MAX_DEPTH",
]

DEFAULT_ORDER_CAP = 16
# Limits of ``parse_expr``, which keep the parser and every recursive tree walk
# far inside Python's default recursion limit of 1000 frames. MAX_NESTING
# bounds parentheses, calls, signs and exponents, each level of which costs the
# parser about five frames. MAX_DEPTH bounds the tree, long left-associative
# chains such as ``x+x+...+x`` included; a tree walk costs one to three frames
# per level (``repr`` and ``pickle`` three, ``hash`` two, serialization,
# compilation and the reference walkers one).
MAX_NESTING = 100
MAX_DEPTH = 200

_FUNCTIONS = ("exp", "ln", "sqrt")
_NAMED_CONSTANTS = {"e": math.e, "pi": math.pi}


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    """The single independent variable x."""


@dataclass(frozen=True)
class Neg:
    child: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of '+', '-', '*', '/'
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: float  # folded constant


@dataclass(frozen=True)
class Call:
    func: str  # one of 'exp', 'ln', 'sqrt'
    arg: "Node"


Node = Union[Const, Var, Neg, BinOp, Pow, Call]


@dataclass(frozen=True, eq=False)
class ExprAst:
    """A parsed expression. Structural equality ignores the source text.

    ``_kernels`` caches the ``evaluate`` kernel (key None) and one jet
    kernel per order, each built by a shape walk and a factory call; it
    takes no part in equality, hashing or repr.
    """

    root: Node
    source: str
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExprAst) and self.root == other.root

    def __hash__(self) -> int:
        return hash(self.root)

    def copy(self) -> ExprAst:
        """A new tree of this root and source whose cache starts with this
        one's kernels: the two share those kernel objects, and a kernel
        either builds later stays in its own cache."""
        ast = ExprAst(self.root, self.source)
        ast._kernels.update(self._kernels)
        return ast


@dataclass(frozen=True)
class TaylorJet:
    """Derivatives h^(0)..h^(order) of an expression at ``center``."""

    center: float
    order: int
    derivs: tuple[float, ...]


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

class _Token(NamedTuple):
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            start = i
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            lit = text[start:i]
            try:
                float(lit)
            except ValueError:
                raise ExprSyntaxError(f"invalid number {lit!r}", start) from None
            tokens.append(_Token("num", lit, start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], start))
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    """Recursive descent. Every method below ``parse`` returns ``(node, depth)``.

    ``_nesting`` counts the open ``_unary`` frames (parentheses, calls, signs
    and exponents all recurse through it) against :data:`MAX_NESTING`; each
    returned depth is the depth of its node's tree, checked against
    :data:`MAX_DEPTH`.
    """

    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0
        self._nesting = 0

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _next(self) -> _Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _expect_op(self, op: str) -> None:
        tok = self._next()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.pos)

    @staticmethod
    def _too_deep(pos: int) -> ExprSyntaxError:
        return ExprSyntaxError(f"expression tree deeper than {MAX_DEPTH} levels", pos)

    def parse(self) -> Node:
        node, _ = self._expression()
        tok = self._peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def _expression(self, ops: str = "+-") -> tuple[Node, int]:
        """A left-associative chain, each operator one BinOp whose depth is
        checked against :data:`MAX_DEPTH`: terms joined by + and -, or, with
        ``ops`` "*/", a term, unary operands joined by * and /. A term is
        this loop one level down, so it costs no frame of its own."""
        term = ops == "*/"
        node, depth = self._unary() if term else self._expression("*/")
        while self._peek().kind == "op" and self._peek().text in ops:
            tok = self._next()
            right, rdepth = self._unary() if term else self._expression("*/")
            node = BinOp(tok.text, node, right)
            depth = (depth if depth > rdepth else rdepth) + 1
            if depth > MAX_DEPTH:
                raise self._too_deep(tok.pos)
        return node, depth

    def _unary(self) -> tuple[Node, int]:
        tok = self._peek()
        self._nesting += 1
        if self._nesting > MAX_NESTING:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels", tok.pos)
        if tok.kind == "op" and tok.text == "-":
            self._next()
            child, depth = self._unary()
            if depth >= MAX_DEPTH:
                raise self._too_deep(tok.pos)
            result = Neg(child), depth + 1
        else:
            result = self._power()
        self._nesting -= 1
        return result

    def _power(self) -> tuple[Node, int]:
        base, depth = self._atom()
        tok = self._peek()
        if tok.kind == "op" and tok.text == "^":
            pos = self._next().pos
            # right associative through the unary chain
            exponent, edepth = self._unary()
            shape, params = _shape(exponent)
            if "x" in shape:
                raise UnsupportedFeatureError(
                    f"exponent must be a constant expression (offset {pos})"
                )
            depth = (depth if depth > edepth else edepth) + 1
            if depth > MAX_DEPTH:
                raise self._too_deep(pos)
            return Pow(base, _fold_constant(shape, params)), depth
        return base, depth

    def _atom(self) -> tuple[Node, int]:
        tok = self._next()
        if tok.kind == "num":
            return Const(float(tok.text)), 1
        if tok.kind == "ident":
            name = tok.text
            if name == "x":
                return Var(), 1
            if name in _NAMED_CONSTANTS:
                return Const(_NAMED_CONSTANTS[name]), 1
            if name in _FUNCTIONS:
                self._expect_op("(")
                arg, depth = self._expression()
                self._expect_op(")")
                if depth >= MAX_DEPTH:
                    raise self._too_deep(tok.pos)
                return Call(name, arg), depth + 1
            raise ExprSyntaxError(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            node, depth = self._expression()
            self._expect_op(")")
            return node, depth
        raise ExprSyntaxError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.pos
        )


def _fold_constant(shape: tuple, params: list[float]) -> float:
    """The value of a constant tree of ``shape`` and ``params``, computed by
    its ``evaluate`` kernel (at x = 0, which it does not read)."""
    try:
        if shape == ("c",):
            value = params[0]
        else:
            (value,) = _code_table.factory(shape, None)(*params)((0.0,))
    except DomainError as exc:
        raise UnsupportedFeatureError(f"exponent is not a finite constant: {exc}") from None
    if not math.isfinite(value):
        raise UnsupportedFeatureError(f"exponent folds to non-finite value {value!r}")
    return value


def parse_expr(text: str) -> ExprAst:
    """Parse ``text`` into a new :class:`ExprAst`.

    Raises :class:`ExprSyntaxError` (with the offending offset) on malformed
    input and :class:`UnsupportedFeatureError` for exponents containing x.

    Nothing is kept between calls: each parse builds a fresh tree. Its
    kernels come from factories shared by every tree of its shape, so a
    text parsed again, or another text of the same shape, emits and
    compiles no kernel anew.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return ExprAst(_Parser(_tokenize(text)).parse(), text)


# ---------------------------------------------------------------------------
# Real powers, as ``evaluate`` and the reference walker in
# ``tests/reference_expr.py`` take them.
# ---------------------------------------------------------------------------

def _pow_real(base: float, c: float) -> float:
    if base > 0.0:
        try:
            return math.pow(base, c)
        except OverflowError:
            raise DomainError(f"overflow in {base!r}^{c!r}") from None
    if base == 0.0:
        if c > 0.0:
            return 0.0
        if c == 0.0:
            return 1.0
        raise DomainError("zero raised to a negative power")
    if float(c).is_integer():
        try:
            return math.pow(base, c)
        except OverflowError:
            raise DomainError(f"overflow in {base!r}^{c!r}") from None
    raise DomainError(f"negative base {base!r} raised to non-integer power {c!r}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_number(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _emit(node: Node, context: int) -> str:
    if isinstance(node, Const):
        if node.value < 0:
            return _wrap(f"-{_fmt_number(-node.value)}", _PREC_UNARY, context)
        return _fmt_number(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        return _wrap(f"-{_emit(node.child, _PREC_UNARY)}", _PREC_UNARY, context)
    if isinstance(node, BinOp):
        prec = _PREC_ADD if node.op in "+-" else _PREC_MUL
        # Right operand printed one level tighter so the left-associative
        # reparse reproduces this exact tree shape.
        text = f"{_emit(node.left, prec)}{node.op}{_emit(node.right, prec + 1)}"
        return _wrap(text, prec, context)
    if isinstance(node, Pow):
        e = node.exponent
        etext = _fmt_number(e) if e >= 0 else f"(-{_fmt_number(-e)})"
        text = f"{_emit(node.base, _PREC_POW + 1)}^{etext}"
        return _wrap(text, _PREC_POW, context)
    if isinstance(node, Call):
        return f"{node.func}({_emit(node.arg, 0)})"
    raise TypeError(f"not an expression node: {node!r}")


def _wrap(text: str, prec: int, context: int) -> str:
    return f"({text})" if prec < context else text


def serialize(ast: ExprAst | Node) -> str:
    """Render the tree as grammar text; reparsing yields a structurally equal tree."""
    node = ast.root if isinstance(ast, ExprAst) else ast
    return _emit(node, 0)


# ---------------------------------------------------------------------------
# Jet (truncated Taylor) products and integer powers over coefficient lists.
# A kernel calls ``_jet_int_pow`` for an integer power too large to unroll;
# the reference jet walkers in ``tests/reference_expr.py`` build on both.
# ---------------------------------------------------------------------------

def _jet_mul(u: list[float], v: list[float]) -> list[float]:
    n = len(u)
    return [math.fsum(u[j] * v[k - j] for j in range(k + 1)) for k in range(n)]


def _jet_int_pow(u: list[float], c: int) -> list[float]:
    n = len(u)
    result = [1.0] + [0.0] * (n - 1)
    base = u
    e = c
    while e > 0:  # exponentiation by squaring
        if e & 1:
            result = _jet_mul(result, base)
        e >>= 1
        if e:
            base = _jet_mul(base, base)
    return result


# ---------------------------------------------------------------------------
# Compiled kernels
#
# Each kernel's body is straight-line code, emitted by a post-order walk of
# the tree, ``evaluate``'s or the jet of each requested order's, and runs in
# a loop over a batch of abscissae. Every value comes out as the same bits
# as in the reference walkers (the same unrolled squarings, the same products,
# the value or the error of ``fsum`` over the same terms). Operators and
# functions come from fixed sets.
#
# The code is emitted and compiled once per tree shape and order, as a
# factory ``make(p0, p1, ...)`` that takes the tree's constants and
# exponents in post-order and returns the kernel as a closure over them. A
# shape is the tree with every constant and every fractional exponent
# erased. It keeps each integer exponent, which the jets unroll, and the
# sign of each fractional one, on which the order-0 jet branches; the
# emitter branches on nothing else of a value. The power rule's factors
# (c + 1.0) * j - k are computed in the factory from c's parameter, by the
# same float operations as in the walkers.
#
# Jets fold the literals 0.0, -0.0 and 1.0 (the coefficients of x and of
# constants) and the factor 1 at emit time, on their text alone, never on
# the value of a parameter: the sum or difference of two literals is a
# literal, a product drops its factors 1 (one of literals only is 0.0 or
# 1.0), and ``a - 0.0``, ``a + -0.0``, ``a / 1`` and the scalings by 0! and
# 1! are ``a``. Each Taylor coefficient's fsum over products is a sum
# site. A product with a factor 0.0 is a zero multiple: dropped when it has
# no other factor, and otherwise ±0 whenever r, the product of its other
# factors, is finite.
# With m live terms (the others) and zero multiples r1..rj, a site of an
# exact kernel is
#
#   m <= 2, no zero multiple, every live term 1.0:  the literal m.0
#   m = 1, no zero multiple:   s = l + 0.0
#   other m <= 2:              s = l1 + l2 + (r1 + ... + rj) * 0.0 + 0.0
#                              if s - s: s = fsum((<every term>,))
#   m >= 3:                    s = fsum((<live terms, zero multiples>,))
#
# This is fsum, bit for bit. For finite terms a + b is the correctly
# rounded sum, which fsum returns, and ``+ 0.0`` turns -0.0 into 0.0, as
# fsum does; so does ``l + 0.0`` for any l, inf and nan included. A finite s
# has finite l1, l2 and r, so its zero multiples are ±0, which fsum ignores.
# Any other s is inf or nan, and the guard runs the site's fsum, which
# returns or raises what it always did. Three or more live terms keep their
# zero multiples in the fsum: a nan among the terms moves where fsum can
# overflow, and a guard after the call could not undo an overflow raised.
#
# A jet kernel is sparse: it drops the zero multiples of its sites of
# m <= 2 outright. A site of zero multiples only is the literal 0.0, and the
# folding goes on downstream of it (in the kernels of exp(lam*x), the sums
# of three or more live terms become one). Each dropped r is recorded once
# per kernel, and the body ends with one check,
#
#   if (r1 + ... + rj) * 0.0: <read the point again>
#
# which is ±0 when every r is finite and nan otherwise (and when a sum of
# finite r overflows, a harmless false alarm). With every r finite, each
# dropped multiple is ±0 and every site is the exact kernel's, bit for bit,
# by the argument above. At a point where the check trips, or where the body
# raises a DomainError, an ArithmeticError or a ValueError, the row is the
# exact kernel's: the emission by the rule above, for the same shape and
# order, kept in the factory table under (shape, ("exact", order)) and built
# at the first such point. Every row, error and message is therefore the
# exact kernel's. A jet kernel that drops nothing is its own exact kernel,
# and evaluate kernels have no sum sites. Sites of three or more live terms
# keep their zero multiples in both kernels, as a zero still renormalises
# fsum's partials. The zeros dropped follow from the shape alone, so
# factories stay keyed by shape and order.
# ---------------------------------------------------------------------------

# Integer powers up to 2^8 - 1 are unrolled; larger ones call _jet_int_pow.
_UNROLLED_POW_BITS = 8


def _fsum(terms) -> str:
    return f"fsum(({', '.join(terms)},))"


# The literals the jet emitter folds on, by their text: the zeros and ones
# that the jets of x and of constants hold, and the integer factor 1. Every
# other value, a name or another number, is kept as text.
_LITERALS = {"0.0": 0.0, "-0.0": -0.0, "1.0": 1.0, "1": 1}
_LITERAL_TEXTS = frozenset(_LITERALS)


def _raise(message: str) -> str:
    """Source raising DomainError; ``message`` is the body of an f-string."""
    return f"raise DomainError(f{message!r})"


def _non_finite(derivs: tuple[float, ...], x: float) -> DomainError:
    k = next(k for k, v in enumerate(derivs) if not math.isfinite(v))
    return DomainError(f"non-finite derivative of order {k} at x={x!r}")


# The globals of the kernel factories; each factory runs in its own copy.
_KERNEL_GLOBALS = {
    "fsum": math.fsum, "exp": math.exp, "log": math.log, "sqrt": math.sqrt,
    "pow": math.pow, "_pow_real": _pow_real, "_jet_int_pow": _jet_int_pow,
    "DomainError": DomainError, "_non_finite": _non_finite,
}

# The evaluate kernel: the body at x in a loop over the batch xs, one raw
# value per x. The body's own DomainError ends the batch; evaluate and
# evaluate_rows test the values for finiteness.
_EVALUATE_FACTORY = """\
def make({params}):
{prelude}\
    def kernel(xs):
        values = []
        for x in xs:
{body}\
            values.append({result})
        return values
    return kernel
"""

# A jet kernel: the body at x in a loop over the batch xs, one row per x.
# ``jet``'s error rule is part of it: in an exact kernel, the body's own
# DomainError, kept without its traceback or context, and math.pow
# overflowing, or fsum overflowing or meeting inf - inf, as a DomainError
# naming x (``_EXACT_HANDLERS``); in a kernel that dropped zero multiples,
# the exact kernel's row wherever its check trips or its body raises
# (``_SPARSE_HANDLERS``); and in both, a non-finite derivative, found by the
# sum of each d - d, which is 0.0 for a finite d and nan otherwise (the
# partial sums alternate between 0.0 and one d, exactly).
_BATCH_FACTORY = """\
def make({params}):
{prelude}\
    def kernel(xs):
        rows = []
        append = rows.append
        for x in xs:
            try:
{body}\
{handlers}\
{derivs}\
            if {finite} == 0.0:
                append(({names},))
            else:
                append(_non_finite(({names},), x))
        return rows
    return kernel
"""

_EXACT_HANDLERS = """\
            except DomainError as exc:
                exc.__traceback__ = exc.__context__ = None
                append(exc)
                continue
            except (OverflowError, ValueError) as exc:
                append(DomainError(f"{exc} at x={x!r}"))
                continue
"""

_SPARSE_HANDLERS = """\
                if ({dropped}) * 0.0:
                    raise ArithmeticError
            except (DomainError, ArithmeticError, ValueError):
                append(exact(x))
                continue
"""


class _Emitter:
    """Body lines, at one abscissa ``x``, of one kernel, and the parameters
    and prelude of its factory.

    A value is the source text of a name or a float literal, never of a
    compound expression, so operands need no parentheses.
    """

    def __init__(self, sparse: bool) -> None:
        self.lines: list[str] = []
        self.params: list[str] = []
        self.prelude: list[str] = []
        self.sparse = sparse  # drop the zero multiples of sites of at most two live terms
        self.dropped: dict[str, None] = {}  # r of each dropped zero multiple, once each

    def param(self) -> str:
        """The next of the tree's constants and exponents, in post-order."""
        name = f"p{len(self.params)}"
        self.params.append(name)
        return name

    def derive(self, src: str) -> str:
        """A value the factory computes once per kernel."""
        name = f"k{len(self.prelude)}"
        self.prelude.append(f"{name} = {src}")
        return name

    def let(self, src: str) -> str:
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {src}")
        return name

    def check(self, cond: str, message: str) -> None:
        self.lines.append(f"if {cond}: {_raise(message)}")

    def checked(self, src: str, message: str) -> str:
        """``src``, whose OverflowError is raised as a DomainError."""
        name = f"t{len(self.lines)}"
        self.lines.append(f"try: {name} = {src}")
        self.lines.append(f"except OverflowError: {_raise(message)} from None")
        return name

    def checked_exp(self, u0: str) -> str:
        return self.checked(f"exp({u0})", f"overflow in exp({{{u0}!r}})")

    # -- evaluate: one float per node -------------------------------------

    def scalar(self, kind: str, param, *args: str) -> str:
        if kind == "c":
            return param
        if kind == "x":
            return "x"
        if kind == "neg":
            return self.let(f"-{args[0]}")
        if kind in ("+", "-", "*"):
            return self.let(f"{args[0]} {kind} {args[1]}")
        if kind == "/":
            self.check(f"{args[1]} == 0.0", "division by zero")
            return self.let(f"{args[0]} / {args[1]}")
        if kind == "pow":
            # _pow_real's positive-base path inline: the same value or message
            b, c = args[0], param[0]
            return self.checked(f"pow({b}, {c}) if {b} > 0.0 else _pow_real({b}, {c})",
                                f"overflow in {{{b}!r}}^{{{c}!r}}")
        v = args[0]
        if kind == "exp":
            return self.checked_exp(v)
        if kind == "ln":
            self.check(f"{v} <= 0.0", f"ln of nonpositive value {{{v}!r}}")
            return self.let(f"log({v})")
        self.check(f"{v} < 0.0", f"sqrt of negative value {{{v}!r}}")
        return self.let(f"sqrt({v})")

    # -- jets: the n Taylor coefficients of each node, as in _jet_* ---------

    def jet(self, kind: str, param, *args: list[str], n: int) -> list[str]:
        if kind == "c":
            return [param] + ["0.0"] * (n - 1)
        if kind == "x":
            return (["x", "1.0"] + ["0.0"] * n)[:n]
        if kind == "neg":
            return [self.neg(c) for c in args[0]]
        if kind in ("+", "-"):
            return [self.add(kind, a, b) for a, b in zip(*args)]
        if kind == "*":
            return self.mul(*args)
        if kind == "/":
            return self.div(*args)
        if kind == "pow":
            return self.pow(args[0], *param)
        if kind == "exp":
            return self.exp(args[0])
        if kind == "ln":
            return self.ln(args[0])
        return self.pow(args[0], "0.5", "^+")

    def neg(self, a: str) -> str:
        value = _LITERALS.get(a)
        return self.let(f"-{a}") if value is None else repr(-float(value))

    def add(self, op: str, a: str, b: str) -> str:
        """``a + b`` or ``a - b``: folded for two literals, ``a`` for a - 0.0
        and a + -0.0."""
        left, right = _LITERALS.get(a), _LITERALS.get(b)
        if right is not None:
            if left is not None:
                return repr(float(left + right if op == "+" else left - right))
            if b == ("-0.0" if op == "+" else "0.0"):
                return a
        return self.let(f"{a} {op} {b}")

    def quotient(self, a: str, b: str) -> str:
        """``a / b`` for a divisor checked nonzero, ``a`` for a divisor 1."""
        return a if _LITERALS.get(b) == 1 else self.let(f"{a} / {b}")

    def sum_site(self, terms: list[tuple[str, ...]]) -> str:
        """The value of ``fsum`` over the products ``terms``, by the sum-site
        rule of the comment above; a sparse emitter drops the zero multiples
        of a site of at most two live terms and records their r."""
        products = [" * ".join(factors) for factors in terms]
        live: list[str] = []  # live products, "1.0" for one of literals only
        zeros: list[str] = []  # r of each zero multiple
        zero_products: list[str] = []
        for factors, product in zip(terms, products):
            if _LITERAL_TEXTS.isdisjoint(factors):
                live.append(product)
                continue
            rest = [f for f in factors if f not in _LITERAL_TEXTS]
            if "0.0" not in factors and "-0.0" not in factors:
                live.append(" * ".join(rest) if rest else "1.0")
            elif rest:
                zeros.append(" * ".join(rest))
                zero_products.append(product)
        if len(live) > 2:
            return self.let(_fsum(live + zero_products))
        if self.sparse:
            self.dropped.update(dict.fromkeys(zeros))
            zeros = []
        if not zeros:
            if live.count("1.0") == len(live):
                return f"{len(live)}.0"
            if len(live) == 1:
                return self.let(f"{live[0]} + 0.0")
        if len(zeros) == 1:
            live.append(f"{zeros[0]} * 0.0")
        elif zeros:
            live.append(f"({' + '.join(zeros)}) * 0.0")
        s = self.let(" + ".join(live) + " + 0.0")
        self.lines.append(f"if {s} - {s}: {s} = {_fsum(products)}")
        return s

    def mul(self, u: list[str], v: list[str]) -> list[str]:
        return [self.sum_site([(u[j], v[k - j]) for j in range(k + 1)])
                for k in range(len(u))]

    def div(self, u: list[str], v: list[str]) -> list[str]:
        self.check(f"{v[0]} == 0.0", "division by zero")
        q: list[str] = []
        for k in range(len(u)):
            acc = self.sum_site([(v[j], q[k - j]) for j in range(1, k + 1)])
            q.append(self.quotient(self.add("-", u[k], acc), v[0]))
        return q

    def exp(self, u: list[str]) -> list[str]:
        w = [self.checked_exp(u[0])]
        for k in range(1, len(u)):
            acc = self.sum_site([(str(j), u[j], w[k - j]) for j in range(1, k + 1)])
            w.append(self.quotient(acc, str(k)))
        return w

    def ln(self, u: list[str]) -> list[str]:
        self.check(f"{u[0]} <= 0.0", f"ln of nonpositive value {{{u[0]}!r}}")
        w = [self.let(f"log({u[0]})")]
        for k in range(1, len(u)):
            acc = self.sum_site([(str(j), w[j], u[k - j]) for j in range(1, k)])
            w.append(self.quotient(self.add("-", u[k], self.quotient(acc, str(k))), u[0]))
        return w

    def int_pow(self, u: list[str], c: int) -> list[str]:
        if c.bit_length() > _UNROLLED_POW_BITS:
            # Unrolled, the squaring chain of a huge exponent would cost far
            # more to compile than the reference loop costs to run.
            names = [f"t{len(self.lines)}_{k}" for k in range(len(u))]
            self.lines.append(f"{', '.join(names)}, = _jet_int_pow([{', '.join(u)}], {c})")
            return names
        result = ["1.0"] + ["0.0"] * (len(u) - 1)
        base = u
        e = c
        while e > 0:  # exponentiation by squaring, unrolled
            if e & 1:
                result = self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result

    def pow(self, u: list[str], p: str, c) -> list[str]:
        """``u`` to the power whose value is the text ``p`` and whose shape
        token is ``c``: the exponent itself if an integer, else its sign."""
        n = len(u)
        if isinstance(c, int):
            if c >= 0:
                return self.int_pow(u, c)
            return self.div(["1.0"] + ["0.0"] * (n - 1), self.int_pow(u, -c))
        self.check(f"{u[0]} < 0.0",
                   f"negative base {{{u[0]}!r}} raised to non-integer power {{{p}!r}}")
        if n == 1 and c == "^+":
            return [self.let(f"0.0 if {u[0]} == 0.0 else pow({u[0]}, {p})")]
        self.check(f"{u[0]} == 0.0",
                   f"derivatives of {{{u[0]}!r}}^{{{p}!r}} are singular at a zero base")
        w = [self.let(f"pow({u[0]}, {p})")]
        for k in range(1, n):
            acc = self.sum_site([(self.derive(f"({p} + 1.0) * {j} - {k}"), u[j], w[k - j])
                                 for j in range(1, k + 1)])
            w.append(self.let(f"{acc} / ({k} * {u[0]})" if k > 1 else f"{acc} / {u[0]}"))
        return w


def _shape(root: Node) -> tuple[tuple, list[float]]:
    """The shape of ``root``, the key of its kernel factories, and their
    arguments, the tree's constants and exponents, both in post-order.

    The shape is the tree in postfix, one token per node, as the emitter
    takes it: "c" for a constant, "x", an operator or a function, and for a
    power, its exponent if an integer, else "^+" or "^-" by its sign. No
    other token is a number, so none equals an integer exponent (by way of
    ``1 == 1.0 == True``).
    """
    tokens: list = []
    params: list[float] = []
    _walk_shape(root, tokens, params)
    return tuple(tokens), params


def _walk_shape(node: Node, tokens: list, params: list[float]) -> None:
    # a module function, not a closure: a closure that calls itself is a
    # reference cycle, which only the garbage collector frees
    if isinstance(node, Const):
        params.append(node.value)
        tokens.append("c")
    elif isinstance(node, Var):
        tokens.append("x")
    elif isinstance(node, Neg):
        _walk_shape(node.child, tokens, params)
        tokens.append("neg")
    elif isinstance(node, BinOp):
        _walk_shape(node.left, tokens, params)
        _walk_shape(node.right, tokens, params)
        # as in the walkers, every operator other than + - * divides
        tokens.append(node.op if node.op in ("+", "-", "*") else "/")
    elif isinstance(node, Pow):
        _walk_shape(node.base, tokens, params)
        c = node.exponent
        params.append(c)
        tokens.append(int(c) if float(c).is_integer() else "^+" if c > 0.0 else "^-")
    elif isinstance(node, Call):
        _walk_shape(node.arg, tokens, params)
        tokens.append(node.func if node.func in ("exp", "ln") else "sqrt")
    else:
        raise TypeError(f"not an expression node: {node!r}")


def _factory_source(shape: tuple, order) -> str:
    """The source of the kernel factory of ``shape`` and ``order``: None for
    ``evaluate``, k for the jet of order k, and ``("exact", k)`` for that
    jet's exact kernel, which keeps every zero multiple."""
    exact = isinstance(order, tuple)
    if exact:
        order = order[1]
    emitter = _Emitter(sparse=not exact)
    emit = emitter.scalar if order is None else partial(emitter.jet, n=order + 1)
    stack: list = []
    for token in shape:
        if token == "c":
            stack.append(emit("c", emitter.param()))
        elif token == "x":
            stack.append(emit("x", None))
        elif token in ("+", "-", "*", "/"):
            right = stack.pop()
            stack.append(emit(token, None, stack.pop(), right))
        elif token in ("neg", "exp", "ln", "sqrt"):
            stack.append(emit(token, None, stack.pop()))
        else:
            stack.append(emit("pow", (emitter.param(), token), stack.pop()))
    (result,) = stack
    params = ", ".join(emitter.params)
    if emitter.dropped:
        emitter.prelude.append(f"exact = _exact_rows({params})")
    prelude = "".join(f"    {line}\n" for line in emitter.prelude)
    if order is None:
        body = "".join(f"            {line}\n" for line in emitter.lines)
        return _EVALUATE_FACTORY.format(params=params, prelude=prelude, body=body, result=result)
    names = [f"d{k}" for k in range(len(result))]
    return _BATCH_FACTORY.format(
        params=params,
        prelude=prelude,
        body="".join(f"                {line}\n" for line in emitter.lines or ["pass"]),
        handlers=(_SPARSE_HANDLERS.format(dropped=" + ".join(emitter.dropped))
                  if emitter.dropped else _EXACT_HANDLERS),
        derivs="".join(f"            {d} = {c} * {math.factorial(k)}\n" if k > 1
                       else f"            {d} = {c}\n"
                       for k, (d, c) in enumerate(zip(names, result))),
        finite=" + ".join(f"{d} - {d}" for d in names),
        names=", ".join(names),
    )


def _exact_rows(shape: tuple, order: int, *params: float) -> Callable:
    """``row(x)``: the row at x of the exact jet kernel of ``shape`` and
    ``order`` with ``params``, a sparse kernel's fallback. The kernel is
    built at the first call, from the factory kept under
    ``(shape, ("exact", order))``."""
    kernel = None

    def row(x: float):
        nonlocal kernel
        if kernel is None:
            kernel = _code_table.factory(shape, ("exact", order))(*params)
        return kernel((x,))[0]

    return row


class _LruTable:
    """A least-recently-used map shared by threads, bounded by the total size
    of its entries.

    ``put`` states each entry's size, and an insert evicts the least recently
    used entries until the total ``chars`` is at most ``bound``; an entry
    larger than the bound is not kept, and evicts nothing. Callers build
    values outside the lock; a race at worst builds one twice, and the first
    ``put`` of a key is kept.
    """

    def __init__(self, bound: int) -> None:
        self._entries: OrderedDict[object, tuple[object, int]] = OrderedDict()
        self.chars = 0
        self._bound = bound
        self._lock = threading.Lock()

    def get(self, key):
        """The value kept under ``key``, or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key, value, size: int) -> None:
        with self._lock:
            if key not in self._entries and size <= self._bound:
                self._entries[key] = value, size
                self.chars += size
                while self.chars > self._bound:
                    self.chars -= self._entries.popitem(last=False)[1][1]


# Bound on the total characters of the sources whose factories the table keeps.
_CODE_TABLE_CHARS = 1_000_000


class _CodeTable(_LruTable):
    """Kernel factories by (shape, order), shared by every tree, and the
    factories of exact jet kernels by (shape, ("exact", order)).

    A factory's source is emitted and compiled, most of a kernel's build
    cost, once per shape and order in a process; each tree's kernel is then
    one call of the factory with the tree's constants and exponents. The
    table is bounded by the characters of the kept sources,
    :data:`_CODE_TABLE_CHARS` by default, so a source longer than the bound
    is compiled and used but not kept.
    """

    def __init__(self, bound: int = _CODE_TABLE_CHARS) -> None:
        super().__init__(bound)

    def factory(self, shape: tuple, order: int | None) -> Callable:
        key = (shape, order)
        make = self.get(key)
        if make is None:
            source = _factory_source(shape, order)
            namespace = dict(_KERNEL_GLOBALS, _exact_rows=partial(_exact_rows, shape, order))
            exec(compile(source, "<youngbounds kernel>", "exec"), namespace)
            make = namespace.pop("make")  # the namespace is make's globals: no cycle
            self.put(key, make, len(source))
        return make


_code_table = _CodeTable()


def _compile(root: Node, order: int | None):
    """The batch kernel ``kernel(xs)`` of ``evaluate`` (``order`` None) or of
    the jet of ``order``: a shape walk of ``root`` and one call of its factory.

    The evaluate kernel returns a list of raw values, one per abscissa, or
    raises the :class:`DomainError` of the first abscissa its body fails
    at. A jet kernel returns a list with, per abscissa, the derivatives
    (each coefficient times k!) or the :class:`DomainError` ``jet`` raises
    there.
    """
    shape, params = _shape(root)
    return _code_table.factory(shape, order)(*params)


def _kernel(ast: ExprAst | Node, order: int | None):
    """The cached kernel of ``ast``; a bare Node is built on every call."""
    if not isinstance(ast, ExprAst):
        return _compile(ast, order)
    kernel = ast._kernels.get(order)
    if kernel is None:
        kernel = ast._kernels[order] = _compile(ast.root, order)
    return kernel


# ---------------------------------------------------------------------------
# Public evaluation and jets
# ---------------------------------------------------------------------------

def evaluate(ast: ExprAst | Node, x: float) -> float:
    """IEEE-double evaluation of the tree at ``x``.

    The kernel is cached on an :class:`ExprAst`. A bare :data:`Node` has no
    cache, and every call builds its kernel again by a shape walk and a
    factory call, some 5-10 µs against under 1 µs for a cached kernel (the
    first tree of a shape also emits and compiles its factory, some
    0.1-0.2 ms), so wrap a node evaluated often in an ExprAst once.
    """
    (value,) = _kernel(ast, None)((x,))
    if not math.isfinite(value):
        raise DomainError(f"non-finite result {value!r} at x={x!r}")
    return value


def evaluate_rows(ast: ExprAst | Node, xs) -> list[float]:
    """``[evaluate(ast, x) for x in xs]``, values or the first error alike.

    One call of the evaluate kernel on the sequence ``xs``. Where that
    raises :class:`DomainError`, or the values' sum is not finite, the batch
    is read again point by point, which raises the error of the first
    failing abscissa, as the list would.
    """
    try:
        values = _kernel(ast, None)(xs)
        if math.isfinite(sum(values)):
            return values
    except DomainError:
        pass
    return [evaluate(ast, x) for x in xs]


def _jet_kernel(ast: ExprAst | Node, order: int):
    """The jet kernel of ``order``, after the order check both entry points share."""
    if not 0 <= order <= DEFAULT_ORDER_CAP:
        raise OrderCapError(f"order {order} outside [0, {DEFAULT_ORDER_CAP}]")
    return _kernel(ast, order)


def _jet_derivs(ast: ExprAst | Node, x: float, order: int) -> tuple[float, ...]:
    """``jet(ast, x, order).derivs``: one run of the batch kernel of
    ``order`` on ``(x,)``, raising the :class:`DomainError` it gives there,
    without the :class:`TaylorJet` wrapper."""
    (row,) = _jet_kernel(ast, order)((x,))
    if isinstance(row, DomainError):
        try:
            raise row
        finally:
            row = None  # the frame of the traceback keeps no error
    return row


def _jet_reader(ast: ExprAst | Node, k: int) -> Callable[[float], float]:
    """``lambda x: _jet_derivs(ast, x, k)[k]``, h^(k) alone, with the kernel
    of order ``k`` looked up once, here, not at each read: a read is one
    kernel call on ``(x,)``, and raises the :class:`DomainError` the jet
    gives there. The order check runs once, when the reader is made."""
    kernel = _jet_kernel(ast, k)

    def read(x: float) -> float:
        (row,) = kernel((x,))
        if isinstance(row, DomainError):
            try:
                raise row
            finally:
                row = None  # the frame of the traceback keeps no error
        return row[k]

    return read


def jet(ast: ExprAst | Node, x0: float, order: int) -> TaylorJet:
    """Derivatives h^(0)..h^(order) at ``x0`` via truncated-Taylor propagation.

    ``derivs[k]`` is the k-th Taylor coefficient rescaled by the exact integer
    k!, so the only rounding beyond the propagation itself is one final
    correctly-rounded float-by-int multiply per order.

    It runs the batch kernel of ``order`` on the one abscissa ``x0`` and
    raises the :class:`DomainError` the kernel gives there. As in
    :func:`evaluate`, a bare :data:`Node` builds its kernel again on every
    call; an :class:`ExprAst` reuses its kernel. A scan over
    many abscissae should call :func:`jet_rows`, which runs the kernel once
    for the whole scan and skips the :class:`TaylorJet` wrapper.
    """
    return TaylorJet(center=x0, order=order, derivs=_jet_derivs(ast, x0, order))


def jet_rows(ast: ExprAst | Node, xs, order: int) -> list[tuple[float, ...] | None]:
    """``jet(ast, x, order).derivs`` for each x of ``xs``, None where that
    raises :class:`DomainError`.

    One call of the batch kernel of ``order``, which loops over ``xs``
    itself; each row is the same bits :func:`jet` returns. An order outside
    [0, :data:`DEFAULT_ORDER_CAP`] raises up front, as in :func:`jet`. A
    caller that needs the message of a failed point gets it from one
    :func:`jet` call there.

    A row that succeeded is a tuple and a failed one a DomainError, so
    where every row is a tuple, which one built-in pass tells, the kernel's
    list is returned as it is, with no pass over the rows in Python.
    """
    rows = _jet_kernel(ast, order)(xs)
    if all(map(tuple.__instancecheck__, rows)):
        return rows
    return [None if isinstance(row, DomainError) else row for row in rows]
