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

``evaluate`` and ``jet`` run straight-line kernels, compiled once per
expression (and per jet order) and cached on the :class:`ExprAst`. The
recursive tree walkers they were generated from stay below as the reference
implementation, and the tests hold the kernels to it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Union

from .errors import DomainError, ExprSyntaxError, OrderCapError, UnsupportedFeatureError

__all__ = [
    "Const", "Var", "Neg", "BinOp", "Pow", "Call", "Node",
    "ExprAst", "TaylorJet",
    "parse_expr", "evaluate", "serialize", "jet", "jet_rows",
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

    ``_kernels`` caches the compiled ``evaluate`` kernel (key None) and one
    jet kernel per order; it takes no part in equality, hashing or repr.
    """

    root: Node
    source: str
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExprAst) and self.root == other.root

    def __hash__(self) -> int:
        return hash(self.root)


@dataclass(frozen=True)
class TaylorJet:
    """Derivatives h^(0)..h^(order) of an expression at ``center``."""

    center: float
    order: int
    derivs: tuple[float, ...]

    def deriv(self, k: int) -> float:
        return self.derivs[k]


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
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

    def _expression(self) -> tuple[Node, int]:
        node, depth = self._term()
        while self._peek().kind == "op" and self._peek().text in "+-":
            tok = self._next()
            right, rdepth = self._term()
            node = BinOp(tok.text, node, right)
            depth = (depth if depth > rdepth else rdepth) + 1
            if depth > MAX_DEPTH:
                raise self._too_deep(tok.pos)
        return node, depth

    def _term(self) -> tuple[Node, int]:
        node, depth = self._unary()
        while self._peek().kind == "op" and self._peek().text in "*/":
            tok = self._next()
            right, rdepth = self._unary()
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
            if _contains_var(exponent):
                raise UnsupportedFeatureError(
                    f"exponent must be a constant expression (offset {pos})"
                )
            depth = (depth if depth > edepth else edepth) + 1
            if depth > MAX_DEPTH:
                raise self._too_deep(pos)
            return Pow(base, _fold_constant(exponent)), depth
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


def _contains_var(node: Node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Neg):
        return _contains_var(node.child)
    if isinstance(node, BinOp):
        return _contains_var(node.left) or _contains_var(node.right)
    if isinstance(node, Pow):
        return _contains_var(node.base)
    if isinstance(node, Call):
        return _contains_var(node.arg)
    return False


def _fold_constant(node: Node) -> float:
    try:
        value = _eval_node(node, 0.0)  # no Var inside by construction
    except DomainError as exc:
        raise UnsupportedFeatureError(f"exponent is not a finite constant: {exc}") from None
    if not math.isfinite(value):
        raise UnsupportedFeatureError(f"exponent folds to non-finite value {value!r}")
    return value


def parse_expr(text: str) -> ExprAst:
    """Parse ``text`` into an :class:`ExprAst`.

    Raises :class:`ExprSyntaxError` (with the offending offset) on malformed
    input and :class:`UnsupportedFeatureError` for exponents containing x.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return ExprAst(_Parser(_tokenize(text)).parse(), text)


# ---------------------------------------------------------------------------
# Reference evaluation: a recursive tree walk. ``_fold_constant`` runs it at
# parse time, and the tests hold the compiled kernels to it.
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


def _eval_node(node: Node, x: float) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_eval_node(node.child, x)
    if isinstance(node, BinOp):
        a = _eval_node(node.left, x)
        b = _eval_node(node.right, x)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0.0:
            raise DomainError("division by zero")
        return a / b
    if isinstance(node, Pow):
        return _pow_real(_eval_node(node.base, x), node.exponent)
    if isinstance(node, Call):
        v = _eval_node(node.arg, x)
        if node.func == "exp":
            try:
                return math.exp(v)
            except OverflowError:
                raise DomainError(f"overflow in exp({v!r})") from None
        if node.func == "ln":
            if v <= 0.0:
                raise DomainError(f"ln of nonpositive value {v!r}")
            return math.log(v)
        if v < 0.0:
            raise DomainError(f"sqrt of negative value {v!r}")
        return math.sqrt(v)
    raise TypeError(f"not an expression node: {node!r}")


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
# Reference jet (truncated Taylor) arithmetic: a recursive tree walk over
# coefficient lists. The compiled kernels below unroll these recurrences, and
# the tests hold them to it.
# ---------------------------------------------------------------------------

def _jet_mul(u: list[float], v: list[float]) -> list[float]:
    n = len(u)
    return [math.fsum(u[j] * v[k - j] for j in range(k + 1)) for k in range(n)]


def _jet_div(u: list[float], v: list[float]) -> list[float]:
    if v[0] == 0.0:
        raise DomainError("division by zero")
    n = len(u)
    q = [0.0] * n
    for k in range(n):
        acc = u[k] - math.fsum(v[j] * q[k - j] for j in range(1, k + 1))
        q[k] = acc / v[0]
    return q


def _jet_exp(u: list[float]) -> list[float]:
    n = len(u)
    try:
        w0 = math.exp(u[0])
    except OverflowError:
        raise DomainError(f"overflow in exp({u[0]!r})") from None
    w = [w0] + [0.0] * (n - 1)
    for k in range(1, n):
        w[k] = math.fsum(j * u[j] * w[k - j] for j in range(1, k + 1)) / k
    return w


def _jet_ln(u: list[float]) -> list[float]:
    if u[0] <= 0.0:
        raise DomainError(f"ln of nonpositive value {u[0]!r}")
    n = len(u)
    w = [math.log(u[0])] + [0.0] * (n - 1)
    for k in range(1, n):
        acc = u[k] - math.fsum(j * w[j] * u[k - j] for j in range(1, k)) / k
        w[k] = acc / u[0]
    return w


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


def _jet_pow(u: list[float], c: float) -> list[float]:
    n = len(u)
    if float(c).is_integer():
        ci = int(c)
        if ci >= 0:
            return _jet_int_pow(u, ci)
        one = [1.0] + [0.0] * (n - 1)
        return _jet_div(one, _jet_int_pow(u, -ci))
    if u[0] < 0.0:
        raise DomainError(f"negative base {u[0]!r} raised to non-integer power {c!r}")
    if u[0] == 0.0:
        if n == 1 and c > 0.0:
            return [0.0]
        raise DomainError(f"derivatives of {u[0]!r}^{c!r} are singular at a zero base")
    w = [math.pow(u[0], c)] + [0.0] * (n - 1)
    for k in range(1, n):
        acc = math.fsum(((c + 1.0) * j - k) * u[j] * w[k - j] for j in range(1, k + 1))
        w[k] = acc / (k * u[0])
    return w


def _jet_node(node: Node, x0: float, order: int) -> list[float]:
    n = order + 1
    if isinstance(node, Const):
        return [node.value] + [0.0] * (n - 1)
    if isinstance(node, Var):
        coeffs = [x0] + [0.0] * (n - 1)
        if n > 1:
            coeffs[1] = 1.0
        return coeffs
    if isinstance(node, Neg):
        return [-c for c in _jet_node(node.child, x0, order)]
    if isinstance(node, BinOp):
        u = _jet_node(node.left, x0, order)
        v = _jet_node(node.right, x0, order)
        if node.op == "+":
            return [a + b for a, b in zip(u, v)]
        if node.op == "-":
            return [a - b for a, b in zip(u, v)]
        if node.op == "*":
            return _jet_mul(u, v)
        return _jet_div(u, v)
    if isinstance(node, Pow):
        return _jet_pow(_jet_node(node.base, x0, order), node.exponent)
    if isinstance(node, Call):
        u = _jet_node(node.arg, x0, order)
        if node.func == "exp":
            return _jet_exp(u)
        if node.func == "ln":
            return _jet_ln(u)
        return _jet_pow(u, 0.5)
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Compiled kernels
#
# Each kernel is one straight-line function, emitted by a post-order walk of
# the tree: ``evaluate``, and the jet of each requested order. Every value goes
# through the same float operations, in the same order, as in the reference
# walkers above (``fsum`` over a tuple of the same terms, the same unrolled
# squarings), so the kernels return the same bits. Constants and exponents
# reach the source only as names bound in the kernel's namespace; operators
# and functions come from fixed sets.
# ---------------------------------------------------------------------------

# Integer powers up to 2^8 - 1 are unrolled; larger ones call _jet_int_pow.
_UNROLLED_POW_BITS = 8


def _fsum(terms: list[str]) -> str:
    return f"fsum(({', '.join(terms)},))" if terms else "0.0"


def _raise(message: str) -> str:
    """Source raising DomainError; ``message`` is the body of an f-string."""
    return f"raise DomainError(f{message!r})"


class _Emitter:
    """Lines and namespace of one kernel ``def kernel(x)``.

    A value is the source text of a name or a float literal, never of a
    compound expression, so operands need no parentheses.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.namespace: dict[str, object] = {
            "fsum": math.fsum, "exp": math.exp, "log": math.log, "sqrt": math.sqrt,
            "pow": math.pow, "_pow_real": _pow_real, "_jet_int_pow": _jet_int_pow,
            "DomainError": DomainError,
        }

    def bind(self, value: object) -> str:
        name = f"k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def let(self, src: str) -> str:
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {src}")
        return name

    def check(self, cond: str, message: str) -> None:
        self.lines.append(f"if {cond}: {_raise(message)}")

    def checked_exp(self, u0: str) -> str:
        name = f"t{len(self.lines)}"
        self.lines.append(f"try: {name} = exp({u0})")
        self.lines.append(f"except OverflowError: {_raise(f'overflow in exp({{{u0}!r}})')} from None")
        return name

    # -- evaluate: one float per node -------------------------------------

    def scalar(self, kind: str, param, *args: str) -> str:
        if kind == "const":
            return self.bind(param)
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
            return self.let(f"_pow_real({args[0]}, {self.bind(param)})")
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
        if kind == "const":
            return [self.bind(param)] + ["0.0"] * (n - 1)
        if kind == "x":
            return (["x", "1.0"] + ["0.0"] * n)[:n]
        if kind == "neg":
            return [self.let(f"-{c}") for c in args[0]]
        if kind in ("+", "-"):
            return [self.let(f"{a} {kind} {b}") for a, b in zip(*args)]
        if kind == "*":
            return self.mul(*args)
        if kind == "/":
            return self.div(*args)
        if kind == "pow":
            return self.pow(args[0], param)
        if kind == "exp":
            return self.exp(args[0])
        if kind == "ln":
            return self.ln(args[0])
        return self.pow(args[0], 0.5)

    def mul(self, u: list[str], v: list[str]) -> list[str]:
        return [self.let(_fsum([f"{u[j]} * {v[k - j]}" for j in range(k + 1)]))
                for k in range(len(u))]

    def div(self, u: list[str], v: list[str]) -> list[str]:
        self.check(f"{v[0]} == 0.0", "division by zero")
        q: list[str] = []
        for k in range(len(u)):
            acc = _fsum([f"{v[j]} * {q[k - j]}" for j in range(1, k + 1)])
            q.append(self.let(f"({u[k]} - {acc}) / {v[0]}"))
        return q

    def exp(self, u: list[str]) -> list[str]:
        w = [self.checked_exp(u[0])]
        for k in range(1, len(u)):
            w.append(self.let(
                f"{_fsum([f'{j} * {u[j]} * {w[k - j]}' for j in range(1, k + 1)])} / {k}"
            ))
        return w

    def ln(self, u: list[str]) -> list[str]:
        self.check(f"{u[0]} <= 0.0", f"ln of nonpositive value {{{u[0]}!r}}")
        w = [self.let(f"log({u[0]})")]
        for k in range(1, len(u)):
            acc = _fsum([f"{j} * {w[j]} * {u[k - j]}" for j in range(1, k)])
            w.append(self.let(f"({u[k]} - {acc} / {k}) / {u[0]}"))
        return w

    def int_pow(self, u: list[str], c: int) -> list[str]:
        if c.bit_length() > _UNROLLED_POW_BITS:
            # Unrolled, the squaring chain of a huge exponent would cost far
            # more to compile than the reference loop costs to run.
            names = [f"t{len(self.lines)}_{k}" for k in range(len(u))]
            self.lines.append(
                f"{', '.join(names)}, = _jet_int_pow([{', '.join(u)}], {self.bind(c)})"
            )
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

    def pow(self, u: list[str], c: float) -> list[str]:
        n = len(u)
        if float(c).is_integer():
            ci = int(c)
            if ci >= 0:
                return self.int_pow(u, ci)
            return self.div(["1.0"] + ["0.0"] * (n - 1), self.int_pow(u, -ci))
        p = self.bind(c)
        self.check(f"{u[0]} < 0.0",
                   f"negative base {{{u[0]}!r}} raised to non-integer power {{{p}!r}}")
        if n == 1 and c > 0.0:
            return [self.let(f"0.0 if {u[0]} == 0.0 else pow({u[0]}, {p})")]
        self.check(f"{u[0]} == 0.0",
                   f"derivatives of {{{u[0]}!r}}^{{{p}!r}} are singular at a zero base")
        w = [self.let(f"pow({u[0]}, {p})")]
        for k in range(1, n):
            terms = [f"{self.bind((c + 1.0) * j - k)} * {u[j]} * {w[k - j]}"
                     for j in range(1, k + 1)]
            w.append(self.let(f"{_fsum(terms)} / ({k} * {u[0]})"))
        return w


def _compile(root: Node, order: int | None):
    """The kernel of ``evaluate`` (``order`` None) or of the jet of ``order``.

    The jet kernel returns the derivatives, each coefficient times k!.
    """
    emitter = _Emitter()
    emit = emitter.scalar if order is None else partial(emitter.jet, n=order + 1)

    def visit(node: Node):
        if isinstance(node, Const):
            return emit("const", node.value)
        if isinstance(node, Var):
            return emit("x", None)
        if isinstance(node, Neg):
            return emit("neg", None, visit(node.child))
        if isinstance(node, BinOp):
            left = visit(node.left)
            # as in the walkers, every operator other than + - * divides
            op = node.op if node.op in ("+", "-", "*") else "/"
            return emit(op, None, left, visit(node.right))
        if isinstance(node, Pow):
            return emit("pow", node.exponent, visit(node.base))
        if isinstance(node, Call):
            return emit(node.func if node.func in ("exp", "ln") else "sqrt", None, visit(node.arg))
        raise TypeError(f"not an expression node: {node!r}")

    result = visit(root)
    if order is not None:
        result = "(" + "".join(f"{c} * {math.factorial(k)}, " for k, c in enumerate(result)) + ")"
    source = "".join(f"    {line}\n" for line in emitter.lines)
    source = f"def kernel(x):\n{source}    return {result}\n"
    exec(compile(source, "<youngbounds kernel>", "exec"), emitter.namespace)
    return emitter.namespace["kernel"]


def _kernel(ast: ExprAst | Node, order: int | None):
    """The cached kernel of ``ast``; a bare Node is compiled on every call."""
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
    cache and is compiled again on every call, some 50-150 µs against a few
    µs for a cached kernel, so wrap a node evaluated often in an ExprAst once.
    """
    value = _kernel(ast, None)(x)
    if not math.isfinite(value):
        raise DomainError(f"non-finite result {value!r} at x={x!r}")
    return value


def _jet_kernel(ast: ExprAst | Node, order: int, cap: int):
    """The jet kernel of ``order``, after the order checks both entry points share."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if order > cap:
        raise OrderCapError(f"order {order} exceeds cap {cap}")
    return _kernel(ast, order)


def _derivs(kernel, x0: float) -> tuple[float, ...]:
    """The kernel's derivatives at ``x0``, or DomainError where the jet is undefined."""
    try:
        derivs = kernel(x0)
    except (OverflowError, ValueError) as exc:
        # math.pow overflowing, or fsum overflowing or meeting inf - inf
        raise DomainError(f"{exc} at x={x0!r}") from None
    if not all(map(math.isfinite, derivs)):
        k = next(k for k, v in enumerate(derivs) if not math.isfinite(v))
        raise DomainError(f"non-finite derivative of order {k} at x={x0!r}")
    return derivs


def jet(ast: ExprAst | Node, x0: float, order: int, cap: int = DEFAULT_ORDER_CAP) -> TaylorJet:
    """Derivatives h^(0)..h^(order) at ``x0`` via truncated-Taylor propagation.

    ``derivs[k]`` is the k-th Taylor coefficient rescaled by the exact integer
    k!, so the only rounding beyond the propagation itself is one final
    correctly-rounded float-by-int multiply per order.

    As in :func:`evaluate`, a bare :data:`Node` is compiled again on every
    call (some 0.2-0.5 ms at order 2); an :class:`ExprAst` reuses its kernel.
    A scan over many abscissae should call :func:`jet_rows`, which skips the
    per-call checks and the :class:`TaylorJet` wrapper.
    """
    derivs = _derivs(_jet_kernel(ast, order, cap), x0)
    return TaylorJet(center=x0, order=order, derivs=derivs)


def jet_rows(
    ast: ExprAst | Node, xs, order: int, cap: int = DEFAULT_ORDER_CAP
) -> list[tuple[float, ...] | None]:
    """``jet(ast, x, order).derivs`` for each x of ``xs``, None where that
    raises :class:`DomainError`.

    One kernel lookup and one loop for the whole batch; each row is the same
    bits :func:`jet` returns. Order and cap errors are raised up front, as
    :func:`jet` raises them. A caller that needs the message of a failed
    point gets it from one :func:`jet` call there.
    """
    kernel = _jet_kernel(ast, order, cap)
    rows: list[tuple[float, ...] | None] = []
    for x in xs:
        try:
            rows.append(_derivs(kernel, x))
        except DomainError:
            rows.append(None)
    return rows
