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

``evaluate`` runs a straight-line kernel, and each jet order a batch kernel:
one loop over its abscissae around the same straight-line body, which gives
one row per abscissa, the derivatives or the :class:`DomainError` that
``jet`` raises there. ``jet`` runs a batch of one and ``jet_rows`` a whole
scan. Kernels are emitted once per expression (and per jet order) and cached
on the :class:`ExprAst`, and ``parse_expr`` returns the same ExprAst for a
text parsed again. A kernel's source holds no constant, so expressions
of one shape share its compiled code through a bounded, locked table, and
each distinct source is compiled once per process. The recursive evaluation
walker stays below, for constant folding and as a reference; the jet walkers
the kernels were generated from are in ``tests/reference_expr.py``, and the
tests hold the kernels to both bit for bit.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from types import CodeType
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
    ``parse_expr`` shares one ExprAst, and so its kernels, among the callers
    that parse one text again.
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


# Bound on the texts the parse table keeps, and on those it remembers seeing.
_PARSE_TABLE_SIZE = 256


class _ParseTable:
    """Parsed expressions by text, for :func:`parse_expr`.

    A text is kept from its second parse on: the first leaves only a weak
    reference to its tree, which a second parse reuses, and keeps, while the
    tree is still in use. A tree and its kernels are some 20-30 objects that
    the garbage collector tracks, and keeping those of texts parsed only
    once (every ``sweep`` instance) moved them all into the oldest
    generation and doubled its full collections.

    Both maps are LRUs of :data:`_PARSE_TABLE_SIZE` texts under one lock;
    parsing runs outside it, so a race at worst parses a text twice. A text
    that fails to parse leaves no entry.
    """

    def __init__(self) -> None:
        self._kept: OrderedDict[str, ExprAst] = OrderedDict()
        self._seen: OrderedDict[str, weakref.ref] = OrderedDict()
        self._lock = threading.Lock()

    def parse(self, text: str) -> ExprAst:
        with self._lock:
            ast = self._kept.get(text)
            if ast is not None:
                self._kept.move_to_end(text)
                return ast
            seen = self._seen.pop(text, None)
        ast = seen() if seen is not None else None
        if ast is None:
            ast = ExprAst(_Parser(_tokenize(text)).parse(), text)
        with self._lock:
            if seen is None:
                table, entry = self._seen, weakref.ref(ast)
            else:
                table, entry = self._kept, ast
            table[text] = entry
            table.move_to_end(text)
            if len(table) > _PARSE_TABLE_SIZE:
                table.popitem(last=False)
        return ast


_parse_table = _ParseTable()


def parse_expr(text: str) -> ExprAst:
    """Parse ``text`` into an :class:`ExprAst`.

    Raises :class:`ExprSyntaxError` (with the offending offset) on malformed
    input and :class:`UnsupportedFeatureError` for exponents containing x.

    The result is shared: a bounded, thread-safe table keeps the tree of each
    of the last :data:`_PARSE_TABLE_SIZE` texts parsed more than once, so such
    a text returns the same :class:`ExprAst`, and the kernels cached on it
    are emitted once. A second parse also returns the first tree while that
    is still in use. The text is the key, not the tree, since trees that
    differ only in the sign of a zero constant are equal. A text that fails
    to parse is not kept; it raises again on every call.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _parse_table.parse(text)


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
# the tree: ``evaluate``, and the jet of each requested order, whose body runs
# in a loop over a batch of abscissae. Every value comes out as the same bits
# as in the reference walkers (the same unrolled squarings, the same products,
# the value or the error of ``fsum`` over the same terms). Constants and
# exponents reach the source only as names bound in the kernel's namespace;
# operators and functions come from fixed sets.
#
# Jets fold the literals 0.0, -0.0 and 1.0 (the coefficients of x and of
# constants) and the factor 1 at emit time, on their text alone, never on
# the value of a bound constant, so same-shape expressions still share one
# source: the sum or difference of two literals is a literal, a product
# drops its factors 1 (one of literals only is 0.0 or 1.0), and ``a - 0.0``,
# ``a + -0.0``, ``a / 1`` and the scalings by 0! and 1! are ``a``. Each
# Taylor coefficient's fsum over products is a sum site. A product with a
# factor 0.0 is a zero multiple: dropped when it has no other factor, and
# otherwise ±0 whenever r, the product of its other factors, is finite.
# With m live terms (the others) and zero multiples r1..rj, a site is
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


# A jet kernel: the body at x in a loop over the batch xs, one row per x.
# ``jet``'s error rule is part of it: the body's own DomainError, kept
# without its traceback or context; math.pow overflowing, or fsum overflowing
# or meeting inf - inf, as a DomainError naming x; and a non-finite
# derivative, found by the sum of each d - d, which is 0.0 for a finite d and
# nan otherwise (the partial sums alternate between 0.0 and one d, exactly).
_BATCH_KERNEL = """\
def kernel(xs):
    rows = []
    append = rows.append
    for x in xs:
        try:
{body}\
        except DomainError as exc:
            exc.__traceback__ = exc.__context__ = None
            append(exc)
            continue
        except (OverflowError, ValueError) as exc:
            append(DomainError(f"{{exc}} at x={{x!r}}"))
            continue
{derivs}\
        if {finite} == 0.0:
            append(({names},))
        else:
            append(_non_finite(({names},), x))
    return rows
"""


class _Emitter:
    """Body lines, at one abscissa ``x``, and namespace of one kernel.

    A value is the source text of a name or a float literal, never of a
    compound expression, so operands need no parentheses.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.namespace: dict[str, object] = {
            "fsum": math.fsum, "exp": math.exp, "log": math.log, "sqrt": math.sqrt,
            "pow": math.pow, "_pow_real": _pow_real, "_jet_int_pow": _jet_int_pow,
            "DomainError": DomainError, "_non_finite": _non_finite,
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
            return [self.neg(c) for c in args[0]]
        if kind in ("+", "-"):
            return [self.add(kind, a, b) for a, b in zip(*args)]
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
        rule of the comment above."""
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
            acc = self.sum_site([(self.bind((c + 1.0) * j - k), u[j], w[k - j])
                                 for j in range(1, k + 1)])
            w.append(self.let(f"{acc} / ({k} * {u[0]})" if k > 1 else f"{acc} / {u[0]}"))
        return w


# Bound on the total characters of the sources whose code the table keeps.
_CODE_TABLE_CHARS = 1_000_000


class _CodeTable:
    """Compiled kernel code by source text, shared by every :class:`ExprAst`.

    Constants reach a kernel only through its namespace, so expressions that
    differ only in their constants emit the same source, and CPython's
    ``compile`` of it, most of a kernel's build cost, runs once per process.
    Each kernel still executes the shared code in its own namespace.

    An LRU bounded by the total characters of the kept sources: an insert
    evicts the least recently used entries until the total is at most
    :data:`_CODE_TABLE_CHARS`, so a source longer than the bound is compiled,
    used and dropped (with every older entry). ``compile`` runs outside the
    lock; a race at worst compiles one source twice.
    """

    def __init__(self) -> None:
        self._codes: OrderedDict[str, CodeType] = OrderedDict()
        self.chars = 0
        self._lock = threading.Lock()

    def code(self, source: str) -> CodeType:
        with self._lock:
            code = self._codes.get(source)
            if code is not None:
                self._codes.move_to_end(source)
                return code
        code = compile(source, "<youngbounds kernel>", "exec")
        with self._lock:
            if source not in self._codes:
                self._codes[source] = code
                self.chars += len(source)
                while self.chars > _CODE_TABLE_CHARS:
                    self.chars -= len(self._codes.popitem(last=False)[0])
        return code


_code_table = _CodeTable()


def _compile(root: Node, order: int | None):
    """The kernel of ``evaluate`` (``order`` None), ``kernel(x)``, or the batch
    kernel of the jet of ``order``, ``kernel(xs)``.

    The batch kernel returns a list with, per abscissa, the derivatives (each
    coefficient times k!) or the :class:`DomainError` ``jet`` raises there.
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
    if order is None:
        source = "".join(f"    {line}\n" for line in emitter.lines)
        source = f"def kernel(x):\n{source}    return {result}\n"
    else:
        names = [f"d{k}" for k in range(len(result))]
        source = _BATCH_KERNEL.format(
            body="".join(f"            {line}\n" for line in emitter.lines or ["pass"]),
            derivs="".join(f"        {d} = {c} * {math.factorial(k)}\n" if k > 1
                           else f"        {d} = {c}\n"
                           for k, (d, c) in enumerate(zip(names, result))),
            finite=" + ".join(f"{d} - {d}" for d in names),
            names=", ".join(names),
        )
    exec(_code_table.code(source), emitter.namespace)
    return emitter.namespace["kernel"]


def _kernel(ast: ExprAst | Node, order: int | None):
    """The cached kernel of ``ast``; a bare Node is emitted on every call."""
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
    cache and its kernel is emitted again on every call, some 10-20 µs
    against under 1 µs for a cached kernel (and compiled too, some 50-120 µs
    more, where the code table lacks its source), so wrap a node evaluated
    often in an ExprAst once.
    """
    value = _kernel(ast, None)(x)
    if not math.isfinite(value):
        raise DomainError(f"non-finite result {value!r} at x={x!r}")
    return value


def _jet_kernel(ast: ExprAst | Node, order: int, cap: int):
    """The jet kernel of ``order``, after the order checks both entry points share."""
    if not 0 <= order <= cap:
        raise OrderCapError(f"order {order} outside [0, {cap}]")
    return _kernel(ast, order)


def jet(ast: ExprAst | Node, x0: float, order: int, cap: int = DEFAULT_ORDER_CAP) -> TaylorJet:
    """Derivatives h^(0)..h^(order) at ``x0`` via truncated-Taylor propagation.

    ``derivs[k]`` is the k-th Taylor coefficient rescaled by the exact integer
    k!, so the only rounding beyond the propagation itself is one final
    correctly-rounded float-by-int multiply per order.

    It runs the batch kernel of ``order`` on the one abscissa ``x0`` and
    raises the :class:`DomainError` the kernel gives there. As in
    :func:`evaluate`, a bare :data:`Node` is emitted again on every call (some
    25-80 µs at order 2); an :class:`ExprAst` reuses its kernel. A scan over
    many abscissae should call :func:`jet_rows`, which runs the kernel once
    for the whole scan and skips the :class:`TaylorJet` wrapper.
    """
    (row,) = _jet_kernel(ast, order, cap)((x0,))
    if isinstance(row, DomainError):
        raise row
    return TaylorJet(center=x0, order=order, derivs=row)


def jet_rows(
    ast: ExprAst | Node, xs, order: int, cap: int = DEFAULT_ORDER_CAP
) -> list[tuple[float, ...] | None]:
    """``jet(ast, x, order).derivs`` for each x of ``xs``, None where that
    raises :class:`DomainError`.

    One call of the batch kernel of ``order``, which loops over ``xs``
    itself; each row is the same bits :func:`jet` returns. Order and cap
    errors are raised up front, as :func:`jet` raises them. A caller that
    needs the message of a failed point gets it from one :func:`jet` call
    there.
    """
    rows = _jet_kernel(ast, order, cap)(xs)
    return [None if isinstance(row, DomainError) else row for row in rows]
