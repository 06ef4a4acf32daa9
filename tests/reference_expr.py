"""Reference evaluation and jet (truncated Taylor) arithmetic: recursive
tree walks over floats and over coefficient lists.

The compiled kernels in ``youngbounds.expr`` unroll these walks, and the
tests hold them to the walks bit for bit. Real powers, products and integer
powers come from ``youngbounds.expr``, whose kernels call them too.
"""

from __future__ import annotations

import math

from youngbounds.errors import DomainError
from youngbounds.expr import (
    BinOp,
    Call,
    Const,
    Neg,
    Node,
    Pow,
    Var,
    _jet_int_pow,
    _jet_mul,
    _pow_real,
)


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
