"""The scalar Gauss-Kronrod quadrature that ``numerics.integrate`` replaced.

``integrate`` reads each panel's 15 nodes in one call of a batch integrand.
This module keeps the loop it was written from, which calls a scalar
integrand once per node, so the tests can hold the batch form to it: the
same ``QuadratureResult``, bit for bit, or the same error class and
message. The rule's nodes and weights are the module's own.
"""

from __future__ import annotations

import heapq
import math

from youngbounds.errors import NoConvergenceError
from youngbounds.numerics import (
    _EPS, _WG, _WG_CENTER, _WGK, _WGK_CENTER, _XGK, QuadratureResult,
)


def rows(f):
    """The batch integrand of the scalar ``f``: its values at a list of
    abscissae, in order, as ``integrate`` takes it."""
    return lambda xs: [f(x) for x in xs]


def reference_gk15(f, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 15/7 pass on [a, b]: (K15 value, |K15 - G7|)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid)
    resk = _WGK_CENTER * fc
    resg = _WG_CENTER * fc
    for j, xk in enumerate(_XGK):
        dx = half * xk
        s = f(mid - dx) + f(mid + dx)
        resk += _WGK[j] * s
        if j % 2 == 1:
            resg += _WG[(j - 1) // 2] * s
    return resk * half, abs((resk - resg) * half)


def reference_integrate(
    f, lo: float, hi: float, rel_tol: float = 1e-12, max_evals: int = 1_000_000,
) -> QuadratureResult:
    """Signed adaptive integral of the scalar ``f`` over [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration endpoints must be finite")
    if rel_tol < 1e-14:
        raise ValueError(f"rel_tol must be >= 1e-14, got {rel_tol!r}")
    if lo == hi:
        return QuadratureResult(0.0, 0.0, 0)

    sign = 1.0
    a, b = lo, hi
    if a > b:
        a, b = b, a
        sign = -1.0

    evals = 0

    def panel(x0: float, x1: float) -> tuple[float, float, float, float]:
        nonlocal evals
        evals += 15
        v, e = reference_gk15(f, x0, x1)
        return (-e, x0, x1, v)

    first = panel(a, b)
    heap = [first]
    frozen: list[tuple[float, float, float, float]] = []
    total = first[3]
    err = -first[0]
    frozen_err = 0.0

    while heap:
        goal = rel_tol * max(abs(total), 1e-300)
        if err <= goal:
            break
        if frozen_err > goal:
            raise NoConvergenceError(
                f"roundoff-limited panels alone carry error {frozen_err:.3e} above "
                f"the goal {goal:.3e}; no further subdivision can converge"
            )
        if evals + 30 > max_evals:
            raise NoConvergenceError(
                f"integration budget of {max_evals} evaluations exhausted "
                f"(error estimate {err:.3e}, goal {goal:.3e})"
            )
        worst = heapq.heappop(heap)
        _, x0, x1, v0 = worst
        mid = 0.5 * (x0 + x1)
        if x1 - x0 <= 8.0 * _EPS * max(abs(x0), abs(x1), 1.0) or mid <= x0 or mid >= x1:
            frozen.append(worst)
            frozen_err += -worst[0]
            continue
        left = panel(x0, mid)
        right = panel(mid, x1)
        heapq.heappush(heap, left)
        heapq.heappush(heap, right)
        total += left[3] + right[3] - v0
        err += (-left[0]) + (-right[0]) - (-worst[0])

    total = math.fsum(p[3] for p in heap) + math.fsum(p[3] for p in frozen)
    err = math.fsum(-p[0] for p in heap) + math.fsum(-p[0] for p in frozen)
    if err > rel_tol * max(abs(total), 1e-300):
        raise NoConvergenceError(
            f"roundoff-limited panels leave error estimate {err:.3e} above the "
            f"goal {rel_tol * max(abs(total), 1e-300):.3e}"
        )
    return QuadratureResult(sign * total, err, evals)
