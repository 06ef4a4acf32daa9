"""Core numerical routines: adaptive quadrature, inversion, extrema, r-norms.

The integrator is a globally adaptive Gauss(7)/Kronrod(15) scheme. All rule
nodes are interior to each subinterval, so integrands that are singular or
undefined exactly at an interval endpoint (an improper endpoint) integrate
without special casing: the endpoint is only ever a subdivision boundary,
never an evaluation point.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .errors import (
    DomainError,
    ExponentDomainError,
    NoConvergenceError,
    NotBracketedError,
)

__all__ = [
    "QuadratureResult", "NormSpec",
    "integrate", "invert", "interior_grid", "extremum", "norm_r",
]

Func = Callable[[float], float]

_EPS = math.ulp(1.0)  # 2.22e-16


# ---------------------------------------------------------------------------
# Gauss(7)/Kronrod(15) pair
# ---------------------------------------------------------------------------

# Kronrod abscissae on [-1, 1] (positive half, descending) and weights.
# Odd-indexed abscissae are the embedded 7-point Gauss-Legendre nodes.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def _gk15(f: Func, a: float, b: float) -> tuple[float, float]:
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


def integrate(
    f: Func,
    lo: float,
    hi: float,
    rel_tol: float = 1e-12,
    max_evals: int = 1_000_000,
) -> QuadratureResult:
    """Signed adaptive integral of ``f`` over [lo, hi] (lo > hi allowed).

    Subdivides the worst subinterval (largest Kronrod-Gauss discrepancy) until
    the summed error estimate meets ``rel_tol`` relative to the running value,
    then reports the fsum of the surviving panels. Raises
    :class:`NoConvergenceError` once ``max_evals`` function evaluations are
    spent; propagates :class:`DomainError` from ``f`` at interior nodes.
    """
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
        v, e = _gk15(f, x0, x1)
        return (-e, x0, x1, v)

    first = panel(a, b)
    heap = [first]
    frozen: list[tuple[float, float, float, float]] = []  # panels at the width floor
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
            frozen.append(worst)  # cannot be refined further in double precision
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
        # every remaining panel is at the subdivision floor (e.g. an interior
        # singularity): the estimate cannot honestly meet the tolerance
        raise NoConvergenceError(
            f"roundoff-limited panels leave error estimate {err:.3e} above the "
            f"goal {rel_tol * max(abs(total), 1e-300):.3e}"
        )
    return QuadratureResult(sign * total, err, evals)


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------

def _guarded(f: Func, x: float, toward: float, span: float) -> tuple[float, float]:
    """Evaluate f at x, nudging one open-interval guard inward on DomainError."""
    try:
        return x, f(x)
    except DomainError:
        g = x + math.copysign(1e-9 * span, toward - x)
        return g, f(g)


def invert(
    h: Func,
    y: float,
    lo: float,
    hi: float,
    rel_tol: float = 1e-12,
    dh: Func | None = None,
    max_iter: int = 200,
) -> float:
    """Solve h(x) = y for strictly increasing h on [lo, hi].

    Bisection keeps a guaranteed bracket; when ``dh`` is supplied each step
    first tries Newton and falls back to the midpoint whenever the Newton
    iterate leaves the bracket. Endpoints are sampled with open-interval
    guards so h may be undefined exactly at lo or hi.

    Returns x with ``|h(x) - y| <= rel_tol * max(1, |y|)`` (in practice the
    bracket is driven to a few ulps). Raises :class:`NotBracketedError` if y
    is outside [h(lo), h(hi)] and :class:`NoConvergenceError` if the tolerance
    is not met within ``max_iter`` iterations.
    """
    if not lo < hi:
        if lo == hi:
            return lo
        raise ValueError(f"empty bracket [{lo!r}, {hi!r}]")
    span = hi - lo
    xa, fa = _guarded(h, lo, hi, span)
    xb, fb = _guarded(h, hi, lo, span)
    tol_f = rel_tol * max(1.0, abs(y))
    if y < fa:
        if y >= fa - tol_f:
            return xa
        raise NotBracketedError(f"y={y!r} below h(lo)={fa!r}")
    if y > fb:
        if y <= fb + tol_f:
            return xb
        raise NotBracketedError(f"y={y!r} above h(hi)={fb!r}")

    x = 0.5 * (xa + xb)
    best_x, best_r = xa, abs(fa - y)
    if abs(fb - y) < best_r:
        best_x, best_r = xb, abs(fb - y)

    for _ in range(max_iter):
        fx = h(x)
        r = fx - y
        if abs(r) < best_r:
            best_x, best_r = x, abs(r)
        if r == 0.0:
            return x
        if r > 0.0:
            xb = x
        else:
            xa = x
        if xb - xa <= 4.0 * _EPS * max(abs(xa), abs(xb), 1.0):
            break
        nxt = math.nan
        if dh is not None:
            try:
                slope = dh(x)
            except DomainError:
                slope = 0.0
            if slope > 0.0 and math.isfinite(slope):
                nxt = x - r / slope
        if not (xa < nxt < xb):
            nxt = 0.5 * (xa + xb)
        x = nxt

    if best_r <= tol_f:
        return best_x
    raise NoConvergenceError(
        f"inversion stalled at |h(x)-y|={best_r:.3e} (tolerance {tol_f:.3e})"
    )


# ---------------------------------------------------------------------------
# Interval extrema
# ---------------------------------------------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _golden_min(g: Func, a: float, b: float, max_iter: int = 120) -> tuple[float, float]:
    """Golden-section minimum of g on [a, b] (unimodal assumed inside the bracket)."""
    h = b - a
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc = g(c)
    yd = g(d)
    for _ in range(max_iter):
        if h <= 4.0 * _EPS * max(abs(a), abs(b), 1.0):
            break
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INV_PHI2 * h
            yc = g(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INV_PHI * h
            yd = g(d)
    return (c, yc) if yc < yd else (d, yd)


def _value_or_none(f: Func, x: float) -> float | None:
    try:
        return f(x)
    except DomainError:
        return None


def interior_grid(lo: float, hi: float, n: int) -> list[float]:
    """The n abscissae lo + (hi - lo)*i/(n + 1), i = 1..n, of [lo, hi]: every
    sign scan, extremum scan and t grid samples these."""
    width = hi - lo
    return [lo + width * i / (n + 1) for i in range(1, n + 1)]


# Abscissae of extremum's dense scan, both endpoints included.
EXTREMUM_SCAN_POINTS = 1025


def extremum(
    f: Func,
    lo: float,
    hi: float,
    column: Callable[[int], tuple[list[float], list[float | None]]] | None = None,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Global minimum and maximum of f over [lo, hi] as ((x_min, f_min),
    (x_max, f_max)): one dense scan, then a golden-section refinement per side.

    The scan reads the endpoints and the n = ``EXTREMUM_SCAN_POINTS - 2``
    interior points ``interior_grid(lo, hi, n)``, with lo <= hi.
    ``column(n)`` supplies that interior in one call: the grid, which the
    caller may have kept from an earlier scan and which is not changed, and
    a value per point or None where f raises :class:`DomainError`. By
    default the grid is built here and f is called at each point. With a
    column, f is read only at the endpoints, or just inside one where f
    raises there, and at the refinement's points between the scan's points.
    Endpoint candidates enter via one-sided limits: when f
    raises :class:`DomainError` at an endpoint it is re-sampled at a
    distance of 1e-9 times the interval width. Raises :class:`DomainError`
    when fewer than two scan points are evaluable.
    """
    if hi < lo:
        lo, hi = hi, lo
    if lo == hi:
        v = f(lo)
        return (lo, v), (lo, v)

    width = hi - lo
    n = EXTREMUM_SCAN_POINTS - 2
    # the scan's abscissae and values, in order; the endpoints are the grid
    # formula at i = 0 and i = n + 1 (exact, as n + 1 = 1024): lo + 0.0 is
    # +0.0 at lo = -0.0, and lo + width may differ from hi in the last bit
    px: list[float] = []
    pv: list[float] = []
    try:
        x, v = _guarded(f, lo + 0.0, hi, width)
        px.append(x)
        pv.append(v)
    except DomainError:
        pass
    if column is None:
        xs = interior_grid(lo, hi, n)
        values = [_value_or_none(f, x) for x in xs]
    else:
        xs, values = column(n)
    kept = [v for v in values if v is not None]
    if len(kept) < len(values):
        xs = [x for x, v in zip(xs, values) if v is not None]
    px += xs
    pv += kept
    try:
        x, v = _guarded(f, lo + width, lo, width)
        px.append(x)
        pv.append(v)
    except DomainError:
        pass
    if len(pv) < 2:
        raise DomainError("fewer than 2 scan points evaluable")

    def refine(flip: float) -> tuple[float, float]:
        """Minimum of flip*f: the scan's best point, bracketed by its neighbours."""
        g = lambda x: flip * f(x)
        best_i = _best_index(pv, flip)
        bl = px[best_i - 1] if best_i > 0 else px[best_i]
        br = px[best_i + 1] if best_i + 1 < len(px) else px[best_i]
        candidates = [(px[i], flip * pv[i]) for i in (0, -1, best_i)]
        if br > bl:
            candidates.append(_golden_min(g, bl, br))
        xs, gs = min(candidates, key=lambda c: c[1])
        return xs, flip * gs

    return refine(1.0), refine(-1.0)


def _best_index(values: list[float], flip: float) -> int:
    """The index ``min(range(len(values)), key=lambda i: flip * values[i])``
    picks, for flip = 1.0 or -1.0, with a key that runs no Python code: min
    keeps the first index whose value is not beaten under ``<``, and the
    negated values are beaten under ``<`` exactly where the values are under
    ``>``, which max tests, so ties, -0.0 and nan pick the same index."""
    return (min if flip > 0 else max)(range(len(values)), key=values.__getitem__)


# ---------------------------------------------------------------------------
# r-norms (unnormalized: no 1/(beta-alpha) factor)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormSpec:
    """Exponent and interval for an unnormalized r-norm.

    r may be any nonzero float or +-inf. The endpoints satisfy lo <= hi.
    """

    r: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.r == 0.0:
            raise ExponentDomainError("norm exponent r = 0 is rejected")
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo!r} > {self.hi!r}")


def norm_r(f: Func, spec: NormSpec, rel_tol: float = 1e-12) -> float:
    """[ integral of f^r over [lo, hi] ]^(1/r); sup for r=+inf, inf for r=-inf.

    For negative or non-integer r the integrand f^r leaves the reals at
    nonpositive f, so the sign of f is checked on a coarse scan first and a
    :class:`DomainError` is raised rather than returning complex garbage.
    """
    r, lo, hi = spec.r, spec.lo, spec.hi
    if math.isinf(r):
        return extremum(f, lo, hi)[r > 0][1]
    if lo == hi:
        if r < 0:
            raise ExponentDomainError("negative-exponent norm over an empty interval")
        return 0.0
    if r < 0 or not float(r).is_integer():
        width = hi - lo
        for i in range(33):
            x = lo + width * (i + 0.5) / 33.0
            try:
                v = f(x)
            except DomainError:
                continue
            if v <= 0.0:
                raise DomainError(
                    f"f({x!r}) = {v!r} <= 0: f^{r!r} leaves the reals"
                )
    result = integrate(lambda x: math.pow(f(x), r), lo, hi, rel_tol)
    if result.value <= 0.0:
        raise DomainError(f"integral of f^{r!r} came out nonpositive")
    return math.pow(result.value, 1.0 / r)
