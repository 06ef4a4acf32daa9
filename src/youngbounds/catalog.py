"""The bound catalog: one estimator per refinement theorem.

Every estimator consumes a validated :class:`ProblemInstance` plus its
:class:`Anchors` and returns a :class:`BoundResult` on a declared target
quantity. Hypothesis checks are numerical (derivative signs sampled on a
dense scan); failing a check never aborts an estimator, it only flags the
result as not applicable, with the observations recorded in the diagnostics.

Every derivative read outside a quadrature goes through the instance's
:class:`DerivativeProfile`, so estimators run on the same instance share each
jet, each sampled gate and each extremum scan; the results are the bits an
unshared run gives.

Sign conventions. With d = a - h^{-1}(b) (signed), every Taylor-flavoured
estimator reduces to a product of a signed kernel factor and a two-sided
estimate of a nonnegative average. Computing both products and sorting the
pair implements every "the inequality is reversed" clause with one mechanism,
so the sandwich test is uniform across orientations and parities.

Target quantities (native value + offset = SUM):

    GAP           = SUM - a*b
    SHIFTED       = SUM - b*h^{-1}(b)
    REMAINDER(n)  = GAP - T_n,  T_n = sum_{k=1}^n h^(k)(h^{-1}(b)) d^{k+1}/(k+1)!
    ABS_REMAINDER = |SHIFTED - two-point Taylor sums|   (upper bounds only)
    MIDDLE2       = SUM - a*h(a) + [a^2 h'(a) - h^{-1}(b)^2 h'(h^{-1}(b))]/2
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import (
    DomainError,
    ExponentDomainError,
    InvalidTError,
    OrderCapError,
    ParseError,
    ValidationError,
    YoungBoundsError,
)
from .expr import DEFAULT_ORDER_CAP
from .numerics import NormSpec, extremum, interior_grid, norm_r
from .young import (
    DEFAULT_LOWER_PAIR,
    DEFAULT_UPPER_PAIR,
    SCAN_POINTS,
    Anchors,
    ProblemInstance,
    _is_integer,
)

__all__ = [
    "TargetQuantity", "HypothesisCheck", "BoundResult", "SnPolynomial",
    "bound_hoorfar_qi", "bound_hh_cebysev", "bound_jensen_first",
    "bound_holder_norm", "bound_taylor_lagrange", "bound_taylor_holder",
    "bound_taylor_cebysev", "bound_taylor_jensen", "bound_taylor_product_hh",
    "bound_polya_first", "bound_polya_second", "bound_polya_higher",
    "bound_lp_remainder",
    "METHODS", "check_method_args", "run_method", "fill_gate_grids",
]

_INF = math.inf
_EPS = math.ulp(1.0)
_DEGENERATE_EPS = 1e-12


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetQuantity:
    """Which quantity a bound sandwiches, and how to convert it to SUM."""

    tag: str                 # GAP | SUM | SHIFTED | REMAINDER | ABS_REMAINDER | MIDDLE2
    offset: float            # native + offset = SUM (center for absolute targets)
    n: int | None = None
    absolute: bool = False

    @property
    def label(self) -> str:
        return f"{self.tag}({self.n})" if self.n is not None else self.tag

    def sum_interval(
        self, lower: float | None, upper: float | None
    ) -> tuple[float | None, float | None]:
        """Convert native bounds to an interval for SUM."""
        if self.absolute:
            if upper is None:
                return None, None
            return self.offset - upper, self.offset + upper
        lo = None if lower is None else lower + self.offset
        hi = None if upper is None else upper + self.offset
        return lo, hi

    def native_of_sum(self, sum_value: float) -> float:
        """The native target value implied by an oracle SUM."""
        if self.absolute:
            return abs(sum_value - self.offset)
        return sum_value - self.offset


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    required: str
    observed: str
    passed: bool
    assumed: bool = False

    @property
    def ok(self) -> bool:
        return self.passed or self.assumed


@dataclass(frozen=True)
class BoundResult:
    method: str
    target: TargetQuantity
    lower: float | None
    upper: float | None
    applicable: bool
    diagnostics: tuple[HypothesisCheck, ...] = ()
    notes: tuple[str, ...] = ()
    extras: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise ValueError(
                f"{self.method}: lower {self.lower!r} > upper {self.upper!r}"
            )


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _taylor_sum(inst: ProblemInstance, anch: Anchors, n: int) -> float:
    """T_n = sum_{k=1}^n h^(k)(h^{-1}(b)) d^{k+1}/(k+1)!  (0 when n = 0)."""
    if n == 0:
        return 0.0
    d = inst.a - anch.h_inv_b
    derivs = inst.profile.derivs(anch.h_inv_b, n)
    return math.fsum(
        derivs[k] * d ** (k + 1) / math.factorial(k + 1) for k in range(1, n + 1)
    )


def _gap_target(inst: ProblemInstance) -> TargetQuantity:
    return TargetQuantity("GAP", offset=inst.a * inst.b)


def _remainder_target(inst: ProblemInstance, anch: Anchors, n: int) -> TargetQuantity:
    return TargetQuantity(
        "REMAINDER", offset=inst.a * inst.b + _taylor_sum(inst, anch, n), n=n
    )


def _shifted_target(inst: ProblemInstance, anch: Anchors) -> TargetQuantity:
    return TargetQuantity("SHIFTED", offset=inst.b * anch.h_inv_b)


def _sign_class(values: tuple[float, ...]) -> str:
    """'nonnegative' | 'nonpositive' | 'flat' | 'mixed' with a relative floor."""
    if not values:
        return "mixed"
    hi = max(values)
    lo = min(values)
    tol = 1e-10 * max(1.0, abs(hi), abs(lo))
    nonneg = lo >= -tol
    nonpos = hi <= tol
    if nonneg and nonpos:
        return "flat"
    if nonneg:
        return "nonnegative"
    if nonpos:
        return "nonpositive"
    return "mixed"


_DIRECTION = {"nonnegative": "increasing", "nonpositive": "decreasing",
              "flat": "flat", "mixed": "mixed"}
_CURVATURE = {"nonnegative": "convex", "nonpositive": "concave",
              "flat": "flat", "mixed": "mixed"}


def _check(
    inst: ProblemInstance,
    name: str,
    required: str,
    order: int,
    lo: float,
    hi: float,
    passes: tuple[str, ...],
) -> tuple[HypothesisCheck, str, tuple[float, ...]]:
    """Sample the order-th derivative at interior scan points of [lo, hi] and
    classify its sign; points where the jet is undefined are skipped (and
    counted). Returns the check, the sign class and the sampled values."""
    prof = inst.profile

    def sample() -> tuple[tuple[float, ...], int]:
        values = tuple(v for v in prof.column(lo, hi, SCAN_POINTS, order) if v is not None)
        return values, SCAN_POINTS - len(values)

    values, skipped = prof.memo(("samples", order, lo, hi), sample)
    cls = _sign_class(values)
    observed = (
        f"h^({order}) in [{min(values):.6g}, {max(values):.6g}] "
        f"at {len(values)} points" if values else "not evaluable"
    )
    if skipped:
        observed += f" ({skipped} skipped)"
    assumed = name in inst.options.assume
    return HypothesisCheck(name, required, observed, cls in passes, assumed), cls, values


def _sorted_pair(x: float, y: float) -> tuple[float, float]:
    return (x, y) if x <= y else (y, x)


def _check_order(n: int) -> None:
    """The entry check of every order-n estimator, with the rule of
    ``Options.taylor_order``; the jets check the cap."""
    if not (_is_integer(n) and n >= 0):
        raise OrderCapError(f"order must be a nonnegative integer, got {n!r}")


def _zero_width_result(method: str, target: TargetQuantity) -> BoundResult:
    return BoundResult(
        method, target, 0.0, 0.0, True,
        notes=("b = h(a): anchors coincide, bounds collapse to 0",),
    )


def _extrema_of_deriv(
    inst: ProblemInstance, order: int, lo: float, hi: float
) -> tuple[float, float]:
    """(inf, sup) of h^(order) over [lo, hi] from one scan per instance, whose
    interior is one profile column. The column is filled at order >= 2, so
    the h' and h'' scans of one interval share one batch and one list of
    abscissae; a point where the order-2 jet fails is read at ``order``.
    The scan's endpoints are kept in the profile, as the anchor reads share
    them; its golden-section points, strictly between the endpoints, are
    read once and kept nowhere."""
    prof = inst.profile
    top = lo + (hi - lo)  # extremum's right endpoint, which may round below hi

    def f(x: float) -> float:
        if lo < x < top:
            return prof.deriv_unkept(x, order)
        return prof.deriv(x, order)

    def interior(n: int) -> tuple[list[float], list[float | None]]:
        values = prof.column(lo, hi, n, order, fill=2)  # lo <= hi
        return prof.abscissae(lo, hi, n), values

    def scan() -> tuple[float, float]:
        (_, f_min), (_, f_max) = extremum(f, lo, hi, column=interior)
        return f_min, f_max

    return prof.memo(("extrema", order, lo, hi), scan)


# ---------------------------------------------------------------------------
# Lagrange-flavoured estimators (first derivative at the anchor points)
# ---------------------------------------------------------------------------

def bound_hoorfar_qi(inst: ProblemInstance, anch: Anchors) -> BoundResult:
    """Quadratic two-sided gap estimate from h' at the two anchor abscissae.

    Requires h' strictly monotonic on [0, c]; m and M are the smaller/larger
    of h'(a), h'(h^{-1}(b)).
    """
    target = _gap_target(inst)
    check, _, _ = _check(
        inst, "h_prime_monotone_global", "h'' of one sign on (0, c)",
        2, 0.0, inst.c, ("nonnegative", "nonpositive", "flat"),
    )
    if anch.width == 0.0:
        return _zero_width_result("hoorfar-qi", target)
    prof = inst.profile
    d = inst.a - anch.h_inv_b
    m, M = _sorted_pair(prof.deriv(inst.a, 1), prof.deriv(anch.h_inv_b, 1))
    return BoundResult(
        "hoorfar-qi", target, m / 2.0 * d * d, M / 2.0 * d * d,
        applicable=check.ok, diagnostics=(check,),
        extras=(("m", m), ("M", M)),
    )


def bound_hh_cebysev(inst: ProblemInstance, anch: Anchors) -> BoundResult:
    """Midpoint/trapezoid gap estimates; the pair swaps in the reversed cases.

    Base values: L0 = d*[h((a+h^{-1}(b))/2) - b] (midpoint form) and
    U0 = d/2*[h(a) - b] (trapezoid form). The non-reversed cases are
    (h' increasing, b < h(a)) and (h' decreasing, b > h(a)).
    """
    target = _gap_target(inst)
    check, cls, _ = _check(
        inst, "h_prime_monotone_local", "h'' of one sign on [alpha, beta]",
        2, anch.alpha, anch.beta, ("nonnegative", "nonpositive", "flat"),
    )
    if anch.width == 0.0:
        return _zero_width_result("hh-cebysev", target)
    d = inst.a - anch.h_inv_b
    direction = _DIRECTION[cls]
    mid = 0.5 * (inst.a + anch.h_inv_b)
    low0 = d * (inst.h(mid) - inst.b)
    up0 = d / 2.0 * (anch.h_a - inst.b)
    b_above = inst.b > anch.h_a
    reversed_case = (direction == "increasing" and b_above) or (
        direction == "decreasing" and not b_above
    )
    lower, upper = (up0, low0) if reversed_case else (low0, up0)
    notes = (f"h' {direction}; " + ("reversed case" if reversed_case else "direct case"),)
    if lower > upper:  # only at floating-point boundaries of an equality case
        lower, upper = upper, lower
        notes += ("sides crossed within roundoff; sorted",)
    return BoundResult(
        "hh-cebysev", target, lower, upper,
        applicable=check.ok, diagnostics=(check,), notes=notes,
        extras=(("midpoint_form", low0), ("trapezoid_form", up0)),
    )


def bound_jensen_first(inst: ProblemInstance, anch: Anchors) -> BoundResult:
    """Gap estimate from convexity of h': midpoint-in-the-mean lower form
    d^2/2 * h'((a+2h^{-1}(b))/3) against the endpoint mix
    d^2/3 * [h'(a)/2 + h'(h^{-1}(b))]; swapped when h' is concave.
    """
    target = _gap_target(inst)
    check, cls, _ = _check(
        inst, "h_prime_convexity", "h''' of one sign on [alpha, beta]",
        3, anch.alpha, anch.beta, ("nonnegative", "nonpositive", "flat"),
    )
    if anch.width == 0.0:
        return _zero_width_result("jensen-first", target)
    prof = inst.profile
    d = inst.a - anch.h_inv_b
    curvature = _CURVATURE[cls]
    q_mid = d * d / 2.0 * prof.deriv((inst.a + 2.0 * anch.h_inv_b) / 3.0, 1)
    q_end = d * d / 3.0 * (prof.deriv(inst.a, 1) / 2.0 + prof.deriv(anch.h_inv_b, 1))
    if curvature == "concave":
        lower, upper = q_end, q_mid
    else:
        lower, upper = q_mid, q_end
    notes = (f"h' {curvature}",)
    if lower > upper:
        lower, upper = upper, lower
        notes += ("sides crossed within roundoff; sorted",)
    return BoundResult(
        "jensen-first", target, lower, upper,
        applicable=check.ok, diagnostics=(check,), notes=notes,
    )


# ---------------------------------------------------------------------------
# Norm-flavoured estimators
# ---------------------------------------------------------------------------

def _c_coeff(r: float, abs_d: float, n: int) -> float:
    """C_{r,n} = [|d|^{r(n+1)+1} / (r(n+1)+1)]^{1/r}; |d|^{n+1} at r=+inf, 0 at r=-inf."""
    if math.isinf(r):
        return abs_d ** (n + 1) if r > 0 else 0.0
    k = r * (n + 1) + 1.0
    if k <= 0.0:
        raise ExponentDomainError(
            f"C coefficient undefined for exponent {r!r} at order {n}: "
            f"{r!r}*({n}+1)+1 = {k!r} <= 0"
        )
    if abs_d == 0.0:
        return 0.0
    return (abs_d ** k / k) ** (1.0 / r)


def _conjugate_ok(p: float, q: float) -> bool:
    if math.isinf(p) or math.isinf(q):
        return False
    return abs(1.0 / p + 1.0 / q - 1.0) <= 1e-9


def _validate_upper_pair(pair: tuple[float, float]) -> None:
    p, q = pair
    if (p, q) in ((_INF, 1.0), (1.0, _INF)):
        return
    if p > 1.0 and q > 1.0 and _conjugate_ok(p, q):
        return
    raise ExponentDomainError(f"invalid upper exponent pair {pair!r}")


def _validate_lower_pair(pair: tuple[float, float]) -> None:
    u, v = pair
    if (u, v) in ((1.0, -_INF), (-_INF, 1.0)):
        return
    if not math.isinf(u) and u < 1.0 and u != 0.0 and _conjugate_ok(u, v):
        return
    raise ExponentDomainError(f"invalid lower exponent pair {pair!r}")


def _holder_core(
    inst: ProblemInstance,
    anch: Anchors,
    n: int,
    lower_pair: tuple[float, float],
    upper_pair: tuple[float, float],
    method: str,
    target: TargetQuantity,
    checks: tuple[HypothesisCheck, ...],
) -> BoundResult:
    _validate_lower_pair(lower_pair)
    _validate_upper_pair(upper_pair)
    if anch.width == 0.0:
        return _zero_width_result(method, target)
    abs_d = anch.width
    tol = inst.options.quad_rel_tol
    phi = lambda x: inst.deriv(x, n + 1)  # quadrature nodes stay out of the profile

    def integral() -> float:
        """||phi||_1 = h^(n)(beta) - h^(n)(alpha) when both reads succeed and
        their difference stands well clear of their rounding; else quadrature."""
        try:
            lo, hi = inst.profile.deriv(anch.alpha, n), inst.profile.deriv(anch.beta, n)
        except DomainError:  # e.g. x^2.5 at alpha = 0 for n >= 1
            lo = hi = math.nan
        value = hi - lo
        if math.isfinite(value) and abs(value) > 8.0 * _EPS * max(abs(lo), abs(hi)):
            return value
        return norm_r(phi, NormSpec(1.0, anch.alpha, anch.beta), tol)

    def nrm(r: float) -> float:
        if math.isinf(r):  # ||phi||_{-inf} = inf phi, ||phi||_{+inf} = sup phi
            return _extrema_of_deriv(inst, n + 1, anch.alpha, anch.beta)[r > 0]
        if r == 1.0:
            value = inst.profile.memo(("integral", n + 1, anch.alpha, anch.beta), integral)
            if value <= 0.0:
                raise DomainError(f"integral of f^{r!r} came out nonpositive")
            return value
        return norm_r(phi, NormSpec(r, anch.alpha, anch.beta), tol)

    u, v = lower_pair
    p, q = upper_pair
    base_lo = _c_coeff(u, abs_d, n) * nrm(v) / math.factorial(n + 1)
    base_hi = _c_coeff(p, abs_d, n) * nrm(q) / math.factorial(n + 1)

    sign = -1.0 if (inst.b > anch.h_a and n % 2 == 1) else 1.0
    lower, upper = _sorted_pair(sign * base_lo, sign * base_hi)

    # The statement pairs each C coefficient with the conjugate norm; the
    # underlying proof derives the transposed pairing. Both are reported.
    extras: list[tuple[str, float]] = [
        ("statement_lower", sign * base_lo), ("statement_upper", sign * base_hi),
    ]
    notes = [
        f"pairs: lower (u,v)=({u!r},{v!r}), upper (p,q)=({p!r},{q!r})"
        + ("; sign-reversed case" if sign < 0 else ""),
    ]
    for label, (r1, r2) in (("proof_lower", (v, u)), ("proof_upper", (q, p))):
        try:
            extras.append(
                (label, sign * _c_coeff(r1, abs_d, n) * nrm(r2) / math.factorial(n + 1))
            )
        except YoungBoundsError as exc:
            notes.append(f"{label} dropped: {type(exc).__name__}: {exc}")
    return BoundResult(
        method, target, lower, upper,
        applicable=all(c.ok for c in checks), diagnostics=checks,
        notes=tuple(notes), extras=tuple(extras),
    )


def bound_holder_norm(
    inst: ProblemInstance,
    anch: Anchors,
    lower_pair: tuple[float, float] = DEFAULT_LOWER_PAIR,
    upper_pair: tuple[float, float] = DEFAULT_UPPER_PAIR,
) -> BoundResult:
    """Gap estimate C_u*||h'||_v <= GAP <= C_p*||h'||_q over [alpha, beta]."""
    return _holder_core(
        inst, anch, 0, lower_pair, upper_pair,
        "holder-norm", _gap_target(inst), checks=(),
    )


def bound_taylor_holder(
    inst: ProblemInstance,
    anch: Anchors,
    n: int,
    lower_pair: tuple[float, float] = DEFAULT_LOWER_PAIR,
    upper_pair: tuple[float, float] = DEFAULT_UPPER_PAIR,
) -> BoundResult:
    """Order-n remainder estimate via C_{r,n} and norms of h^(n+1).

    For b > h(a) with odd n the remainder is nonpositive and the printed pair
    enters with a minus sign; the sorted-pair mechanism realizes that case.
    """
    _check_order(n)
    check, _, _ = _check(
        inst, "deriv_nonneg", f"h^({n + 1}) >= 0 on [alpha, beta]",
        n + 1, anch.alpha, anch.beta, ("nonnegative", "flat"),
    )
    return _holder_core(
        inst, anch, n, lower_pair, upper_pair,
        "taylor-holder", _remainder_target(inst, anch, n), checks=(check,),
    )


# ---------------------------------------------------------------------------
# Taylor-remainder estimators
# ---------------------------------------------------------------------------

def bound_taylor_lagrange(inst: ProblemInstance, anch: Anchors, n: int) -> BoundResult:
    """Order-n gap sandwich T_n + {m_n, M_n} * d^{n+2}/(n+2)! with m_n, M_n the
    smaller/larger of h^(n+1) at the two anchor abscissae. At n = 0 this is
    exactly the hoorfar-qi estimate."""
    _check_order(n)
    target = _gap_target(inst)
    check, _, _ = _check(
        inst, "deriv_monotone_global", f"h^({n + 2}) of one sign on (0, c)",
        n + 2, 0.0, inst.c, ("nonnegative", "nonpositive", "flat"),
    )
    if anch.width == 0.0:
        return _zero_width_result("taylor-lagrange", target)
    prof = inst.profile
    d = inst.a - anch.h_inv_b
    t_sum = _taylor_sum(inst, anch, n)
    m, M = _sorted_pair(prof.deriv(inst.a, n + 1), prof.deriv(anch.h_inv_b, n + 1))
    kernel = d ** (n + 2) / math.factorial(n + 2)
    lower, upper = _sorted_pair(t_sum + kernel * m, t_sum + kernel * M)
    return BoundResult(
        "taylor-lagrange", target, lower, upper,
        applicable=check.ok, diagnostics=(check,),
        extras=(("m_n", m), ("M_n", M), ("taylor_sum", t_sum)),
    )


# (h(a) > b?, direction of h^(n+1), n parity) -> which side the estimate bounds
_CEBYSEV_SIDE = {
    (True, "increasing", 0): "upper",
    (True, "increasing", 1): "upper",
    (True, "decreasing", 0): "lower",
    (True, "decreasing", 1): "lower",
    (False, "increasing", 1): "upper",
    (False, "decreasing", 0): "upper",
    (False, "increasing", 0): "lower",
    (False, "decreasing", 1): "lower",
}


def bound_taylor_cebysev(inst: ProblemInstance, anch: Anchors, n: int) -> BoundResult:
    """One-sided remainder estimate d^{n+1}/(n+2)! * [h^(n)(a) - h^(n)(h^{-1}(b))];
    the bounded side follows the six-way case table on (sign of h(a)-b,
    direction of h^(n+1), parity of n)."""
    _check_order(n)
    target = _remainder_target(inst, anch, n)
    check, cls, values = _check(
        inst, "deriv_monotone_local", f"h^({n + 2}) of one sign on [alpha, beta]",
        n + 2, anch.alpha, anch.beta, ("nonnegative", "nonpositive", "flat"),
    )
    if anch.width == 0.0:
        return _zero_width_result("taylor-cebysev", target)
    prof = inst.profile
    d = inst.a - anch.h_inv_b
    value = d ** (n + 1) / math.factorial(n + 2) * (
        prof.deriv(inst.a, n) - prof.deriv(anch.h_inv_b, n)
    )
    direction = _DIRECTION[cls]
    if direction == "flat":
        # h^(n+1) constant: the correlation inequality is an equality.
        return BoundResult(
            "taylor-cebysev", target, value, value,
            applicable=check.ok, diagnostics=(check,),
            notes=("h^(n+1) constant: estimate is exact",),
        )
    if direction == "mixed":
        direction = "increasing" if sum(v > 0 for v in values) * 2 >= len(values) \
            else "decreasing"
    side = _CEBYSEV_SIDE[(anch.h_a > inst.b, direction, n % 2)]
    lower, upper = (value, None) if side == "lower" else (None, value)
    return BoundResult(
        "taylor-cebysev", target, lower, upper,
        applicable=check.ok, diagnostics=(check,),
        notes=(f"h^({n + 1}) {direction}; bounds the {side} side",),
    )


def bound_taylor_jensen(inst: ProblemInstance, anch: Anchors, n: int) -> BoundResult:
    """Order-n remainder sandwich from convexity of h^(n+1).

    The remainder equals d^{n+2} times a weighted average of h^(n+1); Jensen
    pins that average between h^(n+1)((a+(n+2)h^{-1}(b))/(n+3)) / (n+2)! and
    [h^(n+1)(a) + (n+2) h^(n+1)(h^{-1}(b))] / (n+3)!. Multiplying by the
    signed kernel d^{n+2} and sorting realizes every orientation/parity case;
    concavity swaps which formula supplies which side.
    """
    _check_order(n)
    target = _remainder_target(inst, anch, n)
    check, cls, _ = _check(
        inst, "deriv_convexity", f"h^({n + 3}) of one sign on [alpha, beta]",
        n + 3, anch.alpha, anch.beta, ("nonnegative", "nonpositive", "flat"),
    )
    if anch.width == 0.0:
        return _zero_width_result("taylor-jensen", target)
    prof = inst.profile
    d = inst.a - anch.h_inv_b
    mean = (inst.a + (n + 2) * anch.h_inv_b) / (n + 3)
    q_mid = prof.deriv(mean, n + 1) / math.factorial(n + 2)
    q_end = (
        prof.deriv(inst.a, n + 1) + (n + 2) * prof.deriv(anch.h_inv_b, n + 1)
    ) / math.factorial(n + 3)
    kernel = d ** (n + 2)
    lower, upper = _sorted_pair(kernel * q_mid, kernel * q_end)
    return BoundResult(
        "taylor-jensen", target, lower, upper,
        applicable=check.ok, diagnostics=(check,),
        notes=(f"h^({n + 1}) {_CURVATURE[cls]}",),
        extras=(("midpoint_form", kernel * q_mid), ("endpoint_form", kernel * q_end)),
    )


def bound_taylor_product_hh(inst: ProblemInstance, anch: Anchors, n: int) -> BoundResult:
    """Order-n remainder sandwich for nonnegative convex h^(n+1) via the
    product midpoint/endpoint estimate: base pair

        lo = h^(n+1)(mid)/2^n - [2 h^(n+1)(a) + h^(n+1)(h^{-1}(b))]/6
        hi = [h^(n+1)(a) + 2 h^(n+1)(h^{-1}(b))]/6

    scaled by the signed kernel d^{n+2}/(n+1)!, then sorted."""
    _check_order(n)
    target = _remainder_target(inst, anch, n)
    check_pos, _, _ = _check(
        inst, "deriv_nonneg", f"h^({n + 1}) >= 0 on [alpha, beta]",
        n + 1, anch.alpha, anch.beta, ("nonnegative", "flat"),
    )
    check_cvx, _, _ = _check(
        inst, "deriv_convexity", f"h^({n + 3}) >= 0 on [alpha, beta]",
        n + 3, anch.alpha, anch.beta, ("nonnegative", "flat"),
    )
    checks = (check_pos, check_cvx)
    if anch.width == 0.0:
        return _zero_width_result("taylor-product-hh", target)
    prof = inst.profile
    d = inst.a - anch.h_inv_b
    phi_a = prof.deriv(inst.a, n + 1)
    phi_b = prof.deriv(anch.h_inv_b, n + 1)
    phi_mid = prof.deriv(0.5 * (inst.a + anch.h_inv_b), n + 1)
    base_lo = phi_mid / 2.0 ** n - (2.0 * phi_a + phi_b) / 6.0
    base_hi = (phi_a + 2.0 * phi_b) / 6.0
    kernel = d ** (n + 2) / math.factorial(n + 1)
    lower, upper = _sorted_pair(kernel * base_lo, kernel * base_hi)
    return BoundResult(
        "taylor-product-hh", target, lower, upper,
        applicable=all(c.ok for c in checks), diagnostics=checks,
    )


# ---------------------------------------------------------------------------
# Two-sided derivative-range (Polya-type) estimators
# ---------------------------------------------------------------------------

def _derivative_range(
    inst: ProblemInstance,
    anch: Anchors,
    order: int,
    L: float | None,
    U: float | None,
) -> tuple[float, float, HypothesisCheck]:
    """Default L, U to the sharp extrema of h^(order) over [alpha, beta];
    accept any user range that contains the observed one. A user L or U
    that is not finite, or L > U, raises ValidationError: with an infinite
    end the closed forms are no bound, and U - L cannot tell a degenerate
    range."""
    for field, value in (("L", L), ("U", U)):
        if value is not None and not math.isfinite(value):
            raise ValidationError(field, f"must be a finite number, got {value!r}")
    if L is not None and U is not None and L > U:
        raise ValidationError("L", f"must be <= U = {U!r}, got {L!r}")
    obs_lo, obs_hi = _extrema_of_deriv(inst, order, anch.alpha, anch.beta)
    Lv = obs_lo if L is None else L
    Uv = obs_hi if U is None else U
    tol = 1e-9 * max(1.0, abs(obs_lo), abs(obs_hi))
    ok = Lv <= obs_lo + tol and Uv >= obs_hi - tol
    check = HypothesisCheck(
        name=f"deriv_range_{order}",
        required=f"L <= h^({order}) <= U on [alpha, beta]",
        observed=f"h^({order}) in [{obs_lo:.12g}, {obs_hi:.12g}], "
                 f"using L={Lv:.12g}, U={Uv:.12g}",
        passed=ok,
        assumed=f"deriv_range_{order}" in inst.options.assume,
    )
    return Lv, Uv, check


def _reject_overflow(
    method: str, lower: float | None, upper: float | None, L: float, U: float
) -> None:
    """Raise DomainError where a closed form came out nan or infinite, as a
    huge user range overflows: such a side is no bound, and sorting an
    infinite pair would pass off the overflow as roundoff."""
    if any(v is not None and not math.isfinite(v) for v in (lower, upper)):
        raise DomainError(f"{method} closed form overflows at L={L!r}, U={U!r}")


def bound_polya_first(
    inst: ProblemInstance,
    anch: Anchors,
    L: float | None = None,
    U: float | None = None,
) -> BoundResult:
    """Two-sided estimate of SHIFTED = SUM - b*h^{-1}(b) from L <= h' <= U:

        lower = [L*U*d^2 - 2d*(L*h(a) - U*b) + (h(a)-b)^2] / (2(U-L))
        upper = -[L*U*d^2 - 2d*(U*h(a) - L*b) + (h(a)-b)^2] / (2(U-L))

    When U - L degenerates, h' is numerically constant and the exact linear
    value d*(h(a)+b)/2 is returned as both bounds."""
    target = _shifted_target(inst, anch)
    d = inst.a - anch.h_inv_b
    ha, b = anch.h_a, inst.b
    L, U, check = _derivative_range(inst, anch, 1, L, U)
    eps = _DEGENERATE_EPS * max(1.0, abs(L), abs(U))
    if U - L <= eps:
        exact = d * (ha + b) / 2.0
        return BoundResult(
            "polya-first", target, exact, exact,
            applicable=check.ok, diagnostics=(check,),
            notes=("degenerate range U - L: h' constant, exact linear value",),
        )
    sq = (ha - b) ** 2
    lower = (L * U * d * d - 2.0 * d * (L * ha - U * b) + sq) / (2.0 * (U - L))
    upper = -(L * U * d * d - 2.0 * d * (U * ha - L * b) + sq) / (2.0 * (U - L))
    _reject_overflow("polya-first", lower, upper, L, U)
    notes: tuple[str, ...] = ()
    if lower > upper:
        lower, upper = upper, lower
        notes = ("sides crossed within roundoff; sorted",)
    return BoundResult(
        "polya-first", target, lower, upper,
        applicable=check.ok, diagnostics=(check,), notes=notes,
        extras=(("L", L), ("U", U)),
    )


def bound_polya_second(
    inst: ProblemInstance,
    anch: Anchors,
    L: float | None = None,
    U: float | None = None,
) -> BoundResult:
    """Cubic-correction estimate from L <= h'' <= U of the middle quantity

        MIDDLE2 = SUM - a*h(a) + [a^2 h'(a) - h^{-1}(b)^2 h'(h^{-1}(b))]/2.

    Each side W in {L, U} contributes W*(a^3 - h^{-1}(b)^3)/6 plus a squared
    correction over the denominator (h^{-1}(b) - a)*W - h'(h^{-1}(b)) + h'(a);
    a vanishing denominator flags that side as degenerate. For a < h^{-1}(b)
    the two sides exchange roles."""
    a, b = inst.a, inst.b
    bp = anch.h_inv_b
    prof = inst.profile
    hp_a = prof.deriv(a, 1)
    hp_b = prof.deriv(bp, 1)
    ha = anch.h_a
    target = TargetQuantity(
        "MIDDLE2", offset=a * ha - (a * a * hp_a - bp * bp * hp_b) / 2.0
    )
    d = a - bp
    L, U, check = _derivative_range(inst, anch, 2, L, U)
    eps = _DEGENERATE_EPS * max(1.0, abs(L), abs(U))
    if U - L <= eps:
        # h'' numerically constant: h is (at most) quadratic and Simpson's
        # rule gives the shifted integral exactly.
        shifted = d / 6.0 * (b + 4.0 * inst.h(0.5 * (a + bp)) + ha)
        exact = shifted + b * bp - a * ha + (a * a * hp_a - bp * bp * hp_b) / 2.0
        return BoundResult(
            "polya-second", target, exact, exact,
            applicable=check.ok, diagnostics=(check,),
            notes=("degenerate range U - L: h'' constant, exact value",),
        )

    diagnostics = [check]
    cubic = (a ** 3 - bp ** 3) / 6.0

    def side(W: float) -> float | None:
        num = b - ha + a * hp_a - bp * hp_b + W * (bp * bp - a * a) / 2.0
        den = (bp - a) * W - hp_b + hp_a
        if abs(den) <= _DEGENERATE_EPS * max(1.0, abs(W), abs(hp_a), abs(hp_b)):
            diagnostics.append(HypothesisCheck(
                "nonzero_denominator",
                "|(h^{-1}(b) - a)*W - h'(h^{-1}(b)) + h'(a)| > eps",
                f"denominator {den:.3e} at W={W:.12g}", passed=False,
            ))
            return None
        return W * cubic + num * num / (2.0 * den)

    lower, upper = side(L), side(U)
    _reject_overflow("polya-second", lower, upper, L, U)
    notes: tuple[str, ...] = ()
    if anch.orientation < 0:
        lower, upper = upper, lower
        notes = ("reflected orientation: sides exchanged",)
    if lower is not None and upper is not None and lower > upper:
        lower, upper = upper, lower
        notes += ("sides crossed within roundoff; sorted",)
    return BoundResult(
        "polya-second", target, lower, upper,
        applicable=all(c.ok for c in diagnostics), diagnostics=tuple(diagnostics),
        notes=notes, extras=(("L", L), ("U", U)),
    )


# ---------------------------------------------------------------------------
# Higher-order Polya bounds through the alternating S polynomial
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnPolynomial:
    """S_m(h; u, v, w) = sum_{k=1}^{m-1} (-1)^k/k! u^k h^(k-1)(v) + (-1)^m w u^m/m!
    together with its closed-form partial derivatives in u.

    ``derivs_at_v`` must carry h^(0)..h^(m-2) at the evaluation point v.
    """

    m: int
    derivs_at_v: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"polynomial index must be >= 2, got {self.m}")
        if len(self.derivs_at_v) < self.m - 1:
            raise ValueError(
                f"need h^(0)..h^({self.m - 2}) at v, got {len(self.derivs_at_v)} values"
            )

    def partial(self, i: int, u: float, w: float) -> float:
        """d^i S_m / du^i at (u, w); zero for i > m."""
        if i < 0:
            raise ValueError(f"derivative index must be >= 0, got {i}")
        if i > self.m:
            return 0.0
        total = math.fsum(
            (-1.0) ** k / math.factorial(k - i) * u ** (k - i) * self.derivs_at_v[k - 1]
            for k in range(max(i, 1), self.m)
        )
        total += (-1.0) ** self.m * w * u ** (self.m - i) / math.factorial(self.m - i)
        return total


def bound_polya_higher(
    inst: ProblemInstance,
    anch: Anchors,
    n: int,
    t: float | None = None,
) -> BoundResult:
    """Order-n two-sided estimate of SHIFTED from L <= h^(n+1) <= U via the
    alternating polynomial S_{n+2} evaluated at a free point t between a and
    h^{-1}(b).

    Odd n pairs (L, L) against (U, U); even n pairs (L, U) against (U, L).
    Without an explicit t the bound is optimized over a uniform interior grid
    of ``options.t_grid`` points, each grid value being valid on its own, so
    the tightest lower and tightest upper may use different t."""
    _check_order(n)
    target = _shifted_target(inst, anch)
    if anch.width == 0.0:
        return _zero_width_result("polya-higher", target)
    L, U, check = _derivative_range(inst, anch, n + 1, L=None, U=None)
    m = n + 2
    prof = inst.profile
    s_bp = SnPolynomial(m, prof.derivs(anch.h_inv_b, n))
    s_a = SnPolynomial(m, prof.derivs(inst.a, n))
    a, bp = inst.a, anch.h_inv_b

    def coefficients(w_bp: float, w_a: float) -> list[float]:
        """c_i = (-1)^i/i! * (d^i S/du^i at (h^{-1}(b), w_bp) - at (a, w_a)):
        the bound at t is the fsum of c_i * t^i."""
        return [(-1.0) ** i / math.factorial(i)
                * (s_bp.partial(i, bp, w_bp) - s_a.partial(i, a, w_a))
                for i in range(m + 1)]

    if n % 2 == 1:
        lo_w, up_w = (L, L), (U, U)
    else:
        lo_w, up_w = (L, U), (U, L)
    if anch.orientation < 0 and n % 2 == 1:
        lo_w, up_w = up_w, lo_w
    if t is not None and not (anch.alpha < t < anch.beta):
        raise InvalidTError(
            f"t={t!r} not strictly between {anch.alpha!r} and {anch.beta!r}"
        )
    lo_c, up_c = coefficients(*lo_w), coefficients(*up_w)
    lo_of = lambda tv: math.fsum(c * tv ** i for i, c in enumerate(lo_c))
    up_of = lambda tv: math.fsum(c * tv ** i for i, c in enumerate(up_c))

    notes: tuple[str, ...] = ()
    if t is not None:
        lower, upper = lo_of(t), up_of(t)
        extras = (("L", L), ("U", U), ("t_lower", t), ("t_upper", t))
    else:
        grid_n = inst.options.t_grid
        grid = interior_grid(anch.alpha, anch.beta, grid_n)
        t_lo, lower = max(((tv, lo_of(tv)) for tv in grid), key=lambda p: p[1])
        t_hi, upper = min(((tv, up_of(tv)) for tv in grid), key=lambda p: p[1])
        notes = (f"grid-optimized over {grid_n} interior points",)
        extras = (("L", L), ("U", U), ("t_lower", t_lo), ("t_upper", t_hi))
    if lower > upper:
        lower, upper = upper, lower
        notes += ("sides crossed within roundoff; sorted",)
    return BoundResult(
        "polya-higher", target, lower, upper,
        applicable=check.ok, diagnostics=(check,), notes=notes, extras=extras,
    )


# ---------------------------------------------------------------------------
# L^p remainder estimate (absolute form, upper bounds only)
# ---------------------------------------------------------------------------

def bound_lp_remainder(
    inst: ProblemInstance,
    anch: Anchors,
    n: int,
    p: float = _INF,
    t: float | None = None,
) -> BoundResult:
    """Upper bound on |SHIFTED - two-point Taylor sums| via the L^p norm of
    h^(n+1) over [alpha, beta].

    The printed powers presume h^{-1}(b) <= t <= a; instances with the
    opposite orientation are reflected onto [alpha, beta] first. Both the
    t-dependent tight bound and the coarse width-power bound are computed; the
    tight one is reported as the upper bound, the coarse one in the extras.
    The default t is the midpoint, the minimum of the tight bound, which is
    convex and symmetric about it: ((t-alpha)^e + (beta-t)^e) with e >= 1.
    """
    _check_order(n)
    if not (p == 1.0 or math.isinf(p) or p > 1.0):
        raise ExponentDomainError(f"L^p exponent must be 1, +inf, or in (1, inf): {p!r}")
    alpha, beta = anch.alpha, anch.beta
    sigma = -1.0 if anch.orientation < 0 else 1.0
    width = anch.width

    prof = inst.profile
    derivs_alpha = prof.derivs(alpha, n)
    derivs_beta = prof.derivs(beta, n)

    def taylor_two_point(tv: float) -> float:
        left = math.fsum(
            derivs_alpha[i] * (tv - alpha) ** (i + 1) / math.factorial(i + 1)
            for i in range(n + 1)
        )
        right = math.fsum(
            derivs_beta[i] * (tv - beta) ** (i + 1) / math.factorial(i + 1)
            for i in range(n + 1)
        )
        return left - right

    if width == 0.0:
        target = TargetQuantity(
            "ABS_REMAINDER", offset=inst.b * anch.h_inv_b, n=n, absolute=True
        )
        return BoundResult(
            "lp-remainder", target, None, 0.0, True,
            notes=("b = h(a): anchors coincide, bound collapses to 0",),
        )

    if math.isinf(p):  # sup |h^(n+1)|, from the scan polya and holder estimators share
        norm = max(map(abs, _extrema_of_deriv(inst, n + 1, alpha, beta)))
    else:  # quadrature nodes stay out of the profile
        phi_abs = lambda x: abs(inst.deriv(x, n + 1))
        norm = norm_r(phi_abs, NormSpec(p, alpha, beta), inst.options.quad_rel_tol)

    if math.isinf(p):
        expo = n + 2.0
        denom = math.factorial(n + 2)
        coarse = 2.0 * width ** (n + 2) / math.factorial(n + 2) * norm
    elif p == 1.0:
        expo = n + 1.0
        denom = math.factorial(n + 1)
        coarse = 2.0 * width ** (n + 1) / math.factorial(n + 1) * norm
    else:
        q = p / (p - 1.0)
        expo = n + 1.0 + 1.0 / q
        denom = math.factorial(n + 1) * (n * q + q + 1.0) ** (1.0 / q)
        coarse = 2.0 * width ** (n + 2) / math.factorial(n + 1) * norm

    def tight(tv: float) -> float:
        return ((tv - alpha) ** expo + (beta - tv) ** expo) / denom * norm

    if t is not None:
        if not (alpha < t < beta):
            raise InvalidTError(f"t={t!r} not strictly between {alpha!r} and {beta!r}")
        t_used = t
    else:
        t_used = 0.5 * (alpha + beta)
    upper = tight(t_used)

    offset = inst.b * anch.h_inv_b + sigma * taylor_two_point(t_used)
    target = TargetQuantity("ABS_REMAINDER", offset=offset, n=n, absolute=True)
    notes = ("reflected orientation",) if anch.orientation < 0 else ()
    return BoundResult(
        "lp-remainder", target, None, upper, True,
        notes=notes,
        extras=(("coarse_upper", coarse), ("t", t_used), ("norm", norm)),
    )


# ---------------------------------------------------------------------------
# Method registry
# ---------------------------------------------------------------------------

# method name -> (estimator, positional argument names accepted by CLI specs
# like "taylor-jensen(2)" or "holder-norm(2,2)")
METHODS = {
    "hoorfar-qi": (bound_hoorfar_qi, ()),
    "hh-cebysev": (bound_hh_cebysev, ()),
    "jensen-first": (bound_jensen_first, ()),
    "holder-norm": (bound_holder_norm, ("p", "q")),
    "taylor-lagrange": (bound_taylor_lagrange, ("n",)),
    "taylor-holder": (bound_taylor_holder, ("n", "p", "q")),
    "taylor-cebysev": (bound_taylor_cebysev, ("n",)),
    "taylor-jensen": (bound_taylor_jensen, ("n",)),
    "taylor-product-hh": (bound_taylor_product_hh, ("n",)),
    "polya-first": (bound_polya_first, ("L", "U")),
    "polya-second": (bound_polya_second, ("L", "U")),
    "polya-higher": (bound_polya_higher, ("n", "t")),
    "lp-remainder": (bound_lp_remainder, ("n", "p", "t")),
}


# method name -> its sampled sign gates, each (order - n, interval) with n
# the method's order (0 for a method that takes none) and the interval
# "c" for (0, c) or "ab" for [alpha, beta]; each gate reads its interval's
# SCAN_POINTS grid through _check
_GATES = {
    "hoorfar-qi": ((2, "c"),),
    "hh-cebysev": ((2, "ab"),),
    "jensen-first": ((3, "ab"),),
    "taylor-lagrange": ((2, "c"),),
    "taylor-holder": ((1, "ab"),),
    "taylor-cebysev": ((2, "ab"),),
    "taylor-jensen": ((3, "ab"),),
    "taylor-product-hh": ((1, "ab"), (3, "ab")),
}


def check_method_args(name: str, args: tuple[float, ...]) -> None:
    """Raise ParseError unless ``name`` is a registered method, ``args`` are
    no more than the names ``METHODS[name]`` lists, and any order n is a
    nonnegative integer. Both the spec parser and ``run_method`` call it."""
    if name not in METHODS:
        raise ParseError(f"unknown method {name!r}")
    arg_names = METHODS[name][1]
    if len(args) > len(arg_names):
        raise ParseError(f"{name} accepts at most {len(arg_names)} arguments, got {len(args)}")
    n = dict(zip(arg_names, args)).get("n")
    if n is not None and not (n >= 0 and float(n).is_integer()):
        shown = int(n) if float(n).is_integer() else n
        raise ParseError(f"{name}: order n must be a nonnegative integer, got {shown!r}")


def run_method(
    inst: ProblemInstance,
    anch: Anchors,
    name: str,
    args: tuple[float, ...] = (),
) -> BoundResult:
    """Dispatch a method by registry name with optional positional arguments.
    A missing n is ``options.taylor_order``; the Hölder pairs are the first of
    each ``*_exponent_pairs`` option, with a positional p or q replacing its side."""
    check_method_args(name, args)
    fn, arg_names = METHODS[name]
    kwargs = dict(zip(arg_names, args))
    if "n" in arg_names:
        kwargs["n"] = _order(inst, kwargs)
    if name in ("holder-norm", "taylor-holder"):
        p, q = inst.options.upper_exponent_pairs[0]
        kwargs["upper_pair"] = (kwargs.pop("p", p), kwargs.pop("q", q))
        kwargs["lower_pair"] = inst.options.lower_exponent_pairs[0]
    return fn(inst, anch, **kwargs)


def _order(inst: ProblemInstance, kwargs: dict) -> int:
    """The order n of a method's named arguments, ``options.taylor_order``
    where none is given."""
    return int(kwargs.get("n", inst.options.taylor_order))


def fill_gate_grids(
    inst: ProblemInstance, anch: Anchors, runs: Iterable[tuple[str, tuple[float, ...]]]
) -> None:
    """Compute each gate grid that ``runs``, (name, args) pairs as
    :func:`run_method` takes them, read on ``inst`` once, at the highest
    order any of them reads there. Each of their gates is then a prefix of
    one batch (``DerivativeProfile.column``), not a new batch at each higher
    order, and every result keeps its bits.

    A run that ``check_method_args`` rejects, and an order above the jet
    cap, are left to ``run_method``, which raises the run's own error."""
    spans = {"c": (0.0, inst.c), "ab": (anch.alpha, anch.beta)}
    orders: dict = {}
    for name, args in runs:
        try:
            check_method_args(name, args)
        except ParseError:
            continue
        arg_names = METHODS[name][1]
        n = _order(inst, dict(zip(arg_names, args))) if "n" in arg_names else 0
        for offset, span in _GATES.get(name, ()):
            if offset + n <= DEFAULT_ORDER_CAP:
                grid = spans[span]  # (0, c) and [alpha, beta] may be one grid
                orders[grid] = max(orders.get(grid, 0), offset + n)
    for (lo, hi), order in orders.items():
        inst.profile.column(lo, hi, SCAN_POINTS, order)
