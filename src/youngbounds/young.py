"""Problem instances and the quadrature oracle for the Young functional.

For a strictly increasing h on [0, c] with h(0) = 0, a in [0, c] and
b in [0, h(c)], the quantity of interest is

    SUM = integral(h, 0, a) + integral(h^{-1}, 0, b)
    GAP = SUM - a*b  >= 0,  with equality iff b = h(a).

The oracle evaluates GAP through the orientation-free area identity

    GAP = integral(h, h^{-1}(b), a) - a*b + b*h^{-1}(b)

(one signed integral, same code path whichever of a and h^{-1}(b) is larger)
and cross-checks it against the split two-integral form, where the inverse
integral is rewritten by parts as b*h^{-1}(b) - integral(h, 0, h^{-1}(b)) so
that no root-solve ever runs inside a quadrature loop. A slow direct-inversion
cross-check (integrand = pointwise invert at reduced tolerance 1e-8) can be
switched on for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConsistencyError, DomainError, ValidationError
from .expr import DEFAULT_ORDER_CAP, ExprAst, evaluate, jet, jet_rows, parse_expr
from .numerics import integrate, invert

__all__ = [
    "Options", "ProblemInstance", "DerivativeProfile", "Anchors", "OracleResult",
    "make_problem", "anchors", "oracle", "oracle_gap", "oracle_sum",
]

_INF = math.inf

# Exponent pairs are (coefficient exponent, norm exponent); see bounds_catalog.
_DEFAULT_UPPER_PAIRS = ((1.0, _INF), (_INF, 1.0), (2.0, 2.0))
_DEFAULT_LOWER_PAIRS = ((1.0, -_INF), (-_INF, 1.0), (0.5, -1.0))

# Interior sample count of the sign scans in validation and the catalog's gates.
SCAN_POINTS = 257

# polya-higher and lp-remainder evaluate their bound at t_grid points each.
T_GRID_MAX = 1000


@dataclass(frozen=True)
class Options:
    quad_rel_tol: float = 1e-12
    taylor_order: int = 1
    t_grid: int = 33
    upper_exponent_pairs: tuple[tuple[float, float], ...] = _DEFAULT_UPPER_PAIRS
    lower_exponent_pairs: tuple[tuple[float, float], ...] = _DEFAULT_LOWER_PAIRS
    assume: frozenset[str] = frozenset()
    cross_check_inversion: bool = False

    def __post_init__(self) -> None:
        if not 1e-14 <= self.quad_rel_tol < 1.0:
            raise ValidationError(
                "quad_rel_tol", f"must be in [1e-14, 1), got {self.quad_rel_tol!r}"
            )
        # taylor-jensen and taylor-product-hh gate on h^(n+3)
        if not 0 <= self.taylor_order <= DEFAULT_ORDER_CAP - 3:
            raise ValidationError(
                "taylor_order",
                f"must be in [0, {DEFAULT_ORDER_CAP - 3}] (orders up to n + 3 stay "
                f"within the jet cap {DEFAULT_ORDER_CAP}), got {self.taylor_order!r}",
            )
        if (isinstance(self.t_grid, bool) or not isinstance(self.t_grid, int)
                or not 1 <= self.t_grid <= T_GRID_MAX):
            raise ValidationError(
                "t_grid", f"must be an integer in [1, {T_GRID_MAX}], got {self.t_grid!r}"
            )
        for name in ("upper_exponent_pairs", "lower_exponent_pairs"):
            pairs = getattr(self, name)
            if not isinstance(pairs, tuple) or not pairs:
                raise ValidationError(name, f"must be a nonempty tuple of pairs, got {pairs!r}")
            for pair in pairs:
                if not (isinstance(pair, tuple) and len(pair) == 2
                        and _is_number(pair[0]) and _is_number(pair[1])):
                    raise ValidationError(name, f"each pair must be two numbers, got {pair!r}")


def _is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@dataclass(frozen=True)
class ProblemInstance:
    """Validated (h, c, a, b) plus options. Immutable; all methods are pure.

    ``profile`` is the instance's :class:`DerivativeProfile`, which every
    estimator run on it shares; like ``ExprAst._kernels`` it takes no part in
    equality, hashing or repr.
    """

    ast: ExprAst
    a: float
    b: float
    c: float
    options: Options = field(default_factory=Options)
    profile: DerivativeProfile = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "profile", DerivativeProfile(self))

    def h(self, x: float) -> float:
        """h(x); at x = 0 the validated limit h(0+) = 0 stands in when the
        expression itself is undefined there (e.g. exp(-1/x))."""
        try:
            return evaluate(self.ast, x)
        except DomainError:
            if x == 0.0:
                return 0.0
            raise

    def deriv(self, x: float, k: int) -> float:
        if k == 0:
            return self.h(x)
        return jet(self.ast, x, k).derivs[k]

    def jet_at(self, x: float, order: int):
        return jet(self.ast, x, order)


class DerivativeProfile:
    """The derivatives of one instance, each jet computed once and shared.

    A jet kernel's coefficient k depends only on coefficients <= k of its
    operands, so when ``jet(x, m)`` succeeds its derivatives 0..k are those of
    ``jet(x, k)``, bit for bit. The profile keeps, per abscissa, the longest
    derivative tuple computed there and serves every lower order from it. A
    miss computes exactly the order asked for, and a jet that fails is never
    kept, so every read returns or raises what ``inst.deriv`` and
    ``inst.jet_at`` would. ``column`` reads many abscissae at once and
    computes all its misses in one :func:`jet_rows` batch; ``deriv`` and
    ``derivs`` read one. ``memo`` keeps values derived from the derivatives
    (the catalog's sampled gates, extrema and exact r = 1 norms) under keys
    its caller chooses; keys that name an interval make the profile valid for
    any anchors.

    Only point reads, gates and scans read the profile, so it keeps a few
    thousand abscissae per distinct interval; quadrature integrands call
    ``inst.deriv`` and leave nothing behind.

    Entries only ever equal what a recomputation would give, so threads share
    a profile without a lock: a race at worst computes an entry twice.
    """

    __slots__ = ("inst", "_jets", "_memo")

    def __init__(self, inst: ProblemInstance) -> None:
        self.inst = inst
        self._jets: dict = {}
        self._memo: dict = {}

    def _row(self, x: float, order: int) -> tuple[float, ...]:
        """A derivative tuple at x of length > order (the longest cached)."""
        key = x if x else repr(x)  # 0.0 and -0.0 are equal dict keys
        cached = self._jets.get(key)
        if cached is None or not 0 <= order < len(cached):
            cached = jet(self.inst.ast, x, order).derivs
            if len(cached) > len(self._jets.get(key, ())):
                self._jets[key] = cached
        return cached

    def column(self, xs, k: int) -> list[float | None]:
        """h^(k) at each x of the sequence ``xs``: what ``deriv`` returns, or
        None where it raises DomainError. The misses at k > 0 are computed in
        one batch, and only the rows that succeed are kept."""
        if k == 0:
            return [_value_or_none(self.inst.h, x) for x in xs]
        jets = self._jets
        values: list[float | None] = []
        misses: list[int] = []
        for x in xs:
            row = jets.get(x if x else repr(x))  # 0.0 and -0.0 are equal dict keys
            if row is not None and 0 < k < len(row):
                values.append(row[k])
            else:
                misses.append(len(values))
                values.append(None)
        if misses:
            rows = jet_rows(self.inst.ast, [xs[i] for i in misses], k)
            for i, row in zip(misses, rows):
                if row is not None:
                    x = xs[i]
                    key = x if x else repr(x)
                    if len(row) > len(jets.get(key, ())):
                        jets[key] = row
                    values[i] = row[k]
        return values

    def derivs(self, x: float, order: int) -> tuple[float, ...]:
        """h^(0)..h^(order) at x: ``inst.jet_at(x, order).derivs``."""
        return self._row(x, order)[:order + 1]

    def deriv(self, x: float, k: int) -> float:
        """h^(k)(x), as ``inst.deriv``: h itself (not a jet) at k = 0."""
        if k == 0:
            return self.inst.h(x)
        return self._row(x, k)[k]

    def memo(self, key: tuple, compute):
        """``compute()`` (never None), once per key; a call that raises leaves
        no entry."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = compute()
        return value


def _value_or_none(f, x: float) -> float | None:
    try:
        return f(x)
    except DomainError:
        return None


@dataclass(frozen=True)
class Anchors:
    """h^{-1}(b) and the interval [alpha, beta] = [min, max] of {a, h^{-1}(b)}."""

    h_inv_b: float
    alpha: float
    beta: float
    h_a: float
    orientation: int  # sign of a - h^{-1}(b)

    @property
    def width(self) -> float:
        return self.beta - self.alpha


@dataclass(frozen=True)
class OracleResult:
    gap: float
    sum: float
    abs_error_estimate: float
    evaluations: int
    path_delta: float  # |canonical - split-form| cross-check residual


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def _h_inverse(ast: ExprAst, y: float, c: float, rel_tol: float) -> float:
    if y == 0.0:
        return 0.0
    deriv1 = lambda x: jet(ast, x, 1).derivs[1]
    h = lambda x: evaluate(ast, x)
    return invert(h, y, 0.0, c, rel_tol=rel_tol, dh=deriv1)


def make_problem(
    function: str | ExprAst,
    a: float,
    b: float,
    c: float | None = None,
    options: Options | None = None,
) -> ProblemInstance:
    """Build and validate a :class:`ProblemInstance`.

    When ``c`` is omitted it defaults to max(a, h^{-1}(b)): the bound catalog
    only ever needs [0, c] to contain both anchor abscissae.
    """
    options = options or Options()
    ast = parse_expr(function) if isinstance(function, str) else function

    for name, v in (("a", a), ("b", b)):
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValidationError(name, f"must be a finite number, got {v!r}")
    if a < 0:
        raise ValidationError("a", f"must be >= 0, got {a!r}")
    if b < 0:
        raise ValidationError("b", f"must be >= 0, got {b!r}")

    if c is None:
        if a <= 0 and b <= 0:
            raise ValidationError("c", "cannot default c when a = b = 0")
        # Bracket h^{-1}(b) by doubling, then take c = max(a, h^{-1}(b)).
        hi = max(a, 1.0)
        h = lambda x: evaluate(ast, x)
        for _ in range(200):
            try:
                if h(hi) >= b:
                    break
            except DomainError as exc:
                raise ValidationError("c", f"h undefined while bracketing h^-1(b): {exc}")
            hi *= 2.0
        else:
            raise ValidationError("c", f"could not bracket h^-1({b!r})")
        c = max(a, _h_inverse(ast, b, hi, options.quad_rel_tol)) if b > 0 else a
    if not (isinstance(c, (int, float)) and math.isfinite(c) and c > 0):
        raise ValidationError("c", f"must be a finite number > 0, got {c!r}")
    if a > c * (1.0 + 1e-12):
        raise ValidationError("a", f"must be <= c = {c!r}, got {a!r}")

    inst = ProblemInstance(ast=ast, a=float(a), b=float(b), c=float(c), options=options)
    _validate(inst)
    return inst


def _validate(inst: ProblemInstance) -> None:
    c = inst.c

    # b <= h(c), evaluated numerically (guarded just inside if c is singular).
    try:
        hc = inst.h(c)
    except DomainError:
        hc = inst.h(c * (1.0 - 1e-9))
    if inst.b > hc * (1.0 + 1e-9) + 1e-12:
        raise ValidationError("b", f"must be <= h(c) = {hc!r}, got {inst.b!r}")

    # Numerically strictly increasing: h' >= 0 at interior scan points, with a
    # genuinely positive slope somewhere. Interior points (never 0 or c) keep
    # expressions like exp(-1/x) evaluable; its derivative underflows to 0 for
    # tiny x, which is why exact zeros are tolerated pointwise.
    n = SCAN_POINTS
    seen_positive = False
    floor = -1e-12
    xs = [c * i / (n + 1) for i in range(1, n + 1)]
    for x, row in zip(xs, jet_rows(inst.ast, xs, 1)):
        try:
            # a failed row's message comes from one jet at its abscissa
            d1 = row[1] if row is not None else inst.deriv(x, 1)
        except DomainError as exc:
            raise ValidationError("function", f"h' not evaluable at x={x!r}: {exc}")
        if d1 < floor * max(1.0, abs(d1)):
            raise ValidationError(
                "function", f"h'({x!r}) = {d1!r} < 0: h is not increasing on [0, c]"
            )
        if d1 > 0.0:
            seen_positive = True
    if not seen_positive:
        raise ValidationError("function", "h' vanishes at every scan point")

    # h(0+) = 0 within 1e-8, sampled as a one-sided limit at 1e-6, 1e-8, 1e-10.
    samples = [s for s in (1e-6, 1e-8, 1e-10) if s < c / 2]
    values = []
    for s in samples or [c * 1e-9]:
        try:
            values.append(abs(inst.h(s)))
        except DomainError:
            continue
    if not values:
        raise ValidationError("function", "h not evaluable near 0+")
    if values[-1] > 1e-8:
        raise ValidationError(
            "function", f"h(0+) limit estimate {values[-1]!r} exceeds 1e-8"
        )


# ---------------------------------------------------------------------------
# Anchors and oracle
# ---------------------------------------------------------------------------

def anchors(inst: ProblemInstance) -> Anchors:
    """h^{-1}(b), alpha = min{a, h^{-1}(b)}, beta = max{a, h^{-1}(b)}."""
    h_inv_b = _h_inverse(inst.ast, inst.b, inst.c, inst.options.quad_rel_tol)
    d = inst.a - h_inv_b
    return Anchors(
        h_inv_b=h_inv_b,
        alpha=min(inst.a, h_inv_b),
        beta=max(inst.a, h_inv_b),
        h_a=inst.h(inst.a),
        orientation=0 if d == 0 else (1 if d > 0 else -1),
    )


def oracle(inst: ProblemInstance, anch: Anchors | None = None) -> OracleResult:
    """GAP and SUM to quadrature accuracy, with the dual-path consistency gate."""
    anch = anch or anchors(inst)
    a, b = inst.a, inst.b
    bp = anch.h_inv_b
    tol = inst.options.quad_rel_tol

    q_area = integrate(inst.h, bp, a, tol)
    gap = q_area.value - a * b + b * bp

    q_0a = integrate(inst.h, 0.0, a, tol)
    q_0bp = integrate(inst.h, 0.0, bp, tol)
    gap_split = q_0a.value + (b * bp - q_0bp.value) - a * b

    err = q_area.abs_error_estimate + q_0a.abs_error_estimate + q_0bp.abs_error_estimate
    evals = q_area.evaluations + q_0a.evaluations + q_0bp.evaluations
    scale = max(1.0, abs(gap), a * b)
    delta = abs(gap - gap_split)
    if delta > max(20.0 * err, 1e-13 * scale):
        raise ConsistencyError(
            f"area path {gap!r} and split path {gap_split!r} disagree by {delta:.3e} "
            f"(allowance {max(20.0 * err, 1e-13 * scale):.3e})"
        )

    if inst.options.cross_check_inversion and b > 0:
        inv_tol = 1e-8
        h_inv = lambda y: invert(inst.h, y, 0.0, inst.c, rel_tol=inv_tol)
        q_inv = integrate(h_inv, 0.0, b, inv_tol)
        direct = b * bp - q_0bp.value
        allowance = 20.0 * (q_inv.abs_error_estimate + inv_tol * max(1.0, b * bp))
        if abs(q_inv.value - direct) > allowance:
            raise ConsistencyError(
                f"pointwise-inversion integral {q_inv.value!r} disagrees with "
                f"by-parts value {direct!r} beyond {allowance:.3e}"
            )
        evals += q_inv.evaluations

    if gap < -max(1e-10, 20.0 * err):
        raise ConsistencyError(f"Young gap came out negative: {gap!r}")

    return OracleResult(
        gap=gap, sum=gap + a * b, abs_error_estimate=err,
        evaluations=evals, path_delta=delta,
    )


def oracle_gap(inst: ProblemInstance, anch: Anchors | None = None) -> float:
    return oracle(inst, anch).gap


def oracle_sum(inst: ProblemInstance, anch: Anchors | None = None) -> float:
    return oracle(inst, anch).sum
