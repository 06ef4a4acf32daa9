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
that no root-solve ever runs inside a quadrature loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConsistencyError, DomainError, ValidationError, YoungBoundsError
from .expr import DEFAULT_ORDER_CAP, ExprAst, _jet_kernel, evaluate, jet, jet_rows, parse_expr
from .numerics import _value_or_none, integrate, interior_grid, invert

__all__ = [
    "Options", "ProblemInstance", "DerivativeProfile", "Anchors", "OracleResult",
    "make_problem", "anchors", "oracle", "oracle_gap", "oracle_sum",
]

_INF = math.inf

# (coefficient exponent, norm exponent): the Hölder estimators' default pairs.
DEFAULT_UPPER_PAIR = (1.0, _INF)
DEFAULT_LOWER_PAIR = (1.0, -_INF)

# Interior sample count of the sign scans in validation and the catalog's gates.
SCAN_POINTS = 257

# polya-higher evaluates its bound at t_grid points.
T_GRID_MAX = 1000


@dataclass(frozen=True)
class Options:
    quad_rel_tol: float = 1e-12
    taylor_order: int = 1
    t_grid: int = 33
    upper_exponent_pairs: tuple[tuple[float, float], ...] = (DEFAULT_UPPER_PAIR,)
    lower_exponent_pairs: tuple[tuple[float, float], ...] = (DEFAULT_LOWER_PAIR,)
    assume: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not (_is_number(self.quad_rel_tol) and 1e-14 <= self.quad_rel_tol < 1.0):
            raise ValidationError(
                "quad_rel_tol", f"must be a number in [1e-14, 1), got {self.quad_rel_tol!r}"
            )
        # taylor-jensen and taylor-product-hh gate on h^(n+3)
        if not (_is_integer(self.taylor_order)
                and 0 <= self.taylor_order <= DEFAULT_ORDER_CAP - 3):
            raise ValidationError(
                "taylor_order",
                f"must be an integer in [0, {DEFAULT_ORDER_CAP - 3}] (orders up to n + 3 "
                f"stay within the jet cap {DEFAULT_ORDER_CAP}), got {self.taylor_order!r}",
            )
        if not (_is_integer(self.t_grid) and 1 <= self.t_grid <= T_GRID_MAX):
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


def _is_integer(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class ProblemInstance:
    """Validated (h, c, a, b) plus options. Immutable; all methods are pure.

    ``profile`` is the :class:`DerivativeProfile` of the instance's tree,
    which every estimator run on it shares; like ``ExprAst._kernels`` it takes
    no part in equality, hashing or repr, and it does not refer back to the
    instance.
    """

    ast: ExprAst
    a: float
    b: float
    c: float
    options: Options = field(default_factory=Options)
    profile: DerivativeProfile = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "profile", DerivativeProfile(self.ast))

    def h(self, x: float) -> float:
        """h(x); at x = 0 the validated limit h(0+) = 0 stands in when the
        expression itself is undefined there (e.g. exp(-1/x)). It reads only
        ``self.ast``, and :class:`DerivativeProfile` binds this same function
        as its ``h``."""
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


class DerivativeProfile:
    """The derivatives of one instance's tree, each jet computed once and shared.

    A jet kernel's coefficient k depends only on coefficients <= k of its
    operands, so when ``jet(x, m)`` succeeds its derivatives 0..k are those of
    ``jet(x, k)``, bit for bit, and the profile serves every lower order from
    the highest order it computed. It keeps two kinds of rows:

    - grid rows: ``column`` reads ``interior_grid(lo, hi, n)`` at once. Per
      grid, the profile keeps its abscissae and the rows of one
      :func:`jet_rows` batch at the highest order computed there, None where
      that jet fails; a higher order computes the rows again on the same
      abscissae and replaces the entry. The catalog's gates and extremum
      scans read these, and ``catalog.fill_gate_grids`` fills each gate grid
      once, at the highest order a report's methods read there.
    - point rows: ``deriv`` and ``derivs`` read one abscissa (anchors,
      extremum endpoints, midpoints). Per abscissa, the profile keeps the
      longest derivative tuple computed there; a miss runs the jet kernel of
      exactly the order asked for, and a jet that fails is not kept.
      ``deriv_unkept`` reads a point that is read once, such as a
      golden-section step, and keeps nothing.

    Every read returns or raises what ``inst.deriv`` and
    ``jet(inst.ast, x, order)`` would. ``memo`` keeps values derived from the
    derivatives (the catalog's sampled gates, extrema and exact r = 1 norms),
    or the typed error of a computation that failed, under keys its caller
    chooses; keys that name an interval make the profile valid for any
    anchors.

    The profile holds the tree, never its instance, and nothing it keeps
    refers back to the instance: an instance, its profile, rows, tree and
    kernels are freed by reference counting as soon as the caller drops the
    instance, without waiting for the cyclic garbage collector.

    Only point reads, gates and scans read the profile, so it keeps a few
    thousand rows per distinct interval; quadrature integrands call
    ``inst.deriv`` and leave nothing behind.

    Entries only ever equal what a recomputation would give or raise, and a
    grid entry is replaced, never changed in place, so threads share a
    profile without a lock: a race at worst computes an entry twice.
    """

    __slots__ = ("ast", "_jets", "_grids", "_memo")

    def __init__(self, ast: ExprAst) -> None:
        self.ast = ast
        self._jets: dict = {}
        self._grids: dict = {}
        self._memo: dict = {}

    # the instance's h, with its h(0+) = 0 rule: the function reads only ``ast``
    h = ProblemInstance.h

    def _jet_row(self, x: float, order: int) -> tuple[float, ...]:
        """``jet(ast, x, order).derivs``: jet's kernel, order checks and
        DomainError, without its TaylorJet wrapper."""
        (row,) = _jet_kernel(self.ast, order, DEFAULT_ORDER_CAP)((x,))
        if isinstance(row, DomainError):
            try:
                raise row
            finally:
                row = None  # the frame of the traceback keeps no error
        return row

    def _row(self, x: float, order: int) -> tuple[float, ...]:
        """A derivative tuple at x of length > order (the longest cached)."""
        key = x if x else repr(x)  # 0.0 and -0.0 are equal dict keys
        cached = self._jets.get(key)
        if cached is None or not 0 <= order < len(cached):
            cached = self._jet_row(x, order)
            if len(cached) > len(self._jets.get(key, ())):
                self._jets[key] = cached
        return cached

    def abscissae(self, lo: float, hi: float, n: int) -> list[float]:
        """``interior_grid(lo, hi, n)``: the list the grid's entry keeps, or a
        new one for a grid with no entry."""
        entry = self._grids.get((lo, hi, n))
        return interior_grid(lo, hi, n) if entry is None else entry[1]

    def column(self, lo: float, hi: float, n: int, k: int, fill: int = 0) -> list[float | None]:
        """h^(k) at each x of ``interior_grid(lo, hi, n)``: what ``deriv``
        returns, or None where it raises DomainError.

        A grid with no entry, or one kept below order k, is computed in one
        batch at order max(k, ``fill``), on the abscissae the entry keeps if
        it has one, and replaces its entry; a ``fill`` above k lets a later
        read of that order share the batch. Where the kept order is above k
        and its jet failed, the point is computed again at k, in one more
        batch that is not kept."""
        if k == 0:
            return [_value_or_none(self.h, x) for x in self.abscissae(lo, hi, n)]
        key = (lo, hi, n)  # the grid of -0.0 is that of 0.0, as in a memo key
        entry = self._grids.get(key)
        if entry is None or not 0 < k <= entry[0]:
            order = max(k, fill) if k > 0 else k  # a bad k raises as deriv's does
            xs = self.abscissae(lo, hi, n)
            entry = self._grids[key] = (order, xs, jet_rows(self.ast, xs, order))
        order, xs, rows = entry
        values = [None if row is None else row[k] for row in rows]
        if order > k:
            misses = [i for i, row in enumerate(rows) if row is None]
            if misses:
                redone = jet_rows(self.ast, [xs[i] for i in misses], k)
                for i, row in zip(misses, redone):
                    if row is not None:
                        values[i] = row[k]
        return values

    def derivs(self, x: float, order: int) -> tuple[float, ...]:
        """h^(0)..h^(order) at x: ``jet(inst.ast, x, order).derivs``."""
        return self._row(x, order)[:order + 1]

    def deriv(self, x: float, k: int) -> float:
        """h^(k)(x), as ``inst.deriv``: h itself (not a jet) at k = 0."""
        if k == 0:
            return self.h(x)
        return self._row(x, k)[k]

    def deriv_unkept(self, x: float, k: int) -> float:
        """``deriv(x, k)``, computed afresh and kept nowhere: for a point that
        is read once, as a golden-section step is."""
        if k == 0:
            return self.h(x)
        return self._jet_row(x, k)[k]

    def memo(self, key: tuple, compute):
        """``compute()`` (never None), once per key. A call that raises a
        :class:`YoungBoundsError` is kept too, and every later read raises an
        error of the same class and message without calling ``compute``
        again; any other exception leaves no entry."""
        value = self._memo.get(key)
        if value is None:
            try:
                value = compute()
            except YoungBoundsError as exc:
                self._memo[key] = _copy_error(exc)
                raise
            self._memo[key] = value
        elif isinstance(value, YoungBoundsError):
            raise _copy_error(value)
        return value


def _copy_error(exc: YoungBoundsError) -> YoungBoundsError:
    """A new error with the class, arguments and attributes of ``exc``, but no
    traceback: a memo keeps no frames alive, and each read raises its own."""
    copy = type(exc).__new__(type(exc), *exc.args)
    copy.__dict__.update(exc.__dict__)
    return copy


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

def _h_inverse(inst: ProblemInstance) -> float:
    """h^{-1}(b) on [0, c], sampling h through ``inst.h`` and its h(0+) = 0
    rule."""
    if inst.b == 0.0:
        return 0.0
    deriv1 = lambda x: jet(inst.ast, x, 1).derivs[1]
    return invert(inst.h, inst.b, 0.0, inst.c, rel_tol=inst.options.quad_rel_tol, dh=deriv1)


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
    if isinstance(function, str):
        ast = parse_expr(function)
    elif isinstance(function, ExprAst):
        ast = function
    else:
        raise ValidationError(
            "function", f"must be an expression string or ExprAst, got {function!r}"
        )

    for name, v in (("a", a), ("b", b)):
        if not _is_number(v) or not math.isfinite(v):
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
        # an unvalidated instance on [0, hi], only to sample h by its rule
        bracket = ProblemInstance(ast=ast, a=float(a), b=float(b), c=hi, options=options)
        c = max(a, _h_inverse(bracket)) if b > 0 else a
    if not (_is_number(c) and math.isfinite(c) and c > 0):
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
    # A row that succeeded is finite, so when every row did, the least slope
    # alone passes or fails the floor test, and the greatest the positive
    # one; otherwise the scan walks the points in order to name the first
    # that fails.
    n = SCAN_POINTS
    floor = -1e-12
    xs = interior_grid(0.0, c, n)
    rows = jet_rows(inst.ast, xs, 1)
    d1s = [row[1] for row in rows if row is not None]
    if len(d1s) < n or min(d1s) < floor or max(d1s) <= 0.0:
        seen_positive = False
        for x, row in zip(xs, rows):
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
    h_inv_b = _h_inverse(inst)
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
