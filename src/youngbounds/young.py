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
from operator import itemgetter

from .errors import ConsistencyError, DomainError, ValidationError, YoungBoundsError
from .expr import (
    DEFAULT_ORDER_CAP, BinOp, Call, Const, ExprAst, Neg, Node, Pow, Var, _jet_derivs, _LruTable,
    evaluate, evaluate_rows, jet, jet_rows, parse_expr,
)
from .numerics import integrate, interior_grid, invert

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


# make_problem's options where none are given; Options is frozen, so one
# instance serves every call
_DEFAULT_OPTIONS = Options()


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
        expression itself is undefined there (e.g. exp(-1/x))."""
        try:
            return evaluate(self.ast, x)
        except DomainError:
            if x == 0.0:
                return 0.0
            raise

    def h_rows(self, xs: list[float]) -> list[float]:
        """``[self.h(x) for x in xs]``, values or the first error alike: one
        :func:`evaluate_rows` batch, read point by point where that raises,
        so that the h(0+) rule applies. The quadratures read h this way."""
        try:
            return evaluate_rows(self.ast, xs)
        except DomainError:
            pass
        return [self.h(x) for x in xs]

    def deriv(self, x: float, k: int) -> float:
        """h^(k)(x), one jet kernel call: h itself, with its h(0+) rule, at k = 0."""
        return self.h(x) if k == 0 else _jet_derivs(self.ast, x, k)[k]

    def derivs(self, x: float, order: int) -> tuple[float, ...]:
        """h^(0)..h^(order) at x: ``jet(self.ast, x, order).derivs``."""
        return _jet_derivs(self.ast, x, order)


class DerivativeProfile:
    """The scans of one instance's tree and the values derived from them,
    each computed once and shared by every estimator run on the instance. A
    point read is one kernel call of ``ProblemInstance.deriv`` or ``derivs``
    and is kept nowhere.

    ``column`` reads h^(k), k >= 1, on a grid ``interior_grid(lo, hi, n)``.
    Per grid, the profile keeps the abscissae and the rows of one
    :func:`jet_rows` batch at the highest order computed there, None where
    that jet fails; a higher order computes the rows again on the same
    abscissae and replaces the entry. A jet kernel's coefficient k depends
    only on coefficients <= k of its operands, so where ``jet(x, m)``
    succeeds its derivatives 0..k are those of ``jet(x, k)``, bit for bit,
    and a grid serves every lower order. Validation's h' scan of (0, c) and
    the catalog's gates and extremum scans read these, and
    ``catalog.fill_gate_grids`` fills each gate grid once, at the highest
    order a report's methods read there, on the abscissae of (0, c) that
    validation left.

    ``memo`` keeps values derived from the derivatives (the catalog's gate
    verdicts, extrema and exact r = 1 norms), or the typed error of a
    computation that failed, under keys its caller chooses; keys that name
    an interval make the profile valid for any anchors.

    The profile holds the tree, never its instance, and nothing it keeps
    refers back to the instance: an instance, its profile, rows, tree and
    kernels are freed by reference counting as soon as the caller drops the
    instance, without waiting for the cyclic garbage collector.

    Entries only ever equal what a recomputation would give or raise, and a
    grid entry is replaced, never changed in place, so threads share a
    profile without a lock: a race at worst computes an entry twice.
    """

    __slots__ = ("ast", "_grids", "_memo")

    def __init__(self, ast: ExprAst) -> None:
        self.ast = ast
        self._grids: dict = {}
        self._memo: dict = {}

    def column(
        self, lo: float, hi: float, n: int, k: int, fill: int = 0
    ) -> tuple[list[float], list[float | None]]:
        """The abscissae ``interior_grid(lo, hi, n)`` and h^(k) at each, k >= 1:
        what ``ProblemInstance.deriv`` returns, or None where it raises
        DomainError.

        A grid with no entry, or one kept below order k, is computed in one
        batch at order max(k, ``fill``), on the abscissae the entry keeps if
        it has one, and replaces its entry; a ``fill`` above k lets a later
        read of that order share the batch. Where the kept order is above k
        and its jet failed, the point is computed again at k, in one more
        batch that is not kept.

        The values are first one ``map`` of ``itemgetter(k)`` over the rows,
        with no pass over the rows in Python and none to look for a failed
        row: a None row stops that map with a TypeError, and only then are
        the rows read one by one."""
        key = (lo, hi, n)  # the grid of -0.0 is that of 0.0, as in a memo key
        entry = self._grids.get(key)
        if entry is None or not 0 < k <= entry[0]:
            order = max(k, fill) if k > 0 else k  # a bad k raises as deriv's does
            xs = interior_grid(lo, hi, n) if entry is None else entry[1]
            entry = self._grids[key] = (order, xs, jet_rows(self.ast, xs, order))
        order, xs, rows = entry
        try:
            return xs, list(map(itemgetter(k), rows))
        except TypeError:  # a None row, where the jet failed
            pass
        values = [None if row is None else row[k] for row in rows]
        if order > k:
            misses = [i for i, row in enumerate(rows) if row is None]
            for i, row in zip(misses, jet_rows(self.ast, [xs[i] for i in misses], k)):
                if row is not None:
                    values[i] = row[k]
        return xs, values

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


# Bound on the total characters of the texts the domain table keeps. Each
# entry counts its text and _ENTRY_CHARS more, for the key, the tree and
# h(c), so that many short texts hold no more than a few long ones.
_DOMAIN_TABLE_CHARS = 100_000
_ENTRY_CHARS = 32

# (text, c) -> (tree, h(c)) of every text that passed validation on [0, c],
# the tree a copy of the one validation ran on, holding the two kernels it
# built, evaluate's and the order-1 jet's: a later make_problem of the pair
# skips the parse, the domain check and those two kernel builds. The
# kernels add about 1.3 KB to an entry whatever its text's length, which the
# character bound does not count: distinct short texts such as 17*x fill the
# table at about 2,630 entries and 4.9 MB (tracemalloc), benchmark-family
# texts at about 1,980 entries and 4.5 MB. An instance's later kernels, such
# as a report's orders 2-6, stay in the instance's own copy.
_domain_table = _LruTable(_DOMAIN_TABLE_CHARS)


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

    Validation has two parts. The domain check reads only h and c: h(c),
    the h' scan of (0, c) and h(0+). The b test, b <= h(c), reads b too.
    For a text ``function``, a process-wide table keeps, for each (text, c)
    that passed validation, the parsed tree with the evaluate and order-1
    kernels validation built for it, and h(c); it is bounded by the
    characters of its texts, and an entry holds about 1.3 KB of kernels
    besides its tree (some 4.9 MB in a table full of short texts). A later
    call with that pair gets a copy of the kept tree, which starts with
    those two kernels and builds any other in its own cache, and runs only
    the b test. With ``c`` omitted, the text is
    parsed to default c, and the table is read for that c. Outcomes do not
    depend on the table: a miss runs the whole validation, b test first,
    and keeps the pair only if it passed. An :class:`ExprAst` ``function``
    never reads the table.
    """
    if options is None:
        options = _DEFAULT_OPTIONS
    kept = None
    if isinstance(function, str):
        if _is_number(c):  # a c of another type fails its check below
            kept = _domain_table.get((function, c))
        ast = parse_expr(function) if kept is None else kept[0].copy()
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
        if isinstance(function, str):
            kept = _domain_table.get((function, c))
    if not (_is_number(c) and math.isfinite(c) and c > 0):
        raise ValidationError("c", f"must be a finite number > 0, got {c!r}")
    if a > c * (1.0 + 1e-12):
        raise ValidationError("a", f"must be <= c = {c!r}, got {a!r}")

    inst = ProblemInstance(ast=ast, a=float(a), b=float(b), c=float(c), options=options)
    if kept is None:
        hc = _validate(inst)
        if isinstance(function, str):
            _domain_table.put((function, inst.c), (ast.copy(), hc), len(function) + _ENTRY_CHARS)
    else:
        _check_b(inst, kept[1])
    return inst


def _validate(inst: ProblemInstance) -> float:
    """Every check, in the order that names the first failure: the b test,
    then the domain check. Returns h(c), which bounds b."""
    hc = _h_at_c(inst)
    _check_b(inst, hc)
    _check_domain(inst)
    return hc


def _h_at_c(inst: ProblemInstance) -> float:
    """h(c), evaluated numerically (guarded just inside if c is singular)."""
    try:
        return inst.h(inst.c)
    except DomainError:
        return inst.h(inst.c * (1.0 - 1e-9))


def _check_b(inst: ProblemInstance, hc: float) -> None:
    """b <= h(c), up to a relative 1e-9: no absolute floor, so the verdict
    does not change when h and b are scaled together."""
    if inst.b > hc * (1.0 + 1e-9):
        raise ValidationError("b", f"must be <= h(c) = {hc!r}, got {inst.b!r}")


def _check_domain(inst: ProblemInstance) -> None:
    """The checks that read only the tree and c: h increases on [0, c] from
    h(0+) = 0.

    h(0+) is decided on the tree where :func:`_limit_at_zero` decides it: a
    limit within an absolute 1e-8 of 0 passes, any other value, an infinity
    included, fails. That walk is exact only in the float arithmetic of the
    constants: ``(x+0.1)^2-0.01`` walks to 0.1^2 - 0.01 = 1.7e-18, which
    the 1e-8 admits, and ``exp(1e-20)-1`` tends to about 1e-20, yet
    exp(1e-20) rounds to 1.0 and the walk gives 0.0, as the samples below
    would. Where the walk cannot decide, h is sampled at 1e-6, 1e-8 and
    1e-10 against the same absolute 1e-8.
    """
    c = inst.c

    # Numerically strictly increasing: h' >= 0 at interior scan points, with a
    # genuinely positive slope somewhere. Interior points (never 0 or c) keep
    # expressions like exp(-1/x) evaluable; its derivative underflows to 0 for
    # tiny x, which is why exact zeros are tolerated pointwise.
    # The scan is the profile's (0, c) grid, which the catalog's gates of
    # (0, c) then read at a higher order on the same abscissae.
    # A value that is not None is finite, so when every point has one, the
    # least slope alone passes or fails the floor test, and the greatest the
    # positive one; otherwise the scan walks the points in order to name the
    # first that fails.
    floor = -1e-12
    xs, d1s = inst.profile.column(0.0, c, SCAN_POINTS, 1)
    if None in d1s or min(d1s) < floor or max(d1s) <= 0.0:
        seen_positive = False
        for x, d1 in zip(xs, d1s):
            try:
                # a failed point's message comes from one jet at its abscissa
                d1 = inst.deriv(x, 1) if d1 is None else d1
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

    try:
        limit = _limit_at_zero(inst.ast.root)[0]
    except (ArithmeticError, ValueError):  # an indeterminate form, or a float error
        limit = None
    if limit is not None:
        if abs(limit) > 1e-8:
            raise ValidationError("function", f"h(0+) = {limit!r}, not 0")
        return

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


def _limit_at_zero(node: Node) -> tuple[float, int]:
    """lim h(x) as x -> 0+ of the tree ``node``, in the extended reals, as
    (value, side): a zero value comes with the side it is approached from,
    1 or -1, or 0 where that is unknown, and any other value with its sign.

    x tends to +0, and a constant is itself. +, -, * and / follow IEEE
    arithmetic with +-inf; 0^p is 0 for p > 0, exp(-inf) is 0 and ln(+0) is
    -inf. A zero keeps a side only where it follows from x's own (a sum of
    zeros from one side, a product or quotient of signed terms, a power or
    exp of a limit); a zero that rounding or cancellation gives, such as
    exp(0) - 1, has none. Raises ValueError on a form it cannot decide: 0*inf,
    inf - inf, 0/0, a division by a zero of unknown side, and a root, log or
    non-integer power of a base that is not positive.
    """
    if isinstance(node, Var):
        return 0.0, 1
    if isinstance(node, Const):
        return _side(node.value, 0)
    if isinstance(node, Neg):
        u, su = _limit_at_zero(node.child)
        return _side(-u, -su)
    if isinstance(node, Pow):
        return _power_limit(*_limit_at_zero(node.base), node.exponent)
    if isinstance(node, Call):
        u, su = _limit_at_zero(node.arg)
        if node.func == "exp":
            return _side(math.exp(u), 1 if u == -_INF else 0)
        if su <= 0:  # ln and sqrt of a base that is not positive
            raise ValueError(f"{node.func} of a limit {u!r} of side {su}")
        if u == 0.0:
            return (-_INF, -1) if node.func == "ln" else (0.0, 1)
        return _side(math.log(u) if node.func == "ln" else math.sqrt(u), 0)
    u, su = _limit_at_zero(node.left)
    w, sw = _limit_at_zero(node.right)
    if node.op in "+-":
        if node.op == "-":
            w, sw = -w, -sw
        return _side(u + w, su if u == 0.0 == w and su == sw else 0)
    if node.op == "*":
        return _side(u * w, su * sw if 0.0 in (u, w) else 0)
    if w == 0.0:
        if u == 0.0 or sw == 0:
            raise ValueError("0/0, or a division by a zero of unknown side")
        return _side(math.copysign(_INF, su * sw), 0)
    return _side(u / w, su * sw if u == 0.0 or math.isinf(w) else 0)


def _side(value: float, side: int) -> tuple[float, int]:
    """(value, side) of a limit: a nonzero value's own sign, or ``side`` at
    zero; nan, an indeterminate form, raises ValueError."""
    if value != value:
        raise ValueError("indeterminate form")
    if value == 0.0:
        return 0.0, side
    return value, 1 if value > 0.0 else -1


def _power_limit(u: float, su: int, p: float) -> tuple[float, int]:
    """The limit of base^p, the base tending to ``u`` from side ``su``."""
    if p == 0.0:
        return 1.0, 1
    integer = float(p).is_integer()
    if su == 0 and not (integer and p > 0.0):
        raise ValueError(f"power {p!r} of a zero of unknown side")
    if su < 0 and not integer:
        raise ValueError(f"non-integer power {p!r} of a negative base")
    sign = -1 if su < 0 and p % 2 else 1
    if u == 0.0 or math.isinf(u):
        if (u == 0.0) == (p > 0.0):
            return 0.0, sign if su else 0
        return math.copysign(_INF, sign), sign
    return _side(math.pow(u, p), 0)


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

    q_area = integrate(inst.h_rows, bp, a, tol)
    gap = q_area.value - a * b + b * bp

    q_0a = integrate(inst.h_rows, 0.0, a, tol)
    q_0bp = integrate(inst.h_rows, 0.0, bp, tol)
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
