"""Scan reductions that look for a failed point before they read the values.

``DerivativeProfile.column``, ``catalog._verdict`` and ``numerics.extremum``
read a scan's values first and filter out the points that failed, None in a
column, only where ``min`` or ``map`` meets one. This module keeps them as
they were written before that: a pass for a None first, then the filter,
then the values. The tests hold the three to these, value, text, best
point and error alike. ``reference_golden_min`` is the golden section that
reads each point through a wrapper ``g(x) = flip * f(x)``, and
``scan_columns`` draws the columns the tests compare them on.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from youngbounds import numerics
from youngbounds.catalog import _sign_class
from youngbounds.errors import DomainError
from youngbounds.expr import jet_rows
from youngbounds.young import SCAN_POINTS


def reference_column(profile, lo: float, hi: float, n: int, k: int):
    """``profile.column(lo, hi, n, k)`` of a grid kept at an order >= k."""
    order, xs, rows = profile._grids[(lo, hi, n)]
    if None not in rows:
        return xs, [row[k] for row in rows]
    values = [None if row is None else row[k] for row in rows]
    if order > k:
        misses = [i for i, row in enumerate(rows) if row is None]
        for i, row in zip(misses, jet_rows(profile.ast, [xs[i] for i in misses], k)):
            if row is not None:
                values[i] = row[k]
    return xs, values


def reference_verdict(values: list, order: int):
    """``catalog._verdict`` on a column of these values."""
    if None in values:
        values = [v for v in values if v is not None]
    values = tuple(values)
    if values:
        least, greatest = min(values), max(values)
        cls = _sign_class(least, greatest)
        observed = f"h^({order}) in [{least:.6g}, {greatest:.6g}] at {len(values)} points"
    else:
        cls, observed = "mixed", "not evaluable"
    skipped = SCAN_POINTS - len(values)
    if skipped:
        observed += f" ({skipped} skipped)"
    return values, cls, observed


def reference_golden_min(g, a: float, b: float, max_iter: int = 120):
    """Golden-section minimum of g on [a, b]."""
    h = b - a
    c = a + numerics._INV_PHI2 * h
    d = a + numerics._INV_PHI * h
    yc = g(c)
    yd = g(d)
    for _ in range(max_iter):
        if h <= 4.0 * numerics._EPS * max(abs(a), abs(b), 1.0):
            break
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + numerics._INV_PHI2 * h
            yc = g(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + numerics._INV_PHI * h
            yd = g(d)
    return (c, yc) if yc < yd else (d, yd)


def reference_extremum(f, lo: float, hi: float, column=None):
    """``numerics.extremum(f, lo, hi, column)``."""
    if hi < lo:
        lo, hi = hi, lo
    if lo == hi:
        v = f(lo)
        return (lo, v), (lo, v)
    width = hi - lo
    n = numerics.EXTREMUM_SCAN_POINTS - 2
    px: list = []
    pv: list = []
    try:
        x, v = numerics._guarded(f, lo + 0.0, hi, width)
        px.append(x)
        pv.append(v)
    except DomainError:
        pass
    if column is None:
        xs = numerics.interior_grid(lo, hi, n)
        values = [numerics._value_or_none(f, x) for x in xs]
    else:
        xs, values = column(n)
    if None in values:
        xs = [x for x, v in zip(xs, values) if v is not None]
        values = [v for v in values if v is not None]
    px += xs
    pv += values
    try:
        x, v = numerics._guarded(f, lo + width, lo, width)
        px.append(x)
        pv.append(v)
    except DomainError:
        pass
    if len(pv) < 2:
        raise DomainError("fewer than 2 scan points evaluable")

    def refine(flip: float):
        g = lambda x: flip * f(x)
        best_i = min(range(len(pv)), key=lambda i: flip * pv[i])
        bl = px[best_i - 1] if best_i > 0 else px[best_i]
        br = px[best_i + 1] if best_i + 1 < len(px) else px[best_i]
        candidates = [(px[i], flip * pv[i]) for i in (0, -1, best_i)]
        if br > bl:
            candidates.append(reference_golden_min(g, bl, br))
        xs, gs = min(candidates, key=lambda c: c[1])
        return xs, flip * gs

    return refine(1.0), refine(-1.0)


# Where a scan's points failed, None in a column: nowhere, first, last,
# everywhere, everywhere but one point, or at random.
_NONE_AT = ("nowhere", "first", "last", "everywhere", "all-but-one", "random")


@st.composite
def scan_columns(draw, min_size=1, max_size=12):
    """A column of values with None where the scan failed, as a list: the
    strategy the tests draw the columns they compare from."""
    values = draw(st.lists(
        st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf, math.nan))
        | st.floats(), min_size=min_size, max_size=max_size))
    where = draw(st.sampled_from(_NONE_AT))
    m = len(values)
    if where == "first":
        failed = {0}
    elif where == "last":
        failed = {m - 1}
    elif where == "everywhere":
        failed = set(range(m))
    elif where == "all-but-one":
        failed = set(range(m)) - {draw(st.integers(0, m - 1))}
    elif where == "random":
        failed = set(draw(st.lists(st.integers(0, m - 1), max_size=m)))
    else:
        failed = set()
    return [None if i in failed else v for i, v in enumerate(values)]
