"""Reference closed forms of the taylor-lagrange, taylor-jensen and
taylor-cebysev bounds, and of the gap they bound, in 50-digit mpmath
arithmetic.

The families are h(x) = x^p and h(x) = exp(lam*x) - 1, whose derivatives,
inverse and Young gap are known in closed form, and h(x) = lam*ln(1+x) + x^2,
whose derivatives and antiderivative are, and whose inverse comes from
``mpmath.findroot``. Each bound is restated from
the paper's formulas, and the side the Cebysev estimate bounds is derived
here from the monotonicity of its integrand, so a test can hold
``youngbounds.catalog`` to these values without sharing any of its code.

With x0 = h^{-1}(b) and d = a - x0, the gap and the order-n remainder are

    GAP = integral_{x0}^{a} (h(x) - b) dx,
    REMAINDER(n) = GAP - T_n = integral_{x0}^{a} h^(n+1)(t) (a-t)^(n+1)/(n+1)! dt,

with T_n = sum_{k=1}^{n} h^(k)(x0) d^(k+1)/(k+1)!.
"""

from __future__ import annotations

import mpmath

DPS = 50


class Power:
    """h(x) = x^p, p > 0."""

    def __init__(self, p: float) -> None:
        self.p = p
        self.text = f"x^{p!r}"

    def deriv(self, x, k: int):
        p = mpmath.mpf(self.p)
        falling = mpmath.mpf(1)
        for i in range(k):
            falling *= p - i
        return falling * mpmath.mpf(x) ** (p - k)

    def inverse(self, y):
        return mpmath.mpf(y) ** (1 / mpmath.mpf(self.p))

    def gap(self, a, b):
        p, a, b = mpmath.mpf(self.p), mpmath.mpf(a), mpmath.mpf(b)
        return a ** (p + 1) / (p + 1) + p * b ** ((p + 1) / p) / (p + 1) - a * b


class Exp:
    """h(x) = exp(lam*x) - 1, lam > 0."""

    def __init__(self, lam: float) -> None:
        self.lam = lam
        self.text = f"exp({lam!r}*x)-1"

    def deriv(self, x, k: int):
        lam = mpmath.mpf(self.lam)
        value = lam ** k * mpmath.exp(lam * mpmath.mpf(x))
        return value - 1 if k == 0 else value

    def inverse(self, y):
        return mpmath.log1p(mpmath.mpf(y)) / mpmath.mpf(self.lam)

    def gap(self, a, b):
        lam, a, b = mpmath.mpf(self.lam), mpmath.mpf(a), mpmath.mpf(b)
        inverse_integral = ((1 + b) * mpmath.log1p(b) - b) / lam
        return (mpmath.exp(lam * a) - 1) / lam - a + inverse_integral - a * b


class LogQuad:
    """h(x) = lam*ln(1+x) + x^2, 0 < lam < 2, so that h'' = 2 - lam/(1+x)^2 > 0
    on x >= 0."""

    def __init__(self, lam: float) -> None:
        self.lam = lam
        self.text = f"{lam!r}*ln(1+x)+x^2"

    def deriv(self, x, k: int):
        lam, x = mpmath.mpf(self.lam), mpmath.mpf(x)
        if k == 0:
            return lam * mpmath.log1p(x) + x ** 2
        # (d/dx)^k ln(1+x) = (-1)^(k-1) (k-1)! / (1+x)^k
        value = lam * (-1) ** (k - 1) * mpmath.factorial(k - 1) / (1 + x) ** k
        return value + (2 * x if k == 1 else 2 if k == 2 else 0)

    def inverse(self, y):
        y = mpmath.mpf(y)
        return mpmath.findroot(lambda x: self.deriv(x, 0) - y, mpmath.sqrt(y))

    def gap(self, a, b):
        # integral_{x0}^{a} (h(x) - b) dx with the antiderivative
        # H(x) = lam*((1+x) ln(1+x) - x) + x^3/3
        lam, a, b = mpmath.mpf(self.lam), mpmath.mpf(a), mpmath.mpf(b)

        def antiderivative(x):
            return lam * ((1 + x) * mpmath.log1p(x) - x) + x ** 3 / 3

        x0 = self.inverse(b)
        return antiderivative(a) - antiderivative(x0) - b * (a - x0)


def _sign(value) -> int:
    return (value > 0) - (value < 0)


def taylor_sum(h, a: float, b: float, n: int):
    """T_n at (a, b)."""
    with mpmath.workdps(DPS):
        x0 = h.inverse(b)
        d = mpmath.mpf(a) - x0
        return mpmath.fsum(
            h.deriv(x0, k) * d ** (k + 1) / mpmath.factorial(k + 1) for k in range(1, n + 1)
        )


def remainder(h, a: float, b: float, n: int):
    """REMAINDER(n) = GAP - T_n, from the closed-form gap."""
    with mpmath.workdps(DPS):
        return h.gap(a, b) - taylor_sum(h, a, b, n)


def lagrange(h, a: float, b: float, n: int):
    """(lower, upper) on GAP: T_n + d^(n+2)/(n+2)! times h^(n+1) at a and at
    x0, the pair sorted."""
    with mpmath.workdps(DPS):
        x0 = h.inverse(b)
        d = mpmath.mpf(a) - x0
        kernel = d ** (n + 2) / mpmath.factorial(n + 2)
        t_sum = taylor_sum(h, a, b, n)
        sides = [t_sum + kernel * h.deriv(x, n + 1) for x in (mpmath.mpf(a), x0)]
        return min(sides), max(sides)


def jensen(h, a: float, b: float, n: int):
    """(lower, upper) on REMAINDER(n): d^(n+2) times h^(n+1) at the weighted
    mean (a + (n+2) x0)/(n+3) over (n+2)!, and times the endpoint mix
    [h^(n+1)(a) + (n+2) h^(n+1)(x0)]/(n+3)!, the pair sorted."""
    with mpmath.workdps(DPS):
        a_ = mpmath.mpf(a)
        x0 = h.inverse(b)
        kernel = (a_ - x0) ** (n + 2)
        mean = (a_ + (n + 2) * x0) / (n + 3)
        q_mid = h.deriv(mean, n + 1) / mpmath.factorial(n + 2)
        q_end = (h.deriv(a_, n + 1) + (n + 2) * h.deriv(x0, n + 1)) / mpmath.factorial(n + 3)
        sides = [kernel * q_mid, kernel * q_end]
        return min(sides), max(sides)


def cebysev(h, a: float, b: float, n: int, slope_sign: int):
    """(lower, upper) on REMAINDER(n), one side None: the Cebysev estimate
    d^(n+1)/(n+2)! [h^(n)(a) - h^(n)(x0)], both sides when h^(n+1) is
    constant (``slope_sign`` 0, the sign of h^(n+2) on [alpha, beta]).

    For x0 < a the remainder is integral_{x0}^{a} f g with f = h^(n+1) and
    g = (a-t)^(n+1)/(n+1)! decreasing, so an increasing f makes the
    estimate an upper bound (Cebysev's inequality for oppositely monotone
    factors). For x0 > a the remainder is (-1)^n I with
    I = integral_{a}^{x0} f g~ and g~ = (t-a)^(n+1)/(n+1)! increasing, and
    the estimate is (-1)^n C with C the Cebysev product of I: an increasing
    f makes I >= C, so the estimate is a lower bound for even n and an upper
    bound for odd n; a decreasing f makes I <= C and swaps both."""
    with mpmath.workdps(DPS):
        a_ = mpmath.mpf(a)
        x0 = h.inverse(b)
        d = a_ - x0
        value = d ** (n + 1) / mpmath.factorial(n + 2) * (h.deriv(a_, n) - h.deriv(x0, n))
        if slope_sign == 0:
            return value, value
        if d > 0:
            upper = slope_sign > 0
        else:
            upper = (slope_sign > 0) == (n % 2 == 1)
        return (None, value) if upper else (value, None)


def slope_sign(h, lo: float, hi: float, n: int) -> int:
    """The sign of h^(n+2) on [lo, hi], which is one sign in every family
    here: the direction of h^(n+1)."""
    with mpmath.workdps(DPS):
        signs = {_sign(h.deriv(x, n + 2)) for x in (mpmath.mpf(lo), mpmath.mpf(hi))}
    (sign,) = signs
    return sign
