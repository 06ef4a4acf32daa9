"""The three workloads: seeded input generation, the operation, its gate.

Every input comes from ``random.Random(seed)``; the program only ever sees
the generated inputs. Functions come from the family documented for
``youngbounds.report.sweep``: x^p, e^{lam x} - 1, lam ln(1+x) + x^2 and
exp(lam x^p) - 1, with the same parameter ranges.

Inputs are stratified: consecutive operations cycle through the four
families and, per workload, through ties, parameter strata or request
mixes. The families differ in cost by up to 3x, so drawing them at random
would move the per-run median with the seed more than the machine does.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
from pathlib import Path

import mpmath

FAMILIES = ("power", "exp", "logquad", "comp")

# The point-value and sign-gate estimators (no extremum, no norm quadrature).
GATE_METHODS = (
    "hoorfar-qi", "hh-cebysev", "jensen-first", "taylor-lagrange",
    "taylor-cebysev", "taylor-jensen", "taylor-product-hh",
)

SANDWICH_TOL = 1e-9      # the sweep's SANDWICH tolerance, absolute
ORACLE_REL_TOL = 1e-12   # oracle SUM against the 30-digit reference
TIE_SHARE = 3            # ties per 20 oracle-grid queries (15%)


# The sweep's parameter draws, in draw order, and its expression texts.
PARAMS = {
    "power": (("p", 1.2, 5.0),),
    "exp": (("lam", 0.4, 1.6),),
    "logquad": (("lam", 0.3, 1.8),),
    "comp": (("lam", 0.4, 0.9), ("p", 1.1, 1.8)),
}
TEXTS = {
    "power": "x^{p}",
    "exp": "exp({lam}*x)-1",
    "logquad": "{lam}*ln(1+x)+x^2",
    "comp": "exp({lam}*x^{p})-1",
}
BINS = 4  # strata of the first parameter of a family


def _draw_function(rng: random.Random, kind: str) -> tuple[str, dict]:
    """Expression text and float parameters, as the sweep draws them."""
    prm = {name: round(rng.uniform(lo, hi), 3) for name, lo, hi in PARAMS[kind]}
    return TEXTS[kind].format(**prm), prm


def _first_param_bin(kind: str, prm: dict) -> int:
    name, lo, hi = PARAMS[kind][0]
    return min(int(BINS * (prm[name] - lo) / (hi - lo)), BINS - 1)


def h_float(kind: str, prm: dict, x: float) -> float:
    """h in plain floats, used only to place b = h(t) when generating inputs."""
    if kind == "power":
        return x ** prm["p"]
    if kind == "exp":
        return math.expm1(prm["lam"] * x)
    if kind == "logquad":
        return prm["lam"] * math.log1p(x) + x * x
    return math.expm1(prm["lam"] * x ** prm["p"])


# ---------------------------------------------------------------------------
# 30-digit reference SUM = int_0^a h + int_0^b h^{-1}
# ---------------------------------------------------------------------------

def reference_sum(kind: str, prm: dict, a: float, b: float) -> mpmath.mpf:
    with mpmath.workdps(30):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        if kind == "power":
            p = mpmath.mpf(prm["p"])
            return a ** (p + 1) / (p + 1) + b ** (1 + 1 / p) * p / (p + 1)
        lam = mpmath.mpf(prm["lam"])
        if kind == "exp":
            return (mpmath.expm1(lam * a) / lam - a
                    + ((1 + b) * mpmath.log1p(b) - b) / lam)
        if kind == "logquad":
            h = lambda x: lam * mpmath.log1p(x) + x * x
            big_h = lambda x: lam * ((1 + x) * mpmath.log1p(x) - x) + x ** 3 / 3
            y = mpmath.mpf(0) if b == 0 else mpmath.findroot(
                lambda x: h(x) - b, _float_inverse(kind, prm, float(b)))
        else:
            p = mpmath.mpf(prm["p"])
            big_h = lambda x: _comp_antiderivative(lam, p, x)
            y = (mpmath.log1p(b) / lam) ** (1 / p)
        # int_0^b h^{-1} = b y - int_0^y h, y = h^{-1}(b)
        return big_h(a) + b * y - big_h(y)


def _comp_antiderivative(lam, p, x):
    """int_0^x (exp(lam t^p) - 1) dt = sum_{k>=1} lam^k x^(pk+1) / (k! (pk+1))."""
    total = mpmath.mpf(0)
    power = x  # (lam x^p)^k x / k!, updated term by term
    k = 0
    while True:
        k += 1
        power = power * lam * x ** p / k
        term = power / (p * k + 1)
        total += term
        if term <= total * mpmath.mpf(10) ** -34:
            return total


def _float_inverse(kind: str, prm: dict, b: float) -> float:
    lo, hi = 0.0, 1.0
    while h_float(kind, prm, hi) < b:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if h_float(kind, prm, mid) < b:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sum_matches(got: float, want: mpmath.mpf) -> str | None:
    err = abs(mpmath.mpf(got) - want)
    if err > ORACLE_REL_TOL * max(abs(want), mpmath.mpf(1e-300)):
        return f"SUM {got!r} vs reference {mpmath.nstr(want, 20)} (error {mpmath.nstr(err, 3)})"
    return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Subclasses define how inputs are made, the operation and its gate.

    ``generate`` returns ``count`` inputs; ``run`` is the timed operation and
    returns only what ``check`` needs; ``check`` returns None or a reason.
    ``prepare`` runs untimed before each ``run``.
    """

    name = ""
    trace_ops = 0  # fixed operation count of a traced pass: whole strata cycles
    pool_per_second = 0  # distinct inputs generated per measured second

    def __init__(self, package, workdir: Path):
        self.yb = package
        self.workdir = workdir

    def generate(self, rng: random.Random, count: int) -> list:
        raise NotImplementedError

    def prepare(self, inp) -> None:
        """Untimed work just before ``run(inp)``."""

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        raise NotImplementedError

    def digest_lines(self, inp, out) -> list[str]:
        return []


def sweep_instance_class(seed_i: int) -> tuple[str, int, bool]:
    """(family, first-parameter stratum, tie) of the instance
    ``sweep(seed_i, 1)`` draws, found by replaying its first draws: family,
    parameters, c, a, then the tie flag."""
    rng = random.Random(seed_i)
    kind = rng.choice(FAMILIES)
    _, prm = _draw_function(rng, kind)
    rng.uniform(0.8, 2.0)
    rng.uniform(0.15, 0.95)
    return kind, _first_param_bin(kind, prm), rng.random() < 0.15


class Sweep(Workload):
    """One op = ``report.sweep(seed_i, 1)``: one random instance, 13 estimators."""

    name = "sweep"
    trace_ops = 28
    pool_per_second = 20

    def generate(self, rng: random.Random, count: int) -> list[int]:
        # Slot j wants family j % 4 with its first parameter in stratum
        # (j // 4) % 4, and every seventh group of four is a tie b = h(a)
        # (14%, the sweep draws 15%): a tie costs a tenth of other
        # instances. Draw instance seeds until one lands in the slot.
        seeds = []
        while len(seeds) < count:
            j = len(seeds)
            group = j // len(FAMILIES)
            want = (FAMILIES[j % len(FAMILIES)], group % BINS, group % 7 == 0)
            s = rng.randrange(2**31)
            if sweep_instance_class(s) == want:
                seeds.append(s)
        return seeds

    def run(self, seed_i: int):
        summary = self.yb.sweep(seed_i, 1)
        return summary.violations, summary.render()

    def check(self, seed_i, out) -> str | None:
        violations, _ = out
        return f"{len(violations)} violations: {violations[0]}" if violations else None

    def digest_lines(self, seed_i, out) -> list[str]:
        return [out[1]]


class OracleGrid(Workload):
    """One op = ``make_problem`` + ``anchors`` + ``oracle`` on (h, a, b)."""

    name = "oracle-grid"
    trace_ops = 320
    pool_per_second = 1000
    functions_per_family = 4

    def generate(self, rng: random.Random, count: int) -> list[tuple]:
        funcs = []
        for _ in range(self.functions_per_family):
            for kind in FAMILIES:
                text, prm = _draw_function(rng, kind)
                funcs.append((kind, text, prm, round(rng.uniform(0.8, 2.0), 3)))
        queries = []
        for j in range(count):
            kind, text, prm, c = funcs[j % len(funcs)]
            a = round(rng.uniform(0.05, 1.0) * c, 6)
            if (j // len(funcs)) % 20 < TIE_SHARE:
                b = h_float(kind, prm, a)  # tie: b = h(a), the equality case
            else:
                b = h_float(kind, prm, rng.uniform(0.05, 1.0) * c)
            queries.append((kind, text, prm, a, b, c))
        return queries

    def run(self, q):
        _, text, _, a, b, c = q
        inst = self.yb.make_problem(text, a, b, c)
        return self.yb.oracle(inst, self.yb.anchors(inst)).sum

    def check(self, q, got) -> str | None:
        kind, _, prm, a, b, _ = q
        return _sum_matches(got, reference_sum(kind, prm, a, b))


class ReportLight(Workload):
    """One op = ``young-bounds run FILE --format json`` through ``cli.main``."""

    name = "report-light"
    trace_ops = 108
    pool_per_second = 100

    def __init__(self, package, workdir: Path):
        super().__init__(package, workdir)
        self.cli = importlib.import_module(package.__name__ + ".cli")
        self.path = workdir / "problem.json"

    def generate(self, rng: random.Random, count: int) -> list[tuple]:
        requests = []
        for j in range(count):
            # slot j: family j % 4, (j // 4) % 3 + 1 methods, taylor_order
            # (j // 12) % 3 + 1, so every 36 requests hold each mix once
            kind = FAMILIES[j % len(FAMILIES)]
            text, prm = _draw_function(rng, kind)
            c = round(rng.uniform(0.8, 2.0), 3)
            a = round(rng.uniform(0.15, 0.95) * c, 6)
            b = h_float(kind, prm, rng.uniform(0.1, 0.9) * c)
            methods = rng.sample(GATE_METHODS, (j // 4) % 3 + 1)
            problem = {"function": text, "a": a, "b": b, "c": c, "methods": methods,
                       "options": {"taylor_order": (j // 12) % 3 + 1}}
            requests.append((json.dumps(problem), methods))
        return requests

    def prepare(self, req) -> None:
        # Writing thousands of files at set-up made setup_s measure the file
        # system; each request's file is written just before it instead.
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.path.write_text(req[0], encoding="utf-8")

    def run(self, req):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["run", str(self.path), "--format", "json"])
        return code, buf.getvalue()

    def check(self, req, out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        rows = data["rows"]
        if sorted(r["method"] for r in rows) != sorted(req[1]):
            return f"rows {[r['method'] for r in rows]} for methods {req[1]}"
        s = data["oracle"]["sum"]
        for r in rows:
            if not r["applicable"]:
                continue
            lo, hi = r["sum_lower"], r["sum_upper"]
            if (lo is not None and s < lo - SANDWICH_TOL) or (hi is not None and s > hi + SANDWICH_TOL):
                return f"{r['method']}: SUM interval [{lo!r}, {hi!r}] misses oracle SUM {s!r}"
        return None


WORKLOADS = {w.name: w for w in (Sweep, OracleGrid, ReportLight)}
