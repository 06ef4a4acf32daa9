"""Problem-file ingestion, report orchestration, golden fixtures, sweeps.

Problem files are JSON::

    {
      "function": "(x^4+1)^(1/4)-1",      # expression grammar, required
      "a": 3.0, "b": 2.0,                 # required
      "c": 3.0,                           # optional; defaults to max(a, h^{-1}(b))
      "methods": ["polya-first", "taylor-jensen(1)"] | "all",
      "options": {"quad_rel_tol": 1e-12, "taylor_order": 1, "t_grid": 33,
                  "assume": ["h_prime_monotone_global"]}
    }

Golden fixtures add the expected interval::

    {
      "problem": {...},                   # as above, minus methods
      "method": "polya-first",            # optionally with args: "taylor-jensen(1)"
      "quantity": "sum" | "gap",          # default "sum"
      "offset": 3.0,                      # print normalization added to the computed value
      "expected_lower": ..., "expected_upper": ...,
      "tolerance": 1e-12,
      "note": "...",                      # optional annotation
      "known_discrepancy": "..."          # optional; still counted as a failure
    }
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

from .catalog import METHODS, BoundResult, check_method_args, fill_gate_grids, run_method
from .errors import InvariantViolation, ParseError, YoungBoundsError
from .expr import evaluate, parse_expr, serialize
from .young import Anchors, Options, OracleResult, ProblemInstance, anchors, make_problem, oracle

__all__ = [
    "MethodSpec", "ProblemFile", "ReportRow", "Report",
    "parse_method_spec", "load_problem", "run_report",
    "render_table", "report_to_dict",
    "GoldenOutcome", "GoldenSummary", "verify_golden",
    "SweepSummary", "sweep",
]

_SPEC_RE = re.compile(r"^([a-z0-9-]+)(?:\(([^()]*)\))?$")


@dataclass(frozen=True)
class MethodSpec:
    name: str
    args: tuple[float, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({','.join(_fmt_arg(a) for a in self.args)})"


def _fmt_arg(a: float) -> str:
    """``2`` for 2.0, and ``repr`` from 2**53 up, where a float's integer
    digits stop being exact and a label would grow to 309 digits."""
    if math.isinf(a):
        return "inf" if a > 0 else "-inf"
    if float(a).is_integer() and abs(a) < 2**53:
        return str(int(a))
    return repr(a)


def _parse_arg(text: str) -> float:
    text = text.strip()
    if text == "inf":
        return math.inf
    if text == "-inf":
        return -math.inf
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"bad method argument {text!r}") from None


def parse_method_spec(text: str) -> MethodSpec:
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad method spec {text!r}")
    name, argtext = m.group(1), m.group(2)
    args: tuple[float, ...] = ()
    if argtext:
        args = tuple(_parse_arg(x) for x in argtext.split(","))
    check_method_args(name, args)
    return MethodSpec(name, args)


@dataclass(frozen=True)
class ProblemFile:
    instance: ProblemInstance
    methods: tuple[MethodSpec, ...]


def _number(what: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal past the float range
        raise ParseError(f"{what} is an integer too large for a float") from None


def _number_option(key: str, value) -> float:
    return _number(f"option {key!r}", value)


def _integer_option(key: str, value) -> int:
    # an integral float such as 11.0 is accepted; 11.7 is not truncated
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not float(value).is_integer()):
        raise ParseError(f"option {key!r} must be an integer, got {value!r}")
    return int(value)


_OPTION_KEYS = {
    "quad_rel_tol": _number_option,
    "taylor_order": _integer_option,
    "t_grid": _integer_option,
}


def _options_from_dict(data: dict) -> Options:
    if not isinstance(data, dict):
        raise ParseError(f"options must be an object, got {data!r}")
    kwargs: dict = {}
    for key, cast in _OPTION_KEYS.items():
        if key in data:
            kwargs[key] = cast(key, data[key])
    if "assume" in data:
        names = data["assume"]
        if not (isinstance(names, list) and all(isinstance(x, str) for x in names)):
            raise ParseError(f"assume must be a list of check names, got {names!r}")
        kwargs["assume"] = frozenset(names)
    for key in ("upper_exponent_pairs", "lower_exponent_pairs"):
        if key in data:
            pairs = data[key]
            if not (isinstance(pairs, list) and all(isinstance(p, list) for p in pairs)):
                raise ParseError(f"{key} must be a list of [p, q] pairs, got {pairs!r}")
            # Options checks the count and the length of each pair
            kwargs[key] = tuple(tuple(_parse_arg(str(v)) for v in pair) for pair in pairs)
    unknown = set(data) - set(_OPTION_KEYS) - {"assume", "upper_exponent_pairs",
                                               "lower_exponent_pairs"}
    if unknown:
        raise ParseError(f"unknown option keys {sorted(unknown)!r}")
    return Options(**kwargs)


def _problem_from_dict(data: dict) -> ProblemInstance:
    if not isinstance(data, dict):
        raise ParseError(f"problem must be an object, got {type(data).__name__}")
    unknown = set(data) - {"function", "a", "b", "c", "methods", "options"}
    if unknown:
        raise ParseError(f"unknown problem keys {sorted(unknown)!r}")
    try:
        function = data["function"]
        a = _number("field 'a'", data["a"])
        b = _number("field 'b'", data["b"])
    except KeyError as exc:
        raise ParseError(f"missing required key {exc.args[0]!r}") from None
    c = data.get("c")
    options = _options_from_dict(data.get("options", {}))
    return make_problem(function, a, b, None if c is None else _number("field 'c'", c), options)


def _methods_from_field(value) -> tuple[MethodSpec, ...]:
    if value is None or value == "all":
        return tuple(MethodSpec(name) for name in METHODS)
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    elif not isinstance(value, list):
        raise ParseError(f"methods must be a string or a list of method specs, got {value!r}")
    return tuple(parse_method_spec(str(v)) for v in value)


def load_problem(path: str | Path) -> ProblemFile:
    """Load and validate a JSON problem file (raises ParseError / ValidationError)."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from None
    inst = _problem_from_dict(data)
    methods = _methods_from_field(data.get("methods"))
    return ProblemFile(instance=inst, methods=methods)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    method: str
    target: str
    lower: float | None
    upper: float | None
    sum_lower: float | None
    sum_upper: float | None
    applicable: bool
    slack: float | None
    notes: tuple[str, ...] = ()
    error: str | None = None
    diagnostics: tuple = ()


@dataclass(frozen=True)
class Report:
    function: str
    a: float
    b: float
    c: float
    oracle: OracleResult
    anchors: Anchors
    rows: tuple[ReportRow, ...]


def _row_from_result(res: BoundResult, oracle_sum: float, label: str) -> ReportRow:
    sum_lo, sum_hi = res.target.sum_interval(res.lower, res.upper)
    slacks = []
    if sum_lo is not None:
        slacks.append(oracle_sum - sum_lo)
    if sum_hi is not None:
        slacks.append(sum_hi - oracle_sum)
    return ReportRow(
        method=label,
        target=res.target.label,
        lower=res.lower,
        upper=res.upper,
        sum_lower=sum_lo,
        sum_upper=sum_hi,
        applicable=res.applicable,
        slack=min(slacks) if slacks else None,
        notes=res.notes,
        diagnostics=res.diagnostics,
    )


def run_report(inst: ProblemInstance, methods: tuple[MethodSpec, ...]) -> Report:
    """Evaluate every requested estimator; per-row errors never abort the rest."""
    anch = anchors(inst)
    orc = oracle(inst, anch)
    fill_gate_grids(inst, anch, [(spec.name, spec.args) for spec in methods])
    rows = []
    for spec in methods:
        label = str(spec)
        try:
            res = run_method(inst, anch, spec.name, spec.args)
            rows.append(_row_from_result(res, orc.sum, label))
        except YoungBoundsError as exc:
            rows.append(ReportRow(
                method=label, target="-", lower=None, upper=None,
                sum_lower=None, sum_upper=None, applicable=False,
                slack=None, error=f"{type(exc).__name__}: {exc}",
            ))
    rows.sort(key=lambda r: (r.slack is None, r.slack if r.slack is not None else 0.0,
                             r.method))
    return Report(
        function=serialize(inst.ast), a=inst.a, b=inst.b, c=inst.c,
        oracle=orc, anchors=anch, rows=tuple(rows),
    )


def _g18(v: float | None) -> str:
    return "-" if v is None else format(v, ".18g")


def render_table(report: Report) -> str:
    lines = [
        f"problem: h(x) = {report.function}   a={report.a!r} b={report.b!r} c={report.c!r}",
        f"anchors: h^-1(b)={report.anchors.h_inv_b!r}  "
        f"[alpha,beta]=[{report.anchors.alpha!r}, {report.anchors.beta!r}]",
        f"oracle:  SUM = {_g18(report.oracle.sum)}   GAP = {_g18(report.oracle.gap)}   "
        f"(quadrature error ~ {report.oracle.abs_error_estimate:.2e})",
        "",
    ]
    header = (f"{'method':<24} {'target':<16} {'SUM lower':<26} {'SUM upper':<26} "
              f"{'appl':<5} {'slack':<12}")
    lines.append(header)
    lines.append("-" * len(header))
    for r in report.rows:
        if r.error:
            lines.append(f"{r.method:<24} {'-':<16} error: {r.error}")
            continue
        slack = "-" if r.slack is None else f"{r.slack:.3e}"
        lines.append(
            f"{r.method:<24} {r.target:<16} {_g18(r.sum_lower):<26} "
            f"{_g18(r.sum_upper):<26} {str(r.applicable).lower():<5} {slack:<12}"
        )
        for note in r.notes:
            lines.append(f"{'':<24} note: {note}")
    return "\n".join(lines)


def report_to_dict(report: Report) -> dict:
    return {
        "problem": {"function": report.function, "a": report.a, "b": report.b,
                    "c": report.c},
        "anchors": {"h_inv_b": report.anchors.h_inv_b, "alpha": report.anchors.alpha,
                    "beta": report.anchors.beta, "h_a": report.anchors.h_a},
        "oracle": {"sum": report.oracle.sum, "gap": report.oracle.gap,
                   "abs_error_estimate": report.oracle.abs_error_estimate,
                   "evaluations": report.oracle.evaluations},
        "rows": [
            {
                "method": r.method, "target": r.target,
                "lower": r.lower, "upper": r.upper,
                "sum_lower": r.sum_lower, "sum_upper": r.sum_upper,
                "applicable": r.applicable, "slack": r.slack,
                "notes": list(r.notes), "error": r.error,
                "diagnostics": [
                    {"name": d.name, "required": d.required, "observed": d.observed,
                     "passed": d.passed, "assumed": d.assumed}
                    for d in r.diagnostics
                ],
            }
            for r in report.rows
        ],
    }


# ---------------------------------------------------------------------------
# Golden fixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoldenOutcome:
    name: str
    status: str  # PASS | FAIL | ERROR | MISSING
    message: str


@dataclass(frozen=True)
class GoldenSummary:
    outcomes: tuple[GoldenOutcome, ...]

    @property
    def passed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "PASS")

    @property
    def failed(self) -> int:
        return len(self.outcomes) - self.passed

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def render(self) -> str:
        lines = [f"{o.status:<8} {o.name}: {o.message}" for o in self.outcomes]
        lines.append(f"golden: {self.passed} passed, {self.failed} failed")
        return "\n".join(lines)


def _check_golden_file(path: Path) -> GoldenOutcome:
    name = path.stem
    try:
        fixture = json.loads(path.read_text(encoding="utf-8"))
        inst = _problem_from_dict(fixture["problem"])
        spec = parse_method_spec(fixture["method"])
        quantity = fixture.get("quantity", "sum")
        if quantity not in ("sum", "gap"):
            raise ParseError(f"unknown quantity {quantity!r}")
        offset = float(fixture.get("offset", 0.0))
        tolerance = float(fixture.get("tolerance", 1e-12))
        expected_lo = fixture.get("expected_lower")
        expected_hi = fixture.get("expected_upper")
    except (KeyError, TypeError, ValueError, YoungBoundsError) as exc:
        return GoldenOutcome(name, "ERROR", f"bad fixture: {exc}")

    try:
        anch = anchors(inst)
        res = run_method(inst, anch, spec.name, spec.args)
    except YoungBoundsError as exc:
        return GoldenOutcome(name, "ERROR", f"{type(exc).__name__}: {exc}")

    lo, hi = res.target.sum_interval(res.lower, res.upper)
    if quantity == "gap":
        ab = inst.a * inst.b
        lo = None if lo is None else lo - ab
        hi = None if hi is None else hi - ab
    lo = None if lo is None else lo + offset
    hi = None if hi is None else hi + offset

    deltas = []
    ok = True
    for side, got, want in (("lower", lo, expected_lo), ("upper", hi, expected_hi)):
        if want is None:
            continue
        if got is None:
            ok = False
            deltas.append(f"{side}: expected {want!r}, estimator produced no bound")
            continue
        delta = got - float(want)
        deltas.append(f"{side}: computed {got!r}, expected {want!r}, delta {delta:+.3e}")
        if abs(delta) > tolerance:
            ok = False
    message = "; ".join(deltas) or "nothing to compare"
    if not ok and "known_discrepancy" in fixture:
        message += f" [known discrepancy: {fixture['known_discrepancy']}]"
    return GoldenOutcome(name, "PASS" if ok else "FAIL", message)


def verify_golden(directory: str | Path) -> GoldenSummary:
    """Recompute every fixture in ``directory`` and compare at its tolerance.

    Idempotent and side-effect-free; tolerance misses are reported per file,
    never raised.
    """
    directory = Path(directory)
    files = sorted(directory.glob("*.json"))
    if not files:
        return GoldenSummary((GoldenOutcome(
            str(directory), "MISSING", "no *.json fixtures found"),))
    return GoldenSummary(tuple(_check_golden_file(p) for p in files))


# ---------------------------------------------------------------------------
# Random-instance property sweep
# ---------------------------------------------------------------------------

_SANDWICH_TOL = 1e-9
# (method at order 0, the estimator it reduces to, relative tolerance)
_REDUCTIONS = (
    ("taylor-lagrange", "hoorfar-qi", 1e-14),
    ("taylor-holder", "holder-norm", 1e-12),
)
_EQUALITY_TOL = 1e-10


def _random_instance(rng: random.Random) -> dict:
    """One member of the documented random family.

    h is drawn from x^p (p in [1.2, 5]), e^{lam*x} - 1, lam*ln(1+x) + x^2, or
    the increasing composition exp(lam*x^p) - 1; a and b are placed uniformly
    inside the admissible box, with b occasionally pinned to h(a) exactly to
    exercise the equality clause.
    """
    kind = rng.choice(("power", "exp", "logquad", "comp"))
    if kind == "power":
        fn = f"x^{round(rng.uniform(1.2, 5.0), 3)}"
    elif kind == "exp":
        fn = f"exp({round(rng.uniform(0.4, 1.6), 3)}*x)-1"
    elif kind == "logquad":
        fn = f"{round(rng.uniform(0.3, 1.8), 3)}*ln(1+x)+x^2"
    else:
        fn = f"exp({round(rng.uniform(0.4, 0.9), 3)}*x^{round(rng.uniform(1.1, 1.8), 3)})-1"
    c = round(rng.uniform(0.8, 2.0), 3)
    a = round(rng.uniform(0.15, 0.95) * c, 6)
    tie_b_to_a = rng.random() < 0.15
    t_b = rng.uniform(0.1, 0.9)
    return {"function": fn, "c": c, "a": a, "tie_b_to_a": tie_b_to_a, "t_b": t_b}


@dataclass(frozen=True)
class SweepSummary:
    seed: int
    count: int
    checks: int
    violations: tuple[str, ...]
    lines: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        return "\n".join(self.lines)


def _sandwich_violation(res: BoundResult, oracle_sum: float) -> str | None:
    native = res.target.native_of_sum(oracle_sum)
    if res.target.absolute:
        if res.upper is not None and native > res.upper + _SANDWICH_TOL:
            return f"|native|={native!r} exceeds upper {res.upper!r}"
        return None
    if res.lower is not None and native < res.lower - _SANDWICH_TOL:
        return f"native={native!r} below lower {res.lower!r}"
    if res.upper is not None and native > res.upper + _SANDWICH_TOL:
        return f"native={native!r} above upper {res.upper!r}"
    return None


def sweep(seed: int, count: int, strict: bool = False) -> SweepSummary:
    """Run every estimator over ``count`` random instances and check the
    SANDWICH, REDUCTION, and equality-collapse invariants.

    Deterministic under ``seed``: the summary is byte-identical across runs.
    With ``strict=True`` a violation raises :class:`InvariantViolation`
    carrying the instance serializations needed for replay.
    """
    rng = random.Random(seed)
    violations: list[str] = []
    lines: list[str] = [f"sweep seed={seed} count={count}"]
    checks = 0

    for index in range(count):
        params = _random_instance(rng)
        ast = parse_expr(params["function"])
        b = evaluate(ast, params["a"] if params["tie_b_to_a"] else params["t_b"] * params["c"])
        inst = make_problem(ast, params["a"], b, params["c"])
        serial = json.dumps({"function": params["function"], "a": inst.a,
                             "b": inst.b, "c": inst.c}, sort_keys=True)
        anch = anchors(inst)
        orc = oracle(inst, anch)

        fill_gate_grids(inst, anch, [(nm, ()) for nm in METHODS])
        results: dict[str, BoundResult] = {}
        for nm in METHODS:
            try:
                results[nm] = run_method(inst, anch, nm)
            except YoungBoundsError as exc:
                lines.append(f"  [{index}] {nm}: skipped ({type(exc).__name__})")
                continue
            res = results[nm]
            if not res.applicable:
                continue
            checks += 1
            why = _sandwich_violation(res, orc.sum)
            if why is not None:
                violations.append(f"SANDWICH {nm} on {serial}: {why}")

        # REDUCTION: order-0 collapses
        for name, reference, tol in _REDUCTIONS:
            try:
                res0 = run_method(inst, anch, name, (0.0,))
                ref = results.get(reference) or run_method(inst, anch, reference)
                checks += 1
                for side, x, y in (("lower", res0.lower, ref.lower),
                                   ("upper", res0.upper, ref.upper)):
                    if abs(x - y) > tol * max(1.0, abs(x), abs(y)):
                        violations.append(
                            f"REDUCTION {name}(0) {side} {x!r} != {reference} {y!r} on {serial}"
                        )
            except YoungBoundsError:
                pass

        # Equality collapse on b = h(a) instances
        if params["tie_b_to_a"]:
            checks += 1
            for nm, res in results.items():
                if res.target.tag not in ("GAP", "REMAINDER", "ABS_REMAINDER"):
                    continue
                for side, v in (("lower", res.lower), ("upper", res.upper)):
                    if v is not None and abs(v) > _EQUALITY_TOL:
                        violations.append(
                            f"EQUALITY {nm} {side} |{v!r}| > {_EQUALITY_TOL} on {serial}"
                        )

    lines.append(f"instances: {count}, invariant checks: {checks}")
    for v in violations:
        lines.append(f"VIOLATION {v}")
    lines.append(f"violations: {len(violations)}")
    summary = SweepSummary(seed=seed, count=count, checks=checks,
                           violations=tuple(violations), lines=tuple(lines))
    if strict and violations:
        raise InvariantViolation("\n".join(violations))
    return summary
