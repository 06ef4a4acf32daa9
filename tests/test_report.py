"""Problem files, report orchestration, golden machinery, sweep, and CLI."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import random
import re
import shutil
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from youngbounds import catalog as cat
from youngbounds import cli, expr, report
from youngbounds.errors import DomainError, InvariantViolation, ParseError, ValidationError
from youngbounds.numerics import interior_grid
from youngbounds.report import (
    MethodSpec,
    load_problem,
    parse_method_spec,
    render_table,
    report_to_dict,
    run_report,
    sweep,
    verify_golden,
)
from youngbounds.young import SCAN_POINTS, Options, anchors, make_problem, oracle


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def test_load_problem_minimal(tmp_path):
    p = _write(tmp_path / "p.json", {"function": "x", "a": 1, "b": 1})
    pf = load_problem(p)
    assert pf.instance.a == 1.0 and pf.instance.c == 1.0
    assert len(pf.methods) == 13  # "all"


def test_load_problem_quartic(tmp_path):
    p = _write(tmp_path / "p.json", {
        "function": "(x^4+1)^(1/4)-1", "a": 3, "b": 2, "c": 3,
        "methods": ["hoorfar-qi", "polya-first", "taylor-jensen(1)"],
    })
    pf = load_problem(p)
    assert [str(m) for m in pf.methods] == ["hoorfar-qi", "polya-first", "taylor-jensen(1)"]


def test_load_problem_rejects_negative_a(tmp_path):
    p = _write(tmp_path / "p.json", {"function": "x^2", "a": -1, "b": 0})
    with pytest.raises(ValidationError):
        load_problem(p)


def test_load_problem_rejects_unknown_method(tmp_path):
    p = _write(tmp_path / "p.json", {"function": "x", "a": 1, "b": 1,
                                     "methods": ["no-such-method"]})
    with pytest.raises(ParseError):
        load_problem(p)


def test_load_problem_rejects_bad_json(tmp_path):
    p = tmp_path / "p.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_problem(p)


@pytest.mark.parametrize("payload", [
    {"extra": 1},
    # sampling resolutions are fixed constants, not problem options
    {"options": {"scan_points": 513}},
    {"options": {"extremum_points": 2049}},
    {"options": {"jet_order_cap": 8}},
], ids=["extra", "scan_points", "extremum_points", "jet_order_cap"])
def test_load_problem_rejects_unknown_keys(tmp_path, payload):
    p = _write(tmp_path / "p.json", {"function": "x", "a": 1, "b": 1, **payload})
    with pytest.raises(ParseError):
        load_problem(p)


def test_load_problem_options(tmp_path):
    p = _write(tmp_path / "p.json", {
        "function": "x", "a": 1, "b": 1,
        "options": {"taylor_order": 2, "t_grid": 11,
                    "assume": ["h_prime_monotone_global"]},
    })
    pf = load_problem(p)
    assert pf.instance.options.taylor_order == 2
    assert pf.instance.options.t_grid == 11
    assert "h_prime_monotone_global" in pf.instance.options.assume


# option values a cast used to truncate, coerce or crash on
_MISTYPED_OPTIONS = (
    {"t_grid": 11.7},
    {"taylor_order": True},
    {"quad_rel_tol": "abc"},
    {"t_grid": [1]},
    {"assume": 5},
    {"assume": "h_prime_monotone_global"},
)
_MISTYPED_IDS = ("fractional-t_grid", "bool-taylor_order", "string-tol", "list-t_grid",
                 "number-assume", "string-assume")


@pytest.mark.parametrize("options", _MISTYPED_OPTIONS, ids=_MISTYPED_IDS)
def test_load_problem_rejects_mistyped_options(tmp_path, options):
    p = _write(tmp_path / "p.json", {"function": "x^3", "a": 1, "b": 1, "options": options})
    with pytest.raises(ParseError):
        load_problem(p)


# problem fields a float() cast used to coerce: a = 1.0 from true, 1.5 from
# "1.5", and c = 0.0 from false, rejected later as "got 0.0"
_MISTYPED_FIELDS = (
    {"a": True},
    {"a": "1.5"},
    {"b": [1]},
    {"c": False},
    {"c": "2"},
    {"a": 10 ** 400},
)
_MISTYPED_FIELD_IDS = ("bool-a", "string-a", "list-b", "bool-c", "string-c", "huge-integer-a")


@pytest.mark.parametrize("fields", _MISTYPED_FIELDS, ids=_MISTYPED_FIELD_IDS)
def test_load_problem_rejects_mistyped_fields(tmp_path, fields):
    p = _write(tmp_path / "p.json", {"function": "x^3", "a": 1, "b": 1, **fields})
    with pytest.raises(ParseError) as err:
        load_problem(p)
    assert f"field {next(iter(fields))!r}" in str(err.value)


def test_load_problem_accepts_integral_float_options(tmp_path):
    p = _write(tmp_path / "p.json", {"function": "x^3", "a": 1, "b": 1,
                                     "options": {"t_grid": 11.0, "taylor_order": 2.0}})
    options = load_problem(p).instance.options
    assert (options.t_grid, options.taylor_order) == (11, 2)
    assert isinstance(options.t_grid, int) and isinstance(options.taylor_order, int)


def test_load_problem_exponent_pair_options(tmp_path):
    p = _write(tmp_path / "p.json", {
        "function": "x^3", "a": 1.5, "b": 1, "c": 2,
        "options": {"upper_exponent_pairs": [[2, 2], ["inf", 1]],
                    "lower_exponent_pairs": [[1, "-inf"]]},
    })
    pf = load_problem(p)
    assert pf.instance.options.upper_exponent_pairs[0] == (2.0, 2.0)
    assert pf.instance.options.lower_exponent_pairs[0][1] == float("-inf")
    # the defaults feed holder-norm through the registry
    rep = run_report(pf.instance, (parse_method_spec("holder-norm"),))
    row = rep.rows[0]
    assert row.error is None
    assert row.sum_lower - 1e-9 <= rep.oracle.sum <= row.sum_upper + 1e-9


def test_parse_method_spec_args():
    spec = parse_method_spec("lp-remainder(1,inf,1.25)")
    assert spec.name == "lp-remainder"
    assert spec.args[1] == float("inf")
    with pytest.raises(ParseError):
        parse_method_spec("taylor-jensen(oops)")


@pytest.mark.parametrize("text,label", [
    ("taylor-lagrange(2)", "taylor-lagrange(2)"),
    ("taylor-lagrange(2.0)", "taylor-lagrange(2)"),
    ("lp-remainder(1,inf,1.25)", "lp-remainder(1,inf,1.25)"),
    ("polya-first(-3,9007199254740991)", "polya-first(-3,9007199254740991)"),
    ("polya-first(-1e308,1e308)", "polya-first(-1e+308,1e+308)"),
    ("polya-first(0,9007199254740992)", "polya-first(0,9007199254740992.0)"),
], ids=["order", "float-order", "fraction", "below-2^53", "1e308", "2^53"])
def test_a_label_reads_back_as_its_spec(text, label):
    # integral arguments print as integers below 2**53 and by repr from
    # there on, so no label grows to 309 digits
    spec = parse_method_spec(text)
    assert str(spec) == label
    assert parse_method_spec(label) == spec


# too many arguments, a negative order, a fractional order
_BAD_ARGUMENT_SPECS = ("hoorfar-qi(1)", "taylor-jensen(-1)", "taylor-jensen(1.5)")


@pytest.mark.parametrize("text", _BAD_ARGUMENT_SPECS)
def test_parse_method_spec_rejects_bad_arguments(text):
    with pytest.raises(ParseError):
        parse_method_spec(text)


@pytest.mark.parametrize("options,field", [
    ({"quad_rel_tol": 1e-15}, "quad_rel_tol"),
    ({"taylor_order": 14}, "taylor_order"),
    ({"t_grid": -5}, "t_grid"),
    ({"upper_exponent_pairs": []}, "upper_exponent_pairs"),
    ({"lower_exponent_pairs": [[1]]}, "lower_exponent_pairs"),
], ids=["quad_rel_tol", "taylor_order", "t_grid", "no-pairs", "short-pair"])
def test_load_problem_rejects_out_of_range_options(tmp_path, options, field):
    p = _write(tmp_path / "p.json", {"function": "x^3", "a": 1, "b": 1, "options": options})
    with pytest.raises(ValidationError) as err:
        load_problem(p)
    assert err.value.field == field


# ---------------------------------------------------------------------------
# run_report
# ---------------------------------------------------------------------------

def test_run_report_turns_bad_hand_built_spec_into_row_error(tmp_path):
    pf = load_problem(_write(tmp_path / "p.json", {"function": "x^2", "a": 1, "b": 0.5}))
    rep = run_report(pf.instance, (MethodSpec("taylor-jensen", (1.5,)), MethodSpec("hoorfar-qi")))
    by_name = {r.method: r for r in rep.rows}
    assert by_name["taylor-jensen(1.5)"].error.startswith("ParseError: taylor-jensen: order n")
    assert by_name["hoorfar-qi"].error is None


def test_report_quartic_three_methods(tmp_path):
    p = _write(tmp_path / "p.json", {
        "function": "(x^4+1)^(1/4)-1", "a": 3, "b": 2, "c": 3,
        "methods": ["hoorfar-qi", "polya-first", "taylor-jensen(1)"],
    })
    pf = load_problem(p)
    rep = run_report(pf.instance, pf.methods)
    assert len(rep.rows) == 3
    by_name = {r.method: r for r in rep.rows}
    pol = by_name["polya-first"]
    assert pol.sum_lower + 3.0 == pytest.approx(9.00004286765564673, abs=1e-12)
    assert pol.sum_upper + 3.0 == pytest.approx(9.00004287010602764, abs=1e-12)
    for r in rep.rows:
        assert r.sum_lower - 1e-9 <= rep.oracle.sum <= r.sum_upper + 1e-9
    slacks = [r.slack for r in rep.rows]
    assert slacks == sorted(slacks)


def test_report_identity_equality_rows():
    from youngbounds.report import _methods_from_field
    from youngbounds.young import make_problem

    inst = make_problem("x", 1.0, 1.0, 1.0)
    rep = run_report(inst, _methods_from_field("all"))
    for r in rep.rows:
        if r.error or not r.applicable:
            continue
        if r.sum_lower is not None and r.sum_upper is not None:
            assert r.sum_lower == pytest.approx(rep.oracle.sum, abs=1e-10)
            assert r.sum_upper == pytest.approx(rep.oracle.sum, abs=1e-10)


def test_report_isolates_row_errors():
    from youngbounds.young import make_problem
    inst = make_problem("x^3", 1.5, 1.0, 2.0)
    methods = tuple(parse_method_spec(s) for s in
                    ("hoorfar-qi", "lp-remainder(1,0.5)"))  # second has a bad exponent
    rep = run_report(inst, methods)
    by_name = {r.method: r for r in rep.rows}
    assert by_name["hoorfar-qi"].error is None
    assert "ExponentDomainError" in by_name["lp-remainder(1,0.5)"].error


def test_report_renderers():
    from youngbounds.young import make_problem
    inst = make_problem("x^3", 1.5, 1.0, 2.0)
    rep = run_report(inst, (parse_method_spec("polya-first"),))
    table = render_table(rep)
    assert "SUM" in table and "polya-first" in table
    blob = json.dumps(report_to_dict(rep))
    parsed = json.loads(blob)
    assert parsed["rows"][0]["method"] == "polya-first"
    assert parsed["oracle"]["sum"] == pytest.approx(2.015625, abs=1e-12)


@pytest.mark.parametrize("spec,error", [
    ("polya-first(0,inf)", "ValidationError: U: must be a finite number, got inf"),
    ("polya-first(-inf,inf)", "ValidationError: L: must be a finite number, got -inf"),
    ("polya-second(-inf,inf)", "ValidationError: L: must be a finite number, got -inf"),
    ("polya-first(1e308,-1e308)", "ValidationError: L: must be <= U = -1e+308, got 1e+308"),
    ("polya-first(-1e308,1e308)",
     "DomainError: polya-first closed form overflows at L=-1e+308, U=1e+308"),
    ("polya-second(-1e308,1e308)",
     "DomainError: polya-second closed form overflows at L=-1e+308, U=1e+308"),
])
def test_a_user_polya_range_that_bounds_nothing_is_a_row_error(spec, error):
    # on x^3+x with a = 1 and b = 0.5 (SUM 0.8640321639046968) these ranges
    # gave applicable rows: an infinite end made U - L <= eps read inf <= inf,
    # the "constant derivative" branch, whose polya-first value 0.93210965...
    # misses SUM; L > U passed as a degenerate range; 1e308 ends overflow the
    # closed forms to nan (polya-first) or to +inf against -inf (polya-second)
    rep = run_report(make_problem("x^3+x", 1.0, 0.5), (parse_method_spec(spec),))
    (row,) = rep.rows
    assert (row.error, row.applicable) == (error, False)


# The quartic, one member of each sweep family, and h = x plus a spike some
# 1e-80 wide and 1e-10 high at x0, the 101st interior point of (0, 2); with
# a = c and b = 0, [alpha, beta] is (0, c), so both gate intervals share
# that grid, and at x0 the jet fails from order 4 up while orders 1-3 succeed.
_SPIKE_X0 = interior_grid(0.0, 2.0, SCAN_POINTS)[100]
_FILL_PROBLEMS = {
    "quartic": ("(x^4+1)^(1/4)-1", 3.0, 2.0, 3.0),
    "power": ("x^2.7", 1.2, 0.5, 1.5),
    "exp": ("exp(1.1*x)-1", 1.0, 0.7, 1.4),
    "logquad": ("0.9*ln(1+x)+x^2", 0.9, 1.2, 1.6),
    "comp": ("exp(0.6*x^1.4)-1", 1.3, 0.4, 1.5),
    "spike": (f"x + 1e-170/((x-{_SPIKE_X0!r})^2+1e-160)", 2.0, 0.0, 2.0),
}


def test_the_spike_jet_fails_on_its_gate_grid_from_order_4():
    ast = make_problem(*_FILL_PROBLEMS["spike"]).ast
    rows = [expr.jet_rows(ast, [_SPIKE_X0], k)[0] for k in range(1, 7)]
    assert [row is None for row in rows] == [False] * 3 + [True] * 3


@pytest.mark.workcount
@pytest.mark.parametrize("problem", list(_FILL_PROBLEMS))
def test_the_gate_fill_changes_no_bits(monkeypatch, problem):
    # run_report fills each gate grid once, at the highest order its methods
    # read there. Every subset of the gate methods, at each taylor_order,
    # must report the bits it reports without the fill. Without the fill a
    # row does not depend on the other rows, so a subset's rows are those of
    # the whole set; the whole set runs both ways in three method orders.
    text, a, b, c = _FILL_PROBLEMS[problem]
    fill = report.fill_gate_grids
    gated = tuple(cat._GATES)
    for order in range(4):
        inst = make_problem(text, a, b, c, Options(taylor_order=order))
        anch = anchors(inst)
        orc = oracle(inst, anch)
        # computed once per instance: the rows are what the fill could change
        monkeypatch.setattr(report, "anchors", lambda _: anch)
        monkeypatch.setattr(report, "oracle", lambda *_: orc)

        def reported(names, filled):
            monkeypatch.setattr(report, "fill_gate_grids", fill if filled else lambda *_: None)
            specs = tuple(MethodSpec(name) for name in names)
            return report_to_dict(run_report(dataclasses.replace(inst), specs))

        for names in (gated, gated[::-1], gated[5:] + gated[:5]):
            assert repr(reported(names, True)) == repr(reported(names, False)), (order, names)
        unfilled = reported(gated, False)["rows"]
        for size in range(1, len(gated)):
            for names in itertools.combinations(gated, size):
                want = [row for row in unfilled if row["method"] in names]
                assert repr(reported(names, True)["rows"]) == repr(want), (order, names)


# ---------------------------------------------------------------------------
# Golden fixtures
# ---------------------------------------------------------------------------

def test_verify_golden_on_shipped_fixtures(golden_dir):
    summary = verify_golden(golden_dir)
    statuses = {o.name: o.status for o in summary.outcomes}
    # Two fixtures carry reference values with documented transcription
    # errors (verified against 50-digit recomputation); the faithful
    # formulas cannot reproduce them, so they report FAIL by design.
    expected_fail = {"hh_cebysev_exp_recip", "taylor_jensen_quartic"}
    for name, status in statuses.items():
        assert status == ("FAIL" if name in expected_fail else "PASS"), (name, status)
    for o in summary.outcomes:
        if o.name in expected_fail:
            assert "known discrepancy" in o.message


def test_verify_golden_is_idempotent(golden_dir):
    first = verify_golden(golden_dir)
    second = verify_golden(golden_dir)
    assert first.render() == second.render()


def test_verify_golden_detects_tampering(tmp_path, golden_dir):
    # negative control: nudge one expected endpoint by 1e-6
    src = json.loads((golden_dir / "polya1_quartic.json").read_text())
    src["expected_upper"] -= 1e-6
    _write(tmp_path / "tampered.json", src)
    summary = verify_golden(tmp_path)
    assert summary.outcomes[0].status == "FAIL"
    assert not summary.ok


def test_verify_golden_missing_dir(tmp_path):
    summary = verify_golden(tmp_path / "nope")
    assert summary.outcomes[0].status == "MISSING"
    assert not summary.ok


def test_verify_golden_reports_broken_fixture(tmp_path):
    _write(tmp_path / "broken.json", {"problem": {"function": "x"}})
    summary = verify_golden(tmp_path)
    assert summary.outcomes[0].status == "ERROR"


@pytest.mark.parametrize("text", _BAD_ARGUMENT_SPECS)
def test_verify_golden_reports_bad_method_arguments(tmp_path, golden_dir, text):
    fixture = json.loads((golden_dir / "hq_linear.json").read_text())
    fixture["method"] = text
    _write(tmp_path / "bad_args.json", fixture)
    outcome = verify_golden(tmp_path).outcomes[0]
    assert outcome.status == "ERROR", outcome


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

# sha256 of "\n".join(_sweep_reprs(100)), computed with CPython 3.11.7 on
# glibc 2.36 (Debian 12), x86-64.
_SWEEP_REPRS_100_SHA256 = "a8a804e62ea36ba858dff92c7fd74c7a5c9461f4f814def02a1d01c387bcce5d"


@pytest.mark.workcount
def test_sweep_bounds_are_pinned(sweep_reprs):
    """Every bound and oracle value of the first 100 sweep(42, ·) instances,
    pinned by digest: some changes show on one instance only (taking hi for
    lo + (hi - lo) as extremum's right endpoint changes polya-first's U on
    instance 47 alone), and the sweep summary prints no bound. The digest
    was computed on glibc 2.36's libm (Debian 12, x86-64); another libm may
    round exp, log or pow differently in the last bit."""
    digest = hashlib.sha256("\n".join(sweep_reprs(100)).encode()).hexdigest()
    assert digest == _SWEEP_REPRS_100_SHA256


def test_sweep_deterministic_and_clean():
    s1 = sweep(seed=7, count=6)
    s2 = sweep(seed=7, count=6)
    assert s1.render() == s2.render()
    assert s1.ok and s1.checks > 0


def test_sweep_different_seeds_differ():
    assert sweep(seed=1, count=3).render() != sweep(seed=2, count=3).render()


def test_sweep_strict_mode_passes_clean_runs():
    # strict=True raises InvariantViolation with replayable serializations on
    # any violation; a clean run returns normally
    summary = sweep(seed=11, count=4, strict=True)
    assert summary.ok


# sweep(2, 1) is x^1.548 with b < h(a), every method applicable and 15
# invariant checks; sweep(1, 1) is exp(1.083x)-1 with b = h(a)
_MISS_SEED, _TIE_SEED = 2, 1


def _patched_sweep(monkeypatch, seed, alter, strict=False):
    """sweep(seed, 1) with each result of the ``run_method`` that ``report``
    binds passed through ``alter(inst, anch, name, args, result)``; returns
    the summary and the instance's replay serialization, built here as the
    sweep documents it."""
    real = report.run_method
    insts = []

    def patched(inst, anch, name, args=()):
        insts.append(inst)
        return alter(inst, anch, name, args, real(inst, anch, name, args))

    monkeypatch.setattr(report, "run_method", patched)
    summary = sweep(seed, 1, strict=strict)
    inst = insts[0]
    text = report._random_instance(random.Random(seed))["function"]
    serial = json.dumps({"function": text, "a": inst.a, "b": inst.b, "c": inst.c},
                        sort_keys=True)
    return summary, serial


def _violated(summary, violations):
    assert summary.violations == tuple(violations) and not summary.ok
    assert summary.lines[-1 - len(violations):] == tuple(
        [f"VIOLATION {v}" for v in violations] + [f"violations: {len(violations)}"]
    )


def test_sweep_reports_bounds_that_miss_the_oracle(monkeypatch):
    # one side past the oracle on each kind of target: a lower above it, an
    # upper below it, and an absolute upper below |native|
    natives = {}

    def alter(inst, anch, name, args, res):
        native = natives[name] = res.target.native_of_sum(oracle(inst, anch).sum)
        shifted = {"hh-cebysev": (native - 2.0, native - 1.0),
                   "jensen-first": (native + 1.0, native + 2.0),
                   "lp-remainder": (None, native - 1.0)}
        if name not in shifted:
            return res
        lower, upper = shifted[name]
        return dataclasses.replace(res, lower=lower, upper=upper, applicable=True)

    summary, serial = _patched_sweep(monkeypatch, _MISS_SEED, alter)
    hh, jf, lp = natives["hh-cebysev"], natives["jensen-first"], natives["lp-remainder"]
    violations = [
        f"SANDWICH hh-cebysev on {serial}: native={hh!r} above upper {hh - 1.0!r}",
        f"SANDWICH jensen-first on {serial}: native={jf!r} below lower {jf + 1.0!r}",
        f"SANDWICH lp-remainder on {serial}: |native|={lp!r} exceeds upper {lp - 1.0!r}",
    ]
    _violated(summary, violations)
    assert summary.checks == 15

    # strict mode raises with the same lines, each carrying the instance,
    # which replays to the same oracle bit for bit
    with pytest.raises(InvariantViolation) as err:
        _patched_sweep(monkeypatch, _MISS_SEED, alter, strict=True)
    assert str(err.value) == "\n".join(violations)
    replay = json.loads(serial)
    inst = make_problem(replay["function"], replay["a"], replay["b"], replay["c"])
    anch = anchors(inst)
    res = cat.run_method(inst, anch, "jensen-first")
    assert res.target.native_of_sum(oracle(inst, anch).sum) == jf


def test_sweep_reports_a_reduction_pair_that_disagrees(monkeypatch):
    uppers = {}

    def alter(inst, anch, name, args, res):
        if (name, args) == ("taylor-holder", (0.0,)):
            res = dataclasses.replace(res, upper=res.upper + 1e-6)
        uppers[name, args] = res.upper
        return res

    summary, serial = _patched_sweep(monkeypatch, _MISS_SEED, alter)
    x, y = uppers["taylor-holder", (0.0,)], uppers["holder-norm", ()]
    _violated(summary, [f"REDUCTION taylor-holder(0) upper {x!r} != holder-norm {y!r} on {serial}"])


def test_sweep_reports_a_nonzero_gap_on_a_tie(monkeypatch):
    def alter(inst, anch, name, args, res):
        if name == "jensen-first":  # its GAP bounds are within 1e-32 of 0 unpatched
            return dataclasses.replace(res, upper=1e-9)
        return res

    summary, serial = _patched_sweep(monkeypatch, _TIE_SEED, alter)
    _violated(summary, [f"EQUALITY jensen-first upper |1e-09| > 1e-10 on {serial}"])


def test_sweep_skips_a_method_that_raises(monkeypatch):
    def alter(inst, anch, name, args, res):
        if name == "polya-first":
            raise DomainError("no bound here")
        return res

    summary, _ = _patched_sweep(monkeypatch, _MISS_SEED, alter)
    assert "  [0] polya-first: skipped (DomainError)" in summary.lines
    assert summary.ok and summary.checks == 14  # one SANDWICH check fewer


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "youngbounds.cli", *args],
        capture_output=True, text=True,
    )


def test_cli_run_table(tmp_path):
    p = _write(tmp_path / "p.json", {
        "function": "x^3", "a": 1.5, "b": 1, "c": 2,
        "methods": ["hoorfar-qi", "polya-first"],
    })
    proc = _cli("run", str(p))
    assert proc.returncode == 0
    assert "polya-first" in proc.stdout
    assert "2.015625" in proc.stdout  # oracle SUM at 18 significant digits


def test_cli_run_json_and_method_override(tmp_path):
    p = _write(tmp_path / "p.json", {"function": "x^3", "a": 1.5, "b": 1, "c": 2})
    proc = _cli("run", str(p), "--format", "json", "--methods", "hoorfar-qi")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert [r["method"] for r in data["rows"]] == ["hoorfar-qi"]


def test_cli_run_input_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert _cli("run", str(bad)).returncode == 2
    assert _cli("run", str(tmp_path / "missing.json")).returncode == 2
    invalid = _write(tmp_path / "inv.json", {"function": "x^2", "a": -1, "b": 0})
    assert _cli("run", str(invalid)).returncode == 2


def test_cli_verify_shipped_golden_reports_known_failures(golden_dir):
    proc = _cli("verify", "--golden", str(golden_dir))
    assert proc.returncode == 1  # the two documented discrepancies
    assert "known discrepancy" in proc.stdout
    assert "6 passed, 2 failed" in proc.stdout


def test_cli_verify_passing_subset(tmp_path, golden_dir):
    for name in ("polya1_quartic.json", "hq_linear.json"):
        shutil.copy(golden_dir / name, tmp_path / name)
    proc = _cli("verify", "--golden", str(tmp_path))
    assert proc.returncode == 0
    assert "2 passed, 0 failed" in proc.stdout


def test_cli_run_rejects_unknown_method_override(tmp_path):
    p = _write(tmp_path / "p.json", {"function": "x", "a": 1, "b": 1})
    proc = _cli("run", str(p), "--methods", "nope")
    assert proc.returncode == 2


@pytest.mark.parametrize("text", _BAD_ARGUMENT_SPECS)
def test_cli_run_rejects_bad_method_arguments(tmp_path, text):
    p = _write(tmp_path / "p.json", {"function": "x^2", "a": 1, "b": 0.5})
    proc = _cli("run", str(p), "--methods", text)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("payload", [
    {"function": "x^3", "a": 1, "b": 1, "options": {"quad_rel_tol": 1e-15}},
    # h' overflows inside fsum during validation
    {"function": "1e308*x*x", "a": 0.95, "b": 1e307, "c": 0.99},
    {"function": "x^3", "a": 1, "b": 1, "options": {"upper_exponent_pairs": []}},
    {"function": "x^3", "a": 1, "b": 1, "options": {"upper_exponent_pairs": [[1]]}},
    {"function": "x^3", "a": 1, "b": 1, "options": {"lower_exponent_pairs": 5}},
    *({"function": "x^3", "a": 1, "b": 1, **fields} for fields in _MISTYPED_FIELDS),
    {"function": 5, "a": 1, "b": 1},
    {"function": ["x"], "a": 1, "b": 1},
    {"function": None, "a": 1, "b": 1},
], ids=["quad_rel_tol", "jet-overflow", "no-pairs", "short-pair", "pairs-not-a-list",
        *_MISTYPED_FIELD_IDS, "function-number", "function-list", "function-null"])
def test_cli_run_reports_invalid_input_without_traceback(tmp_path, payload):
    p = _write(tmp_path / "p.json", payload)
    proc = _cli("run", str(p))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("function,message", [
    ("x^", "ExprSyntaxError: expected a value, found 'end of input' (offset 2)"),
    ("y", "ExprSyntaxError: unknown identifier 'y' (offset 0)"),
    ("(-4", "ExprSyntaxError: expected ')', found 'end of input' (offset 3)"),
    ("x^1e999", "UnsupportedFeatureError: exponent folds to non-finite value inf"),
    ("(" * 120 + "x" + ")" * 120,
     "ExprSyntaxError: expression nested deeper than 100 levels (offset 100)"),
], ids=["dangling-power", "unknown-name", "open-paren", "huge-exponent", "deep-nesting"])
def test_cli_run_exits_2_on_a_malformed_function(tmp_path, capsys, function, message):
    # a function text that does not parse is an input error, as a bad field
    # is; the message names the error class
    p = _write(tmp_path / "p.json", {"function": function, "a": 1.0, "b": 0.5, "c": 2.0})
    assert cli.main(["run", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("options", _MISTYPED_OPTIONS + ([1],),
                         ids=_MISTYPED_IDS + ("options-not-an-object",))
def test_cli_run_rejects_mistyped_options(tmp_path, options):
    p = _write(tmp_path / "p.json", {"function": "x^3", "a": 1, "b": 1, "options": options})
    proc = _cli("run", str(p))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_cli_verify_json_format(tmp_path, golden_dir):
    shutil.copy(golden_dir / "hq_linear.json", tmp_path / "hq_linear.json")
    proc = _cli("verify", "--golden", str(tmp_path), "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["passed"] == 1 and data["failed"] == 0


def test_cli_run_shipped_problem_files():
    from conftest import REPO_ROOT
    for name in ("quartic.json", "exp_recip.json", "cubic.json"):
        proc = _cli("run", str(REPO_ROOT / "problems" / name))
        assert proc.returncode == 0, proc.stderr
        assert "error:" not in proc.stdout


def test_cli_sweep_small():
    proc = _cli("sweep", "--seed", "3", "--count", "4")
    assert proc.returncode == 0
    assert "violations: 0" in proc.stdout


def test_cli_sweep_json():
    proc = _cli("sweep", "--seed", "3", "--count", "2", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["violations"] == []


@pytest.fixture
def cli_parser():
    """The CLI's parser built afresh on the next ``cli.main`` call, and again
    after the test."""
    cli._build_parser.cache_clear()
    yield
    cli._build_parser.cache_clear()


@pytest.mark.workcount
def test_cli_builds_its_parser_once_per_process(cli_parser, monkeypatch, capsys):
    # fails when the CLI builds its argument parser again within a process
    from conftest import REPO_ROOT
    argv = ["run", str(REPO_ROOT / "problems" / "cubic.json"), "--format", "json"]
    assert cli.main(argv) == 0
    single = capsys.readouterr().out
    cli._build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", argv[1], "--format", "xml"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == single
    assert built.count("young-bounds") == 1


# ---------------------------------------------------------------------------
# CLI fuzzing: any problem file gives exit 0, 1 or 2, never an exception
# ---------------------------------------------------------------------------

def _family_problem(kind: str, p: float, lam: float, c: float, s_a: float, s_b: float) -> dict:
    """A member of the sweep's four families, with b = h(s_b * c) <= h(c)."""
    function = {"power": f"x^{p}", "exp": f"exp({lam}*x)-1",
                "logquad": f"{lam}*ln(1+x)+x^2", "comp": f"exp({lam}*x^{p})-1"}[kind]
    b = expr.evaluate(expr.parse_expr(function), s_b * c)
    return {"function": function, "a": s_a * c, "b": b, "c": c}


def _rounded(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi).map(lambda v: round(v, 3))


_FAMILY_PROBLEMS = st.builds(
    _family_problem, st.sampled_from(["power", "exp", "logquad", "comp"]),
    _rounded(1.2, 5.0), _rounded(0.3, 1.8), _rounded(0.8, 2.0),
    st.floats(min_value=0.15, max_value=0.95), st.floats(min_value=0.1, max_value=0.9),
)

_FUZZ_ARGS = st.sampled_from(
    [0.0, 1.0, 2.0, 3.0, 0.5, 17.0, -1.0, -0.5, math.inf, -math.inf, math.nan, 1e308, -1e308]
) | st.floats()


_METHOD_SPECS = st.builds(lambda name, args: str(MethodSpec(name, tuple(args))),
                          st.sampled_from(sorted(cat.METHODS)), st.lists(_FUZZ_ARGS, max_size=3))

_MISSING = object()
_NUMBER_BREAKS = [math.inf, -math.inf, math.nan, -1.0, 0, 1e308, 5e-324, 10 ** 400,
                  None, True, "1", [1.0], {}, _MISSING]
# per key of a problem file, values that break it
_BREAKS = {
    "function": st.sampled_from([
        None, 5, ["x"], _MISSING, "", "x^", "y", "x^1e300", "x^1e999", "x^-2", "-x", "1/x",
        "ln(x)", "sqrt(x)", "x*exp(1e308)", "exp(exp(exp(x)))", "x^" + "9" * 400,
        "(" * 120 + "x" + ")" * 120, "+".join(["x"] * 300), "1e308*x*x", "x^0.5^0.5",
    ]) | st.text(alphabet="x0123456789.e+-*/^()", max_size=20),
    "a": st.sampled_from(_NUMBER_BREAKS),
    "b": st.sampled_from(_NUMBER_BREAKS),
    "c": st.sampled_from(_NUMBER_BREAKS),
    "options": st.sampled_from([
        [], "x", None, {"taylor_order": 14}, {"taylor_order": -1}, {"taylor_order": 1.5},
        {"taylor_order": 10 ** 30}, {"taylor_order": math.inf}, {"t_grid": 0},
        {"t_grid": 10 ** 6}, {"t_grid": 1000}, {"quad_rel_tol": math.nan}, {"quad_rel_tol": 0},
        {"quad_rel_tol": math.inf}, {"upper_exponent_pairs": [[math.inf, 1]]},
        {"upper_exponent_pairs": [[2, 2], [1e308, 1]]}, {"lower_exponent_pairs": [["a", 1]]},
        {"lower_exponent_pairs": [[math.nan, 1]]}, {"assume": "all"}, {"assume": [1]},
        {"bogus": 1},
    ]) | st.fixed_dictionaries({}, optional={
        "taylor_order": st.integers(min_value=-2, max_value=16),
        "t_grid": st.integers(min_value=-1, max_value=40),
        "upper_exponent_pairs": st.lists(st.lists(_FUZZ_ARGS, max_size=3), max_size=2),
        "lower_exponent_pairs": st.lists(st.lists(_FUZZ_ARGS, max_size=3), max_size=2),
        "assume": st.lists(st.sampled_from(["deriv_nonneg", "deriv_range_2", "nope"])),
    }),
    "methods": st.sampled_from([5, {}, [5], "", "nope", [None], [["hoorfar-qi"]], _MISSING]),
}


@st.composite
def _fuzz_problems(draw) -> dict:
    """Mostly valid sweep-family problems with method specs; one in four
    has one field broken."""
    problem = draw(_FAMILY_PROBLEMS)
    problem["methods"] = draw(st.lists(_METHOD_SPECS, max_size=4) | st.just("all"))
    if draw(st.booleans()):
        problem["options"] = {"taylor_order": draw(st.integers(min_value=0, max_value=3)),
                              "t_grid": draw(st.integers(min_value=1, max_value=40))}
    if draw(st.integers(min_value=0, max_value=3)) == 3:
        key = draw(st.sampled_from(sorted(_BREAKS)))
        value = draw(_BREAKS[key])
        if value is _MISSING:
            problem.pop(key, None)
        else:
            problem[key] = value
    return problem


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(problem=_fuzz_problems())
# a methods field that is no string or list; f^p past the float range in the
# L^p norm's quadrature
@example(problem={"function": "x^2", "a": 1.0, "b": 0.5, "c": 2.0, "methods": 5})
@example(problem={"function": "exp(1.169*x)-1", "a": 0.62, "b": 1.5, "c": 1.06,
                  "methods": ["lp-remainder(3,194238.36)"]})
def test_cli_run_exits_0_1_or_2_on_any_problem_file(tmp_path, problem):
    path = _write(tmp_path / "fuzz.json", problem)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(path), "--format", "json"])
    event(f"exit {code}")
    assert code in (0, 1, 2), (problem, code)
    assert (code == 0) == (err.getvalue() == ""), (problem, err.getvalue())
    malformed = err.getvalue().startswith(("error: ExprSyntaxError:",
                                           "error: UnsupportedFeatureError:"))
    assert code == 2 or not malformed, (problem, code, err.getvalue())


def test_package_exports_every_name_readme_lists():
    # the names README.md imports from the package or lists as exported
    from conftest import REPO_ROOT
    import youngbounds

    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    listed = text.split("Lower-level pieces are exported too:")[1].split("\n\n")[0]
    names = set(re.findall(r"`([A-Za-z_]\w*)`", listed)) - {"None"}
    for line in re.findall(r"^from youngbounds import (.+)$", text, re.M):
        names.update(name.strip() for name in line.split(","))
    assert {"jet_rows", "extremum", "make_problem"} <= names
    assert [name for name in sorted(names) if not hasattr(youngbounds, name)] == []
