"""Problem files, report orchestration, golden machinery, sweep, and CLI."""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import shutil
import subprocess
import sys

import pytest

from youngbounds import cli
from youngbounds.errors import ParseError, ValidationError
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
_SWEEP_REPRS_100_SHA256 = "2b25ee506c511877731e9e7cc612034ad019ca4aafad9078cc6a51c8a21a5c54"


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


def test_cli_builds_its_parser_once_per_process(cli_parser, monkeypatch, capsys):
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
