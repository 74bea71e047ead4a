import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import qsphere.suites as suites
from qsphere.cli import SUITE_DEFAULTS, SuiteConfig, build_parser, main, run_suite
from qsphere.report import VerificationReport
from qsphere.suites import SUITE_LIST


def test_pass_run_writes_report(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "delta-inv", "--n", "2", "--max-deg", "2", "--out", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["suite"] == "delta-inv"
    assert all(c["status"] == "pass" for c in blob["checks"])


def test_stdout_report(capsys):
    rc = main(["verify", "serre-radical", "--n", "2", "--max-deg", "4"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["suite"] == "serre-radical"


def test_unknown_suite_is_usage_error():
    assert main(["verify", "nonsense"]) == 2


def test_delta_suite_needs_rank_two():
    assert main(["verify", "star", "--n", "1"]) == 2
    assert main(["verify", "xyz", "--n", "2"]) == 2


def test_star_at_degree_zero_runs(capsys):
    """The non-associativity witness needs a degree-2 tensor even when the
    invariants stop at degree 0."""
    assert main(["verify", "star", "--n", "2", "--max-deg", "0"]) == 0
    assert len(json.loads(capsys.readouterr().out)["checks"]) == 4


def test_bad_numeric_point_is_usage_error():
    assert main(["verify", "irreducibility", "--v", "1"]) == 2
    assert main(["verify", "irreducibility", "--v", "0"]) == 2


def test_malformed_numeric_point_is_usage_error():
    assert main(["verify", "irreducibility", "--v", "abc"]) == 2
    assert main(["verify", "irreducibility", "--v", "1/0"]) == 2
    assert main(["verify", "all", "--v", "abc"]) == 2


def test_numeric_point_text_is_parsed_once_per_run(monkeypatch, tmp_path):
    """`all` parses the --v text once into its checked point; every suite
    that takes a point gets that Fraction, and the report names it as the
    text's reduced form."""
    from qsphere.scalars import SpecMode

    parsed, numeric = [], SpecMode.numeric
    monkeypatch.setattr(SpecMode, "numeric", staticmethod(lambda v0: parsed.append(v0) or numeric(v0)))
    points = []
    monkeypatch.setitem(
        suites.SUITES,
        "irreducibility",
        lambda session=None, **kw: points.append(kw["v0"]) or VerificationReport("irreducibility", {}, "stub"),
    )
    out = tmp_path / "all.json"
    assert main(["verify", "all", "--n", "2", "--max-deg", "1", "--v", "10/2", "--out", str(out)]) == 0
    assert [v for v in parsed if isinstance(v, str)] == ["10/2"]
    assert points == [Fraction(5)] and type(points[0]) is Fraction
    assert json.loads(out.read_text())["params"]["v"] == "5"


def test_out_of_range_bounds_are_usage_errors():
    assert main(["verify", "factorization", "--n", "0"]) == 2
    assert main(["verify", "all", "--n", "0"]) == 2
    assert main(["verify", "star", "--max-deg", "-1"]) == 2


def test_threads_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "harish", "--threads", "2"])
    assert exc.value.code == 2


def test_engine_fault_is_exit_four(monkeypatch, capsys):
    import qsphere.suites as suites

    def broken_harish(**kw):
        raise ZeroDivisionError("inverse of zero")

    monkeypatch.setitem(suites.SUITES, "harish", broken_harish)
    assert main(["verify", "harish", "--n", "2", "--max-deg", "1"]) == 4
    err = capsys.readouterr().err
    assert "engine fault" in err and "inverse of zero" in err


def test_rank_degree_point_and_out_are_the_only_settings(tmp_path, monkeypatch):
    """Every suite runs in one configuration per rank, degree and point: no
    branch-sign or scope option, and no environment variable seeds a flag."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    options = {o for a in sub.choices["verify"]._actions for o in a.option_strings}
    assert options == {"-h", "--help", "--n", "--max-deg", "--v", "--out"}
    assert not any({"sigma", "word_limit"} & set(kw) for kw in SUITE_DEFAULTS.values())
    out = tmp_path / "r.json"
    monkeypatch.setenv("QSPHERE_MAX_DEG", "1")
    assert main(["verify", "harish", "--n", "2", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["params"]["max_deg"] == 4
    assert blob["mode"] == "specialized(sigma=both)"


def test_console_entry_point_exists():
    proc = subprocess.run(
        [sys.executable, "-m", "qsphere.cli", "verify", "delta-inv", "--n", "2", "--max-deg", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["suite"] == "delta-inv"


def test_closed_stdout_keeps_the_passing_exit_status():
    proc = subprocess.Popen(
        [sys.executable, "-m", "qsphere.cli", "verify", "delta-inv", "--n", "2", "--max-deg", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader goes away before the report is written
    err = proc.stderr.read().decode()
    assert proc.wait() == 0
    assert err == ""


def test_closed_stdout_keeps_the_failing_exit_status(monkeypatch):
    def failing_harish(session=None, **kw):
        rep = VerificationReport("harish", kw, "stub")
        rep.record("forced", False, "forced failure")
        return rep

    monkeypatch.setitem(suites.SUITES, "harish", failing_harish)
    r, w = os.pipe()
    os.close(r)
    with open(w, "w") as closed_pipe:
        monkeypatch.setattr(sys, "stdout", closed_pipe)
        assert main(["verify", "harish", "--n", "2", "--max-deg", "1"]) == 1


@pytest.mark.parametrize("where", ["missing_dir/r.json", "."])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, where):
    """A passing run whose --out is in a missing directory, or is a
    directory, exits 2 with one line on stderr and no traceback."""
    rc = main(["verify", "delta-inv", "--n", "2", "--max-deg", "1", "--out", str(tmp_path / where)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("cannot write report: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_oracle_precondition_failure_is_exit_three(monkeypatch):
    import qsphere.suites as suites
    from qsphere.report import VerificationReport

    def failing_serre(n, weight_bound=5, session=None):
        rep = VerificationReport("serre-radical", {"n": n, "weight_bound": weight_bound}, "kashiwara")
        rep.record("forced", False, "forced failure")
        return session.record(rep)

    # the gate of span reruns the radical suite in span's own session
    monkeypatch.setattr(suites, "verify_serre_radical", failing_serre)
    assert main(["verify", "span", "--n", "2", "--max-deg", "1"]) == 3


def test_run_all_skips_dependents_of_a_fatal_suite(tmp_path, monkeypatch):
    import qsphere.suites as suites
    from qsphere.report import VerificationReport

    def failing_serre(session=None, **kw):
        rep = VerificationReport("serre-radical", kw, "kashiwara")
        rep.record("forced", False, "forced failure")
        return rep

    monkeypatch.setitem(suites.SUITES, "serre-radical", failing_serre)
    out = tmp_path / "all.json"
    rc = main(["verify", "all", "--n", "2", "--max-deg", "1", "--out", str(out)])
    assert rc == 1
    blob = json.loads(out.read_text())
    by_name = {c["name"]: c for c in blob["checks"]}
    assert by_name["suite:serre-radical"]["status"] == "fail"
    for dependent in ("suite:span", "suite:normalizer", "suite:f-inverse"):
        assert by_name[dependent]["status"] == "fail"
        assert "not run" in by_name[dependent]["witness"]


def test_run_all_aggregate_small(tmp_path):
    out = tmp_path / "all.json"
    rc = main(
        ["verify", "all", "--n", "2", "--max-deg", "2", "--out", str(out)]
    )
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["suite"] == "all"
    names = [c["name"] for c in blob["checks"]]
    assert names[0] == "suite:serre-radical"
    assert len(names) == 12
    assert all(c["status"] == "pass" for c in blob["checks"])


def test_run_all_raises_every_suite_to_the_requested_rank(monkeypatch):
    """`all` runs each suite once, at the requested rank raised to the
    suite's minimum, and hands every suite the same session."""
    import qsphere.suites as suites
    from qsphere.cli import SuiteConfig, run_all
    from qsphere.report import VerificationReport

    calls = []
    sessions = []

    def stub(name):
        def run(**kw):
            calls.append((name, kw["n"]))
            sessions.append(kw["session"])
            return VerificationReport(name, kw, "stub")

        return run

    for suite in SUITE_LIST:
        monkeypatch.setitem(suites.SUITES, suite.name, stub(suite.name))
    assert run_all(SuiteConfig(n=3, max_deg=1)).passed
    assert calls == [(suite.name, 3) for suite in SUITE_LIST]
    assert sessions[0] is not None and all(s is sessions[0] for s in sessions)
    calls.clear()
    assert run_all(SuiteConfig(n=1)).passed
    assert calls == [(suite.name, suite.min_rank) for suite in SUITE_LIST]


def test_run_all_reports_what_each_suite_ran_with(tmp_path):
    """`all` records every sub-suite's params and mode: --max-deg reaches
    weight_bound and kmax, and ranks are raised to each suite's minimum."""
    out = tmp_path / "all.json"
    # degree 2: the star product at degree 3 alone takes seconds
    assert main(["verify", "all", "--n", "1", "--max-deg", "2", "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["params"]["runs"]
    assert list(runs) == sorted(s.name for s in SUITE_LIST)
    assert runs["xyz"] == {"params": {"n": 3, "triples": 120, "seed": 2024}, "mode": "kashiwara"}
    assert runs["serre-radical"]["params"] == {"n": 2, "weight_bound": 2}
    assert runs["delta-inv"]["params"] == {"n": 2, "kmax": 2}
    assert runs["module-algebra"]["params"] == {"n": 1, "cases": 200, "seed": 5}
    assert runs["harish"] == {"params": {"n": 1, "max_deg": 2}, "mode": "specialized(sigma=both)"}


def _signature_defaults(fn):
    params = inspect.signature(fn).parameters
    return {k: p.default for k, p in params.items() if k != "session"}


@pytest.mark.parametrize("suite", SUITE_LIST, ids=lambda s: s.name)
def test_flags_reach_the_parameters_a_suite_takes(monkeypatch, suite):
    """--max-deg sets the suite's degree parameter, --v reaches only the
    suites that take it, and an unset flag leaves the suite function's own
    default."""
    seen = []

    def capture(session=None, **kw):
        seen.append(kw)
        return VerificationReport(suite.name, kw, "stub")

    monkeypatch.setitem(suites.SUITES, suite.name, capture)
    run_suite(suite.name, SuiteConfig(n=3, max_deg=1, v0="5"))
    kw = seen.pop()
    inspect.signature(suite.fn).bind(**kw)
    defaults = _signature_defaults(suite.fn)
    want = dict(defaults, n=3)
    if suite.deg is not None:
        want[suite.deg] = 1
    if "v0" in defaults:
        want["v0"] = Fraction(5)
    assert kw == want
    run_suite(suite.name, SuiteConfig())
    assert seen.pop() == defaults
