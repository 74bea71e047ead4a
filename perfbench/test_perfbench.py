"""Tests for the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from qsphere import cli, plane, scalars, suites, words  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children():
    # outer [0, 10] holds inner [1, 3] and inner [4, 7]
    rec = tracer.Recorder(clock=FakeClock([0, 1, 3, 4, 7, 10]))
    inner = rec.wrap("inner", lambda: None)

    def outer_body():
        inner()
        inner()

    rec.wrap("outer", outer_body, keep=True)()
    assert rec.calls == {"inner": 2, "outer": 1}
    assert rec.self_s == {"inner": 5, "outer": 5}
    assert rec.spans() == [("outer", 0, 10, None)]


def test_recursion_counts_every_level():
    rec = tracer.Recorder(clock=FakeClock(range(100)))
    box = {}

    def depth(k):
        return 0 if k == 0 else 1 + box["f"](k - 1)

    box["f"] = rec.wrap("depth", depth)
    assert box["f"](3) == 3
    assert rec.calls["depth"] == 4
    # nested spans [0,7] [1,6] [2,5] [3,4]: self times 2 + 2 + 2 + 1
    assert rec.self_s["depth"] == 7


def test_kept_spans_link_to_nearest_kept_parent():
    rec = tracer.Recorder(clock=FakeClock(range(100)))
    gate = rec.wrap("gate:g", lambda: None, keep=True)
    layer = rec.wrap("layer", gate)
    rec.wrap("suite:s", layer, keep=True)()
    names = [(s[0], s[3]) for s in rec.spans()]
    assert names == [("suite:s", None), ("gate:g", 0)]


def test_from_import_bindings_are_wrapped():
    """plane binds scalar_to_qqi by from-import; its calls must be counted."""
    op = words.AlgElt.f(1)
    basis = plane.monomials_of_degree(2, 2)
    mode = scalars.SpecMode.numeric(2)
    original = scalars.scalar_to_qqi
    with tracer.Recorder() as rec:
        assert plane.scalar_to_qqi.__wrapped__ is original
        rows = plane.operator_matrix(op, basis, 2, mode)
    nonzero_images = sum(
        len(plane.act(op, plane.PlanePoly(2, {m: scalars.ONE})).terms) for m in basis
    )
    assert rows
    assert rec.calls["scalars.to_qqi"] == nonzero_images > 0


def _bindings():
    out = {}
    for modname, mod in sys.modules.items():
        if modname == "qsphere" or modname.startswith("qsphere."):
            for attr, val in vars(mod).items():
                if callable(val):
                    out[(modname, attr)] = val
    for cls in (scalars.Scalar, words.AlgElt):
        for attr, val in vars(cls).items():
            out[(cls.__name__, attr)] = val
    for name, fn in suites.SUITES.items():
        out[("SUITES", name)] = fn
    return out


def test_traced_run_restores_originals():
    before = _bindings()
    with tracer.Recorder() as rec:
        assert suites.SUITES["harish"] is not before[("SUITES", "harish")]
        assert cli.SUITES is suites.SUITES
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "harish", "--n", "1", "--max-deg", "2"]) == 0
    assert rec.calls["suite:harish"] == 1
    assert rec.calls["verma.pair_left"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_score_counts_missing_and_failed_checks():
    expected = {"a": 10, "b": 5, "c": 3}
    result = {
        "exit_code": 1,
        "suites": {
            "a": {"checks": 10, "failed": 2, "error": None},
            "b": {"checks": 0, "failed": 0, "error": "OracleError"},
        },
    }
    completed, missed, problems = run.score(result, expected)
    assert completed == 10
    assert missed == 2 + 5 + 3
    assert any("b raised OracleError" in p for p in problems)
    assert any("c did not run" in p for p in problems)


def test_seed_zero_is_the_cli_default_point():
    assert run.V_POINTS[0] == str(cli.SUITE_DEFAULTS["irreducibility"]["v0"])
    for v in run.V_POINTS:
        scalars.SpecMode.numeric(v)  # raises on 0 and roots of unity
