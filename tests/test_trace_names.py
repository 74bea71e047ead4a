"""The benchmark's layer tracer wraps engine functions by name; every name
it lists must still resolve, so that a refactor cannot silently break a
traced benchmark run.  The tracer module is loaded from its file, read-only.
"""

import importlib
import types
from pathlib import Path

import qsphere.suites

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    """The tracer module, executed from its source (no bytecode is written)."""
    mod = types.ModuleType("qsphere_bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


def test_traced_functions_and_methods_resolve():
    tracer = _tracer()
    for layer, (modname, fname) in tracer.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(modname), fname, None)), layer
    for layer, (modname, clsname, methods) in tracer.METHODS.items():
        cls = getattr(importlib.import_module(modname), clsname)
        for m in methods:
            assert callable(vars(cls).get(m)), (layer, m)
    for sname, fname in tracer.GATE_FUNCTIONS.items():
        assert sname in qsphere.suites.SUITES
        assert callable(getattr(qsphere.suites, fname, None)), sname

