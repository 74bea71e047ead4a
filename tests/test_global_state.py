"""A ratchet on process-global state: a suite run may change no module-level
dict, list or set of qsphere except the listed memo; gate verdicts and
engine contexts live in the run's session.  Moving the memo into per-run
state empties the list; adding a new process-global cache fails the test."""

import copy
import sys

import qsphere.cli  # noqa: F401  (loads every qsphere module)
import qsphere.suites as suites

MUTABLE_GLOBALS = {("qsphere.plane", "_NF_CACHE")}


def _containers():
    out = {}
    for modname, mod in sys.modules.items():
        if mod is None or not (modname == "qsphere" or modname.startswith("qsphere.")):
            continue
        for attr, val in vars(mod).items():
            if not attr.startswith("__") and type(val) in (dict, list, set):
                out[modname, attr] = val
    return out


def test_a_suite_run_changes_only_the_memos_and_the_ledger():
    before = {key: copy.copy(val) for key, val in _containers().items()}
    # parameters no other test runs, so that every memo meets new keys
    session = suites.Session()
    assert suites.verify_star(3, 0, session=session).passed
    assert suites.verify_f_inverse(2, 3, session=session).passed
    after = _containers()
    changed = {key for key, val in after.items() if key not in before or before[key] != val}
    assert changed <= MUTABLE_GLOBALS
    assert session.verdicts and session.contexts
