"""Mutants that the test oracles must kill.

Each entry of ``MUTANTS`` names a source file, an exact text that occurs in
it once, the text that replaces it, and the test files of which at least one
must fail on the mutated copy.  The runner copies ``src/`` and ``tests/`` to
a temporary directory, applies one mutant there, and runs its tests with
``pytest -x -q``.  It exits 1 if any mutant survives (its tests pass) or
cannot be applied.  Only the standard library is used; pytest collects no
test from this file.

Run from any directory:

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, file, old text, new text, test files that must fail)
MUTANTS = [
    (
        "fixed-32-bit-slot-width",
        "src/qsphere/verma.py",
        "    return 32 * (bound.bit_length() // 32 + 1)\n",
        "    return 32\n",
        ["tests/test_engine_properties.py"],
    ),
    (
        "branch-invariance-always-passes",
        "src/qsphere/suites.py",
        "    ok = verdicts[0] == verdicts[1]\n",
        "    ok = True\n",
        ["tests/test_suites.py"],
    ),
    (
        "acc-add-keeps-zero-sums",
        "src/qsphere/words.py",
        "        if v:\n            acc[k] = v\n",
        "        if True:\n            acc[k] = v\n",
        ["tests/test_combination_properties.py"],
    ),
    (
        "gate-opens-on-any-verdict",
        "src/qsphere/suites.py",
        "            if not all(found):\n",
        "            if not any(found):\n",
        ["tests/test_suites.py"],
    ),
    (
        "canonical-pair-skips-the-gcd-division",
        "src/qsphere/scalars.py",
        "        if len(g) > 1:\n            npoly = {\n",
        "        if False:\n            npoly = {\n",
        ["tests/test_scalars.py"],
    ),
    (
        "canonical-pair-skips-the-unit-normalization",
        "src/qsphere/scalars.py",
        "    if u != G1:\n        npoly = pscale(npoly, u)\n",
        "    if False:\n        npoly = pscale(npoly, u)\n",
        ["tests/test_scalar_properties.py"],
    ),
    (
        "level-fill-reads-the-tables-one-level-down",
        "src/qsphere/verma.py",
        "        level_c, cart_c = tables[k][c], cart[c]\n",
        "        level_c, cart_c = tables[k - 1][c], cart[c]\n",
        ["tests/test_integer_gram.py"],
    ),
    (
        "level-fill-memo-keyed-by-word-length",
        "src/qsphere/verma.py",
        "    key = words[0]  # the lex-first word is sorted: the letter multiset\n",
        "    key = len(words[0])\n",
        ["tests/test_integer_gram.py"],
    ),
    (
        "level-tables-without-the-inverse-q-difference",
        "src/qsphere/verma.py",
        "            inv_qdiff = qqi_inv(peval_qqi(_QDIFF, pt))  # 1/(q - q^{-1}) at v0\n",
        "            inv_qdiff = (Fraction(1), Fraction(0))\n",
        ["tests/test_integer_gram.py"],
    ),
]


def run_mutant(name, path, old, new, tests):
    """'killed', 'SURVIVED' or an error message for one mutant."""
    with tempfile.TemporaryDirectory(prefix="qsphere-mutant-") as tmp:
        for sub in ("src", "tests"):
            shutil.copytree(
                os.path.join(ROOT, sub),
                os.path.join(tmp, sub),
                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache"),
            )
        target = os.path.join(tmp, path)
        with open(target) as fh:
            text = fh.read()
        if text.count(old) != 1:
            return "ERROR: old text occurs %d times in %s" % (text.count(old), path)
        with open(target, "w") as fh:
            fh.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tmp,
            env=env,
            capture_output=True,
            text=True,
        )
    if proc.returncode == 0:
        return "SURVIVED"
    if proc.returncode == 1:
        return "killed"
    return "ERROR: pytest exit status %d\n%s" % (proc.returncode, proc.stdout[-2000:] + proc.stderr[-2000:])


def main():
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = run_mutant(*mutant)
        print("%-48s %s (%.1f s)" % (mutant[0], verdict, time.perf_counter() - start), flush=True)
        bad += verdict != "killed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
