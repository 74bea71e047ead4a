"""Mutants that the test oracles must kill.

Each entry of ``MUTANTS`` names a source file, an exact text that occurs in
it once, the text that replaces it, and the test files of which at least one
must fail on the mutated copy.  The runner copies ``src/`` and ``tests/`` to
a temporary directory, applies one mutant there, and runs its tests with
``pytest -x -q``, this file loaded as a plugin that records the exception of
each failure.  As ``-x`` stops at the first failing test, the verdict rests
on it: the mutant is killed when that test fails by an assertion
(``AssertionError``, or pytest's ``Failed`` of a ``pytest.raises`` that saw
nothing raised), and has crashed when it fails by any other exception,
which any wrong code could raise and which shows nothing of the oracle.
For each mutant the runner prints its verdict and the first failing test
with its exception type.  It exits 1 if any mutant survives (its tests
pass), crashes, or cannot be applied.  Only the standard library is used;
pytest collects no test from this file.

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
FAILURES = "mutant-failures.txt"  # written by the plugin hook into the run's directory
ASSERTIONS = {"AssertionError", "Failed"}

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
        # the one body run records both signs' verdicts; the invariance
        # check compares the two maps it builds from them
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
        "    if len(g) == 1:\n        return num, den\n",
        "    if True:\n        return num, den\n",
        ["tests/test_scalars.py"],
    ),
    (
        "canonical-pair-skips-the-unit-normalization",
        "src/qsphere/scalars.py",
        "    den, u = _positive_lead(den)\n",
        "    u = G1\n",
        ["tests/test_scalar_properties.py"],
    ),
    (
        "canonical-pair-skips-the-integer-content",
        "src/qsphere/scalars.py",
        "    c = gcd(_icontent(num), _icontent(den))\n",
        "    c = 1\n",
        ["tests/test_scalar_properties.py"],
    ),
    (
        # the remainder sequence strips integer contents only: coefficients
        # grow without bound, and a gcd with a Gaussian content left in it
        # divides inexactly, so earlier tests of the file crash; the
        # regression test's bound on the remainders fails first
        "gcd-strips-integer-contents-only",
        "src/qsphere/scalars.py",
        "    if all(not c[1] for c in p.values()):\n",
        "    if True:\n",
        ["tests/test_scalars.py::test_gaussian_sums_keep_the_remainder_sequence_small"],
    ),
    (
        # gcd(n1 n2, d1 d2) = gcd(n1, d2) gcd(n2, d1): one pair left out
        "product-cancels-only-the-first-cross-pair",
        "src/qsphere/scalars.py",
        "        n2, d1 = _cancel(n2, d1)\n",
        "",
        ["tests/test_scalar_properties.py"],
    ),
    (
        # two polynomials over 1 multiplied as if each had one term: a
        # colliding exponent keeps the last product, not the sum
        "monomial-shortcut-taken-for-any-unit-denominator-numerator",
        "src/qsphere/scalars.py",
        "            if len(n1) == 1 == len(n2):\n",
        "            if True:\n",
        ["tests/test_scalar_properties.py"],
    ),
    (
        # a sum over denominators with a common factor g keeps all of g
        "sum-skips-the-cancellation-by-the-common-denominator-factor",
        "src/qsphere/scalars.py",
        "        t, g = _cancel(t, g)\n",
        "",
        ["tests/test_scalar_properties.py"],
    ),
    (
        # a group's unreduced denominator left without its later factors
        "product-sums-denominator-of-the-first-factor-only",
        "src/qsphere/scalars.py",
        "                den = pmul(den, s.den)\n",
        "                den = pmul(den, factors[0].den)\n",
        ["tests/test_act_properties.py"],
    ),
    (
        # a star product with a new right operand returns the first one's
        "star-product-memo-keyed-on-the-left-operand-only",
        "src/qsphere/plane.py",
        "    key = pk, rk\n",
        "    key = pk\n",
        ["tests/test_act_properties.py"],
    ),
    (
        # the step from a suffix to its extension by one letter forgets the
        # suffix: a letter met again continues from its first image
        "suffix-step-keyed-on-the-letter-alone",
        "src/qsphere/plane.py",
        "                key = g, at\n",
        "                key = g\n",
        ["tests/test_act_properties.py"],
    ),
    (
        # e_i on x_{-i} and f_i on x_{-i+1} lose their minus sign
        "action-shift-drops-the-sign",
        "src/qsphere/plane.py",
        "    return {k + e: (sign * re, sign * im) for k, (re, im) in p.items()}\n",
        "    return {k + e: (re, im) for k, (re, im) in p.items()}\n",
        ["tests/test_plane.py"],
    ),
    (
        # level 1 has no level below it: there the mutant reads level 1
        "row-basis-reads-the-tables-one-level-down",
        "src/qsphere/verma.py",
        "        level_c, cart_c = tables[k][c], cart[c]\n",
        "        level_c, cart_c = tables[max(k - 1, 1)][c], cart[c]\n",
        ["tests/test_integer_gram.py"],
    ),
    (
        # two letter multisets of one length and word count share a basis
        # of the right row length, so the wrong one is read without an
        # IndexError; the memo lasts the context's run, across weights
        "row-basis-memo-keyed-by-word-count-and-length",
        "src/qsphere/verma.py",
        "    key = words[0]  # the lex-first word is sorted: the letter multiset\n",
        "    key = len(words), len(words[0])\n",
        ["tests/test_integer_gram.py"],
    ),
    (
        # every slice of the true form has rank at most 1, where one nonzero
        # candidate already has the rank; random level tables see the loss
        "row-basis-stacks-only-the-first-letters-candidates",
        "src/qsphere/verma.py",
        "        if not up:\n            continue\n",
        "        if not up or cands:\n            continue\n",
        ["tests/test_integer_gram.py"],
    ),
    (
        "level-tables-without-the-inverse-q-difference",
        "src/qsphere/verma.py",
        "            inv_qdiff = qqi_inv(peval_qqi(_QDIFF, pt))  # 1/(q - q^{-1}) at v0\n",
        "            inv_qdiff = peval_qqi(PONE, pt)\n",
        ["tests/test_integer_gram.py"],
    ),
    (
        # a positive power is right; only negative exponents see the sign
        "qqi-pow-real-point-drops-the-exponent-sign",
        "src/qsphere/scalars.py",
        "        return (a[0] ** k, a[1])\n",
        "        return (a[0] ** abs(k), a[1])\n",
        ["tests/test_scalars.py"],
    ),
    (
        "engine-clearing-drops-the-common-denominator",
        "src/qsphere/verma.py",
        "    return out, pmul(den, _qdiff_power(top)) if top else den\n",
        "    return out, _qdiff_power(top) if top else PONE\n",
        ["tests/test_engine_properties.py"],
    ),
    (
        # a lowering letter on the left lengthens the state word: counting
        # raising letters alone drops words that reach the vacuum
        "engine-height-check-counts-only-raising-letters",
        "src/qsphere/verma.py",
        "    return sum((t[0] == \"e\") - (t[0] == \"f\") for t in u)\n",
        "    return sum(t[0] == \"e\" for t in u)\n",
        ["tests/test_engine_properties.py"],
    ),
    (
        # the product taken in the opposite order; a flat left, one
        # factor, is the same either way
        "factored-pairing-applies-the-factors-in-reverse",
        "src/qsphere/verma.py",
        "    factors = [[(u, c, _height(u)) for u, c in factor] for factor in factors]\n",
        "    factors = [[(u, c, _height(u)) for u, c in factor] for factor in reversed(factors)]\n",
        ["tests/test_engine_properties.py"],
    ),
    (
        # only the first factor's denominator, (q - q^{-1})^top among
        # them, reaches the value
        "factored-pairing-drops-a-later-factors-denominator",
        "src/qsphere/verma.py",
        "        den = pmul(den, fden)\n",
        "        den = pmul(den, fden) if factor is factors[0] else den\n",
        ["tests/test_engine_properties.py"],
    ),
    (
        # the same values, only the clearing comes before the height check
        "factored-pairing-clears-before-the-height-check",
        "src/qsphere/verma.py",
        "    right = [(w, d, 0) for w, d in right if len(w) in reach[0]]\n"
        "    if not right:\n"
        "        return ZERO, ZERO\n"
        "    right, den = _cleared(right)\n",
        "    right, den = _cleared([(w, d, 0) for w, d in right])\n"
        "    right = [(w, d) for w, d in right if len(w) in reach[0]]\n"
        "    if not right:\n"
        "        return ZERO, ZERO\n",
        ["tests/test_engine_properties.py"],
    ),
    (
        # a uniform sign per weight slice: every zero test and rank keeps
        # its verdict, only a value comparison sees it
        "kashiwara-ecoef-drops-its-sign",
        "src/qsphere/verma.py",
        "            return {-2 * a: (-1, 0)}\n",
        "            return {-2 * a: (1, 0)}\n",
        ["tests/test_engine_properties.py"],
    ),
    (
        # every index i reads the value of the first i met at its a
        "int-levels-memo-keyed-by-a-alone",
        "src/qsphere/verma.py",
        "                    key = i, a\n",
        "                    key = a\n",
        ["tests/test_integer_gram.py"],
    ),
    (
        # the f half of the coproduct walk scales by q^{+(alpha_i, prefix)}
        "coproduct-walk-f-uses-the-e-sign",
        "src/qsphere/plane.py",
        "        order, on_coord, sign = range(len(word)), _f_on_coord, -1\n",
        "        order, on_coord, sign = range(len(word)), _f_on_coord, 1\n",
        ["tests/test_plane.py"],
    ),
    (
        # antipode^{-1}(y_1) ... antipode^{-1}(y_k) in place of the reversed
        # product; one factor, or an element, is the same either way
        "invariant-form-applies-the-factor-antipodes-in-reverse",
        "src/qsphere/verma.py",
        "    for factor in (y,) if isinstance(y, AlgElt) else y:\n",
        "    for factor in (y,) if isinstance(y, AlgElt) else reversed(y):\n",
        ["tests/test_engine_properties.py"],
    ),
    (
        # a homomorphism: one letter, and so every generator, keeps its image
        "antipode-keeps-the-word-order",
        "src/qsphere/words.py",
        "    return map_letters(x, image, reverse=True)\n",
        "    return map_letters(x, image)\n",
        ["tests/test_words.py"],
    ),
    (
        # a Cartan letter of odd sum(mu) keeps its path's parity: its
        # power of sigma is lost at sigma = -1
        "parity-skips-cartan-letters",
        "src/qsphere/verma.py",
        "        return sum(x) & 1\n",
        "        return 0\n",
        ["tests/test_engine_properties.py"],
    ),
    (
        # every value is taken at sigma = +1, whatever the sign asked for
        "parity-skips-e1",
        "src/qsphere/verma.py",
        "    return int(kind == \"e\" and x == 1)\n",
        "    return 0\n",
        ["tests/test_engine_properties.py"],
    ),
    (
        # the lcm of d and d*e is d*e; their product d^2*e is a common
        # multiple too, and every value stays right
        "engine-clearing-multiplies-the-denominators",
        "src/qsphere/verma.py",
        "        ratio = _scalar(PONE, d) if den == PONE else Scalar(den, d)\n",
        "        ratio = _scalar(den, d)\n",
        ["tests/test_engine_properties.py"],
    ),
    (
        # a quotient whose cross products share a factor keeps it
        "division-skips-the-canonical-form",
        "src/qsphere/scalars.py",
        "        return self * other.inverse()\n",
        "        return _scalar(pmul(self.num, other.den), pmul(self.den, other.num))\n",
        ["tests/test_scalars.py"],
    ),
    (
        # the sigma = -1 tables negate letter 2 in place of letter 1: the
        # rank 3 tables at sigma = -1 no longer follow the ecoef formula
        "minus-tables-negate-the-wrong-letter",
        "src/qsphere/verma.py",
        "[None, {a: (-re, -im) for a, (re, im) in level[1].items()}] + level[2:]",
        "level[:2] + [{a: (-re, -im) for a, (re, im) in level[2].items()}] + level[3:]",
        ["tests/test_integer_gram.py::test_level_tables_are_the_ecoefs_times_the_lcm_of_their_denominators"],
    ),
    (
        # the closed sum of [m] loses its last power of q
        "integer-qnum-drops-a-term",
        "src/qsphere/scalars.py",
        "        return _scalar({2 * (m - 1) - 4 * j: c for j in range(m)})\n",
        "        return _scalar({2 * (m - 1) - 4 * j: c for j in range(m - 1)})\n",
        ["tests/test_scalars.py"],
    ),
    (
        # the value at sigma = -1 taken as at +1 where both parts are live;
        # a value of one parity still changes sign
        "evaluate-adds-the-odd-part-at-both-signs",
        "src/qsphere/verma.py",
        "    return even + odd, even - odd\n",
        "    return even + odd, even + odd\n",
        ["tests/test_engine_properties.py"],
    ),
]


def pytest_exception_interact(node, call, report):
    """Plugin hook of the runs that ``run_mutant`` starts: appends the
    failing test and its exception's type names (those of an exception
    group's members) to FAILURES in the working directory."""
    names, todo = [], [call.excinfo.value]
    while todo:
        exc = todo.pop()
        members = getattr(exc, "exceptions", None)
        if members is None:
            names.append(type(exc).__name__)
        else:
            todo.extend(members)
    with open(FAILURES, "a") as fh:
        fh.write("%s\t%s\n" % (node.nodeid, ",".join(names)))


def run_mutant(name, path, old, new, tests):
    """(verdict, first failing test and its exception types) for one
    mutant; the verdict is 'killed', 'crashed', 'SURVIVED' or an error
    message."""
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
            return "ERROR: old text occurs %d times in %s" % (text.count(old), path), ""
        with open(target, "w") as fh:
            fh.write(text.replace(old, new))
        pythonpath = os.pathsep.join(os.path.join(tmp, sub) for sub in ("src", "tests"))
        env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-p", "mutants", *tests],
            cwd=tmp,
            env=env,
            capture_output=True,
            text=True,
        )
        failures = []
        if os.path.exists(os.path.join(tmp, FAILURES)):
            with open(os.path.join(tmp, FAILURES)) as fh:
                failures = [line.rstrip("\n").split("\t") for line in fh]
    if proc.returncode == 0:
        return "SURVIVED", ""
    if proc.returncode != 1 or not failures:
        return "ERROR: pytest exit status %d\n%s" % (proc.returncode, proc.stdout[-2000:] + proc.stderr[-2000:]), ""
    first = "%s %s" % tuple(failures[0])
    if any(ASSERTIONS.intersection(kinds.split(",")) for _test, kinds in failures):
        return "killed", first
    return "crashed", first


def main():
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict, first = run_mutant(*mutant)
        print("%-48s %s (%.1f s) %s" % (mutant[0], verdict, time.perf_counter() - start, first), flush=True)
        bad += verdict != "killed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
