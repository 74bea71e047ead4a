"""qsphere benchmark: time-to-verdict of `qsphere verify` in fresh processes.

Usage:
    python3 perfbench/run.py --workload verify-r2 --seed 0 --seconds 45 --trace 0

Every measured run is a new interpreter (the engine's memo caches are
process-global, so each run must start with them empty) that drives the
public entry `qsphere.cli.main` from the sources under ``src``.  Runs go one
at a time: the engine is single-threaded.

With ``--trace 0`` the benchmark repeats the workload until ``--seconds``
have passed (at least MIN_REPS times) and reports the end-to-end metrics as
medians.  With ``--trace 1`` it makes one plain run and one run with every
layer wrapped by ``tracer.Recorder``, and reports the per-layer metrics.

Each run is checked: every report passes, every suite has the seed's check
count, and the digest of the reports (``elapsed_ms`` stripped) is the same
in every run.  The last line of standard output is the JSON result; the
lines before it name every metric with its unit.  The exit status is 0 when
the output is correct, 1 when it is not, and 2 when the program could not be
run at all (then no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_REPS = 2
SETUP_SPAWNS_PER_REP = 4
RUN_DEADLINE_S = 170  # a whole benchmark run must end within 180 s

# Numeric points the seed picks for --v.  All are admissible (not 0, +-1 or
# a root of unity) and are small integers: a point of larger height, such as
# 7/3, makes the exact rationals grow and rank-2 irreducibility about 30%
# slower, which would make runs with different seeds incomparable.
V_POINTS = ["2", "3", "4", "5", "6"]

R2_COUNTS = {
    "serre-radical": 10,
    "xyz": 3,
    "factorization": 451,
    "harish": 21,
    "irreducibility": 131,
    "span": 61,
    "normalizer": 27,
    "f-inverse": 71,
    "module-algebra": 91,
    "delta-inv": 35,
    "invariant-dims": 15,
    "star": 97,
}

# name -> (CLI arguments with {v} for the seeded point, expected checks per
# suite at the seed commit)
WORKLOADS = {
    # the default `verify all`, rank written out: touches every layer
    "verify-r2": (["verify", "all", "--n", "2", "--v", "{v}"], R2_COUNTS),
    # symbolic pairing only; plane and numeric rank layers idle.  Runnable by
    # hand; BENCHMARK.json leaves it out so that the two listed workloads fit
    # longer, steadier runs in the time a full benchmark check may take
    "pairing-r3": (["verify", "factorization", "--n", "3"], {"factorization": 2451}),
    # numeric pairing, word enumeration and exact rank; plane idle
    "gram-r3": (
        ["verify", "irreducibility", "--n", "3", "--v", "{v}"],
        {"irreducibility": 259},
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "checks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def spawn(mode, cli_args, deadline):
    """Run one fresh interpreter and return its result, with `setup_s`
    measured from just before the spawn.  A child still running at the
    deadline is killed and reaped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), mode] + cli_args,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - t_spawn),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            "child %s exited %d: %s" % (mode, proc.returncode, proc.stderr.strip()[-2000:])
        )
    out = json.loads(lines[-1])
    out["setup_s"] = out["t_ready"] - t_spawn
    return out


def score(run, expected):
    """(checks completed, checks expected but not passed, problems)."""
    problems = []
    if run["exit_code"] != 0:
        problems.append("cli exit status %d" % run["exit_code"])
    missed = 0
    completed = 0
    for name, want in expected.items():
        got = run["suites"].get(name)
        if got is None:
            problems.append("suite %s did not run" % name)
            missed += want
            continue
        if got["error"]:
            problems.append("suite %s raised %s" % (name, got["error"]))
            missed += want
            continue
        completed += got["checks"]
        passed = got["checks"] - got["failed"]
        missed += max(0, want - passed)
        if got["failed"]:
            problems.append("suite %s: %d checks failed" % (name, got["failed"]))
        if got["checks"] != want:
            problems.append("suite %s ran %d checks, expected %d" % (name, got["checks"], want))
    for name in run["suites"]:
        if name not in expected:
            problems.append("unexpected suite %s" % name)
    return completed, missed, problems


def layer_metrics(plain, traced):
    """Per-layer metrics from one traced run and the plain run beside it."""
    t = traced["trace"]
    calls, self_s, c = t["calls"], t["self_s"], t["counters"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for layer in ("scalars.canon", "scalars.arith", "scalars.to_qqi", "words.algelt_mul",
                  "verma.pair_left", "verma.pair_words_qqi", "verma.rank_gauss",
                  "ftensor.build_F", "plane.act", "plane.act_generator", "plane.star"):
        put(layer + ".calls", calls[layer], "count")
        put(layer + ".self_s", self_s[layer], "s")
    for layer in ("words.root_vector", "verma.ladder_gate", "verma.is_zero_in_M",
                  "plane.normalize_word"):
        put(layer + ".calls", calls[layer], "count")
    for layer in ("verma.fwords", "verma.rank_at", "plane.nullspace"):
        put(layer + ".self_s", self_s[layer], "s")

    words = c.get("fwords.words", 0)
    put("verma.fwords.words", words, "count")
    put("verma.fwords.useful_ratio", c.get("fwords.fed_rank", 0) / words if words else 0.0, "ratio")
    put("verma.rank_gauss.max_dim", c.get("rank_gauss.max_dim", 0), "count")
    put("plane.nf_cache.size", t["nf_cache_size"], "count")
    # star tries every F entry; an entry is useful when both of its actions
    # are nonzero.  Per entry star calls act once, and a second time when
    # the first image is nonzero, so useful = nonzero images - second calls.
    tried = c.get("star.entries", 0)
    useful = c.get("star.act_nonzero", 0) - (c.get("star.act_calls", 0) - tried)
    put("plane.star.useful_ratio", useful / tried if tried else 0.0, "ratio")

    for name in R2_COUNTS:  # every suite, as verify-r2 runs them all
        got = plain["suites"].get(name)
        put("suites.%s.wall_s" % name, got["wall_s"] if got else 0.0, "s")
        put("suites.%s.checks" % name, got["checks"] if got else 0, "count")
    put("suites.gate.reruns", sum(v for k, v in calls.items() if k.startswith("gate:")), "count")
    limit = plain["word_limits"].get("irreducibility")
    out_of_scope = {tuple(coords) for coords, size in t["fword_sizes"] if size > limit} if limit else ()
    put("suites.irreducibility.out_of_scope", len(out_of_scope), "count")
    put("suites.all.rank_fallbacks", plain["rank_fallbacks"], "count")
    put("trace.overhead_s", traced["wall_s"] - plain["wall_s"], "s")
    return m


def measure(workload, v, seconds, trace):
    template, expected = WORKLOADS[workload]
    cli_args = [a.format(v=v) for a in template]
    deadline = time.monotonic() + RUN_DEADLINE_S
    runs = []
    setups = []
    if trace:
        runs.append(spawn("run", cli_args, deadline))
        runs.append(spawn("trace", cli_args, deadline))
    else:
        # set-up samples are spread between the runs so that a passing
        # burst of load on the machine skews few of them
        t0 = time.monotonic()
        while len(runs) < MIN_REPS or time.monotonic() - t0 < seconds:
            for _ in range(SETUP_SPAWNS_PER_REP):
                setups.append(spawn("setup", cli_args, deadline)["setup_s"])
            runs.append(spawn("run", cli_args, deadline))

    attempted = failed = 0
    problems = []
    per_run = []
    for run in runs:
        completed, missed, probs = score(run, expected)
        attempted += sum(expected.values())
        failed += missed
        problems.extend(probs)
        per_run.append(completed / run["wall_s"])
    digests = {run["digest"] for run in runs}
    if len(digests) != 1:
        problems.append("report digest differs between runs: %s" % sorted(digests))

    if trace:
        metrics = layer_metrics(runs[0], runs[1])
    else:
        setups.extend(run["setup_s"] for run in runs)
        values = {
            "wall_s": statistics.median(run["wall_s"] for run in runs),
            "checks_per_s": statistics.median(per_run),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
            "passed_frac": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    info = {
        "runs": len(runs),
        "setup_samples": len(setups),
        "digest": sorted(digests)[0],
        "walls": [run["wall_s"] for run in runs],
        "spans": runs[-1]["trace"]["spans"] if trace else [],
        "problems": problems,
    }
    return attempted, failed, metrics, info


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit so that subprocess.run kills and reaps
    # the child it is waiting on before this process ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "qsphere", "cli.py")):
        print("no qsphere sources under %s" % SRC, file=sys.stderr)
        return 2
    v = V_POINTS[args.seed % len(V_POINTS)] if "{v}" in WORKLOADS[args.workload][0] else None
    try:
        attempted, failed, metrics, info = measure(args.workload, v, args.seconds, args.trace)
    except (ChildFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        print("benchmark run failed: %s" % e, file=sys.stderr)
        return 2

    correct = not info["problems"]
    print("workload=%s seed=%d v=%s runs=%d setup_samples=%d digest=%s" % (
        args.workload, args.seed, v or "-", info["runs"], info["setup_samples"],
        info["digest"][:16]))
    print("wall_s of each run: %s" % " ".join("%.3f" % w for w in info["walls"]))
    spans = info["spans"]
    for name, start, end, parent in spans:
        print("span %-26s at %8.3f s for %8.3f s  in %s" % (
            name, start - spans[0][1], end - start, spans[parent][0] if parent is not None else "-"))
    for problem in info["problems"]:
        print("FAIL: %s" % problem)
    for name, m in metrics.items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
