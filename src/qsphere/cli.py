"""Command-line front end: compose the verification suites, emit JSON.

Consumers are scripts and CI.  Exit status: 0 all checks pass, 1 at least
one check failed, 2 usage error, 3 an oracle precondition was violated,
4 engine fault (any other exception escaping a suite); a reader that
closes stdout early does not change it.  Each suite runs in one
configuration per rank, degree and numeric point, on both branch signs;
``--n``, ``--max-deg``, ``--v`` and ``--out`` are the only settings.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time
import traceback
from dataclasses import dataclass, replace
from fractions import Fraction

from .report import VerificationReport
from .scalars import SpecMode
from .suites import SUITE_BY_NAME, SUITE_LIST, SUITES, Session
from .verma import OracleError

# what each suite runs with where a flag is unset: its signature's defaults,
# read once from the registered functions (a stub put into SUITES later
# does not change them)
SUITE_DEFAULTS = {
    s.name: {
        k: p.default for k, p in inspect.signature(s.fn).parameters.items() if k != "session"
    }
    for s in SUITE_LIST
}


@dataclass
class SuiteConfig:
    n: int = None
    max_deg: int = None
    # the --v text, or the point ``_check_config`` parsed from it
    v0: Fraction = None
    out: str = None
    # what the suites of one run share; each suite makes its own when None
    session: Session = None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qsphere",
        description="exact verification suites for the quantized even sphere",
    )
    sub = p.add_subparsers(dest="command")
    v = sub.add_parser("verify", help="run one suite (or 'all') and emit a JSON report")
    v.add_argument("suite", help="suite name or 'all'")
    v.add_argument("--n", type=int, help="rank")
    v.add_argument("--max-deg", type=int, help="degree bound")
    v.add_argument(
        "--v", dest="v0", help="numeric point of the irreducibility ranks, as P or P/Q"
    )
    v.add_argument("--out", help="report path (default stdout)")
    return p


def _suite_kwargs(suite, cfg: SuiteConfig):
    kw = dict(SUITE_DEFAULTS[suite.name])
    if cfg.n is not None:
        kw["n"] = cfg.n
    if cfg.max_deg is not None and suite.deg is not None:
        kw[suite.deg] = cfg.max_deg
    if cfg.v0 is not None and "v0" in kw:
        kw["v0"] = cfg.v0
    return kw


def _check_config(cfg: SuiteConfig) -> SuiteConfig:
    """Reject flag values that no suite accepts, before anything runs; the
    config with --v parsed, once, into its checked point, a Fraction, which
    the suites take as it is."""
    if cfg.n is not None and cfg.n < 1:
        raise UsageError("--n must be at least 1")
    if cfg.max_deg is not None and cfg.max_deg < 0:
        raise UsageError("--max-deg must be non-negative")
    if cfg.v0 is None:
        return cfg
    try:
        point = SpecMode.numeric(cfg.v0).v0[0]
    except (ValueError, ZeroDivisionError) as e:
        msg = "--v must be a rational P or P/Q other than 0 and +-1, not %r (%s)"
        raise UsageError(msg % (cfg.v0, e)) from None
    return replace(cfg, v0=point)


def _validate(suite, cfg: SuiteConfig):
    cfg = _check_config(cfg)
    kw = _suite_kwargs(suite, cfg)
    if kw["n"] < suite.min_rank:
        raise UsageError("suite %r needs --n >= %d" % (suite.name, suite.min_rank))
    return kw


class UsageError(ValueError):
    pass


def run_suite(name: str, cfg: SuiteConfig) -> VerificationReport:
    if name not in SUITES:
        raise UsageError("unknown suite %r (choose from %s or 'all')" % (name, ", ".join(SUITES)))
    kw = _validate(SUITE_BY_NAME[name], cfg)
    return SUITES[name](**kw, session=cfg.session)


def run_all(cfg: SuiteConfig) -> VerificationReport:
    cfg = _check_config(cfg)
    runs = {}
    agg = VerificationReport(
        "all",
        {
            "n": cfg.n,
            "max_deg": cfg.max_deg,
            "v": str(cfg.v0) if cfg.v0 is not None else None,
            # what each sub-suite that ran was run with
            "runs": runs,
        },
        "composite",
    )
    t0 = time.monotonic()
    session = cfg.session or Session()
    status = {}
    for suite in SUITE_LIST:
        name = suite.name
        blocked = [d for d in suite.deps if status.get(d) is False]
        if blocked:
            status[name] = False
            agg.record(
                "suite:" + name,
                False,
                "not run: dependency failed (%s)" % ", ".join(blocked),
            )
            continue
        # each suite at the requested rank raised to its minimum
        n = None if cfg.n is None else max(cfg.n, suite.min_rank)
        sub = run_suite(name, replace(cfg, n=n, session=session))
        status[name] = sub.passed
        runs[name] = {"params": sub.params, "mode": sub.mode}
        agg.record(
            "suite:" + name,
            sub.passed,
            "%d of %d checks failed" % (len(sub.failures), len(sub.checks)),
        )
    agg.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return agg


def _emit(report: VerificationReport, out_path):
    text = report.to_json()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        # flushed here, so a closed reader shows up inside main's try
        print(text, flush=True)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "verify":
        parser.print_usage(sys.stderr)
        return 2
    cfg = SuiteConfig(n=args.n, max_deg=args.max_deg, v0=args.v0, out=args.out)
    try:
        if args.suite == "all":
            report = run_all(cfg)
        else:
            report = run_suite(args.suite, cfg)
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 2
    except OracleError as e:
        print("oracle precondition violated: %s" % e, file=sys.stderr)
        return 3
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        print("engine fault: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 4
    try:
        _emit(report, cfg.out)
    except BrokenPipeError:
        # the reader closed stdout early: the verdict still decides the exit
        # status, and stdout goes to devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as e:
        # a verdict that cannot be written is a bad --out, not a failed check
        print("cannot write report: %s" % e, file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
