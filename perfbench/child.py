"""One measured run of the qsphere CLI in a fresh interpreter.

Usage: python3 perfbench/child.py <mode> <cli argument>...

mode is ``setup`` (stop as soon as the first suite is about to run),
``run`` (run the command) or ``trace`` (run it with every layer wrapped).
The caller puts ``src`` on PYTHONPATH.  The last line of standard output is
one JSON object; everything the CLI prints is captured, not forwarded.
"""

import contextlib
import io
import json
import sys
import time


class _Ready(BaseException):
    """Raised at the first suite call of a ``setup`` run; the CLI catches
    only Exception subclasses, so it unwinds straight out of ``main``."""


class Probe:
    """Wraps cli.run_all and cli.run_suite to time the run and keep every
    sub-report, including the ones ``run_all`` folds into one line."""

    def __init__(self, cli, stop_at_ready=False):
        self.cli = cli
        self.stop_at_ready = stop_at_ready
        self.t_ready = None
        self.t_done = None
        self.depth = 0
        self.calls = []  # [suite, report dict or None, error name or None, seconds]
        self.rank_fallbacks = 0
        self._orig = {"run_all": cli.run_all, "run_suite": cli.run_suite}
        cli.run_all = self._timed(self._orig["run_all"])
        cli.run_suite = self._timed(self._run_suite)

    def restore(self):
        for name, fn in self._orig.items():
            setattr(self.cli, name, fn)

    def _timed(self, fn):
        def wrapper(*args):
            if self.depth == 0:
                self.t_ready = time.monotonic()
                if self.stop_at_ready:
                    raise _Ready()
            self.depth += 1
            try:
                return fn(*args)
            finally:
                self.depth -= 1
                if self.depth == 0:
                    self.t_done = time.monotonic()

        return wrapper

    def _run_suite(self, name, cfg):
        last = self.calls[-1] if self.calls else None
        if last and last[0] == name and last[2] == "UsageError" and cfg.n is None:
            self.rank_fallbacks += 1
        entry = [name, None, None, 0.0]
        self.calls.append(entry)
        t0 = time.monotonic()
        try:
            report = self._orig["run_suite"](name, cfg)
        except Exception as e:
            entry[2] = type(e).__name__
            raise
        finally:
            entry[3] = time.monotonic() - t0
        entry[1] = report.to_dict()
        return report


def _strip_elapsed(report):
    return {k: v for k, v in report.items() if k != "elapsed_ms"}


def main(argv):
    mode, cli_args = argv[0], argv[1:]
    from qsphere import cli

    probe = Probe(cli, stop_at_ready=(mode == "setup"))
    recorder = None
    if mode == "trace":
        import tracer

        recorder = tracer.Recorder().install()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(cli_args)
    except _Ready:
        print(json.dumps({"t_ready": probe.t_ready}))
        return 0
    finally:
        probe.restore()
        if recorder is not None:
            recorder.restore()

    # imported only now, so that set-up is interpreter start plus qsphere
    import hashlib
    import resource

    # the last run_suite call for a name is the one whose report counts: a
    # rank fallback replaces the attempt that raised UsageError
    suites = {}
    for name, report, error, seconds in probe.calls:
        earlier = suites.get(name, {}).get("wall_s", 0.0)
        suites[name] = {
            "checks": len(report["checks"]) if report else 0,
            "failed": sum(c["status"] != "pass" for c in report["checks"]) if report else 0,
            "error": error,
            "wall_s": earlier + seconds,
        }
    printed = out.getvalue().strip()
    reports = [_strip_elapsed(c[1]) for c in probe.calls if c[1] is not None]
    if printed:
        reports.append(_strip_elapsed(json.loads(printed)))
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    result = {
        "t_ready": probe.t_ready,
        "wall_s": probe.t_done - probe.t_ready,
        "exit_code": code,
        "suites": suites,
        "digest": digest,
        "rank_fallbacks": probe.rank_fallbacks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "word_limits": {
            c[0]: c[1]["params"]["word_limit"]
            for c in probe.calls
            if c[1] is not None and "word_limit" in c[1]["params"]
        },
    }
    if recorder is not None:
        result["trace"] = trace_summary(recorder)
    print(json.dumps(result))
    return 0


def trace_summary(rec):
    """Per-layer totals and the kept spans of a traced run, as JSON values."""
    return {
        "calls": rec.calls,
        "self_s": rec.self_s,
        "counters": rec.counters,
        "fword_sizes": rec.fword_sizes,
        "nf_cache_size": len(sys.modules["qsphere.plane"]._NF_CACHE),
        "spans": rec.spans(),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
