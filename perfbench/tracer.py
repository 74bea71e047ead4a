"""Outside-in span recorder for the qsphere layers.

The engine binds its helpers with ``from .x import y``, so replacing a
function on its defining module misses every caller that holds its own
binding.  ``Recorder.install`` therefore replaces each listed function in
every ``qsphere`` namespace that binds it (the package itself included),
patches methods on their class, and wraps the entries of the shared suite
registry.  ``Recorder.restore`` puts every original back.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of its direct child spans; recursive functions are counted at
every level.  Call-level spans number in the millions on the larger
workloads, so they are folded into per-name totals as they close.  Spans of
the suite level (``suite:<name>``, ``gate:<name>``) are kept whole in memory
as ``(name, start, end, parent)`` and handed out by ``spans()`` when the run
ends.
"""

from __future__ import annotations

import sys
import time

# layer metric prefix -> (defining module, function name)
FUNCTIONS = {
    "scalars.canon": ("qsphere.scalars", "_canonical_pair"),
    "scalars.to_qqi": ("qsphere.scalars", "scalar_to_qqi"),
    "words.root_vector": ("qsphere.words", "root_vector"),
    "verma.pair_left": ("qsphere.verma", "pair_left"),
    "verma.pair_words_qqi": ("qsphere.verma", "pair_words_qqi"),
    "verma.fwords": ("qsphere.verma", "fwords_of_weight"),
    "verma.rank_at": ("qsphere.verma", "rank_at"),
    "verma.rank_gauss": ("qsphere.verma", "rank_gauss"),
    "verma.ladder_gate": ("qsphere.verma", "_ladder_rank_ok"),
    "verma.is_zero_in_M": ("qsphere.verma", "is_zero_in_M"),
    "ftensor.build_F": ("qsphere.ftensor", "build_F"),
    "plane.act": ("qsphere.plane", "act"),
    "plane.act_generator": ("qsphere.plane", "act_generator"),
    "plane.normalize_word": ("qsphere.plane", "normalize_word"),
    "plane.star": ("qsphere.plane", "star"),
    "plane.nullspace": ("qsphere.plane", "nullspace_qqi"),
}

# layer metric prefix -> (module, class, method names)
METHODS = {
    "scalars.arith": (
        "qsphere.scalars",
        "Scalar",
        ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__"],
    ),
    "words.algelt_mul": ("qsphere.words", "AlgElt", ["__mul__"]),
}

# suites that another suite re-runs as its gate, by their module-level name
GATE_FUNCTIONS = {
    "serre-radical": "verify_serre_radical",
    "irreducibility": "verify_irreducibility",
    "invariant-dims": "verify_invariant_dims",
}


class Recorder:
    """Wraps the layer functions of a loaded ``qsphere`` and totals spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict = {}
        self.self_s: dict = {}
        self.counters: dict = {}
        self.fword_sizes: list = []  # (weight, words) enumerated by irreducibility
        self._stack: list = []  # open spans: [name, child seconds, kept index]
        self._spans: list = []
        self._patches: list = []  # (setter, owner, key, original)

    # -- span arithmetic -----------------------------------------------------

    def wrap(self, name, fn, on_exit=None, keep=False):
        """Return fn recorded as span `name`; on_exit(args, result, parent)
        runs after a call that returned, with the name of the calling span."""
        stack = self._stack
        clock = self.clock
        calls, self_s = self.calls, self.self_s
        spans = self._spans
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            kept_parent = stack[-1][2] if stack else None
            if keep:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, kept_parent])
            frame = [name, 0.0, idx if keep else kept_parent]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                calls[name] += 1
                self_s[name] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                if keep:
                    spans[idx][1] = t0
                    spans[idx][2] = t1
            if on_exit is not None:
                on_exit(args, out, stack[-1][0] if stack else None)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key, by=1):
        self.counters[key] = self.counters.get(key, 0) + by

    def spans(self):
        """Kept spans as (name, start, end, parent index) tuples."""
        return [tuple(s) for s in self._spans]

    # -- patching --------------------------------------------------------------

    def _patch(self, setter, owner, key, original, replacement):
        self._patches.append((setter, owner, key, original))
        setter(owner, key, replacement)

    def patch_everywhere(self, original, replacement):
        """Replace every module-level binding of `original` in qsphere.*."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qsphere" or modname.startswith("qsphere.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patch(setattr, mod, attr, original, replacement)

    def install(self):
        """Wrap every layer function; qsphere must already be imported."""
        for name, (modname, fname) in FUNCTIONS.items():
            fn = getattr(sys.modules[modname], fname)
            self.patch_everywhere(fn, self.wrap(name, fn, self._hook(name)))
        for name, (modname, clsname, mnames) in METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            for mname in mnames:
                fn = vars(cls)[mname]
                self._patch(setattr, cls, mname, fn, self.wrap(name, fn))
        suites = sys.modules["qsphere.suites"]
        # cli.SUITES is this same dict, so one pass covers both namespaces
        for sname, fn in list(suites.SUITES.items()):
            self._patch(
                dict.__setitem__, suites.SUITES, sname, fn,
                self.wrap("suite:" + sname, fn, keep=True),
            )
        for sname, fname in GATE_FUNCTIONS.items():
            fn = getattr(suites, fname)
            self._patch(
                setattr, suites, fname, fn,
                self.wrap("gate:" + sname, fn, keep=True),
            )
        return self

    def restore(self):
        """Put every original function back, newest patch first."""
        while self._patches:
            setter, owner, key, original = self._patches.pop()
            setter(owner, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- counters measured where the work happens -------------------------------

    def _hook(self, name):
        return {
            "verma.fwords": self._fwords_hook,
            "verma.rank_gauss": self._rank_gauss_hook,
            "plane.act": self._act_hook,
            "plane.star": self._star_hook,
        }.get(name)

    def _fwords_hook(self, args, out, parent):
        self.count("fwords.words", len(out))
        if parent == "verma.rank_at":
            self.count("fwords.fed_rank", len(out))
        elif parent is not None and parent.endswith(":irreducibility"):
            self.fword_sizes.append((tuple(args[0]), len(out)))

    def _rank_gauss_hook(self, args, out, parent):
        rows = args[0]
        dim = max(len(rows), len(rows[0]) if rows else 0)
        self.counters["rank_gauss.max_dim"] = max(self.counters.get("rank_gauss.max_dim", 0), dim)

    def _act_hook(self, args, out, parent):
        if parent == "plane.star":
            self.count("star.act_calls")
            if not out.is_zero():
                self.count("star.act_nonzero")

    def _star_hook(self, args, out, parent):
        self.count("star.entries", len(args[2].entries))
