"""Timing, normalisation, tracing and statistics shared by the workloads.

Raw wall-clock times on small shared VMs drift by tens of percent from
one process to the next and from one tenth of a second to the next
within a run, so every timed figure is normalised by a fixed pure-Python
reference loop, run in slices right after each operation of a pass
(and right after each set-up), for about a quarter of the time the
operation took:

    reported = measured * (nominal time of the slices run / their measured time)

A single run of the loop after the whole pass jitters by as much as the
pass itself; slices spread over the pass see the same slow and fast
moments as its operations (see README).
"""

from __future__ import annotations

import gc
import importlib
import re
import resource
import statistics
import sys
import time
from contextlib import contextmanager

#: one reference slice's time on the machine the benchmark was
#: calibrated on, at its fast end (see README); only the ratio matters
NOMINAL_SLICE_S = 100e-6
#: reference time run after each operation, as a share of its time
REF_SHARE = 0.25

now = time.perf_counter

# A miniature of the program's own work on fixed data: tokenise a
# formula with a regular expression, parse it recursively into tuples,
# and evaluate it set-based over a fixed 12-world model.
_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(->|[~&|()\[\]]))")
_TEXT = "~[a](p & [b]~q) & ([Y]p | ~[a][b](q & ~p)) -> [b][a]p"
_WORLDS = tuple(f"w{i}" for i in range(12))
_SUCC = {a: {w: tuple(_WORLDS[(i * k + j) % 12] for j in range(3))
             for i, w in enumerate(_WORLDS)}
         for a, k in (("a", 5), ("b", 7))}
_SUCC["Y"] = {w: (_WORLDS[i - 1],) if i % 4 else ()
              for i, w in enumerate(_WORLDS)}
_VAL = {"p": frozenset(_WORLDS[::2]), "q": frozenset(_WORLDS[::3])}


def _unary(tokens, i):
    t = tokens[i]
    if t == "~":
        f, i = _unary(tokens, i + 1)
        return ("not", f), i
    if t == "[":
        agent = tokens[i + 1]
        f, i = _unary(tokens, i + 3)
        return ("box", agent, f), i
    if t == "(":
        f, i = _binary(tokens, i + 1)
        return f, i + 1
    return ("atom", t), i + 1


def _binary(tokens, i):
    f, i = _unary(tokens, i)
    while i < len(tokens) and tokens[i] in ("&", "|", "->"):
        g, j = _unary(tokens, i + 1)
        f, i = (tokens[i], f, g), j
    return f, i


def _extension(f):
    kind = f[0]
    if kind == "atom":
        return _VAL[f[1]]
    if kind == "not":
        return frozenset(_WORLDS) - _extension(f[1])
    if kind == "box":
        body = _extension(f[2])
        return frozenset(w for w in _WORLDS
                         if all(v in body for v in _SUCC[f[1]][w]))
    left, right = _extension(f[1]), _extension(f[2])
    if kind == "&":
        return left & right
    if kind == "|":
        return left | right
    return (frozenset(_WORLDS) - left) | right


def reference_slice():
    """One slice of the reference loop.  Garbage collection is held off
    inside it, so its time does not depend on the size of the heap the
    workload keeps.  Its result is checked so nothing can skip it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        tokens = [m.group(1) or m.group(2) for m in _TOKEN.finditer(_TEXT)]
        f, _ = _binary(tokens, 0)
        out = len(_extension(f))
        out += sum(len(_extension(("box", a, ("atom", "p"))))
                   for a in ("a", "b", "Y"))
        out += len(sorted(_WORLDS, key=lambda w: (w in _VAL["q"], w)))
    finally:
        if enabled:
            gc.enable()
    if out != 21:
        raise AssertionError(f"reference slice computed {out}")
    return out


# ---------------------------------------------------------------------------
# tracing

class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, **counts):
        yield counts

    def op(self, op_id):
        pass


class Tracer:
    """Spans (name, start, end, parent, op, counts) around the
    benchmark's own calls into the program, kept in memory and written
    out when the run ends."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    def op(self, op_id):
        """Mark the operation that the following spans belong to."""
        self._op = op_id

    @contextmanager
    def span(self, name, **counts):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "start": now(), "end": None, "parent": parent,
               "op": self._op, "counts": counts}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield counts
        finally:
            rec["end"] = now()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name):
        """Raw seconds of every span with this name."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def counts(self, name, key):
        return [s["counts"][key] for s in self.spans
                if s["name"] == name and key in s["counts"]]


# ---------------------------------------------------------------------------
# statistics

median = statistics.median


def tail(xs):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, or None below forty samples."""
    n = len(xs)
    if n < 40:
        return None
    s = sorted(xs)
    return 100.0 * (n - 10) / n, s[n - 11]


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up

def fresh_detl():
    """Import the program anew: drop every loaded detl module, so the
    import is paid again and every module-level cache starts empty."""
    for name in [m for m in sys.modules if m == "detl" or m.startswith("detl.")]:
        del sys.modules[name]
    return importlib.import_module("detl")


def timed_setups(reps, build, run):
    """Run `build(detl)` after a fresh import `reps` times, recording
    each normalised set-up time in `run`; returns the last build."""
    state = None
    for _ in range(reps):
        state = None
        gc.collect()
        t0 = now()
        detl = fresh_detl()
        state = build(detl)
        raw = now() - t0
        run.reference(raw)
        run.setups.append(raw * run.take_factor())
    return state


# ---------------------------------------------------------------------------
# timed passes

class Run:
    """Normalised times of one run's set-ups, passes and operations."""

    def __init__(self):
        self.setups = []
        self.pass_times = []  # normalised seconds of each pass's operations
        self.latencies = []   # normalised seconds per successful operation
        self.raw_latencies = []
        self.factors = []     # normalisation factor of each pass
        self.attempted = 0
        self.failed = 0
        self._slices = 0      # reference slices since the last factor
        self._ref_s = 0.0
        self.total_slices = 0
        self.total_ref_s = 0.0
        self.peak_rss_mb = None   # set by the caller after a fixed count of passes

    def reference(self, busy):
        """Run reference slices for REF_SHARE of `busy` seconds, at least
        one.  Call right after each operation, outside its timing."""
        t0 = now()
        n = 0
        while True:
            reference_slice()
            n += 1
            spent = now() - t0
            if spent >= REF_SHARE * busy:
                break
        self._slices += n
        self._ref_s += spent

    def take_factor(self):
        """Nominal over measured time of the slices since the last call."""
        if not self._slices:
            self.reference(0.0)
        f = self._slices * NOMINAL_SLICE_S / self._ref_s
        self.total_slices += self._slices
        self.total_ref_s += self._ref_s
        self._slices, self._ref_s = 0, 0.0
        return f

    def factor(self):
        """The whole run's factor, for figures not tied to one pass (the
        per-layer spans)."""
        return self.total_slices * NOMINAL_SLICE_S / self.total_ref_s

    def record(self, raw_latencies, failed):
        """One whole pass: raw seconds per successful operation and the
        count of failed ones."""
        f = self.take_factor()
        self.factors.append(f)
        self.pass_times.append(f * sum(raw_latencies))
        self.raw_latencies.extend(raw_latencies)
        self.latencies.extend(f * x for x in raw_latencies)
        self.attempted += len(raw_latencies) + failed
        self.failed += failed

    def end_to_end(self):
        ops_per_pass = len(self.latencies) / len(self.pass_times)
        return {
            "setup_s": (median(self.setups), "s"),
            "ops_per_s": (ops_per_pass / median(self.pass_times), "1/s"),
            "latency_p50_ms": (1e3 * median(self.latencies), "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def tail_ms(self):
        """(percentile, normalised ms, samples), or None."""
        t = tail(self.latencies)
        return None if t is None else (t[0], 1e3 * t[1], len(self.latencies))
