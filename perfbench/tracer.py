"""Outside-in instrumentation of noisy_sqp: spans and counts per layer.

Nothing here edits the program.  Each wrapper replaces a function at the
module attribute where its caller looks it up (``harness.solve``,
``driver.evaluate``, ``steps.minres_iterate``, ``NoisyOracle.sample``, ...),
so the program runs unchanged apart from one extra Python call per wrapped
call.  A span is (name, start, end, parent, run); spans stay in flat arrays
in memory and are aggregated, and written out, when the benchmark ends.
A layer's self time is its span's duration minus that of its child spans.

Functions that take about a microsecond (the vector norms and the merit
parameter trial) are counted, not timed: timing them would cost more than
the call and would inflate their callers' self time.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import Counter

import numpy as np

from noisy_sqp import driver, harness, linalg, merit, noise, steps, stepsize

# (module, attribute, span name), patched at the attribute the caller reads:
# the public functions behind every reported layer metric.  Helpers they
# call stay unwrapped, so their time counts in the reporting layer's self
# time instead of vanishing into an unreported span.
SPAN_SITES = [
    (harness, "run_grid", "harness.run_grid"),
    (harness, "run_single", "harness.run_single"),
    (harness, "best_iterate", "harness.best_iterate"),
    (harness, "records_to_csv", "harness.records_to_csv"),
    (harness, "get_problem", "problems.get_problem"),
    (harness, "solve", "driver.solve"),
    (harness, "least_squares_multiplier", "linalg.least_squares_multiplier"),
    (driver, "evaluate", "problems.evaluate[exact]"),
    (noise, "evaluate", "problems.evaluate[oracle]"),
    (steps, "normal_step", "steps.normal_step"),
    (steps, "tangential_step", "steps.tangential_step"),
    (steps, "check_tt1", "steps.check_tt1"),
    (steps, "check_tt2", "steps.check_tt2"),
    (steps, "minres_iterate", "linalg.minres_iterate"),
    (steps, "cg_steihaug", "linalg.cg_steihaug"),
    (steps, "model_reduction", "merit.model_reduction"),
    (merit, "model_reduction", "merit.model_reduction"),
    (stepsize, "estimate_lipschitz", "stepsize.estimate_lipschitz"),
    (stepsize, "update_chi_zeta", "stepsize.update_chi_zeta"),
    (stepsize, "xi_update", "stepsize.xi_update"),
    (stepsize, "adaptive_alpha", "stepsize.adaptive_alpha"),
    (stepsize, "line_search_alpha", "stepsize.line_search_alpha"),
]

COUNT_SITES = [
    (linalg, "norm2", "linalg.norm2"),
    (steps, "norm2", "linalg.norm2"),
    (merit, "norm2", "linalg.norm2"),
    (stepsize, "norm2", "linalg.norm2"),
    (driver, "norm2", "linalg.norm2"),
    (linalg, "norm_inf", "linalg.norm_inf"),
    (steps, "norm_inf", "linalg.norm_inf"),
    (driver, "norm_inf", "linalg.norm_inf"),
    (harness, "norm_inf", "linalg.norm_inf"),
    (merit, "tau_trial", "merit.tau_trial"),
]

SAMPLE_KINDS = ("value", "derivative", "both")


class Patches:
    """Module attributes the benchmark replaces; ``on``/``off`` swap them in
    and out, so checks between runs call the program unwrapped."""

    def __init__(self):
        self._sites = {}

    def wrap(self, owner, attr, make):
        """Wrap ``owner.attr`` (or the wrapper already set for it) with ``make``."""
        key = (id(owner), attr)
        if key not in self._sites:
            original = getattr(owner, attr)
            self._sites[key] = [owner, attr, original, original]
        site = self._sites[key]
        site[3] = make(site[3])

    def on(self):
        for owner, attr, _, wrapped in self._sites.values():
            setattr(owner, attr, wrapped)

    def off(self):
        for owner, attr, original, _ in self._sites.values():
            setattr(owner, attr, original)


class Tracer:
    """In-memory span and count recorder for one process.

    A process forked from the recorder (a pool worker) starts from empty
    buffers on its first ``begin_run``; ``take`` hands over and clears them.
    """

    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run_of = array("q")
        self.counts = Counter()
        self.stack: list[int] = []
        self.run = -1
        self.pid = os.getpid()

    def label_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def span(self, fn, label: str):
        nid = self.label_id(label)
        name, start, end, parent, run_of, stack = (
            self.name, self.start, self.end, self.parent, self.run_of, self.stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            run_of.append(self.run)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def count(self, fn, label: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def begin_run(self, run_id: int):
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.take()
            self.stack.clear()
        self.run = run_id

    def take(self) -> dict:
        """Return the recorded spans and counts as plain data and clear them."""
        out = {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run_of, dtype=np.int64).copy(),
            "counts": dict(self.counts),
        }
        for buf in (self.name, self.start, self.end, self.parent, self.run_of):
            del buf[:]
        self.counts.clear()
        return out


def install(tracer: Tracer, patches: Patches):
    """Add a span or count wrapper for every site to ``patches``."""
    for owner, attr, label in SPAN_SITES:
        patches.wrap(owner, attr, lambda fn, label=label: tracer.span(fn, label))
    for owner, attr, label in COUNT_SITES:
        patches.wrap(owner, attr, lambda fn, label=label: tracer.count(fn, label))

    def sample_by_kind(sample):
        by_kind = {kind: tracer.span(sample, f"noise.sample.{kind}") for kind in SAMPLE_KINDS}

        @functools.wraps(sample)
        def traced_sample(oracle, x, want="both"):
            return by_kind[want](oracle, x, want)
        return traced_sample

    patches.wrap(noise.NoisyOracle, "sample", sample_by_kind)


class LayerTable:
    """Calls, self time and total time per span name, summed over chunks."""

    def __init__(self, labels):
        self.labels = labels
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.counts = Counter()
        self.chunks = []

    def add(self, chunk: dict):
        name, dur, parent = chunk["name"], chunk["end"] - chunk["start"], chunk["parent"]
        has_parent = parent >= 0
        self_ns = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                    minlength=len(dur))
        k = len(self.labels)
        calls = np.bincount(name, minlength=k)
        selfs = np.bincount(name, weights=self_ns, minlength=k)
        totals = np.bincount(name, weights=dur, minlength=k)
        for i, label in enumerate(self.labels):
            if calls[i]:
                self.calls[label] += int(calls[i])
                self.self_ns[label] += float(selfs[i])
                self.total_ns[label] += float(totals[i])
        self.counts.update(chunk["counts"])
        self.chunks.append(chunk)

    def calls_of(self, *labels) -> int:
        return sum(self.calls[lb] + self.counts[lb] for lb in labels)

    def self_s(self, *labels) -> float:
        return sum(self.self_ns[lb] for lb in labels) * 1e-9

    def total_s(self, *labels) -> float:
        return sum(self.total_ns[lb] for lb in labels) * 1e-9

    def write(self, path: str):
        """Write every span as flat arrays; parent indices are file-global."""
        offset = 0
        parents = []
        for chunk in self.chunks:
            p = chunk["parent"].copy()
            p[p >= 0] += offset
            parents.append(p)
            offset += len(p)

        def cat(key, dtype):
            parts = [c[key] for c in self.chunks]
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        np.savez(path, labels=np.array(self.labels), name=cat("name", np.int32),
                 start_ns=cat("start", np.int64), end_ns=cat("end", np.int64),
                 parent=np.concatenate(parents) if parents else np.zeros(0, np.int64),
                 run=cat("run", np.int64))
