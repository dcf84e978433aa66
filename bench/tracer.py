"""In-memory spans around the calls the engine makes into each layer.

The benchmark never edits the package: it swaps the names the engine
looks up at call time (``bitfuse.experiments.simulate_paths``,
``bitfuse.fusion.estimate_fixed``, ...) for timing wrappers while a
traced phase runs, and restores them afterwards.  A refactor that stops
calling one of these names drops that layer's spans, and the worker
turns a layer of ``expected_layers`` without spans into a failed run.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from unittest import mock

import numpy as np

from bitfuse import experiments, fusion
from bitfuse import first_passage as fp

REP = "experiments.rep"
AUDIT = "experiments.audit"
AGGREGATE = "experiments.aggregate"
FUNCTIONALS = "first_passage.functionals"


def _count_steps(counts, out):
    counts["models.steps"] += out.Y.shape[0] * (out.Y.shape[1] - 1)


def _count_stats_bytes(counts, out):
    counts["models.stats_calls"] += 1
    counts["models.stats_bytes"] += sum(
        v.nbytes for v in vars(out).values() if isinstance(v, np.ndarray)
    )


def _count_b(counts, out):
    counts["triggers.b_msgs"] += len(out)


def _count_a(counts, out):
    counts["triggers.a_msgs"] += len(out)


def _count_draws(counts, out):
    counts["first_passage.draws"] += len(out[0])


# (module, attribute the engine looks up, span name, counter or None)
ENGINE_CALLS = (
    (experiments, "simulate_paths", "models.simulate", _count_steps),
    (experiments, "path_statistics", "models.stats", _count_stats_bytes),
    (experiments, "run_b_trigger", "triggers.b", _count_b),
    (experiments, "run_a_trigger", "triggers.a", _count_a),
    (experiments, "reconstruct", "fusion.reconstruct", None),
    (fusion, "estimate_fixed", "fusion.estimate", None),
    (fusion, "estimate_sequential", "fusion.estimate", None),
    (fusion, "estimate_timing_only", "fusion.estimate", None),
    (experiments, "centralized_estimates", "fusion.oracle", None),
)
EXIT_CALLS = (
    (fp, "exit_functionals", FUNCTIONALS, None),
    (fp, "simulate_exit_times", "first_passage.mc", _count_draws),
    (fp, "exit_time_cdf", "first_passage.cdf", None),
)


def expected_layers(calls):
    """Layers a traced run must leave spans in: those of the wrapped calls."""
    return {name.split(".")[0] for _module, _attr, name, _count in calls}


class Tracer:
    """Spans as ``[name, start, end, parent index, replication id]``,
    kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.rep_id = -1
        self._open = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.rep_id])
        self._open.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    @contextlib.contextmanager
    def replication(self):
        self.rep_id += 1
        with self.span(REP):
            yield

    def current(self):
        return self.spans[self._open[-1]][0] if self._open else None

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                count(self.counts, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, calls):
        """Swap every listed attribute for a traced wrapper; restore on exit."""
        with contextlib.ExitStack() as stack:
            for module, attr, name, count in calls:
                wrapped = self.wrap(name, getattr(module, attr), count)
                stack.enter_context(mock.patch.object(module, attr, wrapped))
            yield

    @contextlib.contextmanager
    def counting_density_calls(self):
        """Count ``joint_density`` calls made inside ``exit_functionals``."""
        density = fp.joint_density

        def counted(*args, **kwargs):
            if self.current() == FUNCTIONALS:
                self.counts["first_passage.density_calls"] += 1
            return density(*args, **kwargs)

        with mock.patch.object(fp, "joint_density", counted):
            yield

    def self_times(self):
        """Total self time per span name: duration minus the time its
        direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _rep in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _parent, _rep) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def rep_durations(self):
        """Duration of each replication span, net of the benchmark's own
        audits inside it."""
        audit = Counter()
        for name, start, end, parent, _rep in self.spans:
            if name == AUDIT and parent >= 0:
                audit[parent] += end - start
        return [
            end - start - audit[i]
            for i, (name, start, end, _parent, _rep) in enumerate(self.spans)
            if name == REP
        ]

    def layers(self):
        return {name.split(".")[0] for name, *_ in self.spans}

    def dump(self):
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            [name, round((start - t0) * 1e6), round((end - t0) * 1e6), parent, rep]
            for name, start, end, parent, rep in self.spans
        ]
