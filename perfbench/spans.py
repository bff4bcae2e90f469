"""Span recording around the library's layer boundaries.

The benchmark never edits the library.  In a traced run it replaces module
attributes at the names the callers look up at call time (for example
``param_search._run`` or ``sdp_round._value``) with wrappers that record a
span per call, and puts the originals back afterwards.  Spans nest: each one
keeps the index of the span that was open when it started and the index of
the root span (one tuning call, one application, or one set-up), so a
layer's self time is its duration minus the time covered by its direct
children.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

from partition_tuner import linkage, param_search, pruning_dp, sdp_round
from partition_tuner.param_search import IDENTICALLY_ZERO

CLOCK = time.process_time
"""Every time the benchmark reports is CPU time of its one process.  On a
shared host the wall time of a call also counts the time the process waits
for a CPU, which other tenants decide; CPU time is the work the call did."""


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    root: int = -1
    child_time: float = 0.0


@dataclass
class Tracer:
    """In-memory span and counter store for one benchmark process."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    _stack: list = field(default_factory=list)

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent].root if parent >= 0 else idx
        self.spans.append(Span(name=name, start=0.0, parent=parent, root=root))
        self._stack.append(idx)
        self.spans[idx].start = CLOCK()
        return idx

    def close(self, idx):
        end = CLOCK()
        sp = self.spans[idx]
        sp.end = end
        self._stack.pop()
        if sp.parent >= 0:
            self.spans[sp.parent].child_time += end - sp.start

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def count(self, root, key, amount=1.0):
        """Add to a counter that belongs to the root span ``root``."""
        self.counts[(root, key)] += amount

    def wrap(self, name, fn, after=None):
        """Wrap ``fn`` so each call is a span; ``after(root, result)`` may
        record counters from the result once the span has closed."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self.spans[idx].root, out)
            return out

        return traced

    def by_root(self):
        """For each root span, per span name below it (the root included):
        number of calls and summed self seconds."""
        out = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "self_s": 0.0}))
        for sp in self.spans:
            rec = out[sp.root][sp.name]
            rec["calls"] += 1
            rec["self_s"] += sp.end - sp.start - sp.child_time
        return out

    def counter_total(self, roots, key):
        roots = set(roots)
        return sum(v for (r, k), v in self.counts.items() if r in roots and k == key)


def _count_roots(tracer):
    def after(root, roots):
        if roots is IDENTICALLY_ZERO:
            return
        tracer.count(root, "roots_found", len(roots))
        if not roots:
            tracer.count(root, "empty_solves")

    return after


def _wrap_collector_factory(tracer, make_collector):
    def factory(*args, **kwargs):
        return tracer.wrap("param_search.collect", make_collector(*args, **kwargs))

    return factory


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install span wrappers at every layer boundary the workloads cross."""
    run = tracer.wrap("linkage.run", linkage._run)
    prune = tracer.wrap("pruning_dp.prune", pruning_dp.best_k_pruning)
    objective = tracer.wrap("pruning_dp.objective", pruning_dp.objective_value)
    targets = [
        (linkage, "_run", run),
        (param_search, "_run", run),
        (param_search, "_make_collector",
         _wrap_collector_factory(tracer, param_search._make_collector)),
        (param_search, "find_roots",
         tracer.wrap("param_search.find_roots", param_search.find_roots,
                     _count_roots(tracer))),
        (param_search, "best_k_pruning", prune),
        (pruning_dp, "best_k_pruning", prune),
        (param_search, "dp_with_comparisons",
         tracer.wrap("pruning_dp.dp_cmp", param_search.dp_with_comparisons)),
        (param_search, "objective_value", objective),
        (pruning_dp, "objective_value", objective),
        (sdp_round, "slin_erm", tracer.wrap("sdp_round.slin", sdp_round.slin_erm)),
        (sdp_round, "owr_erm", tracer.wrap("sdp_round.owr", sdp_round.owr_erm)),
        (sdp_round, "rprt_erm", tracer.wrap("sdp_round.rprt", sdp_round.rprt_erm)),
        (sdp_round, "_value", tracer.wrap("sdp_round.value", sdp_round._value)),
        (sdp_round, "embed_bm",
         tracer.wrap("sdp_round.embed", sdp_round.embed_bm,
                     lambda root, res: tracer.count(root, "embed_iters", res.iterations))),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, fn in targets:
            setattr(mod, attr, fn)
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
