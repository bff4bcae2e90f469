"""The four tuning workloads, their inputs and their output checks.

Each workload builds its inputs from the run seed alone and hands the library
only those inputs.  ``inputs(i)`` gives the input of tuning call ``i``;
``tune`` is the timed call; ``check`` re-derives the call's answer by other
means and raises ``CheckFailed`` when it disagrees.  ``apply`` is one timed
application of the tuned parameters to the held-out input that
``apply_input(j)`` returns, and ``check_apply`` checks its output.

Library functions are reached through the modules of ``self.lib``
(``self.lib.pruning_dp.best_k_pruning`` rather than a name bound at import), so
that a traced run sees every call and the same workload can run on the frozen
copy of the library in ``reflib`` (see ``Run.scaled``).
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

import partition_tuner
from partition_tuner import (
    ClusteringInstance,
    MaxQPInstance,
    MergeRule,
    Objective,
    PruningRule,
    linkage,
)

GUARD_SHARE = 0.25
"""Largest share of MemAvailable one count tensor may take before the build
is refused and counted as a failed operation."""

REL_TOL = 1e-9


class CheckFailed(Exception):
    """An operation returned an output that its independent check rejects."""


class MemoryGuardRefused(Exception):
    """A power_average build would allocate more than the guard allows."""


def _close(x, y):
    return abs(x - y) <= REL_TOL * max(1.0, abs(x), abs(y))


def mem_available_mib():
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("MemAvailable missing from /proc/meminfo")


def count_tensor_mib(inst, family):
    """Size of the dense (2n-1)^2 * beta float64 count tensor that
    ``linkage._run`` allocates for count-based families, computed from the
    input (0 for the families that keep no counts)."""
    if family not in linkage._NEEDS_COUNTS:
        return 0.0
    n = inst.n
    beta = np.unique(inst.dist[np.triu_indices(n, k=1)]).size
    return (2 * n - 1) ** 2 * beta * 8 / 2.0 ** 20


def gaussian_instance(rng, n):
    pts = rng.standard_normal((n, 3))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(dist, 0.0)
    return ClusteringInstance(n=n, dist=dist)


class Workload:
    """Hooks the benchmark runner calls; subclasses fill them in."""

    name = ""
    family = ""
    fixed_input = False
    """True when every tuning call of a run gets the same input."""
    tune_share = 0.7
    """Share of the timed CPU seconds that goes to tuning calls; held-out
    applications get the rest."""
    ref_cpu_s = {}
    """Median CPU seconds of each kind of timed call on the frozen copy of
    the library, measured once on the 2-vCPU Intel Xeon host the benchmark
    was written on; the runner reports a time as its ratio to the frozen
    copy's time on the same call, times this (see ``Run.scaled``)."""

    def __init__(self, seed, small=False, lib=partition_tuner):
        self.seed = seed
        self.small = small
        self.lib = lib
        self.span = lambda name: contextlib.nullcontext()
        self.tensor_mib = 0.0
        self._answers = {}

    def rng(self, *stream):
        return np.random.default_rng([self.seed, *stream])

    def guard(self, insts):
        """Refuse inputs whose count tensor would not fit; remember the
        largest tensor seen for the per-layer report."""
        need = max(count_tensor_mib(inst, self.family) for inst in insts)
        self.tensor_mib = max(self.tensor_mib, need)
        if need > GUARD_SHARE * mem_available_mib():
            raise MemoryGuardRefused(f"count tensor needs {need:.0f} MiB")

    def apply_input(self, j):
        """Held-out input of application j."""
        return self.heldout[j % len(self.heldout)]

    def verify(self, key, x, res):
        """Check a tuning call's output: in full the first time input
        ``key`` is tuned, and by equality with that answer on repeats."""
        answer = self.answer(res)
        if key in self._answers:
            if answer != self._answers[key]:
                raise CheckFailed("a repeated call on the same input changed its answer")
            return
        self.check(x, res)
        self._answers[key] = answer

    def stats(self, x, res):
        return {}


class _ClusteringWorkload(Workload):
    k = 3
    objective = Objective(kind="phi_p", p=2.0)

    def apply_input(self, j):
        inst = super().apply_input(j)
        self.guard([inst])
        return inst

    def pipeline(self, inst, alpha, p):
        """Tree build, pruning and objective at one parameter point."""
        lib = self.lib
        tree = lib.linkage.build_tree(inst, MergeRule(family=self.family, alpha=alpha))
        pr = lib.pruning_dp.best_k_pruning(inst, tree, self.k, PruningRule(p=p))
        value = lib.pruning_dp.objective_value(inst, self.objective, pr.clusters, pr.centers)
        return pr.clusters, value

    def apply(self, res, inst):
        return (inst, *self.pipeline(inst, *self.tuned(res)))

    def check_apply(self, out):
        inst, clusters, value = out
        members = np.sort(np.concatenate(clusters))
        if len(clusters) != self.k or not np.array_equal(members, np.arange(inst.n)):
            raise CheckFailed("applied pruning is not a k-partition of the points")
        if not math.isfinite(value):
            raise CheckFailed("applied pruning has a non-finite objective")

    def cost(self, insts, alpha, p):
        """Summed objective of the plain pipeline, added in the sweep's order."""
        return sum(self.pipeline(inst, alpha, p)[1] for inst in insts)

    def answer(self, res):
        prof = res.profile
        return (res.best_param, res.best_interval, res.best_cost,
                tuple(prof.breakpoints), tuple(prof.values))

    def stats(self, x, res):
        runs = res.instances_evaluated
        cells = len(res.profile)
        return {"pipeline_runs": runs, "cells": cells, "runs_per_cell": runs / cells}


class GadgetErm(_ClusteringWorkload):
    """erm_alpha on the planted two-gadget instance, convex_minmax family."""

    name = "gadget_erm"
    family = "convex_minmax"
    fixed_input = True
    k = 4
    objective = Objective(kind="psi_pow", p=1.0)
    # The window puts the planted target right of its midpoint, so every
    # target in the band gives the same three-run sweep (two cells) and
    # one call takes a few seconds, short enough to repeat within a run.
    target_band = (0.35, 0.48)
    # Applications cycle over several held-out gadgets, so that their median
    # depends less on the targets one seed happens to draw.
    heldout_count = 3
    # A tuning call and its twin on the frozen copy take about ten seconds,
    # so applications only fill the time left after the last pair that fits.
    tune_share = 1.0
    ref_cpu_s = {"tune_s": 4.7, "apply_s": 0.32, "setup_s": 0.57}

    def setup(self):
        rng = self.rng(0)
        self.alpha_star = float(rng.uniform(*self.target_band))
        held_stars = rng.uniform(*self.target_band, size=self.heldout_count)
        below, above = (0.02, 0.01) if self.small else (0.1, 0.05)
        self.window = (self.alpha_star - below, self.alpha_star + above)
        with self.span("instances.gen"):
            self.inst, _ = self.lib.instances.gen_two_gadget(self.alpha_star, self.family)
            self.heldout = [self.lib.instances.gen_two_gadget(float(a), self.family)[0]
                            for a in held_stars]
        self.guard([self.inst])
        self.apply(None, self.apply_input(0))

    def inputs(self, i):
        return [self.inst]

    def tune(self, x):
        return self.lib.param_search.erm_alpha(
            x, self.family, self.window, self.k, PruningRule(p=1.0), self.objective
        )

    def tuned(self, res):
        if res is None:
            return 0.5 * sum(self.window), 1.0
        return res.best_param, 1.0

    def check(self, x, res):
        lo, hi = res.best_interval
        slack = 1e-8
        if not (lo - slack <= self.alpha_star <= hi + slack):
            raise CheckFailed(
                f"best interval ({lo}, {hi}) misses planted alpha {self.alpha_star}"
            )


class AvgErm(_ClusteringWorkload):
    """erm_alpha with power_average over small Gaussian samples, applied to
    larger held-out instances."""

    name = "avg_erm"
    family = "power_average"
    ref_cpu_s = {"tune_s": 0.18, "apply_s": 0.21, "setup_s": 0.27}
    alpha_range = (0.5, 3.0)
    # The cost of one call varies by about 30% between samples, so every
    # call tunes a fresh sample and a run reports the median over them; n=10
    # keeps a call short enough for dozens of calls in a run.

    def setup(self):
        m, n, held_n = (2, 8, 20) if self.small else (3, 10, 60)
        self.sample = (m, n)
        rng = self.rng(0)
        with self.span("instances.gen"):
            self.heldout = [gaussian_instance(rng, held_n) for _ in range(4)]
        self.guard(self.heldout)
        res = self.tune(self.inputs(-1))
        self.apply(res, self.apply_input(0))

    def inputs(self, i):
        m, n = self.sample
        rng = self.rng(1, i + 1)
        insts = [gaussian_instance(rng, n) for _ in range(m)]
        self.guard(insts)
        return insts

    def tune(self, x):
        return self.lib.param_search.erm_alpha(
            x, self.family, self.alpha_range, self.k, PruningRule(p=2.0), self.objective
        )

    def tuned(self, res):
        return res.best_param, 2.0

    def check(self, x, res):
        prof = res.profile
        for value, rep in zip(prof.values, prof.representatives):
            got = self.cost(x, rep, 2.0)
            if not _close(got, value):
                raise CheckFailed(f"cell at alpha={rep} records {value}, pipeline gives {got}")
        if not _close(res.best_cost, min(prof.values)):
            raise CheckFailed("best_cost is not the profile minimum")
        lo, hi = res.best_interval
        if not lo <= res.best_param <= hi:
            raise CheckFailed("best_param lies outside best_interval")
        if not _close(self.cost(x, res.best_param, 2.0), res.best_cost):
            raise CheckFailed("pipeline at best_param does not attain best_cost")
        grid = np.linspace(*self.alpha_range, 10)[1:-1]
        coarse = min(self.cost(x, float(a), 2.0) for a in grid)
        if res.best_cost > coarse and not _close(res.best_cost, coarse):
            raise CheckFailed(f"best_cost {res.best_cost} worse than grid {coarse}")


class JointErm(_ClusteringWorkload):
    """erm_joint over (alpha, p) with power_minmax on small Gaussian samples."""

    name = "joint_erm"
    family = "power_minmax"
    ref_cpu_s = {"tune_s": 0.095, "apply_s": 0.0057, "setup_s": 0.19}
    # Over a wide alpha range the number of alpha cells, and with it the
    # number of nested exponent sweeps, varies several-fold between samples;
    # a narrow range keeps the cost of a call within about 40% of its median.
    alpha_range = (1.0, 1.2)
    p_range = (0.5, 3.0)

    def setup(self):
        m, n, self.held_n = (2, 5, 12) if self.small else (4, 6, 40)
        self.sample = (m, n)
        with self.span("instances.gen"):
            held = self.apply_input(-1)
        res = self.tune(self.inputs(-1))
        self.apply(res, held)

    def inputs(self, i):
        m, n = self.sample
        rng = self.rng(1, i + 1)
        return [gaussian_instance(rng, n) for _ in range(m)]

    def apply_input(self, j):
        # The cost of an application varies between instances, so each one
        # gets a fresh held-out instance.
        return gaussian_instance(self.rng(2, j + 1), self.held_n)

    def tune(self, x):
        return self.lib.param_search.erm_joint(
            x, self.family, self.alpha_range, self.p_range, self.k, self.objective
        )

    def tuned(self, res):
        return res.best_param

    def check(self, x, res):
        alpha, p = res.best_param
        got = self.cost(x, alpha, p)
        if not _close(got, res.best_cost):
            raise CheckFailed(f"pipeline at best (alpha, p) gives {got}, not {res.best_cost}")
        grid_a = np.linspace(*self.alpha_range, 6)[1:-1]
        grid_p = np.linspace(*self.p_range, 6)[1:-1]
        coarse = min(self.cost(x, float(a), float(q)) for a in grid_a for q in grid_p)
        if res.best_cost > coarse and not _close(res.best_cost, coarse):
            raise CheckFailed(f"best_cost {res.best_cost} worse than grid {coarse}")


class RoundingErm(Workload):
    """slin, owr and rprt ERM on one seeded weighted max-cut graph."""

    name = "rounding_erm"
    fixed_input = True
    # An application takes milliseconds and repeats closely, so tuning
    # calls get nearly all of the time.
    tune_share = 0.9
    # Depending on the graph, embed_bm needs from a few hundred to more than
    # 10^4 iterations to meet its gradient tolerance, though its objective
    # is within 1e-4 of the final value after 300; a fixed budget keeps the
    # set-up time from depending on the seed.
    embed_iters = 500
    ref_cpu_s = {"tune_s": 4.1, "apply_s": 0.0028, "setup_s": 0.32}
    draws = 10

    def setup(self):
        n = 60 if self.small else 200
        m = 3 if self.small else self.draws
        rng = self.rng(0)
        with self.span("instances.gen"):
            adj = np.triu(rng.random((n, n)) < 0.1, 1)
            w = np.where(adj, rng.random((n, n)), 0.0)
            w = (w + w.T) / w.sum()
            self.inst = MaxQPInstance(n=n, matrix=w, origin="maxcut")
        emb = self.lib.sdp_round.embed_bm(
            self.inst, seed=self.seed, max_iters=self.embed_iters
        ).embedding
        self.train = self._draws(emb, m, 1)
        self.heldout = [self._draws(emb, m, 2)]
        warm = tuple(s[:1] for s in self.train)
        self.tune(warm)

    def _draws(self, emb, m, stream):
        base, base2 = (int(b) for b in self.rng(stream).integers(2 ** 31, size=2))
        z = self.lib.sdp_round.sample_z(emb.d, m, base)
        q = self.lib.sdp_round.sample_q(emb.n, m, base)
        z2 = self.lib.sdp_round.sample_z(emb.d + emb.n, m, base2)
        inst = self.inst
        return (
            [(inst, emb, zi) for zi in z],
            [(inst, emb, zi) for zi in z2],
            [(inst, emb, zi, qi) for zi, qi in zip(z, q)],
        )

    def inputs(self, i):
        return self.train

    def tune(self, x):
        slin, owr, rprt = x
        sdp = self.lib.sdp_round
        return (sdp.slin_erm(slin), sdp.owr_erm(owr), sdp.rprt_erm(rprt))

    def _values(self, x, res):
        slin, owr, rprt = x
        rs, ro, rr = res
        sdp = self.lib.sdp_round
        return (
            np.mean([sdp.slin_value(i, e, z, rs.best_param) for i, e, z in slin]),
            np.mean([sdp.owr_value(i, e, z, ro.best_param) for i, e, z in owr]),
            np.mean([
                sdp.cut_value(i.matrix, sdp.rprt_assign(i, e, z, q, rr.best_param))
                for i, e, z, q in rprt
            ]),
        )

    def check(self, x, res):
        for label, got, r in zip(("slin", "owr", "rprt"), self._values(x, res), res):
            if not _close(got, r.best_value):
                raise CheckFailed(f"{label} value {got} at best_param, ERM says {r.best_value}")

    def answer(self, res):
        return tuple((r.best_param, r.best_value) for r in res)

    def apply(self, res, x):
        return self._values(x, res)

    def check_apply(self, out):
        if not all(-1e-12 <= v <= 1.0 + 1e-12 for v in out):
            raise CheckFailed(f"held-out cut values {out} outside [0, 1]")

    def stats(self, x, res):
        return {"pieces": sum(len(r.interval_values) for r in res)}


WORKLOADS = {w.name: w for w in (GadgetErm, AvgErm, JointErm, RoundingErm)}
