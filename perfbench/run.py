"""Tuning benchmark for partition-tuner.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload gadget_erm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --self-check

With ``--trace 0`` every tuning call runs with tracing off and the last line
of standard output is a JSON object with the end-to-end metrics.  A run sets
up three times, then makes tuning calls until ``--seconds`` seconds of wall
time have passed since it began, each on a fresh input made from the seed
(gadget_erm and rounding_erm tune one seeded input throughout), with
held-out applications interleaved, and reports the median over its calls.  Each timed call is repeated at
once on a frozen copy of the library (``reflib``), and a time is reported as
the ratio of the two calls' CPU seconds times the frozen copy's CPU seconds
on a reference host (see ``Run.scaled``); the detail line holds the raw CPU
and wall times too.  With ``--trace 1`` no frozen copy runs, each input is
tuned twice, untraced and then traced, and the result carries the per-layer
metrics (CPU self times per tuning call, averaged over the traced calls) and
the tracing overhead.  The line before the result holds the full record:
environment, sample counts, percentiles and failure types.  ``--workload all`` runs the four workloads in this one
process and prints a table; its peak RSS is the process's peak so far, so
avg_erm runs last.

The benchmark imports the library from ``src/`` next to this directory and
exits with status 1, printing no result, when that source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# The benchmark is one process; BLAS may not start more threads than the
# CPUs this process may run on.
os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
sys.dont_write_bytecode = True

SETUP_REPEATS = 3
MIN_APPLY_OPS = 3
MAX_FAILED_IN_A_ROW = 20
ORDER = ("rounding_erm", "gadget_erm", "joint_erm", "avg_erm")


def import_library():
    src = ROOT / "src" / "partition_tuner"
    if not (src / "__init__.py").is_file():
        sys.exit(f"error: no library source at {src}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import partition_tuner

    if Path(partition_tuner.__file__).resolve().parent != src:
        sys.exit(f"error: imported partition_tuner from {partition_tuner.__file__}")


def percentiles(samples):
    """Median, sample count, and the highest of the usual percentiles that
    still has at least ten samples above it."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    ordered = sorted(samples)
    for pct in (99.9, 99, 95, 90, 75):
        rank = int(pct / 100.0 * len(ordered))
        if len(ordered) - rank - 1 >= 10:
            out[f"p{pct:g}"] = ordered[rank]
            break
    return out


def layer_units():
    with open(HERE / "layers.json") as fh:
        return {name: spec["unit"] for name, spec in json.load(fh)["per_layer"].items()}


class Run:
    """One workload measured for a fixed time, with or without tracing."""

    def __init__(self, wl_cls, seed, seconds, trace, small=False):
        import reflib
        import spans

        self.spans = spans
        self.clock = spans.CLOCK
        self.wl = wl_cls(seed, small=small)
        # The same workload on the frozen copy of the library; an untraced
        # run repeats every timed call on it (see Run.scaled).
        self.ref = None if trace else wl_cls(seed, small=small, lib=reflib)
        self.seconds = seconds
        self.trace = trace
        self.tracer = spans.Tracer()
        self.attempted = 0
        self.failures = {}
        # metric -> (CPU seconds, wall seconds, CPU seconds of the same call
        # on the frozen copy) of each set-up, untraced tuning call and
        # held-out application
        self.samples = {"tune_s": [], "apply_s": [], "setup_s": []}
        self.traced = []  # (root span, traced seconds, untraced seconds, stats)
        self.apply_roots = []
        self.tune_spent = 0.0
        self.apply_spent = 0.0
        self.apply_ops = 0
        self.last = None
        self.setup_roots = []

    def _timed(self, root, fn, *args, traced=None):
        """Call fn(*args) and return (output, CPU seconds, wall seconds, root
        span); when traced (by default, when the run is), inside a root span
        named ``root`` with every layer wrapper installed."""
        traced = self.trace if traced is None else traced
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(self.spans.patched(self.tracer))
            w0 = time.perf_counter()
            t0 = self.clock()
            idx = stack.enter_context(self.tracer.span(root)) if traced else None
            out = fn(*args)
            stack.close()
            dt = self.clock() - t0
            wall = time.perf_counter() - w0
        return out, dt, wall, idx

    def _ref(self, hook, *args):
        """CPU seconds of the frozen copy's ``hook`` call on the same
        arguments, or None in a traced run."""
        if self.ref is None:
            return None
        t0 = self.clock()
        getattr(self.ref, hook)(*args)
        return self.clock() - t0

    def scaled(self, metric):
        """Each recorded call of ``metric`` in seconds on the reference host:
        the call's CPU time over that of the frozen copy's same call, made
        right after it, times the frozen copy's time on that host.  Both
        calls of a pair run at the same host speed, so the ratio does not
        follow the drift of a shared host's speed as other tenants come and
        go; a change to the library moves it in full."""
        ref_s = self.wl.ref_cpu_s[metric]
        return [cpu / ref * ref_s for cpu, _, ref in self.samples[metric]]

    def _op(self, fn):
        """Run one counted operation; an exception or failed check is
        recorded by type and never ends the run."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:
            key = type(exc).__name__
            self.failures[key] = self.failures.get(key, 0) + 1
            return None

    def _setup(self):
        if self.trace:
            self.wl.span = self.tracer.span
        for _ in range(SETUP_REPEATS):
            _, dt, wall, idx = self._timed("setup", self.wl.setup)
            self.samples["setup_s"].append((dt, wall, self._ref("setup")))
            self.setup_roots.append(idx)

    def _tune(self, i):
        wl = self.wl
        key = 0 if wl.fixed_input else i
        x = wl.inputs(i)
        res, dt, wall, _ = self._timed("tune", wl.tune, x, traced=False)
        ref_dt = self._ref("tune", x)
        self.tune_spent += dt
        wl.verify(key, x, res)
        self.samples["tune_s"].append((dt, wall, ref_dt))
        if self.trace:
            res_t, dt_t, _, idx = self._timed("tune", wl.tune, x)
            self.tune_spent += dt_t
            wl.verify(key, x, res_t)
            self.traced.append((idx, dt_t, dt, wl.stats(x, res_t)))
        self.last = res
        return res

    def _apply(self, j):
        x = self.wl.apply_input(j)
        out, dt, wall, idx = self._timed("apply", self.wl.apply, self.last, x)
        ref_dt = self._ref("apply", self.last, x)
        self.apply_spent += dt
        self.wl.check_apply(out)
        self.samples["apply_s"].append((dt, wall, ref_dt))
        if idx is not None:
            self.apply_roots.append(idx)

    def _step(self, i):
        """Tuning call i, then held-out applications until they have had
        their share of the time so far."""
        ok = self._op(lambda: self._tune(i)) is not None
        ratio = (1.0 - self.wl.tune_share) / self.wl.tune_share
        while self.last is not None and self.apply_spent < ratio * self.tune_spent:
            self._op(lambda: self._apply(self.apply_ops))
            self.apply_ops += 1
        return ok

    def measure(self, tune_calls=None):
        """Set up, then make tuning calls (input i for call i) with their
        held-out applications until ``seconds`` of wall time have passed
        since the set-up began, and fill the time left when a tuning call no
        longer fits with applications; never start a step that would
        overrun.  With ``tune_calls`` given, make exactly that many calls."""
        deadline = time.perf_counter() + self.seconds
        self._setup()
        count, misses, longest = 0, 0, 0.0
        while True:
            t0 = time.perf_counter()
            misses = 0 if self._step(count) else misses + 1
            count += 1
            longest = max(longest, time.perf_counter() - t0)
            if tune_calls is not None:
                if count >= tune_calls:
                    break
            elif time.perf_counter() + longest > deadline or misses >= MAX_FAILED_IN_A_ROW:
                break

        def apply_fits():
            walls = [w for _, w, _ in self.samples["apply_s"]]
            return tune_calls is None and time.perf_counter() + max(walls, default=0.0) < deadline

        while self.last is not None and (self.apply_ops < MIN_APPLY_OPS or apply_fits()):
            self._op(lambda: self._apply(self.apply_ops))
            self.apply_ops += 1

    # ------------------------------------------------------------------ report

    def end_to_end(self):
        return {
            "tune_s": {"value": statistics.median(self.scaled("tune_s")), "unit": "s"},
            "apply_s": {"value": statistics.median(self.scaled("apply_s")), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
            "setup_s": {"value": statistics.median(self.scaled("setup_s")), "unit": "s"},
        }

    def per_layer(self):
        tr = self.tracer
        by_root = tr.by_root()
        roots = [t[0] for t in self.traced]
        calls = len(roots)

        def per_call(name, field):
            return sum(by_root[r][name][field] for r in roots) / calls

        def stat(key):
            return sum(t[3].get(key, 0.0) for t in self.traced) / calls

        def setup_median(name):
            return statistics.median(by_root[r][name]["self_s"] for r in self.setup_roots)

        apply_run = [by_root[r]["linkage.run"]["self_s"] for r in self.apply_roots]
        apply_run = [v for v in apply_run if v > 0.0]
        values = {
            "linkage.run_calls": per_call("linkage.run", "calls"),
            "linkage.run_self_s": per_call("linkage.run", "self_s"),
            "linkage.apply_run_s": statistics.median(apply_run) if apply_run else 0.0,
            "linkage.count_tensor_mb": self.wl.tensor_mib,
            "param_search.collect_calls": per_call("param_search.collect", "calls"),
            "param_search.collect_s": per_call("param_search.collect", "self_s"),
            "param_search.find_roots_calls": per_call("param_search.find_roots", "calls"),
            "param_search.find_roots_s": per_call("param_search.find_roots", "self_s"),
            "param_search.roots_found": tr.counter_total(roots, "roots_found") / calls,
            "param_search.empty_solves": tr.counter_total(roots, "empty_solves") / calls,
            "param_search.pipeline_runs": stat("pipeline_runs"),
            "param_search.cells": stat("cells"),
            "param_search.runs_per_cell": stat("runs_per_cell"),
            "param_search.driver_self_s": per_call("tune", "self_s"),
            "pruning_dp.prune_calls": per_call("pruning_dp.prune", "calls"),
            "pruning_dp.prune_s": per_call("pruning_dp.prune", "self_s"),
            "pruning_dp.dp_cmp_calls": per_call("pruning_dp.dp_cmp", "calls"),
            "pruning_dp.dp_cmp_s": per_call("pruning_dp.dp_cmp", "self_s"),
            "pruning_dp.objective_s": per_call("pruning_dp.objective", "self_s"),
            "sdp_round.slin_s": per_call("sdp_round.slin", "self_s"),
            "sdp_round.owr_s": per_call("sdp_round.owr", "self_s"),
            "sdp_round.rprt_s": per_call("sdp_round.rprt", "self_s"),
            "sdp_round.pieces": stat("pieces"),
            "sdp_round.value_calls": per_call("sdp_round.value", "calls"),
            "sdp_round.value_s": per_call("sdp_round.value", "self_s"),
            "sdp_round.embed_s": setup_median("sdp_round.embed"),
            "sdp_round.embed_iters": statistics.median(
                tr.counter_total([r], "embed_iters") for r in self.setup_roots
            ),
            "instances.gen_s": setup_median("instances.gen"),
            "trace.tune_s": sum(t[1] for t in self.traced) / calls,
            "trace.overhead_s": sum(t[1] - t[2] for t in self.traced) / calls,
        }
        units = layer_units()
        return {name: {"value": float(v), "unit": units[name]} for name, v in values.items()}

    def self_time_gap(self):
        """Largest relative gap, over traced calls, between the call's outer
        timer and the sum of the self times of every span inside it."""
        by_root = self.tracer.by_root()
        worst = 0.0
        for idx, dt, _, _ in self.traced:
            total = sum(rec["self_s"] for rec in by_root[idx].values())
            worst = max(worst, abs(total - dt) / dt)
        return worst

    def detail(self):
        return {
            "workload": self.wl.name,
            "seed": self.wl.seed,
            "trace": int(self.trace),
            "clock": "process CPU time",
            "cpu_s": {k: percentiles([c for c, _, _ in v]) for k, v in self.samples.items() if v},
            "wall_s": {k: percentiles([w for _, w, _ in v]) for k, v in self.samples.items() if v},
            "reference_cpu_s": {
                k: percentiles([r for _, _, r in v])
                for k, v in self.samples.items() if v and self.ref is not None
            },
            "attempted": self.attempted,
            "failed": sum(self.failures.values()),
            "failure_types": self.failures,
            "count_tensor_mb": {"value": self.wl.tensor_mib, "source": "computed"},
        }

    def result(self):
        failed = sum(self.failures.values())
        metrics = {}
        if self.samples["apply_s"] and (self.traced if self.trace else self.samples["tune_s"]):
            metrics = self.per_layer() if self.trace else self.end_to_end()
        return {
            "correct": failed == 0 and bool(metrics),
            "attempted": self.attempted,
            "failed": failed,
            "metrics": metrics,
        }


def run_all(workloads, args, env):
    results = {}
    for name in ORDER:
        run = Run(workloads[name], args.seed, args.seconds, bool(args.trace))
        run.measure()
        res = run.result()
        results[name] = res
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}"
              f" {run.failures or ''}")
        for metric, rec in res["metrics"].items():
            print(f"  {metric:32s} {rec['value']:.6g} {rec['unit']}")
        print(json.dumps({"detail": run.detail()}), flush=True)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": rec for w, r in results.items()
                    for m, rec in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload small for two seeds and verify the harness")
    args = ap.parse_args(argv)

    import_library()
    from env import environment
    from workloads import WORKLOADS

    env = environment(ROOT)
    if args.self_check:
        from selfcheck import self_check

        return self_check(Run, WORKLOADS, HERE / "layers.json", ROOT / "BENCHMARK.json")
    if args.workload == "all":
        return run_all(WORKLOADS, args, env)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    run.measure()
    print(json.dumps({"env": env, "detail": run.detail()}))
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
