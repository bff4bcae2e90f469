"""Self-check of the benchmark harness.

Runs every workload at reduced size for two seeds, one tuning call each, once
untraced and once traced, and fails when

- an output check fails or an operation raises;
- the self times of the traced spans, plus the sweep driver's own self time, do
  not add up to the traced tuning time taken by the outer timer;
- the metric names a run prints differ from those in BENCHMARK.json, or a
  per-layer metric has no entry in layers.json.
"""

from __future__ import annotations

import json

SEEDS = (1, 2)
SUM_TOL = 0.01
SELF_TIME_METRICS = (
    "linkage.run_self_s",
    "param_search.collect_s",
    "param_search.find_roots_s",
    "param_search.driver_self_s",
    "pruning_dp.prune_s",
    "pruning_dp.dp_cmp_s",
    "pruning_dp.objective_s",
    "sdp_round.slin_s",
    "sdp_round.owr_s",
    "sdp_round.rprt_s",
    "sdp_round.value_s",
)


def self_check(run_cls, workloads, layers_path, bench_path):
    with open(layers_path) as fh:
        layers = json.load(fh)["per_layer"]
    with open(bench_path) as fh:
        bench = json.load(fh)
    want_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    if want_layer != {name: spec["unit"] for name, spec in layers.items()}:
        problems.append("BENCHMARK.json per_layer differs from layers.json")
    if set(workloads) != {w["name"] for w in bench["workloads"]}:
        problems.append("BENCHMARK.json workloads differ from the implemented ones")

    for name, cls in workloads.items():
        for seed in SEEDS:
            tag = f"{name} seed {seed}"
            for trace in (False, True):
                run = run_cls(cls, seed, 0.0, trace, small=True)
                run.measure(tune_calls=1)
                res = run.result()
                if res["failed"] or not res["correct"]:
                    problems.append(f"{tag} trace={int(trace)}: failures {run.failures}")
                    continue
                got = {m: rec["unit"] for m, rec in res["metrics"].items()}
                if got != (want_layer if trace else want_e2e):
                    problems.append(f"{tag} trace={int(trace)}: metric names or units differ")
                if not trace:
                    continue
                gap = run.self_time_gap()
                metrics = res["metrics"]
                total = sum(metrics[m]["value"] for m in SELF_TIME_METRICS)
                traced = metrics["trace.tune_s"]["value"]
                if gap > SUM_TOL or abs(total - traced) > SUM_TOL * traced:
                    problems.append(
                        f"{tag}: self times sum to {total:.6f} s, traced call took "
                        f"{traced:.6f} s (worst per-call gap {gap:.2%})"
                    )
                print(f"{tag}: ok, traced call {traced:.4f} s, self times {total:.4f} s",
                      flush=True)

    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0
