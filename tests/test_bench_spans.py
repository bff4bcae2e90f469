"""The benchmark's traced mode patches library attributes by name.

perfbench/spans.py replaces module attributes such as sdp_round._value or
param_search._run with timing wrappers.  Entering and leaving its patch
context here makes a refactor that drops or renames one of them fail the
test suite instead of the traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from partition_tuner import (MergeRule, Objective, PruningRule, build_tree, gen_k4_shatter,
                             linkage, param_search, pruning_dp, sdp_round)
from oracles import random_instance

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look the module up
    spec.loader.exec_module(mod)
    return mod


def _attributes():
    return {
        (mod.__name__, name): val
        for mod in (linkage, param_search, pruning_dp, sdp_round)
        for name, val in vars(mod).items()
        if callable(val)
    }


def test_span_patch_enters_and_restores():
    spans = _load_spans()
    before = _attributes()
    tracer = spans.Tracer()
    with spans.patched(tracer):
        patched = before[("partition_tuner.sdp_round", "slin_erm")]
        assert sdp_round.slin_erm is not patched
        inst, emb, z, _ = gen_k4_shatter(8, 1)
        sdp_round.slin_erm([(inst, emb, z)])
        sdp_round.owr_erm([(inst, emb, np.ones(emb.d + emb.n))])
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {sp.name for sp in tracer.spans}
    assert {"sdp_round.slin", "sdp_round.owr"} <= names


def test_sweeps_cross_every_pruning_span():
    # a sweep that bypassed the patched attributes (say, by calling the
    # shared pruning DP directly) would leave these layers empty
    spans = _load_spans()
    rng = np.random.default_rng(41)
    instances = [random_instance(rng, n=6) for _ in range(2)]
    obj = Objective(kind="phi_p", p=2.0)
    tracer = spans.Tracer()
    with spans.patched(tracer):
        param_search.sweep_alpha(instances, "power_minmax", (0.5, 2.0), 2,
                                 PruningRule(p=2.0), obj)
        trees = [build_tree(inst, MergeRule("power_average", 1.0)) for inst in instances]
        param_search.sweep_p(instances, trees, 2, (0.5, 3.0), obj)
    names = {sp.name for sp in tracer.spans}
    assert {"linkage.run", "pruning_dp.prune", "pruning_dp.dp_cmp",
            "pruning_dp.objective"} <= names
