"""The one pruning DP against the two recurrences it replaced.

tests/oracles.py keeps best_k_pruning and dp_with_comparisons as they stood
when each wrote the recurrence out by itself.  Both front ends of the shared
DP must reproduce them bit for bit: clusters, centers, score, power sum,
choice signature and every comparison's terms.
"""

import math

import numpy as np
import pytest

from partition_tuner import (
    ClusteringInstance,
    DimensionMismatch,
    MergeRule,
    PruningRule,
    best_k_pruning,
    build_tree,
    gen_two_gadget,
)
from partition_tuner.pruning_dp import dp_with_comparisons
from oracles import random_instance, reference_best_k_pruning, reference_dp_with_comparisons

P_VALUES = (0.7, 1.0, 2.0, math.inf)


def _tie_heavy_instance(rng):
    """Integer distances from {1, 2, 3}: many equal center costs and splits."""
    n = int(rng.integers(4, 11))
    D = rng.integers(1, 4, size=(n, n)).astype(float)
    D = np.triu(D, 1)
    return ClusteringInstance(n=n, dist=D + D.T)


def _cases(count=60, seed=88):
    rng = np.random.default_rng(seed)
    for trial in range(count):
        inst = _tie_heavy_instance(rng) if trial % 2 else random_instance(rng)
        family = ["power_average", "power_minmax", "convex_minmax"][trial % 3]
        alpha = float(rng.uniform(0.1, 0.9)) if family == "convex_minmax" else float(
            rng.uniform(-2.0, 3.0))
        yield inst, build_tree(inst, MergeRule(family, alpha))


def _bits(res):
    return (
        [c.tolist() for c in res.clusters],
        [int(c) for c in res.centers],
        res.score.hex(),
        res.power_sum.hex(),
        res.k,
        res.variant,
    )


def _terms(comps):
    return [
        [(float(a).hex(), float(b).hex()) for a, b in zip(coeffs, values) if a != 0.0]
        for coeffs, values in comps
    ]


def test_best_k_pruning_is_bit_identical_to_the_frozen_dp():
    for inst, tree in _cases():
        for p in P_VALUES:
            rule = PruningRule(p=p)
            for variant in ("fixed", "voronoi"):
                for k in range(1, min(5, inst.n) + 1):
                    got = best_k_pruning(inst, tree, k, rule, variant)
                    want = reference_best_k_pruning(inst, tree, k, rule, variant)
                    assert _bits(got) == _bits(want), (inst.n, p, variant, k)


def test_dp_with_comparisons_is_bit_identical_to_the_frozen_dp():
    for inst, tree in _cases():
        for p in P_VALUES[:-1]:
            for k in range(1, min(5, inst.n) + 1):
                res, comps, sig = dp_with_comparisons(inst, tree, k, p)
                ref, ref_comps, ref_sig = reference_dp_with_comparisons(inst, tree, k, p)
                assert _bits(res) == _bits(ref), (inst.n, p, k)
                assert sig == ref_sig
                assert _terms(comps) == _terms(ref_comps)
                # the package emits only the distances whose counts differ
                assert all(np.all(coeffs != 0.0) for coeffs, _ in comps)


@pytest.mark.parametrize("alpha_star,family", [(0.4, "convex_minmax"), (1.5, "power_average")])
def test_two_gadget_prunings_are_bit_identical_to_the_frozen_dps(alpha_star, family):
    # n=210: 209 inner nodes, whose center costs tie often
    inst, _ = gen_two_gadget(alpha_star, family)
    tree = build_tree(inst, MergeRule(family, alpha_star))
    for p in (0.5, 1.0, 2.0, math.inf):
        for variant in ("fixed", "voronoi"):
            got = best_k_pruning(inst, tree, 4, PruningRule(p=p), variant)
            want = reference_best_k_pruning(inst, tree, 4, PruningRule(p=p), variant)
            assert _bits(got) == _bits(want), (p, variant)
        if math.isinf(p):
            continue
        res, comps, sig = dp_with_comparisons(inst, tree, 4, p)
        ref, ref_comps, ref_sig = reference_dp_with_comparisons(inst, tree, 4, p)
        assert _bits(res) == _bits(ref), p
        assert sig == ref_sig
        assert _terms(comps) == _terms(ref_comps)


def test_pruning_refuses_a_tree_built_for_another_instance():
    rng = np.random.default_rng(89)
    tree = build_tree(random_instance(rng, n=6), MergeRule("power_minmax", 1.0))
    for n in (5, 7):
        other = random_instance(rng, n=n)
        with pytest.raises(DimensionMismatch):
            best_k_pruning(other, tree, 2, PruningRule(p=2.0))
        with pytest.raises(DimensionMismatch):
            dp_with_comparisons(other, tree, 2, 2.0)
