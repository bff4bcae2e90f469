"""Merge rules, tree construction, and the recorded comparisons."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_tuner import (
    ClusteringInstance,
    DomainError,
    MergeRule,
    NonFiniteDistance,
    NonPositiveDistance,
    UnknownFamily,
    build_tree,
    gen_two_gadget,
    record_comparisons,
    rule_value,
    selector_indices,
)
from partition_tuner.linkage import _run
from partition_tuner.param_search import _make_collector
from conftest import euclidean_instance
from oracles import (
    merge_value,
    naive_linkage,
    naive_linkage_sequence,
    reference_minmax_collector,
    reference_run,
    tree_merge_sequence,
)


# ---------------------------------------------------------------------------
# rule construction and direct values


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="convex_minmax", alpha=1.5),
        dict(family="convex_minmax"),
        dict(family="power_minmax", alpha=0.0),
        dict(family="power_minmax"),
        dict(family="power_average"),
        dict(family="sigma_linear", sigma=2),
        dict(family="sigma_linear", sigma=3, weights=(1.0, 2.0)),
        dict(family="sigma_linear", sigma=2, weights=(0.0, 0.0)),
        dict(family="sigma_linear", sigma=2, weights=(-1.0, 2.0)),
        dict(family="sigma_power", alpha=0.0, sigma=2),
        dict(family="sigma_power", alpha=1.0, sigma=1),
        dict(family="power_minmax", alpha=math.nan),
        dict(family="power_average", alpha=math.nan),
        dict(family="sigma_power", alpha=math.nan, sigma=2),
        dict(family="sigma_linear", sigma=2, weights=(math.nan, 1.0)),
        dict(family="sigma_linear", sigma=2, weights=(1.0, math.inf)),
        dict(family="sigma_linear", sigma=2, weights=(-math.inf, 1.0)),
    ],
)
def test_rule_domain_validation(kwargs):
    with pytest.raises(DomainError):
        MergeRule(**kwargs)


def test_rule_unknown_family():
    with pytest.raises(UnknownFamily):
        MergeRule(family="centroid", alpha=1.0)


def test_selector_indices_cover_extremes():
    for L in range(2, 40):
        for sigma in range(2, min(L, 8) + 1):
            idx = selector_indices(L, sigma)
            assert idx[0] == 0 and idx[-1] == L - 1
            assert len(idx) == sigma
            assert all(np.diff(idx) >= 0)


def test_selector_indices_formula():
    idx = selector_indices(11, 4)
    assert list(idx) == [round(j * 10 / 3) for j in range(4)]


_dists = st.lists(st.floats(0.1, 10.0), min_size=2, max_size=12)


@settings(max_examples=200, deadline=None)
@given(
    d=_dists,
    # the direct formula loses all precision as alpha -> 0 (mean^(1/alpha)
    # amplifies rounding in the mean); alpha = 0 itself is tested exactly
    alpha=st.floats(-6.0, 6.0).filter(lambda a: abs(a) >= 1e-3),
)
def test_power_average_matches_direct_formula(d, alpha):
    got = rule_value(MergeRule("power_average", alpha), d)
    want = merge_value(d, MergeRule("power_average", alpha))
    assert got == pytest.approx(want, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(d=_dists, alpha=st.floats(0.05, 6.0), neg=st.booleans())
def test_power_minmax_matches_direct_formula(d, alpha, neg):
    a = -alpha if neg else alpha
    got = rule_value(MergeRule("power_minmax", a), d)
    want = merge_value(d, MergeRule("power_minmax", a))
    assert got == pytest.approx(want, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(d=_dists, alpha=st.floats(0.0, 1.0))
def test_convex_matches_direct_formula(d, alpha):
    got = rule_value(MergeRule("convex_minmax", alpha), d)
    want = merge_value(d, MergeRule("convex_minmax", alpha))
    assert got == pytest.approx(want, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    d=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=12),
    sigma=st.integers(2, 3),
    data=st.data(),
)
def test_selector_families_match_direct_formula(d, sigma, data):
    w = tuple(data.draw(st.floats(0.0, 3.0)) for _ in range(sigma))
    if all(v == 0.0 for v in w):
        w = w[:-1] + (1.0,)
    lin = MergeRule("sigma_linear", weights=w, sigma=sigma)
    assert rule_value(lin, d) == pytest.approx(merge_value(d, lin), rel=1e-9)
    a = data.draw(st.floats(0.3, 4.0))
    pw = MergeRule("sigma_power", a, sigma=sigma)
    assert rule_value(pw, d) == pytest.approx(merge_value(d, pw), rel=1e-9)


def test_infinite_alpha_is_exact_min_max():
    d = [0.7, 1.3, 2.9, 0.9]
    for fam in ("power_minmax", "power_average"):
        assert rule_value(MergeRule(fam, math.inf), d) == 2.9
        assert rule_value(MergeRule(fam, -math.inf), d) == 0.7
    assert rule_value(MergeRule("sigma_power", math.inf, sigma=2), d) == 2.9
    assert rule_value(MergeRule("sigma_power", -math.inf, sigma=2), d) == 0.7


def test_sigma_linear_selects_the_distances_themselves():
    # exp(log(d)) differs from d for about a third of uniform d, so a key
    # built from the logs would not equal the selected distance
    rng = np.random.default_rng(17)
    rule = MergeRule("sigma_linear", weights=(1.0, 0.0), sigma=2)
    for trial in range(2000):
        d = rng.uniform(0.1, 10.0, int(rng.integers(1, 9)))
        assert rule_value(rule, d) == d.min(), trial


def test_geometric_mean_at_zero():
    d = [1.0, 2.0, 4.0]
    assert rule_value(MergeRule("power_average", 0.0), d) == pytest.approx(2.0)


@pytest.mark.parametrize("rule", [
    MergeRule("convex_minmax", 0.3),
    MergeRule("power_minmax", 1.7),
    MergeRule("power_minmax", -0.8),
    MergeRule("power_minmax", math.inf),
    MergeRule("power_average", 1.3),
    MergeRule("power_average", -0.7),
    MergeRule("power_average", 0.0),
    MergeRule("power_average", math.inf),
    MergeRule("power_average", -math.inf),
    MergeRule("sigma_linear", weights=(0.35, 0.65), sigma=2),
    MergeRule("sigma_linear", weights=(0.2, 1.0, 0.7), sigma=3),
    MergeRule("sigma_power", 0.8, sigma=3),
    MergeRule("sigma_power", -1.3, sigma=3),
], ids=repr)
def test_rule_value_is_the_merge_loops_value(rule):
    # rule_value runs the merge loop's own keys, so the cross distances of
    # merge t give back values[t] bit for bit
    rng = np.random.default_rng(12)
    for trial in range(8):
        n = int(rng.integers(4, 20))
        inst = _integer_instance(rng, n, 3) if trial % 2 else euclidean_instance(rng, n)
        tree = build_tree(inst, rule)
        for t, (a, b) in enumerate(tree.merges):
            d = inst.dist[np.ix_(tree.leaf_sets[a], tree.leaf_sets[b])].ravel().tolist()
            assert rule_value(rule, d) == tree.values[t], (trial, t)


def test_rule_value_refuses_no_distances():
    with pytest.raises(DomainError):
        rule_value(MergeRule("power_average", 1.0), [])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rule_value_refuses_non_finite_distances(bad):
    for rule in (MergeRule("power_average", 1.0), MergeRule("convex_minmax", 0.5)):
        with pytest.raises(NonFiniteDistance):
            rule_value(rule, [1.0, bad])


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_rule_value_refuses_non_positive_distances(bad):
    for rule in (MergeRule("power_average", 1.0), MergeRule("convex_minmax", 0.5)):
        with pytest.raises(NonPositiveDistance):
            rule_value(rule, [bad, 2.0])


# ---------------------------------------------------------------------------
# full tree construction against the quadratic-scan oracle


def _random_rules(rng):
    yield MergeRule("convex_minmax", float(rng.uniform(0.0, 1.0)))
    yield MergeRule("power_minmax", float(rng.uniform(0.2, 3.0)))
    yield MergeRule("power_average", float(rng.uniform(-2.0, 2.0)))
    yield MergeRule("sigma_linear", weights=(float(rng.uniform(0.1, 2.0)),
                                             float(rng.uniform(0.1, 2.0))), sigma=2)
    yield MergeRule("sigma_power", float(rng.uniform(0.3, 2.0)), sigma=3)


def test_build_tree_matches_naive_scan():
    rng = np.random.default_rng(314)
    for trial in range(8):
        inst = euclidean_instance(rng, int(rng.integers(5, 10)))
        for rule in _random_rules(rng):
            tree = build_tree(inst, rule)
            assert tree.fingerprint() == naive_linkage(inst, rule), rule


def test_tie_break_is_lexicographic():
    # every distance equal: merges must follow smallest-leaf order
    D = np.ones((5, 5))
    np.fill_diagonal(D, 0.0)
    inst = ClusteringInstance(n=5, dist=D)
    tree = build_tree(inst, MergeRule("convex_minmax", 0.5))
    seq = tree_merge_sequence(tree)
    assert seq[0] == ((0,), (1,))
    assert seq[1] == ((0, 1), (2,))
    assert seq[2] == ((0, 1, 2), (3,))
    assert seq[3] == ((0, 1, 2, 3), (4,))


def test_infinite_keys_still_merge_in_min_leaf_order():
    # every key overflows to +inf, the value that also marks the diagonal and
    # retired nodes: the tie rule must still pick distinct active clusters
    base = euclidean_instance(np.random.default_rng(0), 8)
    rule = MergeRule("sigma_linear", weights=(1e308, 1e308), sigma=2)
    with np.errstate(over="ignore"):
        tree = build_tree(ClusteringInstance(n=8, dist=base.dist * 10), rule)
        # unscaled, the first two keys stay finite and the rest overflow
        mixed = build_tree(base, rule)
    assert tree.merges == [(0, 1), (8, 2), (9, 3), (10, 4), (11, 5), (12, 6), (13, 7)]
    assert tree.values == [math.inf] * 7
    assert mixed.merges == [(0, 1), (3, 5), (8, 2), (10, 9), (11, 4), (12, 6), (13, 7)]
    assert mixed.values[:2] == [9.819226749348119e+307, 1.2936664342087112e+308]
    assert mixed.values[2:] == [math.inf] * 5


def test_tree_structure_invariants():
    rng = np.random.default_rng(99)
    inst = euclidean_instance(rng, 12)
    tree = build_tree(inst, MergeRule("power_average", 1.3))
    assert len(tree.merges) == inst.n - 1
    assert tree.root == 2 * inst.n - 2
    assert tree.leaf_sets[tree.root] == list(range(inst.n))
    for t, (a, b) in enumerate(tree.merges):
        v = inst.n + t
        assert tree.children(v) == (a, b)
        union = sorted(tree.leaf_sets[a] + tree.leaf_sets[b])
        assert tree.leaf_sets[v] == union
    for leaf in range(inst.n):
        assert tree.children(leaf) is None
        assert tree.leaf_sets[leaf] == [leaf]


def test_two_point_tree():
    inst = ClusteringInstance(n=2, dist=np.array([[0.0, 3.0], [3.0, 0.0]]))
    tree = build_tree(inst, MergeRule("power_minmax", 2.0))
    assert len(tree.merges) == 1
    assert tree.values[0] == pytest.approx((2 * 3.0 ** 2.0) ** 0.5)


def test_limits_agree_with_single_and_complete():
    rng = np.random.default_rng(400)
    for _ in range(4):
        inst = euclidean_instance(rng, int(rng.integers(6, 14)))
        _, single = naive_linkage_sequence(inst, MergeRule("convex_minmax", 1.0))
        _, complete = naive_linkage_sequence(inst, MergeRule("convex_minmax", 0.0))
        for fam in ("power_minmax", "power_average"):
            assert tree_merge_sequence(build_tree(inst, MergeRule(fam, -math.inf))) == single
            assert tree_merge_sequence(build_tree(inst, MergeRule(fam, math.inf))) == complete


# ---------------------------------------------------------------------------
# recorded comparisons


def test_recorded_comparisons_name_real_candidates():
    rng = np.random.default_rng(7)
    inst = euclidean_instance(rng, 8)
    rule = MergeRule("convex_minmax", 0.35)
    tree, comps = record_comparisons(inst, rule)
    assert tree.fingerprint() == build_tree(inst, rule).fingerprint()
    assert comps, "every multi-candidate step should log comparisons"
    for cmp_ in comps:
        # the winner's value never exceeds the candidate's at the probe alpha
        wv = rule.alpha * cmp_.winner_min + (1 - rule.alpha) * cmp_.winner_max
        cv = rule.alpha * cmp_.candidate_min + (1 - rule.alpha) * cmp_.candidate_max
        assert wv <= cv + 1e-12
        # the same relation through the canonical equation terms
        slope_const = cmp_.terms(rule)
        val = sum(c * rule.alpha ** j for c, _, j in slope_const)
        assert val <= 1e-12


# ---------------------------------------------------------------------------
# tie-heavy inputs


def _integer_instance(rng, n, top):
    D = rng.integers(1, top + 1, size=(n, n)).astype(float)
    D = np.triu(D, 1)
    return ClusteringInstance(n=n, dist=D + D.T)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_tie_heavy_merge_sequence_matches_naive_scan(alpha):
    rng = np.random.default_rng(int(alpha * 10) + 17)
    rule = MergeRule("convex_minmax", alpha)
    for trial in range(12):
        inst = _integer_instance(rng, int(rng.integers(4, 12)), int(rng.integers(2, 5)))
        _, want = naive_linkage_sequence(inst, rule)
        assert tree_merge_sequence(build_tree(inst, rule)) == want, (trial, inst.dist)


def _collected_pair(inst, rule):
    got, want = set(), set()
    tree = _run(inst, rule, collector=_make_collector(rule.family, None, got))
    ref = reference_run(inst, rule, reference_minmax_collector(rule.family, want))
    # the same steps, so the collectors saw the same candidates
    assert tree_merge_sequence(tree) == tree_merge_sequence(ref), rule
    return got, want


_MINMAX_RULES = [("convex_minmax", 0.3), ("power_minmax", 1.7), ("power_minmax", -0.8),
                 ("convex_minmax", 0.0), ("convex_minmax", 1.0),
                 ("power_minmax", math.inf), ("power_minmax", -math.inf)]


def test_minmax_collector_matches_row_unique_reference_on_gadget():
    inst, _ = gen_two_gadget(0.4, "convex_minmax")
    for family, alpha in [("convex_minmax", 0.4)] + _MINMAX_RULES:
        got, want = _collected_pair(inst, MergeRule(family, alpha))
        assert got == want, (family, alpha)
        assert len(got) > 1


@pytest.mark.parametrize("family,alpha", _MINMAX_RULES)
def test_minmax_collector_matches_row_unique_reference_on_random(family, alpha):
    rng = np.random.default_rng(2024)
    for trial in range(6):
        n = int(rng.integers(4, 16))
        if trial % 2:
            inst = _integer_instance(rng, n, 4)
        else:
            inst = euclidean_instance(rng, n)
        got, want = _collected_pair(inst, MergeRule(family, alpha))
        assert got == want


def test_minmax_collector_equations_are_shared_across_one_run():
    # one collector serves every instance of a pipeline run; its cache of
    # compared (winner, candidate) keys must not drop another instance's
    # equations
    rng = np.random.default_rng(31)
    insts = [_integer_instance(rng, 9, 3) for _ in range(3)]
    rule = MergeRule("convex_minmax", 0.45)
    got, want = set(), set()
    cb = _make_collector(rule.family, None, got)
    for inst in insts:
        _run(inst, rule, collector=cb)
        reference_run(inst, rule, reference_minmax_collector(rule.family, want))
    assert got == want


@pytest.mark.parametrize("rule", [MergeRule("convex_minmax", 0.35), MergeRule("power_minmax", -1.2),
                                  MergeRule("power_average", math.inf)])
def test_recorded_minmax_comparisons_list_every_candidate_pair(rule):
    rng = np.random.default_rng(12)
    inst = _integer_instance(rng, 10, 3)
    want = []

    def listing(step, winner, ids, tri, minD, maxD, cnt, distinct):
        for i, j in zip(ids[tri[0]], ids[tri[1]]):
            if {i, j} != set(winner):
                want.append((step, winner, (i, j), minD[winner], maxD[winner],
                             minD[i, j], maxD[i, j]))

    reference_run(inst, rule, listing)
    tree, comps = record_comparisons(inst, rule)
    assert tree.merges == build_tree(inst, rule).merges
    assert [(c.step, c.winner, c.candidate, c.winner_min, c.winner_max, c.candidate_min,
             c.candidate_max) for c in comps] == want
    assert all(c.winner_counts is None and c.candidate_counts is None for c in comps)
