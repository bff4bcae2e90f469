"""Sparse pair multisets in the tree build, against the dense count tensor.

The reference build in oracles.py keeps every cluster pair's distance
multiset as a dense row of counts over the distinct distances; the package
keeps sparse, interned supports.  Trees, selector keys and collected
equations must agree; power_average keys may differ only in rounding.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_tuner import (
    ClusteringInstance,
    DomainError,
    MergeRule,
    build_tree,
    gen_general_lb,
    gen_two_gadget,
    linkage,
)
from partition_tuner.linkage import _count_keys, _counts_needed, _run, record_comparisons
from partition_tuner.param_search import _make_collector, _margin_collector
from conftest import euclidean_instance
from oracles import (
    merge_value,
    reference_count_collector,
    reference_grid_collector,
    reference_minmax_collector,
    reference_run,
    tree_merge_sequence,
)


def _rules(rng):
    yield MergeRule("convex_minmax", float(rng.uniform(0.0, 1.0)))
    yield MergeRule("power_minmax", float(rng.uniform(-3.0, 3.0)) or 1.0)
    yield MergeRule("power_average", float(rng.uniform(-3.0, 3.0)))
    yield MergeRule("power_average", 0.0)
    yield MergeRule("power_average", math.inf)
    yield MergeRule("power_average", -math.inf)
    yield MergeRule("sigma_linear", weights=(float(rng.uniform(0.1, 2.0)),
                                             float(rng.uniform(0.1, 2.0))), sigma=2)
    yield MergeRule("sigma_linear", weights=(0.2, 1.0, 0.7), sigma=3)
    yield MergeRule("sigma_power", float(rng.uniform(0.3, 2.5)), sigma=int(rng.integers(2, 5)))
    yield MergeRule("sigma_power", -1.3, sigma=3)
    yield MergeRule("sigma_power", math.inf, sigma=2)


def _assert_same_build(inst, rule):
    got = build_tree(inst, rule)
    want = reference_run(inst, rule)
    assert tree_merge_sequence(got) == tree_merge_sequence(want), rule
    if rule.family == "power_average" and not math.isinf(rule.alpha):
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12)
    else:
        # selector keys pick exact order statistics: bit-identical
        assert got.values == want.values, rule


def test_builds_match_dense_reference_on_gaussian_points():
    rng = np.random.default_rng(11)
    for _ in range(12):
        inst = euclidean_instance(rng, int(rng.integers(2, 18)))
        for rule in _rules(rng):
            _assert_same_build(inst, rule)


@pytest.mark.parametrize("rounds", [3, 4, 5, 6])
def test_builds_match_dense_reference_on_general_lb(rounds):
    inst, _ = gen_general_lb(rounds)
    rng = np.random.default_rng(rounds)
    for alpha in (1.1, 1.7, 2.3, 2.9):
        _assert_same_build(inst, MergeRule("power_average", alpha))
    for rule in _rules(rng):
        _assert_same_build(inst, rule)


def _integer_instance(rng, n, top):
    D = rng.integers(1, top + 1, size=(n, n)).astype(float)
    D = np.triu(D, 1)
    return ClusteringInstance(n=n, dist=D + D.T)


def test_tie_heavy_builds_diverge_only_at_exact_ties():
    rng = np.random.default_rng(23)
    for _ in range(25):
        inst = _integer_instance(rng, int(rng.integers(3, 12)), int(rng.integers(2, 5)))
        for rule in _rules(rng):
            got = tree_merge_sequence(build_tree(inst, rule))
            want = tree_merge_sequence(reference_run(inst, rule))
            for g, w in zip(got, want):
                if g == w:
                    continue
                # the same clusters are active on both sides up to here
                vals = [merge_value([inst.dist[p, q] for p in a for q in b], rule)
                        for a, b in (g, w)]
                assert abs(vals[0] - vals[1]) <= 1e-12 * max(1.0, *map(abs, vals)), (
                    rule, g, w, vals)
                break


_BIG_TIE_RULES = (
    [MergeRule("convex_minmax", a) for a in (0.0, 0.4, 1.0)]
    + [MergeRule("power_minmax", a) for a in (1.7, -1.7, math.inf, -math.inf)]
)


@pytest.mark.parametrize("alpha_star,family", [(0.4, "convex_minmax"), (1.5, "power_average")])
def test_builds_match_dense_reference_on_two_gadgets(alpha_star, family):
    # n=210: hundreds of pairs tie on the merge value, and rows whose
    # minimum sat on a merged cluster must be found again
    inst, _ = gen_two_gadget(alpha_star, family)
    for rule in _BIG_TIE_RULES + [MergeRule("power_average", 1.5)]:
        _assert_same_build(inst, rule)


def test_minmax_builds_match_dense_reference_on_120_gaussian_points():
    inst = euclidean_instance(np.random.default_rng(120), 120)
    for rule in _BIG_TIE_RULES:
        _assert_same_build(inst, rule)


def _collector_inputs(inst, rule):
    """Each step, its winner and its active nodes, as _run's collectors see
    them (in slots) and as reference_run's do (in node ids)."""
    got, want = [], []

    def record(step, winner, ids, sets):
        got.append((step, tuple(int(ids[s]) for s in winner), sorted(ids.tolist())))

    def record_reference(step, winner, ids, *_):
        want.append((step, tuple(map(int, winner)), ids.tolist()))

    _run(inst, rule, record)
    reference_run(inst, rule, record_reference)
    return got, want


def test_collectors_see_the_reference_steps_winners_and_candidates():
    # a sweep's equations are built from exactly these inputs
    rng = np.random.default_rng(29)
    rules = _BIG_TIE_RULES + [
        MergeRule("power_average", math.inf),
        MergeRule("sigma_linear", weights=(0.35, 0.65), sigma=2),
        MergeRule("sigma_power", 0.8, sigma=3),
    ]
    for _ in range(10):
        inst = _integer_instance(rng, int(rng.integers(3, 16)), int(rng.integers(1, 4)))
        for rule in rules:
            got, want = _collector_inputs(inst, rule)
            assert got == want, rule
    inst, _ = gen_two_gadget(0.4, "convex_minmax")
    for rule in (MergeRule("convex_minmax", 0.4), MergeRule("power_minmax", 1.7)):
        got, want = _collector_inputs(inst, rule)
        assert got == want


_multiset = st.dictionaries(st.integers(0, 11), st.integers(1, 6), min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(
    target=_multiset,
    others=st.lists(_multiset, max_size=5),
    where=st.integers(0, 5),
    # keys divide by alpha: a tiny alpha overflows them to inf
    alpha=st.floats(-4.0, 4.0).filter(lambda a: a == 0.0 or abs(a) >= 1e-3),
    sigma=st.integers(2, 4),
    seed=st.integers(0, 2 ** 16),
)
def test_equal_multisets_get_bit_equal_keys(target, others, where, alpha, sigma, seed):
    rng = np.random.default_rng(seed)
    distinct = np.sort(rng.uniform(0.1, 9.0, 12))
    logd = np.log(distinct)
    batch = list(others)
    batch.insert(min(where, len(batch)), target)
    batch.append(target)
    at = [i for i, m in enumerate(batch) if m is target]

    def keys(multisets, rule):
        idx = np.concatenate([np.array(sorted(m), dtype=np.int64) for m in multisets])
        cnt = np.concatenate([np.array([m[t] for t in sorted(m)], dtype=np.int64)
                              for m in multisets])
        starts = np.cumsum([0] + [len(m) for m in multisets[:-1]])
        return _count_keys(rule, idx, cnt, starts, logd, distinct)

    weights = tuple(float(w) for w in rng.uniform(0.1, 2.0, sigma))
    for rule in (MergeRule("power_average", alpha), MergeRule("power_average", 0.0),
                 MergeRule("sigma_linear", weights=weights, sigma=sigma),
                 MergeRule("sigma_power", alpha or 1.0, sigma=sigma)):
        alone = keys([target], rule)[0]
        got = keys(batch, rule)
        assert all(got[i].tobytes() == alone.tobytes() for i in at), rule


def _collected(inst, rule, make, make_ref):
    got, want = set(), set()
    tree = _run(inst, rule, make(got))
    ref = reference_run(inst, rule, make_ref(want))
    return tree_merge_sequence(tree) == tree_merge_sequence(ref), got, want


@pytest.mark.parametrize("family,sigma,rule", [
    ("power_average", None, MergeRule("power_average", 1.3)),
    ("power_average", None, MergeRule("power_average", -0.6)),
    ("sigma_power", 3, MergeRule("sigma_power", 0.8, sigma=3)),
    ("sigma_linear", 2, MergeRule("sigma_linear", weights=(0.35, 0.65), sigma=2)),
])
def test_count_collectors_match_dense_reference(family, sigma, rule):
    rng = np.random.default_rng(5)
    compared = 0
    for trial in range(16):
        n = int(rng.integers(3, 13))
        inst = _integer_instance(rng, n, 3) if trial % 2 else euclidean_instance(rng, n)
        same, got, want = _collected(
            inst, rule,
            lambda eqs: _make_collector(family, sigma, eqs),
            lambda eqs: reference_count_collector(family, sigma, eqs),
        )
        if same:
            assert got == want
            compared += 1
    assert compared >= 12


@pytest.mark.parametrize("family,sigma,rule", [
    ("sigma_power", 3, MergeRule("sigma_power", 0.8, sigma=3)),
    ("sigma_linear", 2, MergeRule("sigma_linear", weights=(0.35, 0.65), sigma=2)),
])
def test_selector_collectors_select_the_winners_values_once_per_step(monkeypatch, family,
                                                                    sigma, rule):
    calls = []
    selected = linkage._selected

    def counted(*args):
        calls.append(args)
        return selected(*args)

    monkeypatch.setattr(linkage, "_selected", counted)
    rng = np.random.default_rng(6)
    for inst in (euclidean_instance(rng, 11), _integer_instance(rng, 11, 3)):
        eqs = set()
        cb = _make_collector(family, sigma, eqs)
        steps, budget = [], []

        def check(step, winner, ids, sets):
            # at most one selection per distinct candidate (the winner's
            # included) and one for the winner of each step so far: the
            # build's last step selects for all of them
            budget.append(len(sets.live()) + 1)
            cb(step, winner, ids, sets)
            assert len(calls) <= sum(budget)
            steps.append(len(calls))

        calls.clear()
        _run(inst, rule, check)
        assert eqs and max(steps) > 2


@pytest.mark.parametrize("family,sigma,rule", [
    ("power_average", None, MergeRule("power_average", 1.3)),
    ("power_average", None, MergeRule("power_average", 0.0)),
    ("sigma_power", 3, MergeRule("sigma_power", 0.8, sigma=3)),
    ("sigma_linear", 2, MergeRule("sigma_linear", weights=(0.35, 0.65), sigma=2)),
    ("convex_minmax", None, MergeRule("convex_minmax", 0.4)),
    ("power_minmax", None, MergeRule("power_minmax", 1.3)),
])
def test_builds_read_the_upper_distance_of_a_slightly_asymmetric_metric(family, sigma, rule):
    # ClusteringInstance accepts asymmetry within 1e-12 of the largest entry;
    # both orientations of a leaf pair must count its upper-triangle distance
    reference = (reference_count_collector if _counts_needed(rule)
                 else lambda family, sigma, eqs: reference_minmax_collector(family, eqs))
    rng = np.random.default_rng(41)
    compared = 0
    for trial in range(12):
        n = int(rng.integers(3, 12))
        base = _integer_instance(rng, n, 3) if trial % 2 else euclidean_instance(rng, n)
        D = base.dist.copy()
        D[np.tri(n, k=-1, dtype=bool)] += 1e-13 * D.max()  # the largest pair's too
        inst = ClusteringInstance(n=n, dist=D)
        if trial % 2 == 0:
            _assert_same_build(inst, rule)
        # the build equals the one on the upper triangle, mirrored: base
        tree, upper = build_tree(inst, rule), build_tree(base, rule)
        assert (tree.merges, tree.values) == (upper.merges, upper.values), rule
        same, got, want = _collected(
            inst, rule,
            lambda eqs: _make_collector(family, sigma, eqs),
            lambda eqs: reference(family, sigma, eqs),
        )
        if same:
            assert got == want
            _, on_base, _ = _collected(base, rule,
                                       lambda eqs: _make_collector(family, sigma, eqs),
                                       lambda eqs: reference(family, sigma, eqs))
            assert got == on_base
            compared += 1
    assert compared >= 9


def test_grid_margins_match_dense_reference_in_order():
    rng = np.random.default_rng(8)
    w = np.array([0.3, 0.9, 0.5])
    rule = MergeRule("sigma_linear", weights=tuple(w), sigma=3)
    for trial in range(10):
        n = int(rng.integers(3, 12))
        inst = _integer_instance(rng, n, 3) if trial % 2 else euclidean_instance(rng, n)
        got, want = [], []
        tree = _run(inst, rule, _margin_collector(3, w, got))
        ref = reference_run(inst, rule, reference_grid_collector(3, w, want))
        if tree_merge_sequence(tree) == tree_merge_sequence(ref):
            assert got == want


def test_store_holds_only_the_active_pairs():
    rng = np.random.default_rng(3)
    inst = _integer_instance(rng, 14, 3)
    n = inst.n

    def check(step, winner, ids, sets):
        sids = sets.sid[np.triu_indices(ids.size, k=1)]
        # the active pairs partition the leaf pairs across clusters
        sizes = np.bincount(sets.label)
        cross = (n * n - int(np.sum(sizes * sizes))) // 2
        assert sum(int(sets.support(s)[1].sum()) for s in sids) == cross
        # the counted ids are the active pairs'; the ids interned for the
        # sweep may hold more, none reused
        assert sorted(sets.live()) == np.unique(sids).tolist()
        assert len(sets._index) == len(sets.keys) >= len(sets.live())

    _run(inst, MergeRule("power_average", 1.0), check)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 11), top=st.integers(1, 4), seed=st.integers(0, 2 ** 16),
       pick=st.integers(0, 10))
def test_live_ids_are_each_steps_distinct_candidate_keys(n, top, seed, pick):
    rng = np.random.default_rng(seed)
    inst = _integer_instance(rng, n, top) if seed % 2 else euclidean_instance(rng, n)
    rule = list(_rules(rng))[pick]
    steps, ends = [], []

    def check(step, winner, ids, sets):
        ii, jj = np.triu_indices(ids.size, k=1)
        sids = sets.sid[ii, jj]
        # the live ids are np.unique(sids), each counting its active pairs
        held, count = np.unique(sids, return_counts=True)
        assert sorted(sets.live()) == held.tolist()
        assert sets._refs == dict(zip(held.tolist(), count.tolist()))
        if _counts_needed(rule):
            # an interned multiset's id is its index in the interned keys
            assert [sets._index[sets.keys[s]] for s in held.tolist()] == held.tolist()
        else:
            # a code is its own id and decodes to the pair's (min, max)
            lo, hi = np.divmod(sids, sets.beta)
            ends.extend(zip(ids[ii], ids[jj], sets.distinct[lo], sets.distinct[hi]))
        steps.append(step)

    tree = _run(inst, rule, check)
    assert tree.merges == build_tree(inst, rule).merges
    assert steps == list(range(n - 1))
    upper = np.where(np.tri(n, k=-1, dtype=bool), inst.dist.T, inst.dist)
    for u, v, lo, hi in ends:
        d = upper[np.ix_(tree.leaf_sets[u], tree.leaf_sets[v])]
        assert (lo, hi) == (d.min(), d.max())


_PROPERTY_RULES = [
    MergeRule("convex_minmax", 0.0), MergeRule("convex_minmax", 0.35),
    MergeRule("convex_minmax", 1.0), MergeRule("power_minmax", 1.7),
    MergeRule("power_minmax", -0.8), MergeRule("power_minmax", math.inf),
    MergeRule("power_average", 1.3), MergeRule("power_average", 0.0),
    MergeRule("power_average", -math.inf),
    MergeRule("sigma_linear", weights=(0.35, 0.65), sigma=2),
    MergeRule("sigma_linear", weights=(0.2, 1.0, 0.7), sigma=3),
    MergeRule("sigma_power", 0.8, sigma=3), MergeRule("sigma_power", -1.3, sigma=2),
]


def _sweep_collectors(rule):
    """The package's sweep collector for rule and the reference's, each a
    factory over the container it fills; None where no sweep collects."""
    if rule.family == "sigma_linear" and rule.sigma != 2:
        w = np.array(rule.weights)
        return (lambda out: _margin_collector(rule.sigma, w, out),
                lambda out: reference_grid_collector(rule.sigma, w, out))
    if rule.family in ("convex_minmax", "power_minmax"):
        return (lambda out: _make_collector(rule.family, None, out),
                lambda out: reference_minmax_collector(rule.family, out))
    if not _counts_needed(rule):
        return None
    return (lambda out: _make_collector(rule.family, rule.sigma, out),
            lambda out: reference_count_collector(rule.family, rule.sigma, out))


def _listed_comparisons(comparisons, beta):
    def dense(support):
        return None if support is None else tuple(np.bincount(*support, minlength=beta))

    return [(c.step, c.winner, c.candidate, c.winner_min, c.winner_max, c.candidate_min,
             c.candidate_max, dense(c.winner_counts), dense(c.candidate_counts))
            for c in comparisons]


def _check_against_reference(inst, rule):
    """Check build_tree, record_comparisons (in order) and the rule's sweep
    collector against reference_run.  Returns the slot cases the build's
    steps met: the winner (or its partner) in the last slot, or neither,
    with m > 2 active clusters, and m = 2."""
    beta = np.unique(inst.dist[np.triu_indices(inst.n, k=1)]).size
    counts = _counts_needed(rule)
    want = []

    def listing(step, winner, ids, tri, minD, maxD, cnt, distinct):
        def dense(u, v):
            return tuple(cnt[u, v].astype(int)) if counts else None

        for i, j in zip(ids[tri[0]], ids[tri[1]]):
            if {i, j} != set(winner):
                want.append((step, winner, (i, j), minD[winner], maxD[winner], minD[i, j],
                             maxD[i, j], dense(*winner), dense(i, j)))

    ref = reference_run(inst, rule, listing)
    tree, comps = record_comparisons(inst, rule)
    plain = build_tree(inst, rule)
    assert (plain.merges, plain.values, plain.leaf_sets) == (
        tree.merges, tree.values, tree.leaf_sets), rule
    got, expected = tree_merge_sequence(tree), tree_merge_sequence(ref)
    if rule.family == "power_average" and not math.isinf(rule.alpha) and got != expected:
        # its keys may differ from the reference's in rounding: the first
        # different merge must tie
        g, w = next((g, w) for g, w in zip(got, expected) if g != w)
        vals = [merge_value([inst.dist[p, q] for p in a for q in b], rule) for a, b in (g, w)]
        assert abs(vals[0] - vals[1]) <= 1e-12 * max(1.0, *map(abs, vals)), (rule, g, w)
        return set()
    assert got == expected, rule
    assert (tree.merges, tree.leaf_sets) == (ref.merges, ref.leaf_sets), rule
    if not (rule.family == "power_average" and not math.isinf(rule.alpha)):
        assert tree.values == ref.values, rule
    assert _listed_comparisons(comps, beta) == want, rule

    cases = set()

    def slots(step, winner, ids, sets):
        m, (si, sj) = ids.size, winner
        cases.add("m = 2" if m == 2 else "winner last" if si == m - 1
                  else "partner last" if sj == m - 1 else "moved")

    collectors = _sweep_collectors(rule)
    if collectors is None:
        _run(inst, rule, slots)
        return cases
    make, make_reference = collectors
    out, out_reference = (([], []) if rule.family == "sigma_linear" and rule.sigma != 2
                          else (set(), set()))
    collect = make(out)

    def collecting(*args):
        slots(*args)
        collect(*args)

    _run(inst, rule, collecting)
    reference_run(inst, rule, make_reference(out_reference))
    assert out == out_reference, rule
    return cases


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 11), top=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
def test_slot_builds_match_the_reference_on_tie_heavy_integer_instances(n, top, seed):
    inst = _integer_instance(np.random.default_rng(seed), n, top)
    for rule in _PROPERTY_RULES:
        _check_against_reference(inst, rule)


def test_reference_checks_meet_every_slot_case():
    # the property above draws from these instances; between them they
    # merge the last slot as the winner and as its partner, move it into a
    # freed slot, and reach m = 2
    rng = np.random.default_rng(7)
    cases = set()
    for _ in range(6):
        inst = _integer_instance(rng, int(rng.integers(2, 12)), int(rng.integers(1, 5)))
        for rule in _PROPERTY_RULES:
            cases |= _check_against_reference(inst, rule)
    assert cases == {"m = 2", "winner last", "partner last", "moved"}


def test_plain_builds_intern_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a plain build interned a pair key")

    for cls in (linkage.PairKeys, linkage.PairMultisets):
        monkeypatch.setattr(cls, "_leaf_keys", refuse)
        monkeypatch.setattr(cls, "replace", refuse)
    monkeypatch.setattr(linkage.PairKeys, "codes", refuse)
    rng = np.random.default_rng(4)
    inst = _integer_instance(rng, 12, 3)
    for rule in _rules(rng):
        build_tree(inst, rule)
    for rule in (MergeRule("convex_minmax", 0.5), MergeRule("power_average", 0.5)):
        with pytest.raises(AssertionError):
            _run(inst, rule, lambda *args: None)


@pytest.mark.parametrize("rule", [
    MergeRule("power_average", 1.4),
    MergeRule("sigma_power", 0.9, sigma=2),
    MergeRule("sigma_power", 1.6, sigma=3),
    MergeRule("sigma_linear", weights=(0.35, 0.65), sigma=2),
], ids=["power_average", "sigma_power2", "sigma_power3", "sigma_linear"])
def test_recorded_comparisons_favor_the_winner(rule):
    rng = np.random.default_rng(17)
    inst = euclidean_instance(rng, 9)
    tree, comps = record_comparisons(inst, rule)
    assert tree.fingerprint() == build_tree(inst, rule).fingerprint()
    assert comps
    # sigma_linear's equation is in theta, the first of the weights (theta, 1 - theta)
    x = rule.weights[0] / sum(rule.weights) if rule.family == "sigma_linear" else rule.alpha
    for cmp_ in comps:
        terms = cmp_.terms(rule)
        val = sum(c * x ** j * b ** x for c, b, j in terms)
        scale = sum(abs(c) * x ** j * b ** x for c, b, j in terms)
        assert val <= 1e-12 * scale
    if rule.family == "sigma_linear":
        wide = MergeRule("sigma_linear", weights=(0.2, 1.0, 0.7), sigma=3)
        with pytest.raises(DomainError):
            record_comparisons(inst, wide)[1][0].terms(wide)


def test_power_average_build_at_n200_stays_small():
    inst = euclidean_instance(np.random.default_rng(200), 200)
    tracemalloc.start()
    try:
        build_tree(inst, MergeRule("power_average", 1.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense tensor would need (2n-1)^2 * n(n-1)/2 * 8 bytes, about 24 GiB,
    # and two n x n float matrices of pairwise minima and maxima, which the
    # count families do not keep, would add 0.6 MiB to about 2.0 MiB
    assert peak < 4 * 2 ** 20


def test_collected_minmax_build_at_n300_keeps_slot_matrices():
    # the keys, minima, maxima and pair keys are n x n matrices over the
    # active slots; kept over node ids, (2n-1) x (2n-1) each, the same
    # build peaked at 13.35 MiB.  Few distinct distances keep the collector's
    # memo small, so the matrices dominate the peak
    rng = np.random.default_rng(300)
    inst = _integer_instance(rng, 300, 9)
    eqs = set()
    tracemalloc.start()
    try:
        _run(inst, MergeRule("convex_minmax", 0.4), _make_collector("convex_minmax", None, eqs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eqs
    assert peak < 13.35 / 2 * 2 ** 20


@pytest.mark.parametrize("rule", [MergeRule("power_average", 1.3),
                                  MergeRule("sigma_power", -0.7, sigma=2),
                                  MergeRule("sigma_linear", weights=(0.3, 0.7), sigma=2)])
def test_recorded_count_comparisons_take_min_and_max_from_the_multisets(rule):
    rng = np.random.default_rng(18)
    for inst in (euclidean_instance(rng, 9), _integer_instance(rng, 9, 3)):
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
