"""Tree pruning DP, objectives, and partition distances."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_tuner import (
    CenterOutsideCluster,
    ClusteringInstance,
    DomainError,
    KTooLarge,
    MergeRule,
    MissingGroundTruth,
    Objective,
    Overflow,
    PruningRule,
    best_k_pruning,
    build_tree,
    clusters_to_labels,
    erm_joint,
    objective_value,
    pair_distance,
    voronoi_reassign,
)
from partition_tuner.pruning_dp import dp_with_comparisons
from conftest import (euclidean_instance, near_symmetric_instance, power_overflow_instance,
                      power_sum_overflow_instance)
from oracles import exhaustive_best_pruning, pair_counting_reference, random_instance


def _tree(inst, seed=0):
    rng = np.random.default_rng(seed)
    return build_tree(inst, MergeRule("power_average", float(rng.uniform(0.5, 2.0))))


# ---------------------------------------------------------------------------
# rule and objective domains


def test_pruning_rule_rejects_nonpositive_exponent():
    with pytest.raises(DomainError):
        PruningRule(p=0.0)
    with pytest.raises(DomainError):
        PruningRule(p=-1.0)
    PruningRule(p=math.inf)  # allowed


def test_objective_validation():
    with pytest.raises(DomainError):
        Objective(kind="entropy", p=1.0)
    with pytest.raises(DomainError):
        Objective(kind="phi_p", p=None)
    Objective(kind="gt_distance")  # p unused


# ---------------------------------------------------------------------------
# DP against full enumeration


def test_dp_matches_exhaustive_enumeration():
    rng = np.random.default_rng(52)
    for trial in range(40):
        inst = random_instance(rng)
        tree = _tree(inst, seed=trial)
        k = min(int(rng.integers(1, 5)), inst.n)
        p = [0.5, 1.0, 2.0, math.inf][int(rng.integers(4))]
        res = best_k_pruning(inst, tree, k, PruningRule(p=p))
        assert res.power_sum == exhaustive_best_pruning(inst, tree, k, p)


def test_pruning_result_is_partition():
    rng = np.random.default_rng(5)
    inst = euclidean_instance(rng, 11)
    tree = _tree(inst)
    for k in (1, 2, 4, 11):
        res = best_k_pruning(inst, tree, k, PruningRule(p=2.0))
        assert res.k == k
        assert len(res.clusters) == k
        all_members = np.sort(np.concatenate(res.clusters))
        assert np.array_equal(all_members, np.arange(inst.n))
        for cl, c in zip(res.clusters, res.centers):
            assert c in cl
        assert res.score == pytest.approx(res.power_sum ** 0.5)


def test_k_one_picks_best_single_center():
    rng = np.random.default_rng(6)
    inst = euclidean_instance(rng, 9)
    tree = _tree(inst)
    res = best_k_pruning(inst, tree, 1, PruningRule(p=1.0))
    direct = min((inst.dist[:, c].sum(), c) for c in range(inst.n))
    assert res.power_sum == pytest.approx(direct[0])


def test_k_equals_n_is_free():
    rng = np.random.default_rng(61)
    inst = euclidean_instance(rng, 7)
    tree = _tree(inst)
    res = best_k_pruning(inst, tree, 7, PruningRule(p=2.0))
    assert res.power_sum == 0.0
    assert all(len(cl) == 1 for cl in res.clusters)


def test_k_out_of_range():
    rng = np.random.default_rng(62)
    inst = euclidean_instance(rng, 5)
    tree = _tree(inst)
    with pytest.raises(KTooLarge):
        best_k_pruning(inst, tree, 6, PruningRule(p=1.0))
    with pytest.raises(KTooLarge):
        best_k_pruning(inst, tree, 0, PruningRule(p=1.0))


def test_infinite_p_scores_by_largest_radius():
    rng = np.random.default_rng(63)
    inst = euclidean_instance(rng, 10)
    tree = _tree(inst)
    res = best_k_pruning(inst, tree, 3, PruningRule(p=math.inf))
    worst = max(inst.dist[cl, c].max() for cl, c in zip(res.clusters, res.centers))
    assert res.score == worst == res.power_sum


def test_unknown_variant_rejected():
    rng = np.random.default_rng(64)
    inst = euclidean_instance(rng, 5)
    tree = _tree(inst)
    with pytest.raises(DomainError):
        best_k_pruning(inst, tree, 2, PruningRule(p=1.0), variant="nearest")


# ---------------------------------------------------------------------------
# voronoi variant


def test_voronoi_variant_reassigns_to_nearest_center():
    rng = np.random.default_rng(8)
    for _ in range(10):
        inst = euclidean_instance(rng, 10)
        tree = _tree(inst, seed=int(rng.integers(100)))
        res = best_k_pruning(inst, tree, 3, PruningRule(p=2.0), variant="voronoi")
        assert res.variant == "voronoi"
        cs = sorted(res.centers)
        for cl, c in zip(res.clusters, res.centers):
            for q in cl:
                dq = inst.dist[q, c]
                better = [c2 for c2 in cs if inst.dist[q, c2] < dq]
                assert not better
                # a tie only loses to a smaller center id
                ties = [c2 for c2 in cs if inst.dist[q, c2] == dq and c2 < c]
                assert not ties


def test_voronoi_reassign_drops_empty_clusters():
    D = np.array(
        [
            [0.0, 1.0, 1.0, 4.0],
            [1.0, 0.0, 1.0, 4.0],
            [1.0, 1.0, 0.0, 4.0],
            [4.0, 4.0, 4.0, 0.0],
        ]
    )
    inst = ClusteringInstance(n=4, dist=D)
    clusters = [np.array([0, 1, 2]), np.array([3])]
    new_c, new_cent = voronoi_reassign(inst, clusters, [1, 3])
    assert len(new_c) == 2
    assert sorted(new_cent) == [1, 3]
    # a duplicated center loses every tie to its twin and ends up empty
    new_c, new_cent = voronoi_reassign(inst, [np.array([0, 1]), np.array([2, 3])], [1, 1])
    assert len(new_c) == 1
    assert new_cent == [1]
    assert np.array_equal(new_c[0], np.arange(4))


# ---------------------------------------------------------------------------
# objectives


def test_phi_objective_roots_per_cluster():
    rng = np.random.default_rng(9)
    inst = euclidean_instance(rng, 9)
    tree = _tree(inst)
    res = best_k_pruning(inst, tree, 3, PruningRule(p=2.0))
    got = objective_value(inst, Objective(kind="phi_p", p=2.0), res.clusters, res.centers)
    want = sum(
        ((inst.dist[cl, c] ** 2.0).sum()) ** 0.5
        for cl, c in zip(res.clusters, res.centers)
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_psi_objective_is_raw_power_sum():
    rng = np.random.default_rng(10)
    inst = euclidean_instance(rng, 9)
    tree = _tree(inst)
    res = best_k_pruning(inst, tree, 3, PruningRule(p=1.5))
    got = objective_value(inst, Objective(kind="psi_pow", p=1.5), res.clusters, res.centers)
    assert got == pytest.approx(res.power_sum, rel=1e-12)


def test_objectives_at_infinite_p():
    rng = np.random.default_rng(12)
    inst = euclidean_instance(rng, 8)
    tree = _tree(inst)
    res = best_k_pruning(inst, tree, 3, PruningRule(p=math.inf))
    radii = [inst.dist[cl, c].max() for cl, c in zip(res.clusters, res.centers)]
    phi = objective_value(inst, Objective(kind="phi_p", p=math.inf), res.clusters, res.centers)
    psi = objective_value(inst, Objective(kind="psi_pow", p=math.inf), res.clusters, res.centers)
    assert phi == pytest.approx(sum(radii))
    assert psi == pytest.approx(max(radii))


def test_objective_value_order_invariant():
    rng = np.random.default_rng(13)
    inst = euclidean_instance(rng, 10)
    tree = _tree(inst)
    res = best_k_pruning(inst, tree, 4, PruningRule(p=2.0))
    obj = Objective(kind="phi_p", p=3.0)
    v1 = objective_value(inst, obj, res.clusters, res.centers)
    perm = [2, 0, 3, 1]
    v2 = objective_value(
        inst, obj, [res.clusters[i] for i in perm], [res.centers[i] for i in perm]
    )
    assert v1 == v2  # bitwise, by canonical ordering


def test_objective_rejects_external_center():
    inst = ClusteringInstance(n=3, dist=np.array(
        [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]]))
    with pytest.raises(CenterOutsideCluster):
        objective_value(inst, Objective(kind="phi_p", p=1.0), [np.array([0, 1])], [2])


def test_gt_distance_objective():
    D = np.ones((4, 4)) - np.eye(4)
    inst = ClusteringInstance(n=4, dist=D, ground_truth=np.array([0, 0, 1, 1]))
    obj = Objective(kind="gt_distance")
    clusters = [np.array([0, 1]), np.array([2, 3])]
    assert objective_value(inst, obj, clusters, [0, 2]) == 0.0
    off = [np.array([0, 2]), np.array([1, 3])]
    assert objective_value(inst, obj, off, [0, 1]) > 0.0
    bare = ClusteringInstance(n=4, dist=D)
    with pytest.raises(MissingGroundTruth):
        objective_value(bare, obj, clusters, [0, 2])


# ---------------------------------------------------------------------------
# pair counting and labels


@settings(max_examples=150, deadline=None)
@given(
    labels=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=25)
)
def test_pair_distance_matches_quadratic_count(labels):
    a = np.array([x for x, _ in labels])
    b = np.array([y for _, y in labels])
    assert pair_distance(a, b) == pair_counting_reference(a, b)


def test_pair_distance_basic_properties():
    a = np.array([0, 0, 1, 1, 2])
    b = np.array([1, 1, 0, 0, 5])
    assert pair_distance(a, a) == 0.0
    assert pair_distance(a, b) == 0.0  # same partition, renamed labels
    assert pair_distance(a, b) == pair_distance(b, a)
    with pytest.raises(DomainError):
        pair_distance(a, b[:-1])


def test_clusters_to_labels_round_trip():
    clusters = [np.array([0, 3]), np.array([1]), np.array([2, 4])]
    labels = clusters_to_labels(5, clusters)
    assert labels.tolist() == [0, 1, 2, 0, 2]
    with pytest.raises(DomainError):
        clusters_to_labels(6, clusters)


# ---------------------------------------------------------------------------
# the comparison-carrying DP variant


def test_dp_with_comparisons_matches_plain_dp():
    rng = np.random.default_rng(77)
    for trial in range(10):
        inst = random_instance(rng)
        tree = _tree(inst, seed=trial)
        k = min(3, inst.n)
        p = [0.7, 1.0, 2.3][trial % 3]
        plain = best_k_pruning(inst, tree, k, PruningRule(p=p))
        res, comps, sig = dp_with_comparisons(inst, tree, k, p)
        assert res.power_sum == pytest.approx(plain.power_sum, rel=1e-12)
        # every recorded comparison is non-positive at the probe exponent
        for coeffs, values in comps:
            delta = sum(c * v ** p for c, v in zip(coeffs, values))
            assert delta <= 1e-9


def test_dp_with_comparisons_on_near_symmetric_distances():
    inst = near_symmetric_instance()
    tree = _tree(inst)
    for p in (0.5, 1.0, 2.0, 7.0):
        plain = best_k_pruning(inst, tree, 2, PruningRule(p=p))
        res, _, _ = dp_with_comparisons(inst, tree, 2, p)
        assert [c.tolist() for c in res.clusters] == [c.tolist() for c in plain.clusters]
        assert res.centers == plain.centers
    res = erm_joint([inst], "convex_minmax", (0.0, 1.0), (1.0, 3.0), 2, Objective("phi_p", 2.0))
    assert res.instances_evaluated > 0


def test_dp_with_comparisons_refuses_a_power_that_overflows():
    # 1e150 ** 3 is inf, so costs holding it compared as inf or NaN and the
    # DP chose centers [0, 2] with power sum NaN
    inst = power_overflow_instance()
    tree = build_tree(inst, MergeRule("convex_minmax", alpha=0.5))
    plain = best_k_pruning(inst, tree, 2, PruningRule(p=3.0))
    assert (plain.centers, plain.power_sum) == ([1, 2], 9.0)
    with pytest.raises(Overflow):
        dp_with_comparisons(inst, tree, 2, 3.0)
    res, _, _ = dp_with_comparisons(inst, tree, 2, 2.0)
    assert res.centers == best_k_pruning(inst, tree, 2, PruningRule(p=2.0)).centers


def test_best_k_pruning_reaches_an_infinite_cost_without_a_warning():
    # each power is finite, but a cluster's sum of them is an infinite cost
    inst = power_sum_overflow_instance()
    tree = build_tree(inst, MergeRule("convex_minmax", alpha=0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = best_k_pruning(inst, tree, 1, PruningRule(p=2.0))
    assert (res.centers, res.power_sum, res.score) == ([0], math.inf, math.inf)


def test_dp_with_comparisons_needs_finite_p():
    rng = np.random.default_rng(78)
    inst = euclidean_instance(rng, 6)
    tree = _tree(inst)
    with pytest.raises(DomainError):
        dp_with_comparisons(inst, tree, 2, math.inf)
