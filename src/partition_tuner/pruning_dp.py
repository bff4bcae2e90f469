"""Exact k-clustering extraction from a merge tree by dynamic programming.

The scoring rule is the center-based power sum: each cluster is charged
sum_q d(q, center)^p for its best member center, clusters add up, and the
score reports the 1/p-th root (for p = inf, the largest center distance,
with ties resolved through the full sorted list of per-cluster maxima).
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import (
    CenterOutsideCluster,
    DimensionMismatch,
    DomainError,
    KTooLarge,
    MissingGroundTruth,
    Overflow,
)
from .instances import ClusteringInstance
from .linkage import MergeTree

VARIANTS = ("fixed", "voronoi")


@dataclass(frozen=True)
class PruningRule:
    """Power-sum scoring rule; p in (0, inf]."""

    p: float

    def __post_init__(self):
        if not (self.p > 0):
            raise DomainError("pruning exponent must be positive")


@dataclass(frozen=True)
class Objective:
    """Evaluation objective for a pruning.

    kind "phi_p": sum over clusters of the 1/p-rooted center power sum.
    kind "psi_pow": the raw power sum (no root); at p = inf the largest
    center distance.  kind "gt_distance": normalized pair-counting distance
    to the instance's ground-truth labels (p unused).
    """

    kind: str
    p: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("phi_p", "psi_pow", "gt_distance"):
            raise DomainError(f"unknown objective kind {self.kind!r}")
        if self.kind != "gt_distance" and not (self.p and self.p > 0):
            raise DomainError("objective needs a positive exponent")


@dataclass
class PruningResult:
    clusters: List[np.ndarray]
    centers: List[int]
    score: float
    power_sum: float
    k: int
    variant: str


def _first_min(costs):
    return costs.index(min(costs))


def _prune(inst: ClusteringInstance, tree: MergeTree, k: int, zero, center_costs, add,
           choose):
    """The pruning recurrence, once, over a cost algebra.

    The 1-pruning of a node is its best center: center_costs(leaves) lists
    each member's cost as the center of the cluster `leaves`, an array of
    two or more leaves; a leaf is its own center at cost zero.  The
    k'-pruning of an inner node is its best split into an i'-pruning of the
    left child and a (k' - i')-pruning of the right child, whose costs
    combine as add(left, right).  choose(costs) returns the index of the
    best cost, the first minimum on ties.

    Returns (clusters, centers, cost, signature): the clusters ordered by
    smallest member with their centers, the root's k-pruning cost, and
    every choice made (each node's center, then each node's splits by k').
    """
    n = tree.n
    if n != inst.n:
        raise DimensionMismatch(f"tree has {n} leaves but the instance has {inst.n} points")
    if not isinstance(k, numbers.Integral) or isinstance(k, bool):
        raise DomainError(f"k = {k!r} is not an integer")
    if not (1 <= k <= n):
        raise KTooLarge(f"k = {k} outside 1..{n}")

    sig = [0] * n
    cent = list(range(n))
    # table[v] maps k' -> (cost, left-side count of the split; None for k' = 1)
    table = [{1: (zero, None)} for _ in range(n)]
    for leaves in tree.leaf_sets[n:]:
        costs = center_costs(np.array(leaves))
        ci = choose(costs)
        sig.append(ci)
        cent.append(leaves[ci])
        table.append({1: (costs[ci], None)})
    for v in range(n, 2 * n - 1):
        L, R = tree.children(v)
        sl, sr = len(tree.leaf_sets[L]), len(tree.leaf_sets[R])
        for kk in range(2, min(k, sl + sr) + 1):
            splits = range(max(1, kk - sr), min(sl, kk - 1) + 1)
            costs = [add(table[L][i][0], table[R][kk - i][0]) for i in splits]
            bi = choose(costs)
            sig.append(bi)
            table[v][kk] = (costs[bi], splits[bi])

    clusters: List[np.ndarray] = []
    centers: List[int] = []
    todo = [(tree.root, k)]
    while todo:
        v, kk = todo.pop()
        if kk == 1:
            clusters.append(np.array(tree.leaf_sets[v], dtype=int))
            centers.append(cent[v])
        else:
            i = table[v][kk][1]
            L, R = tree.children(v)
            todo += [(L, i), (R, kk - i)]
    order = np.argsort([c[0] for c in clusters])
    clusters = [clusters[i] for i in order]
    centers = [centers[i] for i in order]
    return clusters, centers, table[tree.root][k][0], tuple(sig)


def best_k_pruning(
    inst: ClusteringInstance,
    tree: MergeTree,
    k: int,
    rule: PruningRule,
    variant: str = "fixed",
) -> PruningResult:
    """Best k-cluster antichain of the tree under the rule, exactly.

    Cluster costs use finite-p power sums added across clusters (compared on
    p-th powers, so no roots are taken inside the DP); p = inf compares
    sorted lists of per-cluster maxima lexicographically.  Ties prefer
    smaller center ids and smaller left-side cluster counts.
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    p = rule.p
    D = inst.dist
    if math.isinf(p):
        zero = (0.0,)

        def center_costs(a):
            return [(m,) for m in D[a[:, None], a].max(axis=0).tolist()]

        def add(a, b):
            return tuple(sorted(a + b, reverse=True))

    else:
        zero = 0.0
        with np.errstate(over="ignore"):  # a power past the float range is an infinite cost
            Dp = D ** p

        def center_costs(a):
            return Dp[a[:, None], a].sum(axis=0).tolist()

        add = operator.add

    # so is a cluster's sum of powers past it; set only then, as an error state slows every ufunc
    over = math.isfinite(p) and not math.isfinite(float(Dp.max()) * inst.n)
    with np.errstate(over="ignore") if over else contextlib.nullcontext():
        clusters, centers, _, _ = _prune(inst, tree, k, zero, center_costs, add, _first_min)
    if variant == "voronoi":
        clusters, centers = voronoi_reassign(inst, clusters, centers)

    power_sum, score = _score(D, clusters, centers, p)
    return PruningResult(
        clusters=clusters,
        centers=centers,
        score=score,
        power_sum=power_sum,
        k=k,
        variant=variant,
    )


def _power_sum(D, clusters, centers, p):
    """Sum over clusters of sum_q d(q, center)^p; at p = inf the largest
    center distance."""
    if math.isinf(p):
        return max(float(D[cl, c].max()) for cl, c in zip(clusters, centers))
    total = 0.0
    with np.errstate(over="ignore"):
        for cl, c in zip(clusters, centers):
            total += float((D[cl, c] ** p).sum())
    return total


def _score(D, clusters, centers, p):
    power_sum = _power_sum(D, clusters, centers, p)
    return power_sum, power_sum if math.isinf(p) else power_sum ** (1.0 / p)


def voronoi_reassign(inst: ClusteringInstance, clusters, centers):
    """Reassign every point to its nearest center (ties to the smallest
    center id); empty clusters are dropped with their centers."""
    cs = sorted(centers)
    D = inst.dist[:, cs]
    pick = np.argmin(D, axis=1)
    new_clusters = []
    new_centers = []
    for j, c in enumerate(cs):
        members = np.flatnonzero(pick == j)
        if members.size:
            new_clusters.append(members)
            new_centers.append(c)
    order = np.argsort([cl[0] for cl in new_clusters])
    return [new_clusters[i] for i in order], [new_centers[i] for i in order]


def pair_distance(labels_a, labels_b) -> float:
    """Normalized pair-counting disagreement between two labelings."""
    a = np.asarray(labels_a, dtype=int)
    b = np.asarray(labels_b, dtype=int)
    if a.shape != b.shape:
        raise DomainError("labelings must have equal length")
    n = a.size
    if n < 2:
        return 0.0

    def pairs(x):
        _, counts = np.unique(x, return_counts=True)
        return float((counts * (counts - 1) // 2).sum())

    joint = a.astype(np.int64) * (b.max() + 1) + b
    both = pairs(joint)
    total = n * (n - 1) / 2.0
    return (pairs(a) + pairs(b) - 2.0 * both) / total


def clusters_to_labels(n: int, clusters) -> np.ndarray:
    labels = np.full(n, -1, dtype=int)
    for j, cl in enumerate(clusters):
        labels[cl] = j
    if np.any(labels < 0):
        raise DomainError("clusters do not cover all points")
    return labels


def objective_value(
    inst: ClusteringInstance, obj: Objective, clusters, centers
) -> float:
    """Evaluate an objective on a concrete clustering.

    Clusters are processed in order of their smallest member and members in
    increasing id order, so equal clusterings produce bitwise-equal sums.
    """
    order = np.argsort([int(np.min(c)) for c in clusters])
    clusters = [np.sort(np.asarray(clusters[i], dtype=int)) for i in order]
    centers = [centers[i] for i in order]
    for cl, c in zip(clusters, centers):
        if c not in cl:
            raise CenterOutsideCluster(f"center {c} not a member of its cluster")

    if obj.kind == "gt_distance":
        if inst.ground_truth is None:
            raise MissingGroundTruth("instance has no ground-truth labels")
        return pair_distance(clusters_to_labels(inst.n, clusters), inst.ground_truth)

    D = inst.dist
    p = obj.p
    if obj.kind == "phi_p":
        if math.isinf(p):
            return float(sum(float(D[cl, c].max()) for cl, c in zip(clusters, centers)))
        total = 0.0
        with np.errstate(over="ignore"):
            for cl, c in zip(clusters, centers):
                total += float((D[cl, c] ** p).sum()) ** (1.0 / p)
        return total
    # psi_pow: raw power sum, or the largest center distance at p = inf
    return _power_sum(D, clusters, centers, p)


# ---------------------------------------------------------------------------
# exponent-sweep support: the same DP carried with distance-count vectors so
# every executed decision yields an equation in p.


def dp_with_comparisons(inst: ClusteringInstance, tree: MergeTree, k: int, p: float):
    """Run the finite-p DP tracking count vectors over distinct distances.

    Returns (result, comparisons, signature) where comparisons is a list of
    (coeffs, values) pairs: sum_t coeffs[t] * values[t]^p is the winning
    choice's cost minus one alternative's (negative at the probe p), over
    the distinct distances whose counts differ; signature records every
    choice made (for piecewise-constancy detection).
    """
    if math.isinf(p):
        raise DomainError("comparison tracking needs finite p")
    # Each off-diagonal entry gets its own exact index: a near-symmetric D
    # may hold lower-triangle values found nowhere in the upper triangle.
    off_diag = ~np.eye(inst.n, dtype=bool)
    distinct, inverse = np.unique(inst.dist[off_diag], return_inverse=True)
    with np.errstate(over="ignore"):
        pw = distinct ** p
    if pw.size and pw[-1] == math.inf:  # costs with an inf power compare as inf or NaN
        raise Overflow(f"distance {distinct[-1]:g} to the power {p:g} exceeds the float range")
    idx = np.zeros((inst.n, inst.n), dtype=np.intp)
    idx[off_diag] = inverse
    comparisons = []

    def center_costs(a):
        # row c counts the distances d(q, c) of the other members q
        off = ~np.eye(a.size, dtype=bool)
        vecs = np.zeros((a.size, distinct.size))
        np.add.at(vecs, (np.nonzero(off)[1], idx[a[:, None], a][off]), 1.0)
        return list(vecs)

    def choose(vecs):
        best = int(np.argmin([float(vec @ pw) for vec in vecs]))
        for j, vec in enumerate(vecs):
            if j != best:
                diff = vecs[best] - vec
                nz = np.flatnonzero(diff)
                if nz.size:
                    comparisons.append((diff[nz], distinct[nz]))
        return best

    clusters, centers, vec, sig = _prune(inst, tree, k, np.zeros(distinct.size), center_costs,
                                         operator.add, choose)
    power_sum = float(vec @ pw)
    result = PruningResult(
        clusters=clusters,
        centers=centers,
        score=power_sum ** (1.0 / p),
        power_sum=power_sum,
        k=k,
        variant="fixed",
    )
    return result, comparisons, sig
