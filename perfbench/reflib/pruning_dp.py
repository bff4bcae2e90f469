"""Exact k-clustering extraction from a merge tree by dynamic programming.

The scoring rule is the center-based power sum: each cluster is charged
sum_q d(q, center)^p for its best member center, clusters add up, and the
score reports the 1/p-th root (for p = inf, the largest center distance,
with ties resolved through the full sorted list of per-cluster maxima).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import (
    CenterOutsideCluster,
    DomainError,
    KTooLarge,
    MissingGroundTruth,
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


def _center_costs(D: np.ndarray, leaves, p: float):
    """Cost of each member as center; returns (costs, order = leaves)."""
    sub = D[np.ix_(leaves, leaves)]
    if math.isinf(p):
        return sub.max(axis=0)
    return (sub ** p).sum(axis=0)


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
    n = inst.n
    if not (1 <= k <= n):
        raise KTooLarge(f"k = {k} outside 1..{n}")
    p = rule.p
    D = inst.dist
    finite = math.isfinite(p)

    nodes = range(2 * n - 1)
    cent = [None] * (2 * n - 1)
    base = [None] * (2 * n - 1)
    for v in nodes:
        leaves = tree.leaf_sets[v]
        costs = _center_costs(D, leaves, p)
        ci = int(np.argmin(costs))
        cent[v] = leaves[ci]
        base[v] = float(costs[ci]) if finite else (float(costs[ci]),)

    # table[v] maps k' -> (value, split) where split is the left-side count
    # (None for k' = 1); values are floats (finite p) or descending tuples.
    table = [dict() for _ in nodes]
    for v in nodes:
        size = len(tree.leaf_sets[v])
        table[v][1] = (base[v], None)
        ch = tree.children(v)
        if ch is None:
            continue
        L, R = ch
        sl, sr = len(tree.leaf_sets[L]), len(tree.leaf_sets[R])
        for kk in range(2, min(k, size) + 1):
            best = None
            arg = None
            for i in range(max(1, kk - sr), min(sl, kk - 1) + 1):
                lv = table[L].get(i)
                rv = table[R].get(kk - i)
                if lv is None or rv is None:
                    continue
                if finite:
                    val = lv[0] + rv[0]
                else:
                    val = tuple(sorted(lv[0] + rv[0], reverse=True))
                if best is None or val < best:
                    best = val
                    arg = i
            if best is not None:
                table[v][kk] = (best, arg)

    root = tree.root
    if k not in table[root]:
        raise KTooLarge(f"tree admits no {k}-antichain")

    clusters: List[np.ndarray] = []
    centers: List[int] = []

    def collect(v, kk):
        if kk == 1:
            clusters.append(np.array(tree.leaf_sets[v], dtype=int))
            centers.append(cent[v])
            return
        _, i = table[v][kk]
        L, R = tree.children(v)
        collect(L, i)
        collect(R, kk - i)

    collect(root, k)
    order = np.argsort([c[0] for c in clusters])
    clusters = [clusters[i] for i in order]
    centers = [centers[i] for i in order]

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


def _score(D, clusters, centers, p):
    if math.isinf(p):
        worst = max(
            float(D[cl, c].max()) for cl, c in zip(clusters, centers)
        )
        return worst, worst
    total = 0.0
    for cl, c in zip(clusters, centers):
        total += float((D[cl, c] ** p).sum())
    return total, total ** (1.0 / p)


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
        for cl, c in zip(clusters, centers):
            total += float((D[cl, c] ** p).sum()) ** (1.0 / p)
        return total
    # psi_pow: raw power sum, or the largest center distance at p = inf
    if math.isinf(p):
        return float(max(float(D[cl, c].max()) for cl, c in zip(clusters, centers)))
    total = 0.0
    for cl, c in zip(clusters, centers):
        total += float((D[cl, c] ** p).sum())
    return total


# ---------------------------------------------------------------------------
# exponent-sweep support: the same DP carried with distance-count vectors so
# every executed decision yields an equation in p.


def dp_with_comparisons(inst: ClusteringInstance, tree: MergeTree, k: int, p: float):
    """Run the finite-p DP tracking count vectors over distinct distances.

    Returns (result, comparisons, signature) where comparisons is a list of
    (coeffs, values) pairs: sum_t coeffs[t] * values[t]^p is the winning
    choice's cost minus one alternative's (negative at the probe p), and
    signature hashes every choice made (for piecewise-constancy detection).
    """
    if math.isinf(p):
        raise DomainError("comparison tracking needs finite p")
    n = inst.n
    if not (1 <= k <= n):
        raise KTooLarge(f"k = {k} outside 1..{n}")
    D = inst.dist
    iu = np.triu_indices(n, k=1)
    distinct = np.unique(D[iu])
    beta = distinct.size
    pw = distinct ** p

    comparisons = []
    sig = []

    def count_vec(dist_slice):
        idx = np.searchsorted(distinct, dist_slice)
        vec = np.zeros(beta)
        np.add.at(vec, idx, 1.0)
        return vec

    cent = [None] * (2 * n - 1)
    base_vec = [None] * (2 * n - 1)
    for v in range(2 * n - 1):
        leaves = tree.leaf_sets[v]
        vecs = []
        costs = []
        for c in leaves:
            others = [q for q in leaves if q != c]
            vec = count_vec(D[others, c]) if others else np.zeros(beta)
            vecs.append(vec)
            costs.append(float(vec @ pw))
        ci = int(np.argmin(costs))
        cent[v] = leaves[ci]
        base_vec[v] = vecs[ci]
        sig.append(ci)
        for j, vec in enumerate(vecs):
            if j != ci:
                diff = vecs[ci] - vec
                if np.any(diff):
                    comparisons.append((diff, distinct))

    table = [dict() for _ in range(2 * n - 1)]
    for v in range(2 * n - 1):
        size = len(tree.leaf_sets[v])
        table[v][1] = (base_vec[v], None)
        ch = tree.children(v)
        if ch is None:
            continue
        L, R = ch
        sl, sr = len(tree.leaf_sets[L]), len(tree.leaf_sets[R])
        for kk in range(2, min(k, size) + 1):
            cand = []
            for i in range(max(1, kk - sr), min(sl, kk - 1) + 1):
                lv = table[L].get(i)
                rv = table[R].get(kk - i)
                if lv is None or rv is None:
                    continue
                cand.append((i, lv[0] + rv[0]))
            if not cand:
                continue
            costs = [float(vec @ pw) for _, vec in cand]
            bi = int(np.argmin(costs))
            table[v][kk] = (cand[bi][1], cand[bi][0])
            sig.append(bi)
            for j, (_, vec) in enumerate(cand):
                if j != bi:
                    diff = cand[bi][1] - vec
                    if np.any(diff):
                        comparisons.append((diff, distinct))

    root = tree.root
    if k not in table[root]:
        raise KTooLarge(f"tree admits no {k}-antichain")

    clusters = []
    centers = []

    def collect(v, kk):
        if kk == 1:
            clusters.append(np.array(tree.leaf_sets[v], dtype=int))
            centers.append(cent[v])
            return
        _, i = table[v][kk]
        L, R = tree.children(v)
        collect(L, i)
        collect(R, kk - i)

    collect(root, k)
    order = np.argsort([c[0] for c in clusters])
    clusters = [clusters[i] for i in order]
    centers = [centers[i] for i in order]
    power_sum = float(table[root][k][0] @ pw)
    result = PruningResult(
        clusters=clusters,
        centers=centers,
        score=power_sum ** (1.0 / p),
        power_sum=power_sum,
        k=k,
        variant="fixed",
    )
    return result, comparisons, tuple(sig)
