"""Parameterized agglomerative merge rules and tree construction.

Merge values for the power families are compared through their logarithms so
that small exponents (where the raw values blow up like 2^(1/alpha)) stay
well ordered; reported merge values exponentiate back and may overflow to inf
without affecting the tree.

The families that read the whole multiset of cross-cluster distances
(power_average and the selector families) keep each active pair's multiset
sparse, as a support of indices into the instance's sorted distinct
distances with integer counts.  Each leaf pair lies in at most one active
pair's multiset, so all multisets together hold at most n(n-1)/2 counts.
The merge loop keeps its matrices (keys, pairwise minima and maxima, pair
keys) over the slots of the active clusters, n x n each, and a merge moves
the last slot into a freed one, so a build needs O(n^2) memory and a step
reads contiguous slices.
"""

from __future__ import annotations

import itertools
import numbers
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NonFiniteDistance, NonPositiveDistance, UnknownFamily
from .instances import ClusteringInstance

FAMILIES = (
    "convex_minmax",
    "power_minmax",
    "power_average",
    "sigma_linear",
    "sigma_power",
)

_NEEDS_COUNTS = ("power_average", "sigma_linear", "sigma_power")


@dataclass(frozen=True)
class MergeRule:
    """A fully instantiated merge-value rule.

    alpha parameterizes the three scalar families; sigma_linear takes a
    weight vector over the sigma selected order statistics instead.
    """

    family: str
    alpha: Optional[float] = None
    weights: Optional[tuple] = None
    sigma: Optional[int] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnknownFamily(f"unknown merge family {self.family!r}")
        if self.sigma is not None and (isinstance(self.sigma, bool)
                                       or not isinstance(self.sigma, numbers.Integral)):
            raise DomainError(f"sigma = {self.sigma!r} is not an integer")
        if self.alpha is not None and np.isnan(self.alpha):
            raise DomainError(f"{self.family} needs a number for alpha, not NaN")
        if self.family == "convex_minmax":
            if self.alpha is None or not (0.0 <= self.alpha <= 1.0):
                raise DomainError("convex_minmax needs alpha in [0, 1]")
        elif self.family == "power_minmax":
            if self.alpha is None or self.alpha == 0.0:
                raise DomainError("power_minmax needs nonzero alpha")
        elif self.family == "power_average":
            if self.alpha is None:
                raise DomainError("power_average needs alpha (0 means geometric mean)")
        elif self.family == "sigma_linear":
            if self.weights is None or self.sigma is None:
                raise DomainError("sigma_linear needs sigma and a weight tuple")
            if len(self.weights) != self.sigma or self.sigma < 2:
                raise DomainError("weight count must equal sigma >= 2")
            if not all(0 <= w < np.inf for w in self.weights) or not any(self.weights):
                raise DomainError("weights must be finite and nonnegative, not all zero")
        elif self.family == "sigma_power":
            if self.alpha is None or self.alpha == 0.0 or self.sigma is None:
                raise DomainError("sigma_power needs nonzero alpha and sigma >= 2")
            if self.sigma < 2:
                raise DomainError("sigma_power needs sigma >= 2")


def selector_indices(length, sigma: int) -> np.ndarray:
    """Positions of the sigma selected order statistics in a sorted length-L multiset.

    Always includes the minimum and maximum; the remaining sigma - 2 are
    evenly spaced ranks, j -> round(j * (L-1) / (sigma-1)).  An array of
    lengths gives one row of positions per length.
    """
    j = np.arange(sigma)
    return np.rint(j * (np.asarray(length)[..., None] - 1) / (sigma - 1)).astype(int)


def _selection(idx, cnt, starts, tot, sigma):
    """Distinct-distance indices of the sigma selected order statistics of
    each multiset p = (idx, cnt)[starts[p]:starts[p+1]], of tot[p] counts,
    one row each; exact, as cumulative counts are integers."""
    cum = np.cumsum(cnt)
    before = cum[starts] - cnt[starts]
    return idx[np.searchsorted(cum, before[:, None] + selector_indices(tot, sigma) + 1)]


def rule_value(rule: MergeRule, dists) -> float:
    """Merge value of one candidate pair given its full inter-set distance
    multiset.  It runs the merge loop's own keys on the multiset as one
    sparse support, so it equals build_tree's value for a merge with these
    cross distances bit for bit.  Like ClusteringInstance, it refuses no
    distances (DomainError), NaN or inf (NonFiniteDistance) and distances
    <= 0 (NonPositiveDistance)."""
    d = np.asarray(dists, dtype=float).ravel()
    if d.size == 0:
        raise DomainError("a merge value needs at least one distance")
    if not np.isfinite(d).all():
        raise NonFiniteDistance("distances hold NaN or infinite entries")
    if d.min() <= 0.0:
        raise NonPositiveDistance("distances must be strictly positive")
    if _counts_needed(rule):
        distinct, cnt = np.unique(d, return_counts=True)
        start = np.zeros(1, dtype=np.int64)
        key = _count_keys(rule, np.arange(distinct.size), cnt, start, np.log(distinct), distinct)
    else:
        key = _minmax_keys(rule, d.min(keepdims=True), d.max(keepdims=True))
    return _key_values(rule, key)[0]


def _key_values(rule: MergeRule, keys) -> list:
    """Merge values from their comparison keys, the logs of the values for
    the power forms (which may overflow to inf), as floats."""
    if rule.family in ("convex_minmax", "sigma_linear"):
        return np.asarray(keys, dtype=float).tolist()
    with np.errstate(over="ignore"):
        return np.exp(keys, dtype=float).tolist()


@dataclass
class MergeTree:
    """Result of a full agglomerative run.

    Leaves are nodes 0..n-1; merge step t creates node n+t joining
    merges[t] = (left, right).  values[t] is the winning merge value.
    leaf_sets[v] lists the leaves under node v in increasing order.
    """

    n: int
    merges: list
    values: list
    leaf_sets: list

    @property
    def root(self) -> int:
        return 2 * self.n - 2

    def children(self, v: int):
        if v < self.n:
            return None
        return self.merges[v - self.n]

    def fingerprint(self):
        """Hierarchy identity: the set of internal-node leaf sets."""
        return frozenset(tuple(self.leaf_sets[v]) for v in range(self.n, 2 * self.n - 1))


@dataclass
class Comparison:
    """One executed decision: the winning pair against one losing candidate.

    Each side is summarized by the data its family's value depends on: the
    (min, max) of the inter-set distances plus, when needed, the multiset as
    a sparse support (idx, cnt): indices into the instance's sorted distinct
    distances and their counts.  ``terms`` encodes it for every family.
    """

    step: int
    winner: tuple
    candidate: tuple
    winner_min: float
    winner_max: float
    candidate_min: float
    candidate_max: float
    winner_counts: Optional[tuple] = None
    candidate_counts: Optional[tuple] = None
    distinct: Optional[np.ndarray] = None

    def terms(self, rule: MergeRule):
        """The comparison's equation in the rule's family parameter, as
        comparison_terms gives it (sigma_linear's in theta, at sigma = 2)."""
        return comparison_terms(
            rule.family, self.winner_min, self.winner_max, self.candidate_min,
            self.candidate_max, self.winner_counts, self.candidate_counts, self.distinct,
            rule.sigma)


def comparison_terms(family, wmin, wmax, cmin, cmax, wcounts=None, ccounts=None,
                     distinct=None, sigma=None):
    """Coefficient triples (coeff, base, degree) of the winner-minus-candidate
    equation of one comparison in the family parameter, count_terms' by
    ascending base, then degree; [] is identically zero.  The min/max
    families read the (min, max) distances, the count families the sparse
    multisets (idx, cnt) into distinct."""
    if family in ("convex_minmax", "power_minmax"):
        distinct, at = np.unique(np.array([wmin, wmax, cmin, cmax], dtype=float),
                                 return_inverse=True)
        wcounts, ccounts = (at[:2], np.ones(2)), (at[2:], np.ones(2))
    elif family not in _NEEDS_COUNTS:
        raise UnknownFamily(f"no comparison encoding for family {family!r}")
    elif wcounts is None or ccounts is None or distinct is None:
        raise DomainError(f"{family} comparisons need distance counts")
    _, *terms = count_terms(family, (*wcounts, [wcounts[0].size]),
                            (*ccounts, [ccounts[0].size]), distinct, sigma)
    return list(zip(*(t.tolist() for t in terms)))


def count_terms(family, wsets, csets, distinct, sigma=None):
    """Terms of comparisons in one pass: pair p compares the winner multiset
    p of wsets with the candidate multiset p of csets, both laid end to end
    as (idx, cnt, sizes), as PairMultisets.supports (or, for the min/max
    families, PairKeys.supports) gives them.  Returns arrays (pair, coeff,
    base, degree) by pair, base, degree.  power_average's coefficients are
    n_c w_t - n_w c_t, sigma_power's (power_minmax's) +1 per selected winner
    index (winner end) and -1 per candidate one: exact integers, zeros
    dropped.  convex_minmax and sigma_linear (sigma = 2, in theta of the
    weights (theta, 1 - theta)) are affine in the weight of the minimum:
    (d2, 1, 0) and (slope, 1, 1) for the differences d1, d2 of the minima
    and of the maxima, none where both are 0; the slope is d1 - d2, or
    (wmin - wmax) - (cmin - cmax) for convex_minmax."""
    if family == "sigma_linear" and sigma != 2:
        raise DomainError("sigma_linear comparisons are equations in theta at sigma = 2 only")
    if family == "sigma_power" and sigma is None:
        raise DomainError("sigma_power comparisons need sigma")
    (wi, wc, wn), (ci, cc, cn) = wsets, csets
    ws, cs = np.cumsum(wn) - wn, np.cumsum(cn) - cn
    rows = np.arange(len(wn))
    if family == "power_average":
        nw, nc = np.add.reduceat(wc, ws), np.add.reduceat(cc, cs)
        pair = np.concatenate((np.repeat(rows, wn), np.repeat(rows, cn)))
        t = np.concatenate((wi, ci))
        coeff = np.concatenate((np.repeat(nc, wn) * wc, -np.repeat(nw, cn) * cc))
    else:
        if family == "sigma_power":
            wsel = _selection(wi, wc, ws, np.add.reduceat(wc, ws), sigma)
            csel = _selection(ci, cc, cs, np.add.reduceat(cc, cs), sigma)
        else:  # the minimum and the maximum, sigma_linear's two order statistics
            wsel = np.column_stack((wi[ws], wi[ws + wn - 1]))
            csel = np.column_stack((ci[cs], ci[cs + cn - 1]))
        if family in ("convex_minmax", "sigma_linear"):
            (wmin, wmax), (cmin, cmax) = distinct[wsel].T, distinct[csel].T
            d1, d2 = wmin - cmin, wmax - cmax
            slope = (wmin - wmax) - (cmin - cmax) if family == "convex_minmax" else d1 - d2
            pair = ((d1 != 0) | (d2 != 0)).nonzero()[0]
            coeff = np.column_stack((d2[pair], slope[pair])).ravel()
            return np.repeat(pair, 2), coeff, np.ones(coeff.size), np.tile([0, 1], pair.size)
        pair = np.tile(np.repeat(rows, wsel.shape[1]), 2)
        t = np.concatenate((wsel.ravel(), csel.ravel()))
        coeff = np.repeat([1.0, -1.0], wsel.size)
    beta = distinct.size
    code, at = np.unique(pair * beta + t, return_inverse=True)
    coeff = np.bincount(at, coeff)
    pair, t = np.divmod(code[coeff != 0], beta)
    return pair, coeff[coeff != 0], distinct[t], np.zeros(pair.size, dtype=np.int64)


def build_tree(inst: ClusteringInstance, rule: MergeRule) -> MergeTree:
    """Run the agglomerative merge loop to a single root.

    Ties on the merge value pick the pair whose (smaller side min leaf,
    other side min leaf) is lexicographically least, with the side holding
    the globally smallest leaf listed first in the merge record.  The loop
    keeps its matrices over the active clusters' slots, n x n each (see
    ``_run``), so memory is O(n^2) for every family.  A step on m clusters
    costs O(m), plus O(m) per row whose minimum it retires: O(n^2) time per
    build on typical inputs, O(n^3) at worst.  A count-family merge that
    makes a cluster of s leaves also recounts its s (n - s) leaf pairs.
    """
    return _run(inst, rule)


def record_comparisons(inst: ClusteringInstance, rule: MergeRule):
    """Like build_tree but also returns every executed winner-vs-candidate
    comparison (one Comparison per losing candidate pair per step, in order
    of node ids), whose ``terms`` give its equation for every family
    (sigma_linear's in theta, at sigma = 2).  Each pair's (min, max) and
    multiset come from the build's pair store (see PairKeys.pair)."""
    comparisons = []
    counts = _counts_needed(rule)

    def record(step, winner, ids, sets):
        si, sj = winner
        wmin, wmax, wset = sets.pair(sets.sid[si, sj])
        for u, v in itertools.combinations(ids.argsort().tolist(), 2):
            if {u, v} == {si, sj}:
                continue
            cmin, cmax, cset = sets.pair(sets.sid[u, v])
            comparisons.append(
                Comparison(
                    step=step,
                    winner=(ids[si], ids[sj]),
                    candidate=(ids[u], ids[v]),
                    winner_min=wmin,
                    winner_max=wmax,
                    candidate_min=cmin,
                    candidate_max=cmax,
                    winner_counts=wset,
                    candidate_counts=cset,
                    distinct=sets.distinct if counts else None,
                )
            )

    return _run(inst, rule, record), comparisons


def distance_table(D: np.ndarray):
    """The sorted distinct upper-triangle distances of D, each upper entry's index
    among them, and each leaf pair's, mirrored (D may be symmetric only to rounding)."""
    n = D.shape[0]
    upper = ~np.tri(n, dtype=bool)
    distinct, inv = np.unique(D[upper], return_inverse=True)
    didx = np.zeros((n, n), dtype=np.int64)
    didx[upper] = inv
    didx.T[upper] = inv
    return distinct, inv, didx


class PairKeys:
    """Counted integer keys of the active cluster pairs of one tree build.

    ``sid[u, v]`` is the key of the pair of active slots u and v (see
    ``_run``): here its code i_min * beta + i_max, the indices of its
    (min, max) distances among the beta sorted distinct upper-triangle
    distances ``distinct``, so a code is its own id; PairMultisets interns
    its keys to ids.  ``_refs`` counts the active pairs that hold each key
    and drops a key once none does, so the live keys (``live()``) are
    exactly the distinct keys among the active pairs: one merge step's
    candidates.  ``_run`` keeps them current through the O(m) pairs each
    merge retires and creates.  ``memo`` holds a collector's memo for this
    build.  Without ``interned`` (a plain build) nothing is interned.
    """

    def __init__(self, D: np.ndarray, interned: bool = True, table=None):
        self.distinct, inv, self.didx = distance_table(D) if table is None else table
        self.beta = self.distinct.size
        self.sid = None
        if interned:
            leaf = self._leaf_keys()  # the key of a leaf pair at distance t
            self.sid = leaf[self.didx]
            np.fill_diagonal(self.sid, -1)
            self._refs = dict(zip(leaf.tolist(), np.bincount(inv).tolist()))
            self.memo = {}, {}

    def _leaf_keys(self):
        return np.arange(self.beta, dtype=np.int64) * (self.beta + 1)

    def codes(self, mn, mx):
        """The codes of pairs whose (min, max) are mn, mx, distances of D."""
        return self.distinct.searchsorted(mn) * self.beta + self.distinct.searchsorted(mx)

    def supports(self, codes):
        """The (min, max) of each pair with a key in codes as a two-point
        support, laid end to end as PairMultisets.supports lays out
        multisets: idx, cnt and their sizes."""
        idx = np.column_stack(np.divmod(np.asarray(codes, dtype=np.int64), self.beta)).ravel()
        return idx, np.ones(idx.size, dtype=np.int64), np.full(len(codes), 2)

    def pair(self, s):
        """The (min, max) distances of the pairs with key s, and no multiset."""
        return (*self.distinct[list(divmod(s, self.beta))].tolist(), None)

    def live(self):
        """The distinct keys of the active pairs, as a set-like view."""
        return self._refs.keys()

    def replace(self, si, sj, m, row):
        """Retire the pairs of slots si and sj among the m active slots, move
        slot m - 1 into max(si, sj), and give the pairs of the new cluster,
        in slot a = min(si, sj), the keys row (by slot after the move).
        The diagonal holds -1, which is no key.  Python-level work is per
        distinct key; the per-pair counting runs inside Counter."""
        sid, refs = self.sid, self._refs
        a = min(si, sj)
        row[a] = -1
        made = Counter(row.tolist())
        gone = Counter(np.concatenate((sid[si, :m], sid[sj, :m])).tolist())
        gone[int(sid[si, sj])] -= 1  # both rows hold the pair of si and sj
        del made[-1], gone[-1]
        for s, c in made.items():
            refs[s] = refs.get(s, 0) + c
        _place(sid, a, max(si, sj), m - 1, row)
        for s, c in gone.items():
            refs[s] -= c
            if not refs[s]:
                del refs[s]


class MultisetIds:
    """One instance's multiset ids for a whole sweep: ``index`` maps a key
    (idx bytes, then cnt bytes) to its id, ``keys`` an id to its key.  No id
    is reused, and id t < beta is the leaf pairs' {t: 1}."""

    def __init__(self, beta):
        one = np.ones(1, dtype=np.int64).tobytes()
        self.keys = [t.tobytes() + one for t in np.arange(beta, dtype=np.int64)]
        self.index = dict(zip(self.keys, range(beta)))


class PairMultisets(PairKeys):
    """Distance multisets of the active cluster pairs of one tree build.

    A multiset is a support sorted by distinct-distance index, with integer
    counts: (idx, cnt).  Interned, ``sid[u, v]`` is its id in ``ids``, a
    MultisetIds that a sweep keeps for the instance and a lone build makes
    for itself, so ids compare multisets by value; the active pairs hold at
    most the n(n-1)/2 leaf-pair counts.  Without interning, merges only
    hand back the new multisets, which is all a plain build reads.
    """

    def __init__(self, D: np.ndarray, interned: bool, table=None, ids=None):
        self.ids = ids
        super().__init__(D, interned, table)
        self.label = np.arange(D.shape[0])  # leaf -> slot of the cluster holding it

    def _leaf_keys(self):
        if self.ids is None:
            self.ids = MultisetIds(self.beta)
        self.keys, self._index = self.ids.keys, self.ids.index
        return np.arange(self.beta, dtype=np.int64)

    def support(self, s):
        """The multiset with id s as (idx, cnt)."""
        both = np.frombuffer(self.keys[s], dtype=np.int64)
        return both[:both.size // 2], both[both.size // 2:]

    def supports(self, ids):
        """The multisets with ids laid end to end: idx, cnt and their sizes."""
        keys = [self.keys[s] for s in ids]
        size = np.fromiter(map(len, keys), np.int64, len(keys)) // 16
        both = np.frombuffer(b"".join(keys), dtype=np.int64)
        first = np.repeat(np.tile([True, False], len(keys)), np.repeat(size, 2))
        return both[first], both[~first], size

    def pair(self, s):
        """The (min, max) of the pairs with id s, the ends of their multiset
        (the upper-triangle distances it counts), and the multiset."""
        idx, _ = support = self.support(s)
        return self.distinct[idx[0]], self.distinct[idx[-1]], support

    def _intern(self, keys):
        """The ids of keys, interning the keys not yet live."""
        index = self._index
        for key in dict.fromkeys(keys):
            if key not in index:
                index[key] = len(self.keys)
                self.keys.append(key)
        return np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))

    def merge(self, si, sj, m, members):
        """Build the multisets of the cluster of slots si and sj (the leaves
        in members) against each other active cluster, in one pass over the
        new cluster's leaves x the other leaves, after slot m - 1 moves into
        max(si, sj) and the new cluster takes slot a = min(si, sj).  Retire
        the pairs of si and sj.

        Returns them as one support sorted by (slot, distinct index): idx,
        cnt and the start of each slot's segment, slot a's left out.
        """
        a, label = min(si, sj), self.label
        label[label == m - 1] = max(si, sj)
        label[members] = a
        others = (label != a).nonzero()[0]
        code = (label[others] * self.beta + self.didx[np.asarray(members)[:, None], others]).ravel()
        code.sort()
        first = _run_starts(code)
        cnt = _sizes(first, code.size)
        seg, idx = np.divmod(code[first], self.beta)
        starts = _run_starts(seg)
        if self.sid is not None:
            bi, bc = idx.tobytes(), cnt.astype(np.int64).tobytes()
            bounds = (idx.itemsize * np.append(starts, idx.size)).tolist()
            keys = [bi[lo:hi] + bc[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            self.replace(si, sj, m, _widen(self._intern(keys), a, -1))
        return idx, cnt, starts


def _run_starts(x):
    """Where each run of equal entries of the nonempty sorted array x starts."""
    new = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=new[1:])
    return new.nonzero()[0]


def _sizes(starts, total):
    """The lengths of the segments of an array of length total that begin at starts."""
    return np.concatenate((starts[1:], [total])) - starts


def _widen(vec, a, x):
    """vec with x inserted at position a."""
    return np.concatenate((vec[:a], [x], vec[a:]))


def _place(M, a, b, last, row):
    """Move slot last of the square matrix M into slot b, then give slot a
    the entries row, in its row and its column."""
    M[b, :last + 1] = M[last, :last + 1]
    M[:last + 1, b] = M[:last + 1, last]
    M[a, :last] = row
    M[:last, a] = row


def _run(inst: ClusteringInstance, rule: MergeRule, collector=None, table=None,
         ids=None) -> MergeTree:
    """The merge loop behind build_tree and the sweeps.

    The m active clusters sit in slots 0..m-1, with node[s] the node id of
    slot s and minleaf[s] its least leaf.  Merging slots si and sj puts the
    new node in slot a = min(si, sj) and moves slot m - 1 into max(si, sj),
    so each matrix is n x n and a step reads and writes the slices [:m] of
    its rows and columns.  V holds the comparison keys.  Families that read
    whole multisets keep them in a PairMultisets store, with no count work
    for power_average at alpha = +-inf, which needs only the pairwise
    (min, max) distances: the matrices minD and maxD, kept for the min/max
    families alone and seeded with each leaf pair's upper-triangle distance
    in both orientations.  Before each merge, ``collector`` (when given) is
    called as collector(step, (si, sj), node[:m], sets), where sets is the
    pair store, whose ``sid`` holds the key of each pair of slots: a
    PairMultisets, or for the min/max families a PairKeys, which codes each
    new pair's (min, max) through np.searchsorted into its distinct
    distances.  Each merge updates the store through the O(m) pairs it
    retires and creates; a plain build interns nothing.  A sweep passes
    each instance's distance_table(inst.dist), made once, as table, and
    for the count families its MultisetIds as ids.

    rowmin[s] is the exact minimum of row s of V (Muellner's generic
    linkage, arXiv:1109.2378), so a step costs O(m).  Every pair of least
    value g joins two rows with rowmin g: the tie rule takes the tied row si
    of least minleaf, then its partner of value g with least minleaf.  V
    holds +inf on the diagonal, where minD and maxD hold 1, so the unread
    key of a merged slot's own entry stays finite.  A merge lowers rowmin to
    the new keys and rescans slots a and b and the rows whose minimum sat in
    the columns of si or sj, m entries each.
    """
    n, D, counts = inst.n, inst.dist, _counts_needed(rule)
    if counts:
        sets = PairMultisets(D, interned=collector is not None, table=table, ids=ids)
        distinct, logd = sets.distinct, np.log(sets.distinct)
        t = np.arange(sets.beta)
        single = _count_keys(rule, t, np.ones_like(t), t, logd, distinct)
    else:
        sets = None if collector is None else PairKeys(D, table=table)
        # each leaf pair's upper-triangle distance, in both orientations
        minD = np.where(np.tri(n, k=-1, dtype=bool), D.T, D)
        np.fill_diagonal(minD, 1.0)
        maxD = minD.copy()

    V = np.full((n, n), np.inf)
    # row by row, so that the leaf keys make no temporary quadratic in n
    for r in range(n - 1):
        d = D[r, r + 1:]
        key = single[sets.didx[r, r + 1:]] if counts else _minmax_keys(rule, d, d)
        V[r, r + 1:] = V[r + 1:, r] = key
    rowmin = V.min(axis=1)
    node, minleaf = np.arange(n), np.arange(n)
    leaf_sets = [[i] for i in range(n)] + [None] * (n - 1)
    merges, keys = [], []

    for step in range(n - 1):
        m = n - step
        low = rowmin[:m]
        g = low.min()
        tied = (low == g).nonzero()[0]
        if tied.size == 2:  # each row's minimum g sits in the other's column
            si, sj = sorted(tied.tolist(), key=minleaf.__getitem__)
        else:
            tied = tied[minleaf[tied].argsort()]
            si, others = tied[0], tied[1:]
            sj = others[V[si, others] == g][0]

        if collector is not None:
            collector(step, (si, sj), node[:m], sets)

        new = n + step
        wi, wj = node[si], node[sj]
        keys.append(g)
        merges.append((wi, wj))
        leaf_sets[new] = sorted(leaf_sets[wi] + leaf_sets[wj])
        if m == 2:
            break
        a, b, last = min(si, sj), max(si, sj), m - 1
        stale = rowmin[:m] == np.minimum(V[si, :m], V[sj, :m])
        if counts:
            key = _widen(_count_keys(rule, *sets.merge(si, sj, m, leaf_sets[new]), logd,
                                     distinct), a, np.inf)
        else:
            mn = np.minimum(minD[si, :m], minD[sj, :m])
            mx = np.maximum(maxD[si, :m], maxD[sj, :m])
            mn[b], mx[b] = mn[last], mx[last]
            mn, mx = mn[:last], mx[:last]
            if sets is not None:
                sets.replace(si, sj, m, sets.codes(mn, mx))
            _place(minD, a, b, last, mn)
            _place(maxD, a, b, last, mx)
            key = _minmax_keys(rule, mn, mx)
            key[a] = np.inf
        minleaf[a] = minleaf[si]
        node[b], minleaf[b] = node[last], minleaf[last]
        node[a] = new
        _place(V, a, b, last, key)
        np.minimum(rowmin[:last], key, out=rowmin[:last])
        # rows a and b among them, as rowmin[si] = rowmin[sj] = g
        rows = stale[:last].nonzero()[0]
        rowmin[rows] = V[rows, :last].min(axis=1)

    return MergeTree(n=n, merges=merges, values=_key_values(rule, keys), leaf_sets=leaf_sets)


def _counts_needed(rule: MergeRule) -> bool:
    if rule.family == "power_average":
        return not np.isinf(rule.alpha)
    return rule.family in _NEEDS_COUNTS


def _minmax_keys(rule, mn, mx):
    """Comparison keys from the pairwise (min, max) distances alone."""
    a = rule.alpha
    if rule.family == "convex_minmax":
        return a * mn + (1.0 - a) * mx
    if np.isinf(a):
        # the power forms degenerate to the extremes
        return np.log(mx if a > 0 else mn)
    return np.logaddexp(a * np.log(mn), a * np.log(mx)) / a


def _count_keys(rule, idx, cnt, starts, logd, distinct):
    """Comparison keys of a batch of sparse multisets, multiset p being
    (idx, cnt)[starts[p]:starts[p+1]], of indices into distinct (whose
    logs are logd).  Every reduction runs within one multiset, so equal
    multisets get bit-equal keys wherever they sit."""
    tot = np.add.reduceat(cnt, starts)
    if rule.family != "power_average":
        return _selector_keys(rule, idx, cnt, starts, tot, logd, distinct)
    a = rule.alpha
    if a == 0.0:
        return np.add.reduceat(cnt * logd[idx], starts) / tot
    terms = a * logd[idx] + np.log(cnt)
    top = np.maximum.reduceat(terms, starts)
    spread = np.exp(terms - top.repeat(_sizes(starts, terms.size)))
    return (top + np.log(np.add.reduceat(spread, starts)) - np.log(tot)) / a


def _selector_keys(rule, idx, cnt, starts, tot, logd, distinct):
    at = _selection(idx, cnt, starts, tot, rule.sigma)
    if rule.family == "sigma_linear":
        # the exact values, which the sweep equations weigh too
        return np.array([np.dot(rule.weights, row) for row in distinct[at]])
    sel = np.exp(logd[at])
    a = rule.alpha
    if np.isinf(a):
        return np.log(sel.max(axis=1) if a > 0 else sel.min(axis=1))
    x = a * np.log(sel)
    top = x.max(axis=1)
    with np.errstate(invalid="ignore"):
        lse = top + np.log(np.sum(np.exp(x - top[:, None]), axis=1))
    return np.where(np.isinf(top), top, lse) / a
