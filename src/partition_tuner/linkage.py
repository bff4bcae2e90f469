"""Parameterized agglomerative merge rules and tree construction.

Merge values for the power families are compared through their logarithms so
that small exponents (where the raw values blow up like 2^(1/alpha)) stay
well ordered; reported merge values exponentiate back and may overflow to inf
without affecting the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, UnknownFamily
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
            if any(w < 0 for w in self.weights) or all(w == 0 for w in self.weights):
                raise DomainError("weights must be nonnegative, not all zero")
        elif self.family == "sigma_power":
            if self.alpha is None or self.alpha == 0.0 or self.sigma is None:
                raise DomainError("sigma_power needs nonzero alpha and sigma >= 2")
            if self.sigma < 2:
                raise DomainError("sigma_power needs sigma >= 2")


def selector_indices(length: int, sigma: int) -> np.ndarray:
    """Positions of the sigma selected order statistics in a sorted length-L multiset.

    Always includes the minimum and maximum; the remaining sigma - 2 are
    evenly spaced ranks, j -> round(j * (L-1) / (sigma-1)).
    """
    j = np.arange(sigma)
    return np.rint(j * (length - 1) / (sigma - 1)).astype(int)


def rule_value(rule: MergeRule, dists) -> float:
    """Merge value of one candidate pair given its full inter-set distance multiset."""
    d = np.asarray(dists, dtype=float)
    key = _value_key(rule, d)
    if rule.family in ("convex_minmax", "sigma_linear"):
        return float(key)
    return float(np.exp(key))


def _value_key(rule: MergeRule, d: np.ndarray) -> float:
    """Order-isomorphic comparison key (log of the value for power forms)."""
    fam = rule.family
    if fam == "convex_minmax":
        return rule.alpha * d.min() + (1.0 - rule.alpha) * d.max()
    if fam == "power_minmax":
        a = rule.alpha
        if np.isinf(a):
            return float(np.log(d.max() if a > 0 else d.min()))
        ld = np.log([d.min(), d.max()])
        return _logsumexp(a * ld) / a
    if fam == "power_average":
        a = rule.alpha
        if np.isinf(a):
            return float(np.log(d.max() if a > 0 else d.min()))
        ld = np.log(d)
        if a == 0.0:
            return float(np.mean(ld))
        return (_logsumexp(a * ld) - np.log(d.size)) / a
    sel = np.sort(d)[selector_indices(d.size, rule.sigma)]
    if fam == "sigma_linear":
        return float(np.dot(rule.weights, sel))
    a = rule.alpha
    if np.isinf(a):
        return float(np.log(sel.max() if a > 0 else sel.min()))
    return _logsumexp(a * np.log(sel)) / a


def _logsumexp(x):
    x = np.asarray(x, dtype=float)
    m = np.max(x)
    if np.isinf(m):
        return m
    return m + np.log(np.sum(np.exp(x - m)))


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
    counts over the instance's sorted distinct distances.
    """

    step: int
    winner: tuple
    candidate: tuple
    winner_min: float
    winner_max: float
    candidate_min: float
    candidate_max: float
    winner_counts: Optional[np.ndarray] = None
    candidate_counts: Optional[np.ndarray] = None
    distinct: Optional[np.ndarray] = None

    def terms(self, rule: MergeRule):
        """Coefficient triples (coeff, base, degree) of the winner-minus-candidate
        equation as a function of the family parameter; the equation's sign is
        scale-free (cross-multiplied where the family normalizes by count)."""
        return comparison_terms(
            rule.family,
            self.winner_min,
            self.winner_max,
            self.candidate_min,
            self.candidate_max,
            self.winner_counts,
            self.candidate_counts,
            self.distinct,
        )


def comparison_terms(
    family,
    wmin,
    wmax,
    cmin,
    cmax,
    wcounts=None,
    ccounts=None,
    distinct=None,
):
    if family == "convex_minmax":
        # (a*wmin + (1-a)*wmax) - (a*cmin + (1-a)*cmax), affine in a
        slope = (wmin - wmax) - (cmin - cmax)
        const = wmax - cmax
        return [(slope, 1.0, 1), (const, 1.0, 0)]
    if family == "power_minmax":
        # sign matches for alpha > 0; the sweep handles each sign side separately
        out = []
        for b, s in ((wmin, 1.0), (wmax, 1.0), (cmin, -1.0), (cmax, -1.0)):
            out.append((s, float(b), 0))
        return _combine(out)
    if family == "power_average":
        if wcounts is None or ccounts is None or distinct is None:
            raise DomainError("power_average comparisons need distance counts")
        nw = float(wcounts.sum())
        nc = float(ccounts.sum())
        out = []
        for b, cw, cc in zip(distinct, wcounts, ccounts):
            coeff = nc * float(cw) - nw * float(cc)
            if coeff != 0.0:
                out.append((coeff, float(b), 0))
        return out
    raise UnknownFamily(f"no comparison encoding for family {family!r}")


def _combine(terms):
    acc = {}
    for a, b, j in terms:
        acc[(b, j)] = acc.get((b, j), 0.0) + a
    return [(a, b, j) for (b, j), a in acc.items() if a != 0.0]


def build_tree(inst: ClusteringInstance, rule: MergeRule) -> MergeTree:
    """Run the agglomerative merge loop to a single root.

    Ties on the merge value pick the pair whose (smaller side min leaf,
    other side min leaf) is lexicographically least, with the side holding
    the globally smallest leaf listed first in the merge record.
    """
    tree, _ = _run(inst, rule, record=False)
    return tree


def record_comparisons(inst: ClusteringInstance, rule: MergeRule):
    """Like build_tree but also returns every executed winner-vs-candidate
    comparison (one Comparison per losing candidate pair per step)."""
    return _run(inst, rule, record=True)


def _run(inst: ClusteringInstance, rule: MergeRule, record: bool, collector=None):
    n = inst.n
    total = 2 * n - 1
    big = np.inf
    minD = np.full((total, total), big)
    maxD = np.full((total, total), -big)
    D = inst.dist
    minD[:n, :n] = D
    maxD[:n, :n] = D

    needs_counts = rule.family in _NEEDS_COUNTS
    if needs_counts:
        iu = np.triu_indices(n, k=1)
        distinct = np.unique(D[iu])
        beta = distinct.size
        cnt = np.zeros((total, total, beta), dtype=np.float64)
        idx = np.searchsorted(distinct, D[iu])
        cnt[iu[0], iu[1], idx] = 1.0
        cnt[iu[1], iu[0], idx] = 1.0
        logd = np.log(distinct)
    else:
        distinct = None
        cnt = None
        logd = None

    V = np.full((total, total), big)
    act = list(range(n))
    _fill_rows(rule, V, minD, maxD, cnt, logd, act, act)
    minleaf = np.arange(total)
    leaf_sets = [[i] for i in range(n)] + [None] * (n - 1)

    merges = []
    values = []
    comparisons = [] if record else None

    active_mask = np.zeros(total, dtype=bool)
    active_mask[:n] = True

    for step in range(n - 1):
        ids = np.flatnonzero(active_mask)
        sub = V[np.ix_(ids, ids)]
        m = ids.size
        tri = np.triu_indices(m, k=1)
        vals = sub[tri]
        best = np.min(vals)
        cand = np.flatnonzero(vals == best)
        if cand.size > 1:
            li = minleaf[ids[tri[0][cand]]]
            lj = minleaf[ids[tri[1][cand]]]
            cand = cand[np.lexsort((np.maximum(li, lj), np.minimum(li, lj)))[0]]
        else:
            cand = cand[0]
        wi, wj = ids[tri[0][cand]], ids[tri[1][cand]]
        if minleaf[wj] < minleaf[wi]:
            wi, wj = wj, wi

        if record:
            for ci in range(vals.size):
                i, j = ids[tri[0][ci]], ids[tri[1][ci]]
                if {i, j} == {wi, wj}:
                    continue
                comparisons.append(
                    Comparison(
                        step=step,
                        winner=(wi, wj),
                        candidate=(i, j),
                        winner_min=minD[wi, wj],
                        winner_max=maxD[wi, wj],
                        candidate_min=minD[i, j],
                        candidate_max=maxD[i, j],
                        winner_counts=None if cnt is None else cnt[wi, wj].copy(),
                        candidate_counts=None if cnt is None else cnt[i, j].copy(),
                        distinct=distinct,
                    )
                )
        if collector is not None:
            collector(
                step,
                (wi, wj),
                ids,
                tri,
                minD,
                maxD,
                cnt,
                distinct,
            )

        new = n + step
        key = V[wi, wj]
        if rule.family in ("convex_minmax", "sigma_linear"):
            values.append(float(key))
        else:
            with np.errstate(over="ignore"):
                values.append(float(np.exp(key)))
        merges.append((wi, wj))
        leaf_sets[new] = sorted(leaf_sets[wi] + leaf_sets[wj])
        minleaf[new] = min(minleaf[wi], minleaf[wj])
        active_mask[wi] = False
        active_mask[wj] = False
        active_mask[new] = True
        rest = np.flatnonzero(active_mask)
        rest = rest[rest != new]
        if rest.size:
            minD[new, rest] = np.minimum(minD[wi, rest], minD[wj, rest])
            minD[rest, new] = minD[new, rest]
            maxD[new, rest] = np.maximum(maxD[wi, rest], maxD[wj, rest])
            maxD[rest, new] = maxD[new, rest]
            if needs_counts:
                cnt[new, rest] = cnt[wi, rest] + cnt[wj, rest]
                cnt[rest, new] = cnt[new, rest]
            _fill_rows(rule, V, minD, maxD, cnt, logd, [new], list(rest))
        V[wi, :] = big
        V[:, wi] = big
        V[wj, :] = big
        V[:, wj] = big

    tree = MergeTree(n=n, merges=merges, values=values, leaf_sets=leaf_sets)
    return tree, comparisons


def _fill_rows(rule, V, minD, maxD, cnt, logd, rows, cols):
    """Compute comparison keys for the given row ids against col ids."""
    fam = rule.family
    cols = np.asarray(cols)
    for r in rows:
        cc = cols[cols != r]
        if cc.size == 0:
            continue
        mn = minD[r, cc]
        mx = maxD[r, cc]
        if fam == "convex_minmax":
            key = rule.alpha * mn + (1.0 - rule.alpha) * mx
        elif fam == "power_minmax":
            a = rule.alpha
            if np.isinf(a):
                key = np.log(mx if a > 0 else mn)
            else:
                key = np.logaddexp(a * np.log(mn), a * np.log(mx)) / a
        elif fam == "power_average":
            a = rule.alpha
            rowcnt = cnt[r, cc]
            tot = rowcnt.sum(axis=1)
            if np.isinf(a):
                # the multiset extremes are the pairwise min / max
                key = np.log(mx if a > 0 else mn)
            elif a == 0.0:
                key = (rowcnt @ logd) / tot
            else:
                terms = a * logd[None, :] + np.log(rowcnt, where=rowcnt > 0,
                                                   out=np.full_like(rowcnt, -np.inf))
                mrow = terms.max(axis=1)
                key = (mrow + np.log(np.sum(np.exp(terms - mrow[:, None]), axis=1))
                       - np.log(tot)) / a
        else:
            key = _selector_keys(rule, cnt[r, cc], logd)
        V[r, cc] = key
        V[cc, r] = key


def _selector_keys(rule, rowcnt, logd):
    sigma = rule.sigma
    out = np.empty(rowcnt.shape[0])
    vals = np.exp(logd)
    for t in range(rowcnt.shape[0]):
        counts = rowcnt[t]
        L = int(counts.sum())
        pos = selector_indices(L, sigma)
        cum = np.cumsum(counts)
        sel = vals[np.searchsorted(cum, pos + 1)]
        if rule.family == "sigma_linear":
            out[t] = np.dot(rule.weights, sel)
        else:
            a = rule.alpha
            if np.isinf(a):
                out[t] = np.log(sel.max() if a > 0 else sel.min())
            else:
                out[t] = _logsumexp(a * np.log(sel)) / a
    return out
