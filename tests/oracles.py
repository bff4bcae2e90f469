"""Slow reference implementations the tests compare the package against.

Everything here is written the naive way on purpose: explicit pair loops,
full enumeration, no shared code paths with the package internals beyond
plain data containers.
"""

import itertools
import math
from typing import List

import numpy as np

from partition_tuner import (
    ClusteringInstance,
    EmbedResult,
    Embedding,
    MergeRule,
    Objective,
    PruningRule,
    RoundingErmResult,
    owr_value,
    qp_value,
    rprt_assign,
)
from partition_tuner.errors import Disconnected, DomainError, InconsistentMetric, KTooLarge
from partition_tuner.instances import FixtureSpec
from partition_tuner.linkage import MergeTree, build_tree
from partition_tuner.pruning_dp import VARIANTS, PruningResult, best_k_pruning, voronoi_reassign


# ---------------------------------------------------------------------------
# direct linkage values


def merge_value(dists, rule: MergeRule):
    """Family formula applied literally to a list of pair distances."""
    d = sorted(float(v) for v in dists)
    a = rule.alpha
    if rule.family == "convex_minmax":
        return a * d[0] + (1.0 - a) * d[-1]
    if a is not None and math.isinf(a):
        # the power forms degenerate to the extremes of what they aggregate
        sel = _select(d, rule.sigma) if rule.family == "sigma_power" else d
        return sel[-1] if a > 0 else sel[0]
    if rule.family == "power_minmax":
        return (d[0] ** a + d[-1] ** a) ** (1.0 / a)
    if rule.family == "power_average":
        if a == 0.0:
            return math.exp(sum(math.log(v) for v in d) / len(d))
        return (sum(v ** a for v in d) / len(d)) ** (1.0 / a)
    if rule.family == "sigma_linear":
        sel = _select(d, rule.sigma)
        return sum(w * v for w, v in zip(rule.weights, sel))
    if rule.family == "sigma_power":
        sel = _select(d, rule.sigma)
        return sum(v ** a for v in sel) ** (1.0 / a)
    raise ValueError(rule.family)


def _select(d, sigma):
    if sigma == 1:
        return [d[0]]
    last = len(d) - 1
    return [d[round(t * last / (sigma - 1))] for t in range(sigma)]


def naive_linkage(inst: ClusteringInstance, rule: MergeRule):
    """Quadratic-scan agglomeration; returns the leaf-set fingerprint.

    Ties break toward the pair whose sorted (min-leaf, min-leaf) ids come
    first, the winner listing its smaller min-leaf side first.
    """
    return naive_linkage_sequence(inst, rule)[0]


def naive_linkage_sequence(inst: ClusteringInstance, rule: MergeRule):
    """Like naive_linkage but also returns the ordered merge sequence.

    The sequence lists, per step, the two merged leaf sets as sorted tuples
    with the smaller-min-leaf side first.
    """
    D = inst.dist
    clusters = [[i] for i in range(inst.n)]
    internal = []
    sequence = []
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                pairs = [D[p, q] for p in clusters[i] for q in clusters[j]]
                val = merge_value(pairs, rule)
                mi, mj = min(clusters[i]), min(clusters[j])
                key = (val, min(mi, mj), max(mi, mj))
                if best is None or key < best[0]:
                    best = (key, i, j)
        _, i, j = best
        a, b = clusters[i], clusters[j]
        if min(b) < min(a):
            a, b = b, a
        merged = sorted(a + b)
        clusters = [c for t, c in enumerate(clusters) if t not in (i, j)]
        clusters.append(merged)
        internal.append(tuple(merged))
        sequence.append((tuple(a), tuple(b)))
    return frozenset(internal), sequence


def tree_merge_sequence(tree):
    """A MergeTree's merges as leaf-set pairs, smaller-min-leaf side first."""
    seq = []
    for left, right in tree.merges:
        a = tuple(tree.leaf_sets[left])
        b = tuple(tree.leaf_sets[right])
        if b[0] < a[0]:
            a, b = b, a
        seq.append((a, b))
    return seq


# ---------------------------------------------------------------------------
# exhaustive pruning enumeration


def enumerate_prunings(tree, v, k):
    """All ways to cut the subtree under v into exactly k tree clusters."""
    if k == 1:
        return [[v]]
    kids = tree.children(v)
    if kids is None:
        return []
    out = []
    left, right = kids
    for kl in range(1, k):
        for lhs in enumerate_prunings(tree, left, kl):
            for rhs in enumerate_prunings(tree, right, k - kl):
                out.append(lhs + rhs)
    return out


def exhaustive_best_pruning(inst: ClusteringInstance, tree, k: int, p: float):
    """Minimum pruning cost over every antichain and every center choice.

    Scores are raw power sums (the largest distance for p = inf), matching
    the package's power_sum field so equality can be asserted exactly.
    """
    D = inst.dist
    best = math.inf
    for pruning in enumerate_prunings(tree, tree.root, k):
        per_cluster = []
        for v in pruning:
            leaves = list(tree.leaf_sets[v])
            cand = []
            for c in leaves:
                col = D[leaves, c]
                if math.isinf(p):
                    cand.append(float(col.max()))
                else:
                    # same accumulation scheme as the package's scorer, so
                    # identical clusterings produce bit-identical sums
                    cand.append(float((col ** p).sum()))
            per_cluster.append((leaves[0], min(cand)))
        # sum clusters ordered by smallest leaf, mirroring the package
        per_cluster.sort()
        if math.isinf(p):
            total = max(c for _, c in per_cluster)
        else:
            total = 0.0
            for _, c in per_cluster:
                total += c
        best = min(best, total)
    return best


# ---------------------------------------------------------------------------
# grid oracle for the joint (alpha, p) search


def _batched_grid_dp(inst, tree, k, p_grid, obj: Objective):
    """Objective of the exponent-p pruning for every p in the grid at once.

    Runs the bottom-up k-pruning recursion with one value array per grid
    point: psi carries the pruning power sums being minimized, phi the
    objective of the argmin pruning.  Ties resolve to the first candidate,
    like the sequential version.
    """
    D = inst.dist
    n = tree.n
    pg = np.asarray(p_grid, dtype=float)
    psi = {}
    phi = {}
    for v in range(2 * n - 1):
        leaves = np.asarray(tree.leaf_sets[v], dtype=int)
        sub = D[np.ix_(leaves, leaves)]
        sums = (sub[:, :, None] ** pg[None, None, :]).sum(axis=0)
        if obj.kind == "phi_p":
            ovals = ((sub ** obj.p).sum(axis=0)) ** (1.0 / obj.p)
        elif obj.kind == "psi_pow":
            ovals = (sub ** obj.p).sum(axis=0)
        else:
            raise ValueError(obj.kind)
        pick = np.argmin(sums, axis=0)
        psi_v = np.full((k + 1, pg.size), np.inf)
        phi_v = np.full((k + 1, pg.size), np.inf)
        psi_v[1] = sums[pick, np.arange(pg.size)]
        phi_v[1] = ovals[pick]
        if v >= n:
            left, right = tree.children(v)
            for kk in range(2, k + 1):
                for k1 in range(1, kk):
                    cand = psi[left][k1] + psi[right][kk - k1]
                    cobj = phi[left][k1] + phi[right][kk - k1]
                    take = cand < psi_v[kk]
                    psi_v[kk] = np.where(take, cand, psi_v[kk])
                    phi_v[kk] = np.where(take, cobj, phi_v[kk])
        psi[v] = psi_v
        phi[v] = phi_v
    return phi[2 * n - 2][k]


def grid_joint_min(instances, family, alpha_grid, p_grid, k, obj: Objective):
    """Dense-grid minimum of the summed objective over (alpha, p) pairs."""
    best = math.inf
    for alpha in alpha_grid:
        totals = np.zeros(len(p_grid))
        for inst in instances:
            tree = build_tree(inst, MergeRule(family=family, alpha=alpha))
            totals += _batched_grid_dp(inst, tree, k, p_grid, obj)
        best = min(best, float(totals.min()))
    return best


# ---------------------------------------------------------------------------
# random metric instances


def random_instance(rng, n=None, dim=3):
    """Euclidean point-cloud instance; distances are genuine metrics."""
    if n is None:
        n = int(rng.integers(4, 11))
    pts = rng.normal(size=(n, dim))
    D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(D, 0.0)
    D = 0.5 * (D + D.T)
    return ClusteringInstance(n=n, dist=D, ground_truth=None, k_hint=None)


def pair_counting_reference(la, lb):
    """O(n^2) pair agreement distance between two labelings."""
    la = np.asarray(la)
    lb = np.asarray(lb)
    n = la.size
    disagree = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = la[i] == la[j]
            same_b = lb[i] == lb[j]
            if same_a != same_b:
                disagree += 1
    return disagree / (n * (n - 1) / 2.0)


# ---------------------------------------------------------------------------
# unscreened root solver


class ReferenceExpSum:
    """Plain exponential sum: numpy evaluation of every term, and a new
    object for every derivative and every division by the largest base."""

    def __init__(self, terms):
        acc = {}
        for t in terms:
            a, b, j = t if len(t) == 3 else (t[0], t[1], 0)
            if a == 0.0:
                continue
            acc[(float(b), int(j))] = acc.get((float(b), int(j)), 0.0) + float(a)
        self.terms = tuple(
            (a, b, j) for (b, j), a in sorted(acc.items()) if a != 0.0
        )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for a, b, j in self.terms:
            t = a * np.exp(x * math.log(b))
            if j:
                t = t * x ** j
            out = out + t
        if out.ndim == 0:
            return float(out)
        return out

    def derivative(self):
        new = []
        for a, b, j in self.terms:
            lb = math.log(b)
            if lb != 0.0:
                new.append((a * lb, b, j))
            if j >= 1:
                new.append((a * j, b, j - 1))
        return ReferenceExpSum(new)

    def is_zero(self):
        return not self.terms


REF_ROOT_TOL = 1e-10
REF_MERGE_TOL = 1e-9
REF_ZERO = "identically_zero"


def _ref_local_scale(f, x):
    s = 0.0
    for a, b, j in f.terms:
        t = abs(a) * math.exp(min(700.0, x * math.log(b)))
        if j:
            t *= abs(x) ** j
        s += t
    return max(s, 1e-300)


def _ref_signed(g, f, x):
    """g(x) for g = f / bmax^x, or where it is not finite f(x) over its
    largest term's magnitude, which is finite and has g's sign."""
    v = g(x)
    if math.isfinite(v):
        return v
    logs = [math.log(abs(a)) + x * math.log(b) + (j * math.log(abs(x)) if j else 0.0)
            for a, b, j in f.terms]
    return math.fsum(math.copysign(math.exp(lg - max(logs)), a * x ** j)
                     for lg, (a, _, j) in zip(logs, f.terms))


def _ref_bisect(g, f, lo, hi, flo, tol):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fm = _ref_signed(g, f, mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ref_poly_roots(terms, lo, hi):
    deg = max(j for _, _, j in terms)
    coef = np.zeros(deg + 1)
    for a, _, j in terms:
        coef[deg - j] += a
    if deg == 0:
        return []
    if deg == 1:
        r = [-coef[1] / coef[0]]
    else:
        rr = np.roots(coef)
        r = [float(z.real) for z in rr if abs(z.imag) <= 1e-9 * (1.0 + abs(z.real))]
    return [x for x in r if lo - REF_ROOT_TOL <= x <= hi + REF_ROOT_TOL]


def reference_find_roots(terms, lo, hi, tol=REF_ROOT_TOL):
    """Roots of sum a * x^j * b^x over [lo, hi] by plain derivative recursion:
    divide out the largest base, find the derivative's roots, bisect every
    piece whose ends differ in sign, read where the scaled sum overflows
    from the unscaled one, rescaled to stay finite.  Returns REF_ZERO for
    the zero sum."""
    f = ReferenceExpSum(terms)
    if f.is_zero():
        return REF_ZERO
    roots = _ref_roots_rec(f, float(lo), float(hi), tol)
    if roots is REF_ZERO:
        return REF_ZERO
    out = []
    for x in sorted(roots):
        if not out or x - out[-1] > REF_MERGE_TOL:
            out.append(x)
    return out


def _ref_roots_rec(f, lo, hi, tol):
    if f.is_zero():
        return REF_ZERO
    bmax = max(b for _, b, _ in f.terms)
    g = ReferenceExpSum([(a, b / bmax, j) for a, b, j in f.terms])
    if g.is_zero():
        return REF_ZERO
    if all(b == 1.0 for _, b, j in g.terms):
        if all(j == 0 for _, _, j in g.terms):
            return []
        return _ref_poly_roots(g.terms, lo, hi)
    crit = _ref_roots_rec(g.derivative(), lo, hi, tol)
    if crit is REF_ZERO:
        mid = 0.5 * (lo + hi)
        if abs(g(mid)) <= 1e-12 * _ref_local_scale(g, mid):
            return REF_ZERO
        return []
    pts = [lo] + sorted(c for c in crit if lo < c < hi) + [hi]
    vals = [_ref_signed(g, f, x) for x in pts]
    roots = []
    for i, (x, v) in enumerate(zip(pts, vals)):
        if math.isfinite(g(x)) and abs(v) <= 1e-12 * _ref_local_scale(g, x):
            roots.append(x)
            vals[i] = 0.0
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0 or fb == 0.0:
            continue
        if (fa > 0) != (fb > 0):
            roots.append(_ref_bisect(g, f, a, b, fa, tol))
    return roots


# ---------------------------------------------------------------------------
# the sweep driver before it reused any run


def reference_lazy_sweep(sweep, runs, combine, parameter):
    """param_search._lazy_sweep as it was: every piece between the roots is
    refined by running every instance at its midpoint, the probe's own
    piece included.  Each (lo, hi) of sweep.segments is swept on its own.
    Returns (the PiecewiseProfile of parameter, cells), each cell listing
    the (lo, hi, payloads) of the cells merged into it, as
    param_search._lazy_sweep does, and counts its runs into sweep.runs.

    runs[i](x) -> (fingerprint, payload, equation_keys) and combine(payloads),
    as the package's driver takes them; sweep.cache maps each key to its
    (ExpSum, roots), as the sweep settles them, of which only the roots are
    read.
    """
    from partition_tuner.errors import SweepDiverged
    from partition_tuner.param_search import (BREAK_MERGE_TOL, IDENTICALLY_ZERO,
                                              PiecewiseProfile)

    cells = []

    def refine(a, b, depth):
        if depth > 80:
            raise SweepDiverged("sweep refinement failed to converge")
        mid = 0.5 * (a + b)
        results = [run(mid) for run in runs]
        sweep.runs += len(runs)
        fp = tuple(r[0] for r in results)
        payloads = tuple(r[1] for r in results)
        val = combine(payloads)
        eqs = set().union(*(r[2] for r in results))
        guard = 1e-12 * max(1.0, abs(a), abs(b))
        found = set()
        for key in eqs:
            roots = sweep.cache[key][1]
            if roots is IDENTICALLY_ZERO:
                continue
            for x in roots:
                if a + guard < x < b - guard:
                    found.add(x)
        if not found:
            cells.append([a, b, mid, fp, val, [(a, b, payloads)]])
            return
        pts = sorted(found)
        merged = [pts[0]]
        for x in pts[1:]:
            if x - merged[-1] > BREAK_MERGE_TOL:
                merged.append(x)
        bounds = [a] + merged + [b]
        for i in range(len(bounds) - 1):
            refine(bounds[i], bounds[i + 1], depth + 1)

    out = []
    for lo, hi in sweep.segments:
        cells.clear()
        refine(float(lo), float(hi), 0)
        out.append(cells[0])
        for c in cells[1:]:
            prev = out[-1]
            if c[3] == prev[3] and (c[4] == prev[4] or abs(c[4] - prev[4])
                                    <= 1e-12 * max(1.0, abs(c[4]), abs(prev[4]))):
                prev[1] = c[1]
                prev[5] += c[5]
            else:
                out.append(c)
    profile = PiecewiseProfile(
        parameter=parameter,
        breakpoints=[out[0][0]] + [c[1] for c in out],
        values=[c[4] for c in out],
        representatives=[c[2] for c in out],
        payloads=[c[3] for c in out],
        hard_boundaries=sweep.hard,
    )
    return profile, out


# ---------------------------------------------------------------------------
# minmax comparison collector


def _canon_terms(terms):
    """Hashable sign-canonical form of an equation's term list: its
    (base, degree, coeff) triples sorted, negated where the first
    coefficient is negative."""
    terms = tuple(sorted((float(b), int(j), float(a)) for a, b, j in terms))
    if terms and terms[0][2] < 0:
        terms = tuple((b, j, -a) for b, j, a in terms)
    return terms


def reference_minmax_terms(family, wmin, wmax, cmin, cmax):
    """The (coeff, base, degree) terms of a min/max family's comparison of a
    winner and a candidate, each given by its (min, max) distances, one
    scalar at a time."""
    if family == "convex_minmax":
        # (a*wmin + (1-a)*wmax) - (a*cmin + (1-a)*cmax), affine in a
        slope = (wmin - wmax) - (cmin - cmax)
        const = wmax - cmax
        return [(slope, 1.0, 1), (const, 1.0, 0)]
    # +1 per winner end, -1 per candidate end, like bases combined
    acc = {}
    for b, s in ((wmin, 1.0), (wmax, 1.0), (cmin, -1.0), (cmax, -1.0)):
        b = float(b)
        acc[b] = acc.get(b, 0.0) + s
    return [(a, b, 0) for b, a in acc.items() if a != 0.0]


def reference_minmax_collector(family, eqs):
    """Collector for linkage._run that deduplicates each step's candidate
    (min, max) rows with np.unique(axis=0), the way the sweep first did."""

    def cb(step, winner, ids, _, minD, maxD, cnt, distinct):
        wi, wj = winner
        wmin = minD[wi, wj]
        wmax = maxD[wi, wj]
        tri = np.triu_indices(ids.size, k=1)
        ii = ids[tri[0]]
        jj = ids[tri[1]]
        rows = np.unique(np.column_stack([minD[ii, jj], maxD[ii, jj]]), axis=0)
        for cmin, cmax in rows:
            if cmin == wmin and cmax == wmax:
                continue
            eqs.add(_canon_terms(reference_minmax_terms(family, wmin, wmax, cmin, cmax)))

    return cb


# ---------------------------------------------------------------------------
# dense count tensor: the tree build and count collectors before sparse multisets


def reference_run(inst: ClusteringInstance, rule: MergeRule, collector=None):
    """linkage._run as it was with a dense (2n-1)^2 * beta count tensor.

    Collectors get the tensor where the package passes its sparse store:
    collector(step, winner, ids, tri, minD, maxD, cnt, distinct).
    """
    from partition_tuner.linkage import MergeTree

    n = inst.n
    total = 2 * n - 1
    big = np.inf
    minD = np.full((total, total), big)
    maxD = np.full((total, total), -big)
    D = inst.dist
    minD[:n, :n] = D
    maxD[:n, :n] = D
    # each leaf pair's upper-triangle distance, in both orientations
    iu = np.triu_indices(n, k=1)
    minD[iu[::-1]] = maxD[iu[::-1]] = D[iu]

    if rule.family in ("power_average", "sigma_linear", "sigma_power"):
        iu = np.triu_indices(n, k=1)
        distinct = np.unique(D[iu])
        cnt = np.zeros((total, total, distinct.size), dtype=np.float64)
        idx = np.searchsorted(distinct, D[iu])
        cnt[iu[0], iu[1], idx] = 1.0
        cnt[iu[1], iu[0], idx] = 1.0
        logd = np.log(distinct)
    else:
        distinct = cnt = logd = None

    V = np.full((total, total), big)
    act = list(range(n))
    _ref_fill_rows(rule, V, minD, maxD, cnt, logd, distinct, act, act)
    minleaf = np.arange(total)
    leaf_sets = [[i] for i in range(n)] + [None] * (n - 1)
    merges = []
    values = []
    active_mask = np.zeros(total, dtype=bool)
    active_mask[:n] = True

    for step in range(n - 1):
        ids = np.flatnonzero(active_mask)
        sub = V[np.ix_(ids, ids)]
        tri = np.triu_indices(ids.size, k=1)
        vals = sub[tri]
        cand = np.flatnonzero(vals == np.min(vals))
        if cand.size > 1:
            li = minleaf[ids[tri[0][cand]]]
            lj = minleaf[ids[tri[1][cand]]]
            cand = cand[np.lexsort((np.maximum(li, lj), np.minimum(li, lj)))[0]]
        else:
            cand = cand[0]
        wi, wj = ids[tri[0][cand]], ids[tri[1][cand]]
        if minleaf[wj] < minleaf[wi]:
            wi, wj = wj, wi
        if collector is not None:
            collector(step, (wi, wj), ids, tri, minD, maxD, cnt, distinct)

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
            if cnt is not None:
                cnt[new, rest] = cnt[wi, rest] + cnt[wj, rest]
                cnt[rest, new] = cnt[new, rest]
            _ref_fill_rows(rule, V, minD, maxD, cnt, logd, distinct, [new], list(rest))
        V[wi, :] = big
        V[:, wi] = big
        V[wj, :] = big
        V[:, wj] = big

    return MergeTree(n=n, merges=merges, values=values, leaf_sets=leaf_sets)


def _ref_fill_rows(rule, V, minD, maxD, cnt, logd, distinct, rows, cols):
    fam = rule.family
    cols = np.asarray(cols)
    for r in rows:
        cc = cols[cols != r]
        if cc.size == 0:
            continue
        mn = minD[r, cc]
        mx = maxD[r, cc]
        a = rule.alpha
        if fam == "convex_minmax":
            key = a * mn + (1.0 - a) * mx
        elif fam in ("power_minmax", "power_average") and np.isinf(a):
            key = np.log(mx if a > 0 else mn)
        elif fam == "power_minmax":
            key = np.logaddexp(a * np.log(mn), a * np.log(mx)) / a
        elif fam == "power_average":
            rowcnt = cnt[r, cc]
            tot = rowcnt.sum(axis=1)
            if a == 0.0:
                key = (rowcnt @ logd) / tot
            else:
                terms = a * logd[None, :] + np.log(rowcnt, where=rowcnt > 0,
                                                   out=np.full_like(rowcnt, -np.inf))
                mrow = terms.max(axis=1)
                key = (mrow + np.log(np.sum(np.exp(terms - mrow[:, None]), axis=1))
                       - np.log(tot)) / a
        else:
            key = _ref_selector_keys(rule, cnt[r, cc], logd, distinct)
        V[r, cc] = key
        V[cc, r] = key


def _ref_selector_keys(rule, rowcnt, logd, distinct):
    from partition_tuner.linkage import selector_indices

    out = np.empty(rowcnt.shape[0])
    vals = np.exp(logd)
    for t in range(rowcnt.shape[0]):
        counts = rowcnt[t]
        pos = selector_indices(int(counts.sum()), rule.sigma)
        at = np.searchsorted(np.cumsum(counts), pos + 1)
        sel = vals[at]
        a = rule.alpha
        if rule.family == "sigma_linear":
            # the distances themselves, as the sweep equations weigh them
            out[t] = np.dot(rule.weights, distinct[at])
        elif np.isinf(a):
            out[t] = np.log(sel.max() if a > 0 else sel.min())
        else:
            x = a * np.log(sel)
            m = np.max(x)
            out[t] = (m if np.isinf(m) else m + np.log(np.sum(np.exp(x - m)))) / a
    return out


def _ref_selected(counts, distinct, sigma):
    from partition_tuner.linkage import selector_indices

    pos = selector_indices(int(counts.sum()), sigma)
    return distinct[np.searchsorted(np.cumsum(counts), pos + 1)]


def reference_count_terms(family, wrow, crow, distinct, sigma):
    """The (coeff, base, degree) terms of a count family's comparison of the
    dense count rows wrow and crow, [] where it is identically zero.
    sigma_linear's (sigma = 2) are in theta, the first of the weights."""
    if family == "power_average":
        diff = crow.sum() * wrow - wrow.sum() * crow
        return [(diff[t], distinct[t], 0) for t in np.flatnonzero(diff)]
    wsel = _ref_selected(wrow, distinct, sigma)
    csel = _ref_selected(crow, distinct, sigma)
    if family == "sigma_power":
        # +1 per selected winner value, -1 per candidate one, like terms combined
        coeff = {}
        for sign, sel in ((1.0, wsel), (-1.0, csel)):
            for b in sel:
                coeff[b] = coeff.get(b, 0.0) + sign
        return [(a, b, 0) for b, a in coeff.items() if a]
    d1 = wsel[0] - csel[0]
    d2 = wsel[1] - csel[1]
    return [(d1 - d2, 1.0, 1), (d2, 1.0, 0)] if d1 != 0.0 or d2 != 0.0 else []


def reference_count_collector(family, sigma, eqs):
    """The dense-tensor collectors of the count families, for reference_run:
    each step deduplicates the candidates' count rows with np.unique(axis=0).
    sigma_linear is the exact sweep's (theta, 1 - theta) collector."""

    def cb(step, winner, ids, tri, minD, maxD, cnt, distinct):
        for crow in np.unique(cnt[ids[tri[0]], ids[tri[1]]], axis=0):
            key = _canon_terms(reference_count_terms(family, cnt[winner], crow, distinct, sigma))
            if key:
                eqs.add(key)

    return cb


def reference_grid_collector(sigma, w, margins):
    """The dense-tensor collector of the sigma_linear grid search: appends
    (margin, selected-value difference) per distinct candidate row."""

    def cb(step, winner, ids, tri, minD, maxD, cnt, distinct):
        wsel = _ref_selected(cnt[winner], distinct, sigma)
        for crow in np.unique(cnt[ids[tri[0]], ids[tri[1]]], axis=0):
            dv = wsel - _ref_selected(crow, distinct, sigma)
            if np.any(dv):
                margins.append((float(np.dot(w, dv)), tuple(dv)))

    return cb


# ---------------------------------------------------------------------------
# full-recompute rounding ERMs


REF_THRESH_MERGE = 1e-12


def reference_cut_value(weights, assignment):
    """Cut weight of a +-1 assignment from a fresh off-diagonal copy of the
    weights, whatever their diagonal."""
    W = np.asarray(weights, dtype=float)
    h = np.asarray(assignment, dtype=float)
    off = W - np.diag(np.diag(W))
    return float((off.sum() - h @ off @ h) / 4.0)


def _ref_value(inst, x):
    if inst.origin == "maxcut":
        return reference_cut_value(inst.matrix, x)
    return qp_value(inst.matrix, x)


def _ref_merge_sorted(vals):
    vals = sorted(v for v in vals if v > 0)
    out = []
    for v in vals:
        if not out or v - out[-1] > REF_THRESH_MERGE:
            out.append(v)
    return out


def reference_slin_erm(samples):
    """Clamp-linear ERM that recomputes every sample's quadratic form, with a
    fresh off-diagonal copy of a max-cut matrix, for each piece."""
    ys = [emb.vectors @ np.asarray(z, dtype=float) for _, emb, z in samples]
    thresholds = _ref_merge_sorted(abs(v) for y in ys for v in y)
    m = len(samples)

    if not thresholds:
        val = sum(_ref_value(inst, np.zeros(inst.n)) for inst, _, _ in samples) / m
        return RoundingErmResult(1.0, val, [], [val])

    def coeffs(clamp_at):
        a = b = c = 0.0
        for (inst, _, _), y in zip(samples, ys):
            clamped = np.abs(y) >= clamp_at
            u = np.where(clamped, 0.0, y)
            v = np.where(clamped, np.sign(y), 0.0)
            A = inst.matrix
            if inst.origin == "maxcut":
                W = A - np.diag(np.diag(A))
                a += -0.25 * (u @ W @ u)
                b += -0.5 * (u @ W @ v)
                c += W.sum() / 4.0 - 0.25 * (v @ W @ v)
            else:
                # x^T A x = x^T S x for the symmetric part S, which is A
                # itself when A is symmetric; its cross term is 2 u S v
                S = (A + A.T) / 2
                a += u @ S @ u
                b += 2.0 * (u @ S @ v)
                c += v @ S @ v
        return a / m, b / m, c / m

    candidates = []
    interval_values = []
    bounds = [0.0] + thresholds + [math.inf]
    for i in range(len(bounds) - 1):
        lo, hi = bounds[i], bounds[i + 1]
        a, b, c = coeffs(hi)

        def val(s):
            return a / (s * s) + b / s + c

        probes = []
        if lo > 0:
            probes.append(lo)
        if math.isfinite(hi):
            probes.append(hi)
        else:
            probes.append(max(1.0, bounds[i]) * 1e9)
        if b != 0.0:
            s_star = -2.0 * a / b
            if lo < s_star < hi:
                probes.append(s_star)
        vals = [(s, val(s)) for s in probes]
        interval_values.append(max(v for _, v in vals))
        candidates.extend(vals)

    best_s, best_v = candidates[0]
    for s, v in candidates[1:]:
        if v > best_v + 1e-15 or (abs(v - best_v) <= 1e-15 and s < best_s):
            best_s, best_v = s, v
    return RoundingErmResult(best_s, best_v, thresholds, interval_values)


def reference_owr_erm(samples):
    """Outward-rotation ERM that evaluates owr_value afresh at every probe."""
    cuts = set()
    for _, emb, z2 in samples:
        z2 = np.asarray(z2, dtype=float)
        head = emb.vectors @ z2[: emb.d]
        tail = z2[emb.d:]
        mask = head * tail < 0
        for g in np.arctan(-head[mask] / tail[mask]):
            if 0.0 < g < math.pi / 2:
                cuts.add(float(g))
    thresholds = _ref_merge_sorted(cuts)
    bounds = [0.0] + thresholds + [math.pi / 2]
    probes = [0.5 * (bounds[i] + bounds[i + 1]) for i in range(len(bounds) - 1)]
    probes.append(math.pi / 2)

    m = len(samples)
    interval_values = []
    best = None
    for g in probes:
        v = sum(owr_value(inst, emb, z2, g) for inst, emb, z2 in samples) / m
        interval_values.append(v)
        if best is None or v > best[1] + 1e-15:
            best = (g, v)
    return RoundingErmResult(best[0], best[1], thresholds, interval_values)


def reference_rprt_erm(samples):
    """RPR^2 ERM that evaluates the binary value afresh at every probe."""
    ratios = []
    for _, emb, z, q in samples:
        y = emb.vectors @ np.asarray(z, dtype=float)
        q = np.asarray(q, dtype=float)
        nz = y != 0.0
        r = q[nz] / y[nz]
        ratios.extend(r[r > 0])
    thresholds = _ref_merge_sorted(ratios)

    bounds = [0.0] + thresholds
    probes = [0.5 * (bounds[i] + bounds[i + 1]) for i in range(len(bounds) - 1)]
    probes.append(bounds[-1] + 1.0)

    m = len(samples)
    interval_values = []
    best = None
    for s in probes:
        v = sum(
            _ref_value(inst, rprt_assign(inst, emb, z, q, s))
            for inst, emb, z, q in samples
        ) / m
        interval_values.append(v)
        if best is None or v > best[1] + 1e-15:
            best = (s, v)
    return RoundingErmResult(best[0], best[1], thresholds, interval_values)


# ---------------------------------------------------------------------------
# the pruning DPs as two separate recurrences, frozen as they stood before
# they became one DP over two cost algebras; the package must match them bit
# for bit


def _ref_center_costs(D: np.ndarray, leaves, p: float):
    """Cost of each member as center; returns (costs, order = leaves)."""
    sub = D[np.ix_(leaves, leaves)]
    if math.isinf(p):
        return sub.max(axis=0)
    return (sub ** p).sum(axis=0)


def reference_best_k_pruning(
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
        costs = _ref_center_costs(D, leaves, p)
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

    power_sum, score = _ref_score(D, clusters, centers, p)
    return PruningResult(
        clusters=clusters,
        centers=centers,
        score=score,
        power_sum=power_sum,
        k=k,
        variant=variant,
    )


def _ref_score(D, clusters, centers, p):
    if math.isinf(p):
        worst = max(
            float(D[cl, c].max()) for cl, c in zip(clusters, centers)
        )
        return worst, worst
    total = 0.0
    for cl, c in zip(clusters, centers):
        total += float((D[cl, c] ** p).sum())
    return total, total ** (1.0 / p)


def reference_dp_with_comparisons(inst: ClusteringInstance, tree: MergeTree, k: int, p: float):
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


# ---------------------------------------------------------------------------
# the embedding heuristic, scoring each trial by its full n x n objective


def reference_embed_bm(inst, rank=None, seed=0, max_iters=10 ** 4, grad_tol=1e-6):
    """Projected gradient ascent with backtracking, as embed_bm runs it, but
    with each candidate scored as sum(M * (U @ U^T)) and the gradient
    recomputed from M @ V at every iteration."""
    n = inst.n
    if rank is None:
        rank = max(2, math.ceil(math.sqrt(2.0 * n)))
    if rank < 2:
        raise DomainError("rank must be at least 2")
    M = np.asarray(inst.matrix, dtype=float)
    if inst.origin == "maxcut":
        M = -(M - np.diag(np.diag(M)))
    M = 0.5 * (M + M.T)

    rng = np.random.Generator(np.random.Philox(key=seed))
    V = rng.standard_normal((n, rank))
    V /= np.linalg.norm(V, axis=1, keepdims=True)

    def objective(U):
        return float(np.sum(M * (U @ U.T)))

    f = objective(V)
    history = [f]
    step = 1.0 / (1.0 + np.abs(M).sum(axis=1).max())
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        G = 2.0 * (M @ V)
        P = G - (np.sum(G * V, axis=1, keepdims=True)) * V
        pn2 = float(np.sum(P * P))
        if math.sqrt(pn2) <= grad_tol * max(1.0, abs(f)):
            converged = True
            break
        accepted = False
        for _ in range(60):
            cand = V + step * P
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            fc = objective(cand)
            if fc >= f + 1e-4 * step * pn2:
                V, f = cand, fc
                history.append(f)
                step *= 1.25
                accepted = True
                break
            step *= 0.5
            if step < 1e-18:
                break
        if not accepted:
            break

    return EmbedResult(embedding=Embedding(n=n, d=rank, vectors=V), converged=converged,
                       objective=f, iterations=it, history=history)


# ---------------------------------------------------------------------------
# the two-gadget generator as one list of specified pairs and one completion
# of the whole 210-point matrix, cross-gadget pairs included


def reference_complete_metric_max(n, specified):
    """Floyd-Warshall over every point, then the specified pairs re-stamped."""
    D = np.full((n, n), np.inf)
    np.fill_diagonal(D, 0.0)
    given = {}
    for i, j, v in specified:
        if i == j:
            raise InconsistentMetric(f"self-distance specified for point {i}")
        key = (min(i, j), max(i, j))
        if key in given and given[key] != v:
            raise InconsistentMetric(f"pair {key} specified twice with different values")
        given[key] = v
        D[i, j] = v
        D[j, i] = v
    for k in range(n):
        np.minimum(D, D[:, k][:, None] + D[k, :][None, :], out=D)
    if np.any(np.isinf(D)):
        raise Disconnected("specified distance graph is not connected")
    for (i, j), v in given.items():
        if D[i, j] < v - 1e-12:
            raise InconsistentMetric(
                f"specified d({i},{j}) = {v} exceeds shortest-path bound {D[i, j]}"
            )
        # re-stamp to kill accumulated round-off on consistent inputs
        D[i, j] = v
        D[j, i] = v
    return D


def reference_gen_two_gadget(alpha_star, family, p=1.0):
    """gen_two_gadget for a valid alpha_star, every distance listed pair by pair."""
    if family == "convex_minmax":
        dstar = 1.2 - 0.1 * alpha_star
    else:
        a = alpha_star
        dstar = ((1.1 ** a + 1.2 ** a) / 2.0) ** (1.0 / a)

    n = 210
    entries = []
    labels = np.zeros(n, dtype=int)
    for g in (0, 1):
        base = 105 * g
        a, b, c, x, y = base, base + 1, base + 2, base + 3, base + 4
        A = list(range(base + 5, base + 30))
        B = list(range(base + 30, base + 55))
        X = list(range(base + 55, base + 80))
        Y = list(range(base + 80, base + 105))
        xs, ys = X[0], Y[0]

        entries.append((a, b, 1.0))
        entries.append((x, y, 1.0))
        if g == 0:
            entries.append((a, c, 1.1))
            entries.append((b, c, 1.2))
            entries.append((x, c, dstar))
            entries.append((y, c, dstar))
        else:
            entries.append((x, c, 1.1))
            entries.append((y, c, 1.2))
            entries.append((a, c, dstar))
            entries.append((b, c, dstar))
        for q in A + B:
            entries.append((c, q, 1.51))
            entries.append((a, q, 1.6))
            entries.append((b, q, 1.6))
        for q in X:
            entries.append((x, q, 1.51 if q == xs else 1.6))
            entries.append((y, q, 1.6))
        for q in Y:
            entries.append((y, q, 1.51 if q == ys else 1.6))
            entries.append((x, q, 1.6))
        for block in (A, B, X, Y):
            for ii in range(len(block)):
                for jj in range(ii + 1, len(block)):
                    entries.append((block[ii], block[jj], 1.5))
        for qa in A:
            for qb in B:
                entries.append((qa, qb, 1.6))
        for qx in X:
            for qy in Y:
                entries.append((qx, qy, 1.6))

        lab = 2 * g
        for q in [a, b, c] + A + B:
            labels[q] = lab
        for q in [x, y] + X + Y:
            labels[q] = lab + 1

    for i in range(105):
        for j in range(105, 210):
            entries.append((i, j, 100.0))

    dist = reference_complete_metric_max(n, entries)
    inst = ClusteringInstance(n=n, dist=dist, ground_truth=labels, k_hint=4)
    fix = FixtureSpec(
        kind="two_gadget",
        family=family,
        alpha_star=alpha_star,
        p=p,
        expected_witness=alpha_star,
        expected_breakpoints=(alpha_star,),
    )
    return inst, fix
