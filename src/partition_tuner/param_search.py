"""Exact parameter search: root finding, lazy sweeps, and ERM drivers.

A sweep runs the full pipeline at one point of a parameter interval, collects
every comparison the run executed as an equation in the parameter, and splits
the interval at the equations' roots.  Piecewise constancy between roots is
what makes the recursion exact: the first structural change met when moving
away from the evaluation point must flip one of the executed comparisons.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import (DimensionMismatch, DomainError, Overflow, RootNotConverged,
                     SigmaTooLargeForExact, SweepDiverged, UnknownFamily)
from .instances import ClusteringInstance
from .linkage import (
    MergeRule,
    MergeTree,
    _run,
    _selected,
    comparison_terms,
    distance_table,
    multiset_terms,
)
from .pruning_dp import (
    Objective,
    PruningRule,
    best_k_pruning,
    dp_with_comparisons,
    objective_value,
    voronoi_reassign,
)

IDENTICALLY_ZERO = "identically_zero"

SWEEP_CLIP = 64.0
ROOT_TOL = 1e-10
BREAK_MERGE_TOL = 1e-9


# ---------------------------------------------------------------------------
# polynomial-exponential sums and their real roots


class ExpSum:
    """f(x) = sum_i a_i * x^(j_i) * b_i^x with b_i > 0.

    Terms are (coeff, base) pairs or (coeff, base, degree) triples; plain
    pairs mean degree 0.  Like terms are combined on construction, and the
    terms are kept sorted by (base, degree) with ln b computed once.
    Scalars evaluate in ``math``; arrays take one ``exp`` per distinct base.
    """

    __slots__ = ("terms", "_logs")

    def __init__(self, terms):
        acc = {}
        for t in terms:
            if len(t) == 2:
                a, b = t
                j = 0
            else:
                a, b, j = t
            a, b, j = float(a), float(b), int(j)
            _check_term(a, b)
            if j < 0:
                raise DomainError("degrees must be nonnegative")
            _add_term(acc, a, b, j)
        self._set(acc)

    @classmethod
    def _combined(cls, acc) -> "ExpSum":
        """Build from a {(base, degree): coeff} dict of checked terms."""
        f = cls.__new__(cls)
        f._set(acc)
        return f

    def _set(self, acc):
        self.terms = tuple((a, b, j) for (b, j), a in sorted(acc.items()) if a != 0.0)
        self._logs = tuple(math.log(b) for _, b, _ in self.terms)

    def __call__(self, x):
        if isinstance(x, (float, int)):
            try:
                return self._scalar(float(x))
            except OverflowError:
                pass  # the array path returns inf, as numpy does
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return float(self._array(x))
        return self._array(x)

    def _scalar(self, x: float) -> float:
        s = 0.0
        for (a, _, j), lb in zip(self.terms, self._logs):
            t = a * math.exp(x * lb)
            if j:
                t = t * x ** j
            s = s + t
        return s

    def _array(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        powers = [None, x]
        last_lb = e = None
        for (a, _, j), lb in zip(self.terms, self._logs):
            if lb != last_lb:
                e = np.exp(x * lb)
                last_lb = lb
            t = a * e
            if j:
                while len(powers) <= j:
                    powers.append(powers[-1] * x)
                t = t * powers[j]
            out = out + t
        return out

    def derivative(self) -> "ExpSum":
        acc = {}
        for (a, b, j), lb in zip(self.terms, self._logs):
            if lb:  # skipped, not multiplied by 0, so an overflowed a leaves no NaN
                _add_term(acc, a * lb, b, j)
            if j:
                _add_term(acc, a * j, b, j - 1)
        return ExpSum._combined(acc)

    def _scaled(self) -> "ExpSum":
        """f(x) / bmax^x: the same roots, with every base at most 1."""
        bmax = self.terms[-1][1]
        if bmax == 1.0:
            return self
        acc = {}
        for a, b, j in self.terms:
            _add_term(acc, a, b / bmax, j)
        return ExpSum._combined(acc)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return f"ExpSum({list(self.terms)})"


def _check_term(a, b):
    if not (0.0 < b < math.inf and -math.inf < a < math.inf):
        raise DomainError("coefficients must be finite, bases positive and finite")


def _add_term(acc, a, b, j):
    if a != 0.0:
        acc[(b, j)] = acc.get((b, j), 0.0) + a


def _local_scale(f: ExpSum, x: float) -> float:
    s = 0.0
    for (a, _, j), lb in zip(f.terms, f._logs):
        t = abs(a) * math.exp(min(700.0, x * lb))
        if j:
            t *= abs(x) ** j
        s += t
    return max(s, 1e-300)


def _bisect(f, lo, hi, flo, tol):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid == lo or mid == hi:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    raise RootNotConverged(f"bisection left [{lo!r}, {hi!r}] wider than tol = {tol!r}")


def _poly_roots(terms, lo, hi):
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
    return [x for x in r if lo - ROOT_TOL <= x <= hi + ROOT_TOL]


def find_roots(f: ExpSum, lo: float, hi: float, tol: float = ROOT_TOL):
    """All real roots of f in [lo, hi], or the IDENTICALLY_ZERO sentinel.

    Bases are first divided out by the largest one (roots are unchanged since
    b^x > 0); if every term then has base 1 the problem is polynomial.
    Otherwise the interval is split at the derivative's roots, computed
    recursively, leaving at most one sign change per piece.  Each
    differentiation removes the base-1 group's top degree, so the recursion
    terminates within sum(degree + 1) steps.

    Most sweep equations have no root.  A sum of pure exponentials is first
    screened, at every recursion level, by Laguerre's rule for partial sums
    (Polya-Szego, Problems and Theorems in Analysis II, Part V; Jameson,
    Math. Gazette 90, 2006): with bases ascending and c_j = a_j (b_j/b_m)^lo,
    f(x) / b_m^x on [lo, inf) is a convex combination of the partial sums
    c_m, c_m + c_(m-1), ..., sum(c); if they keep one strict sign, f has no
    root there.  The mirror rule at hi covers (-inf, hi].  A partial sum
    counts only above 1e-12 of its magnitude sum, the solver's own zero
    threshold, plus rounding, so the recursion finds nothing in a screened
    sum either.  Raises DomainError unless lo < hi are finite.
    """
    if f.is_zero():
        return IDENTICALLY_ZERO
    if not -math.inf < lo < hi < math.inf:
        raise DomainError("need finite lo < hi")
    roots = _roots_rec(f, float(lo), float(hi), tol)
    if roots is IDENTICALLY_ZERO:
        return IDENTICALLY_ZERO
    out = []
    for x in sorted(roots):
        if not out or x - out[-1] > BREAK_MERGE_TOL:
            out.append(x)
    return out


def _keeps_sign(terms, lo: float, hi: float) -> bool:
    """find_roots' screen: True only if ExpSum terms provably keep one strict sign on [lo, hi]."""
    if any(j for _, _, j in terms):
        return False
    pos = terms[0][0] > 0
    if all((a > 0) == pos for a, _, _ in terms):
        return True
    for seq, x in ((terms[::-1], lo), (terms, hi)):
        (a0, b0, _), s, mag, keeps = seq[0], 0.0, 0.0, True
        bound = 1e-12 + 2.3e-16 * (abs(x) + len(seq))  # c_j: |x| + 2 ulp; sums: 1 ulp each
        try:
            for a, b, _ in seq:
                c = a * math.pow(b / b0, x)
                s += c
                mag += abs(c)
                keeps = keeps and abs(s) > bound * mag and abs(c) > 1e-300 and (s > 0) == (a0 > 0)
        except OverflowError:
            return False
        if keeps or not mag < math.inf:
            return keeps  # c_j at lo are the recursion's own terms: on overflow, it answers
    return False


def _roots_rec(f: ExpSum, lo: float, hi: float, tol: float):
    if f.is_zero():
        return IDENTICALLY_ZERO
    if _keeps_sign(f.terms, lo, hi):
        return []
    g = f._scaled()
    if g.is_zero():
        return IDENTICALLY_ZERO
    if all(b == 1.0 for _, b, j in g.terms):
        return _poly_roots(g.terms, lo, hi)

    crit = _roots_rec(g.derivative(), lo, hi, tol)
    if crit is IDENTICALLY_ZERO:
        # derivative vanishes identically: g is constant
        mid = 0.5 * (lo + hi)
        if abs(g(mid)) <= 1e-12 * _local_scale(g, mid):
            return IDENTICALLY_ZERO
        return []
    pts = [lo] + sorted(c for c in crit if lo < c < hi) + [hi]
    vals = [g(x) for x in pts]
    roots = []
    for i, (x, v) in enumerate(zip(pts, vals)):
        # an overflowed value is no root, though inf <= 1e-12 * inf holds
        if math.isfinite(v) and abs(v) <= 1e-12 * _local_scale(g, x):
            roots.append(x)
            vals[i] = 0.0
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0 or fb == 0.0:
            continue
        if (fa > 0) != (fb > 0):
            roots.append(_bisect(g, a, b, fa, tol))
    return roots


# ---------------------------------------------------------------------------
# piecewise-constant profiles


@dataclass
class PiecewiseProfile:
    """Cost of the pipeline as a piecewise-constant function of one parameter.

    breakpoints includes both domain endpoints, so values and
    representatives have one entry less.  hard_boundaries marks interior
    breakpoints that exclude their own parameter value (domain splits).
    """

    parameter: str
    breakpoints: List[float]
    values: List[float]
    representatives: List[float]
    payloads: Optional[list] = None
    hard_boundaries: tuple = ()

    @classmethod
    def from_cells(cls, parameter, cells, hard_boundaries=()):
        """The profile of _lazy_sweep's cells [lo, hi, rep, payload, value]."""
        return cls(
            parameter=parameter,
            breakpoints=[cells[0][0]] + [c[1] for c in cells],
            values=[c[4] for c in cells],
            representatives=[c[2] for c in cells],
            payloads=[c[3] for c in cells],
            hard_boundaries=hard_boundaries,
        )

    def interval(self, i):
        return (self.breakpoints[i], self.breakpoints[i + 1])

    def __len__(self):
        return len(self.values)


@dataclass
class ErmResult:
    """Best parameter, its closed interval and cost, and the swept profile.

    instances_evaluated counts the pipeline runs the search made, one per
    instance per probe: tree builds for the alpha searches, and for
    erm_joint the pruning DP runs actually made, none for a tree tuple whose
    exponent sweep was already done.  A cell that a probe's run certifies
    (see _lazy_sweep) costs no run of its own.
    """

    best_param: object
    best_interval: object
    best_cost: float
    profile: Optional[PiecewiseProfile]
    instances_evaluated: int
    certificate: Optional[list] = None


def _values_close(x: float, y: float) -> bool:
    return x == y or abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))


def _strict_sign(f: ExpSum, x: float):
    """The sign of f(x) (True if positive), or None unless |f(x)| clears
    1e-12 of its local scale, the solver's own zero threshold."""
    v = f(x)
    if math.isfinite(v) and abs(v) > 1e-12 * _local_scale(f, x):
        return v > 0
    return None


def _lazy_sweep(lo, hi, run, solve):
    """Refine [lo, hi] into cells on which run's fingerprint is constant.

    run(x) -> (fingerprint, value, equation_keys); solve(key) -> (ExpSum,
    roots over the whole sweep domain), cached by the caller, or (None, [])
    for an equation proven one-signed on the whole domain.  That one has no
    root and, in exact arithmetic, passes the certificate below anywhere
    (where its terms overflow, _strict_sign cannot tell), so it is left out.
    Adjacent cells that agree in fingerprint and value are merged back.

    The run at a probe certifies the piece around it.  When the roots split
    [a, b], the piece [lo, hi] whose interior holds the probe becomes a cell
    without a run if no root lies inside it and every executed equation
    that is not identically zero has one strict sign at the probe and at
    c = (lo + hi) / 2.  A run at c then makes the same decisions step by
    step (each step's candidates follow from the merges already made, and
    every comparison keeps its sign), so the cell [lo, hi, c, fp, val] is
    the one a run at c would append.  A piece that fails the certificate is
    refined by a run, so SweepDiverged can only come from such pieces.
    """
    cells = []

    def refine(a, b, depth):
        if depth > 80:
            raise SweepDiverged("sweep refinement failed to converge")
        mid = 0.5 * (a + b)
        fp, val, eqs = run(mid)
        solved = [s for s in map(solve, eqs) if s[0] is not None]
        roots = [x for _, rs in solved if rs is not IDENTICALLY_ZERO for x in rs]
        guard = 1e-12 * max(1.0, abs(a), abs(b))
        found = {x for x in roots if a + guard < x < b - guard}
        if not found:
            cells.append([a, b, mid, fp, val])
            return
        pts = sorted(found)
        merged = [pts[0]]
        for x in pts[1:]:
            if x - merged[-1] > BREAK_MERGE_TOL:
                merged.append(x)
        bounds = [a] + merged + [b]
        for p, q in zip(bounds, bounds[1:]):
            if p < mid < q and certified(p, q, mid, solved, roots):
                cells.append([p, q, 0.5 * (p + q), fp, val])
            else:
                refine(p, q, depth + 1)

    def certified(lo, hi, mid, solved, roots):
        guard = 1e-12 * max(1.0, abs(lo), abs(hi))
        if any(lo + guard < x < hi - guard for x in roots):
            return False
        c = 0.5 * (lo + hi)
        for f, _ in solved:
            if f.is_zero():
                continue
            s = _strict_sign(f, mid)
            if s is None or _strict_sign(f, c) is not s:
                return False
        return True

    refine(float(lo), float(hi), 0)
    del refine  # a self-referring closure: free run's state now, not at a later gc
    out = [cells[0]]
    for c in cells[1:]:
        prev = out[-1]
        if c[3] == prev[3] and _values_close(c[4], prev[4]):
            prev[1] = c[1]
        else:
            out.append(c)
    return out


def _canon_terms(terms):
    """Hashable sign-canonical form of an equation's term list."""
    terms = tuple(sorted((float(b), int(j), float(a)) for a, b, j in terms))
    if not terms:
        return terms
    if terms[0][2] < 0:
        terms = tuple((b, j, -a) for b, j, a in terms)
    return terms


def _terms_from_key(key):
    return [(a, b, j) for b, j, a in key]


def _is_combined_key(key) -> bool:
    """True if key's terms are ExpSum's own: strictly ascending bases and no
    zero coefficient.  Refuses the terms ExpSum refuses."""
    prev = 0.0
    for b, _, a in key:
        _check_term(a, b)
        if not a or b <= prev:
            return False
        prev = b
    return bool(key)


def _solver(lo, hi, tol=ROOT_TOL):
    """solve(key) -> (ExpSum, find_roots on [lo, hi]) of a canonical
    equation key, built and solved once: one dict holds both, so a probe
    hashes each key once.  A combined key that _keeps_sign proves one-signed
    on the finite [lo, hi], as find_roots would, maps to (None, []), unbuilt."""
    cache, screened = {}, (None, [])

    def solve(key):
        hit = cache.get(key)
        if hit is None:
            terms = _terms_from_key(key)
            f = None if _is_combined_key(key) and _keeps_sign(terms, lo, hi) else ExpSum(terms)
            hit = cache[key] = screened if f is None else (f, find_roots(f, lo, hi, tol))
        return hit

    return solve


# ---------------------------------------------------------------------------
# alpha sweeps


def _alpha_segments(family, alpha_range):
    """Pieces and hard boundaries of [lo, hi]; power ranges clipped, split at 0."""
    lo, hi = float(alpha_range[0]), float(alpha_range[1])
    if family in ("power_minmax", "power_average", "sigma_power"):
        lo, hi = max(lo, -SWEEP_CLIP), min(hi, SWEEP_CLIP)
    if not lo < hi:
        raise DomainError(f"empty alpha range (power ranges are clipped to +-{SWEEP_CLIP})")
    if family == "convex_minmax":
        if lo < 0.0 or hi > 1.0:
            raise DomainError("convex sweep range must lie in [0, 1]")
        return [(lo, hi)], ()
    if family in ("power_minmax", "power_average", "sigma_power"):
        if lo < 0.0 < hi:
            return [(lo, 0.0), (0.0, hi)], (0.0,)
        return [(lo, hi)], ()
    raise UnknownFamily(f"family {family!r} has no alpha sweep")


def _make_collector(family, sigma, eqs, memo=None, solve=None):
    """Collector for linkage._run: canonical equations of every executed
    winner-vs-candidate comparison at the evaluation point.  A step's
    distinct candidates are the live keys of the run's interned pair store,
    so no step scans its O(m^2) candidate pairs.  Every equation comes from
    linkage.comparison_terms; sigma_linear's (sigma = 2) are affine in theta,
    the first of the weights (theta, 1 - theta).  A count family's memo maps
    (winner, candidate) multiset keys to the key, () if zero or screened."""

    if family in ("convex_minmax", "power_minmax"):

        def cb(step, winner, ids, _, minD, maxD, sets, distinct):
            # the store's codes index its build's distances, so it keeps the
            # memo: winner code -> codes already compared with it
            w = int(sets.sid[winner])
            done = sets.compared.setdefault(w, {w})
            fresh = sets.live() - done
            if fresh:
                done |= fresh
                wends, *cands = sets.ends([w, *fresh])
                for cends in cands:
                    eqs.add(_canon_terms(comparison_terms(family, *wends, *cends)))

    elif family in ("power_average", "sigma_power", "sigma_linear"):

        def cb(step, winner, ids, _, minD, maxD, sets, distinct):
            seen = {} if memo is None else memo
            w, terms_of = sets.sid[winner], None
            for s in sets.live():
                pair = (sets.keys[w], sets.keys[s])
                key = seen.get(pair)
                if key is None:
                    if terms_of is None:
                        terms_of = multiset_terms(family, sets.support(w), distinct, sigma)
                    key = _canon_terms(terms_of(sets.support(s)))
                    if key and solve is not None and solve(key)[0] is None:
                        key = ()
                    seen[pair] = key
                if key:
                    eqs.add(key)

    else:
        raise UnknownFamily(f"no sweep collector for {family!r}")

    return cb


def _margin_collector(sigma, w, margins):
    """Collector for the sigma_linear grid search: appends (margin at w,
    selected-value difference) for each distinct candidate multiset whose
    selected values differ from the winner's."""

    def cb(step, winner, ids, _, minD, maxD, sets, distinct):
        wset, cands = sets.candidates(winner)
        wsel = _selected(wset, distinct, sigma)
        for cset in sorted(cands, key=_dense_order):
            dv = wsel - _selected(cset, distinct, sigma)
            if np.any(dv):
                margins.append((float(np.dot(w, dv)), tuple(dv)))

    return cb


def _dense_order(support):
    """Sort key that orders sparse multisets like their dense count rows in
    lexicographic order (the order np.unique(axis=0) gives those rows)."""
    idx, cnt = support
    return list(zip((-idx).tolist(), cnt.tolist()))


def sweep_alpha(
    instances: Sequence[ClusteringInstance],
    family: str,
    alpha_range,
    k: int,
    rule: PruningRule,
    obj: Objective,
    variant: str = "fixed",
    sigma: Optional[int] = None,
    tol: float = ROOT_TOL,
) -> PiecewiseProfile:
    """Exact cost profile of the full pipeline over an alpha interval.

    Each interval of the returned profile carries the summed objective of
    the pipeline output, which is constant there.  Power families exclude
    alpha = 0: a range straddling it is split and 0 becomes a hard boundary.
    """
    profile, _ = _sweep_alpha_counted(
        instances, family, alpha_range, k, rule, obj, variant, sigma, tol
    )
    return profile


def _evaluate(instances, mrule, collectors, tables, k, rule, obj, variant):
    """Build, prune and score each instance's tree under one merge rule, with
    its own collector and distance table: (tree fingerprints, summed objective)."""
    fps = []
    total = 0.0
    for inst, collector, table in zip(instances, collectors, tables):
        tree = _run(inst, mrule, collector=collector, table=table)
        res = best_k_pruning(inst, tree, k, rule, variant)
        total += objective_value(inst, obj, res.clusters, res.centers)
        fps.append(tree.fingerprint())
    return tuple(fps), total


def _sweep_segments(segments, run, solve):
    """_lazy_sweep over each piece of segments, with the one root cache solve."""
    return [cell for a, b in segments for cell in _lazy_sweep(a, b, run, solve)]


def _collected_sweep(instances, family, sigma, rule_at, segments, k, rule, obj, variant, tol):
    """Cells of _sweep_segments under the merge rule rule_at(x), and the runs
    made; each instance keeps its own distance table and memo for the sweep."""
    solve = _solver(segments[0][0], segments[-1][1], tol)
    tables = [distance_table(inst.dist) for inst in instances]
    memos = [{} for _ in instances]
    counter = [0]

    def run(x):
        eqs = set()
        collectors = [_make_collector(family, sigma, eqs, memo, solve) for memo in memos]
        fps, total = _evaluate(instances, rule_at(x), collectors, tables, k, rule, obj, variant)
        counter[0] += len(instances)
        return fps, total, eqs

    return _sweep_segments(segments, run, solve), counter[0]


def _sweep_alpha_counted(instances, family, alpha_range, k, rule, obj,
                         variant="fixed", sigma=None, tol=ROOT_TOL):
    segments, hard = _alpha_segments(family, alpha_range)
    cells, evals = _collected_sweep(
        instances, family, sigma, lambda alpha: MergeRule(family=family, alpha=alpha, sigma=sigma),
        segments, k, rule, obj, variant, tol)
    return PiecewiseProfile.from_cells("alpha", cells, hard), evals


def _best_run(profile: PiecewiseProfile):
    """Maximal run of adjacent minimal-cost cells; earliest run on ties.

    Returns (lo, hi, cost, rep). Runs never cross hard boundaries.
    """
    values = profile.values
    vmin = min(values)
    hard = set(profile.hard_boundaries)
    best = None
    i = 0
    while i < len(values):
        if _values_close(values[i], vmin):
            j = i
            while (
                j + 1 < len(values)
                and _values_close(values[j + 1], vmin)
                and profile.breakpoints[j + 1] not in hard
            ):
                j += 1
            if best is None:
                best = (i, j)
            i = j + 1
        else:
            i += 1
    i, j = best
    lo = profile.breakpoints[i]
    hi = profile.breakpoints[j + 1]
    cost = min(values[i : j + 1])
    return lo, hi, cost, 0.5 * (lo + hi)


def erm_alpha(
    instances,
    family,
    alpha_range,
    k,
    rule: PruningRule,
    obj: Objective,
    variant: str = "fixed",
    sigma: Optional[int] = None,
    tol: float = ROOT_TOL,
) -> ErmResult:
    """Minimize total cost over alpha; returns the best closed interval.

    The minimum of a piecewise-constant profile is attained on a union of
    cells; the reported interval is the widest span of consecutive minimal
    cells containing the earliest one, closed at both ends, with the
    midpoint as the concrete parameter choice.
    """
    profile, evals = _sweep_alpha_counted(
        instances, family, alpha_range, k, rule, obj, variant, sigma, tol
    )
    lo, hi, cost, rep = _best_run(profile)
    return ErmResult(
        best_param=rep,
        best_interval=(lo, hi),
        best_cost=cost,
        profile=profile,
        instances_evaluated=evals,
    )


# ---------------------------------------------------------------------------
# exponent sweeps over a fixed tree, and the joint search


def _p_domain(p_range):
    """The exponent sweep's domain: p_range with its top clipped to SWEEP_CLIP."""
    lo, hi = float(p_range[0]), min(float(p_range[1]), SWEEP_CLIP)
    if not (0.0 < lo < hi):
        raise DomainError(f"p range must satisfy 0 < lo < hi, lo below {SWEEP_CLIP}")
    return lo, hi


def _sparse_key(coeffs, bases):
    """_canon_terms of the degree-0 terms coeffs[t] * bases[t]^x, for bases
    that are already unique and ascending, as dp_with_comparisons returns them."""
    if coeffs[0] < 0:
        coeffs = -coeffs
    return tuple(zip(bases.tolist(), itertools.repeat(0), coeffs.tolist()))


def _sweep_p_cells(instances, trees, k, domain, obj, variant, solve):
    """Cells of the summed objective over p in domain = _p_domain(...) for
    fixed trees, and the number of DP runs made; solve is a _solver over
    that domain, which every exponent sweep of a search may share."""
    if len(trees) != len(instances):
        raise DimensionMismatch(f"{len(trees)} trees for {len(instances)} instances")
    counter = [0]

    def run(p):
        eqs = set()
        sigs = []
        total = 0.0
        for inst, tree in zip(instances, trees):
            res, comps, sig = dp_with_comparisons(inst, tree, k, p)
            clusters, centers = res.clusters, res.centers
            if variant == "voronoi":
                clusters, centers = voronoi_reassign(inst, clusters, centers)
            total += objective_value(inst, obj, clusters, centers)
            sigs.append(sig)
            counter[0] += 1
            for coeffs, vals in comps:
                eqs.add(_sparse_key(coeffs, vals))
        return tuple(sigs), total, eqs

    cells = _lazy_sweep(*domain, run, solve)
    return cells, counter[0]


def sweep_p(
    instances, trees, k, p_range, obj: Objective, variant: str = "fixed",
    tol: float = ROOT_TOL,
) -> PiecewiseProfile:
    """Cost profile over the pruning exponent for fixed merge trees."""
    domain = _p_domain(p_range)
    cells, _ = _sweep_p_cells(instances, trees, k, domain, obj, variant, _solver(*domain, tol))
    return PiecewiseProfile.from_cells("p", cells)


def erm_joint(
    instances,
    family,
    alpha_range,
    p_range,
    k,
    obj: Objective,
    variant: str = "fixed",
    tol: float = ROOT_TOL,
) -> ErmResult:
    """Joint minimization over the merge parameter and the pruning exponent.

    The outer sweep refines alpha on merge-tree structure; within each alpha
    cell the trees are fixed and an inner exponent sweep finds the best p.
    The reported cost is exact for the product range.  An exponent sweep
    depends on the trees only through their merge records, so each distinct
    tuple of records is swept once, and every exponent sweep shares one root
    cache.  instances_evaluated counts the DP runs actually made: a tree
    tuple that was already swept costs none.
    """
    segments, hard = _alpha_segments(family, alpha_range)
    domain = _p_domain(p_range)
    psolve = _solver(*domain, tol)
    swept = {}  # merge records of a tree tuple -> its exponent sweep's cells
    evals = [0]

    def trees_at(alpha, eqs=None):
        cb = _make_collector(family, None, eqs) if eqs is not None else None
        return [_run(inst, MergeRule(family=family, alpha=alpha), collector=cb)
                for inst in instances]

    def p_cells(trees):
        key = tuple(tuple(t.merges) for t in trees)
        if key not in swept:
            swept[key], c = _sweep_p_cells(instances, trees, k, domain, obj, variant, psolve)
            evals[0] += c
        return swept[key]

    def run(alpha):
        eqs = set()
        trees = trees_at(alpha, eqs)
        val = min(cell[4] for cell in p_cells(trees))
        fps = tuple(t.fingerprint() for t in trees)
        return fps, val, eqs

    cells = _sweep_segments(segments, run, _solver(segments[0][0], segments[-1][1], tol))
    profile = PiecewiseProfile.from_cells("alpha", cells, hard)
    alo, ahi, cost, arep = _best_run(profile)
    plo, phi, _, prep = _best_run(PiecewiseProfile.from_cells("p", p_cells(trees_at(arep))))

    return ErmResult(
        best_param=(arep, prep),
        best_interval=((alo, ahi), (plo, phi)),
        best_cost=cost,
        profile=profile,
        instances_evaluated=evals[0],
    )


# ---------------------------------------------------------------------------
# weight-vector search for the selector-linear family


def erm_sigma_linear(
    instances,
    sigma: int,
    weight_box,
    k: int,
    rule: PruningRule,
    obj: Objective,
    variant: str = "fixed",
    grid_density: int = 8,
    exact: Optional[bool] = None,
    seed: int = 0,
) -> ErmResult:
    """Tune the weight vector of the selector-linear merge family.

    Merge decisions are invariant to positive scaling of the weights, so for
    sigma = 2 the search is one-dimensional and exact: the normalized first
    weight theta = w1/(w1+w2) is swept with breakpoints at the roots of the
    executed affine comparisons.  For sigma >= 3 the exact mode raises
    SigmaTooLargeForExact; the fallback evaluates a jittered grid with
    grid_density points per axis and returns the best point together with
    the near-tie comparisons active there (the certificate).
    """
    if sigma < 2:
        raise DomainError("sigma must be at least 2")
    box = [(float(a), float(b)) for a, b in weight_box]
    if len(box) != sigma:
        raise DomainError("weight box must have one interval per weight")
    for a, b in box:
        if not (0.0 <= a < b):
            raise DomainError("weight intervals need 0 <= lo < hi")
    if exact is None:
        exact = sigma == 2
    if exact and sigma != 2:
        raise SigmaTooLargeForExact("exact weight search available only for sigma = 2")

    if exact:
        (l1, h1), (l2, h2) = box
        tlo = l1 / (l1 + h2) if (l1 + h2) > 0 else 0.0
        thi = h1 / (h1 + l2) if (h1 + l2) > 0 else 1.0
        tlo = max(tlo, 1e-9)
        thi = min(thi, 1.0 - 1e-9)
        if not tlo < thi:
            raise DomainError("weight box admits no weight rays")

        cells, evals = _collected_sweep(
            instances, "sigma_linear", 2,
            lambda t: MergeRule(family="sigma_linear", weights=(t, 1.0 - t), sigma=2),
            [(tlo, thi)], k, rule, obj, variant, ROOT_TOL)
        profile = PiecewiseProfile.from_cells("theta", cells)
        lo_t, hi_t, cost, rep = _best_run(profile)
        # scale the normalized ray back into the box
        w1, w2 = rep, 1.0 - rep
        t = max(l1 / w1 if w1 > 0 else 0.0, l2 / w2 if w2 > 0 else 0.0)
        if t == 0.0:
            t = min(h1 / w1, h2 / w2)
        weights = (w1 * t, w2 * t)
        return ErmResult(
            best_param=weights,
            best_interval=(lo_t, hi_t),
            best_cost=cost,
            profile=profile,
            instances_evaluated=evals,
        )

    # randomized multi-start grid
    total_pts = grid_density ** sigma
    if total_pts > 200000:
        raise DomainError("grid too large; reduce grid_density")
    rng = np.random.Generator(np.random.Philox(seed))
    axes = [np.linspace(a, b, grid_density) for a, b in box]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, sigma)
    jitter = rng.uniform(-0.5, 0.5, mesh.shape)
    steps = np.array([(b - a) / max(grid_density - 1, 1) for a, b in box])
    pts = np.clip(
        mesh + jitter * steps,
        [a for a, _ in box],
        [b for _, b in box],
    )
    best = None
    count = 0
    tables = [distance_table(inst.dist) for inst in instances]
    for w in pts:
        if not np.any(w > 0):
            continue
        mrule = MergeRule(family="sigma_linear", weights=tuple(w), sigma=sigma)
        margins = []
        collectors = itertools.repeat(_margin_collector(sigma, w, margins))
        _, total = _evaluate(instances, mrule, collectors, tables, k, rule, obj, variant)
        count += len(instances)
        if best is None or total < best[0]:
            cert = [dv for m, dv in margins if abs(m) <= 1e-9]
            best = (total, tuple(float(x) for x in w), cert)
    return ErmResult(
        best_param=best[1],
        best_interval=None,
        best_cost=best[0],
        profile=None,
        instances_evaluated=count,
        certificate=best[2],
    )


# ---------------------------------------------------------------------------
# sample-complexity helpers


def sample_size(H: float, eps: float, delta: float, pdim: float, c: float = 1.0) -> int:
    """Instances needed so empirical costs concentrate within eps.

    ceil(c * (H/eps)^2 * (pdim + ln(1/delta))).
    """
    if not (all(0 < x < math.inf for x in (H, eps, pdim, c)) and 0 < delta < 1):
        raise DomainError("H, eps, pdim, c must be positive and finite, delta in (0, 1)")
    try:
        return math.ceil(c * (H / eps) ** 2 * (pdim + math.log(1.0 / delta)))
    except OverflowError:
        raise Overflow("sample size exceeds floating-point range") from None


def pdim_table(family: str, n: int, sigma: Optional[int] = None,
               beta: Optional[int] = None):
    """Pseudo-dimension growth class and concrete value for a family at size n."""
    if n < 2:
        raise DomainError("need n >= 2")
    log2n = math.log2(n)
    if family in ("convex_minmax", "power_minmax"):
        return "Theta(log n)", log2n
    if family == "power_average":
        return "Theta(n)", float(n)
    if family == "beta_restricted":
        if beta is None or beta < 1:
            raise DomainError("beta_restricted needs beta >= 1")
        return "Theta~(min(beta, n))", min(beta * log2n, float(n))
    if family == "sigma_linear":
        if sigma is None or sigma < 2:
            raise DomainError("sigma_linear needs sigma >= 2")
        return "O(sigma^2 log n)", sigma ** 2 * log2n
    if family == "sigma_power":
        if sigma is None or sigma < 2:
            raise DomainError("sigma_power needs sigma >= 2")
        return "Theta~(sigma)", float(sigma)
    raise UnknownFamily(f"no pseudo-dimension entry for {family!r}")
