"""Exact parameter search: root finding, lazy sweeps, and ERM drivers.

A sweep runs the full pipeline at one point of a parameter interval, collects
every comparison the run executed as an equation in the parameter, and splits
the interval at the equations' roots.  Piecewise constancy between roots is
what makes the recursion exact: the first structural change met when moving
away from the evaluation point must flip one of the executed comparisons.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import (DimensionMismatch, DomainError, Overflow, RootNotConverged,
                     SigmaTooLargeForExact, SweepDiverged, UnknownFamily)
from .instances import ClusteringInstance
from .linkage import (
    _NEEDS_COUNTS,
    MergeRule,
    MergeTree,
    MultisetIds,
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
        if self.terms:
            _check_spread(self.terms[0][1], self.terms[-1][1])

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


def _check_spread(bmin, bmax):
    """Refuse a sum whose largest base over its smallest overflows: scaling
    by the largest base would underflow the smallest to 0."""
    if not bmax / bmin < math.inf:
        raise Overflow(f"base ratio {bmax:g} / {bmin:g} exceeds the float range")


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


def _finite(f: ExpSum, x: float) -> float:
    """f(x) divided by its largest term's magnitude, finite where f(x)
    overflows (x != 0)."""
    logs = [math.log(abs(a)) + x * lb + (j * math.log(abs(x)) if j else 0.0)
            for (a, _, j), lb in zip(f.terms, f._logs)]
    top = max(logs)
    return math.fsum(math.copysign(math.exp(lg - top), a * x ** j)
                     for lg, (a, _, j) in zip(logs, f.terms))


def _bisect(g, f, lo, hi, flo, tol):
    """A root of g = f / b_max^x in [lo, hi]; where g overflows, f gives its sign."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid == lo or mid == hi:
            return mid
        fm = g(mid)
        if not math.isfinite(fm):
            fm = _finite(f, mid)
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
    if deg == 1:
        r = [float(-coef[1] / coef[0])]
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
    sum either.  Where f / b_max^x overflows, the sign of f over its
    largest term stands in for it.  Raises DomainError unless lo < hi are
    finite.
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


_SCREEN_CELLS = 2 ** 16  # padded cells per numpy pass of _keeps_signs
_SCREEN_TERMS = 512  # fewer terms than this are screened one sum at a time


def _keeps_signs(a, b, lengths, lo, hi) -> np.ndarray:
    """_keeps_sign of each degree-0 sum, sum i being the next lengths[i]
    terms (a, b), bases ascending, its tests run in numpy on one zero-padded
    row per sum: all rows in one pass while they fit in _SCREEN_CELLS cells,
    else by power-of-two length bucket.  numpy's powers may differ from
    math's by a few ulps, and the partial sums then by err, so a row is
    decided only where each test clears its threshold by a factor of 4 and
    by err, and b^x and the magnitude sums stay below 1e300 on each side it
    reads; _keeps_sign decides the rest, and every sum of a batch of fewer
    than _SCREEN_TERMS terms, where numpy's fixed cost would dominate."""
    ends = np.cumsum(lengths)
    starts = ends - lengths
    positive = np.add.reduceat(a > 0, starts, dtype=np.int64)
    keeps = (positive == 0) | (positive == lengths)  # exact, as _keeps_sign's shortcut
    decided = keeps.copy()
    rows = np.flatnonzero(~keeps if a.size >= _SCREEN_TERMS else [])
    groups = [rows]
    if not 0 < rows.size * lengths.max(initial=0) <= _SCREEN_CELLS:
        bucket, groups = np.frexp(lengths[rows])[1], []
        for e in np.unique(bucket):
            of = rows[bucket == e]
            step = max(1, _SCREEN_CELLS // int(lengths[of].max()))
            groups += [of[i:i + step] for i in range(0, of.size, step)]
    for rows in groups:
        size = lengths[rows][:, None]
        col = np.arange(size.max())
        valid = col < size
        sides = []
        for x, first in ((lo, size - 1), (hi, 0)):  # from the largest base down, then up
            at = starts[rows][:, None] + np.where(valid, np.abs(first - col), first)
            with np.errstate(over="ignore", invalid="ignore"):
                r = (b[at] / b[at[:, :1]]) ** x
                c = np.where(valid, a[at], 0.0) * r
                s, mag = np.cumsum(c, axis=1), np.cumsum(np.abs(c), axis=1)
                bound = (1e-12 + 2.3e-16 * (abs(x) + size)) * mag
                err = 2.3e-16 * (size + 4) * mag
                sign, s = (s > 0) == (c[:, :1] > 0), np.abs(s)
                passes = sign & (s > 4.0 * bound) & (np.abs(c) > 4e-300)
                fails = ~sign & (s > err) | (s < bound / 4.0 - err) | (np.abs(c) < 2.5e-301)
            safe = ((r < 1e300) & (mag < 1e300)).all(1)
            sides.append((safe & (passes | ~valid).all(1), safe & (fails & valid).any(1)))
        (keep_lo, fail_lo), (keep_hi, fail_hi) = sides
        keeps[rows] = keep_lo | fail_lo & keep_hi
        decided[rows] = keeps[rows] | fail_lo & fail_hi
    for i in np.flatnonzero(~decided).tolist():
        seg = slice(starts[i], ends[i])
        keeps[i] = _keeps_sign(list(zip(a[seg].tolist(), b[seg].tolist(), itertools.repeat(0))),
                               lo, hi)
    return keeps


def _roots_rec(f: ExpSum, lo: float, hi: float, tol: float):
    """find_roots of a nonempty f."""
    if _keeps_sign(f.terms, lo, hi):
        return []
    g = f._scaled()
    dg = g.derivative()
    if dg.terms and all(b == 1.0 for _, b, j in g.terms):
        return _poly_roots(g.terms, lo, hi)
    crit = _roots_rec(dg, lo, hi, tol) if dg.terms else IDENTICALLY_ZERO
    if crit is IDENTICALLY_ZERO:
        # the derivative is empty or vanishes: g is constant, or empty where
        # scaling cancelled every term
        mid = 0.5 * (lo + hi)
        if abs(g(mid)) <= 1e-12 * _local_scale(g, mid):
            return IDENTICALLY_ZERO
        return []
    pts = [lo] + sorted(c for c in crit if lo < c < hi) + [hi]
    vals = [g(x) for x in pts]
    roots = []
    for i, (x, v) in enumerate(zip(pts, vals)):
        if not math.isfinite(v):
            vals[i] = _finite(f, x)  # no root, though inf <= 1e-12 * inf holds
        elif abs(v) <= 1e-12 * _local_scale(g, x):
            roots.append(x)
            vals[i] = 0.0
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0 or fb == 0.0:
            continue
        if (fa > 0) != (fb > 0):
            roots.append(_bisect(g, f, a, b, fa, tol))
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

    instances_evaluated counts the pipeline runs the search actually made:
    tree builds for the alpha searches, and for erm_joint pruning DP runs,
    none for a tree tuple whose exponent sweep was already done.  An
    instance whose result a probe reuses (see _lazy_sweep) costs no run.
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


def _lazy_sweep(segments, runs, combine, solve):
    """Refine each (lo, hi) of segments into cells on which every instance's
    run is constant: (cells [lo, hi, rep, fingerprints, value, parts], runs
    made), where parts lists (lo, hi, payloads) for each cell merged into it.

    runs[i](x) -> (fingerprint, payload, equation_keys) runs instance i at
    x, and combine(payloads) is a cell's value.  solve(key) -> (ExpSum,
    roots over the whole sweep domain), cached by the caller, or (None, [])
    for an equation proven one-signed on the whole domain or identically
    zero.  That one has no root and, in exact arithmetic, passes the test
    of _holds anywhere (where its terms overflow, _strict_sign cannot
    tell), so it is left out.
    Adjacent cells of one segment that agree in fingerprints and value are
    merged back.

    A probe splits [a, b] at the roots of every instance's equations and
    refines each piece at its midpoint.  There an instance reuses its result
    from the probe above, or else its latest run, when _holds shows that a
    run would return it, so only the instances whose own comparisons change
    sign are run again; a piece where every instance reuses its result and
    no root lies inside is a cell without a run.
    """
    cells, starts, made = [], {a for a, _ in segments}, 0

    def refine(a, b, held, depth):
        if depth > 80:
            raise SweepDiverged("sweep refinement failed to converge")
        mid = 0.5 * (a + b)
        now, runs_made = [], 0
        for i, run in enumerate(runs):
            tried = dict.fromkeys((held[i], last[i]))  # the probe above's, then the latest
            r = next((r for r in tried if r and _holds(r, mid)), None)
            if r is None:
                r = last[i] = _Run(mid, run, solve)
                runs_made += 1
            now.append(r)
        guard = 1e-12 * max(1.0, abs(a), abs(b))
        found = {x for r in now for x in r.roots if a + guard < x < b - guard}
        if not found:
            fps, payloads, _ = zip(*(r.result for r in now))
            cells.append([a, b, mid, fps, combine(payloads), [(a, b, payloads)]])
            return runs_made
        pts = sorted(found)
        merged = [pts[0]]
        for x in pts[1:]:
            if x - merged[-1] > BREAK_MERGE_TOL:
                merged.append(x)
        bounds = [a] + merged + [b]
        return runs_made + sum(refine(p, q, now, depth + 1) for p, q in zip(bounds, bounds[1:]))

    for a, b in segments:
        last = [None] * len(runs)  # each instance's latest run; none crosses a segment end
        made += refine(float(a), float(b), [None] * len(runs), 0)
    del refine  # a self-referring closure: free the runs' state now, not at a later gc
    out = [cells[0]]
    for c in cells[1:]:
        prev = out[-1]
        if c[0] not in starts and c[3] == prev[3] and _values_close(c[4], prev[4]):
            prev[1] = c[1]
            prev[5] += c[5]
        else:
            out.append(c)
    return out, made


class _Run:
    """One instance's run at x: its result (fingerprint, payload, keys), the
    equations it executed that solve did not screen, and their roots."""

    __slots__ = ("x", "result", "eqs", "roots", "signs")

    def __init__(self, x, run, solve):
        self.x, self.result = x, run(x)
        solved = [s for s in map(solve, self.result[2]) if s[0] is not None]
        self.eqs = [f for f, _ in solved]
        self.roots = [r for _, rs in solved for r in rs]
        self.signs = None  # each equation's _strict_sign at x, once asked for


def _holds(rec, x):
    """True if a run at x returns rec's result: no root of rec's equations
    lies in the closed interval between rec.x and x, widened by a guard, and
    each equation has one strict sign at both points.  A run at x then makes
    the same decisions step by step: each step's candidates follow from the
    merges already made, and every comparison it executes keeps its sign.
    The root test is the cheap one, and rejects a probe across the
    instance's own roots; the sign test catches a root the solver missed."""
    lo, hi = min(rec.x, x), max(rec.x, x)
    guard = 1e-12 * max(1.0, abs(lo), abs(hi))
    if any(lo - guard <= r <= hi + guard for r in rec.roots):
        return False
    if rec.signs is None:
        rec.signs = [_strict_sign(f, rec.x) for f in rec.eqs]
    return all(s is not None and _strict_sign(f, x) is s for f, s in zip(rec.eqs, rec.signs))


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
    """True if key's terms are ExpSum's own and of degree 0: strictly
    ascending bases, no zero coefficient.  Refuses the terms ExpSum refuses."""
    prev = 0.0
    for b, j, a in key:
        _check_term(a, b)
        if not a or b <= prev or j:
            return False  # ExpSum checks the key
        prev = b
    if key:
        _check_spread(key[0][0], prev)
    return bool(key)


def _one_signed(keys, lo, hi) -> np.ndarray:
    """For each key (bases ascending), True if an interval enclosure (Moore,
    Kearfott & Cloud 2009) proves its degree-0 sum f one-signed on [lo, hi].
    On each of 64 pieces every term a b^x is monotone, so the sums of the
    lesser and of the greater of its end values bound f from below
    (P_lo - N_hi) and above (P_hi - N_lo).  One bound must keep its sign on
    every piece, clear of 1e-9 of P_hi + N_hi and of the zero tests' scale
    floor 1e-300, both for f, which _strict_sign reads, and for the
    f / b_max^x that find_roots solves.  Non-finite bounds prove nothing."""
    b, j, a = np.array([t for key in keys for t in key]).T
    lengths = np.array([len(key) for key in keys])
    ends = np.cumsum(lengths)
    lb = np.log(b)
    lb = np.concatenate((lb, lb - np.repeat(lb[ends - 1], lengths)))  # f, then f / b_max^x
    starts = np.concatenate((ends - lengths, ends - lengths + len(a)))
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.concatenate((a, a))[:, None] * np.exp(lb[:, None] * np.linspace(lo, hi, 65))
        low, high, size = (np.add.reduceat(op(w[:, :-1], w[:, 1:]), starts) for op, w in (
            (np.minimum, v), (np.maximum, v), (np.maximum, np.abs(v))))
        margin = 1e-9 * np.maximum(size, 1e-300)
        proven = (low > margin).all(1) | (high < -margin).all(1)
    return (np.add.reduceat(j, starts[: len(keys)]) == 0) & proven[: len(keys)] & proven[len(keys):]


class _Solver:
    """solve(key) -> (ExpSum, find_roots on [lo, hi]) of a canonical
    equation key, built and solved once, or the screened entry (None, []),
    unbuilt, for an empty or identically zero key and a combined key that
    _keeps_sign or _one_signed proves one-signed.  resolve(keys) batches."""

    screened = (None, [])

    def __init__(self, lo, hi, tol=ROOT_TOL):
        self.lo, self.hi, self.tol, self.cache = lo, hi, tol, {}

    def __call__(self, key):
        if key not in self.cache:
            self.resolve((key,))
        return self.cache[key]

    def resolve(self, keys, screened=False):
        """Settle the new keys: the combined ones meet _keeps_signs in one
        pass (a few, _keeps_sign), unless screened says they did, and the
        unproven ones _one_signed in batches of about 1024 terms; the others
        are solved."""
        combined = []
        for key in dict.fromkeys(keys):
            if key in self.cache:
                continue
            if _is_combined_key(key):
                combined.append(key)
            else:
                self.cache[key] = self._solve(key)
        if combined and not screened:
            if sum(map(len, combined)) < _SCREEN_TERMS:  # numpy's fixed cost would dominate
                proven = [_keeps_sign(_terms_from_key(key), self.lo, self.hi) for key in combined]
            else:
                b, _, a = np.array([t for key in combined for t in key]).T
                proven = _keeps_signs(a, b, np.fromiter(map(len, combined), np.int64),
                                      self.lo, self.hi)
            for key in itertools.compress(combined, proven):
                self.cache[key] = self.screened
            combined = [key for key, p in zip(combined, proven) if not p]
        ends = itertools.accumulate(map(len, combined))  # batches of about 1024 terms
        for _, batch in itertools.groupby(zip(combined, ends), lambda key_end: key_end[1] // 1024):
            batch = [key for key, _ in batch]
            for key, proven in zip(batch, _one_signed(batch, self.lo, self.hi)):
                self.cache[key] = self.screened if proven else self._solve(key)

    def _solve(self, key):
        f = ExpSum(_terms_from_key(key))
        roots = find_roots(f, self.lo, self.hi, self.tol)
        return self.screened if roots is IDENTICALLY_ZERO else (f, roots)


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
    """Collector for linkage._run: adds to eqs the key (_canon_terms of
    linkage.comparison_terms) of every winner-vs-candidate comparison the
    run executes, but for identically zero ones and those solve, if given,
    proves one-signed; sigma_linear's (sigma = 2) are affine in theta, the
    first of the weights (theta, 1 - theta).  memo = (compared, open), an
    instance's for a sweep (else the pair store's, for its build), maps a
    winner id to the candidate ids compared with it, and to the keys of
    those not proven.  A step's fresh pairs are one set difference with the
    store's live ids and its open ones one intersection; the fresh ones
    wait for the build's last step (m = 2), where _encode keys them."""
    if family not in ("convex_minmax", "power_minmax", *_NEEDS_COUNTS):
        raise UnknownFamily(f"no sweep collector for {family!r}")
    queue = []

    def cb(step, winner, ids, sets):
        compared, opened = memo or sets.memo
        w, live = int(sets.sid[winner]), sets.live()
        done = compared.setdefault(w, {w})
        fresh = live - done
        if fresh:
            done |= fresh
            queue.append((w, list(fresh)))
        known = opened.get(w)
        if known:
            eqs.update(map(known.__getitem__, known.keys() & live))
        if len(ids) == 2:
            for win, cand, key in _encode(family, sigma, queue, sets, solve):
                opened.setdefault(win, {})[cand] = key
                eqs.add(key)
            queue.clear()

    return cb


def _encode(family, sigma, queue, sets, solve):
    """(w, s, key) for each queued winner id w and fresh candidate id s whose
    key is not empty and, with solve, stays open after solve.resolve."""
    if family == "power_average":
        out = _average_keys(queue, sets, solve)
    else:
        out = []
        for w, fresh in queue:
            if family in ("convex_minmax", "power_minmax"):
                wends, *cands = sets.ends([w, *fresh])
                terms = (comparison_terms(family, *wends, *cends) for cends in cands)
            else:
                terms = map(multiset_terms(family, sets.support(w), sets.distinct, sigma),
                            map(sets.support, fresh))
            out += [(w, s, key) for s, key in zip(fresh, map(_canon_terms, terms)) if key]
    if solve is not None:
        solve.resolve([key for *_, key in out], screened=family == "power_average")
        out = [pair for pair in out if solve.cache[pair[2]] is not solve.screened]
    return out


def _average_keys(queue, sets, solve):
    """power_average's pairs for _encode, in one numpy pass.  Coefficients
    n_c w_t - n_w c_t over the union supports are exact integers, so a key
    equals _canon_terms(average_terms(...)); only those that _keeps_signs
    (with solve) leaves open are made as tuples."""
    _check_spread(sets.distinct[0], sets.distinct[-1])
    wins = [w for w, fresh in queue for _ in fresh]
    cands = [s for _, fresh in queue for s in fresh]
    (wi, wc, wn), (ci, cc, cn) = sets.supports(wins), sets.supports(cands)
    nw, nc = (np.add.reduceat(cnt, np.cumsum(n) - n) for cnt, n in ((wc, wn), (cc, cn)))
    pair, beta = np.arange(len(cands)), sets.beta
    code = np.concatenate((np.repeat(pair, wn) * beta + wi, np.repeat(pair, cn) * beta + ci))
    code, at = np.unique(code, return_inverse=True)
    coef = np.bincount(at, np.concatenate((np.repeat(nc, wn) * wc, -np.repeat(nw, cn) * cc)))
    code, coef = code[coef != 0], coef[coef != 0]
    pair, t = np.divmod(code, beta)
    size = np.bincount(pair, minlength=len(cands))
    keep = size > 0
    a = coef * np.repeat(np.sign(coef[(np.cumsum(size) - size)[keep]]), size[keep])
    b = sets.distinct[t]
    if solve is not None:
        keep[keep] = ~_keeps_signs(a, b, size[keep], solve.lo, solve.hi)
    chosen = np.repeat(keep, size)
    a, b, ends = a[chosen].tolist(), b[chosen].tolist(), np.cumsum(size[keep]).tolist()
    keys = [tuple(zip(b[i:j], itertools.repeat(0), a[i:j])) for i, j in zip([0] + ends, ends)]
    return list(zip(itertools.compress(wins, keep), itertools.compress(cands, keep), keys))


def _margin_collector(sigma, w, margins):
    """Collector for the sigma_linear grid search: appends (margin at w,
    selected-value difference) for each distinct candidate multiset whose
    selected values differ from the winner's."""

    def cb(step, winner, ids, sets):
        wset, cands = sets.support(sets.sid[winner]), map(sets.support, sets.live())
        wsel = _selected(wset, sets.distinct, sigma)
        for cset in sorted(cands, key=_dense_order):
            dv = wsel - _selected(cset, sets.distinct, sigma)
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
    return erm_alpha(instances, family, alpha_range, k, rule, obj, variant, sigma, tol).profile


def _cost(inst, tree, k, rule, obj, variant):
    """The objective of tree's best k-pruning under rule."""
    res = best_k_pruning(inst, tree, k, rule, variant)
    return objective_value(inst, obj, res.clusters, res.centers)


def _total(values):
    """The values added in order, as the pipeline's own loops add them."""
    return functools.reduce(operator.add, values, 0.0)


def _collected_sweep(instances, family, sigma, rule_at, segments, score, combine, tol):
    """_lazy_sweep of combine over each instance's score(inst, tree), for its
    tree under the merge rule rule_at(x); each instance keeps its own
    distance table, multiset ids and memo for the sweep."""
    solve = _Solver(segments[0][0], segments[-1][1], tol)

    def runner(inst):
        table, memo = distance_table(inst.dist), ({}, {})
        ids = MultisetIds(table[0].size) if family in _NEEDS_COUNTS else None

        def run(x):
            eqs = set()
            collector = _make_collector(family, sigma, eqs, memo, solve)
            tree = _run(inst, rule_at(x), collector=collector, table=table, ids=ids)
            return tree.fingerprint(), score(inst, tree), eqs

        return run

    return _lazy_sweep(segments, [runner(inst) for inst in instances], combine, solve)


def _best_run(profile: PiecewiseProfile):
    """Maximal run of adjacent minimal-cost cells; earliest run on ties.

    Returns (lo, hi, cost, rep). Runs never cross hard boundaries.
    """
    values, bps, hard = profile.values, profile.breakpoints, set(profile.hard_boundaries)
    vmin = min(values)
    i = j = next(i for i, v in enumerate(values) if _values_close(v, vmin))
    while j + 1 < len(values) and _values_close(values[j + 1], vmin) and bps[j + 1] not in hard:
        j += 1
    lo, hi = bps[i], bps[j + 1]
    return lo, hi, min(values[i : j + 1]), 0.5 * (lo + hi)


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
    segments, hard = _alpha_segments(family, alpha_range)
    cells, evals = _collected_sweep(
        instances, family, sigma, lambda alpha: MergeRule(family=family, alpha=alpha, sigma=sigma),
        segments, lambda inst, tree: _cost(inst, tree, k, rule, obj, variant), _total, tol)
    profile = PiecewiseProfile.from_cells("alpha", cells, hard)
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
    fixed trees, and the number of DP runs made; solve is a _Solver over
    that domain, which every exponent sweep of a search may share."""
    if len(trees) != len(instances):
        raise DimensionMismatch(f"{len(trees)} trees for {len(instances)} instances")

    def runner(inst, tree):
        def run(p):
            res, comps, sig = dp_with_comparisons(inst, tree, k, p)
            clusters, centers = res.clusters, res.centers
            if variant == "voronoi":
                clusters, centers = voronoi_reassign(inst, clusters, centers)
            keys = {_sparse_key(coeffs, vals) for coeffs, vals in comps}
            solve.resolve(keys)
            return sig, objective_value(inst, obj, clusters, centers), keys

        return run

    return _lazy_sweep([domain], list(map(runner, instances, trees)), _total, solve)


def sweep_p(
    instances, trees, k, p_range, obj: Objective, variant: str = "fixed",
    tol: float = ROOT_TOL,
) -> PiecewiseProfile:
    """Cost profile over the pruning exponent for fixed merge trees."""
    domain = _p_domain(p_range)
    cells, _ = _sweep_p_cells(instances, trees, k, domain, obj, variant, _Solver(*domain, tol))
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
    tuple of records is swept once, when a cell first needs its value, and
    every exponent sweep shares one root cache.  The best alpha's trees are
    those of the swept cell around it.  instances_evaluated counts the DP
    runs actually made: a tree tuple that was already swept costs none.
    """
    segments, hard = _alpha_segments(family, alpha_range)
    domain = _p_domain(p_range)
    psolve = _Solver(*domain, tol)
    swept = {}  # merge records of a tree tuple -> (its exponent sweep's cells, DP runs)

    def p_cells(trees):
        key = tuple(tuple(t.merges) for t in trees)
        if key not in swept:
            swept[key] = _sweep_p_cells(instances, trees, k, domain, obj, variant, psolve)
        return swept[key][0]

    cells, _ = _collected_sweep(
        instances, family, None, lambda alpha: MergeRule(family=family, alpha=alpha), segments,
        lambda inst, tree: tree, lambda trees: min(cell[4] for cell in p_cells(trees)), tol)
    profile = PiecewiseProfile.from_cells("alpha", cells, hard)
    alo, ahi, cost, arep = _best_run(profile)
    # the trees of the swept cell holding arep; at a cell end merges may tie, so build there
    trees = next((t for c in cells for lo, hi, t in c[5] if lo < arep < hi), None)
    if trees is None:
        trees = [_run(inst, MergeRule(family=family, alpha=arep)) for inst in instances]
    plo, phi, _, prep = _best_run(PiecewiseProfile.from_cells("p", p_cells(trees)))

    return ErmResult(
        best_param=(arep, prep),
        best_interval=((alo, ahi), (plo, phi)),
        best_cost=cost,
        profile=profile,
        instances_evaluated=sum(runs for _, runs in swept.values()),
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
            [(tlo, thi)], lambda inst, tree: _cost(inst, tree, k, rule, obj, variant), _total,
            ROOT_TOL)
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
        cb = _margin_collector(sigma, w, margins)
        total = _total(_cost(inst, _run(inst, mrule, collector=cb, table=table), k, rule, obj,
                             variant) for inst, table in zip(instances, tables))
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
