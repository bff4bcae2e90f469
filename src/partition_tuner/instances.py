"""Instance containers, validation, metric completion, and benchmark generators.

The generators build finite metric instances whose optimal tuning parameters
are known in closed form, so they double as test oracles for the search code.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    AsymmetricMatrix,
    BadAlphaRange,
    DimensionMismatch,
    Disconnected,
    InconsistentMetric,
    NonFiniteDistance,
    NonFiniteValue,
    NonPositiveDistance,
    OffsetsNotDecreasing,
    Overflow,
    ParseError,
    UnknownFamily,
)

SCHEMA = "partition-tuner/1"

CLUSTER_FAMILIES = ("convex_minmax", "power_minmax", "power_average")


@dataclass
class ClusteringInstance:
    """A finite metric space given by a full distance matrix.

    dist must be symmetric (within 1e-12 relative) with a zero diagonal,
    or InconsistentMetric is raised, and its off-diagonal entries must be
    strictly positive, or NonPositiveDistance is raised.  ground_truth, when
    present, holds one integer label per point.
    """

    n: int
    dist: np.ndarray
    ground_truth: Optional[np.ndarray] = None
    k_hint: Optional[int] = None

    def __post_init__(self):
        self.dist = np.asarray(self.dist, dtype=float)
        if self.dist.shape != (self.n, self.n):
            raise DimensionMismatch(
                f"dist has shape {self.dist.shape}, expected ({self.n}, {self.n})"
            )
        if not np.all(np.isfinite(self.dist)):
            raise NonFiniteDistance("dist holds NaN or infinite entries")
        if not _symmetric(self.dist) or np.any(np.diag(self.dist) != 0.0):
            raise InconsistentMetric("dist must be symmetric with a zero diagonal")
        if np.any(self.dist[~np.eye(self.n, dtype=bool)] <= 0.0):
            raise NonPositiveDistance(
                "off-diagonal distances must be positive (duplicate points?)"
            )
        if self.ground_truth is not None:
            self.ground_truth = np.asarray(self.ground_truth, dtype=int)
            if self.ground_truth.shape != (self.n,):
                raise DimensionMismatch("ground_truth length does not match n")


@dataclass
class MaxQPInstance:
    """Quadratic-form maximization instance over sign vectors.

    For origin "maxcut" the matrix is the nonnegative edge-weight matrix and
    values are cut weights sum(w_ij * (1 - x_i x_j) / 2).  For origin
    "generic" values are the raw quadratic form x^T A x.  A max-cut matrix
    must be symmetric (within 1e-12 relative), or AsymmetricMatrix is
    raised; a generic form depends only on the symmetric part of its matrix.
    """

    n: int
    matrix: np.ndarray
    origin: str = "generic"

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.shape != (self.n, self.n):
            raise DimensionMismatch(
                f"matrix has shape {self.matrix.shape}, expected ({self.n}, {self.n})"
            )
        if self.origin not in ("generic", "maxcut"):
            raise ParseError(f"unknown origin {self.origin!r}")
        if not np.all(np.isfinite(self.matrix)):
            raise NonFiniteValue("matrix holds NaN or infinite entries")
        if np.any(np.diag(self.matrix) < 0):
            raise ParseError("matrix diagonal must be nonnegative")
        if self.origin == "maxcut" and not _symmetric(self.matrix):
            # a cut value reads each edge as the mean of w_ij and w_ji
            raise AsymmetricMatrix("max-cut weight matrix must be symmetric")


def _symmetric(M: np.ndarray) -> bool:
    """Symmetric within 1e-12 of the largest entry's magnitude."""
    return bool(np.all(np.abs(M - M.T) <= 1e-12 * np.max(np.abs(M), initial=0.0)))


@dataclass
class Embedding:
    """Unit vectors u_1..u_n in R^d, one per instance point (rows)."""

    n: int
    d: int
    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.shape != (self.n, self.d):
            raise DimensionMismatch(
                f"vectors have shape {self.vectors.shape}, expected ({self.n}, {self.d})"
            )
        if not np.all(np.isfinite(self.vectors)):
            raise NonFiniteValue("vectors hold NaN or infinite entries")


@dataclass
class FixtureSpec:
    """Known-answer annotations attached to a generated instance."""

    kind: str
    family: Optional[str] = None
    alphas: Optional[tuple] = None
    alpha_star: Optional[float] = None
    p: Optional[float] = None
    expected_witness: Optional[float] = None
    expected_profile: Optional[tuple] = None
    expected_breakpoints: Optional[tuple] = None


@dataclass
class ValidationReport:
    is_symmetric: bool
    is_metric: bool
    worst_triangle_violation: float
    distinct_distance_count: int


def validate(inst: ClusteringInstance, tol: float = 1e-12) -> ValidationReport:
    """Check symmetry and the triangle inequality, and count distinct distances.

    Distances closer than tol are counted as a single value.
    """
    D = inst.dist
    n = inst.n
    is_symmetric = bool(np.array_equal(D, D.T)) or bool(
        np.all(np.abs(D - D.T) <= tol)
    )
    worst = 0.0
    for j in range(n):
        # positive entries of D - (D[:,j] + D[j,:]) are violations through j
        viol = D - (D[:, j][:, None] + D[j, :][None, :])
        np.fill_diagonal(viol, -np.inf)
        m = float(np.max(viol))
        if m > worst:
            worst = m
    is_metric = worst <= tol
    iu = np.triu_indices(n, k=1)
    vals = np.sort(D[iu])
    if vals.size == 0:
        count = 0
    else:
        count = 1 + int(np.sum(np.diff(vals) > tol))
    return ValidationReport(is_symmetric, is_metric, worst, count)


def complete_metric_max(n: int, specified: Iterable[tuple]) -> np.ndarray:
    """Fill unspecified distances with shortest-path lengths over the given edges.

    specified is an iterable of (i, j, value) with value > 0.  The result is
    the largest metric completion: every missing pair gets the length of the
    shortest path through specified edges.  Raises Disconnected if some pair
    has no path, InconsistentMetric if a specified distance exceeds a
    shortest-path bound (or a pair is given two different values).
    """
    S = np.full((n, n), np.inf)
    np.fill_diagonal(S, 0.0)
    for i, j, v in specified:
        if i == j:
            raise InconsistentMetric(f"self-distance specified for point {i}")
        if S[i, j] not in (np.inf, v):
            raise InconsistentMetric(
                f"pair {(min(i, j), max(i, j))} specified twice with different values")
        S[i, j] = S[j, i] = v
    return _complete(S)


def _complete(S: np.ndarray) -> np.ndarray:
    """Floyd-Warshall completion of S, a symmetric matrix of specified distances
    with a zero diagonal and inf where no distance is given; errors as in
    complete_metric_max."""
    D = S.copy()
    for k in range(len(D)):
        np.minimum(D, D[:, k][:, None] + D[k, :][None, :], out=D)
    if np.any(np.isinf(D)):
        raise Disconnected("specified distance graph is not connected")
    given = np.isfinite(S)
    bad = np.argwhere(given & (D < S - 1e-12))
    if len(bad):
        i, j = bad[0]
        raise InconsistentMetric(
            f"specified d({i},{j}) = {S[i, j]} exceeds shortest-path bound {D[i, j]}"
        )
    # re-stamp to kill accumulated round-off on consistent inputs
    D[given] = S[given]
    return D


# ---------------------------------------------------------------------------
# generator: two-gadget parameter-recovery instance


def two_gadget_spread(alpha_star: float, family: str) -> float:
    """Distance from the swing point to its alternative pair at the target parameter."""
    if family == "convex_minmax":
        return 1.2 - 0.1 * alpha_star
    if family in ("power_minmax", "power_average"):
        a = alpha_star
        return ((1.1 ** a + 1.2 ** a) / 2.0) ** (1.0 / a)
    raise UnknownFamily(f"no two-gadget form for family {family!r}")


def gen_two_gadget(alpha_star: float, family: str, p: float = 1.0):
    """Two mirrored 105-point gadgets whose joint 4-clustering cost dips at alpha_star.

    Each gadget has anchor pairs {a,b} and {x,y}, a swing point c, and four
    25-point blocks A, B, X, Y.  The swing point's side flips exactly at
    alpha_star, in opposite directions for the two gadgets, so empirical risk
    minimization over alpha recovers alpha_star.  Unspecified distances are
    shortest-path completed; the two gadgets sit 100 apart.  Each gadget is
    completed on its own: a path that leaves a gadget costs at least 200,
    more than any distance inside one, so this equals, bit for bit, the
    completion of the whole instance with every cross-gadget pair given 100.
    """
    if family not in CLUSTER_FAMILIES:
        raise UnknownFamily(f"unknown family {family!r}")
    if not (isinstance(alpha_star, numbers.Real) and math.isfinite(alpha_star)):
        raise BadAlphaRange(f"alpha_star must be a finite real number, got {alpha_star!r}")
    if family == "convex_minmax":
        if not 0.0 <= alpha_star <= 1.0:
            raise BadAlphaRange("convex form needs alpha_star in [0, 1]")
        dstar = two_gadget_spread(alpha_star, family)
    else:
        if alpha_star == 0.0:
            raise BadAlphaRange("power forms need nonzero alpha_star")
        try:
            dstar = two_gadget_spread(alpha_star, family)
        except (OverflowError, ZeroDivisionError):
            dstar = math.nan
        # a power mean of 1.1 and 1.2 lies strictly between them unless lost to
        # round-off, as for tiny |alpha_star|; else the swing point never flips
        if not 1.1 < dstar < 1.2:
            raise BadAlphaRange(f"alpha_star {alpha_star!r} is out of float range "
                                "for the power form")

    # one gadget: a, b, c, x, y = 0..4, then the blocks A, B, X, Y
    S = np.full((105, 105), np.inf)
    A, B, X, Y = slice(5, 30), slice(30, 55), slice(55, 80), slice(80, 105)

    def put(i, j, v):
        S[i, j] = S[j, i] = v

    for block in (A, B, X, Y):
        put(block, block, 1.5)
    np.fill_diagonal(S, 0.0)
    put(A, B, 1.6)
    put(X, Y, 1.6)
    put(0, 1, 1.0)
    put(3, 4, 1.0)
    put(2, slice(5, 55), 1.51)
    put(slice(0, 2), slice(5, 55), 1.6)
    put(slice(3, 5), slice(55, 105), 1.6)
    put(3, 55, 1.51)
    put(4, 80, 1.51)
    dist = np.full((210, 210), 100.0)
    # the swing point c leans to {a,b} in the first gadget and to {x,y} in the second
    for g, (near, far) in enumerate(((0, 3), (3, 0))):
        put(2, near, 1.1)
        put(2, near + 1, 1.2)
        put(2, slice(far, far + 2), dstar)
        half = slice(105 * g, 105 * g + 105)
        dist[half, half] = _complete(S)
    labels = np.zeros(210, dtype=int)
    labels[3:5] = labels[55:105] = 1
    labels[105:] = labels[:105] + 2

    inst = ClusteringInstance(n=210, dist=dist, ground_truth=labels, k_hint=4)
    fix = FixtureSpec(
        kind="two_gadget",
        family=family,
        alpha_star=alpha_star,
        p=p,
        expected_witness=alpha_star,
        expected_breakpoints=(alpha_star,),
    )
    return inst, fix


# ---------------------------------------------------------------------------
# generator: oscillating-profile instance


def oscillation_spread(alpha: float, family: str) -> float:
    """Spread distance that makes a swing point flip sides exactly at alpha."""
    if family == "convex_minmax":
        return 1.4 - 0.1 * alpha
    if family == "power_minmax":
        if alpha == 0.0:
            return math.sqrt(1.3 * 1.4)
        return ((1.3 ** alpha + 1.4 ** alpha) / 2.0) ** (1.0 / alpha)
    raise UnknownFamily(f"no oscillation form for family {family!r}")


def oscillation_profile_bounds(n: int, p: float):
    """Closed-form low/high plateau values for the sweep cost profile."""
    groups = (n - 2) // 6
    r_low = groups * (4.0 * 1.42 ** p + 2.0 * 1.46 ** p)
    r_high = r_low + 2.0 * (1.47 ** p - 1.46 ** p)
    return r_low, r_high


def gen_oscillation(n: int, alphas: Sequence[float], family: str, p: float = 1.0):
    """Instance whose alpha-sweep cost profile alternates between two plateaus.

    n must be 2 mod 6 and len(alphas) <= floor(n/7); alphas are strictly
    increasing inside (0, 0.7).  For any sweep window inside (0, 0.7) the
    k=2 pruning cost (power-sum objective at exponent p) is piecewise
    constant in alpha with breakpoints exactly at the alphas, alternating
    r_low, r_high, r_low, ...
    """
    if family not in ("convex_minmax", "power_minmax"):
        raise UnknownFamily(f"unknown oscillation family {family!r}")
    if n % 6 != 2 or n < 8:
        raise BadAlphaRange("n must be 2 mod 6 and at least 8")
    groups = (n - 2) // 6
    alphas = tuple(float(a) for a in alphas)
    if len(alphas) > n // 7:
        raise BadAlphaRange(f"at most {n // 7} alphas for n = {n}")
    if any(not (0.0 < a < 0.7) for a in alphas):
        raise BadAlphaRange("alphas must lie strictly inside (0, 0.7)")
    if any(alphas[i] >= alphas[i + 1] for i in range(len(alphas) - 1)):
        raise BadAlphaRange("alphas must be strictly increasing")
    used = len(alphas)

    D = np.full((n, n), 1.5)
    np.fill_diagonal(D, 0.0)
    anchor, anchor2 = 0, 1

    def put(i, j, v):
        D[i, j] = v
        D[j, i] = v

    put(anchor, anchor2, 2.0)
    labels = np.zeros(n, dtype=int)
    labels[anchor2] = 1
    for g in range(groups):
        base = 2 + 6 * g
        x, y, z, x2, y2, z2 = range(base, base + 6)
        put(x, y, 1.0)
        put(x2, y2, 1.0)
        put(x, z, 1.3)
        put(y, z, 1.4)
        spread = oscillation_spread(alphas[g], family) if g < used else 1.45
        put(x2, z, spread)
        put(y2, z, spread)
        # Balance point z2 sits at one fixed distance from both pairs, so it
        # always completes whichever side the swing point z left behind.
        for q in (x, y, x2, y2):
            put(z2, q, 1.41)
        put(z, z2, 2.0)
        # Cross-side pair links must exceed the default fill: at 1.5 the
        # pair-vs-triple comparison (1.3, 1.5) would overtake the 1.41
        # balance link at alpha = 0.45, truncating the valid window.
        put(x, x2, 1.7)
        put(x, y2, 1.7)
        put(y, x2, 1.7)
        put(y, y2, 1.7)
        put(anchor, x, 1.42)
        put(anchor, y, 1.42)
        put(anchor2, x2, 1.42)
        put(anchor2, y2, 1.42)
        put(anchor, x2, 1.5)
        put(anchor, y2, 1.5)
        put(anchor2, x, 1.5)
        put(anchor2, y, 1.5)
        # swing-point anchor links; v alternates so the profile oscillates
        if g < used:
            # the gap closes near p = 101.7, long before 1.46 ** p overflows
            if not 0 < p < 1e3 or 2.0 * 1.46 ** p <= 1.47 ** p:
                raise BadAlphaRange("exponent p too extreme for the plateau gap")
            v = 1.47 if g % 2 == 0 else (2.0 * 1.46 ** p - 1.47 ** p) ** (1.0 / p)
            if family == "convex_minmax":
                put(anchor, z, v)
                put(anchor2, z, 1.46)
                put(anchor, z2, 1.46)
                put(anchor2, z2, v)
            else:
                put(anchor, z, 1.46)
                put(anchor2, z, v)
                put(anchor, z2, v)
                put(anchor2, z2, 1.46)
        else:
            put(anchor, z, 1.46)
            put(anchor2, z, 1.46)
            put(anchor, z2, 1.46)
            put(anchor2, z2, 1.46)
        labels[[x, y]] = 0
        labels[[x2, y2]] = 1
        # reference labels describe the left end of the sweep (nothing flipped)
        if g < used and family == "convex_minmax":
            labels[z] = 1
            labels[z2] = 0
        else:
            labels[z] = 0
            labels[z2] = 1

    inst = ClusteringInstance(n=n, dist=D, ground_truth=labels, k_hint=2)
    r_low, r_high = oscillation_profile_bounds(n, p)
    profile = tuple(r_low if t % 2 == 0 else r_high for t in range(used + 1))
    fix = FixtureSpec(
        kind="oscillation",
        family=family,
        alphas=alphas,
        p=p,
        expected_witness=0.5 * (r_low + r_high),
        expected_profile=profile,
        expected_breakpoints=alphas,
    )
    return inst, fix


# ---------------------------------------------------------------------------
# generator: round-structured lower-bound instance

# Interior profile boundaries over (1, 3) for the default offsets, rounds <= 3,
# refined to 1e-12 by bisection of the assembly sign conditions.
_GENERAL_LB_BREAKPOINTS = {
    1: (2.0,),
    2: (1.8835820134767611, 2.0, 2.1241007029760404),
    3: (
        1.8824531026124338,
        1.8835820134767611,
        1.8847115919572996,
        2.0,
        2.1228178308541237,
        2.1241007029760404,
        2.125384464993755,
    ),
}


def gen_general_lb(rounds: int, offsets: Optional[Sequence[float]] = None):
    """Chain of paired points whose assembly order flips 2^rounds - 1 times.

    Two anchor pairs sit 2 apart; rounds further pairs (p_i, q_i) each join
    one anchor side depending on the sign of an exponential-sum equation in
    alpha whose offset terms come from earlier rounds.  Sweeping the
    average-power family over (1, 3) yields 2^rounds intervals with
    pairwise-distinct merge trees.
    """
    if not (1 <= rounds <= 12):
        raise BadAlphaRange("rounds must be between 1 and 12")
    if offsets is None:
        offsets = tuple(10.0 ** (-2 * (j + 2)) for j in range(rounds))
    offsets = tuple(float(o) for o in offsets)
    if len(offsets) != rounds:
        raise OffsetsNotDecreasing("need one offset per round")
    for j, o in enumerate(offsets):
        if o <= 0 or 1.5 + o == 1.5 or 1.5 - o == 1.5:
            raise OffsetsNotDecreasing(f"offset {o} unresolvable at round {j + 1}")
        if j > 0 and o >= offsets[j - 1]:
            raise OffsetsNotDecreasing("offsets must decrease strictly")

    n = 4 + 2 * rounds
    dmid = math.sqrt((1.1 ** 2 + 1.2 ** 2) / 2.0)
    D = np.zeros((n, n))
    pa, qa, pb, qb = 0, 1, 2, 3

    def put(i, j, v):
        D[i, j] = v
        D[j, i] = v

    put(pa, qa, 1.0)
    put(pb, qb, 1.0)
    for i in (pa, qa):
        for j in (pb, qb):
            put(i, j, 2.0)
    for r in range(rounds):
        pi, qi = 4 + 2 * r, 5 + 2 * r
        put(pi, qi, 2.0)
        for t in (pi, qi):
            put(pa, t, 1.1)
            put(qa, t, 1.2)
            put(pb, t, dmid)
            put(qb, t, dmid)
        for s in range(r):
            ps, qs = 4 + 2 * s, 5 + 2 * s
            for t in (pi, qi):
                put(ps, t, 1.5 + offsets[s])
                put(qs, t, 1.5 - offsets[s])

    inst = ClusteringInstance(n=n, dist=D, ground_truth=None, k_hint=2)
    fix = FixtureSpec(
        kind="general_lb",
        family="power_average",
        expected_breakpoints=_GENERAL_LB_BREAKPOINTS.get(rounds)
        if offsets == tuple(10.0 ** (-2 * (j + 2)) for j in range(rounds))
        else None,
    )
    return inst, fix


# ---------------------------------------------------------------------------
# generator: block-structured quadratic instance with projection witnesses


def _k4_constants():
    b = 5.0 * math.sqrt(2.0 / 3.0) - (5.0 * math.sqrt(2.0) + 1.0) / 3.0
    c = (10.0 * math.sqrt(2.0) - 1.0) / 3.0
    d = 5.0 * math.sqrt(2.0 / 3.0) + (5.0 * math.sqrt(2.0) + 1.0) / 3.0
    ctil = b + c + b * c - d - b * d - c * d
    return b, c, d, ctil


def k4_witness(n: int, j: int) -> float:
    """Threshold value separating the j-th projection from the coarser ones."""
    b, c, d, ctil = _k4_constants()
    if j == 1:
        return 0.5 - (b / c ** 2 - 1.0) / (3.0 * n)
    scale = 7.0 ** (2 ** (j - 1) - 2)
    return 0.5 - ctil / (3.0 * n * scale * d ** 2)


def gen_k4_shatter(n: int, j: int):
    """Disjoint unit-weight four-cliques, their optimal embedding, and a projection.

    Returns (instance, embedding, z, witness).  The embedding places each
    clique as a regular tetrahedron in its own four coordinates.  The
    projection vector z scales block t by 7^t and keeps only blocks divisible
    by 2^(j-1); thresholded rounding of <u_i, z> at s separates value levels
    around the returned witness.
    """
    if n % 4 != 0 or n < 4:
        raise BadAlphaRange("n must be a positive multiple of 4")
    if j < 1:
        raise BadAlphaRange("j must be at least 1")
    blocks = n // 4
    w = 2.0 / (3.0 * n)
    W = np.zeros((n, n))
    s23 = math.sqrt(2.0 / 3.0)
    s2 = math.sqrt(2.0)
    block_vecs = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [-1.0 / 3.0, 2.0 * s2 / 3.0, 0.0, 0.0],
            [-1.0 / 3.0, -s2 / 3.0, s23, 0.0],
            [-1.0 / 3.0, -s2 / 3.0, -s23, 0.0],
        ]
    )
    zblock = np.array([1.0, 5.0, 5.0, 1.0])
    U = np.zeros((n, n))
    z = np.zeros(n)
    stride = 2 ** (j - 1)
    for t in range(blocks):
        sl = slice(4 * t, 4 * t + 4)
        W[sl, sl] = w * (1.0 - np.eye(4))
        U[sl, sl.start : sl.start + 4] = block_vecs
        if t % stride == 0:
            scale = 7.0 ** t
            if math.isinf(scale):
                raise Overflow("block scale exceeds float range")
            z[sl] = scale * zblock
    inst = MaxQPInstance(n=n, matrix=W, origin="maxcut")
    emb = Embedding(n=n, d=n, vectors=U)
    return inst, emb, z, k4_witness(n, j)


# ---------------------------------------------------------------------------
# serialization: every file is one JSON object tagged with SCHEMA and a type


def _jsonable(obj):
    """json.dump fallback: numpy arrays and scalars become lists and numbers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _write_doc(path, kind: str, body: dict) -> None:
    """Write body's fields as one JSON object after the schema and type tags."""
    with open(path, "w") as fh:
        json.dump({"schema": SCHEMA, "type": kind, **body}, fh, default=_jsonable)


def _read_doc(path, what: str, kinds: tuple = (), build=dict):
    """Read the JSON object at path and return build(doc).

    With kinds, the object must carry the schema tag and one of these type
    tags.  Undecodable bytes, invalid JSON, a value that is not an object, a
    wrong tag, and a field that build lacks (KeyError) or cannot convert
    (TypeError, ValueError) raise ParseError; its message names the path
    and `what` the file should hold.  A missing or unreadable file raises
    its OSError.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad bytes, bad or too deep JSON
        raise ParseError(f"{path}: {what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: {what} must be a JSON object")
    if kinds and (doc.get("schema") != SCHEMA or doc.get("type") not in kinds):
        raise ParseError(
            f"{path}: expected schema {SCHEMA!r} and type {' or '.join(kinds)}, got "
            f"{doc.get('schema')!r} and {doc.get('type')!r}"
        )
    try:
        return build(doc)
    except KeyError as exc:
        raise ParseError(f"{path}: {what} lacks the field {exc}") from exc
    except (TypeError, ValueError) as exc:  # entries that are not numbers
        raise ParseError(f"{path}: {what} has an ill-typed field: {exc}") from exc


def _int(doc: dict, key: str, each: bool = False):
    """doc[key], a JSON integer (not a float or a bool), or with each a list of them."""
    val = doc[key]
    vals = val if each else [val]
    if not (isinstance(vals, list) and all(type(v) is int for v in vals)):
        raise TypeError(f"{key!r} must be {'a list of integers' if each else 'an integer'}, "
                        f"got {val!r}")
    return val


def fixture_path(path) -> str:
    """Sidecar path for an instance file: foo.json -> foo.fixture.json."""
    path = str(path)
    if path.endswith(".json"):
        return path[: -len(".json")] + ".fixture.json"
    return path + ".fixture.json"


def save_instance(path, inst, fixture: Optional[FixtureSpec] = None) -> None:
    """Write an instance as JSON; a fixture, if given, goes to the sidecar
    path (foo.json -> foo.fixture.json)."""
    if isinstance(inst, ClusteringInstance):
        _write_doc(path, "clustering", {"n": inst.n, "dist": inst.dist,
                                        "ground_truth": inst.ground_truth,
                                        "k_hint": inst.k_hint})
    elif isinstance(inst, MaxQPInstance):
        _write_doc(path, "maxqp", {"n": inst.n, "matrix": inst.matrix, "origin": inst.origin})
    else:
        raise ParseError(f"cannot serialize object of type {type(inst).__name__}")
    if fixture is not None:
        _write_doc(fixture_path(path), "fixture", vars(fixture))


def load_instance(path):
    """Read an instance written by save_instance."""

    def build(doc):
        if doc["type"] == "maxqp":
            return MaxQPInstance(n=_int(doc, "n"), matrix=np.array(doc["matrix"], dtype=float),
                                 origin=doc.get("origin", "generic"))
        gt, hint = (doc.get(key) is not None for key in ("ground_truth", "k_hint"))
        return ClusteringInstance(
            n=_int(doc, "n"),
            dist=np.array(doc["dist"], dtype=float),
            ground_truth=np.array(_int(doc, "ground_truth", True), dtype=int) if gt else None,
            k_hint=_int(doc, "k_hint") if hint else None,
        )

    return _read_doc(path, "instance", ("clustering", "maxqp"), build)


def load_fixture(path) -> FixtureSpec:
    """Read the fixture sidecar written next to an instance file.  kind is
    its one required field; lists come back as tuples."""

    def build(doc):
        vals = {f.name: doc.get(f.name) for f in fields(FixtureSpec)}
        vals["kind"] = doc["kind"]
        return FixtureSpec(**{k: tuple(v) if isinstance(v, list) else v
                              for k, v in vals.items()})

    try:
        return _read_doc(fixture_path(path), "fixture", ("fixture",), build)
    except FileNotFoundError:
        raise ParseError(f"no fixture sidecar for {path}") from None


def save_embedding(path, emb: Embedding) -> None:
    _write_doc(path, "embedding", {"n": emb.n, "d": emb.d, "vectors": emb.vectors})


def load_embedding(path) -> Embedding:
    """Read an embedding written by save_embedding."""
    return _read_doc(path, "embedding", ("embedding",), lambda doc: Embedding(
        n=_int(doc, "n"), d=_int(doc, "d"), vectors=np.array(doc["vectors"], dtype=float)))
