"""Rounding of SDP embeddings for quadratic programs, with exact ERM.

Every rounding family here turns an embedding (one unit vector per variable)
and a random projection into a fractional or binary assignment.  For each
family the value, as a function of the family's parameter with the random
draws held fixed, is piecewise simple (constant, or a/s^2 + b/s + c), so
empirical maximization can enumerate the pieces instead of gridding.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ClassTooLarge,
    DimensionMismatch,
    DomainError,
    NonFiniteValue,
    NonNullDiagonal,
    check_seed,
)
from .instances import Embedding, MaxQPInstance

_THRESH_MERGE = 1e-12


# ---------------------------------------------------------------------------
# sampling and value primitives


def sample_z(n: int, count: int, seed: int) -> np.ndarray:
    """count standard-normal projection vectors of dimension n.

    Row i is drawn from its own counter-based stream keyed by seed XOR i, so
    samples are reproducible and independent of evaluation order.
    """
    if n < 1 or count < 1:
        raise DomainError("need n >= 1 and count >= 1")
    check_seed(seed)
    out = np.empty((count, n))
    for i in range(count):
        rng = np.random.Generator(np.random.Philox(key=seed ^ i))
        out[i] = rng.standard_normal(n)
    return out


_Q_STREAM_SALT = 0x9E3779B97F4A7C15


def sample_q(n: int, count: int, seed: int) -> np.ndarray:
    """Uniform [-1, 1] threshold vectors, one stream per row.

    The stream key is salted so Q draws never reuse the Z streams of the
    same master seed.
    """
    if n < 1 or count < 1:
        raise DomainError("need n >= 1 and count >= 1")
    check_seed(seed)
    out = np.empty((count, n))
    for i in range(count):
        rng = np.random.Generator(np.random.Philox(key=(seed ^ i) ^ _Q_STREAM_SALT))
        out[i] = rng.uniform(-1.0, 1.0, n)
    return out


def cut_value(weights: np.ndarray, assignment: np.ndarray) -> float:
    """Weight of edges cut by a +-1 assignment: sum w_ij (1 - h_i h_j) / 2.

    With edge weights summing to 1 this lies in [0, 1].  Symmetric under
    global sign flip.  The diagonal is ignored.
    """
    W = np.asarray(weights, dtype=float)
    h = np.asarray(assignment, dtype=float)
    if np.diag(W).any():  # max-cut graphs have no diagonal to drop
        W = W - np.diag(np.diag(W))
    return float((W.sum() - h @ W @ h) / 4.0)


def qp_value(matrix: np.ndarray, x: np.ndarray) -> float:
    """Quadratic form x^T A x for a fractional assignment x in [-1, 1]^n."""
    A = np.asarray(matrix, dtype=float)
    x = np.asarray(x, dtype=float)
    return float(x @ A @ x)


def _value(inst: MaxQPInstance, x: np.ndarray) -> float:
    if inst.origin == "maxcut":
        return cut_value(inst.matrix, x)
    return qp_value(inst.matrix, x)


def _projections(emb: Embedding, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (emb.d,):
        raise DimensionMismatch(
            f"projection has dimension {z.shape}, embedding needs ({emb.d},)"
        )
    return emb.vectors @ z


# ---------------------------------------------------------------------------
# s-linear rounding: phi_s(y) = clamp(y / s)


def slin_value(inst: MaxQPInstance, emb: Embedding, z: np.ndarray, s: float) -> float:
    """Fractional value of clamp-linear rounding at scale s.

    Coordinates are x_i = clamp(<u_i, z> / s, -1, 1).  Max-cut instances get
    the cut form sum w_ij (1 - x_i x_j) / 2, generic ones the quadratic form.
    """
    if s <= 0:
        raise DomainError("s must be positive")
    y = _projections(emb, z)
    x = np.clip(y / s, -1.0, 1.0)
    return _value(inst, x)


@dataclass
class RoundingErmResult:
    best_param: float
    best_value: float
    thresholds: List[float]
    interval_values: List[float]


def _merge_sorted(vals) -> List[float]:
    vals = sorted(float(v) for v in vals if v > 0)
    out: List[float] = []
    for v in vals:
        if not out or v - out[-1] > _THRESH_MERGE:
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# the prefix forms shared by the exact ERMs


class _Block:
    """The samples of an ERM that share one instance object.

    The instance's matrix M (off-diagonal weights for max-cut, the
    coefficient matrix otherwise) is built once for all of them as S =
    (M + M^T)/2, which has M's quadratic form; a symmetric M is S already.
    The per-sample arrays are stacked into the rows of data.
    """

    def __init__(self, inst: MaxQPInstance):
        A = inst.matrix
        self.maxcut = inst.origin == "maxcut"
        # the cut form ignores the diagonal; most graphs have none to drop
        M = A - np.diag(np.diag(A)) if self.maxcut and np.diag(A).any() else A
        self.weight = float(M.sum()) if self.maxcut else 0.0
        self.S = M if np.array_equal(M, M.T) else (M + M.T) / 2
        self.inst = inst
        self.data: list = []

    def value(self, q):
        """Summed value of the block's samples from their summed forms q."""
        if self.maxcut:
            return (len(self.data[0]) * self.weight - q) / 4.0
        return q


def _check_fit(inst, emb) -> None:
    if emb.n != inst.n:
        raise DimensionMismatch(f"embedding has {emb.n} points, instance has {inst.n}")


def _blocks(samples: Sequence[tuple], arrays) -> dict:
    """Group samples by instance object and stack arrays(sample) per block.

    arrays returns one or more equal-length vectors per sample; a block's
    data then hold a (samples, n) array for each of them.  The blocks are
    keyed by id() of their instance.
    """
    if not samples:
        raise DomainError("need at least one sample")
    blocks = {}
    for sample in samples:
        inst = sample[0]
        _check_fit(inst, sample[1])
        blk = blocks.get(id(inst))
        if blk is None:
            blk = blocks[id(inst)] = _Block(inst)
        blk.data.append(arrays(sample))
    for blk in blocks.values():
        blk.data = [np.array(col) for col in zip(*blk.data)]
        if not all(np.isfinite(col).all() for col in blk.data):
            raise NonFiniteValue("projections hold NaN or infinite entries")
    return blocks


def _piece_forms(S: np.ndarray, step: List[int], w, v, pieces: int):
    """u S u, u S v and v S v of one sample on pieces 0..pieces-1.

    Coordinate j belongs to v (with value v_j) on the pieces before
    step[j] and to u (with value w_j) from piece step[j] on; S is
    symmetric.  With the coordinates permuted by step, moving coordinate k
    from v to u changes each form by sums over one row of S left and right
    of the diagonal, so one permuted triangle, two products and a cumsum
    give the forms after every prefix of moves in O(n^2).
    """
    # Python's sort: numpy's argsort pages in 0.1 MiB of code unused elsewhere
    order = sorted(range(len(step)), key=step.__getitem__)
    upper = S[np.ix_(order, order)]
    upper[np.tri(len(order), dtype=bool)] = 0.0  # the strict upper triangle
    d = S.diagonal()[order]
    w, v = w[order], v[order]
    right = upper @ v  # sum over later coordinates j of S_kj v_j
    left = w @ upper  # sum over earlier coordinates i of w_i S_ik
    uu = np.cumsum(np.concatenate(([0.0], w * (d * w + 2.0 * left))))
    uv = np.cumsum(np.concatenate(([0.0], w * right - v * left)))
    vv = np.cumsum(np.concatenate(([0.0], (v * (d * v + 2.0 * right))[::-1])))[::-1]
    # piece i holds the first #{j : step[j] <= i} coordinates of order in u
    moved = np.cumsum(np.bincount(step, minlength=pieces + 1)[:pieces])
    return uu[moved], uv[moved], vv[moved]


# ---------------------------------------------------------------------------
# s-linear ERM


def _slin_terms(blk: _Block, uu, uv, vv):
    """(a, b, c) of one sample of blk from its u S u, u S v, v S v; x = u/s + v."""
    if blk.maxcut:
        return -0.25 * uu, -0.5 * uv, blk.weight / 4.0 - 0.25 * vv
    return uu, 2.0 * uv, vv


def _direct_coeffs(samples: Sequence[tuple], blocks: dict, clamp_at: float):
    """Mean-value coefficients (a, b, c) of one clamp-linear piece, summed
    sample by sample from the full quadratic forms of u and v."""
    a = b = c = 0.0
    for inst, emb, z in samples:
        y = _projections(emb, z)
        clamped = np.abs(y) >= clamp_at
        u = np.where(clamped, 0.0, y)
        v = np.where(clamped, np.sign(y), 0.0)
        blk = blocks[id(inst)]
        da, db, dc = _slin_terms(blk, u @ blk.S @ u, u @ blk.S @ v, v @ blk.S @ v)
        a, b, c = a + da, b + db, c + dc
    m = len(samples)
    return float(a / m), float(b / m), float(c / m)


def slin_erm(samples: Sequence[tuple]) -> RoundingErmResult:
    """Maximize the mean clamp-linear value over s > 0 for fixed samples.

    samples: (instance, embedding, z) triples.  The mean value restricted to
    an interval between consecutive pooled |<u_i, z>| magnitudes is exactly
    a/s^2 + b/s + c, so each piece is maximized in closed form (endpoints,
    plus the interior critical point s* = -2a/b when it lies inside).
    Each coordinate turns from clamped to linear once, at a piece found by
    one sorted search, so every piece's coefficients of a sample come from
    prefix sums over its coordinates permuted in that order (_piece_forms).
    A winning interior critical point is recomputed from direct per-sample
    sums, so it does not carry the rounding of the prefix sums.
    """
    by_inst = _blocks(samples, lambda s: (_projections(s[1], s[2]),))
    thresholds = _merge_sorted(v for b in by_inst.values() for v in np.abs(b.data[0]).ravel())
    m = len(samples)

    if not thresholds:
        val = _direct_coeffs(samples, by_inst, math.inf)[2]
        return RoundingErmResult(1.0, val, [], [val])

    # On piece i a coordinate is clamped while |y| >= thresholds[i], so it
    # turns linear at piece k = #{t in thresholds : t <= |y|}.  Only y = 0
    # has k = 0.
    pieces = len(thresholds) + 1
    A = B = C = 0.0
    for blk in by_inst.values():
        for y in blk.data[0]:
            k = [bisect.bisect_right(thresholds, a) for a in np.abs(y).tolist()]
            forms = _piece_forms(blk.S, k, y, np.sign(y), pieces)
            da, db, dc = _slin_terms(blk, *forms)
            A, B, C = A + da, B + db, C + dc
    coeffs = zip((A / m).tolist(), (B / m).tolist(), (C / m).tolist())

    best_s, best_v, best_i = math.nan, -math.inf, 0
    interval_values: List[float] = []
    bounds = [0.0] + thresholds + [math.inf]
    for i, (a, b, c) in enumerate(coeffs):
        lo, hi = bounds[i], bounds[i + 1]

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
        vals = [val(s) for s in probes]
        interval_values.append(max(vals))
        for s, v in zip(probes, vals):
            if v > best_v + 1e-15 or (abs(v - best_v) <= 1e-15 and s < best_s):
                best_s, best_v, best_i = s, v, i

    lo, hi = bounds[best_i], bounds[best_i + 1]
    if lo < best_s < hi and math.isfinite(hi):
        a, b, c = _direct_coeffs(samples, by_inst, hi)
        if b != 0.0 and lo < -2.0 * a / b < hi:
            best_s = -2.0 * a / b
            best_v = a / (best_s * best_s) + b / best_s + c
    return RoundingErmResult(best_s, best_v, thresholds, interval_values)


# ---------------------------------------------------------------------------
# sign roundings with at most one flip per coordinate


def _sign_values(blocks: Iterable[_Block], m: int, probes: int, positive) -> List[float]:
    """Mean value at each of `probes` sorted probes of the +-1 assignments
    given by positive(blk, t): for every entry of the block's data, whether
    it is +1 at the probe of index t[entry].

    positive must change at most once per entry along the probes.  A
    vectorized bisection then finds each entry's first flipping probe from
    the very predicate, and Q_t = Q_0 - 4 sum_{a flipped, b not} S_ab x_a x_b,
    from the prefix forms of the flip order, gives every probe's value.
    """
    total = np.zeros(probes)
    for blk in blocks:
        first = positive(blk, 0)
        lo = np.zeros(first.shape, dtype=np.intp)
        hi = np.full(first.shape, probes)
        for _ in range(probes.bit_length()):
            mid = (lo + hi) // 2
            moved = positive(blk, mid) != first
            hi = np.where(moved, mid, hi)
            lo = np.where(moved, lo, mid)
        q = 0.0
        for x, step in zip(np.where(first, 1.0, -1.0), hi):
            # u = -x on the flipped entries: uv is minus the sum, vv[0] is Q_0
            _, uv, vv = _piece_forms(blk.S, step.tolist(), -x, x, probes)
            q = q + (vv[0] + 4.0 * uv)
        total += blk.value(q)
    return (total / m).tolist()


def _best_probe(probes, values) -> Tuple[float, float]:
    best = None
    for p, v in zip(probes, values):
        if best is None or v > best[1] + 1e-15:
            best = (p, v)
    return best


# ---------------------------------------------------------------------------
# outward rotation: blend the embedding with fresh coordinates


def _rotation_parts(emb: Embedding, z2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The embedding part <u_i, z_head> and the fresh part z_tail of z2."""
    z2 = np.asarray(z2, dtype=float)
    if z2.shape != (emb.d + emb.n,):
        raise DimensionMismatch(
            f"rotation projection needs dimension {emb.d + emb.n}, got {z2.shape}"
        )
    return emb.vectors @ z2[: emb.d], z2[emb.d :]


def owr_value(inst: MaxQPInstance, emb: Embedding, z2: np.ndarray, gamma: float) -> float:
    """Value of the sign assignment after rotating each vector outward.

    Vector i becomes (cos(gamma) u_i, sin(gamma) e_i), so the projection is
    cos(gamma) <u_i, z_head> + sin(gamma) z_tail_i with z2 of dimension
    d + n.  gamma = 0 is plain hyperplane rounding; gamma = pi/2 ignores the
    embedding.  sign(0) counts as +1.
    """
    if not 0.0 <= gamma <= math.pi / 2:
        raise DomainError("gamma must lie in [0, pi/2]")
    head, tail = _rotation_parts(emb, z2)
    proj = math.cos(gamma) * head + math.sin(gamma) * tail
    x = np.where(proj >= 0.0, 1.0, -1.0)
    return _value(inst, x)


def _rotation_monotone(cos: np.ndarray, sin: np.ndarray) -> bool:
    """Whether cos never rises and sin never falls along the probes, so
    that cos*head + sin*tail >= 0 changes at most once: IEEE products and
    sums are monotone in each argument when head and tail differ in sign,
    and two strict negatives both round to zero only if cos, sin <= 1/2."""
    return bool(np.all(cos[1:] <= cos[:-1]) and np.all(sin[1:] >= sin[:-1]))


def owr_erm(samples: Sequence[tuple]) -> RoundingErmResult:
    """Maximize the mean outward-rotation value over gamma in [0, pi/2].

    samples: (instance, embedding, z2) triples.  Each coordinate's sign
    flips at most once, at gamma = arctan(-head_i / tail_i) when the two
    parts disagree in sign, so the mean value is piecewise constant; one
    midpoint per interval plus the right endpoint covers all pieces.  The
    probe at which each sign flips comes from a bisection over the probes
    with the very sign test of owr_value, and every probe's value from
    prefix sums over the flip order (_sign_values).  Should math.cos or
    math.sin not be monotone along the probes, each probe's assignments
    are evaluated in full instead.
    """
    blocks = _blocks(samples, lambda s: _rotation_parts(*s[1:])).values()
    cuts = set()
    for blk in blocks:
        for head, tail in zip(*blk.data):
            mask = head * tail < 0
            for g in np.arctan(-head[mask] / tail[mask]):
                if 0.0 < g < math.pi / 2:
                    cuts.add(float(g))
    thresholds = _merge_sorted(cuts)
    bounds = [0.0] + thresholds + [math.pi / 2]
    probes = [0.5 * (bounds[i] + bounds[i + 1]) for i in range(len(bounds) - 1)]
    probes.append(math.pi / 2)

    m = len(samples)
    cos = np.array([math.cos(g) for g in probes])
    sin = np.array([math.sin(g) for g in probes])
    if _rotation_monotone(cos, sin):
        values = _sign_values(blocks, m, len(probes), lambda blk, t:
                              cos[t] * blk.data[0] + sin[t] * blk.data[1] >= 0.0)
    else:
        values = [sum(_value(blk.inst, np.where(cg * hd + sg * tl >= 0.0, 1.0, -1.0))
                      for blk in blocks for hd, tl in zip(*blk.data)) / m
                  for cg, sg in zip(cos.tolist(), sin.tolist())]
    best = _best_probe(probes, values)
    return RoundingErmResult(best[0], best[1], thresholds, values)


# ---------------------------------------------------------------------------
# random projection, randomized threshold


def _threshold_parts(emb: Embedding, z: np.ndarray, q: np.ndarray):
    """The projections <u_i, z> and the thresholds q, checked to match."""
    y = _projections(emb, z)
    q = np.asarray(q, dtype=float)
    if q.shape != y.shape:
        raise DimensionMismatch("threshold vector must have one entry per point")
    return y, q


def rprt_assign(
    inst: MaxQPInstance, emb: Embedding, z: np.ndarray, q: np.ndarray, s: float
) -> np.ndarray:
    """Binary assignment x_i = sign(q_i - s <u_i, z>), sign(0) = +1."""
    if s < 0:
        raise DomainError("s must be nonnegative")
    y, q = _threshold_parts(emb, z, q)
    return np.where(q - s * y >= 0.0, 1.0, -1.0)


def rprt_expect(inst: MaxQPInstance, emb: Embedding, z: np.ndarray, s: float) -> float:
    """Expected value of rprt_assign over the uniform thresholds, in closed form.

    E[x_i] = -clamp(s <u_i, z>), and with a null diagonal the expectation of
    the quadratic value factors into these means, giving exactly the
    fractional clamp value at scale 1/s.  A nonzero diagonal breaks the
    factorization of a generic form (E[x_i^2] = 1, not the squared mean),
    hence the error; the cut value ignores the diagonal.
    """
    if s < 0:
        raise DomainError("s must be nonnegative")
    if inst.origin == "generic" and np.any(np.diag(inst.matrix) != 0.0):
        raise NonNullDiagonal("exact expectation requires a null diagonal")
    y = _projections(emb, z)
    f = np.clip(s * y, -1.0, 1.0)
    return _value(inst, f)


def rprt_erm(samples: Sequence[tuple]) -> RoundingErmResult:
    """Maximize the mean rprt value over the scale s >= 0.

    samples: (instance, embedding, z, q) quadruples.  Coordinate i of sample
    j flips exactly at s = q_i / <u_i, z> when that ratio is positive, so
    the mean of the binary values is piecewise constant with at most one
    threshold per coordinate; midpoints of the gaps (and one probe past the
    last threshold) cover every piece.  The probe at which each sign flips
    comes from a bisection over the probes with the very test of
    rprt_assign, and every probe's value from prefix sums over the flip
    order (_sign_values).
    """
    blocks = _blocks(samples, lambda s: _threshold_parts(*s[1:])).values()
    ratios = []
    for blk in blocks:
        y, q = blk.data
        nz = y != 0.0
        r = q[nz] / y[nz]
        ratios.extend(r[r > 0])
    thresholds = _merge_sorted(ratios)

    bounds = [0.0] + thresholds
    probes = [0.5 * (bounds[i] + bounds[i + 1]) for i in range(len(bounds) - 1)]
    probes.append(bounds[-1] + 1.0)

    # q - s*y is monotone in s >= 0 under IEEE rounding, so each sign flips
    # at most once along the increasing probes
    scale = np.array(probes)
    values = _sign_values(blocks, len(samples), len(probes), lambda blk, t:
                          blk.data[1] - scale[t] * blk.data[0] >= 0.0)
    best = _best_probe(probes, values)
    return RoundingErmResult(best[0], best[1], thresholds, values)


# ---------------------------------------------------------------------------
# the discretized rounding class


@dataclass(frozen=True)
class DiscretizedSpec:
    """A rounding function constant on fixed intervals.

    Identically -1 on (-inf, -B], +1 on [B, inf), 0 at 0, and equal to
    values[i] on the i-th finite interval.  The finite intervals are the
    central (-e^2, e^2) minus the origin and the side intervals between
    consecutive multiples of e^2 out to B, where e is the grid step.
    """

    eps: float
    B: float
    knots: tuple  # ascending interior boundaries, len 2K - 2
    values: tuple  # len 2K - 1

    def apply(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.empty_like(y)
        inner = np.array(self.knots)
        vals = np.array(self.values)
        lowtail = y <= -self.B
        hightail = y >= self.B
        zero = y == 0.0
        mid = ~(lowtail | hightail | zero)
        out[lowtail] = -1.0
        out[hightail] = 1.0
        out[zero] = 0.0
        if inner.size:
            out[mid] = vals[np.searchsorted(inner, y[mid], side="right")]
        else:
            out[mid] = vals[0]
        return out


def _disc_geometry(eps: float):
    """K, B, the number of levels per side and of finite pieces; the level
    values themselves are built only once the class has passed its cap."""
    if not 0.0 < eps < 1.0:
        raise DomainError("discretization step must lie in (0, 1)")
    target = math.sqrt(2.0 * math.log(1.0 / eps))
    e2 = eps * eps
    if e2 == 0.0:
        raise ClassTooLarge(f"discretization step {eps!r} is too fine: eps^2 underflows")
    K = int(math.floor(target / e2)) + 1
    B = K * e2
    levels = int(math.floor((1.0 - 1e-15) / eps))
    pieces = 2 * K - 1
    return K, B, levels, pieces


def discretized_count(eps: float) -> int:
    """Size of the discretized class: (levels per interval)^(finite intervals)."""
    _, _, levels, pieces = _disc_geometry(eps)
    return (2 * levels + 1) ** pieces


def enumerate_discretized(eps: float, cap: int = 10 ** 6) -> Iterator[DiscretizedSpec]:
    """All discretized rounding functions with step eps, lexicographic order.

    Raises ClassTooLarge up front when the full count exceeds cap.
    """
    K, B, levels, pieces = _disc_geometry(eps)
    # the exact count only when it has few digits: it can have billions
    if pieces * math.log10(2 * levels + 1) > math.log10(max(cap, 1)) + 1:
        raise ClassTooLarge(f"about 10^{pieces * math.log10(2 * levels + 1):.0f} rounding "
                            f"functions exceed the cap {cap}")
    count = (2 * levels + 1) ** pieces
    if count > cap:
        raise ClassTooLarge(f"{count} rounding functions exceed the cap {cap}")
    vals = tuple(k * eps for k in range(-levels, levels + 1))
    e2 = eps * eps
    knots = tuple(j * e2 for j in range(-(K - 1), K) if j != 0)
    for table in itertools.product(vals, repeat=pieces):
        yield DiscretizedSpec(eps=eps, B=B, knots=knots, values=table)


def disc_best(
    samples: Sequence[tuple], eps: float, cap: int = 10 ** 6
) -> Tuple[DiscretizedSpec, float]:
    """Best discretized rounding function by mean fractional value.

    samples: (instance, embedding, z) triples.  Every function in the class
    is evaluated; ties keep the earliest in enumeration order.
    """
    if not samples:
        raise DomainError("need at least one sample")
    for inst, emb, _ in samples:
        _check_fit(inst, emb)
    ys = [_projections(emb, z) for _, emb, z in samples]
    m = len(samples)
    best = None
    for spec in enumerate_discretized(eps, cap):
        v = sum(
            _value(inst, spec.apply(y)) for (inst, _, _), y in zip(samples, ys)
        ) / m
        if best is None or v > best[1] + 1e-15:
            best = (spec, v)
    return best


# ---------------------------------------------------------------------------
# low-rank embedding by projected gradient ascent


@dataclass
class EmbedResult:
    embedding: Embedding
    converged: bool
    objective: float
    iterations: int
    history: List[float] = field(default_factory=list)


def embed_bm(
    inst: MaxQPInstance,
    rank: Optional[int] = None,
    seed: int = 0,
    max_iters: int = 10 ** 4,
    grad_tol: float = 1e-6,
) -> EmbedResult:
    """Heuristic unit-vector embedding maximizing sum a_ij <u_i, u_j>.

    Low-rank factorization with projected gradient ascent and backtracking
    line search; rows stay unit length.  Max-cut instances maximize the
    relaxed cut, i.e. the quadratic objective with the negated weight
    matrix.  Deterministic for a given seed.  The result is a stationary
    point, not a certified optimum; converged reports whether the projected
    gradient dropped below tolerance within the iteration budget.
    """
    n = inst.n
    if rank is None:
        rank = max(2, math.ceil(math.sqrt(2.0 * n)))
    if rank < 2:
        raise DomainError("rank must be at least 2")
    M = np.asarray(inst.matrix, dtype=float)
    if inst.origin == "maxcut":
        M = -(M - np.diag(np.diag(M)))
    M = 0.5 * (M + M.T)

    rng = np.random.Generator(np.random.Philox(key=check_seed(seed)))
    V = rng.standard_normal((n, rank))
    V /= np.linalg.norm(V, axis=1, keepdims=True)

    MV = M @ V  # f(V) = sum(V * MV), and an accepted trial's Mc is the next MV
    f = float(np.sum(V * MV))
    history = [f]
    step = 1.0 / (1.0 + np.abs(M).sum(axis=1).max())
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        G = 2.0 * MV
        P = G - (np.sum(G * V, axis=1, keepdims=True)) * V
        pn2 = float(np.sum(P * P))
        if math.sqrt(pn2) <= grad_tol * max(1.0, abs(f)):
            converged = True
            break
        accepted = False
        for _ in range(60):
            cand = V + step * P
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            Mc = M @ cand
            fc = float(np.sum(cand * Mc))
            if fc >= f + 1e-4 * step * pn2:
                V, MV, f = cand, Mc, fc
                history.append(f)
                step *= 1.25
                accepted = True
                break
            step *= 0.5
            if step < 1e-18:
                break
        if not accepted:
            break

    emb = Embedding(n=n, d=rank, vectors=V)
    return EmbedResult(
        embedding=emb,
        converged=converged,
        objective=f,
        iterations=it,
        history=history,
    )
