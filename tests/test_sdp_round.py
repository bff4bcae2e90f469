"""Rounding schemes for embedded quadratic maximization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_tuner import (
    ClassTooLarge,
    ClusteringInstance,
    DimensionMismatch,
    DiscretizedSpec,
    DomainError,
    Embedding,
    MaxQPInstance,
    NonNullDiagonal,
    Objective,
    PruningRule,
    cut_value,
    disc_best,
    discretized_count,
    embed_bm,
    enumerate_discretized,
    erm_sigma_linear,
    gen_k4_shatter,
    owr_erm,
    owr_value,
    qp_value,
    rprt_assign,
    rprt_erm,
    rprt_expect,
    sample_q,
    sample_z,
    slin_erm,
    slin_value,
)

from oracles import reference_cut_value, reference_embed_bm


def _unit_rows(rng, n, d):
    V = rng.normal(size=(n, d))
    return V / np.linalg.norm(V, axis=1, keepdims=True)


def _mixed_samples(seed=3):
    """One clique-block max-cut sample and one generic sample."""
    rng = np.random.default_rng(seed)
    inst1, emb1, z1, _ = gen_k4_shatter(8, 1)
    A = rng.normal(size=(6, 6))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    inst2 = MaxQPInstance(n=6, matrix=A, origin="generic")
    emb2 = Embedding(n=6, d=4, vectors=_unit_rows(rng, 6, 4))
    z2 = sample_z(4, 1, seed)[0]
    return [(inst1, emb1, z1), (inst2, emb2, z2)]


# ---------------------------------------------------------------------------
# sampling streams


def test_sample_z_reproducible_per_row():
    a = sample_z(6, 3, seed=42)
    b = sample_z(6, 5, seed=42)
    assert np.array_equal(a, b[:3])
    c = sample_z(6, 3, seed=43)
    assert not np.array_equal(a, c)
    with pytest.raises(DomainError):
        sample_z(0, 1, 0)
    with pytest.raises(DomainError):
        sample_z(3, 0, 0)


def test_sample_q_range_and_salt():
    q = sample_q(8, 4, seed=42)
    assert q.shape == (4, 8)
    assert np.all(q >= -1.0) and np.all(q <= 1.0)
    assert np.array_equal(q, sample_q(8, 4, seed=42))
    # the salt keeps threshold draws off the projection streams
    z = sample_z(8, 4, seed=42)
    assert not np.array_equal(np.sign(q), np.sign(np.clip(z, -1, 1)))
    assert abs(q.mean()) < 0.2


# ---------------------------------------------------------------------------
# base values


@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 1000),
)
@settings(max_examples=50, deadline=None)
def test_cut_value_sign_flip_invariant(n, seed):
    rng = np.random.default_rng(seed)
    W = np.abs(rng.normal(size=(n, n)))
    W = 0.5 * (W + W.T)
    h = np.where(rng.normal(size=n) > 0, 1.0, -1.0)
    assert cut_value(W, h) == pytest.approx(cut_value(W, -h), rel=1e-12)
    direct = sum(
        W[i, j] * (1 - h[i] * h[j]) / 2.0 for i in range(n) for j in range(i + 1, n)
    )
    W0 = W - np.diag(np.diag(W))
    assert cut_value(W, h) == pytest.approx(direct - np.diag(W0).sum(), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("diagonal", [0.0, 0.3])
def test_cut_value_matches_the_off_diagonal_copy_bit_for_bit(diagonal):
    # the copy is made only for a nonzero diagonal; either way the same
    # matrix is summed, so the value keeps its last bit
    rng = np.random.default_rng(5)
    W = np.where(rng.random((40, 40)) < 0.2, rng.random((40, 40)), 0.0)
    W = W + W.T
    np.fill_diagonal(W, diagonal)
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, 40)  # slin and owr values are fractional
        for h in (x, np.sign(x)):
            assert cut_value(W, h) == reference_cut_value(W, h)


def test_cut_value_ignores_diagonal():
    W = np.array([[5.0, 1.0], [1.0, 7.0]])
    h = np.array([1.0, -1.0])
    assert cut_value(W, h) == pytest.approx(1.0)
    assert cut_value(W, np.array([1.0, 1.0])) == pytest.approx(0.0)


def test_qp_value():
    A = np.array([[1.0, 2.0], [2.0, -1.0]])
    x = np.array([0.5, -1.0])
    # a11 x1^2 + 2 a12 x1 x2 + a22 x2^2
    assert qp_value(A, x) == pytest.approx(0.25 - 2.0 - 1.0)
    assert qp_value(A, x) == pytest.approx(x @ A @ x)


# ---------------------------------------------------------------------------
# clamp-linear rounding


def test_slin_value_limits(k4_bundle):
    inst, emb, z, _ = k4_bundle
    with pytest.raises(DomainError):
        slin_value(inst, emb, z, 0.0)
    with pytest.raises(DomainError):
        slin_value(inst, emb, z, -1.0)
    y = emb.vectors @ z
    # tiny s saturates every coordinate to its sign
    x = np.where(y >= 0, 1.0, -1.0)
    x[y == 0.0] = 0.0
    assert slin_value(inst, emb, z, 1e-12) == pytest.approx(cut_value(inst.matrix, x))
    # huge s sends the fractional assignment to zero
    W = inst.matrix - np.diag(np.diag(inst.matrix))
    assert slin_value(inst, emb, z, 1e12) == pytest.approx(W.sum() / 4.0)


def test_slin_mean_is_quadratic_in_inverse_scale():
    samples = _mixed_samples()
    m = len(samples)

    def mean_val(s):
        return sum(slin_value(i, e, z, s) for i, e, z in samples) / m

    pooled = sorted(
        abs(v) for _, e, z in samples for v in (e.vectors @ z) if abs(v) > 0
    )
    bounds = [0.0] + pooled + [pooled[-1] * 3.0]
    for i in range(len(bounds) - 1):
        lo, hi = bounds[i], bounds[i + 1]
        if hi - lo < 1e-9:
            continue
        ss = [lo + f * (hi - lo) for f in (0.15, 0.4, 0.65, 0.9)]
        if ss[0] == 0.0:
            ss = [s + 0.05 * (hi - lo) for s in ss]
        # fit v = a t^2 + b t + c with t = 1/s through three probes,
        # then the fourth probe must land on the same quadratic
        T = np.array([[1 / s ** 2, 1 / s, 1.0] for s in ss[:3]])
        coef = np.linalg.solve(T, np.array([mean_val(s) for s in ss[:3]]))
        pred = coef @ np.array([1 / ss[3] ** 2, 1 / ss[3], 1.0])
        assert mean_val(ss[3]) == pytest.approx(pred, abs=1e-8)


def test_slin_erm_dominates_grid_and_is_attained():
    samples = _mixed_samples(seed=9)
    res = slin_erm(samples)
    assert res.thresholds == sorted(res.thresholds)
    assert all(t > 0 for t in res.thresholds)
    assert len(res.interval_values) == len(res.thresholds) + 1
    m = len(samples)
    attained = sum(slin_value(i, e, z, res.best_param) for i, e, z in samples) / m
    assert attained == pytest.approx(res.best_value, abs=1e-12)
    s_hi = max(res.thresholds) * 2.0
    grid = max(
        sum(slin_value(i, e, z, s) for i, e, z in samples) / m
        for s in np.linspace(s_hi / 3000, s_hi, 3000)
    )
    assert res.best_value >= grid - 1e-12


def test_slin_erm_degenerate_projection():
    inst, emb, _, _ = gen_k4_shatter(8, 1)
    z0 = np.zeros(emb.d)
    res = slin_erm([(inst, emb, z0)])
    assert res.thresholds == []
    W = inst.matrix
    assert res.best_value == pytest.approx(W.sum() / 4.0)
    with pytest.raises(DomainError):
        slin_erm([])


# ---------------------------------------------------------------------------
# outward rotation


def test_owr_value_endpoints():
    rng = np.random.default_rng(17)
    inst, emb, _, _ = gen_k4_shatter(8, 1)
    z2 = rng.normal(size=emb.d + emb.n)
    head = emb.vectors @ z2[: emb.d]
    tail = z2[emb.d:]
    x_head = np.where(head >= 0, 1.0, -1.0)
    x_tail = np.where(tail >= 0, 1.0, -1.0)
    assert owr_value(inst, emb, z2, 0.0) == pytest.approx(cut_value(inst.matrix, x_head))
    assert owr_value(inst, emb, z2, math.pi / 2) == pytest.approx(
        cut_value(inst.matrix, x_tail)
    )
    with pytest.raises(DomainError):
        owr_value(inst, emb, z2, -0.1)
    with pytest.raises(DomainError):
        owr_value(inst, emb, z2, 2.0)
    with pytest.raises(DimensionMismatch):
        owr_value(inst, emb, z2[:-1], 0.5)


def test_owr_erm_dominates_grid():
    rng = np.random.default_rng(18)
    inst, emb, _, _ = gen_k4_shatter(12, 1)
    samples = [
        (inst, emb, rng.normal(size=emb.d + emb.n)) for _ in range(3)
    ]
    res = owr_erm(samples)
    assert len(res.thresholds) <= 3 * inst.n
    m = len(samples)
    attained = sum(owr_value(i, e, z2, res.best_param) for i, e, z2 in samples) / m
    assert attained == pytest.approx(res.best_value, abs=1e-12)
    grid = max(
        sum(owr_value(i, e, z2, g) for i, e, z2 in samples) / m
        for g in np.linspace(0.0, math.pi / 2, 800)
    )
    assert res.best_value >= grid - 1e-12
    with pytest.raises(DomainError):
        owr_erm([])


# ---------------------------------------------------------------------------
# random projection, randomized threshold


def test_rprt_assign_zero_ties_go_positive():
    inst, emb, z, _ = gen_k4_shatter(8, 1)
    y = emb.vectors @ z
    x = rprt_assign(inst, emb, z, q=2.0 * y, s=2.0)
    assert np.all(x == 1.0)
    with pytest.raises(DomainError):
        rprt_assign(inst, emb, z, q=np.zeros(8), s=-0.5)
    with pytest.raises(DimensionMismatch):
        rprt_assign(inst, emb, z, q=np.zeros(7), s=0.5)


def test_rprt_expect_equals_clamp_value_at_inverse_scale(k4_bundle):
    inst, emb, z, _ = k4_bundle
    for s in (0.3, 1.0, 2.7):
        assert rprt_expect(inst, emb, z, s) == pytest.approx(
            slin_value(inst, emb, z, 1.0 / s), rel=1e-12
        )
    W = inst.matrix
    assert rprt_expect(inst, emb, z, 0.0) == pytest.approx(W.sum() / 4.0)


def test_rprt_expect_rejects_nonzero_diagonal():
    A = np.array([[1.0, 2.0], [2.0, 0.0]])
    inst = MaxQPInstance(n=2, matrix=A, origin="generic")
    emb = Embedding(n=2, d=2, vectors=np.eye(2))
    with pytest.raises(NonNullDiagonal):
        rprt_expect(inst, emb, np.ones(2), 1.0)


def test_rprt_expect_ignores_the_diagonal_of_a_max_cut_instance():
    # the cut value ignores w_ii, so the closed form holds with a diagonal
    W = np.array([[0.5, 1.0], [1.0, 0.0]])
    emb = Embedding(n=2, d=2, vectors=np.array([[1.0, 0.0], [0.6, 0.8]]))
    z = np.array([0.3, -0.9])
    with_diag = MaxQPInstance(n=2, matrix=W, origin="maxcut")
    zeroed = MaxQPInstance(n=2, matrix=W - np.diag(np.diag(W)), origin="maxcut")
    for s in (0.0, 0.4, 1.0, 3.0):
        assert rprt_expect(with_diag, emb, z, s) == rprt_expect(zeroed, emb, z, s)


def test_rprt_expect_matches_monte_carlo():
    inst, emb, z, _ = gen_k4_shatter(8, 1)
    s = 0.8
    exact = rprt_expect(inst, emb, z, s)
    rng = np.random.default_rng(5)
    B = 20000
    q = rng.uniform(-1.0, 1.0, size=(B, inst.n))
    y = emb.vectors @ z
    x = np.where(q - s * y >= 0.0, 1.0, -1.0)
    W = inst.matrix - np.diag(np.diag(inst.matrix))
    vals = (W.sum() - np.einsum("bi,ij,bj->b", x, W, x)) / 4.0
    se = vals.std(ddof=1) / math.sqrt(B)
    assert abs(vals.mean() - exact) <= 4.0 * se


def test_rprt_erm_dominates_grid():
    rng = np.random.default_rng(29)
    inst, emb, _, _ = gen_k4_shatter(12, 1)
    samples = []
    for j in range(3):
        samples.append((inst, emb, sample_z(emb.d, 1, 60 + j)[0],
                        sample_q(inst.n, 1, 60 + j)[0]))
    res = rprt_erm(samples)
    assert len(res.thresholds) <= 3 * inst.n
    m = len(samples)
    attained = sum(
        cut_value(i.matrix, rprt_assign(i, e, z, q, res.best_param))
        for i, e, z, q in samples
    ) / m
    assert attained == pytest.approx(res.best_value, abs=1e-12)
    top = (max(res.thresholds) if res.thresholds else 1.0) * 1.5
    grid = max(
        sum(cut_value(i.matrix, rprt_assign(i, e, z, q, s)) for i, e, z, q in samples) / m
        for s in np.linspace(0.0, top, 1500)
    )
    assert res.best_value >= grid - 1e-12


# ---------------------------------------------------------------------------
# the discretized class


def test_disc_geometry_counts():
    assert discretized_count(0.9) == 3
    assert discretized_count(0.7) == 27
    specs = list(enumerate_discretized(0.9))
    assert len(specs) == 3
    assert [s.values for s in specs] == [(-0.9,), (0.0,), (0.9,)]
    with pytest.raises(DomainError):
        discretized_count(0.0)
    with pytest.raises(DomainError):
        discretized_count(1.0)


def test_fine_discretization_is_refused_before_building_its_levels():
    # 2 * 10^9 levels per piece would not fit in memory
    with pytest.raises(ClassTooLarge):
        next(enumerate_discretized(1e-9))
    with pytest.raises(ClassTooLarge):
        discretized_count(1e-300)


def test_enumerate_discretized_cap():
    with pytest.raises(ClassTooLarge):
        list(enumerate_discretized(0.7, cap=10))
    assert len(list(enumerate_discretized(0.7, cap=27))) == 27


def test_discretized_apply_regions():
    spec = next(iter(enumerate_discretized(0.9)))
    assert spec.B == pytest.approx(0.81)
    y = np.array([-5.0, -0.81, -0.2, 0.0, 0.3, 0.81, 2.0])
    out = spec.apply(y)
    assert out[0] == -1.0 and out[1] == -1.0
    assert out[5] == 1.0 and out[6] == 1.0
    assert out[3] == 0.0
    assert out[2] == spec.values[0] and out[4] == spec.values[0]


def test_discretized_apply_side_intervals():
    specs = list(enumerate_discretized(0.7))
    spec = specs[5]  # values (-0.7, 0.0, 0.7) -> index 5 = (-0.7, 0.7, 0.0)
    assert spec.knots == pytest.approx((-0.49, 0.49))
    got = spec.apply(np.array([-0.7, 0.2, 0.7]))
    assert got[0] == spec.values[0]
    assert got[1] == spec.values[1]
    assert got[2] == spec.values[2]


def test_disc_best_prefers_zero_on_antipodal_pair():
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    inst = MaxQPInstance(n=2, matrix=W, origin="maxcut")
    emb = Embedding(n=2, d=2, vectors=np.array([[1.0, 0.0], [-1.0, 0.0]]))
    z = np.array([0.5, 0.0])  # projections inside the central cell
    spec, val = disc_best([(inst, emb, z)], eps=0.9)
    assert spec.values == (0.0,)
    assert val == pytest.approx(0.5)
    with pytest.raises(DomainError):
        disc_best([], 0.9)


# ---------------------------------------------------------------------------
# the embedding heuristic


def test_embed_bm_unit_rows_and_determinism():
    inst, _, _, _ = gen_k4_shatter(8, 1)
    res = embed_bm(inst, seed=4)
    V = res.embedding.vectors
    assert np.allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-9)
    assert res.embedding.d == max(2, math.ceil(math.sqrt(16)))
    res2 = embed_bm(inst, seed=4)
    assert np.array_equal(V, res2.embedding.vectors)
    with pytest.raises(DomainError):
        embed_bm(inst, rank=1)


@pytest.mark.parametrize("seed", [-1, 2 ** 128, 1.0, True, "1"])
def test_seeds_outside_the_key_range_are_refused(seed):
    # numpy refused -1 with a ValueError of its own, at each entry point
    inst, _, _, _ = gen_k4_shatter(8, 1)
    points = ClusteringInstance(n=3, dist=np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5],
                                                    [2.0, 1.5, 0.0]]))
    for call in (lambda: sample_z(3, 2, seed), lambda: sample_q(3, 2, seed),
                 lambda: embed_bm(inst, seed=seed),
                 lambda: erm_sigma_linear([points], 3, [(0.1, 1.0)] * 3, 2, PruningRule(2.0),
                                          Objective("phi_p", 2.0), grid_density=2, seed=seed)):
        with pytest.raises(DomainError, match=r"seed must be an integer in \[0, 2\*\*128\)"):
            call()
    # the ends of the range are keys
    assert sample_z(3, 1, 2 ** 128 - 1).shape == sample_q(3, 1, 0).shape == (1, 3)


def test_embed_bm_reaches_clique_optimum():
    # disjoint 4-cliques: the tetrahedron embedding attains 2/3 exactly,
    # and no unit-vector configuration can beat it
    inst, _, _, _ = gen_k4_shatter(8, 1)
    res = embed_bm(inst, seed=0)
    assert res.objective <= 2.0 / 3.0 + 1e-9
    assert res.objective >= 2.0 / 3.0 - 1e-4
    assert res.history[-1] >= res.history[0]


def test_embed_bm_generic_alignment():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    inst = MaxQPInstance(n=2, matrix=A, origin="generic")
    res = embed_bm(inst, rank=2, seed=1)
    # maximum of 2 <u1, u2> over unit vectors is 2
    assert res.objective == pytest.approx(2.0, abs=1e-6)


def _rounding_graph(seed, n=200):
    """The weighted max-cut graph the rounding benchmark embeds for a seed."""
    rng = np.random.default_rng([seed, 0])
    adj = np.triu(rng.random((n, n)) < 0.1, 1)
    w = np.where(adj, rng.random((n, n)), 0.0)
    return MaxQPInstance(n=n, matrix=(w + w.T) / w.sum(), origin="maxcut")


def _generic_instance():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(30, 30))
    np.fill_diagonal(A, np.abs(np.diag(A)))
    return MaxQPInstance(n=30, matrix=A, origin="generic")


@pytest.mark.parametrize("inst, seed, max_iters", [
    *[(_rounding_graph(s), s, 500) for s in (1, 2, 3)],
    (gen_k4_shatter(8, 1)[0], 0, 10 ** 4),
    (_generic_instance(), 2, 10 ** 4),
])
def test_embed_bm_follows_the_full_objective_oracle(inst, seed, max_iters):
    # scoring a trial as sum(U * (M @ U)) rounds differently from
    # sum(M * (U @ U^T)), but it accepts the same trials
    got = embed_bm(inst, seed=seed, max_iters=max_iters)
    ref = reference_embed_bm(inst, seed=seed, max_iters=max_iters)
    assert np.array_equal(got.embedding.vectors, ref.embedding.vectors)
    assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
    assert got.objective == pytest.approx(ref.objective, rel=1e-12, abs=0.0)
    assert got.history == pytest.approx(ref.history, rel=1e-12, abs=0.0)
