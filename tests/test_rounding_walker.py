"""The incremental rounding ERMs against their full-recompute references.

slin_erm, owr_erm and rprt_erm read every piece from prefix sums over each
sample's coordinates, permuted in the order they change;
tests/oracles.py keeps the versions that recompute every sample's quadratic
form at every piece.  Thresholds and best parameters must agree exactly,
piece values up to float summation order.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_tuner import (
    DataError,
    DimensionMismatch,
    Embedding,
    MaxQPInstance,
    NonFiniteValue,
    gen_k4_shatter,
    owr_erm,
    rprt_erm,
    sample_q,
    sample_z,
    slin_erm,
)
from partition_tuner.cli import main
from partition_tuner.sdp_round import _THRESH_MERGE
from oracles import reference_owr_erm, reference_rprt_erm, reference_slin_erm

ERMS = {
    "slin": (slin_erm, reference_slin_erm),
    "owr": (owr_erm, reference_owr_erm),
    "rprt": (rprt_erm, reference_rprt_erm),
}


def _assert_matches(kind, samples):
    got = ERMS[kind][0](samples)
    ref = ERMS[kind][1](samples)
    assert got.thresholds == ref.thresholds
    assert got.best_param == ref.best_param
    assert len(got.interval_values) == len(ref.interval_values)
    # |x^T A x| <= sum |A_ij| for x in [-1, 1]^n bounds every value
    scale = max(1.0, max(np.abs(s[0].matrix).sum() for s in samples))
    for g, r in zip(got.interval_values, ref.interval_values):
        assert abs(g - r) <= 1e-12 * scale
    assert abs(got.best_value - ref.best_value) <= 1e-12 * scale
    return got


def _random_instance(rng, n, origin):
    if origin == "maxcut":
        W = np.where(np.triu(rng.random((n, n)) < 0.5, 1), rng.random((n, n)), 0.0)
        W = W + W.T
        # the cut form ignores any diagonal; give some instances one
        W[np.diag_indices(n)] = np.where(rng.random(n) < 0.3, rng.random(n), 0.0)
        return MaxQPInstance(n=n, matrix=W, origin="maxcut")
    A = rng.normal(size=(n, n))
    np.fill_diagonal(A, np.abs(np.diag(A)))
    return MaxQPInstance(n=n, matrix=A, origin="generic")


def _random_samples(rng, inst, d, m):
    V = rng.normal(size=(inst.n, d))
    emb = Embedding(n=inst.n, d=d, vectors=V / np.linalg.norm(V, axis=1, keepdims=True))
    Z = rng.normal(size=(m, d))
    Z2 = rng.normal(size=(m, d + inst.n))
    Q = rng.uniform(-1.0, 1.0, (m, inst.n))
    return {
        "slin": [(inst, emb, z) for z in Z],
        "owr": [(inst, emb, z2) for z2 in Z2],
        "rprt": [(inst, emb, z, q) for z, q in zip(Z, Q)],
    }


@given(
    n=st.integers(1, 14),
    d=st.integers(1, 4),
    m=st.integers(1, 4),
    origin=st.sampled_from(["maxcut", "generic"]),
    seed=st.integers(0, 10 ** 6),
)
@settings(max_examples=60, deadline=None)
def test_walker_matches_reference_on_random_instances(n, d, m, origin, seed):
    rng = np.random.default_rng(seed)
    samples = _random_samples(rng, _random_instance(rng, n, origin), d, m)
    for kind in ERMS:
        _assert_matches(kind, samples[kind])


@pytest.mark.parametrize("seed", range(12))
def test_walker_matches_reference_seeded(seed):
    rng = np.random.default_rng(1000 + seed)
    origin = "maxcut" if seed % 2 else "generic"
    inst = _random_instance(rng, 30, origin)
    samples = _random_samples(rng, inst, 5, 1 + seed % 5)
    for kind in ERMS:
        _assert_matches(kind, samples[kind])


def test_interior_critical_point_is_bit_identical():
    # zero-diagonal generic instances often have their best clamp-linear
    # scale at an interior critical point s* = -2a/b, not at a threshold
    hits = 0
    for seed in range(150):
        rng = np.random.default_rng(seed)
        n = 4 + seed % 3
        A = rng.normal(size=(n, n))
        A = A + A.T
        np.fill_diagonal(A, 0.0)
        inst = MaxQPInstance(n=n, matrix=A, origin="generic")
        samples = [
            (inst, Embedding(n=n, d=1, vectors=rng.normal(size=(n, 1))), np.ones(1))
            for _ in range(1 + seed % 2)
        ]
        res = _assert_matches("slin", samples)
        if res.thresholds and res.best_param not in res.thresholds \
                and res.best_param < res.thresholds[-1]:
            hits += 1
    assert hits >= 3


def test_mixed_instances_and_sizes():
    # samples from three instance objects, two of them equal in content and
    # one of another size, interleaved so blocks do not follow sample order
    rng = np.random.default_rng(7)
    a = _random_instance(rng, 10, "maxcut")
    b = MaxQPInstance(n=10, matrix=a.matrix.copy(), origin="maxcut")
    c = _random_instance(rng, 6, "generic")
    sa = _random_samples(rng, a, 3, 2)
    sb = _random_samples(rng, b, 3, 2)
    sc = _random_samples(rng, c, 4, 2)
    for kind in ERMS:
        a0, a1 = sa[kind]
        b0, b1 = sb[kind]
        c0, c1 = sc[kind]
        _assert_matches(kind, [a0, c0, b0, a1, c1, b1])


def test_single_sample_and_zero_projections():
    rng = np.random.default_rng(11)
    inst = _random_instance(rng, 9, "maxcut")
    samples = _random_samples(rng, inst, 3, 1)
    for kind in ERMS:
        _assert_matches(kind, samples[kind])

    emb = samples["slin"][0][1]
    # every projection zero: the degenerate slin path and no rprt ratios
    zero = np.zeros(emb.d)
    res = _assert_matches("slin", [(inst, emb, zero)])
    assert res.thresholds == [] and res.best_param == 1.0
    res = _assert_matches("rprt", [(inst, emb, zero, sample_q(inst.n, 1, 3)[0])])
    assert res.thresholds == []
    res = _assert_matches("owr", [(inst, emb, np.zeros(emb.d + emb.n))])
    assert res.thresholds == []

    # some points orthogonal to the projection, mixed with a full sample
    V = emb.vectors.copy()
    V[::3] = 0.0
    V[::3, 0] = 1.0
    part = Embedding(n=inst.n, d=emb.d, vectors=V)
    z = np.array([0.0] + list(rng.normal(size=emb.d - 1)))
    z2 = np.concatenate([z, np.where(np.arange(inst.n) % 2, 0.0, 1.0)])
    q = sample_q(inst.n, 1, 5)[0]
    _assert_matches("slin", [(inst, part, z), samples["slin"][0]])
    _assert_matches("owr", [(inst, part, z2), samples["owr"][0]])
    _assert_matches("rprt", [(inst, part, z, q), samples["rprt"][0]])


def test_duplicate_magnitudes_merge():
    # d = 1 with z = 1 makes each projection its embedding entry exactly,
    # so near-duplicate magnitudes straddle the merge tolerance on purpose
    rng = np.random.default_rng(5)
    inst = _random_instance(rng, 8, "maxcut")
    gen = _random_instance(rng, 8, "generic")
    t = _THRESH_MERGE
    y1 = np.array([0.5, -0.5, 0.5 + 0.4 * t, 0.3, -0.3 - 3 * t, 0.7, 0.0, -0.7])
    y2 = np.array([0.5 + 0.9 * t, 0.3, 0.2, -0.2, 0.9, 0.5, -0.9 - 0.5 * t, 0.1])
    e1 = Embedding(n=8, d=1, vectors=y1[:, None])
    e2 = Embedding(n=8, d=1, vectors=y2[:, None])
    one = np.ones(1)
    res = _assert_matches("slin", [(inst, e1, one), (gen, e2, one)])
    assert len(res.thresholds) < len(set(np.abs(np.concatenate([y1, y2]))) - {0.0})

    # rprt ratios q / y with exact and near duplicates
    ratios = np.array([0.4, 0.4, 0.4 + 0.5 * t, 0.8, 0.8 + 2 * t, 0.2, 1.5, 0.4])
    q1 = np.clip(ratios * y1, -1.0, 1.0)
    res = _assert_matches("rprt", [(inst, e1, one, q1), (gen, e2, one, q1[::-1])])
    assert res.thresholds

    # owr cuts arctan(-head / tail) with equal head/tail ratios
    tail = np.array([-1.0, 1.0, -1.0 - 1e-13, -0.6, 0.6, -1.4, 0.3, 1.4])
    res = _assert_matches("owr", [
        (inst, e1, np.concatenate([one, tail])),
        (gen, e2, np.concatenate([one, -tail[::-1]])),
    ])
    assert res.thresholds


@pytest.mark.parametrize("n,j", [(8, 1), (12, 2), (20, 1), (24, 3)])
def test_k4_shatter_fixtures(n, j):
    inst, emb, z, _ = gen_k4_shatter(n, j)
    Z = sample_z(emb.d, 4, seed=n + j)
    Q = sample_q(inst.n, 4, seed=n + j)
    Z2 = sample_z(emb.d + emb.n, 4, seed=n * j)
    _assert_matches("slin", [(inst, emb, z)])
    _assert_matches("slin", [(inst, emb, zz) for zz in Z])
    _assert_matches("owr", [(inst, emb, z2) for z2 in Z2])
    _assert_matches("rprt", [(inst, emb, zz, qq) for zz, qq in zip(Z, Q)])
    _assert_matches("rprt", [(inst, emb, z, Q[0])])


def test_results_are_plain_floats():
    rng = np.random.default_rng(2)
    samples = _random_samples(rng, _random_instance(rng, 10, "maxcut"), 3, 3)
    for kind, (erm, _) in ERMS.items():
        res = erm(samples[kind])
        assert type(res.best_param) is float, kind
        assert type(res.best_value) is float, kind
        assert all(type(t) is float for t in res.thresholds), kind
        assert all(type(v) is float for v in res.interval_values), kind


# ---------------------------------------------------------------------------
# typed input failures


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_matrix_and_vectors_rejected(bad):
    W = np.ones((3, 3)) - np.eye(3)
    W[0, 1] = W[1, 0] = bad
    with pytest.raises(NonFiniteValue):
        MaxQPInstance(n=3, matrix=W, origin="maxcut")
    with pytest.raises(NonFiniteValue):
        MaxQPInstance(n=3, matrix=W, origin="generic")
    V = np.eye(3)
    V[2, 1] = bad
    with pytest.raises(NonFiniteValue):
        Embedding(n=3, d=3, vectors=V)
    assert issubclass(NonFiniteValue, DataError)


def test_non_finite_projection_rejected():
    inst, emb, z, _ = gen_k4_shatter(8, 1)
    z = z.copy()
    z[1] = math.nan
    with pytest.raises(NonFiniteValue):
        slin_erm([(inst, emb, z)])
    with pytest.raises(NonFiniteValue):
        rprt_erm([(inst, emb, np.ones(emb.d), np.full(8, math.inf))])
    z2 = np.ones(emb.d + emb.n)
    z2[-1] = math.inf
    with pytest.raises(NonFiniteValue):
        owr_erm([(inst, emb, z2)])


def test_size_mismatches_raise_dimension_mismatch():
    inst, emb, z, _ = gen_k4_shatter(8, 1)
    big, big_emb, big_z, _ = gen_k4_shatter(12, 1)
    with pytest.raises(DimensionMismatch):
        slin_erm([(big, emb, z)])
    with pytest.raises(DimensionMismatch):
        slin_erm([(inst, emb, z), (inst, big_emb, big_z)])
    with pytest.raises(DimensionMismatch):
        owr_erm([(big, emb, np.ones(emb.d + emb.n))])
    with pytest.raises(DimensionMismatch):
        owr_erm([(inst, emb, np.ones(emb.d + emb.n - 1))])
    with pytest.raises(DimensionMismatch):
        rprt_erm([(big, emb, z, np.zeros(8))])
    with pytest.raises(DimensionMismatch):
        rprt_erm([(inst, emb, z, np.zeros(7))])


def test_cli_rejects_nan_weight_with_exit_two(tmp_path):
    k4 = tmp_path / "k4.json"
    assert main(["gen", "k4", "--n", "8", "--j", "1", "--out", str(k4)]) == 0
    embp = str(tmp_path / "k4.embedding.json")
    doc = json.loads(k4.read_text())
    doc["matrix"][0][1] = doc["matrix"][1][0] = math.nan
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    for name in ("erm-slin", "erm-owr", "erm-rprt"):
        assert main([name, "--instances", str(bad), "--embedding", embp,
                     "--samples", "2"]) == 2


def test_cli_rejects_embedding_of_another_size_with_exit_two(tmp_path):
    k4 = tmp_path / "k4.json"
    k12 = tmp_path / "k12.json"
    assert main(["gen", "k4", "--n", "8", "--j", "1", "--out", str(k4)]) == 0
    assert main(["gen", "k4", "--n", "12", "--j", "1", "--out", str(k12)]) == 0
    embp = str(tmp_path / "k4.embedding.json")
    for name in ("erm-slin", "erm-owr", "erm-rprt"):
        assert main([name, "--instances", str(k12), "--embedding", embp,
                     "--samples", "2"]) == 2


def test_cli_rejects_asymmetric_max_cut_matrix_with_exit_two(tmp_path):
    k4 = tmp_path / "k4.json"
    assert main(["gen", "k4", "--n", "8", "--j", "1", "--out", str(k4)]) == 0
    embp = str(tmp_path / "k4.embedding.json")
    doc = json.loads(k4.read_text())
    assert doc["origin"] == "maxcut"
    doc["matrix"][0][1] += 0.5
    bad = tmp_path / "asym.json"
    bad.write_text(json.dumps(doc))
    for name in ("erm-slin", "erm-owr", "erm-rprt"):
        assert main([name, "--instances", str(bad), "--embedding", embp,
                     "--samples", "2"]) == 2
