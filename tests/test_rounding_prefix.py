"""The prefix-sum forms and exact flip schedules of the rounding ERMs.

slin_erm, owr_erm and rprt_erm read every piece's value from prefix sums
over each sample's coordinates permuted in the order they change; owr and
rprt find each sign's first flipping probe by bisection over the probes.
These tests pin the edge cases of that schedule against the
full-recompute references in tests/oracles.py, and check the results
against the public value functions directly where no reference is needed.
"""

import math

import numpy as np
import pytest

from partition_tuner import (
    Embedding,
    MaxQPInstance,
    cut_value,
    owr_erm,
    owr_value,
    rprt_assign,
    rprt_erm,
    sample_q,
    sample_z,
    slin_erm,
    slin_value,
)
from partition_tuner import sdp_round
from partition_tuner.sdp_round import _THRESH_MERGE
from oracles import reference_owr_erm, reference_rprt_erm

TOL = 1e-12


def _maxcut(rng, n, density=0.6):
    W = np.where(np.triu(rng.random((n, n)) < density, 1), rng.random((n, n)), 0.0)
    return MaxQPInstance(n=n, matrix=W + W.T, origin="maxcut")


def _line(values):
    """A d = 1 embedding whose projections on z = [1] are values exactly."""
    values = np.asarray(values, dtype=float)
    return Embedding(n=values.size, d=1, vectors=values[:, None])


def _assert_matches_reference(got, ref, scale=1.0):
    assert got.thresholds == ref.thresholds
    assert got.best_param == ref.best_param
    assert len(got.interval_values) == len(ref.interval_values)
    for g, r in zip(got.interval_values, ref.interval_values):
        assert abs(g - r) <= TOL * scale
    assert abs(got.best_value - ref.best_value) <= TOL * scale


def _unit_embedding(rng, n, d):
    V = rng.normal(size=(n, d))
    return Embedding(n=n, d=d, vectors=V / np.linalg.norm(V, axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# slin on asymmetric generic matrices


def test_slin_best_value_is_the_mean_value_at_best_param_on_asymmetric_matrices():
    # x^T A x has the cross term u A v + v A u, not 2 u A v, when A is not
    # symmetric; the ERM's value must be the value slin_value reports
    for seed in range(50):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(8, 8))
        np.fill_diagonal(A, np.abs(np.diag(A)))
        inst = MaxQPInstance(n=8, matrix=A, origin="generic")
        emb = _unit_embedding(rng, 8, 3)
        samples = [(inst, emb, z) for z in rng.normal(size=(3, 3))]
        res = slin_erm(samples)
        direct = np.mean([slin_value(inst, emb, z, res.best_param) for _, _, z in samples])
        assert abs(res.best_value - direct) <= 1e-9, seed


# ---------------------------------------------------------------------------
# flip schedules against the full-recompute references


def test_rprt_flip_merged_into_a_threshold_but_past_its_probe():
    # ratio r = q / y is merged into the kept threshold t0 (r - t0 <= the
    # merge tolerance) but lies past the midpoint probe of (t0, t1), so the
    # coordinate flips one probe later than its kept threshold says
    rng = np.random.default_rng(3)
    t = _THRESH_MERGE
    t0, r, t1 = 0.4, 0.4 + 0.9 * t, 0.4 + 1.1 * t
    y = np.array([1.0, 1.0, 1.0, 1.0, -0.5, 0.7, 1.0, -1.0])
    q = np.array([t0, r, t1, 0.9, 0.3, -0.2, 0.6, -0.8])
    inst = _maxcut(rng, y.size)
    samples = [(inst, _line(y), np.ones(1), q)]
    got = rprt_erm(samples)
    assert t0 in got.thresholds and t1 in got.thresholds and r not in got.thresholds
    assert 0.5 * (t0 + t1) < r
    _assert_matches_reference(got, reference_rprt_erm(samples))


def test_owr_flip_merged_into_a_threshold_but_past_its_probe():
    # head h with tail -1 flips at arctan(h); near h = 1 angles move by half
    # the change of h, so these heads give cuts 0.9 and 1.1 merge
    # tolerances past the first
    rng = np.random.default_rng(4)
    t = _THRESH_MERGE
    head = np.array([1.0, 1.0 + 1.8 * t, 1.0 + 2.2 * t, 0.3, -0.6, 0.8, 2.0, -1.5])
    tail = np.array([-1.0, -1.0, -1.0, -0.4, 0.9, 0.5, -0.7, -0.2])
    inst = _maxcut(rng, head.size)
    samples = [(inst, _line(head), np.concatenate([[1.0], tail]))]
    got = owr_erm(samples)
    t0, r, t1 = (float(g) for g in np.arctan(head[:3]))
    assert t0 in got.thresholds and t1 in got.thresholds and r not in got.thresholds
    assert r - t0 <= t < t1 - t0 and 0.5 * (t0 + t1) < r
    _assert_matches_reference(got, reference_owr_erm(samples))


def test_owr_falls_back_to_full_values_when_cos_and_sin_are_not_monotone(monkeypatch):
    rng = np.random.default_rng(6)
    inst = _maxcut(rng, 12)
    emb = _unit_embedding(rng, 12, 3)
    samples = [(inst, emb, z2) for z2 in sample_z(emb.d + emb.n, 3, seed=8)]
    fast = owr_erm(samples)
    calls = []
    value = sdp_round._value

    def counted(*args):
        calls.append(1)
        return value(*args)

    monkeypatch.setattr(sdp_round, "_rotation_monotone", lambda cos, sin: False)
    monkeypatch.setattr(sdp_round, "_value", counted)
    slow = owr_erm(samples)
    assert len(calls) == len(samples) * len(slow.interval_values)
    _assert_matches_reference(slow, reference_owr_erm(samples))
    _assert_matches_reference(fast, slow)


def test_signs_that_never_flip_and_zero_parts():
    rng = np.random.default_rng(9)
    inst = _maxcut(rng, 10)
    gen = MaxQPInstance(n=10, matrix=rng.normal(size=(10, 10)) ** 2, origin="generic")
    # rprt: y = 0 keeps the sign of q; q = 0 flips at s = 0, before every
    # probe; q / y < 0 never flips
    y = np.array([0.0, 0.0, 0.5, -0.5, 0.8, -0.3, 0.6, 0.0, -0.9, 0.2])
    q = np.array([0.4, -0.4, 0.0, 0.0, -0.2, 0.7, 0.3, 0.0, -0.5, 0.9])
    samples = [(inst, _line(y), np.ones(1), q), (gen, _line(y[::-1]), np.ones(1), q)]
    _assert_matches_reference(rprt_erm(samples), reference_rprt_erm(samples),
                              np.abs(gen.matrix).sum())
    # every ratio negative or undefined: no threshold, one probe
    never = [(inst, _line(y), np.ones(1), np.where(y == 0.0, q, -np.abs(q) * np.sign(y)))]
    res = rprt_erm(never)
    assert res.thresholds == [] and res.interval_values == [res.best_value]
    _assert_matches_reference(res, reference_rprt_erm(never))

    # owr: a zero head or tail, and equal signs, never flip
    head = np.array([0.0, 0.0, 0.4, -0.4, 0.7, -0.2, 0.5, -0.6, 0.0, 0.9])
    tail = np.array([0.3, -0.3, 0.0, 0.0, 0.2, -0.8, -0.5, 0.6, 0.0, -0.1])
    samples = [(inst, _line(head), np.concatenate([[1.0], tail])),
               (gen, _line(head[::-1]), np.concatenate([[1.0], -tail]))]
    _assert_matches_reference(owr_erm(samples), reference_owr_erm(samples),
                              np.abs(gen.matrix).sum())
    same = np.array([0.0, 0.0, 0.4, -0.4, 0.7, -0.2, 0.5, -0.6, 0.0, 0.9])
    res = owr_erm([(inst, _line(same), np.concatenate([[1.0], same]))])
    assert res.thresholds == [] and len(res.interval_values) == 2
    assert res.interval_values[0] == pytest.approx(res.interval_values[1], abs=TOL)


# ---------------------------------------------------------------------------
# the prefix path at scale


def _scale_samples(n, m, seed):
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < 0.1, 1)
    W = np.where(adj, rng.random((n, n)), 0.0)
    inst = MaxQPInstance(n=n, matrix=(W + W.T) / W.sum() / 2, origin="maxcut")
    emb = _unit_embedding(rng, n, int(math.ceil(math.sqrt(2 * n))))
    Z = sample_z(emb.d, m, seed)
    Q = sample_q(n, m, seed)
    Z2 = sample_z(emb.d + n, m, seed + 1)
    return inst, emb, Z, Q, Z2


def test_owr_and_rprt_at_scale_match_direct_values(monkeypatch):
    inst, emb, Z, Q, Z2 = _scale_samples(1000, 50, seed=21)

    def refuse(*args):
        raise AssertionError("the monotone path evaluated a full assignment")

    monkeypatch.setattr(sdp_round, "_value", refuse)
    owr = owr_erm([(inst, emb, z2) for z2 in Z2])
    rprt = rprt_erm([(inst, emb, z, q) for z, q in zip(Z, Q)])
    monkeypatch.undo()
    assert len(owr.interval_values) > 10 ** 4 and len(rprt.interval_values) > 10 ** 4

    direct = np.mean([owr_value(inst, emb, z2, owr.best_param) for z2 in Z2])
    assert abs(owr.best_value - direct) <= TOL
    direct = np.mean([
        cut_value(inst.matrix, rprt_assign(inst, emb, z, q, rprt.best_param))
        for z, q in zip(Z, Q)
    ])
    assert abs(rprt.best_value - direct) <= TOL


def test_monotone_paths_never_evaluate_full_assignments(monkeypatch):
    rng = np.random.default_rng(13)
    inst = _maxcut(rng, 30)
    gen = MaxQPInstance(n=30, matrix=rng.normal(size=(30, 30)) ** 2, origin="generic")
    emb = _unit_embedding(rng, 30, 4)
    Z = sample_z(emb.d, 4, seed=2)
    Q = sample_q(emb.n, 4, seed=2)
    Z2 = sample_z(emb.d + emb.n, 4, seed=3)
    owr_samples = [(inst if i % 2 else gen, emb, z2) for i, z2 in enumerate(Z2)]
    rprt_samples = [(inst if i % 2 else gen, emb, z, q) for i, (z, q) in enumerate(zip(Z, Q))]
    ref_owr = reference_owr_erm(owr_samples)
    ref_rprt = reference_rprt_erm(rprt_samples)

    def refuse(*args):
        raise AssertionError("the monotone path evaluated a full assignment")

    monkeypatch.setattr(sdp_round, "_value", refuse)
    scale = np.abs(gen.matrix).sum()
    _assert_matches_reference(owr_erm(owr_samples), ref_owr, scale)
    _assert_matches_reference(rprt_erm(rprt_samples), ref_rprt, scale)
