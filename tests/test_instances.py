"""Generators, metric completion, and serialization."""

import json
import math

import numpy as np
import pytest

from partition_tuner import (
    AsymmetricMatrix,
    BadAlphaRange,
    ClusteringInstance,
    Disconnected,
    DimensionMismatch,
    Embedding,
    InconsistentMetric,
    NonFiniteDistance,
    NonPositiveDistance,
    OffsetsNotDecreasing,
    ParseError,
    UnknownFamily,
    complete_metric_max,
    fixture_path,
    gen_general_lb,
    gen_k4_shatter,
    gen_oscillation,
    gen_two_gadget,
    k4_witness,
    load_embedding,
    load_fixture,
    load_instance,
    oscillation_profile_bounds,
    oscillation_spread,
    save_embedding,
    save_instance,
    two_gadget_spread,
    validate,
)
from partition_tuner.instances import MaxQPInstance
from oracles import reference_gen_two_gadget


# ---------------------------------------------------------------------------
# metric completion and validation


def test_completion_keeps_specified_entries():
    edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5)]
    D = complete_metric_max(4, edges)
    for i, j, v in edges:
        assert D[i, j] == v and D[j, i] == v
    assert np.all(np.diag(D) == 0.0)


def test_completion_is_shortest_path():
    D = complete_metric_max(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5)])
    assert D[0, 2] == 3.0
    assert D[0, 3] == 3.5
    assert D[1, 3] == 2.5


def test_completion_output_is_metric():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        # random spanning tree plus a few extra edges
        edges = []
        for v in range(1, n):
            u = int(rng.integers(0, v))
            edges.append((u, v, float(rng.uniform(0.5, 2.0))))
        D = complete_metric_max(n, edges)
        rep = validate(ClusteringInstance(n=n, dist=D))
        assert rep.is_symmetric and rep.is_metric


def test_completion_rejects_disconnected():
    with pytest.raises(Disconnected):
        complete_metric_max(4, [(0, 1, 1.0), (2, 3, 1.0)])


def test_completion_rejects_overlong_edge():
    # direct 0-2 distance exceeds the 0-1-2 path, so no metric extends it
    with pytest.raises(InconsistentMetric):
        complete_metric_max(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])


def test_completion_rejects_conflicting_duplicates():
    with pytest.raises(InconsistentMetric):
        complete_metric_max(3, [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0)])


def test_validate_flags_triangle_violation():
    D = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    rep = validate(ClusteringInstance(n=3, dist=D))
    assert rep.is_symmetric
    assert not rep.is_metric
    assert rep.worst_triangle_violation == pytest.approx(3.0)


def test_validate_counts_distinct_distances():
    D = complete_metric_max(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0)])
    rep = validate(ClusteringInstance(n=4, dist=D))
    assert rep.distinct_distance_count == len(
        {round(v, 9) for v in D[np.triu_indices(4, 1)]}
    )


# ---------------------------------------------------------------------------
# oscillation generator


def test_oscillation_shape_and_fixture():
    alphas = (0.1, 0.3, 0.5)
    inst, fix = gen_oscillation(26, alphas, "convex_minmax", p=2.0)
    assert inst.n == 26
    assert inst.k_hint == 2
    assert validate(inst).is_metric
    assert fix.alphas == alphas
    assert fix.expected_breakpoints == alphas
    r_lo, r_hi = oscillation_profile_bounds(26, 2.0)
    assert fix.expected_profile == (r_lo, r_hi, r_lo, r_hi)


def test_oscillation_profile_bounds_gap():
    for p in (1.0, 2.0, 3.0):
        r_lo, r_hi = oscillation_profile_bounds(26, p)
        assert r_hi - r_lo == pytest.approx(2.0 * (1.47 ** p - 1.46 ** p), rel=1e-12)


def test_oscillation_spread_forms():
    assert oscillation_spread(0.3, "convex_minmax") == pytest.approx(1.37)
    assert oscillation_spread(0.0, "power_minmax") == pytest.approx(math.sqrt(1.3 * 1.4))
    a = 0.4
    want = ((1.3 ** a + 1.4 ** a) / 2.0) ** (1.0 / a)
    assert oscillation_spread(a, "power_minmax") == pytest.approx(want, rel=1e-15)
    with pytest.raises(UnknownFamily):
        oscillation_spread(0.3, "sigma_linear")


@pytest.mark.parametrize(
    "n, alphas, err",
    [
        (9, (0.2,), BadAlphaRange),  # n not 2 mod 6
        (26, (0.2, 0.2), BadAlphaRange),  # not strictly increasing
        (26, (0.75,), BadAlphaRange),  # outside the valid window
        (26, (-0.1,), BadAlphaRange),
        (26, (0.1, 0.2, 0.3, 0.4), BadAlphaRange),  # too many for n = 26
    ],
)
def test_oscillation_rejects_bad_parameters(n, alphas, err):
    with pytest.raises(err):
        gen_oscillation(n, alphas, "convex_minmax")


def test_oscillation_rejects_unknown_family():
    with pytest.raises(UnknownFamily):
        gen_oscillation(26, (0.2,), "power_average")


# ---------------------------------------------------------------------------
# two-gadget generator


def test_two_gadget_shape():
    inst, fix = gen_two_gadget(0.5, "convex_minmax")
    assert inst.n == 210
    assert inst.k_hint == 4
    assert fix.alpha_star == 0.5
    assert fix.family == "convex_minmax"
    assert validate(inst).is_metric
    # the special block members sit at the odd in-between distance
    assert np.any(inst.dist == 1.51)


def test_two_gadget_spread_forms():
    assert two_gadget_spread(0.5, "convex_minmax") == pytest.approx(1.15)
    a = 1.5
    want = ((1.1 ** a + 1.2 ** a) / 2.0) ** (1.0 / a)
    assert two_gadget_spread(a, "power_minmax") == pytest.approx(want, rel=1e-15)


def test_two_gadget_rejects_bad_alpha():
    with pytest.raises(BadAlphaRange):
        gen_two_gadget(1.5, "convex_minmax")
    with pytest.raises(BadAlphaRange):
        gen_two_gadget(0.0, "power_minmax")
    with pytest.raises(UnknownFamily):
        gen_two_gadget(0.5, "sigma_linear")


_UNPLANTABLE_STARS = [("convex_minmax", s) for s in (math.inf, math.nan, "0.4")] + [
    (family, s) for family in ("power_minmax", "power_average")
    for s in (math.inf, -math.inf, math.nan, "0.4", 1j, 1e-300, -1e-300, 1e4, -1e4)]


@pytest.mark.parametrize("family, star", _UNPLANTABLE_STARS)
def test_two_gadget_refuses_an_alpha_star_it_cannot_plant(family, star):
    # the power forms gave spread 1.0 at +-inf and +-1e-300, where the swing point never
    # flips (at +-inf the fixture claimed expected_witness = +-inf), and -1e4 raised
    # ZeroDivisionError
    with pytest.raises(BadAlphaRange, match="alpha_star"):
        gen_two_gadget(star, family)


def test_two_gadget_halves_far_apart():
    inst, _ = gen_two_gadget(0.4, "convex_minmax")
    assert np.all(inst.dist[:105, 105:] == 100.0)


_REFERENCE_STARS = [("convex_minmax", a) for a in (0.0, 0.25, 0.4, 0.5, 1.0)] + [
    (family, a) for family in ("power_minmax", "power_average")
    for a in (-30.0, -1.0, -1e-9, 1e-9, 0.4, 1.5, 30.0)]


@pytest.mark.parametrize("family, star", _REFERENCE_STARS)
def test_two_gadget_is_bit_identical_to_one_completion_of_the_whole_instance(family, star):
    inst, fix = gen_two_gadget(star, family)
    ref, ref_fix = reference_gen_two_gadget(star, family)
    assert inst.dist.tobytes() == ref.dist.tobytes()
    assert inst.ground_truth.tobytes() == ref.ground_truth.tobytes()
    assert inst.k_hint == ref.k_hint
    assert vars(fix) == vars(ref_fix)


# ---------------------------------------------------------------------------
# round-structured instance


def test_general_lb_shape_and_breakpoints():
    for rounds in (1, 2, 3):
        inst, fix = gen_general_lb(rounds)
        assert inst.n == 4 + 2 * rounds
        assert inst.k_hint == 2
        assert validate(inst).is_metric
        brks = fix.expected_breakpoints
        assert brks is not None
        assert len(brks) == 2 ** rounds - 1
        assert all(1.0 < b < 3.0 for b in brks)
        assert list(brks) == sorted(brks)


def test_general_lb_custom_offsets_drop_frozen_table():
    _, fix = gen_general_lb(2, offsets=(1e-3, 1e-5))
    assert fix.expected_breakpoints is None


@pytest.mark.parametrize(
    "rounds, offsets",
    [
        (0, None),
        (2, (1e-4,)),  # wrong count
        (2, (1e-6, 1e-4)),  # not decreasing
        (2, (1e-4, 0.0)),  # non-positive
        (2, (1e-4, 1e-17)),  # vanishes in float arithmetic at 1.5
    ],
)
def test_general_lb_rejects_bad_offsets(rounds, offsets):
    with pytest.raises((BadAlphaRange, OffsetsNotDecreasing)):
        gen_general_lb(rounds, offsets)


# ---------------------------------------------------------------------------
# block instance with projection witnesses


def test_k4_shapes(k4_bundle):
    inst, emb, z, witness = k4_bundle
    assert inst.n == 20
    assert inst.origin == "maxcut"
    assert np.all(np.diag(inst.matrix) == 0.0)
    assert emb.n == 20 and emb.d == 20
    norms = np.linalg.norm(emb.vectors, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert z.shape == (20,)
    assert witness == k4_witness(20, 1)


def test_k4_witness_levels():
    # deeper witness levels shrink toward 1/2 from below it
    r1 = k4_witness(20, 1)
    r2 = k4_witness(40, 2)
    assert 0.0 < r1 < 1.0
    assert 0.0 < r2 < 1.0


def test_k4_rejects_bad_sizes():
    with pytest.raises(Exception):
        gen_k4_shatter(18, 1)  # not a whole number of 4-point blocks


# ---------------------------------------------------------------------------
# serialization


def test_instance_round_trip(tmp_path):
    inst, fix = gen_oscillation(26, (0.2, 0.4), "power_minmax", p=1.0)
    path = tmp_path / "osc.json"
    save_instance(path, inst, fix)
    back = load_instance(path)
    assert back.n == inst.n
    assert np.array_equal(back.dist, inst.dist)
    assert back.k_hint == inst.k_hint
    assert np.array_equal(back.ground_truth, inst.ground_truth)
    fx = load_fixture(path)
    assert fx.kind == fix.kind
    assert fx.alphas == fix.alphas
    assert fx.expected_profile == fix.expected_profile


def test_maxqp_round_trip(tmp_path, k4_bundle):
    inst, emb, _, _ = k4_bundle
    ipath = tmp_path / "qp.json"
    epath = tmp_path / "qp.embedding.json"
    save_instance(ipath, inst)
    save_embedding(epath, emb)
    back = load_instance(ipath)
    assert isinstance(back, MaxQPInstance)
    assert np.array_equal(back.matrix, inst.matrix)
    emb2 = load_embedding(epath)
    assert emb2.n == emb.n and emb2.d == emb.d
    assert np.array_equal(emb2.vectors, emb.vectors)


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "nope/9", "type": "clustering"}))
    with pytest.raises(ParseError):
        load_instance(path)


_EMBEDDING = {"type": "embedding", "n": 2, "d": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]]}
_LOADERS = (load_instance, load_fixture, load_embedding)


@pytest.mark.parametrize("fields", [
    {"type": "clustering"},
    {"type": "clustering", "n": "x", "dist": [[0.0]]},
    {"type": "clustering", "n": 2.0, "dist": [[0.0, 1.0], [1.0, 0.0]]},
    {"type": "clustering", "n": 2},
    {"type": "clustering", "n": 2, "dist": "far"},
    {"type": "clustering", "n": 2, "dist": [[0.0, 1.0], [1.0]]},
    {"type": "clustering", "n": 2, "dist": [[0.0, 1.0], [1.0, 0.0]], "ground_truth": ["a", "b"]},
    *[{"type": "clustering", "n": 3, "dist": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
       **bad} for bad in ({"ground_truth": [0.5, 1.7, 2.9]}, {"ground_truth": [0, True, 2]},
                          {"ground_truth": 2}, {"k_hint": "many"}, {"k_hint": 2.0})],
    {"type": "maxqp", "n": 2},
    {"type": "maxqp", "n": 2, "matrix": [[0.0, {}], [1.0, 0.0]]},
    *[{**_EMBEDDING, key: val} for key in ("n", "d") for val in ("2", 2.0, True, 2.7, None)],
    *[{k: v for k, v in _EMBEDDING.items() if k != key} for key in ("n", "d", "vectors")],
    {**_EMBEDDING, "vectors": [[1.0, 0.0], [1.0]]},
    {**_EMBEDDING, "vectors": [[1.0, 0.0], [0.0, "y"]]},
    {**_EMBEDDING, "type": "fixture"},
    {**_EMBEDDING, "type": "clustering"},
    {"type": "fixture"},
    {"type": "embedding", "kind": "k4"},
])
def test_load_rejects_missing_or_ill_typed_fields(tmp_path, fields):
    # each document is malformed for the loader of its type and wrongly
    # tagged for the others, so every loader must refuse it
    path = tmp_path / "bad.json"
    text = json.dumps({"schema": "partition-tuner/1", **fields})
    path.write_text(text)
    (tmp_path / "bad.fixture.json").write_text(text)
    for load in _LOADERS:
        with pytest.raises(ParseError):
            load(path)


def test_load_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "bad.json"
    deep = b"[" * 10 ** 5 + b"]" * 10 ** 5  # nested past the decoder's recursion limit
    for raw in (b"\xff\xfe\x00", b"{", b"[1, 2]", b"null", b"3", deep):
        path.write_bytes(raw)
        (tmp_path / "bad.fixture.json").write_bytes(raw)
        for load in _LOADERS:
            with pytest.raises(ParseError):
                load(path)


def test_embedding_shape_checked():
    with pytest.raises(DimensionMismatch):
        Embedding(n=3, d=2, vectors=np.zeros((2, 2)))


def test_instance_shape_checked():
    with pytest.raises(DimensionMismatch):
        ClusteringInstance(n=3, dist=np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_instance_rejects_non_finite_distances(bad):
    D = np.ones((3, 3)) - np.eye(3)
    D[0, 2] = D[2, 0] = bad
    with pytest.raises(NonFiniteDistance):
        ClusteringInstance(n=3, dist=D)


def _unit_metric(n):
    return np.ones((n, n)) - np.eye(n)


def test_instance_rejects_asymmetric_distances():
    D = _unit_metric(3)
    D[0, 1] = 1.5
    with pytest.raises(InconsistentMetric):
        ClusteringInstance(n=3, dist=D)


def test_instance_accepts_asymmetry_within_relative_tolerance():
    D = _unit_metric(3) * 1e6
    D[0, 1] += 1e-7  # 1e-13 of the scale
    ClusteringInstance(n=3, dist=D)


def test_instance_rejects_nonzero_diagonal():
    D = _unit_metric(3)
    D[1, 1] = 0.25
    with pytest.raises(InconsistentMetric):
        ClusteringInstance(n=3, dist=D)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_instance_rejects_non_positive_distances(bad):
    # a zero distance is a duplicate point
    D = _unit_metric(4)
    D[1, 3] = D[3, 1] = bad
    with pytest.raises(NonPositiveDistance):
        ClusteringInstance(n=4, dist=D)


def test_max_cut_instance_rejects_asymmetric_matrix():
    W = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(AsymmetricMatrix):
        MaxQPInstance(n=2, matrix=W, origin="maxcut")
    # a generic form x^T A x reads only the symmetric part of A
    MaxQPInstance(n=2, matrix=W, origin="generic")
