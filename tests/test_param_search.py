"""Root finding, parameter sweeps, and sample-complexity helpers."""

import gc
import json
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partition_tuner import (
    DimensionMismatch,
    DomainError,
    ExpSum,
    IDENTICALLY_ZERO,
    MergeRule,
    Objective,
    Overflow,
    PruningRule,
    RootNotConverged,
    SigmaTooLargeForExact,
    SweepDiverged,
    UnknownFamily,
    best_k_pruning,
    build_tree,
    erm_alpha,
    erm_joint,
    erm_sigma_linear,
    find_roots,
    gen_general_lb,
    gen_oscillation,
    gen_two_gadget,
    objective_value,
    pdim_table,
    sample_size,
    sweep_alpha,
    sweep_p,
)
from partition_tuner import ClusteringInstance, linkage, param_search
from partition_tuner.param_search import BREAK_MERGE_TOL
from conftest import euclidean_instance, wide_ratio_instance
from oracles import (REF_ZERO, grid_joint_min, random_instance, reference_count_collector,
                     reference_find_roots, reference_lazy_sweep, reference_run)


def _pipeline_cost(instances, family, alpha, k, rule, obj, sigma=None, weights=None):
    total = 0.0
    for inst in instances:
        mrule = MergeRule(family=family, alpha=alpha, sigma=sigma, weights=weights)
        tree = build_tree(inst, mrule)
        res = best_k_pruning(inst, tree, k, rule)
        total += objective_value(inst, obj, res.clusters, res.centers)
    return total


# ---------------------------------------------------------------------------
# exponential sums


def test_expsum_combines_like_terms():
    f = ExpSum([(1.0, 2.0), (2.0, 2.0), (0.0, 3.0), (1.0, 2.0, 1)])
    assert f.terms == ((3.0, 2.0, 0), (1.0, 2.0, 1))


def test_expsum_cancellation_is_zero():
    f = ExpSum([(1.5, 2.0, 3), (-1.5, 2.0, 3)])
    assert f.is_zero()
    assert not ExpSum([(1e-300, 2.0)]).is_zero()


def test_expsum_domain_checks():
    with pytest.raises(DomainError):
        ExpSum([(1.0, 0.0)])
    with pytest.raises(DomainError):
        ExpSum([(1.0, -2.0)])
    with pytest.raises(DomainError):
        ExpSum([(1.0, 2.0, -1)])


@pytest.mark.parametrize("term", [(math.nan, 2.0), (math.inf, 2.0), (-math.inf, 2.0),
                                  (1.0, math.nan), (1.0, math.inf)])
def test_expsum_refuses_non_finite_terms(term):
    with pytest.raises(DomainError):
        ExpSum([(1.0, 1.5), term])


def test_expsum_evaluation():
    f = ExpSum([(2.0, 3.0, 1)])  # 2 x 3^x
    assert f(2.0) == pytest.approx(36.0)
    xs = np.array([0.0, 1.0, 2.0])
    assert np.allclose(f(xs), [0.0, 6.0, 36.0])


@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(0.2, 5.0),
    j=st.integers(0, 3),
    x=st.floats(-2.0, 2.0),
)
@settings(max_examples=100, deadline=None)
def test_expsum_derivative_matches_finite_difference(a, b, j, x):
    f = ExpSum([(a, b, j), (0.7, 1.3)])
    df = f.derivative()
    h = 1e-6
    num = (f(x + h) - f(x - h)) / (2 * h)
    scale = max(1.0, abs(num), abs(df(x)))
    assert abs(df(x) - num) <= 1e-4 * scale


def test_find_roots_pure_exponential():
    # 2^x = 3^x only at 0
    assert find_roots(ExpSum([(1.0, 2.0), (-1.0, 3.0)]), -5, 5) == pytest.approx([0.0], abs=1e-9)
    # 2^x = 2 at 1
    r = find_roots(ExpSum([(1.0, 2.0), (-2.0, 1.0)]), -4, 4)
    assert r == pytest.approx([1.0], abs=1e-9)


def test_find_roots_polynomial_branch():
    f = ExpSum([(1.0, 1.0, 2), (-3.0, 1.0, 1), (2.0, 1.0, 0)])  # (x-1)(x-2)
    assert find_roots(f, 0.0, 5.0) == pytest.approx([1.0, 2.0], abs=1e-9)
    assert find_roots(ExpSum([(1.0, 1.0)]), 0.0, 1.0) == []


def test_find_roots_tangent_root():
    # (2^x - 2)^2 expanded: touches zero at 1 without a sign change
    f = ExpSum([(1.0, 4.0), (-4.0, 2.0), (4.0, 1.0)])
    assert find_roots(f, -3.0, 3.0) == pytest.approx([1.0], abs=1e-7)


def test_find_roots_identically_zero():
    assert find_roots(ExpSum([]), 0.0, 1.0) is IDENTICALLY_ZERO
    f = ExpSum([(1.0, 2.0), (1.0, 2.0, 1)])
    g = ExpSum([(-1.0, 2.0), (-1.0, 2.0, 1)])
    assert find_roots(ExpSum(list(f.terms) + list(g.terms)), 0.0, 1.0) is IDENTICALLY_ZERO


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_find_roots_reads_the_sign_of_f_where_its_scaled_sum_overflows():
    # f / 5000^x reads inf - inf near -64, where f itself is finite: f is
    # positive on the whole range, so it has no root there
    f = ExpSum([(1e276, 0.82), (-1.0, 1e-4), (1.0, 5000.0)])
    grid = f(np.linspace(-64.0, 64.0, 4001))
    assert np.isfinite(grid).all() and grid.min() > 0.0
    assert find_roots(f, -64.0, 64.0) == []
    # with the sign of f mirrored, the same
    assert find_roots(ExpSum([(-a, b) for a, b, _ in f.terms]), -64.0, 64.0) == []


def test_find_roots_rejects_empty_interval():
    with pytest.raises(DomainError):
        find_roots(ExpSum([(1.0, 2.0)]), 1.0, 1.0)


def test_find_roots_ends_when_a_derivative_overflows():
    # 1e308 * ln(e^-2) overflows to inf, and inf * ln 1 would be a NaN term at
    # base 1 that no differentiation removes
    terms = [(1.0, math.e ** 2), (1e308, 1.0), (-1.0, math.e ** -1), (1.0, math.e ** -3)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert find_roots(ExpSum(terms), -1.0, 1.0) == reference_find_roots(terms, -1.0, 1.0)


def test_find_roots_takes_no_overflowed_endpoint_for_a_root():
    # f(x) = e^(6x) - c keeps f < 0 on [-64, 64]: its one root is 64 + 1e-6.
    # Scaled by the largest base, f(-64) and its local scale both overflow.
    c = 5.876025294335133e166
    terms = [(1.0, math.e ** 6), (-c, 1.0)]
    grid = np.linspace(-64.0, 64.0, 100001)
    assert np.all(6.0 * grid < math.log(c))
    assert all(math.exp(6.0 * x) - c < 0.0 for x in grid[::100])
    with np.errstate(over="ignore"):
        assert find_roots(ExpSum(terms), -64.0, 64.0) == []
        assert reference_find_roots(terms, -64.0, 64.0) == []


@pytest.mark.parametrize("terms,lo,hi", [
    ([(1.0, 2.0), (-1.0, 3.0)], -math.inf, 1.0),  # root at 0
    ([(1.0, 2.0), (-1.0, 3.0), (0.5, 0.5)], 0.0, math.inf),  # one root, inside
    ([(1.0, 2.0), (-1.0, 3.0)], math.nan, 1.0),
])
def test_find_roots_refuses_non_finite_endpoints(terms, lo, hi):
    with pytest.raises(DomainError):
        find_roots(ExpSum(terms), lo, hi)


def test_find_roots_decides_a_sum_whose_derivative_underflows_as_a_constant():
    # the base-1 term has no derivative, and the other term's, 5e-324 * -0.5,
    # underflows to 0: the derivative is empty, so the sum is read as constant
    tiny = (5e-324, math.exp(-0.5))
    assert find_roots(ExpSum([(-1.0, 1.0), tiny]), -64.0, 64.0) == []
    assert find_roots(ExpSum([tiny, (-5e-324, 1.0)]), -1.0, 1.0) is IDENTICALLY_ZERO


@pytest.mark.parametrize("lo,hi", [(-1.0, 1.0), (0.5, 1.0)])
def test_a_sum_whose_base_ratio_overflows_is_refused(lo, hi):
    # scaled by its largest base, the smallest base would underflow to 0
    terms = [(1.0, 1e-170), (-1.0, 1e170)]
    with pytest.raises(Overflow):
        find_roots(ExpSum(terms), lo, hi)
    with pytest.raises(Overflow):
        param_search._Solver(lo, hi).resolve([_key(terms)])
    ExpSum([(1.0, 1e-150), (-1.0, 1e150)])  # a ratio of 1e300 stays in range


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("family,alpha_range,sigma", [
    ("power_minmax", (0.5, 3.0), None), ("power_minmax", (-3.0, 3.0), None),
    ("power_average", (-3.0, 3.0), None), ("sigma_power", (0.5, 3.0), 2)])
def test_sweeps_refuse_distances_whose_ratio_overflows(family, alpha_range, sigma):
    with pytest.raises(Overflow):
        erm_alpha([wide_ratio_instance()], family, alpha_range, 2, PruningRule(p=2.0),
                  Objective(kind="phi_p", p=2.0), sigma=sigma)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_exponent_sweeps_refuse_distances_whose_ratio_overflows():
    inst, obj = wide_ratio_instance(), Objective(kind="phi_p", p=2.0)
    with pytest.raises(Overflow):
        erm_joint([inst], "convex_minmax", (0.0, 1.0), (0.5, 3.0), 2, obj)
    tree = build_tree(inst, MergeRule("convex_minmax", alpha=0.5))
    with pytest.raises(Overflow):
        sweep_p([inst], [tree], 2, (0.5, 3.0), obj)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_convex_sweep_of_distances_whose_ratio_overflows_is_unchanged():
    # its equations are affine in alpha, with base 1 only
    res = erm_alpha([wide_ratio_instance()], "convex_minmax", (0.0, 1.0), 2,
                    PruningRule(p=2.0), Objective(kind="phi_p", p=2.0))
    assert (res.best_param, res.best_interval, res.best_cost) == (0.5, (0.0, 1.0), 1.0)
    assert res.profile.breakpoints == [0.0, 1.0] and res.instances_evaluated == 1
    assert res.profile.payloads == [(frozenset({(0, 1), (0, 1, 3), (0, 1, 2, 3)}),)]


def test_find_roots_refuses_a_bracket_bisection_cannot_narrow():
    # 200 halvings leave a bracket about 1e248 wide
    with np.errstate(over="ignore"), pytest.raises(RootNotConverged):
        find_roots(ExpSum([(1.0, 2.0), (-1.0, 3.0), (0.5, 0.5)]), -1e308, 1e308)
    # a tolerance below one ulp stops at adjacent floats
    assert find_roots(ExpSum([(1.0, 2.0), (-2.0, 1.0)]), -4.0, 4.0, tol=0.0) == [1.0]


@given(
    bases=st.lists(st.floats(0.3, 4.0), min_size=1, max_size=3, unique=True),
    coeffs=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_find_roots_accuracy_property(bases, coeffs):
    terms = [(c, b) for c, b in zip(coeffs, bases) if c != 0.0]
    if not terms:
        return
    f = ExpSum(terms)
    roots = find_roots(f, -6.0, 6.0)
    if roots is IDENTICALLY_ZERO:
        return
    for r in roots:
        scale = sum(abs(a) * b ** r for a, b, _ in f.terms)
        assert abs(f(r)) <= 1e-7 * max(scale, 1e-12)


# the solver against its unscreened reference

_BASES = [0.5, 1.0, 1.1, 1.2, 2.0]
_coeff = st.one_of(
    st.integers(-6, 6).filter(bool).map(float),
    st.floats(1e-3, 2.0) | st.floats(-2.0, -1e-3),
)
_base = st.one_of(st.sampled_from(_BASES), st.floats(-1.5, 1.5).map(math.exp))


def _same_roots(terms, lo, hi):
    got = find_roots(ExpSum(terms), lo, hi)
    want = reference_find_roots(terms, lo, hi)
    if want == REF_ZERO:
        assert got is IDENTICALLY_ZERO
    else:
        assert got == want


@given(terms=st.lists(st.tuples(_coeff, _base), min_size=1, max_size=7),
       lo=st.floats(-6.0, 0.0), width=st.floats(0.5, 8.0))
@settings(max_examples=400, deadline=None)
def test_screened_solver_matches_reference_on_exponential_sums(terms, lo, width):
    _same_roots(terms, lo, lo + width)


@given(terms=st.lists(st.tuples(_coeff, _base, st.integers(0, 3)), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_screened_solver_matches_reference_on_mixed_degrees(terms):
    _same_roots(terms, -3.0, 3.0)


def test_screened_solver_matches_reference_on_drawn_sums():
    # draws shaped like the bulk property suite's
    rng = np.random.default_rng(4321)
    for _ in range(400):
        terms = []
        for _ in range(int(rng.integers(1, 6))):
            coeff = float(rng.uniform(-2.0, 2.0)) or 0.7
            base = (float(rng.choice(_BASES)) if rng.random() < 0.4
                    else float(np.exp(rng.uniform(-1.5, 1.5))))
            terms.append((coeff, base, int(rng.integers(0, 4))))
        _same_roots(terms, -3.0, 3.0)


# the partial-sum screen: degree-0 sums out to 40 terms, bases out to e^+-10,
# ends out to the +-64 sweep clip, and roots planted just inside or outside
# an end

_ENDS = [(-64.0, 64.0), (-64.0, -63.0), (63.0, 64.0), (0.5, 3.0), (-2.0, 5.0)]


def _planted(coeffs, logs, lo, hi, plant, depth, pivot):
    """The terms (coeffs[i], e^logs[i]).  With plant set, the coefficient at
    `pivot` is chosen so the sum vanishes `depth` inside lo or hi (outside
    for a negative depth), or `depth` right of the middle; None if that
    coefficient is zero or not finite."""
    terms = [(a, math.exp(lb)) for a, lb in zip(coeffs, logs)]
    if plant:
        r = {"lo": lo + depth, "hi": hi - depth, "mid": 0.5 * (lo + hi) + depth}[plant]
        k = pivot % len(terms)
        bk = terms[k][1]
        try:
            ak = -math.fsum(a * (b / bk) ** r for i, (a, b) in enumerate(terms) if i != k)
        except OverflowError:
            return None
        if not ak or not math.isfinite(ak):
            return None
        terms[k] = (ak, bk)
    return terms


def _screen_agrees(coeffs, logs, lo, hi, plant, depth, pivot):
    """find_roots equals the unscreened reference on the sum, and whenever
    the screen proves the sum empty the reference finds no root either.
    The sum is _planted's.  Returns the screen's verdict."""
    terms = _planted(coeffs, logs, lo, hi, plant, depth, pivot)
    if terms is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        _same_roots(terms, lo, hi)
        f = ExpSum(terms)
        screened = not f.is_zero() and param_search._keeps_sign(f.terms, lo, hi)
        if screened:
            assert reference_find_roots(terms, lo, hi) == []
    return screened


_near_cancelling = st.one_of(
    _coeff,
    st.sampled_from([1.0, -1.0]).flatmap(
        lambda s: st.floats(-1e-12, 1e-12).map(lambda e: s * (1.0 + e))),
)


@given(coeffs=st.lists(_near_cancelling, min_size=2, max_size=40),
       logs=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=40, unique=True),
       ends=st.sampled_from(_ENDS), plant=st.sampled_from([None, "lo", "hi"]),
       depth=st.floats(1e-13, 1e-6) | st.floats(-1e-6, -1e-13), pivot=st.integers(0, 39))
@example(coeffs=[1.0, 1.0], logs=[6.0, 0.0], ends=(-64.0, 64.0), plant="hi", depth=-1e-6,
         pivot=1)  # the c_j at lo overflow
@settings(max_examples=150, deadline=None)
def test_partial_sum_screen_matches_reference(coeffs, logs, ends, plant, depth, pivot):
    _screen_agrees(coeffs, logs, *ends, plant, depth, pivot)


def test_partial_sum_screen_matches_reference_on_drawn_sums():
    rng = np.random.default_rng(97)
    verdicts = []
    for _ in range(150):
        m = int(rng.integers(2, 41))
        coeffs = np.where(rng.random(m) < 0.5, rng.choice([-1.0, 1.0], m),
                          rng.uniform(-2.0, 2.0, m)).tolist()
        logs = rng.uniform(-10.0, 10.0, m) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0, m)
        lo, hi = _ENDS[int(rng.integers(len(_ENDS)))]
        plant = [None, "lo", "hi"][int(rng.integers(3))]
        depth = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-13.0, -6.0))
        verdicts.append(_screen_agrees(coeffs, logs.tolist(), lo, hi, plant, depth,
                                       int(rng.integers(m))))
    # the draws exercise both outcomes of the screen
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


# the interval enclosure, on the same sums and on planted near-tangent and
# overflowing ones: whatever it proves one-signed has no root and is not
# identically zero under the unscreened reference


def _key(terms):
    return param_search._canon_terms([(a, b, 0) for a, b in terms])


def _enclosure_sound(terms, lo, hi):
    """_one_signed's verdict on the degree-0 sum terms; a sum it proves has
    neither a root nor IDENTICALLY_ZERO under the reference."""
    with np.errstate(over="ignore", invalid="ignore"):
        proven = bool(param_search._one_signed([_key(terms)], lo, hi)[0])
        if proven:
            assert reference_find_roots(terms, lo, hi) == []
    return proven


@given(coeffs=st.lists(_near_cancelling, min_size=1, max_size=40),
       logs=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=40, unique=True),
       ends=st.sampled_from(_ENDS), plant=st.sampled_from([None, "lo", "hi", "mid"]),
       depth=st.floats(1e-13, 1e-6) | st.floats(-1e-6, -1e-13), pivot=st.integers(0, 39))
@example(coeffs=[1.0, 1.0], logs=[6.0, 0.0], ends=(-64.0, 64.0), plant=None, depth=1e-6,
         pivot=0)  # one-signed, but the terms overflow at the top
@example(coeffs=[1.0, 1.0], logs=[-1.75, 9.5], ends=(-64.0, 64.0), plant="hi", depth=-1e-6,
         pivot=1)  # f / b_max^x at 64 is below find_roots' scale floor, f is not
@settings(max_examples=200, deadline=None)
def test_interval_enclosure_proves_no_sum_with_a_root(coeffs, logs, ends, plant, depth, pivot):
    terms = _planted(coeffs, logs, *ends, plant, depth, pivot)
    if terms is not None:
        _enclosure_sound(terms, *ends)


def test_interval_enclosure_is_sound_on_drawn_sums_one_at_a_time_and_together():
    rng = np.random.default_rng(19)
    keys, verdicts = {}, []
    for _ in range(300):
        m = int(rng.integers(1, 30))
        coeffs = rng.uniform(-2.0, 2.0, m)
        coeffs[rng.random(m) < 0.3] = 0.05  # small terms of one sign
        logs = rng.uniform(-2.0, 2.0, m)
        lo, hi = _ENDS[int(rng.integers(3, len(_ENDS)))]
        terms = _planted(coeffs.tolist(), logs.tolist(), lo, hi,
                         [None, None, "lo", "hi", "mid"][int(rng.integers(5))],
                         float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -1.0)),
                         int(rng.integers(m)))
        if terms is not None and not param_search._keeps_sign(ExpSum(terms).terms, lo, hi):
            verdicts.append(_enclosure_sound(terms, lo, hi))
            keys.setdefault((lo, hi), []).append((_key(terms), verdicts[-1]))
    # sums the partial-sum screen leaves open, proven and refused ...
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20
    # ... and laid end to end, every sum gets its own verdict
    for (lo, hi), pairs in keys.items():
        together = param_search._one_signed([key for key, _ in pairs], lo, hi)
        assert together.tolist() == [proven for _, proven in pairs]


@pytest.mark.parametrize("lo,hi", [(0.5, 3.0), (-2.0, 5.0), (-64.0, 64.0)])
@pytest.mark.parametrize("gap", [1e-10, 1e-11, 0.0])
def test_interval_enclosure_refuses_near_tangent_sums(lo, hi, gap):
    # (b^x - b^t)^2 + gap * 4 b^(2t) keeps one sign but comes within gap of
    # its scale 4 b^(2t) at x = t: too close to zero for the 1e-9 margin
    b, t = 1.5, 0.5 * (lo + hi) + 0.0123
    terms = [(1.0, b * b), (-2.0 * b ** t, b), (b ** (2 * t) * (1.0 + 4.0 * gap), 1.0)]
    far = [(1.0, b * b), (-2.0 * b ** t, b), (b ** (2 * t) * 10.0, 1.0)]  # 3/4 of its scale away
    assert param_search._one_signed([_key(terms)], lo, hi).tolist() == [False]
    assert param_search._one_signed([_key(far), _key(terms), _key(far)], lo, hi).tolist() == [
        True, False, True]
    # the solver then answers as the reference does
    want = reference_find_roots(terms, lo, hi)
    assert param_search._Solver(lo, hi)(_key(terms))[1] == want
    assert (want == []) == (gap > 0.0)
    # 1 - (1 - 2 gap) b^x with b one ulp above 1 is nearly flat, so its
    # enclosure is tight and only the margin refuses it; 1e-8 of its scale
    # away it is proven
    flat, wide = ([(1.0, 1.0), (-(1.0 - 2.0 * g), 1.0 + 2.0 ** -52)] for g in (gap, 1e-8))
    assert param_search._one_signed([_key(flat), _key(wide)], lo, hi).tolist() == [False, True]


@pytest.mark.parametrize("terms,lo,hi", [
    ([(2.0, math.exp(12.0)), (-1.0, math.exp(11.9))], 0.0, 64.0),  # b^x overflows
    ([(1e300, math.e), (-1.0, 2.0)], 0.0, 64.0),  # a b^x overflows, b^x does not
    ([(1.0, math.exp(20.0)), (1.0, math.exp(-20.0))], -64.0, 64.0),  # at both ends
    ([(1e276, 0.82), (-1.0, 5000.0)], -64.0, 64.0),  # f is finite, f / b_max^x is not
])
def test_interval_enclosure_refuses_sums_whose_terms_overflow(terms, lo, hi):
    # each sum keeps one sign on [lo, hi], and the enclosure proves it on
    # [-1, 1], but on [lo, hi] the enclosure is not finite
    assert param_search._one_signed([_key(terms)], lo, hi).tolist() == [False]
    assert param_search._one_signed([_key(terms)], -1.0, 1.0).tolist() == [True]


# the batched partial-sum screen: wherever it decides, it decides as
# _keeps_sign, also on sums laid end to end, near its thresholds and where
# terms overflow; with the scalar fallback it always does


def _screened_in_batch(sums, lo, hi):
    """_keeps_signs on the degree-0 sums laid end to end, in numpy however
    few their terms, checked against _keeps_sign on each; for each sum,
    True if the batch decided it without falling back to _keeps_sign."""
    terms = [ExpSum(t).terms for t in sums]
    a, b = (np.array([term[i] for t in terms for term in t]) for i in (0, 1))
    lengths = np.array([len(t) for t in terms])
    want = [param_search._keeps_sign(t, lo, hi) for t in terms]
    fell, keeps_sign = set(), param_search._keeps_sign

    def fallback(t, lo, hi):
        fell.add(tuple(t))
        return keeps_sign(t, lo, hi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(param_search, "_keeps_sign", fallback)
        patch.setattr(param_search, "_SCREEN_TERMS", 0)
        assert param_search._keeps_signs(a, b, lengths, lo, hi).tolist() == want
    return np.array([t not in fell for t in terms])


def _near_threshold(eps, lo, hi, ratio):
    """1 - (1 - eps) (b1 / b0)^(x - hi), two terms whose partial sum at hi
    is eps, about eps / 2 of their magnitude sum."""
    b0, b1 = 1.0, ratio
    return [(1.0, b0), (-(1.0 - eps) * (b0 / b1) ** hi, b1)]


@given(sums=st.lists(st.tuples(
           st.lists(_near_cancelling, min_size=2, max_size=12),
           st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=12, unique=True),
           st.sampled_from([None, "lo", "hi", "mid"]),
           st.floats(1e-13, 1e-6) | st.floats(-1e-6, -1e-13), st.integers(0, 11)),
           min_size=1, max_size=6),
       ends=st.sampled_from(_ENDS), eps=st.lists(st.floats(1e-14, 1e-9), max_size=4),
       ratio=st.floats(1.01, 3.0))
@example(sums=[([1.0, 1.0], [6.0, 0.0], None, 1e-6, 0)], ends=(-64.0, 64.0), eps=[],
         ratio=2.0)  # b^x overflows at both ends
@example(sums=[([1e276 / 5000.0 ** 64, -1.0, 1.0], [-0.2, -9.2, 8.5], None, 1e-6, 0)],
         ends=(-64.0, 64.0), eps=[2e-12, 8e-12], ratio=1.5)
@settings(max_examples=150, deadline=None)
def test_batched_screen_decides_as_keeps_sign(sums, ends, eps, ratio):
    lo, hi = ends
    laid = []
    for coeffs, logs, plant, depth, pivot in sums:
        m = min(len(coeffs), len(logs))
        terms = _planted(coeffs[:m], logs[:m], lo, hi, plant, depth, pivot)
        if terms is not None:
            laid.append(terms)
    laid += [_near_threshold(e, lo, hi, ratio) for e in eps]
    laid = [t for t in laid if not ExpSum(t).is_zero()]
    if laid:
        with np.errstate(over="ignore", invalid="ignore"):
            _screened_in_batch(laid, lo, hi)


def test_batched_screen_decides_most_drawn_sums_in_length_buckets(monkeypatch):
    rng = np.random.default_rng(20)
    lo, hi = 0.5, 3.0
    sums = []
    for _ in range(400):
        m = int(rng.integers(1, 40))
        sums.append(list(zip(rng.integers(-9, 10, m).astype(float) + 0.5,
                             np.sort(rng.choice(np.arange(1, 200), m, replace=False)) / 40.0)))
    decided = _screened_in_batch(sums, lo, hi)
    assert decided.mean() > 0.95
    # in passes of a few cells each, by length bucket, the verdicts are the same
    monkeypatch.setattr(param_search, "_SCREEN_CELLS", 64)
    assert (_screened_in_batch(sums, lo, hi) == decided).all()


def test_solver_answers_identically_zero_keys_with_the_screened_entry():
    solve = param_search._Solver(0.5, 3.0)
    cancel = ((2.0, 0, 1.0), (2.0, 0, -1.0))  # 2^x - 2^x
    assert solve(()) is solve.screened and solve(cancel) is solve.screened
    # so a run that executes them carries no equation and no root
    rec = param_search._Run(1.0, lambda x: ("fp", 0.0, {(), cancel}), solve)
    assert rec.eqs == [] and rec.roots == []


class _Store:
    """What _average_keys reads of a PairMultisets: its distances and
    interned multisets."""

    supports = linkage.PairMultisets.supports

    def __init__(self, distinct, multisets):
        self.distinct, self.beta = distinct, distinct.size
        self.keys = [np.asarray(i, np.int64).tobytes() + np.asarray(c, np.int64).tobytes()
                     for i, c in multisets]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_batched_average_keys_equal_the_scalar_encoding(data):
    beta = data.draw(st.integers(1, 12))
    distinct = np.sort(data.draw(st.lists(st.floats(0.01, 100.0), min_size=beta,
                                          max_size=beta, unique=True)))
    multisets = []
    for _ in range(data.draw(st.integers(1, 6))):
        idx = sorted(data.draw(st.sets(st.integers(0, beta - 1), min_size=1)))
        cnt = data.draw(st.lists(st.integers(1, 10 ** 4), min_size=len(idx), max_size=len(idx)))
        multisets.append((np.array(idx), np.array(cnt)))
        if data.draw(st.booleans()):  # a proportional multiset: an identically zero equation
            multisets.append((np.array(idx), 2 * np.array(cnt)))
    ids = st.integers(0, len(multisets) - 1)
    queue = data.draw(st.lists(st.tuples(ids, st.lists(ids, min_size=1, unique=True)),
                               max_size=5))
    store = _Store(distinct, multisets)
    want = [(w, s, param_search._canon_terms(linkage.average_terms(
        multisets[w], multisets[s], distinct))) for w, fresh in queue for s in fresh]
    want = [pair for pair in want if pair[2]]
    assert repr(param_search._encode("power_average", None, queue, store, None)) == repr(want)
    # with a solver, the pairs whose keys it screens, in numpy however few
    # their terms, are left out
    solve = param_search._Solver(*data.draw(st.sampled_from(_ENDS)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.MonkeyPatch.context() as patch:
        patch.setattr(param_search, "_SCREEN_TERMS", 0)
        got = param_search._encode("power_average", None, queue, store, solve)
        assert got == [pair for pair in want if solve(pair[2]) is not solve.screened]


def _recorded_solves(monkeypatch, sweep):
    """Every (terms, lo, hi, roots) that `sweep` solved with find_roots, and
    every (key, lo, hi) whose key one of its solvers proved one-signed
    without solving, by the partial-sum screen or the interval enclosure."""
    solves, solvers = [], []

    def recording(f, lo, hi, tol=param_search.ROOT_TOL):
        roots = find_roots(f, lo, hi, tol)
        solves.append((list(f.terms), lo, hi, roots))
        return roots

    class RecordingSolver(param_search._Solver):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            solvers.append(self)

    monkeypatch.setattr(param_search, "find_roots", recording)
    monkeypatch.setattr(param_search, "_Solver", RecordingSolver)
    sweep()
    monkeypatch.undo()
    # every key a sweep met is settled: proven one-signed, or built and solved
    hits = [(key, s.lo, s.hi, hit) for s in solvers for key, hit in s.cache.items()]
    assert solvers and all(hit for *_, hit in hits)
    return solves, {(key, lo, hi) for key, lo, hi, hit in hits if hit[0] is None}


def test_sweep_equations_solve_exactly_as_the_reference(monkeypatch):
    rng = np.random.default_rng(12)
    obj = Objective(kind="phi_p", p=2.0)
    avg = [euclidean_instance(rng, 12)]
    mm = [euclidean_instance(rng, 9) for _ in range(2)]
    trees = [build_tree(inst, MergeRule(family="power_minmax", alpha=1.5)) for inst in mm]
    for sweep in (
        lambda: sweep_alpha(avg, "power_average", (0.5, 3.0), 3, PruningRule(p=2.0), obj),
        lambda: sweep_alpha(mm, "power_minmax", (0.5, 4.0), 3, PruningRule(p=2.0), obj),
        # equations of dp_with_comparisons at every point the sweep runs
        lambda: sweep_p(mm, trees, 3, (0.5, 6.0), obj),
    ):
        solves, screened = _recorded_solves(monkeypatch, sweep)
        # the solver screens a key once, from its terms, and solves the rest
        assert solves and screened and len(solves) + len(screened) >= 20
        for terms, lo, hi, roots in solves:
            assert roots == reference_find_roots(terms, lo, hi)
        for key, lo, hi in screened:
            assert reference_find_roots(param_search._terms_from_key(key), lo, hi) == []


@given(terms=st.lists(st.tuples(_coeff, _base, st.integers(0, 3)), min_size=1, max_size=6),
       xs=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_expsum_scalar_and_array_paths_agree(terms, xs):
    f = ExpSum(terms)
    arr = f(np.asarray(xs))
    for x, v in zip(xs, arr):
        scale = sum(abs(a) * b ** x * abs(x) ** j for a, b, j in f.terms)
        assert abs(f(x) - v) <= 1e-12 * scale


def test_expsum_scalar_overflow_returns_inf():
    with np.errstate(over="ignore"):
        assert ExpSum([(1.0, 10.0)])(400.0) == math.inf
        assert ExpSum([(2.0, 1.0, 200)])(1e10) == math.inf
        assert ExpSum([(-1.0, 10.0, 1)])(400.0) == -math.inf


# ---------------------------------------------------------------------------
# alpha sweeps


def test_sweep_two_points_single_cell():
    inst = euclidean_instance(np.random.default_rng(0), 2)
    prof = sweep_alpha([inst], "convex_minmax", (0.0, 1.0), 1,
                       PruningRule(p=1.0), Objective(kind="phi_p", p=1.0))
    assert len(prof) == 1
    assert prof.breakpoints == [0.0, 1.0]
    assert prof.parameter == "alpha"
    assert prof.interval(0) == (0.0, 1.0)


def test_sweep_alpha_values_match_direct_runs():
    rng = np.random.default_rng(21)
    instances = [euclidean_instance(rng, 8) for _ in range(2)]
    rule, obj = PruningRule(p=1.0), Objective(kind="phi_p", p=1.0)
    prof = sweep_alpha(instances, "power_average", (0.5, 3.0), 2, rule, obj)
    assert len(prof) >= 1
    for i, rep in enumerate(prof.representatives):
        lo, hi = prof.interval(i)
        assert lo < rep < hi
        direct = _pipeline_cost(instances, "power_average", rep, 2, rule, obj)
        assert direct == pytest.approx(prof.values[i], rel=1e-12)


def test_sweep_alpha_cells_are_really_constant():
    rng = np.random.default_rng(22)
    instances = [euclidean_instance(rng, 9)]
    rule, obj = PruningRule(p=2.0), Objective(kind="psi_pow", p=2.0)
    prof = sweep_alpha(instances, "convex_minmax", (0.0, 1.0), 3, rule, obj)
    for i in range(len(prof)):
        lo, hi = prof.interval(i)
        for t in (0.15, 0.5, 0.85):
            a = lo + t * (hi - lo)
            got = _pipeline_cost(instances, "convex_minmax", a, 3, rule, obj)
            assert got == pytest.approx(prof.values[i], rel=1e-12)


def test_sweep_alpha_zero_is_hard_boundary_for_minmax_power():
    rng = np.random.default_rng(23)
    inst = euclidean_instance(rng, 6)
    prof = sweep_alpha([inst], "power_minmax", (-1.0, 1.0), 2,
                       PruningRule(p=1.0), Objective(kind="phi_p", p=1.0))
    assert 0.0 in prof.hard_boundaries
    assert 0.0 in prof.breakpoints


def test_sweep_alpha_domain_errors():
    rng = np.random.default_rng(24)
    inst = euclidean_instance(rng, 5)
    rule, obj = PruningRule(p=1.0), Objective(kind="phi_p", p=1.0)
    with pytest.raises(DomainError):
        sweep_alpha([inst], "convex_minmax", (-0.2, 0.5), 2, rule, obj)
    with pytest.raises(DomainError):
        sweep_alpha([inst], "convex_minmax", (0.8, 0.2), 2, rule, obj)


@pytest.mark.parametrize("alpha_range,p_range", [
    ((math.inf, math.inf), (0.5, 3.0)),   # empty once clipped to +-64
    ((100.0, 200.0), (0.5, 3.0)),         # entirely beyond the clip
    ((math.nan, 1.0), (0.5, 3.0)),
    ((0.5, 1.5), (70.0, 100.0)),          # p range beyond the clip
    ((0.5, 1.5), (0.5, math.nan)),
    ((0.5, 1.5), (math.nan, 2.0)),
    ((0.5, 1.5), (0.0, 2.0)),             # non-positive
    ((0.5, 1.5), (-1.0, 2.0)),
    ((0.5, 1.5), (3.0, 2.0)),             # reversed
])
def test_ranges_that_are_empty_after_clipping_are_refused(alpha_range, p_range, monkeypatch):
    inst = euclidean_instance(np.random.default_rng(26), 5)
    obj = Objective(kind="phi_p", p=1.0)

    def no_build(*args, **kwargs):
        pytest.fail("a tree was built before the ranges were checked")

    # both ranges are refused before any tree is built
    monkeypatch.setattr(param_search, "_run", no_build)
    with pytest.raises(DomainError):
        erm_joint([inst], "power_average", alpha_range, p_range, 2, obj)
    if p_range == (0.5, 3.0):
        with pytest.raises(DomainError):
            sweep_alpha([inst], "power_minmax", alpha_range, 2, PruningRule(p=1.0), obj)


def test_erm_alpha_agrees_with_profile():
    rng = np.random.default_rng(25)
    instances = [euclidean_instance(rng, 8) for _ in range(2)]
    rule, obj = PruningRule(p=1.0), Objective(kind="phi_p", p=1.0)
    res = erm_alpha(instances, "convex_minmax", (0.0, 1.0), 2, rule, obj)
    assert res.best_cost == min(res.profile.values)
    lo, hi = res.best_interval
    assert lo <= res.best_param <= hi
    direct = _pipeline_cost(instances, "convex_minmax", res.best_param, 2, rule, obj)
    assert direct == pytest.approx(res.best_cost, rel=1e-12)
    assert res.instances_evaluated > 0


def test_erm_alpha_beats_dense_grid():
    rng = np.random.default_rng(26)
    instances = [euclidean_instance(rng, 7) for _ in range(2)]
    rule, obj = PruningRule(p=1.5), Objective(kind="phi_p", p=1.5)
    res = erm_alpha(instances, "power_average", (0.5, 2.5), 3, rule, obj)
    grid = min(
        _pipeline_cost(instances, "power_average", a, 3, rule, obj)
        for a in np.linspace(0.5001, 2.4999, 400)
    )
    assert res.best_cost <= grid + 1e-12


# ---------------------------------------------------------------------------
# exponent sweeps and the joint search


def test_sweep_p_matches_pointwise_dp():
    rng = np.random.default_rng(31)
    instances = [euclidean_instance(rng, 8) for _ in range(2)]
    trees = [build_tree(i, MergeRule("power_average", 1.0)) for i in instances]
    obj = Objective(kind="phi_p", p=2.0)
    prof = sweep_p(instances, trees, 3, (0.5, 4.0), obj)
    assert prof.parameter == "p"
    for i, rep in enumerate(prof.representatives):
        total = 0.0
        for inst, tree in zip(instances, trees):
            res = best_k_pruning(inst, tree, 3, PruningRule(p=rep))
            total += objective_value(inst, obj, res.clusters, res.centers)
        assert total == pytest.approx(prof.values[i], rel=1e-12)


def test_sweep_p_rejects_bad_range():
    rng = np.random.default_rng(32)
    inst = euclidean_instance(rng, 5)
    tree = build_tree(inst, MergeRule("power_average", 1.0))
    obj = Objective(kind="phi_p", p=1.0)
    with pytest.raises(DomainError):
        sweep_p([inst], [tree], 2, (0.0, 2.0), obj)
    with pytest.raises(DomainError):
        sweep_p([inst], [tree], 2, (3.0, 2.0), obj)


def test_sweep_p_refuses_unequal_tree_and_instance_counts():
    rng = np.random.default_rng(34)
    a, b = euclidean_instance(rng, 5), euclidean_instance(rng, 5)
    tree_a = build_tree(a, MergeRule("power_average", 1.0))
    obj = Objective(kind="phi_p", p=1.0)
    for instances, trees in (([a, b], [tree_a]), ([a], [tree_a, tree_a])):
        with pytest.raises(DimensionMismatch):
            sweep_p(instances, trees, 2, (0.5, 2.0), obj)
        with pytest.raises(DimensionMismatch):
            param_search._sweep_p_cells(instances, trees, 2, (0.5, 2.0), obj, "fixed",
                                        param_search._Solver(0.5, 2.0))


def test_sparse_keys_equal_canonical_terms_on_random_dps():
    rng = np.random.default_rng(36)
    flips = set()
    for _ in range(12):
        inst = random_instance(rng, n=int(rng.integers(4, 10)))
        family = ["power_minmax", "power_average"][int(rng.integers(2))]
        tree = build_tree(inst, MergeRule(family, float(rng.uniform(0.5, 3.0))))
        k = int(rng.integers(1, inst.n + 1))
        _, comps, _ = param_search.dp_with_comparisons(inst, tree, k, float(rng.uniform(0.5, 4.0)))
        for coeffs, vals in comps:
            key = param_search._sparse_key(coeffs, vals)
            assert key == param_search._canon_terms(
                [(a, b, 0) for a, b in zip(coeffs, vals)])
            flips.add(bool(coeffs[0] < 0))
    # both signs of the leading coefficient occur
    assert flips == {False, True}


def test_erm_joint_sweeps_each_tree_tuple_once(monkeypatch):
    rng = np.random.default_rng(35)
    instances = [euclidean_instance(rng, 7) for _ in range(2)]
    obj = Objective(kind="phi_p", p=2.0)
    family, arange, prange, k = "power_minmax", (0.3, 2.5), (0.5, 3.0), 2
    events, solves = [], []
    run, dp, roots = param_search._run, param_search.dp_with_comparisons, find_roots
    p_cells, alpha_sweep = param_search._sweep_p_cells, param_search._collected_sweep

    def building(inst, mrule, collector=None, table=None, ids=None):
        events.append(("build", mrule.alpha))
        return run(inst, mrule, collector=collector, table=table, ids=ids)

    def sweeping(insts, trees, *args):
        events.append(("sweep", tuple(tuple(t.merges) for t in trees)))
        return p_cells(insts, trees, *args)

    def dp_recording(inst, tree, kk, p):
        events.append(("dp", next(i for i, x in enumerate(instances) if x is inst), p))
        return dp(inst, tree, kk, p)

    def solving(f, lo, hi, tol=param_search.ROOT_TOL):
        solves.append((f.terms, lo, hi))
        return roots(f, lo, hi, tol)

    def marked(*args):
        out = alpha_sweep(*args)
        events.append(("alpha swept",))
        return out

    monkeypatch.setattr(param_search, "_run", building)
    monkeypatch.setattr(param_search, "_collected_sweep", marked)
    monkeypatch.setattr(param_search, "_sweep_p_cells", sweeping)
    monkeypatch.setattr(param_search, "dp_with_comparisons", dp_recording)
    monkeypatch.setattr(param_search, "find_roots", solving)
    res = erm_joint(instances, family, arange, prange, k, obj)
    monkeypatch.undo()

    # no tree tuple is swept twice
    sweeps = [e[1] for e in events if e[0] == "sweep"]
    assert 2 <= len(sweeps) == len(set(sweeps))
    # within a sweep, no instance's DP runs twice at one exponent
    runs, sweep = [], -1
    for e in events:
        sweep += e[0] == "sweep"
        if e[0] == "dp":
            runs.append((sweep, *e[1:]))
    assert len(set(runs)) == len(runs) == res.instances_evaluated
    # the best alpha's trees come from its swept cell, whose exponent sweep
    # was done: looking them up builds and sweeps nothing
    assert events[-1] == ("alpha swept",)
    # no equation is solved twice on one domain
    assert len(set(solves)) == len(solves)
    assert any((lo, hi) == prange for _, lo, hi in solves)

    _assert_best_p_from_fresh_trees(res, instances, family, k, prange, obj)


def _assert_best_p_from_fresh_trees(res, instances, family, k, prange, obj):
    arep, prep = res.best_param
    trees = [build_tree(inst, MergeRule(family, arep)) for inst in instances]
    plo, phi_, _, fresh_rep = param_search._best_run(sweep_p(instances, trees, k, prange, obj))
    assert res.best_interval[1] == (plo, phi_)
    assert prep == fresh_rep


def test_erm_joint_builds_the_trees_at_a_best_alpha_on_a_cell_end(monkeypatch):
    # where merges tie the trees may be neither side's, so a best alpha that
    # falls on an end of a swept cell gets trees built there
    rng = np.random.default_rng(35)
    instances = [euclidean_instance(rng, 7) for _ in range(2)]
    obj = Objective(kind="phi_p", p=2.0)
    family, arange, prange, k = "power_minmax", (0.3, 2.5), (0.5, 3.0), 2
    best_run, run, builds, ends = param_search._best_run, param_search._run, [], []

    def on_a_cell_end(profile):
        lo, hi, cost, rep = best_run(profile)
        if profile.parameter == "alpha":
            rep = profile.breakpoints[len(profile.breakpoints) // 2]
            ends.append(rep)
        return lo, hi, cost, rep

    def building(inst, mrule, collector=None, table=None, ids=None):
        builds.append((collector is None, mrule.alpha))
        return run(inst, mrule, collector=collector, table=table, ids=ids)

    monkeypatch.setattr(param_search, "_best_run", on_a_cell_end)
    monkeypatch.setattr(param_search, "_run", building)
    res = erm_joint(instances, family, arange, prange, k, obj)
    monkeypatch.undo()
    (end,) = ends
    assert arange[0] < end < arange[1] and res.best_param[0] == end
    # the sweep's builds are collected; the last ones are plain, at the end
    assert [alpha for plain, alpha in builds if plain] == [end] * len(instances)
    assert builds[-len(instances):] == [(True, end)] * len(instances)
    _assert_best_p_from_fresh_trees(res, instances, family, k, prange, obj)


def test_erm_joint_matches_grid_oracle():
    rng = np.random.default_rng(33)
    instances = [random_instance(rng, n=8) for _ in range(2)]
    obj = Objective(kind="phi_p", p=2.0)
    res = erm_joint(instances, "power_average", (0.5, 2.5), (0.5, 3.0), 2, obj)
    a_grid = np.linspace(0.5001, 2.4999, 80)
    p_grid = np.linspace(0.5001, 2.9999, 80)
    grid = grid_joint_min(instances, "power_average", a_grid, p_grid, 2, obj)
    assert res.best_cost <= grid + 1e-12
    (alo, ahi), (plo, phi_) = res.best_interval
    arep, prep = res.best_param
    assert alo <= arep <= ahi
    assert plo <= prep <= phi_
    # the reported optimum is attained at the reported parameters
    total = 0.0
    for inst in instances:
        tree = build_tree(inst, MergeRule("power_average", arep))
        r = best_k_pruning(inst, tree, 2, PruningRule(p=prep))
        total += objective_value(inst, obj, r.clusters, r.centers)
    assert total == pytest.approx(res.best_cost, rel=1e-12)


# ---------------------------------------------------------------------------
# weight search for the selector-linear family


def test_erm_sigma_linear_exact_two_weights():
    rng = np.random.default_rng(41)
    instances = [euclidean_instance(rng, 7) for _ in range(2)]
    rule, obj = PruningRule(p=1.0), Objective(kind="phi_p", p=1.0)
    box = [(0.0, 1.0), (0.0, 1.0)]
    res = erm_sigma_linear(instances, 2, box, 2, rule, obj)
    w1, w2 = res.best_param
    assert 0.0 <= w1 <= 1.0 and 0.0 <= w2 <= 1.0
    direct = _pipeline_cost(instances, "sigma_linear", None, 2, rule, obj,
                            sigma=2, weights=(w1, w2))
    assert direct == pytest.approx(res.best_cost, rel=1e-12)
    # scanning normalized rays never does better
    grid = min(
        _pipeline_cost(instances, "sigma_linear", None, 2, rule, obj,
                       sigma=2, weights=(t, 1.0 - t))
        for t in np.linspace(0.001, 0.999, 500)
    )
    assert res.best_cost <= grid + 1e-12
    lo, hi = res.best_interval
    assert lo <= w1 / (w1 + w2) <= hi


def test_erm_sigma_linear_exact_refuses_sigma_three():
    rng = np.random.default_rng(42)
    inst = euclidean_instance(rng, 6)
    rule, obj = PruningRule(p=1.0), Objective(kind="phi_p", p=1.0)
    with pytest.raises(SigmaTooLargeForExact):
        erm_sigma_linear([inst], 3, [(0, 1)] * 3, 2, rule, obj, exact=True)


def test_erm_sigma_linear_grid_fallback():
    rng = np.random.default_rng(43)
    instances = [euclidean_instance(rng, 6)]
    rule, obj = PruningRule(p=1.0), Objective(kind="phi_p", p=1.0)
    res = erm_sigma_linear(instances, 3, [(0.0, 1.0)] * 3, 2, rule, obj,
                           grid_density=4, seed=11)
    assert res.profile is None
    assert res.certificate is not None
    w = res.best_param
    assert len(w) == 3 and all(0.0 <= x <= 1.0 for x in w)
    direct = _pipeline_cost(instances, "sigma_linear", None, 2, rule, obj,
                            sigma=3, weights=w)
    assert direct == pytest.approx(res.best_cost, rel=1e-12)
    # same seed, same answer
    res2 = erm_sigma_linear(instances, 3, [(0.0, 1.0)] * 3, 2, rule, obj,
                            grid_density=4, seed=11)
    assert res2.best_param == res.best_param


def test_erm_sigma_linear_domain_checks():
    rng = np.random.default_rng(44)
    inst = euclidean_instance(rng, 5)
    rule, obj = PruningRule(p=1.0), Objective(kind="phi_p", p=1.0)
    with pytest.raises(DomainError):
        erm_sigma_linear([inst], 1, [(0, 1)], 2, rule, obj)
    with pytest.raises(DomainError):
        erm_sigma_linear([inst], 2, [(0, 1)], 2, rule, obj)
    with pytest.raises(DomainError):
        erm_sigma_linear([inst], 2, [(0, 1), (1, 1)], 2, rule, obj)
    with pytest.raises(DomainError):
        erm_sigma_linear([inst], 2, [(0, 1), (-0.5, 1)], 2, rule, obj)


# ---------------------------------------------------------------------------
# sample sizes and dimension growth


def test_sample_size_formula():
    assert sample_size(2.0, 0.1, 0.05, 5.0) == math.ceil(400 * (5 + math.log(20)))
    assert sample_size(1.0, 1.0, 0.5, 1.0, c=1.0) == math.ceil(1 + math.log(2))


def test_sample_size_validation():
    for bad in [
        dict(H=0, eps=1, delta=0.1, pdim=1),
        dict(H=1, eps=0, delta=0.1, pdim=1),
        dict(H=1, eps=1, delta=0.0, pdim=1),
        dict(H=1, eps=1, delta=1.0, pdim=1),
        dict(H=1, eps=1, delta=0.1, pdim=0),
        dict(H=1, eps=1, delta=0.1, pdim=1, c=0),
    ]:
        with pytest.raises(DomainError):
            sample_size(**bad)


def test_pdim_table_entries():
    n = 64
    assert pdim_table("convex_minmax", n) == ("Theta(log n)", 6.0)
    assert pdim_table("power_minmax", n) == ("Theta(log n)", 6.0)
    assert pdim_table("power_average", n) == ("Theta(n)", 64.0)
    label, val = pdim_table("beta_restricted", n, beta=3)
    assert val == 18.0 and "beta" in label
    label, val = pdim_table("beta_restricted", n, beta=100)
    assert val == 64.0  # capped at n
    label, val = pdim_table("sigma_linear", n, sigma=4)
    assert val == 96.0
    label, val = pdim_table("sigma_power", n, sigma=5)
    assert val == 5.0


def test_pdim_table_errors():
    with pytest.raises(DomainError):
        pdim_table("convex_minmax", 1)
    with pytest.raises(DomainError):
        pdim_table("beta_restricted", 8)
    with pytest.raises(DomainError):
        pdim_table("sigma_linear", 8)
    with pytest.raises(UnknownFamily):
        pdim_table("ward", 8)


_GENERAL_LB_BREAKPOINTS = json.loads(
    (Path(__file__).parent / "general_lb_breakpoints.json").read_text())


@pytest.mark.parametrize("rounds,cells", [(3, 8), (4, 16), (5, 32), (6, 64)])
def test_general_lb_sweep_keeps_every_cell_above_merge_tolerance(rounds, cells):
    inst, _ = gen_general_lb(rounds)
    prof = sweep_alpha([inst], "power_average", (1.0, 3.0), 2,
                       PruningRule(p=1.0), Objective(kind="phi_p", p=1.0))
    # bit for bit the breakpoints of the unscreened solver
    assert repr(prof.breakpoints) == repr(_GENERAL_LB_BREAKPOINTS[str(rounds)])
    assert len(prof) == cells
    assert len(set(prof.payloads)) == cells
    gaps = np.diff(prof.breakpoints[1:-1])
    assert gaps.min() > BREAK_MERGE_TOL


def _only(payloads):
    """combine for a one-instance _lazy_sweep: the cell value is the payload."""
    (value,) = payloads
    return value


def test_sweep_that_never_settles_raises_typed_error():
    # every run reports a root near the right end of its own cell, so the
    # left piece is refined again and again: its equation changes sign
    # between the probe and the piece's midpoint, so the probe's run does
    # not carry over to that midpoint
    bounds = [0.0, 1.0]

    def run(mid):
        return mid, 0.0, [mid]

    def solve(mid):
        a = max(x for x in bounds if x < mid)
        b = min(x for x in bounds if x > mid)
        bounds.append(a + 0.9 * (b - a))
        c = 0.5 * (a + bounds[-1])
        return ExpSum([(1.0, 1.0, 1), (-0.5 * (mid + c), 1.0, 0)]), [bounds[-1]]

    with pytest.raises(SweepDiverged):
        param_search._lazy_sweep([(0.0, 1.0)], [run], _only, solve)


@pytest.mark.parametrize("cross,runs", [(0.6, [0.5, 0.875]), (0.45, [0.5, 0.375, 0.875]),
                                        (0.5 + 1e-13, [0.5, 0.375, 0.875])])
def test_probe_certifies_its_own_piece_or_falls_back_to_a_run(cross, runs):
    # one equation with its root at 0.75 splits [0, 1]; the probe 0.5 and the
    # left piece's midpoint 0.375 lie on one side of x = cross or on both.
    # At 0.5 + 1e-13 the probe is within the solver's zero threshold: a tie
    # there, though the value keeps its sign at 0.375
    probes = []

    def run(x):
        probes.append(x)
        return x < 0.75, 1.0 if x < 0.75 else 2.0, ["e"]

    def solve(key):
        return ExpSum([(1.0, 1.0, 1), (-cross, 1.0, 0)]), [0.75]

    cells, made = param_search._lazy_sweep([(0.0, 1.0)], [run], _only, solve)
    assert probes == runs and made == len(runs)
    assert cells == [[0.0, 0.75, 0.375, (True,), 1.0, [(0.0, 0.75, (1.0,))]],
                     [0.75, 1.0, 0.875, (False,), 2.0, [(0.75, 1.0, (2.0,))]]]


def test_probe_does_not_certify_a_piece_with_an_unmerged_root_inside():
    # the root 0.25 + 5e-10 merges into 0.25 when [0, 1] is split, but lies
    # inside the probe's piece [0.25, 1]: the run at 0.5 carries over to its
    # midpoint 0.625, where the piece is split again at 0.25 + 5e-10, and on
    # to (close + 1) / 2, but not across that root to (0.25 + close) / 2
    close = 0.25 + 5e-10
    probes = []

    def run(x):
        probes.append(x)
        return x, 0.0, ["e"]

    def solve(key):
        return ExpSum([(1.0, 1.0, 1), (1.0, 1.0, 0)]), [0.25, close]

    cells, made = param_search._lazy_sweep([(0.0, 1.0)], [run], _only, solve)
    assert probes == [0.5, 0.125, 0.5 * (0.25 + close)] and made == 3
    assert [c[:3] for c in cells] == [[0.0, 0.25, 0.125], [0.25, close, 0.5 * (0.25 + close)],
                                      [close, 1.0, 0.5 * (close + 1.0)]]


def _profile_repr(prof):
    return repr((prof.breakpoints, prof.values, prof.representatives, prof.payloads,
                 prof.hard_boundaries))


def _result_repr(res):
    return repr((res.best_param, res.best_interval, res.best_cost)) + _profile_repr(res.profile)


def test_certified_sweeps_equal_the_reference_driver(monkeypatch):
    rng = np.random.default_rng(41)
    obj = Objective(kind="phi_p", p=2.0)
    rule = PruningRule(p=2.0)
    p_cells = param_search._sweep_p_cells
    searches = []
    for _ in range(3):
        insts = [random_instance(rng, n=int(rng.integers(6, 9))) for _ in range(2)]
        trees = [build_tree(i, MergeRule("power_average", float(rng.uniform(0.5, 2.0))))
                 for i in insts]
        domain = param_search._p_domain((0.5, 4.0))

        def p_sweep(insts=insts, trees=trees, domain=domain):
            cells, runs = p_cells(insts, trees, 3, domain, obj, "fixed",
                                  param_search._Solver(*domain))
            return _profile_repr(param_search.PiecewiseProfile.from_cells("p", cells)), runs

        searches += [
            lambda insts=insts: erm_alpha(insts, "convex_minmax", (0.0, 1.0), 2, rule, obj),
            lambda insts=insts: erm_alpha(insts, "power_minmax", (-3.0, 3.0), 3, rule, obj),
            lambda insts=insts: erm_alpha(insts, "power_average", (0.5, 2.5), 2, rule, obj,
                                          variant="voronoi"),
            p_sweep,
            lambda insts=insts: erm_joint(insts, "power_minmax", (0.5, 2.0), (0.5, 3.0), 2, obj),
            lambda insts=insts: erm_sigma_linear(insts, 2, [(0.1, 1.0), (0.1, 1.0)], 2, rule, obj),
        ]

    def outcome(search):
        res = search()
        if isinstance(res, tuple):
            return res
        return _result_repr(res), res.instances_evaluated

    got = [outcome(search) for search in searches]
    monkeypatch.setattr(param_search, "_lazy_sweep", reference_lazy_sweep)
    want = [outcome(search) for search in searches]
    assert [g[0] for g in got] == [w[0] for w in want]
    assert all(g[1] <= w[1] for g, w in zip(got, want))
    # reused runs make most of these searches cheaper than the reference
    assert sum(g[1] < w[1] for g, w in zip(got, want)) >= len(searches) // 2


def test_voronoi_exponent_sweeps_equal_the_reference_driver(monkeypatch):
    rng = np.random.default_rng(47)
    obj = Objective(kind="phi_p", p=2.0)
    searches, checks = [], []
    for size in (2, 3):
        insts = [random_instance(rng, n=int(rng.integers(6, 9))) for _ in range(size)]
        trees = [build_tree(i, MergeRule("power_minmax", 1.2)) for i in insts]
        searches += [
            lambda insts=insts, trees=trees: sweep_p(insts, trees, 3, (0.5, 4.0), obj,
                                                     variant="voronoi"),
            lambda insts=insts: erm_joint(insts, "power_minmax", (0.5, 2.0), (0.5, 3.0), 2, obj,
                                          variant="voronoi"),
        ]
        checks.append((insts, trees))

    def outcome(search):
        res = search()
        if isinstance(res, param_search.PiecewiseProfile):
            return _profile_repr(res), None
        return _result_repr(res), res.instances_evaluated

    got = [outcome(search) for search in searches]
    # each cell of a voronoi exponent sweep is the reassigned pipeline's cost
    for insts, trees in checks:
        prof = sweep_p(insts, trees, 3, (0.5, 4.0), obj, variant="voronoi")
        for rep, value in zip(prof.representatives, prof.values):
            total = 0.0
            for inst, tree in zip(insts, trees):
                res = best_k_pruning(inst, tree, 3, PruningRule(p=rep), "voronoi")
                total += objective_value(inst, obj, res.clusters, res.centers)
            assert total == value
    monkeypatch.setattr(param_search, "_lazy_sweep", reference_lazy_sweep)
    want = [outcome(search) for search in searches]
    assert [g[0] for g in got] == [w[0] for w in want]
    assert all(g[1] <= w[1] for g, w in zip(got[1::2], want[1::2]))


def _same_result(a, b):
    """Equal (fingerprint, payload, keys) of one instance's run; a tree
    payload is compared by its structure, the values of its merges are the
    parameter's own."""
    pa, pb = a[1], b[1]
    if isinstance(pa, linkage.MergeTree):
        pa, pb = (pa.merges, pa.leaf_sets), (pb.merges, pb.leaf_sets)
    return a[0] == b[0] and pa == pb and set(a[2]) == set(b[2])


def _checked_reuse(monkeypatch):
    """Make _lazy_sweep check every result it reuses: where _holds carries a
    run over to x, the instance is run afresh at x and must give the same
    result.  Returns the list of the x each reuse was checked at."""
    made, checked = {}, []
    lazy_sweep, holds = param_search._lazy_sweep, param_search._holds

    def recording(run):
        def recorded(x):
            res = run(x)
            made[id(res)] = run, res
            return res

        return recorded

    def sweep(segments, runs, combine, solve):
        return lazy_sweep(segments, [recording(r) for r in runs], combine, solve)

    def checked_holds(rec, x):
        if not holds(rec, x):
            return False
        run, res = made[id(rec.result)]
        assert res is rec.result and _same_result(run(x), res), (rec.x, x)
        checked.append(x)
        return True

    monkeypatch.setattr(param_search, "_lazy_sweep", sweep)
    monkeypatch.setattr(param_search, "_holds", checked_holds)
    return checked


@pytest.mark.parametrize("size", [2, 3, 4])
def test_every_reused_run_equals_a_fresh_run(size, monkeypatch):
    rng = np.random.default_rng(50 + size)
    insts = [euclidean_instance(rng, int(rng.integers(6, 9))) for _ in range(size)]
    trees = [build_tree(inst, MergeRule("power_average", 1.3)) for inst in insts]
    rule, obj = PruningRule(p=2.0), Objective(kind="phi_p", p=2.0)
    searches = [
        lambda: erm_alpha(insts, "convex_minmax", (0.0, 1.0), 3, rule, obj),
        lambda: erm_alpha(insts, "power_minmax", (-3.0, 3.0), 3, rule, obj),
        lambda: erm_alpha(insts, "power_average", (-4.0, 4.0), 3, rule, obj),
        lambda: erm_alpha(insts, "sigma_power", (0.1, 8.0), 3, rule, obj, sigma=2),
        lambda: erm_sigma_linear(insts, 2, [(0.1, 1.0), (0.1, 1.0)], 3, rule, obj),
        lambda: sweep_p(insts, trees, 3, (0.5, 4.0), obj),
        lambda: erm_joint(insts, "power_minmax", (0.5, 2.0), (0.5, 3.0), 2, obj),
    ]
    checked = _checked_reuse(monkeypatch)
    reused = []
    for search in searches:
        search()
        reused.append(len(checked))
        checked.clear()
    # every search reuses some run, and each reuse was checked above
    assert all(reused)


@pytest.mark.parametrize("by_sign,f,roots", [
    # the solver misses the root 0.45 at which the comparison changes sign:
    # only the sign test keeps the run at 0.5 from carrying over to 0.375
    (True, ExpSum([(1.0, 1.0, 1), (-0.45, 1.0, 0)]), [0.75]),
    # (x - 0.3)(x - 0.4) is positive at 0.15 and at 0.5: only the root test
    # keeps the run at 0.5 from carrying over across both roots
    (False, ExpSum([(1.0, 1.0, 2), (-0.7, 1.0, 1), (0.12, 1.0, 0)]), [0.3, 0.4]),
])
def test_a_reuse_needs_both_the_root_and_the_sign_test(by_sign, f, roots, monkeypatch):
    # the first synthetic instance's run compares f(x) with 0, or is constant
    # between the roots the solver reports; the second one's changes at 0.9
    def run(x):
        return (f(x) > 0 if by_sign else sum(r < x for r in roots)), 1.0, ["f"]

    def other(x):
        return x < 0.9, 2.0, ["g"]

    eqs = {"f": (f, roots), "g": (ExpSum([(1.0, 1.0, 1), (-0.9, 1.0, 0)]), [0.9])}
    checked = _checked_reuse(monkeypatch)
    param_search._lazy_sweep([(0.0, 1.0)], [run, other], sum, eqs.get)
    # the second instance's run at 0.5 carries over left of 0.9
    assert checked and min(checked) < 0.5


def test_count_memos_stay_with_their_instance(monkeypatch):
    # D and D**1.7 order their distances alike, so their multisets have the
    # same key bytes, but not the same equations: a memo shared by the two
    # instances would hand the second the first one's equations
    rng = np.random.default_rng(43)
    rule, obj = PruningRule(p=2.0), Objective(kind="phi_p", p=2.0)
    searches = []
    for n in (8, 9, 10):
        base = euclidean_instance(rng, n)
        bent = ClusteringInstance(n=n, dist=base.dist ** 1.7)
        for insts in ([base, bent], [bent, base]):
            searches.append(lambda insts=insts: erm_alpha(insts, "power_average", (0.5, 3.0),
                                                          3, rule, obj))

    def outcome(search):
        res = search()
        return _result_repr(res), res.instances_evaluated

    got = [outcome(search) for search in searches]
    # the dense reference collector returns every equation of every probe
    monkeypatch.setattr(param_search, "_run",
                        lambda inst, mrule, collector=None, table=None, ids=None:
                        reference_run(inst, mrule, collector))
    monkeypatch.setattr(param_search, "_make_collector",
                        lambda family, sigma, eqs, memo=None, solve=None:
                        reference_count_collector(family, sigma, eqs))
    assert [outcome(search) for search in searches] == got
    # and the reference driver, which reuses no run, splits at the same roots
    monkeypatch.setattr(param_search, "_lazy_sweep", reference_lazy_sweep)
    assert [outcome(search)[0] for search in searches] == [g[0] for g in got]


def test_count_sweeps_encode_and_build_each_equation_once(monkeypatch):
    encoded, built, enclosed, keyed = [], [], [], []
    average_keys, one_signed = param_search._average_keys, param_search._one_signed
    lazy_sweep = param_search._lazy_sweep

    def counted_keys(queue, sets, solve):
        encoded.extend((sets.distinct.tobytes(), sets.keys[w], sets.keys[s])
                       for w, fresh in queue for s in fresh)
        return average_keys(queue, sets, solve)

    class CountedSum(ExpSum):
        __slots__ = ()

        def __init__(self, terms):
            super().__init__(terms)
            built.append(self.terms)

    def recorded_one_signed(keys, lo, hi):
        proven = one_signed(keys, lo, hi)
        enclosed.extend(key for key, p in zip(keys, proven) if p)
        return proven

    def keys_of(run):
        def recorded(x):
            res = run(x)
            keyed.append(set(res[2]))
            return res

        return recorded

    monkeypatch.setattr(param_search, "_average_keys", counted_keys)
    monkeypatch.setattr(param_search, "ExpSum", CountedSum)
    monkeypatch.setattr(param_search, "_one_signed", recorded_one_signed)
    monkeypatch.setattr(param_search, "_lazy_sweep", lambda segments, runs, *rest: lazy_sweep(
        segments, list(map(keys_of, runs)), *rest))
    rng = np.random.default_rng(45)
    insts = [euclidean_instance(rng, 10) for _ in range(2)]
    res = erm_alpha(insts, "power_average", (0.5, 3.0), 3, PruningRule(p=2.0),
                    Objective(kind="phi_p", p=2.0))
    assert res.instances_evaluated >= 3 * len(insts)
    # one encoding per (instance, winner multiset, candidate multiset) ...
    assert encoded and len(set(encoded)) == len(encoded)
    # ... and one ExpSum per unscreened equation, none for a screened one
    # or for one the interval enclosure proved
    assert built and len(set(built)) == len(built)
    assert not any(param_search._keeps_sign(terms, 0.5, 3.0) for terms in built)
    assert enclosed and not {tuple((b, j, a) for a, b, j in terms) for terms in built} & set(
        enclosed)
    assert not any(one_signed([tuple((b, j, a) for a, b, j in terms)], 0.5, 3.0)[0]
                   for terms in built)
    # a proven equation is in no run's keys, neither the run that proved it
    # nor a later one, whose memo leaves it out
    assert len(keyed) == res.instances_evaluated and not set(enclosed) & set().union(*keyed)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_screened_equations_certify_where_their_values_overflow(monkeypatch):
    # distances up to e^30 overflow d^alpha past alpha ~ 23.6: the screen
    # proves those equations one-signed from scaled terms, but _strict_sign
    # reads inf - inf and cannot, so with them the probe's run does not carry
    # over to a piece it carries over to without them; the cells do not change
    rng = np.random.default_rng(1)
    A = np.exp(rng.uniform(0.0, 30.0, size=(7, 7)))
    inst = ClusteringInstance(n=7, dist=np.triu(A, 1) + np.triu(A, 1).T)

    def search():
        res = erm_alpha([inst], "power_average", (0.5, 64.0), 3, PruningRule(p=2.0),
                        Objective(kind="phi_p", p=2.0))
        return _result_repr(res), res.instances_evaluated

    screened, runs = search()
    assert runs == 2
    # unscreened: the collector's batch proves nothing, and every key is solved
    monkeypatch.setattr(param_search, "_is_combined_key", lambda key: False)
    monkeypatch.setattr(param_search, "_keeps_signs",
                        lambda a, b, lengths, lo, hi: np.zeros(len(lengths), dtype=bool))
    assert search() == (screened, 3)
    monkeypatch.setattr(param_search, "_lazy_sweep", reference_lazy_sweep)
    assert search() == (screened, 3)


def test_sweeps_free_their_state_without_the_garbage_collector(monkeypatch):
    # a sweep's distance tables, multiset ids and memos live in its
    # closures; they must go when the search returns, not wait for a full
    # collection
    made = []
    table, ids = param_search.distance_table, param_search.MultisetIds

    def recorded(make, part):
        def making(arg):
            out = make(arg)
            made.append(weakref.ref(part(out)))
            return out

        return making

    monkeypatch.setattr(param_search, "distance_table", recorded(table, lambda out: out[2]))
    monkeypatch.setattr(param_search, "MultisetIds", recorded(ids, lambda out: out))
    insts = [euclidean_instance(np.random.default_rng(45), 10) for _ in range(2)]
    gc.disable()
    try:
        erm_alpha(insts, "power_average", (0.5, 3.0), 3, PruningRule(p=2.0),
                  Objective(kind="phi_p", p=2.0))
        assert len(made) == 4 and all(ref() is None for ref in made)
    finally:
        gc.enable()


def test_gaussian_power_average_sweep_at_n60_stays_small():
    # the sweep of tools/ab_tune.py --gaussian 60; the memo of multiset
    # bytes pairs, with its per-key encoding, peaked at 42.5 MiB here
    pts = np.random.default_rng(60).standard_normal((60, 2))
    D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(D, 0.0)
    inst = ClusteringInstance(n=60, dist=D)
    tracemalloc.start()
    try:
        res = erm_alpha([inst], "power_average", (0.5, 3.0), 3, PruningRule(p=2.0),
                        Objective(kind="phi_p", p=2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.profile) > 1
    assert peak < 32 * 2 ** 20


def test_gadget_erm_runs_the_pipeline_twice():
    # the planted window of the benchmark's gadget_erm workload, seed 1: the
    # probe's run carries over to the planted cell, and only the other side
    # is run
    alpha_star = float(np.random.default_rng([1, 0]).uniform(0.35, 0.48))
    inst, _ = gen_two_gadget(alpha_star, "convex_minmax")
    res = erm_alpha([inst], "convex_minmax", (alpha_star - 0.1, alpha_star + 0.05), 4,
                    PruningRule(p=1.0), Objective(kind="psi_pow", p=1.0))
    assert len(res.profile) == 2
    assert res.instances_evaluated == 2
    lo, hi = res.best_interval
    assert lo - 1e-8 <= alpha_star <= hi + 1e-8
