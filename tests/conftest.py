import numpy as np
import pytest

from partition_tuner import ClusteringInstance, gen_k4_shatter


@pytest.fixture(scope="session")
def k4_bundle():
    """Shared 20-point block instance: (inst, emb, z, witness)."""
    return gen_k4_shatter(20, 1)


def euclidean_instance(rng, n, dim=3, **kw):
    """Random point-cloud metric, the workhorse for randomized checks."""
    pts = rng.normal(size=(n, dim))
    D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(D, 0.0)
    return ClusteringInstance(n=n, dist=D, **kw)


def near_symmetric_instance():
    """Six Gaussian points in the plane whose largest distance is stored
    1e-13 (relative) larger below the diagonal than above it: within the
    symmetry tolerance, but a value the upper triangle does not hold."""
    D = euclidean_instance(np.random.default_rng(0), 6, dim=2).dist
    i, j = sorted(np.unravel_index(np.argmax(D), D.shape))
    D[j, i] = D[i, j] * (1 + 1e-13)
    return ClusteringInstance(n=6, dist=D)


def power_overflow_instance():
    """Four points whose largest distance, 1e150, overflows to the p-th
    power for p above about 2.05; at p = 3 the best 2-pruning of their
    convex tree (alpha 0.5) has centers [1, 2] and power sum 9."""
    return ClusteringInstance(n=4, dist=[[0, 1, 1e150, 2.5], [1, 0, 1e150, 2],
                                         [1e150, 1e150, 0, 1e150], [2.5, 2, 1e150, 0]])


def power_sum_overflow_instance():
    """Three points whose distances, about 1.2e154 to 1.3e154, square to
    finite values whose sums overflow: the best 1-pruning of their convex
    tree (alpha 0.5) costs inf at p = 2."""
    return ClusteringInstance(n=3, dist=[[0, 1.2e154, 1.25e154], [1.2e154, 0, 1.3e154],
                                         [1.25e154, 1.3e154, 0]])


def wide_ratio_instance():
    """Four points whose largest distance over their smallest, 1e200 /
    1e-200, overflows: scaled by the largest, the smallest would be 0."""
    return ClusteringInstance(n=4, dist=[[0, 1e-200, 1e200, 1], [1e-200, 0, 1e200, 2],
                                         [1e200, 1e200, 0, 1e199], [1, 2, 1e199, 0]])
