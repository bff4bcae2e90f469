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
