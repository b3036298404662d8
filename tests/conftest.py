import tracemalloc

import numpy as np
import pytest

from cld.cvxprog import ConvexProblem
from cld.dataio import LabelSet
from cld.gates import project_cones, sample_gates
from cld.linops import GatedOperator


def random_problem(n=20, d=4, K=2, P=4, beta=1e-3, seed=0, penalty_kind="l21"):
    """Small relaxed training instance with random labels."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.integers(0, K, size=n)
    y[:K] = np.arange(K)  # every class present
    Y = np.eye(K)[y]
    gates = sample_gates(X, P, seed=seed)
    op = GatedOperator.relaxed(X, gates, K)
    return ConvexProblem(op, Y, beta, penalty_kind, "relaxed", ())


def project_one(cone, v: np.ndarray) -> np.ndarray:
    """``project_cones`` on the single column v, from the empty face."""
    X = np.asarray(cone.X, dtype=np.float64)
    signs = np.where(cone.active, 1.0, -1.0)[None]
    faces = np.zeros(signs.shape, dtype=bool)
    return project_cones(X, signs, np.asarray(v, dtype=np.float64)[None], faces)[0][0]


def cluster_data(n=100, d=8, K=2, separation=4.0, seed=0):
    """Linearly separable Gaussian clusters (one center per class)."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((K, d))
    centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
    per = n // K
    rows, ids = [], []
    for k in range(K):
        rows.append(centers[k] + rng.standard_normal((per, d)))
        ids.append(np.full(per, k))
    X = np.vstack(rows)
    y = np.concatenate(ids)
    label_map = {f"lang{k}": k for k in range(K)}
    return X, LabelSet(y, label_map), centers


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes traced while it ran, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
