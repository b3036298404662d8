"""Reference implementations that only the tests use.

Each one is an independent, deliberately simple check of library code: the
cyclic Dykstra projector against ``gates.exact_cone_project``, the per-cone
violation against ``cvxprog.max_cone_violation``, the gate identity behind
the exact-mode ReLU mapping, the fit gradient, and the nonconvex ReLU
objective the convex program stands in for.
"""

import numpy as np

from cld.cvxprog import loss
from cld.gates import ConeSpec


def gate_identity_check(cone: ConeSpec, v: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff [Xv]_+ equals D X v entrywise within ``tol``."""
    Xv = np.asarray(cone.X, dtype=np.float64) @ np.asarray(v, dtype=np.float64)
    gated = np.where(cone.pattern.active, Xv, 0.0)
    return bool(np.max(np.abs(np.maximum(Xv, 0.0) - gated)) <= tol)


def cone_violation(cone: ConeSpec, v: np.ndarray) -> float:
    """Worst half-space violation of v; zero iff v lies in the cone."""
    slack = cone.signed_rows() @ np.asarray(v, dtype=np.float64)
    return float(max(0.0, -slack.min(initial=0.0)))


def project_cone(
    cone: ConeSpec, v: np.ndarray, tol: float = 1e-8, max_iters: int = 10000
) -> tuple[np.ndarray, bool]:
    """Euclidean projection of v onto the pattern cone.

    Dykstra's algorithm cycles over the n half-spaces {a_i . v >= 0}, each with
    its own correction term; for an intersection of convex sets this converges
    to the exact projection. Stops once a full cycle moves the iterate less
    than ``tol``; returns (projection, converged).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    A = cone.signed_rows()
    norms2 = np.einsum("ij,ij->i", A, A)
    x = np.asarray(v, dtype=np.float64).copy()
    if A.shape[0] == 0:
        return x, True
    corrections = np.zeros_like(A)
    for _ in range(max_iters):
        start = x.copy()
        for i in range(A.shape[0]):
            y = x + corrections[i]
            step = min(0.0, A[i] @ y) / norms2[i]
            x = y - step * A[i]
            corrections[i] = y - x
        if np.linalg.norm(x - start) < tol:
            return x, True
    return x, False


def loss_grad(pred: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Gradient of the squared loss (1/2) ||pred - Y||_F^2 in pred."""
    return np.asarray(pred, dtype=np.float64) - np.asarray(Y, dtype=np.float64)


def nonconvex_objective(net, X: np.ndarray, Y: np.ndarray, beta: float) -> float:
    """Squared loss of the ReLU network plus the ridge penalty on its atoms."""
    fit = loss(net.apply(X), np.asarray(Y, dtype=np.float64))
    reg = float(np.sum(net.hidden * net.hidden) + np.sum(net.output * net.output))
    return fit + 0.5 * beta * reg
