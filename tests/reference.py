"""Reference implementations that only the tests use.

Each one is an independent, deliberately simple check of library code:
scipy's NNLS projector and the cyclic Dykstra projector against
``gates.project_cones``, the proximal
Dykstra map of "group norm + cone" against the shrunk cone projection of the
ADMM step, the per-cone violation against ``cvxprog.max_cone_violation``,
the LP-only sign-prefix walk against ``gates.enumerate_patterns``, the gate
identity behind the exact-mode ReLU mapping, the fit gradient and a
finite-difference check of it, the margin-stability inequality behind every
certificate, the nonconvex ReLU objective the convex program stands in
for, and the plain consensus ADMM loop against ``admm.admm_solve``'s
Anderson-accelerated one.
"""

from typing import NamedTuple

import numpy as np

from cld.cvxprog import ConvexProblem, group_prox, loss, project_to_cones
from cld.gates import pattern_of
from cld.head import TrainedHead, margin, predict_batch
from cld.linops import gram_solver


class Cone(NamedTuple):
    """The cone {v : (2D - I) X v >= 0} of weights realising one pattern D over X."""

    active: np.ndarray
    X: np.ndarray

    def signed_rows(self) -> np.ndarray:
        """Nonzero rows a_i of the cone {v : a_i . v >= 0}; zero rows constrain nothing."""
        signs = np.where(self.active, 1.0, -1.0)
        rows = signs[:, None] * np.asarray(self.X, dtype=np.float64)
        return rows[np.einsum("ij,ij->i", rows, rows) > 0.0]


def gate_identity_check(cone: Cone, v: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff [Xv]_+ equals D X v entrywise within ``tol``."""
    Xv = np.asarray(cone.X, dtype=np.float64) @ np.asarray(v, dtype=np.float64)
    gated = np.where(cone.active, Xv, 0.0)
    return bool(np.max(np.abs(np.maximum(Xv, 0.0) - gated)) <= tol)


def cone_violation(cone: Cone, v: np.ndarray) -> float:
    """Worst half-space violation of v; zero iff v lies in the cone."""
    slack = cone.signed_rows() @ np.asarray(v, dtype=np.float64)
    return float(max(0.0, -slack.min(initial=0.0)))


def nnls_cone_project(cone: Cone, v: np.ndarray) -> np.ndarray:
    """Exact projection of v onto the pattern cone, one column at a time.

    ``scipy.optimize.nnls`` (Lawson-Hanson on a Householder QR) solves the
    cone's dual min ||A^T mu + v|| over mu >= 0; its support S is the active
    face, and the projection is v minus its component in the span of the rows
    A_S, taken from an SVD. That is v + A^T mu (Moreau decomposition against
    the polar cone), but accurate to the roundoff of v even where mu is large
    and v + A^T mu cancels.
    """
    from scipy.optimize import nnls

    A = cone.signed_rows()
    x = np.asarray(v, dtype=np.float64)
    if A.shape[0] == 0:
        return x.copy()
    active = A[nnls(A.T, -x)[0] > 0.0]
    if active.shape[0] == 0:
        return x.copy()
    U, sv, _ = np.linalg.svd(active.T, full_matrices=False)
    U = U[:, sv > sv[0] * max(active.shape) * np.finfo(np.float64).eps]
    return x - U @ (U.T @ x)


def project_cone(
    cone: Cone, v: np.ndarray, tol: float = 1e-8, max_iters: int = 10000
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


def prox_dykstra(
    cone: Cone, x: np.ndarray, threshold: float, tol: float = 1e-12, max_iters: int = 5000
) -> tuple[np.ndarray, bool]:
    """Proximal map of ``threshold * ||.||_F`` plus the cone constraint at a d x K group.

    Every column of the group must lie in the cone. The Dykstra-like proximal
    algorithm (Bauschke and Combettes, 2008) alternates the group shrink with
    the cyclic Dykstra projection ``project_cone`` of each column, each step
    with its own correction term, and converges to the proximal map of the
    sum without ever composing the two maps directly. Stops once a round moves
    the iterate less than ``tol``; returns (prox, converged).
    """
    x = np.asarray(x, dtype=np.float64)
    y, p, q = x.copy(), np.zeros_like(x), np.zeros_like(x)
    for _ in range(max_iters):
        w = y + p
        norm = np.linalg.norm(w)
        z = (1.0 - threshold / norm) * w if norm > threshold else np.zeros_like(w)
        p = w - z
        v = z + q
        prev = y
        y = np.column_stack([project_cone(cone, col, tol=tol)[0] for col in v.T])
        q = v - y
        if np.linalg.norm(y - prev) < tol:
            return y, True
    return y, False


def loss_grad(pred: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Gradient of the squared loss (1/2) ||pred - Y||_F^2 in pred."""
    return np.asarray(pred, dtype=np.float64) - np.asarray(Y, dtype=np.float64)


def fit_value_and_grad(prob: ConvexProblem):
    """(value, gradient) callables of the smooth fit term."""
    op = prob.op

    def value(S):
        return loss(op.apply(S), prob.Y)

    def grad(S):
        return op.adjoint(op.apply(S) - prob.Y)

    return value, grad


def fd_gradcheck(fun, grad_fun, point: np.ndarray, step: float = 1e-5,
                 num_coords: int = 20, seed: int = 0) -> float:
    """Max relative error between central differences and the analytic gradient.

    Probes ``num_coords`` random coordinates of ``point``; intended for the
    smooth fit term only.
    """
    point = np.asarray(point, dtype=np.float64)
    analytic = np.asarray(grad_fun(point), dtype=np.float64).ravel()
    flat = point.ravel()
    rng = np.random.default_rng(seed)
    coords = rng.choice(flat.size, size=min(num_coords, flat.size), replace=False)
    worst = 0.0
    for idx in coords:
        bumped = flat.copy()
        bumped[idx] += step
        hi = fun(bumped.reshape(point.shape))
        bumped[idx] -= 2.0 * step
        lo = fun(bumped.reshape(point.shape))
        fd = (hi - lo) / (2.0 * step)
        rel = abs(fd - analytic[idx]) / max(abs(analytic[idx]), 1e-12)
        worst = max(worst, rel)
    return worst


def margin_gap_check(head: TrainedHead, h: np.ndarray, y: int,
                     delta: np.ndarray) -> tuple[float, float, bool]:
    """Check mar(h + delta) >= mar(h) - 2 B ||delta|| on relu-mode logits.

    Returns (lhs, rhs, holds) with a 1e-9 slack for floating-point noise.
    """
    h = np.asarray(h, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    logits = predict_batch(head, np.stack([h + delta, h]), inference="relu")
    lhs, mar = margin(logits, [y, y])
    rhs = mar - 2.0 * head.cert.B_l21 * float(np.linalg.norm(delta))
    return float(lhs), float(rhs), bool(lhs >= rhs - 1e-9)


def nonconvex_objective(net, X: np.ndarray, Y: np.ndarray, beta: float) -> float:
    """Squared loss of the ReLU network plus the ridge penalty on its atoms."""
    fit = loss(net.apply(X), np.asarray(Y, dtype=np.float64))
    reg = float(np.sum(net.hidden * net.hidden) + np.sum(net.output * net.output))
    return fit + 0.5 * beta * reg


def max_slack_witness(rows: np.ndarray, signs: np.ndarray):
    """Maximise the minimum slack of {s_i x_i . v >= t} over the unit box.

    Small LP in (v, t); the sign prefix is strictly feasible iff the optimum
    t* is positive, and the optimiser doubles as a witness direction.
    """
    from scipy.optimize import linprog

    d = rows.shape[1]
    if rows.shape[0] == 0:
        return np.zeros(d), 1.0
    # variables (v_1..v_d, t), maximise t
    c = np.zeros(d + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-signs[:, None] * rows, np.ones((rows.shape[0], 1))])
    b_ub = np.zeros(rows.shape[0])
    bounds = [(-1.0, 1.0)] * d + [(None, 1.0)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        return None, -np.inf
    return res.x[:d], float(res.x[-1])


def reference_enumerate(X: np.ndarray) -> list[str]:
    """The LP-only sign-prefix walk: a cell is kept when its box LP optimum exceeds 1e-9.

    Every prefix that its parent's witness does not already decide runs the
    max-slack LP, and every surviving pattern takes its generator from one
    more LP over all its rows, which must reproduce it. Returns the kept
    patterns as ``bitstrings``, in descending order.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    nonzero = np.flatnonzero(np.linalg.norm(X, axis=1) > 0.0)
    feas_tol = 1e-9
    prefixes = [(np.zeros(0), np.zeros(d))]
    for count, row_idx in enumerate(nonzero, start=1):
        rows = X[nonzero[:count]]
        extended = []
        for signs, witness in prefixes:
            for s in (1.0, -1.0):
                cand = np.append(signs, s)
                if s * (X[row_idx] @ witness) > feas_tol:
                    extended.append((cand, witness))
                    continue
                w, slack = max_slack_witness(rows, cand)
                if slack > feas_tol:
                    extended.append((cand, w))
        prefixes = extended
    patterns = []
    for signs, _ in prefixes:
        w, slack = max_slack_witness(X[nonzero], signs)
        if not slack > feas_tol:
            continue
        active = np.ones(n, dtype=bool)
        active[nonzero] = signs > 0
        if not np.array_equal(pattern_of(X, w), active):
            continue
        patterns.append(active)
    return sorted(bitstrings(patterns), reverse=True)


def bitstrings(active: np.ndarray) -> list[str]:
    """Each pattern (a row of a (P, n) matrix) as a string of '0'/'1' characters."""
    return ["".join("1" if a else "0" for a in row) for row in active]


def reference_admm(prob: ConvexProblem, r: float, iters: int,
                   stop_tol: float) -> tuple[np.ndarray, bool]:
    """The plain consensus ADMM loop at penalty r: (z, whether it stopped on stop_tol).

    From u = z = lam = 0 each step solves (F^T F + r I) u = F^T Y + r (z - lam),
    sets z to the group prox (threshold beta / r) of u + lam, projected onto
    the cones first in exact mode, and lam to lam + u - z; it stops once the
    primal residual ||u - z|| and the dual residual r ||z - z_prev|| are
    both at most ``stop_tol``, or after ``iters`` steps.
    """
    op = prob.op
    solve = gram_solver(op, r)[0]
    fty = op.adjoint(prob.Y)
    z, lam = np.zeros(op.block_shape), np.zeros(op.block_shape)
    faces = np.zeros((op.B, op.K, op.n), dtype=bool)
    for _ in range(iters):
        u = solve(fty + r * (z - lam))
        v = u + lam
        if prob.mode == "exact":
            v, faces, _ = project_to_cones(prob, v, faces)
        z_prev, z = z, group_prox(v, prob.beta / r, prob.penalty_kind)
        lam = lam + u - z
        if max(np.linalg.norm(u - z), r * np.linalg.norm(z - z_prev)) <= stop_tol:
            return z, True
    return z, False
