"""Independent reference solvers used to cross-check the ADMM trainer.

Because the training objective is convex, its optimal value is unique, and a
second solver reaching the same value is strong evidence of global
optimality. Two references are provided:

* ``fista_solve``: accelerated proximal gradient on the matrix-free operator.
  Its prox deliberately reuses ``cvxprog.group_prox`` (a shared prox bug
  would sink both solvers identically), which is why
* ``dense_solve_smallest`` materialises the dense block matrix A and runs its
  own proximal loop with the shrinkage arithmetic re-implemented inline. The
  loop works with products with A alone, never the (B*d) x (B*d) Gram, so
  its memory and per-step work are O(n*B*d), the size its guard bounds.

These ship in the library, not the test suite, so the command line can
cross-check any small training run on demand.

Agreement is judged on objective values, never iterates: the group-norm
penalty admits non-unique minimisers, but the optimal value is unique.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cvxprog import ConvexProblem, group_prox, loss, penalty
from .linops import power_iteration


_LIPSCHITZ_SAFETY = 1.1   # the step is 1 / (safety * the power-iteration estimate)
_POWER_ITERS = 200


@dataclass(frozen=True)
class FistaConfig:
    max_iters: int = 5000
    rel_obj_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class FistaResult:
    S: np.ndarray
    objective_history: list[float]
    converged: bool

    @property
    def objective(self) -> float:
        return min(self.objective_history)


def fista_solve(prob: ConvexProblem, cfg: FistaConfig = FistaConfig()) -> FistaResult:
    """Monotone accelerated proximal gradient for the relaxed program.

    Steps 1 / (safety * lambda_max(F^T F)); an accelerated candidate is kept
    only if it does not increase the objective, otherwise a plain proximal
    step is taken and the momentum restarts. The objective history is
    therefore non-increasing. Stops when the relative objective decrease
    stays below ``rel_obj_tol`` for several iterations; returns the best
    iterate either way.
    """
    if prob.mode != "relaxed":
        raise ValueError("the accelerated oracle handles the relaxed program only")
    op = prob.op
    shape = op.block_shape
    dim = int(np.prod(shape))
    lam_max = power_iteration(lambda S: op.adjoint(op.apply(S)), dim,
                              iters=_POWER_ITERS, seed=cfg.seed, shape=shape)
    L = _LIPSCHITZ_SAFETY * max(lam_max, np.finfo(np.float64).tiny)

    def value(F_of_S, S):
        return loss(F_of_S, prob.Y) + prob.beta * penalty(S, prob.penalty_kind)

    S = np.zeros(shape)
    F_S = op.apply(S)
    momentum, F_mom = S.copy(), F_S.copy()
    t = 1.0
    obj = value(F_S, S)
    history = [obj]
    best_obj, best_S = obj, S
    flat_streak = 0
    converged = False
    for _ in range(cfg.max_iters):
        grad = op.adjoint(F_mom - prob.Y)
        candidate = group_prox(momentum - grad / L, prob.beta / L, prob.penalty_kind)
        F_cand = op.apply(candidate)
        cand_obj = value(F_cand, candidate)
        if cand_obj > obj:
            # monotone fallback: plain proximal step, momentum restart
            grad = op.adjoint(F_S - prob.Y)
            candidate = group_prox(S - grad / L, prob.beta / L, prob.penalty_kind)
            F_cand = op.apply(candidate)
            cand_obj = value(F_cand, candidate)
            t = 1.0
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        gamma = (t - 1.0) / t_next
        momentum = candidate + gamma * (candidate - S)
        # forward product of the momentum point comes for free by linearity
        F_mom = (1.0 + gamma) * F_cand - gamma * F_S
        drop = obj - cand_obj
        S, F_S, t, obj = candidate, F_cand, t_next, cand_obj
        history.append(obj)
        if obj < best_obj:
            best_obj, best_S = obj, S
        flat_streak = flat_streak + 1 if drop <= cfg.rel_obj_tol * max(abs(obj), 1e-300) else 0
        if flat_streak >= 5:
            converged = True
            break
    return FistaResult(best_S, history, converged)


_DENSE_GUARD = 200_000
_DENSE_REL_OBJ_TOL = 1e-12


@dataclass
class DenseResult:
    S: np.ndarray
    objective: float
    iters: int


def dense_matrix(prob: ConvexProblem) -> np.ndarray:
    """Materialise [sign_1 D_1 X | ... | sign_B D_B X] of shape (n, B*d)."""
    op = prob.op
    cols = [op.signs[b] * op.masks[b][:, None] * op.X for b in range(op.B)]
    return np.hstack(cols)


def dense_solve_smallest(prob: ConvexProblem, max_iters: int = 100_000) -> DenseResult:
    """Brute-force reference solve on the materialised dense matrix.

    beta = 0 reduces to a least-squares solve; beta > 0 runs an accelerated
    proximal loop with inline group shrinkage, stopping once the relative
    objective decrease stays below ``_DENSE_REL_OBJ_TOL``. Each step costs one
    product with A and one with A^T: the forward products of the iterate and
    the momentum point are carried by linearity, the fit is read off
    0.5 ||A S||^2 - <S, A^T Y> + 0.5 ||Y||^2, and the step size comes from the
    smaller of A A^T and A^T A. Memory is O(n*B*d), which the guard bounds.
    """
    op = prob.op
    B, d, K = op.block_shape
    if op.n * B * d > _DENSE_GUARD:
        raise ValueError(f"dense oracle limited to n*B*d <= {_DENSE_GUARD}, got {op.n * B * d}")
    A = dense_matrix(prob)
    Y = prob.Y
    if prob.beta == 0.0:
        S_mat, *_ = np.linalg.lstsq(A, Y, rcond=None)
        S = S_mat.reshape(B, d, K)
        return DenseResult(S, loss(A @ S_mat, Y), 0)

    # lambda_max(A^T A) read off the smaller of the two Grams, at most n*B*d entries
    small = A @ A.T if op.n <= B * d else A.T @ A
    L = max(float(np.linalg.eigvalsh(small).max()), np.finfo(np.float64).tiny)
    AtY = A.T @ Y
    const = 0.5 * float(np.vdot(Y, Y))
    thresh = prob.beta / L

    def shrink(M: np.ndarray) -> np.ndarray:
        # inline group soft-thresholding, independent of cvxprog.group_prox
        blocks = M.reshape(B, d, K)
        if prob.penalty_kind == "l21":
            norms = np.sqrt(np.sum(blocks * blocks, axis=1, keepdims=True))
        else:
            norms = np.sqrt(np.sum(blocks * blocks, axis=(1, 2), keepdims=True))
        safe = np.where(norms > 0.0, norms, 1.0)
        shrunk = blocks * np.maximum(0.0, 1.0 - thresh / safe)
        return shrunk.reshape(B * d, K)

    def inline_penalty(M: np.ndarray) -> float:
        blocks = M.reshape(B, d, K)
        if prob.penalty_kind == "l21":
            return float(np.sqrt(np.sum(blocks * blocks, axis=1)).sum())
        return float(np.sqrt(np.sum(blocks * blocks, axis=(1, 2))).sum())

    def quad_obj(M: np.ndarray, AM: np.ndarray) -> float:
        # fit from the forward product: 0.5 ||A M||^2 - <M, A^T Y> + 0.5 ||Y||^2
        fit = 0.5 * float(np.vdot(AM, AM)) - float(np.vdot(M, AtY)) + const
        return fit + prob.beta * inline_penalty(M)

    S_mat = np.zeros((B * d, K))
    AS = np.zeros_like(Y)
    mom, Amom = S_mat.copy(), AS.copy()
    t = 1.0
    obj = quad_obj(S_mat, AS)
    best_obj, best_S = obj, S_mat
    flat_streak = 0
    it = 0
    for it in range(1, max_iters + 1):
        cand = shrink(mom - (A.T @ Amom - AtY) / L)
        Acand = A @ cand
        cand_obj = quad_obj(cand, Acand)
        if cand_obj > obj:
            cand = shrink(S_mat - (A.T @ AS - AtY) / L)
            Acand = A @ cand
            cand_obj = quad_obj(cand, Acand)
            t = 1.0
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        gamma = (t - 1.0) / t_next
        mom = cand + gamma * (cand - S_mat)
        # forward product of the momentum point comes for free by linearity
        Amom = (1.0 + gamma) * Acand - gamma * AS
        drop = obj - cand_obj
        S_mat, AS, t, obj = cand, Acand, t_next, cand_obj
        if obj < best_obj:
            best_obj, best_S = obj, S_mat
        flat_streak = flat_streak + 1 if drop <= _DENSE_REL_OBJ_TOL * max(abs(obj), 1e-300) else 0
        if flat_streak >= 20:
            break
    final = loss(A @ best_S, Y) + prob.beta * inline_penalty(best_S)
    return DenseResult(best_S.reshape(B, d, K), final, it)
