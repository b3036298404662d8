"""Consensus ADMM trainer for the convex detection-head program.

The smooth fit variable u is coupled to consensus copies through scaled
duals: z1 receives the group-norm penalty via its proximal map, and (in split
mode) z2 receives the pattern-cone constraints via projection. One iteration
performs

    1. u    <- solve (F^T F + c rho I) u = F^T Y + rho sum_copies (z - lam)
              (c = number of copies) exactly, with the Cholesky factor of the
              smaller Gram (F^T F, or the n x n kernel F F^T when B*d > n)
              that ``linops.gram_solver`` builds once per run; F^T Y is also
              computed once per run,
    2. z1   <- group_prox(u + lam1, beta / rho),
    3. z2   <- project_to_cones(u + lam2) (split mode only): every column is
              projected onto its pattern cone exactly, by one batched solve
              on the active face it had at the previous step; only columns
              that fail the KKT check take the Lawson-Hanson NNLS of
              ``gates.exact_cone_project``, which returns the new face,
    4. lam  <- lam + (u - z),

with primal residual ||u - z||_F and dual residual rho ||z - z_prev||_F.
Fixed points are exactly the minimisers of the convex objective.

Final weights are read from z1, whose prox step produces exact group
sparsity; in split mode the kept columns get the same exact cone projection,
seeded with the last step's faces, so the stored weights are feasible to
linear-algebra roundoff.

Note on defaults: rho = 1e-4 and beta = 1e-3 give a prox threshold beta/rho
of 10, far above the weight scale of unit-scale embedding problems, so short
default runs leave z1 at zero, and ``train`` warns when its head comes out
all zero. Runs that must reach the optimum (oracle comparisons, benchmarks)
should pass a larger rho and iteration budget, e.g. rho ~ 0.1 with a few
hundred iterations and ``stop_tol`` set.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import head as _head
from .cvxprog import ConvexProblem, ObjectiveValue, group_prox, objective, project_to_cones
from .dataio import FeatureMatrix, LabelSet
from .gates import ConeSpec, enumerate_patterns, sample_gates
from .linops import GatedOperator, PcgConfig, gram_solver


@dataclass(frozen=True)
class GateConfig:
    """How to obtain the activation patterns for training."""

    count: int = 32
    seed: int = 0
    enumerate_all: bool = False


@dataclass(frozen=True)
class AdmmConfig:
    rho: float = 1e-4
    beta: float = 1e-3
    admm_iters: int = 6
    pcg: PcgConfig = field(default_factory=PcgConfig)   # ignored: the u-solve is exact
    mode: str = "relaxed"
    penalty_kind: str = "l21"
    seed: int = 0
    stop_tol: float | None = None     # set (e.g. 1e-6) to stop on small residuals

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.admm_iters < 1:
            raise ValueError("admm_iters must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    objective: ObjectiveValue
    primal: float
    dual: float


@dataclass(frozen=True)
class AdmmState:
    u: np.ndarray
    z1: np.ndarray
    lam1: np.ndarray
    z2: np.ndarray | None = None
    lam2: np.ndarray | None = None
    history: tuple[IterationRecord, ...] = ()
    faces: np.ndarray | None = None    # (B, K, n) active rows of each z2 column
    cone_fallbacks: int = 0            # columns of the last z2 that took the NNLS

    @property
    def primal_res(self) -> float:
        return self.history[-1].primal if self.history else float("inf")

    @property
    def dual_res(self) -> float:
        return self.history[-1].dual if self.history else float("inf")


class TrainingError(ValueError):
    """Degenerate training input."""


def init_state(prob: ConvexProblem) -> AdmmState:
    shape = prob.op.block_shape
    zeros = np.zeros(shape)
    if prob.mode == "exact":
        faces = np.zeros((prob.op.B, prob.op.K, prob.op.n), dtype=bool)
        return AdmmState(zeros, zeros.copy(), zeros.copy(), zeros.copy(), zeros.copy(),
                         faces=faces)
    return AdmmState(zeros, zeros.copy(), zeros.copy())


def u_update(prob: ConvexProblem, cfg: AdmmConfig):
    """The u-update of one run: ``solve(consensus) -> u``.

    It solves (F^T F + c rho I) u = F^T Y + consensus, where consensus is
    rho sum_copies (z - lam). The solver and F^T Y are built here, once.
    """
    copies = 2 if prob.mode == "exact" else 1
    solve = gram_solver(prob.op, copies * cfg.rho)
    fty = prob.op.adjoint(prob.Y)
    return lambda consensus: solve(fty + consensus)


def admm_step(prob: ConvexProblem, cfg: AdmmConfig, state: AdmmState,
              solve=None) -> AdmmState:
    """One consensus iteration; ``solve`` is the run's ``u_update`` (built here if None)."""
    if prob.mode != cfg.mode:
        raise ValueError(f"problem mode {prob.mode!r} != config mode {cfg.mode!r}")
    copies = 2 if prob.mode == "exact" else 1
    rho = cfg.rho
    if solve is None:
        solve = u_update(prob, cfg)
    consensus = rho * (state.z1 - state.lam1)
    if copies == 2:
        consensus = consensus + rho * (state.z2 - state.lam2)
    u = solve(consensus)

    z1 = group_prox(u + state.lam1, cfg.beta / rho, prob.penalty_kind)
    lam1 = state.lam1 + u - z1

    z2 = lam2 = faces = None
    fallbacks = 0
    if copies == 2:
        z2, faces, fallbacks = project_to_cones(prob, u + state.lam2, state.faces)
        lam2 = state.lam2 + u - z2

    primal_sq = float(np.vdot(u - z1, u - z1))
    dual_sq = float(np.vdot(z1 - state.z1, z1 - state.z1))
    if copies == 2:
        primal_sq += float(np.vdot(u - z2, u - z2))
        dual_sq += float(np.vdot(z2 - state.z2, z2 - state.z2))
    record = IterationRecord(
        objective=objective(prob, z1),
        primal=float(np.sqrt(primal_sq)),
        dual=rho * float(np.sqrt(dual_sq)),
    )
    return AdmmState(u, z1, lam1, z2, lam2, state.history + (record,), faces, fallbacks)


def admm_solve(prob: ConvexProblem, cfg: AdmmConfig, log=None) -> AdmmState:
    """Run the configured number of iterations (or stop on small residuals)."""
    state = init_state(prob)
    solve = u_update(prob, cfg)
    for it in range(cfg.admm_iters):
        tick = time.perf_counter()
        state = admm_step(prob, cfg, state, solve)
        if log is not None:
            rec = state.history[-1]
            log({
                "iter": it,
                "objective": rec.objective.total,
                "fit": rec.objective.fit,
                "penalty": rec.objective.penalty,
                "cone_violation": rec.objective.cone_violation,
                "primal_residual": rec.primal,
                "dual_residual": rec.dual,
                "seconds": time.perf_counter() - tick,
                **({"cone_fallbacks": state.cone_fallbacks} if prob.mode == "exact" else {}),
            })
        if cfg.stop_tol is not None and max(state.primal_res, state.dual_res) <= cfg.stop_tol:
            break
    return state


def _as_array(X) -> np.ndarray:
    return X.values if isinstance(X, FeatureMatrix) else np.asarray(X, dtype=np.float64)


def train(X, labels: LabelSet, gate_cfg: GateConfig, cfg: AdmmConfig,
          log=None) -> "_head.TrainedHead":
    """Train a head end to end: gates, ADMM, weight extraction, certificates."""
    X = _as_array(X)
    n, d = X.shape
    K = labels.K
    if labels.n != n:
        raise TrainingError(f"{n} feature rows but {labels.n} labels")
    if n < K:
        raise TrainingError(f"need at least K={K} examples, got {n}")
    counts = np.bincount(labels.class_ids, minlength=K)
    if np.any(counts == 0):
        missing = [labels.names[k] for k in np.flatnonzero(counts == 0)]
        raise TrainingError(f"classes with no training examples: {missing}")
    if np.any(counts < 2):
        thin = [labels.names[k] for k in np.flatnonzero(counts < 2)]
        warnings.warn(f"classes with fewer than 2 examples: {thin}", stacklevel=2)

    if gate_cfg.enumerate_all:
        gates = enumerate_patterns(X)
    else:
        gates = sample_gates(X, gate_cfg.count, seed=gate_cfg.seed)

    Y = labels.one_hot()
    if cfg.mode == "exact":
        op = GatedOperator.split(X, gates, K)
        cones = tuple(ConeSpec(p, X) for p in gates.patterns)
    else:
        op = GatedOperator.relaxed(X, gates, K)
        cones = ()
    prob = ConvexProblem(op, Y, cfg.beta, cfg.penalty_kind, cfg.mode, cones)

    state = admm_solve(prob, cfg, log=log)

    P = gates.P
    if cfg.mode == "exact":
        # z1 carries the prox sparsity; projecting it keeps that sparsity
        projected, _, _ = project_to_cones(prob, state.z1, state.faces)
        V, W = projected[:P].copy(), projected[P:].copy()
    else:
        V = state.z1.copy()
        W = np.zeros_like(V)

    meta = {
        "admm": {
            "rho": cfg.rho, "beta": cfg.beta, "admm_iters": cfg.admm_iters,
            "mode": cfg.mode, "penalty_kind": cfg.penalty_kind, "seed": cfg.seed,
            "stop_tol": cfg.stop_tol,
        },
        "gates": {"count": gate_cfg.count, "seed": gate_cfg.seed,
                  "enumerate_all": gate_cfg.enumerate_all, "shortfall": gates.shortfall},
        "history": [
            {"objective": r.objective.total, "fit": r.objective.fit,
             "penalty": r.objective.penalty, "cone_violation": r.objective.cone_violation,
             "primal_residual": r.primal, "dual_residual": r.dual}
            for r in state.history
        ],
        "n_train": n,
    }
    head = _head.TrainedHead(
        gates=gates, V=V, W=W, penalty_kind=cfg.penalty_kind, mode=cfg.mode,
        label_map=dict(labels.label_map), train_meta=meta,
    )
    if head.cert.B_l21 == 0.0:
        warnings.warn(
            "trained head is all zero (B_l21 = 0), so every prediction is a tie; "
            f"the prox threshold beta/rho = {cfg.beta / cfg.rho:g} may be too large "
            f"for {len(state.history)} ADMM iterations",
            stacklevel=2,
        )
    return head
