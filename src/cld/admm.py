"""Consensus ADMM trainer for the convex detection-head program.

The smooth fit variable u is coupled to one consensus copy z through a
scaled dual lam: two-block ADMM with penalty r. The copy carries the
group-norm penalty and, in split mode, the pattern-cone constraints. Every
penalty group (a column for l21, a block for frobenius) lies in one cone,
which nonnegative scaling preserves, so the proximal map of "group norm +
cone indicator" is the group shrinkage of the cone projection. One
iteration performs

    1. u    <- solve (F^T F + r I) u = F^T Y + r (z - lam) exactly, with the
              Cholesky factor of the smaller Gram (F^T F, or the n x n kernel
              F F^T when B*d > n) that ``linops.gram_solver`` builds once per
              run; F^T Y is also computed once per run,
    2. z    <- group_prox(project_to_cones(u + lam), beta / r), with no
              projection in relaxed mode: every column is projected onto its
              pattern cone exactly, by one batched solve on the active face
              it had at the previous step; only columns that fail the KKT
              check take the Lawson-Hanson NNLS of
              ``gates.exact_cone_project``, which returns the new face,
    3. lam  <- lam + (u - z),

with primal residual ||u - z||_F and dual residual r ||z - z_prev||_F.
Fixed points are exactly the minimisers of the convex objective.

The penalty is r = rho in relaxed mode and r = 2 rho in split mode, where
the copy carries two constraints, the penalty and the cones, each weighted
rho, so the u-system is F^T F + 2 rho I (r = rho converges more slowly at
the benchmark's budget). Final weights are read from z, whose prox step
gives exact group sparsity; a shrunk projection stays in its cone, so
split-mode weights are feasible to roundoff.

Note on defaults: rho = 1e-4 and beta = 1e-3 give a prox threshold beta/rho
of 10, far above the weight scale of unit-scale embedding problems, so short
default runs leave z at zero, and ``train`` warns when its head comes out
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
    z1: np.ndarray                     # the consensus copy z
    lam1: np.ndarray                   # its scaled dual
    history: tuple[IterationRecord, ...] = ()
    faces: np.ndarray | None = None    # (B, K, n) active rows of each projected column
    cone_fallbacks: int = 0            # columns of the last projection that took the NNLS

    @property
    def primal_res(self) -> float:
        return self.history[-1].primal if self.history else float("inf")

    @property
    def dual_res(self) -> float:
        return self.history[-1].dual if self.history else float("inf")


class TrainingError(ValueError):
    """Degenerate training input."""


def init_state(prob: ConvexProblem) -> AdmmState:
    op = prob.op
    zeros = np.zeros(op.block_shape)
    faces = np.zeros((op.B, op.K, op.n), dtype=bool) if prob.mode == "exact" else None
    return AdmmState(zeros, zeros.copy(), zeros.copy(), faces=faces)


def _penalty(prob: ConvexProblem, cfg: AdmmConfig) -> float:
    """The ADMM penalty r: rho, or 2 rho in split mode (see the module docstring)."""
    return 2.0 * cfg.rho if prob.mode == "exact" else cfg.rho


def u_update(prob: ConvexProblem, cfg: AdmmConfig):
    """The u-update of one run: ``solve(consensus) -> u``.

    It solves (F^T F + r I) u = F^T Y + consensus, where consensus is
    r (z - lam). The solver and F^T Y are built here, once.
    """
    solve = gram_solver(prob.op, _penalty(prob, cfg))
    fty = prob.op.adjoint(prob.Y)
    return lambda consensus: solve(fty + consensus)


def admm_step(prob: ConvexProblem, cfg: AdmmConfig, state: AdmmState,
              solve=None) -> AdmmState:
    """One consensus iteration; ``solve`` is the run's ``u_update`` (built here if None)."""
    if prob.mode != cfg.mode:
        raise ValueError(f"problem mode {prob.mode!r} != config mode {cfg.mode!r}")
    r = _penalty(prob, cfg)
    if solve is None:
        solve = u_update(prob, cfg)
    u = solve(r * (state.z1 - state.lam1))
    v, faces, fallbacks = u + state.lam1, None, 0
    if prob.mode == "exact":
        v, faces, fallbacks = project_to_cones(prob, v, state.faces)
    z = group_prox(v, cfg.beta / r, prob.penalty_kind)
    lam = state.lam1 + u - z
    record = IterationRecord(
        objective=objective(prob, z),
        primal=float(np.sqrt(np.vdot(u - z, u - z))),
        dual=r * float(np.sqrt(np.vdot(z - state.z1, z - state.z1))),
    )
    return AdmmState(u, z, lam, state.history + (record,), faces, fallbacks)


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

    V = state.z1[:gates.P].copy()
    W = state.z1[gates.P:].copy() if cfg.mode == "exact" else np.zeros_like(V)

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
            f"the prox threshold {cfg.beta / _penalty(prob, cfg):g} may be too large "
            f"for {len(state.history)} ADMM iterations",
            stacklevel=2,
        )
    return head
