"""Consensus ADMM trainer for the convex detection-head program.

The smooth fit variable u is coupled to one consensus copy z through a
scaled dual lam: two-block ADMM with penalty r. The copy carries the
group-norm penalty and, in split mode, the pattern-cone constraints. Every
penalty group (a column for l21, a block for frobenius) lies in one cone,
which nonnegative scaling preserves, so the proximal map of "group norm +
cone indicator" is the group shrinkage of the cone projection.

``admm_solve`` is the whole loop. It factors the u-system once, with the
Cholesky factor of the smaller Gram (F^T F, or the n x n kernel F F^T when
B*d > n) that ``linops.gram_solver`` builds from numpy GEMMs, and forms
F^T Y once. From u = z = lam = 0 each iteration then performs

    1. u    <- solve (F^T F + r I) u = F^T Y + r (z - lam) exactly,
    2. z    <- group_prox(project_to_cones(u + lam), beta / r), with no
              projection in relaxed mode: every column is projected onto its
              pattern cone exactly by ``gates.project_cones``, one batched
              numpy Lawson-Hanson active set that starts from the face the
              column had at the previous step and returns the new one; most
              columns pass the KKT check on that face in the first round,
    3. lam  <- lam + (u - z),

with primal residual ||u - z||_F and dual residual r ||z - z_prev||_F,
until both are at most ``stop_tol`` or ``admm_iters`` have run. Fixed
points are exactly the minimisers of the convex objective.

The penalty is r = rho in relaxed mode and r = 2 rho in split mode
(``AdmmConfig.r``), where the copy carries two constraints, the penalty and
the cones, each weighted rho, so the u-system is F^T F + 2 rho I (r = rho
converges more slowly at the benchmark's budget). Final weights are read
from z, whose prox step gives exact group sparsity; a shrunk projection
stays in its cone, so split-mode weights are feasible to roundoff. Training
loads no scipy module, with sampled or enumerated patterns.

Note on defaults: rho = 1e-4 and beta = 1e-3 give a prox threshold beta/rho
of 10, far above the weight scale of unit-scale embedding problems, so short
default runs leave z at zero and ``train`` warns of an all-zero head. Runs
that must reach the optimum (oracle comparisons, benchmarks) should pass a
larger rho and budget, e.g. rho ~ 0.1, a few hundred iterations, ``stop_tol``.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import head as _head
from .cvxprog import (ConvexProblem, ObjectiveValue, group_norms, group_prox, objective,
                      project_to_cones)
from .dataio import FeatureMatrix, LabelSet
from .gates import enumerate_patterns, sample_gates
from .linops import GatedOperator, PcgConfig, gram_side, gram_solver


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

    @property
    def r(self) -> float:
        """The ADMM penalty: rho, or 2 rho in exact mode (see the module docstring)."""
        return 2.0 * self.rho if self.mode == "exact" else self.rho


@dataclass(frozen=True)
class IterationRecord:
    objective: ObjectiveValue
    primal: float
    dual: float

    def fields(self) -> dict:
        """The iteration's numbers as logged, summarised and kept in ``train_meta``."""
        obj = self.objective
        return {"objective": obj.total, "fit": obj.fit, "penalty": obj.penalty,
                "cone_violation": obj.cone_violation,
                "primal_residual": self.primal, "dual_residual": self.dual}


@dataclass(frozen=True)
class AdmmResult:
    z: np.ndarray                            # the trained weights: the final consensus copy
    history: tuple[IterationRecord, ...]     # one record per iteration run


class TrainingError(ValueError):
    """Degenerate training input."""


def admm_solve(prob: ConvexProblem, cfg: AdmmConfig, log=None) -> AdmmResult:
    """Run the configured number of iterations (or stop on small residuals).

    The config must state the problem's mode, beta and penalty kind. ``log``
    gets one ``u_factor`` record (the Gram's side and size, and the seconds
    taken to build the u-update), then one record per iteration, then one
    ``summary`` record: why the run stopped (``tol`` or ``cap``), the
    iterations run, the last iteration's numbers, the number of nonzero
    penalty groups in z, whether z is all zero, and in split mode the cone
    projection's misses summed over the run.
    """
    problem = (prob.mode, prob.beta, prob.penalty_kind)
    config = (cfg.mode, cfg.beta, cfg.penalty_kind)
    if problem != config:
        raise ValueError(f"problem (mode, beta, penalty_kind) {problem} != config {config}")
    op, r, exact = prob.op, cfg.r, prob.mode == "exact"
    tick = time.perf_counter()
    solve = gram_solver(op, r)
    fty = op.adjoint(prob.Y)
    if log is not None:
        log({"phase": "u_factor", "side": gram_side(op), "size": min(op.n, op.B * op.d),
             "seconds": time.perf_counter() - tick})
    z, lam = np.zeros(op.block_shape), np.zeros(op.block_shape)
    faces = np.zeros((op.B, op.K, op.n), dtype=bool) if exact else None
    history, fallbacks = [], 0
    for it in range(cfg.admm_iters):
        tick = time.perf_counter()
        u = solve(fty + r * (z - lam))
        v = u + lam
        if exact:
            v, faces, misses = project_to_cones(prob, v, faces)
            fallbacks += misses
        z_prev, z = z, group_prox(v, cfg.beta / r, prob.penalty_kind)
        lam = lam + u - z
        record = IterationRecord(
            objective=objective(prob, z),
            primal=float(np.sqrt(np.vdot(u - z, u - z))),
            dual=r * float(np.sqrt(np.vdot(z - z_prev, z - z_prev))),
        )
        history.append(record)
        if log is not None:
            log({"iter": it, **record.fields(), "seconds": time.perf_counter() - tick,
                 **({"cone_fallbacks": misses} if exact else {})})
        converged = cfg.stop_tol is not None and max(record.primal, record.dual) <= cfg.stop_tol
        if converged:
            break
    if log is not None:
        active = int(np.count_nonzero(group_norms(z, prob.penalty_kind)))
        log({"phase": "summary", "stopped": "tol" if converged else "cap",
             "iters": len(history), **history[-1].fields(),
             "active_groups": active, "zero_head": active == 0,
             **({"cone_fallbacks": fallbacks} if exact else {})})
    return AdmmResult(z, tuple(history))


def train(X, labels: LabelSet, gate_cfg: GateConfig, cfg: AdmmConfig,
          log=None) -> "_head.TrainedHead":
    """Train a head end to end: gates, ADMM, weight extraction, certificates."""
    X = X.values if isinstance(X, FeatureMatrix) else np.asarray(X, dtype=np.float64)
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

    gates = (enumerate_patterns(X) if gate_cfg.enumerate_all
             else sample_gates(X, gate_cfg.count, seed=gate_cfg.seed))
    if cfg.mode == "exact":
        op, cones = GatedOperator.split(X, gates, K), gates.active
    else:
        op, cones = GatedOperator.relaxed(X, gates, K), ()
    prob = ConvexProblem(op, labels.one_hot(), cfg.beta, cfg.penalty_kind, cfg.mode, cones)

    result = admm_solve(prob, cfg, log=log)
    V = result.z[:gates.P]
    W = result.z[gates.P:] if cfg.mode == "exact" else np.zeros_like(V)

    meta = {
        "admm": {
            "rho": cfg.rho, "beta": cfg.beta, "admm_iters": cfg.admm_iters,
            "mode": cfg.mode, "penalty_kind": cfg.penalty_kind, "seed": cfg.seed,
            "stop_tol": cfg.stop_tol,
        },
        "gates": {"count": gate_cfg.count, "seed": gate_cfg.seed,
                  "enumerate_all": gate_cfg.enumerate_all, "shortfall": gates.shortfall},
        "history": [r.fields() for r in result.history],
        "n_train": n,
    }
    head = _head.TrainedHead(
        gates=gates, V=V, W=W, penalty_kind=cfg.penalty_kind, mode=cfg.mode,
        label_map=dict(labels.label_map), train_meta=meta,
    )
    if head.cert.B_l21 == 0.0:
        warnings.warn(
            "trained head is all zero (B_l21 = 0), so every prediction is a tie; "
            f"the prox threshold {cfg.beta / cfg.r:g} may be too large "
            f"for {len(result.history)} ADMM iterations",
            stacklevel=2,
        )
    return head
