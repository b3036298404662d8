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

with primal residual ||u - z||_F and dual residual r ||z - z_in||_F (z_in
the copy the step started from), until both are at most ``stop_tol`` or
``admm_iters`` have run. Fixed points are exactly the minimisers of the
convex objective, and the loop decides on the residuals alone: the
objective is evaluated once, at the returned z, after the factor is freed.

Steps 1-3 are a map T of the state w = (z, lam), run with type-II
Anderson acceleration (Walker and Ni, 2011; Zhang, O'Donoghue and Boyd,
2020): the newest residual f = T(w) - w is fitted by the stored residual
differences, and the next w is T(w) minus the same combination of the
stored T(w) differences. The least squares carries a Tikhonov term of
``AA_RIDGE`` times the squared norms of all stored differences, so w lands
at most 1e3 ||f|| from T(w) even where the residual differences vanish.
Each evaluation of T is one iteration, with its record and stop check. The
first two steps are plain; an extrapolated w is kept only if ||T(w) - w||
fell, else the loop takes the plain step from the last kept w and clears
the memory: at most ``AA_MEMORY`` difference pairs that fit in
``ROW_BLOCK_BYTES`` (one at the train_serve shape).

The penalty is r = rho in relaxed mode and r = 2 rho in split mode
(``AdmmConfig.r``), where the copy carries two constraints, the penalty and
the cones, each weighted rho, so the u-system is F^T F + 2 rho I (r = rho
converges more slowly at the benchmark's budget). Final weights are the
last evaluated prox output z, never an extrapolated copy: the prox step
gives exact group sparsity, and a shrunk projection stays in its cone, so
split-mode weights are feasible to roundoff. Training loads no scipy
module, with sampled or enumerated patterns.

Note on defaults: rho = 1e-4 and beta = 1e-3 give a prox threshold beta/rho
of 10, far above the weight scale of unit-scale embedding problems, so short
default runs leave z at zero and ``train`` warns of an all-zero head. Runs
that must reach the optimum (oracle comparisons, benchmarks) should pass a
larger rho and budget, e.g. rho ~ 0.1, a few hundred iterations, ``stop_tol``.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import head as _head
from .cvxprog import (ConvexProblem, ObjectiveValue, group_norms, group_prox, objective,
                      penalty, project_to_cones)
from .dataio import FeatureMatrix, LabelSet
from .gates import enumerate_patterns, sample_gates
from .linops import ROW_BLOCK_BYTES, GatedOperator, PcgConfig, gram_side, gram_solver

AA_MEMORY = 10     # Anderson difference pairs kept, at most ROW_BLOCK_BYTES of them
AA_RIDGE = 1e-6    # Tikhonov weight of the Anderson least squares, times the squared
                   # norms of the stored differences


@dataclass(frozen=True)
class GateConfig:
    """How to obtain the activation patterns for training; ``cld`` takes its defaults."""

    count: int | None = None   # None: 10 patterns for two classes, 32 otherwise
    seed: int = 0
    enumerate_all: bool = False

    def __post_init__(self):
        if self.count is not None and self.count < 1:
            raise ValueError(f"count of gates must be >= 1, got {self.count}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def count_for(self, K: int) -> int:
        """The number of patterns to sample for K classes."""
        return (10 if K == 2 else 32) if self.count is None else self.count


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
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be finite and positive, got {self.rho}")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if self.stop_tol is not None and not (np.isfinite(self.stop_tol) and self.stop_tol >= 0):
            raise ValueError(f"stop_tol must be finite and >= 0, got {self.stop_tol}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.admm_iters < 1:
            raise ValueError("admm_iters must be >= 1")

    @property
    def r(self) -> float:
        """The ADMM penalty: rho, or 2 rho in exact mode (see the module docstring)."""
        return 2.0 * self.rho if self.mode == "exact" else self.rho


@dataclass(frozen=True)
class IterationRecord:
    primal: float
    dual: float

    def fields(self) -> dict:
        """The residuals the loop stops on, as logged, summarised and kept in ``train_meta``."""
        return {"primal_residual": self.primal, "dual_residual": self.dual}


@dataclass(frozen=True)
class AdmmResult:
    z: np.ndarray                            # the trained weights: the final consensus copy
    history: tuple[IterationRecord, ...]     # one record per iteration run
    objective: ObjectiveValue                # objective(prob, z), evaluated once after the loop


class TrainingError(ValueError):
    """Degenerate training input."""


def admm_solve(prob: ConvexProblem, cfg: AdmmConfig, log=None) -> AdmmResult:
    """Run the configured number of iterations (or stop on small residuals).

    The config must state the problem's mode, beta and penalty kind. ``log``
    gets one ``u_factor`` record (the Gram's side and size, the bytes its
    factor keeps, the seconds spent forming and factoring it and building
    the whole u-update), then one record per iteration (its residuals,
    seconds and, in split mode, cone projection misses), then one ``summary``
    record: why the run stopped (``tol`` or ``cap``), the iterations run, the
    objective at z, the last residuals, z's l21 norm as the certificate sums
    it (``B_l21``), the number of nonzero penalty groups in z, whether z is
    all zero, the Anderson candidates kept and rejected (``aa_accepted``,
    ``aa_rejected``), and in split mode the projection misses of the run.
    """
    problem = (prob.mode, prob.beta, prob.penalty_kind)
    config = (cfg.mode, cfg.beta, cfg.penalty_kind)
    if problem != config:
        raise ValueError(f"problem (mode, beta, penalty_kind) {problem} != config {config}")
    op, r, exact = prob.op, cfg.r, prob.mode == "exact"
    tick = time.perf_counter()
    solve, stats = gram_solver(op, r)
    fty = op.adjoint(prob.Y)
    if log is not None:
        log({"phase": "u_factor", "side": gram_side(op), "size": min(op.n, op.B * op.d),
             **stats, "seconds": time.perf_counter() - tick})
    # w = (z, lam) is the state and g = T(w); once T is evaluated, w's buffer
    # holds f = g - w. Rows [:count] of dF, dG hold residual and image
    # differences, row j the last kept (f, g), the next evaluation's base.
    w, g = np.zeros((2,) + op.block_shape), np.empty((2,) + op.block_shape)
    mem = min(AA_MEMORY, ROW_BLOCK_BYTES // (2 * w.nbytes))
    dF, dG = np.empty((mem, w.size)), np.empty((mem, w.size))
    gram, gsq = np.empty((mem, mem)), np.empty(mem)
    count = j = accepted = rejected = fallbacks = 0
    candidate, res_prev, history = False, np.inf, []
    faces = np.zeros((op.B, op.K, op.n), dtype=bool) if exact else None
    for it in range(cfg.admm_iters):
        tick = time.perf_counter()
        u = solve(fty + r * (w[0] - w[1]))
        v = np.add(u, w[1], out=g[1])
        if exact:
            v, faces, misses = project_to_cones(prob, v, faces)
            fallbacks += misses
        z = group_prox(v, cfg.beta / r, prob.penalty_kind)
        g[1] -= z                                 # lam + u - z
        np.subtract(z, w[0], out=w[0])            # f = (z - z_in, u - z)
        np.subtract(u, z, out=w[1])
        g[0] = z
        f0, f1 = float(np.vdot(w[0], w[0])), float(np.vdot(w[1], w[1]))
        record = IterationRecord(primal=math.sqrt(f1), dual=r * math.sqrt(f0))
        history.append(record)
        if log is not None:
            log({"iter": it, **record.fields(), "seconds": time.perf_counter() - tick,
                 **({"cone_fallbacks": misses} if exact else {})})
        converged = cfg.stop_tol is not None and max(record.primal, record.dual) <= cfg.stop_tol
        kept = not candidate or f0 + f1 < res_prev
        accepted, rejected = accepted + (candidate and kept), rejected + (not kept)
        if converged or it + 1 == cfg.admm_iters:
            break
        if not kept:                              # back to the plain step, memory cleared
            w.reshape(-1)[:] = dG[j]
            dF[0], dG[0] = dF[j], dG[j]
            count = j = 0
            candidate = False
            continue
        res_prev = f0 + f1
        f, gf = w.reshape(-1), g.reshape(-1)
        if it == 0 or not mem:                    # plain step; keep (f, g) for the next
            if mem:
                dF[0], dG[0] = f, gf
            w, g = g, w
            continue
        np.subtract(f, dF[j], out=dF[j])
        np.subtract(gf, dG[j], out=dG[j])
        n = count + 1
        gram[j, :n] = gram[:n, j] = dF[:n] @ dF[j]
        gsq[j] = np.vdot(dG[j], dG[j])
        lhs = gram[:n, :n].copy()
        ridge = AA_RIDGE * float(np.trace(lhs) + gsq[:n].sum())
        candidate = ridge > 0.0                   # all differences zero: the plain step
        lhs.flat[::n + 1] += ridge
        gamma = np.linalg.solve(lhs, dF[:n] @ f) if candidate else np.zeros(n)
        nxt = (j + 1) % mem                       # empty, or the oldest difference
        dF[nxt] = f
        np.subtract(gf, np.dot(gamma, dG[:n], out=f), out=f)   # w = g - dG gamma
        dG[nxt] = gf
        count, j = min(n, mem - 1), nxt
    del solve                                     # frees the factor before the objective's apply
    obj = objective(prob, z)
    if log is not None:
        active = int(np.count_nonzero(group_norms(z, prob.penalty_kind)))
        P = op.B // 2 if exact else op.B          # the V blocks; W follows in exact mode
        log({"phase": "summary", "stopped": "tol" if converged else "cap", "iters": len(history),
             "objective": obj.total, "fit": obj.fit, "penalty": obj.penalty,
             "cone_violation": obj.cone_violation, **history[-1].fields(),
             "B_l21": penalty(z[:P], "l21") + penalty(z[P:], "l21"), "active_groups": active,
             "zero_head": active == 0, "aa_accepted": accepted, "aa_rejected": rejected,
             **({"cone_fallbacks": fallbacks} if exact else {})})
    return AdmmResult(z, tuple(history), obj)


def train(X, labels: LabelSet, gate_cfg: GateConfig, cfg: AdmmConfig,
          log=None) -> "_head.TrainedHead":
    """Train a head end to end: gates, ADMM, weight extraction, certificates."""
    X = (X if isinstance(X, FeatureMatrix) else FeatureMatrix(X)).values
    n, d = X.shape
    K = labels.K
    if labels.n != n:
        raise TrainingError(f"{n} feature rows but {labels.n} labels")
    counts = np.bincount(labels.class_ids, minlength=K)
    if np.any(counts == 0):
        missing = [labels.names[k] for k in np.flatnonzero(counts == 0)]
        raise TrainingError(f"classes with no training examples: {missing}")
    if np.any(counts < 2):
        thin = [labels.names[k] for k in np.flatnonzero(counts < 2)]
        warnings.warn(f"classes with fewer than 2 examples: {thin}", stacklevel=2)

    gates = (enumerate_patterns(X) if gate_cfg.enumerate_all
             else sample_gates(X, gate_cfg.count_for(K), seed=gate_cfg.seed))
    if cfg.mode == "exact":
        op = GatedOperator.split(X, gates, K)
        cones = op.masks[:gates.P]
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
        "gates": {"count": gate_cfg.count_for(K), "seed": gate_cfg.seed,
                  "enumerate_all": gate_cfg.enumerate_all, "shortfall": gates.shortfall},
        "history": [r.fields() for r in result.history],
        "objective": asdict(result.objective),
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
