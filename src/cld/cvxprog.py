"""The convex training objective: squared loss plus a group-norm penalty.

The fit term couples the gated operator to one-hot targets; the penalty is
either the column-wise group norm (``l21``: sum of per-class column norms
over all blocks) or the blockwise Frobenius norm (``frobenius``). Both admit
closed-form proximal maps (group soft-thresholding), which is what both
solvers lean on. In split mode the weight stack carries two signed copies per
pattern and each column is additionally constrained to its pattern cone.
``project_to_cones`` projects every column exactly with the one batched
numpy projector ``gates.project_cones``, warm-started from the active face
each column had last time. ``objective`` takes its fit by one apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gates import project_cones
from .linops import GatedOperator

PENALTY_KINDS = ("l21", "frobenius")
MODES = ("relaxed", "exact")


def loss(pred: np.ndarray, Y: np.ndarray) -> float:
    """Squared loss (1/2) ||pred - Y||_F^2."""
    pred = np.asarray(pred, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if pred.shape != Y.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {Y.shape}")
    diff = pred - Y
    return 0.5 * float(np.vdot(diff, diff))


def group_norms(S: np.ndarray, kind: str) -> np.ndarray:
    """Norm of every penalty group; columns for l21, whole blocks for frobenius."""
    if kind == "l21":
        return np.linalg.norm(S, axis=1)          # (B, K)
    if kind == "frobenius":
        return np.linalg.norm(S.reshape(S.shape[0], -1), axis=1)  # (B,)
    raise ValueError(f"unknown penalty kind {kind!r}")


def penalty(S: np.ndarray, kind: str) -> float:
    """Group-norm penalty of a (B, d, K) weight stack."""
    return float(group_norms(np.asarray(S, dtype=np.float64), kind).sum())


def group_prox(Z: np.ndarray, threshold: float, kind: str) -> np.ndarray:
    """Proximal map of ``threshold * penalty``: shrink each group toward zero.

    A group g becomes max(0, 1 - threshold/||g||) * g; groups inside the
    shrinkage ball vanish exactly, and zero groups stay zero.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    Z = np.asarray(Z, dtype=np.float64)
    norms = group_norms(Z, kind)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > threshold, 1.0 - threshold / norms, 0.0)
    if kind == "l21":
        return scale[:, None, :] * Z
    return scale[:, None, None] * Z


@dataclass(frozen=True)
class ConvexProblem:
    """One training instance: operator, targets, penalty, and mode."""

    op: GatedOperator
    Y: np.ndarray
    beta: float
    penalty_kind: str = "l21"
    mode: str = "relaxed"
    cones: np.ndarray = ()    # (P, n) pattern matrix D, one cone per row; exact mode only
    signs: np.ndarray = field(init=False, repr=False, compare=False)  # (P, n) rows 2D - 1

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if self.penalty_kind not in PENALTY_KINDS:
            raise ValueError(f"penalty_kind must be one of {PENALTY_KINDS}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        Y = np.asarray(self.Y, dtype=np.float64)
        if Y.shape != (self.op.n, self.op.K):
            raise ValueError(f"targets must have shape {(self.op.n, self.op.K)}, got {Y.shape}")
        object.__setattr__(self, "Y", Y)
        cones = np.asarray(self.cones, dtype=bool)
        cones = cones.reshape(-1, self.op.n) if cones.size == 0 else cones
        if cones.ndim != 2 or cones.shape[1] != self.op.n:
            raise ValueError(f"cones must be a (P, {self.op.n}) pattern matrix, got {cones.shape}")
        if self.mode == "exact" and len(cones) * 2 != self.op.B:
            raise ValueError("exact mode needs one cone per pattern (operator has 2P blocks)")
        object.__setattr__(self, "cones", cones)
        object.__setattr__(self, "signs", np.where(cones, 1.0, -1.0))


@dataclass(frozen=True)
class ObjectiveValue:
    total: float
    fit: float
    penalty: float
    cone_violation: float = 0.0


def max_cone_violation(prob: ConvexProblem, S: np.ndarray) -> float:
    """Worst half-space violation over all blocks and class columns.

    Block b is constrained to cone b mod P, whose slack at column k is
    (2 D - 1) X S[b, :, k]; one batched product gives every slack at once.
    Zero rows of X give zero slack, as they constrain nothing.
    """
    P = len(prob.cones)
    slack = prob.signs[np.arange(S.shape[0]) % P][:, :, None] * (
        np.asarray(prob.op.X, dtype=np.float64) @ S)
    return float(max(0.0, -slack.min(initial=0.0)))


def project_to_cones(prob: ConvexProblem, S: np.ndarray, faces: np.ndarray):
    """Exact projection of every column of a (B, d, K) stack onto its cone.

    Block b uses cone b mod P; zero columns are fixed points and are skipped,
    so group sparsity survives. ``faces`` (B, K, n) guesses each column's
    active rows (all False: none), and ``gates.project_cones`` projects every
    nonzero column at once from there. Returns (projection, faces, misses),
    where misses counts the columns whose hinted face failed its KKT check.
    """
    out = np.array(S, dtype=np.float64)
    faces = faces.copy()
    b, k = np.nonzero(np.any(out != 0.0, axis=1))
    out[b, :, k], faces[b, k], missed = project_cones(
        prob.op.X, prob.signs[b % len(prob.cones)], out[b, :, k], faces[b, k])
    return out, faces, int(missed.sum())


def objective(prob: ConvexProblem, S: np.ndarray) -> ObjectiveValue:
    """Fit (one apply), penalty, and split mode's cone violation at S."""
    S = np.asarray(S, dtype=np.float64)
    fit = loss(prob.op.apply(S), prob.Y)
    pen = penalty(S, prob.penalty_kind)
    viol = 0.0
    if prob.mode == "exact" and len(prob.cones):
        viol = max_cone_violation(prob, S)
    return ObjectiveValue(fit + prob.beta * pen, fit, pen, viol)
