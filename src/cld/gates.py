"""Sampling, geometry, and enumeration of ReLU activation patterns.

A gate is a direction g in feature space; its pattern over a training matrix
X is the boolean vector 1(Xg >= 0) (ties at zero count as active). The set of
weights that realises a fixed pattern D is the polyhedral cone
{v : (2D - I) X v >= 0}. The program projects onto that cone exactly with
``exact_cone_project``, which solves the cone's dual by Lawson-Hanson
nonnegative least squares. ``project_cone`` (Dykstra's cyclic algorithm over
the n defining half-spaces) is kept as the independent check of it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GatePattern:
    """A boolean activation pattern together with the direction that induced it."""

    active: np.ndarray
    generator: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "active", np.asarray(self.active, dtype=bool))
        object.__setattr__(self, "generator", np.asarray(self.generator, dtype=np.float64))

    def key(self) -> bytes:
        return np.packbits(self.active).tobytes()

    def bitstring(self) -> str:
        return "".join("1" if a else "0" for a in self.active)


@dataclass(frozen=True)
class GateSet:
    """A collection of patterns sampled (or enumerated) from one training matrix."""

    patterns: tuple[GatePattern, ...]
    seed: int | None = None
    dedup: bool = True
    shortfall: int = 0

    @property
    def P(self) -> int:
        return len(self.patterns)

    @property
    def n(self) -> int:
        return self.patterns[0].active.size

    def generators(self) -> np.ndarray:
        return np.stack([p.generator for p in self.patterns])

    def mask_matrix(self) -> np.ndarray:
        """(P, n) boolean matrix, one pattern per row."""
        return np.stack([p.active for p in self.patterns])


@dataclass(frozen=True)
class ConeSpec:
    """Half-space description of the cone of weights realising one pattern."""

    pattern: GatePattern
    X: np.ndarray

    def __post_init__(self):
        signs = np.where(self.pattern.active, 1.0, -1.0)
        rows = signs[:, None] * np.asarray(self.X, dtype=np.float64)
        rows = rows[np.einsum("ij,ij->i", rows, rows) > 0.0]  # zero rows constrain nothing
        rows.setflags(write=False)
        object.__setattr__(self, "_rows", rows)

    def signed_rows(self) -> np.ndarray:
        """Nonzero rows a_i of the cone {v : a_i . v >= 0}; built once, read-only."""
        return self._rows


def pattern_of(X: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Activation pattern 1(Xg >= 0); ties at zero are active."""
    return np.asarray(X, dtype=np.float64) @ np.asarray(g, dtype=np.float64) >= 0.0


def _draw_rng(seed: int, index: int) -> np.random.Generator:
    # Per-draw stream keyed on (seed, index): identical output no matter how
    # draws are scheduled across workers.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def sample_gates(X: np.ndarray, count: int, seed: int = 0, dedup: bool = True) -> GateSet:
    """Sample ``count`` gate directions from the standard normal distribution.

    With ``dedup`` the draws continue until ``count`` distinct patterns are
    found or a budget of ``8 * count`` draws is exhausted; in the latter case
    fewer patterns are returned and a warning reports the shortfall.
    """
    X = np.asarray(X, dtype=np.float64)
    if count < 1:
        raise ValueError(f"need at least one pattern, got count={count}")
    d = X.shape[1]
    patterns: list[GatePattern] = []
    seen: set[bytes] = set()
    budget = 8 * count if dedup else count
    for j in range(budget):
        g = _draw_rng(seed, j).standard_normal(d)
        pat = GatePattern(pattern_of(X, g), g)
        if dedup:
            k = pat.key()
            if k in seen:
                continue
            seen.add(k)
        patterns.append(pat)
        if len(patterns) == count:
            break
    shortfall = count - len(patterns)
    if shortfall:
        warnings.warn(
            f"found only {len(patterns)} distinct activation patterns after "
            f"{budget} draws ({shortfall} short)",
            stacklevel=2,
        )
    return GateSet(tuple(patterns), seed=seed, dedup=dedup, shortfall=shortfall)


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


def _nnls(M: np.ndarray, b: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Lawson-Hanson active-set solve of min ||M mu - b|| subject to mu >= 0.

    Finite, deterministic, and solved to working precision; used instead of
    library NNLS because exact dual solutions are what make cone projections
    trustworthy.
    """
    m, n = M.shape
    if tol is None:
        tol = 10.0 * max(m, n) * np.finfo(np.float64).eps * max(np.abs(M).max(initial=0.0), 1.0)
    passive = np.zeros(n, dtype=bool)
    mu = np.zeros(n)
    resid = b.copy()
    for _ in range(3 * n + 10):
        w = M.T @ resid
        w[passive] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            break
        passive[j] = True
        while True:
            s_passive, *_ = np.linalg.lstsq(M[:, passive], b, rcond=None)
            if s_passive.size == 0 or s_passive.min() > 0.0:
                mu = np.zeros(n)
                mu[passive] = s_passive
                break
            current = mu[passive]
            mask = s_passive <= 0.0
            alpha = np.min(current[mask] / (current[mask] - s_passive[mask]))
            mu[passive] = current + alpha * (s_passive - current)
            passive = passive & (mu > tol)
            mu[~passive] = 0.0
        resid = b - M @ mu
    return mu


def exact_cone_project(cone: ConeSpec, v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the pattern cone via its dual program.

    The projection of x onto {v : a_i . v >= 0} is x + A^T mu* where mu*
    minimises ||A^T mu + x|| over mu >= 0 (Moreau decomposition against the
    polar cone). The dual is a small nonnegative least-squares problem solved
    by an active-set method, so the result is exact up to linear-algebra
    roundoff rather than iteration tolerance.
    """
    A = cone.signed_rows()
    x = np.asarray(v, dtype=np.float64)
    if A.shape[0] == 0:
        return x.copy()
    mu = _nnls(A.T, -x)
    return x + A.T @ mu


_ENUM_MAX_N = 16
_ENUM_MAX_D = 4


def _max_slack_witness(rows: np.ndarray, signs: np.ndarray):
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


def enumerate_patterns(X: np.ndarray) -> GateSet:
    """Enumerate every activation pattern realised by some direction.

    Walks the cells of the hyperplane arrangement {x_i . v = 0} by extending
    sign prefixes one row at a time and pruning prefixes whose strict system
    is infeasible. Rows equal to zero are always active and excluded from the
    sign enumeration. Guarded to desk scale (n <= 16, d <= 4); each surviving
    pattern carries a max-slack witness generator.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if n > _ENUM_MAX_N or d > _ENUM_MAX_D:
        raise ValueError(
            f"exact enumeration is limited to n <= {_ENUM_MAX_N} and d <= {_ENUM_MAX_D}; "
            f"got n={n}, d={d} (sample patterns instead)"
        )
    nonzero = np.flatnonzero(np.linalg.norm(X, axis=1) > 0.0)
    feas_tol = 1e-9
    prefixes: list[tuple[np.ndarray, np.ndarray]] = [(np.zeros(0), np.zeros(d))]
    for count, row_idx in enumerate(nonzero, start=1):
        rows = X[nonzero[:count]]
        extended: list[tuple[np.ndarray, np.ndarray]] = []
        for signs, witness in prefixes:
            for s in (1.0, -1.0):
                cand = np.append(signs, s)
                # a parent witness already strictly on this side stays valid
                if s * (X[row_idx] @ witness) > feas_tol:
                    extended.append((cand, witness))
                    continue
                w, slack = _max_slack_witness(rows, cand)
                if slack > feas_tol:
                    extended.append((cand, w))
        prefixes = extended
    patterns = []
    for signs, _ in prefixes:
        w, slack = _max_slack_witness(X[nonzero], signs)
        if not slack > feas_tol:  # pragma: no cover - pruned earlier
            continue
        active = np.zeros(n, dtype=bool)
        active[nonzero] = signs > 0
        active[np.setdiff1d(np.arange(n), nonzero)] = True
        got = pattern_of(X, w)
        if not np.array_equal(got, active):  # pragma: no cover - defensive
            continue
        patterns.append(GatePattern(active, w))
    patterns.sort(key=lambda p: p.bitstring(), reverse=True)
    return GateSet(tuple(patterns), seed=None, dedup=True)
