"""Sampling, geometry, and enumeration of ReLU activation patterns.

A gate is a direction g in feature space; its pattern over a training matrix
X is the boolean vector 1(Xg >= 0) (ties at zero count as active). The set of
weights that realises a fixed pattern D is the polyhedral cone
{v : (2D - I) X v >= 0}. ``exact_cone_project`` is the one exact projector
onto it: it solves the cone's dual nonnegative least-squares problem with
``scipy.optimize.nnls`` (Lawson-Hanson) and returns the NNLS support, the
face of active rows, with the projection. ``cvxprog.project_to_cones`` reuses
that face across ADMM steps and calls this kernel only where it fails.

``enumerate_patterns`` lists every pattern of small X by walking sign
prefixes. Each prefix's strict feasibility is decided without an LP by its
max margin, the distance from the origin to the convex hull of its signed
rows (one small NNLS, Wolfe's min-norm point); only the rare prefix whose
margin falls between the two bounds of the box LP runs that LP. Every
surviving pattern then takes its generator from one max-slack LP.
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
        # zero rows constrain nothing; _index maps the rest back to rows of X
        index = np.flatnonzero(np.einsum("ij,ij->i", rows, rows) > 0.0)
        rows = rows[index]
        rows.setflags(write=False)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_index", index)

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


def exact_cone_project(cone: ConeSpec, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact Euclidean projection onto the pattern cone via its dual program.

    The projection of x onto {v : a_i . v >= 0} is x + A^T mu* where mu*
    minimises ||A^T mu + x|| over mu >= 0 (Moreau decomposition against the
    polar cone). The dual is a small nonnegative least-squares problem solved
    by ``scipy.optimize.nnls`` (Lawson-Hanson active set), so the result is
    exact up to linear-algebra roundoff rather than iteration tolerance.
    Returns (projection, face), where the boolean face over the rows of X is
    the support of mu*. Raises ``RuntimeError`` if the active-set method hits
    scipy's iteration cap rather than return a point that may not be the
    projection.
    """
    from scipy.optimize import nnls

    A = cone.signed_rows()
    x = np.asarray(v, dtype=np.float64)
    face = np.zeros(cone.pattern.active.size, dtype=bool)
    if A.shape[0] == 0:
        return x.copy(), face
    mu, _ = nnls(A.T, -x)
    face[cone._index[mu > 0.0]] = True
    return x + A.T @ mu, face


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


def _margin_screen(A: np.ndarray, feas_tol: float):
    """Decide strict feasibility of {a_i . v > 0} without an LP, if possible.

    By Gordan's alternative the system is feasible iff the min-norm point of
    conv{a_i} is nonzero. With y >= 0 minimising ||A^T y||^2 + (1^T y - 1)^2
    (one NNLS), p = A^T y and s = 1^T y, that point is p / s and its norm
    gamma = ||p|| / s is the Euclidean max margin. The box LP of
    ``_max_slack_witness`` holds the unit ball and lies in the ball of radius
    sqrt(d), so its optimum obeys min(1, gamma) <= t* <= sqrt(d) gamma.

    Returns (True, p / ||p||_inf) when that witness has slack > ``feas_tol``
    on every row (it has slack >= gamma), (False, None) when sqrt(d) gamma
    <= ``feas_tol``, and (None, None) when only the LP can tell. Any y >= 0
    gives an upper bound on the true margin and the witness is checked
    directly, so neither verdict rests on the NNLS being solved exactly.
    """
    from scipy.optimize import nnls

    m, d = A.shape
    target = np.zeros(d + 1)
    target[-1] = 1.0
    try:
        y, _ = nnls(np.vstack([A.T, np.ones(m)]), target)
    except RuntimeError:  # iteration cap: leave it to the LP
        return None, None
    s = float(y.sum())
    if not s > 0.0:
        return None, None
    p = A.T @ y
    if np.sqrt(d) * np.linalg.norm(p) <= feas_tol * s:
        return False, None
    witness = p / np.abs(p).max()
    if (A @ witness).min() > feas_tol:
        return True, witness
    return None, None


def enumerate_patterns(X: np.ndarray) -> GateSet:
    """Enumerate every activation pattern realised by some direction.

    Walks the cells of the hyperplane arrangement {x_i . v = 0} by extending
    sign prefixes one row at a time and pruning prefixes whose strict system
    is infeasible. A prefix whose parent witness already lies strictly on the
    new row's side is kept as is; any other is decided by ``_margin_screen``,
    and by the max-slack LP only when the screen cannot tell. Rows equal to
    zero are always active and excluded from the sign enumeration. Guarded to
    desk scale (n <= 16, d <= 4); each surviving pattern gets its generator
    from one max-slack LP over all its rows, so the walk makes one LP per
    pattern plus one per undecided prefix.
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
                feasible, w = _margin_screen(cand[:, None] * rows, feas_tol)
                if feasible is None:
                    w, slack = _max_slack_witness(rows, cand)
                    feasible = slack > feas_tol
                if feasible:
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
