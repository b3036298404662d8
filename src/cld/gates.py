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
prefixes, with no LP. A prefix is kept when a witness direction with slack
> 1e-9 on each of its signed rows is found: its parent's, or the max-margin
direction toward the min-norm point of the convex hull of its signed rows
(one small NNLS, Wolfe's min-norm point). That witness is the pattern's
generator. A cell whose margin lies within a factor sqrt(d) of 1e-9 is the
only place where this rule can differ from a max-slack LP over the unit box.
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


def _margin_screen(A: np.ndarray, feas_tol: float) -> np.ndarray | None:
    """A verified witness of the strict system {a_i . v > 0}, or None.

    By Gordan's alternative the system is feasible iff the min-norm point of
    conv{a_i} is nonzero. With y >= 0 minimising ||A^T y||^2 + (1^T y - 1)^2
    (one NNLS) and p = A^T y, that point is p / 1^T y, and p / ||p||_inf
    lies in the unit box with slack at least the Euclidean max margin on
    every row. Returns that witness when its slack exceeds ``feas_tol`` on
    every row and None otherwise, so a kept witness is checked directly and
    does not rest on the NNLS being solved exactly. Raises ``RuntimeError``
    if the NNLS hits scipy's iteration cap, as ``exact_cone_project`` does.
    """
    from scipy.optimize import nnls

    m, d = A.shape
    target = np.zeros(d + 1)
    target[-1] = 1.0
    y, _ = nnls(np.vstack([A.T, np.ones(m)]), target)
    p = A.T @ y
    scale = np.abs(p).max()
    if not scale > 0.0:
        return None
    witness = p / scale
    return witness if (A @ witness).min() > feas_tol else None


def enumerate_patterns(X: np.ndarray) -> GateSet:
    """Enumerate every activation pattern realised by some direction.

    Walks the cells of the hyperplane arrangement {x_i . v = 0} by extending
    sign prefixes one row at a time. A prefix survives when its parent's
    witness already lies strictly on the new row's side, or when
    ``_margin_screen`` returns a witness for it; the surviving witness has
    slack > 1e-9 on every row so far and becomes the pattern's generator.
    So a cell is kept exactly when the walk finds a verified witness with
    slack > 1e-9 inside the unit box. (A max-slack LP over the box would
    keep it when its optimum exceeds 1e-9; the two rules can disagree only
    on cells whose margin lies within a factor sqrt(d) of 1e-9.) Rows equal
    to zero are always active and excluded from the sign enumeration.
    Guarded to desk scale (n <= 16, d <= 4).
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
                w = _margin_screen(cand[:, None] * rows, feas_tol)
                if w is not None:
                    extended.append((cand, w))
        prefixes = extended
    patterns = []
    for signs, w in prefixes:
        active = np.ones(n, dtype=bool)
        active[nonzero] = signs > 0
        if not np.array_equal(pattern_of(X, w), active):
            raise RuntimeError(f"witness {w} does not reproduce its pattern")
        patterns.append(GatePattern(active, w))
    patterns.sort(key=lambda p: p.bitstring(), reverse=True)
    return GateSet(tuple(patterns), seed=None, dedup=True)
