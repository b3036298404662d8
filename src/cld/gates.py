"""Sampling, geometry, and enumeration of ReLU activation patterns.

A gate is a direction g in feature space; its pattern over a training matrix
X is the boolean vector 1(Xg >= 0) (ties at zero count as active). The rows
fix it, so a ``GateSet`` keeps only the directions and forms the patterns
where they are needed. The set of weights that realises a fixed pattern D is
the polyhedral cone {v : (2D - I) X v >= 0}. ``project_cones`` is the one
exact projector onto such cones: a Lawson-Hanson active set on the cone's
dual nonnegative least-squares problem, written in numpy and run on a whole
batch of columns at once from each column's hinted face of active rows. It
returns every column's final face, which ``cvxprog.project_to_cones`` passes
back as the next ADMM step's hint, so most columns are accepted in one round.

``enumerate_patterns`` lists every pattern of small X by walking sign
prefixes, with no LP. A prefix is kept when a witness direction with slack
> 1e-9 on each of its signed rows is found: its parent's, or the max-margin
direction toward the min-norm point of the convex hull of its signed rows
(Wolfe's min-norm point, one cone projection per prefix, batched per
level). That witness is the pattern's generator. A cell whose margin lies
within a factor sqrt(d) of 1e-9 is the only place where this rule can differ
from a max-slack LP over the unit box. No scipy module is loaded.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linops import feature_array, row_blocks


@dataclass(frozen=True)
class GateSet:
    """Gate directions: row p of the (P, d) ``generators`` is gate p."""

    generators: np.ndarray
    seed: int | None = None
    dedup: bool = True
    shortfall: int = 0

    def __post_init__(self):
        generators = np.array(self.generators, dtype=np.float64)
        if generators.ndim != 2:
            raise ValueError(f"need (P, d) generators, got shape {generators.shape}")
        generators.setflags(write=False)    # heads predict from these; they must not change
        object.__setattr__(self, "generators", generators)

    @property
    def P(self) -> int:
        return len(self.generators)

    def patterns(self, X: np.ndarray) -> np.ndarray:
        """The (P, n) patterns of the gates over the rows of X.

        The one place where patterns are formed: a pass over X that upcasts
        one ``linops.row_blocks`` block at a time (d floats and P products a
        row) and gates it with one GEMM, ``block @ generators.T >= 0``, the
        product gated ``head.predict_batch`` takes, so a pattern has the same
        bits wherever it is formed.
        """
        X = feature_array(X)
        out = np.empty((self.P, len(X)), dtype=bool)
        for rows in row_blocks(len(X), 8 * (X.shape[1] + self.P)):
            out[:, rows] = (np.asarray(X[rows], dtype=np.float64) @ self.generators.T >= 0.0).T
        return out


def pattern_of(X: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Activation pattern 1(Xg >= 0) of one gate; ties at zero are active."""
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
    Each batch of draws (as many as patterns are missing) passes over X once,
    through ``GateSet.patterns``.
    """
    X = feature_array(X)
    if count < 1:
        raise ValueError(f"need at least one pattern, got count={count}")
    gens: list[np.ndarray] = []
    seen: set[bytes] = set()
    budget = 8 * count if dedup else count
    drawn = 0
    while len(gens) < count and drawn < budget:
        batch = [_draw_rng(seed, j).standard_normal(X.shape[1])
                 for j in range(drawn, min(budget, drawn + count - len(gens)))]
        drawn += len(batch)
        if not dedup:
            gens += batch
            continue
        for active, g in zip(GateSet(batch).patterns(X), batch):
            key = np.packbits(active).tobytes()
            if key not in seen:
                seen.add(key)
                gens.append(g)
    shortfall = count - len(gens)
    if shortfall:
        warnings.warn(
            f"found only {len(gens)} distinct activation patterns after "
            f"{budget} draws ({shortfall} short)",
            stacklevel=2,
        )
    return GateSet(np.stack(gens), seed=seed, dedup=dedup, shortfall=shortfall)


def _face_step(G: np.ndarray, A: np.ndarray, z: np.ndarray):
    """Move each point z to the null space of its face rows: A_J (z + A_J^T step) = 0.

    Solves (A_J A_J^T) step = -A_J z for every stacked G = A_J A_J^T, then
    refines the step once from the point it reaches (corrected semi-normal
    equations). The new point is that point plus the small correction, so
    it is about as accurate as a QR projection would make it, however large
    the step. Returns (step, new point, singular): a G that is exactly
    singular is flagged (and overwritten with I), never raised.
    """
    r = -(A @ z[:, :, None])
    singular = np.zeros(len(G), dtype=bool)
    try:
        step = np.linalg.solve(G, r)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(G)[0] == 0.0
        G[singular] = np.eye(G.shape[1])
        step = np.linalg.solve(G, r)
    z = z + (step.transpose(0, 2, 1) @ A)[:, 0]
    fix = -np.linalg.solve(G, A @ z[:, :, None])
    return (step + fix)[:, :, 0], z + (fix.transpose(0, 2, 1) @ A)[:, 0], singular


def project_cones(X: np.ndarray, signs: np.ndarray, x: np.ndarray, faces: np.ndarray):
    """Exact Euclidean projection of every x[c] onto {v : signs[c, i] X[i] . v >= 0}.

    The projection is z = x + A^T mu, where A holds the rows signs[c, i] X[i]
    and mu >= 0 minimises ||A^T mu + x|| (Moreau decomposition against the
    polar cone). That nonnegative least-squares problem is solved by Lawson
    and Hanson's active set on all columns in lockstep, one stacked
    ``_face_step`` per round on every column's face J, padded to the largest
    face. A column whose new mu_J is >= 0 is done when its slack A z is zero
    on J and nonnegative elsewhere, each to 1e-13 |X[i]| (|x| + sum_J mu_j
    |X[j]|), about 450 eps of the terms summed; else its most violated row
    joins J. A column with a negative entry steps from its mu toward the new
    one until an entry reaches zero, and drops the rows at zero. The first
    round starts from the hinted ``faces`` (c, n) instead of a feasible mu
    and keeps the rows with mu_J > 0; a hint of more than d rows, or with a
    singular system or two parallel rows, starts from the empty face. A zero
    sign or a zero row of X leaves a row out.

    Returns (projections, faces, misses): the final faces, on which a second
    call accepts every column in its first round, and the mask of columns
    whose hint failed that round. Raises ``RuntimeError`` after 3 n + 3
    rounds rather than return a point that fails the check.
    """
    X = np.asarray(X, dtype=np.float64)
    signs = np.asarray(signs, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n, d = X.shape
    weight = np.abs(signs) * np.linalg.norm(X, axis=1)
    face = faces & (weight > 0.0)
    missed = face.sum(axis=1) > d           # independent rows number at most d
    face[missed] = False
    z_out, face_out = x.copy(), face.copy()
    live = np.arange(len(x))
    lx, lz, ls, lw, mu = x, x.copy(), signs, weight, np.zeros(signs.shape)
    lxn = np.linalg.norm(x, axis=1)
    for rnd in range(3 * n + 3):
        if not live.size:
            return z_out, face_out, missed
        r, col = np.nonzero(face)
        pos = np.cumsum(face, axis=1)[r, col] - 1       # slot of each face row
        m = face.sum(axis=1)
        M = int(m.max())
        valid = np.arange(M) < m[:, None]
        A = np.zeros((live.size, M, d))
        A[r, pos] = ls[r, col, None] * X[col]
        G = A @ A.transpose(0, 2, 1)
        G.reshape(len(G), -1)[:, ::M + 1] += ~valid     # padded slots solve to 0
        mu_J = np.zeros((live.size, M))
        mu_J[r, pos] = mu[r, col]
        step, z_J, bad = _face_step(G, A, lz)
        if rnd == 0:    # a hint may also hold two parallel rows, such as a duplicate
            diag = np.diagonal(G, axis1=1, axis2=2)
            cos2 = G * G >= (1.0 - 1e-12) * diag[:, :, None] * diag[:, None, :]
            bad |= np.count_nonzero(cos2, axis=(1, 2)) > M
        s = mu_J + step
        if bad.any():
            valid[bad], face[bad] = False, False
        below = valid & (s < 0.0)
        neg = below.any(axis=1)
        new = s
        if rnd > 0 and neg.any():
            ratio = np.divide(mu_J, mu_J - s, out=np.full(s.shape, np.inf), where=below)
            block = ratio.argmin(axis=1)
            alpha = np.where(neg, ratio[np.arange(len(s)), block], 0.0)[:, None]
            new = np.where(neg[:, None], mu_J + alpha * (s - mu_J), s)
            new[neg, block[neg]] = 0.0      # the blocking row leaves exactly
        new = np.maximum(new, 0.0) * valid
        # a column that kept its face takes the refined point; the rest restart from mu
        lz, fresh = z_J, neg | bad
        if fresh.any():
            lz[fresh] = lx[fresh] + (new[fresh, None, :] @ A[fresh])[:, 0]
        slack = ls * (lz @ X.T)
        mu = np.zeros(mu.shape)
        mu[r, col] = new[r, pos]
        # ~450 eps of the terms summed into each slack
        tol = 1e-13 * (lxn + np.sum(mu * lw, axis=1))[:, None] * lw
        solved = ~neg & np.all(~face | (np.abs(slack) <= tol), axis=1)
        viol = ~face & (slack < -tol)
        done = solved & ~viol.any(axis=1)
        add = solved & ~done
        face = np.zeros(face.shape, dtype=bool)
        face[r, col] = (valid & ~(neg[:, None] & (new <= 0.0)))[r, pos]
        worst = np.argmin(np.where(viol, slack, np.inf), axis=1)
        face[add, worst[add]] = True
        if rnd == 0:
            missed[live[~done | bad]] = True
        if done.any():
            z_out[live[done]], face_out[live[done]] = lz[done], face[done]
            go = ~done
            live, lx, lxn, lz, ls, lw, mu, face = (
                live[go], lx[go], lxn[go], lz[go], ls[go], lw[go], mu[go], face[go])
    if live.size:
        raise RuntimeError(f"cone projection did not settle in {3 * n + 3} rounds "
                           f"({live.size} columns left)")
    return z_out, face_out, missed


_ENUM_MAX_N = 16
_ENUM_MAX_D = 4


def _margin_screen(A: np.ndarray, signs: np.ndarray, feas_tol: float):
    """Verified witnesses of the strict systems {s_i a_i . v > 0}, one per sign row.

    By Gordan's alternative a system is feasible iff the min-norm point of
    conv{s_i a_i} is nonzero. With y >= 0 minimising ||sum_i y_i s_i a_i||^2
    + (1^T y - 1)^2 and p = sum_i y_i s_i a_i, that point is p / 1^T y, and
    p / ||p||_inf lies in the unit box with slack at least the Euclidean max
    margin on every row. The least-squares problem projects (0, -1) onto the
    cone {(v, t) : s_i a_i . v + t >= 0}, with rows s_i (a_i, s_i) taken from
    (a_i, 1) and (a_i, -1) (the other copy's sign zero), so one
    ``project_cones`` call serves every sign row. Returns (witnesses, ok), ok
    where a witness has slack > ``feas_tol`` on every row: a kept witness is
    checked directly and does not rest on the projection being exact.
    """
    m, d = A.shape
    rows = np.vstack([np.hstack([A, np.ones((m, 1))]), np.hstack([A, -np.ones((m, 1))])])
    pooled = np.hstack([np.where(signs > 0, 1.0, 0.0), np.where(signs < 0, -1.0, 0.0)])
    target = np.zeros((len(signs), d + 1))
    target[:, -1] = -1.0
    p = project_cones(rows, pooled, target, np.zeros(pooled.shape, dtype=bool))[0][:, :d]
    scale = np.abs(p).max(axis=1, initial=0.0)
    ok = scale > 0.0
    witness = np.divide(p, scale[:, None], out=np.zeros_like(p), where=ok[:, None])
    ok &= (signs * (witness @ A.T)).min(axis=1, initial=np.inf) > feas_tol
    return witness, ok


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
    prefixes, witnesses = np.zeros((1, 0)), np.zeros((1, d))
    for count, row_idx in enumerate(nonzero, start=1):
        # every prefix extends by + then -, in order
        signs = np.hstack([np.repeat(prefixes, 2, axis=0),
                           np.tile([[1.0], [-1.0]], (len(prefixes), 1))])
        witnesses = np.repeat(witnesses, 2, axis=0)
        # a parent witness already strictly on this side stays valid
        keep = signs[:, -1] * (witnesses @ X[row_idx]) > feas_tol
        screen = np.flatnonzero(~keep)
        if screen.size:
            w, ok = _margin_screen(X[nonzero[:count]], signs[screen], feas_tol)
            witnesses[screen[ok]] = w[ok]
            keep[screen[ok]] = True
        prefixes, witnesses = signs[keep], witnesses[keep]
    active = np.ones((len(prefixes), n), dtype=bool)
    active[:, nonzero] = prefixes > 0
    order = np.lexsort(active.T[::-1])[::-1]     # descending bitstrings
    gates = GateSet(witnesses[order], seed=None, dedup=True)
    wrong = np.flatnonzero(np.any(gates.patterns(X) != active[order], axis=1))
    if wrong.size:
        raise RuntimeError(f"witness {gates.generators[wrong[0]]} does not reproduce its pattern")
    return gates
