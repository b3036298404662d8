"""Matrix-free linear algebra for the stacked gated operator.

The forward operator maps a stack of per-pattern weight blocks S (B blocks of
shape d x K) to predictions sum_b sign_b * D_b X S_b of shape n x K, without
ever materialising the n x (B*d) block matrix. The relaxed problem uses B = P
blocks with positive signs; the split problem uses B = 2P blocks where block
P + p carries sign -1 (the subtracted copy of pattern p).

The ADMM u-system (F^T F + sigma I) u = rhs has one fixed matrix per run, so
``gram_solver`` builds the (B*d) x (B*d) Gram F^T F once (it does not depend
on K), Cholesky-factors it with the shift, and solves every step exactly by
two triangular solves. Only above FACTOR_LIMIT columns, where the Gram would
not fit in 128 MiB (e.g. d=768 encoders), does it fall back to matrix-free
conjugate gradients preconditioned with a randomised low-rank (Nystrom)
sketch. Also provided: power iteration for largest-eigenvalue estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gates import GateSet

# Largest B*d whose Gram is factored: 4096^2 float64 entries are 128 MiB.
# Wider operators take the matrix-free PCG fallback.
FACTOR_LIMIT = 4096
_GRAM_CHUNK_ROWS = 512


@dataclass(frozen=True)
class GatedOperator:
    """Stacked gated linear map between weight blocks (B,d,K) and logits (n,K)."""

    X: np.ndarray
    masks: np.ndarray          # (B, n) float 0/1
    signs: np.ndarray          # (B,)
    K: int

    # below this many matrix entries the stacked blocks are cached densely,
    # turning apply/adjoint into single GEMMs; larger problems stay matrix-free
    _DENSE_CACHE_LIMIT = 1_000_000

    def __post_init__(self):
        weights = np.ascontiguousarray(self.masks.T * self.signs)
        object.__setattr__(self, "_weights", weights)
        dense = None
        n, d = self.X.shape
        B = self.masks.shape[0]
        if n * B * d <= self._DENSE_CACHE_LIMIT:
            dense = (weights.T[:, :, None] * self.X[None, :, :]).transpose(1, 0, 2)
            dense = np.ascontiguousarray(dense.reshape(n, B * d))
        object.__setattr__(self, "_dense", dense)

    @classmethod
    def relaxed(cls, X: np.ndarray, gates: GateSet, K: int) -> "GatedOperator":
        X = np.asarray(X, dtype=np.float64)
        masks = gates.mask_matrix().astype(np.float64)
        return cls(X, masks, np.ones(gates.P), K)

    @classmethod
    def split(cls, X: np.ndarray, gates: GateSet, K: int) -> "GatedOperator":
        """Two signed copies of every pattern block: +V stack then -W stack."""
        X = np.asarray(X, dtype=np.float64)
        masks = gates.mask_matrix().astype(np.float64)
        masks = np.vstack([masks, masks])
        signs = np.concatenate([np.ones(gates.P), -np.ones(gates.P)])
        return cls(X, masks, signs, K)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def B(self) -> int:
        return self.masks.shape[0]

    @property
    def block_shape(self) -> tuple[int, int, int]:
        return (self.B, self.d, self.K)

    def apply(self, S: np.ndarray) -> np.ndarray:
        """Forward map: row i of the output is sum_b sign_b mask_b[i] (x_i . S_b)."""
        S = np.asarray(S, dtype=np.float64)
        if S.shape != self.block_shape:
            raise ValueError(f"expected blocks of shape {self.block_shape}, got {S.shape}")
        B, d, K = self.block_shape
        if self._dense is not None:
            return self._dense @ S.reshape(B * d, K)
        XS = (self.X @ S.transpose(1, 0, 2).reshape(d, B * K)).reshape(self.n, B, K)
        return np.einsum("nb,nbk->nk", self._weights, XS)

    def adjoint(self, R: np.ndarray) -> np.ndarray:
        """Adjoint map: block b is sign_b X^T D_b R."""
        R = np.asarray(R, dtype=np.float64)
        if R.shape != (self.n, self.K):
            raise ValueError(f"expected residual of shape {(self.n, self.K)}, got {R.shape}")
        if self._dense is not None:
            return (self._dense.T @ R).reshape(self.block_shape)
        RB = self._weights[:, :, None] * R[:, None, :]  # (n, B, K)
        out = self.X.T @ RB.reshape(self.n, self.B * self.K)
        return out.reshape(self.d, self.B, self.K).transpose(1, 0, 2)


@dataclass(frozen=True)
class PcgConfig:
    max_iters: int = 32
    rel_tol: float = 1e-8
    preconditioner: str = "nystrom"  # the only one; the field stays for existing callers
    rank: int = 20

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.preconditioner != "nystrom":
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")


@dataclass
class PcgResult:
    x: np.ndarray
    iters: int
    rel_residual: float
    residual_history: list[float] = field(default_factory=list)


class PcgNumericError(RuntimeError):
    """Non-finite value produced inside the conjugate-gradient loop."""


def pcg_solve(matvec, b: np.ndarray, cfg: PcgConfig, precond=None, x0=None) -> PcgResult:
    """Solve A x = b for a symmetric positive definite operator.

    Minimum-residual flavour of the preconditioned conjugate-direction
    family (conjugate-residual recurrences): each iterate minimises the
    residual over the Krylov subspace, so the residual history is
    non-increasing (in the preconditioner norm when one is supplied; the
    plain Euclidean norm otherwise). One operator application per iteration.

    ``matvec`` and ``precond`` act on arrays of the same shape as ``b``
    (blocks are fine; inner products flatten). Terminates when
    ||Ax - b|| <= rel_tol * ||b|| or after max_iters iterations, whichever
    comes first, and reports both the iteration count and the final relative
    residual.
    """
    b = np.asarray(b, dtype=np.float64)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return PcgResult(np.zeros_like(b), 0, 0.0, [0.0])
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - matvec(x)
    history = [float(np.linalg.norm(r)) / b_norm]
    if history[0] <= cfg.rel_tol:
        return PcgResult(x, 0, history[0], history)
    z = r.copy() if precond is None else precond(r)
    p = z.copy()
    Az = matvec(z)
    Ap = Az.copy()
    zAz = float(np.vdot(z, Az))
    iters = 0
    for k in range(1, cfg.max_iters + 1):
        Mp = Ap if precond is None else precond(Ap)
        denom = float(np.vdot(Ap, Mp))
        if denom <= 0.0 or not np.isfinite(denom):
            raise PcgNumericError(f"breakdown at iteration {k} (denominator {denom})")
        alpha = zAz / denom
        x = x + alpha * p
        r = r - alpha * Ap
        z = z - alpha * Mp
        rel = float(np.linalg.norm(r)) / b_norm
        if not np.isfinite(rel):
            raise PcgNumericError(f"non-finite residual at iteration {k}")
        history.append(rel)
        iters = k
        if rel <= cfg.rel_tol:
            break
        Az = matvec(z)
        zAz_next = float(np.vdot(z, Az))
        beta = zAz_next / zAz
        p = z + beta * p
        Ap = Az + beta * Ap
        zAz = zAz_next
    return PcgResult(x, iters, history[-1], history)


@dataclass(frozen=True)
class NystromPreconditioner:
    """Randomised low-rank approximation A ~ U diag(lam) U^T plus a shift.

    Applies U diag(1/(lam + sigma)) U^T + (I - U U^T) / sigma, which is SPD
    for sigma > 0 and inverts A + sigma I exactly on the captured subspace.
    """

    U: np.ndarray
    lam: np.ndarray
    sigma: float
    shape: tuple

    def __call__(self, r: np.ndarray) -> np.ndarray:
        flat = np.asarray(r, dtype=np.float64).ravel()
        t = self.U.T @ flat
        out = self.U @ (t / (self.lam + self.sigma)) + (flat - self.U @ t) / self.sigma
        return out.reshape(self.shape)


def nystrom_precond(matvec, dim: int, rank: int, sigma: float, seed: int = 0,
                    shape=None) -> NystromPreconditioner:
    """Build a rank-``rank`` Nystrom preconditioner for A + sigma I.

    ``matvec`` applies the unshifted SPD operator A. Gaussian probes are drawn
    deterministically from ``seed``.
    """
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    shape = (dim,) if shape is None else shape
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((dim, rank))
    omega, _ = np.linalg.qr(omega)
    Y = np.empty((dim, rank))
    for j in range(rank):
        Y[:, j] = np.asarray(matvec(omega[:, j].reshape(shape)), dtype=np.float64).ravel()
    # shifted Cholesky for numerical stability of the small factorisation
    nu = float(np.sqrt(dim) * np.finfo(np.float64).eps * np.linalg.norm(Y))
    Y_nu = Y + nu * omega
    core = omega.T @ Y_nu
    core = (core + core.T) / 2.0
    C = np.linalg.cholesky(core + 1e3 * np.finfo(np.float64).eps * np.trace(core) * np.eye(rank))
    B = np.linalg.solve(C, Y_nu.T).T
    U, svals, _ = np.linalg.svd(B, full_matrices=False)
    lam = np.maximum(svals * svals - nu, 0.0)
    return NystromPreconditioner(U, lam, float(sigma), shape)


def fit_gram(op: GatedOperator) -> np.ndarray:
    """Lower triangle of F^T F as a Fortran-order (B*d) x (B*d) array.

    Column b*d + j of F is sign_b mask_b * X[:, j]. Rows of F are formed
    ``_GRAM_CHUNK_ROWS`` at a time and added by one symmetric rank-k update
    (BLAS syrk) into the same array, so neither the n x (B*d) matrix nor a
    second Gram-sized temporary is ever held. The upper triangle stays zero.
    """
    from scipy.linalg.blas import dsyrk

    Bd = op.B * op.d
    gram = np.zeros((Bd, Bd), order="F")
    for lo in range(0, op.n, _GRAM_CHUNK_ROWS):
        hi = lo + _GRAM_CHUNK_ROWS
        rows = (op._weights[lo:hi, :, None] * op.X[lo:hi, None, :]).reshape(-1, Bd)
        # syrk on the Fortran-order transpose view: rows^T rows, with no copy
        gram = dsyrk(1.0, rows.T, beta=1.0, c=gram, trans=0, lower=1, overwrite_c=1)
    return gram


def gram_solver(op: GatedOperator, sigma: float, cfg: PcgConfig, seed: int = 0):
    """Solver for (F^T F + sigma I) u = rhs on (B, d, K) blocks, built once.

    Returns ``solve(rhs, x0) -> (u, inner iterations)``. Up to FACTOR_LIMIT
    columns the shifted Gram is Cholesky-factored here and every solve is
    exact (0 inner iterations; ``cfg``, ``seed`` and ``x0`` are unused).
    Wider operators run matrix-free PCG warm-started at ``x0`` under ``cfg``,
    preconditioned by a rank-``cfg.rank`` Nystrom sketch drawn from ``seed``.
    """
    B, d, K = op.block_shape
    if B * d <= FACTOR_LIMIT:
        from scipy.linalg import cho_factor, cho_solve

        gram = fit_gram(op)
        gram[np.diag_indices(B * d)] += sigma
        factor = cho_factor(gram, lower=True, overwrite_a=True)
        return lambda rhs, x0: (
            cho_solve(factor, rhs.reshape(B * d, K), check_finite=False).reshape(B, d, K), 0)

    def fit(S):
        return op.adjoint(op.apply(S))

    dim = B * d * K
    precond = nystrom_precond(fit, dim, min(cfg.rank, dim), sigma, seed=seed,
                              shape=op.block_shape)

    def solve(rhs, x0):
        sol = pcg_solve(lambda S: fit(S) + sigma * S, rhs, cfg, precond=precond, x0=x0)
        return sol.x, sol.iters

    return solve


def power_iteration(matvec, dim: int, iters: int = 100, seed: int = 0, shape=None) -> float:
    """Largest-eigenvalue estimate of an SPD operator by power iteration."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    shape = (dim,) if shape is None else shape
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = np.asarray(matvec(v.reshape(shape)), dtype=np.float64).ravel()
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        v = w / lam
    return lam
