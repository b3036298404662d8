"""Matrix-free linear algebra for the stacked gated operator.

The forward operator maps a stack of per-pattern weight blocks S (B blocks of
shape d x K) to predictions sum_b sign_b * D_b X S_b of shape n x K, without
ever materialising the n x (B*d) block matrix. The relaxed problem uses B = P
blocks with positive signs; the split problem uses B = 2P blocks where block
P + p carries sign -1 (the subtracted copy of pattern p).

The ADMM u-system (F^T F + sigma I) u = rhs has one fixed matrix per run, so
``gram_solver`` builds the smaller of the two Grams once (it does not depend
on K) and Cholesky-factors it with the shift: the (B*d) x (B*d) F^T F when
B*d <= n, else the n x n kernel F F^T, used through the matrix-inversion
lemma (e.g. d=768 encoders with few rows). Every step is then solved exactly.
The factor takes 8 * min(n, B*d)^2 bytes; an input whose smaller Gram does
not fit in memory fails with MemoryError. Also provided: power iteration for
largest-eigenvalue estimates (used by the FISTA oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import GateSet

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
    """Ignored: the u-solve is always exact. Kept so existing callers still construct it."""

    max_iters: int = 32
    rel_tol: float = 1e-8
    preconditioner: str | None = None
    rank: int = 20


def fit_gram(op: GatedOperator) -> np.ndarray:
    """Lower triangle of the smaller Gram of F, as a Fortran-order array.

    Column b*d + j of F is sign_b mask_b * X[:, j]. When B*d <= n this is the
    (B*d) x (B*d) F^T F: rows of F are formed ``_GRAM_CHUNK_ROWS`` at a time
    and added by one symmetric rank-k update (BLAS syrk) into the same array,
    so the n x (B*d) matrix is never held. When B*d > n it is the n x n
    kernel F F^T = (X X^T) o (W W^T) with W = ``op._weights``: one syrk forms
    X X^T, and each block of its columns is scaled in place by the matching
    block of W W^T, so no second n x n array is held. Either way no second
    Gram-sized temporary exists, and the upper triangle stays zero.
    """
    from scipy.linalg.blas import dsyrk

    n, Bd = op.n, op.B * op.d
    if Bd > n:
        gram = dsyrk(1.0, op.X.T, trans=1, lower=1)
        W = op._weights
        for lo in range(0, n, _GRAM_CHUNK_ROWS):
            hi = lo + _GRAM_CHUNK_ROWS
            gram[lo:, lo:hi] *= W[lo:] @ W[lo:hi].T
        return gram
    gram = np.zeros((Bd, Bd), order="F")
    for lo in range(0, n, _GRAM_CHUNK_ROWS):
        hi = lo + _GRAM_CHUNK_ROWS
        rows = (op._weights[lo:hi, :, None] * op.X[lo:hi, None, :]).reshape(-1, Bd)
        # syrk on the Fortran-order transpose view: rows^T rows, with no copy
        gram = dsyrk(1.0, rows.T, beta=1.0, c=gram, trans=0, lower=1, overwrite_c=1)
    return gram


def gram_solver(op: GatedOperator, sigma: float):
    """Exact solver ``solve(rhs) -> u`` for (F^T F + sigma I) u = rhs on (B, d, K) blocks.

    The shifted smaller Gram (``fit_gram``) is Cholesky-factored here, once.
    With B*d <= n every solve is two triangular solves on F^T F + sigma I.
    With B*d > n it uses the matrix-inversion lemma on the n x n kernel:
    z = (sigma I + F F^T)^-1 F rhs, then u = (rhs - F^T z) / sigma, i.e. one
    apply, one pair of triangular solves and one adjoint.
    """
    from scipy.linalg import cho_factor, cho_solve

    B, d, K = op.block_shape
    gram = fit_gram(op)
    gram[np.diag_indices(gram.shape[0])] += sigma
    factor = cho_factor(gram, lower=True, overwrite_a=True)
    if B * d <= op.n:
        return lambda rhs: cho_solve(factor, rhs.reshape(B * d, K),
                                     check_finite=False).reshape(B, d, K)
    return lambda rhs: (rhs - op.adjoint(
        cho_solve(factor, op.apply(rhs), check_finite=False))) / sigma


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
