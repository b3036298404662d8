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
Because the masks are 0/1, F^T F is summed from the d x d Grams of classes
of rows that share their bits on a few gates, never from the rows of F.
The factor is a left-looking blocked Cholesky of numpy GEMMs that write in
place (``_cholesky_solver``), so training in relaxed mode loads no scipy
module. Only the lower block rows of the Gram are stored, in one flat buffer,
and the factor overwrites them: about 4 m^2 + 4 * 128 * m bytes for
m = min(n, B*d), 260 MB at m = 8,000; an input whose packed Gram does not
fit in memory fails with MemoryError. With L L^T = F^T F + sigma I the
primal side's fit is 1/2 (||L^T S||^2 - sigma ||S||^2) - <S, F^T Y> +
1/2 ||Y||^2, one pass over L; the kernel side forms it by the apply. Also
provided: power iteration for largest-eigenvalue estimates (FISTA oracle).

The operator keeps no weight matrix: each pass forms the signed 0/1 weights
of its rows from the bool masks. Every pass over the rows of X, of a feature
file or of a served batch goes ``row_blocks`` at a time, each block within
``ROW_BLOCK_BYTES`` of float64 scratch (a quarter of one block row of the
factor, 128 m floats, at m = 2,048). Float32 rows stay float32
(``feature_array``); a pass upcasts each of their blocks to float64 first,
so every result has the bits it has on the float64 upcast of the rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .gates import GateSet

_CHOLESKY_BLOCK = 128
ROW_BLOCK_BYTES = 2 ** 19   # float64 scratch of a pass over rows, per block of rows


def row_blocks(n: int, row_bytes: int) -> list[slice]:
    """Slices covering rows 0:n, each as many rows of ``row_bytes`` as fit
    ``ROW_BLOCK_BYTES`` (at least one; rows of no bytes all in one block)."""
    step = max(1, ROW_BLOCK_BYTES // row_bytes) if row_bytes else max(1, n)
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def feature_array(a) -> np.ndarray:
    """``a`` as feature rows: float32 stays float32, anything else becomes float64 (uncopied)."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else np.asarray(a, dtype=np.float64)


@dataclass(frozen=True)
class GatedOperator:
    """Stacked gated linear map between weight blocks (B,d,K) and logits (n,K)."""

    X: np.ndarray              # (n, d) float32 or float64 (``feature_array``)
    masks: np.ndarray          # (B, n) bool
    signs: np.ndarray          # (B,)
    K: int

    # below this many matrix entries the stacked blocks are cached densely,
    # turning apply/adjoint into single GEMMs; larger problems stay matrix-free
    _DENSE_CACHE_LIMIT = 1_000_000

    def __post_init__(self):
        object.__setattr__(self, "X", feature_array(self.X))
        dense = None
        n, d = self.X.shape
        B = self.masks.shape[0]
        if n * B * d <= self._DENSE_CACHE_LIMIT:
            dense = np.empty((n, B * d))
            for rows in row_blocks(n, 8 * B * d):
                X = np.asarray(self.X[rows], dtype=np.float64)
                dense[rows] = (self.weights(rows)[:, :, None] * X[:, None, :]).reshape(-1, B * d)
        object.__setattr__(self, "_dense", dense)

    @classmethod
    def relaxed(cls, X: np.ndarray, gates: GateSet, K: int) -> "GatedOperator":
        return cls(X, gates.active, np.ones(gates.P), K)

    @classmethod
    def split(cls, X: np.ndarray, gates: GateSet, K: int) -> "GatedOperator":
        """Two signed copies of every pattern block: +V stack then -W stack."""
        masks = np.vstack([gates.active, gates.active])
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
        S = S.transpose(1, 0, 2).reshape(d, B * K)
        out = np.empty((self.n, K))
        for rows in row_blocks(self.n, 8 * B * (K + 1)):   # X S is freed with the statement
            np.matmul(self.weights(rows)[:, None, :],
                      (np.asarray(self.X[rows], dtype=np.float64) @ S).reshape(-1, B, K),
                      out=out[rows, None, :])
        return out

    def adjoint(self, R: np.ndarray) -> np.ndarray:
        """Adjoint map: block b is sign_b X^T D_b R."""
        R = np.asarray(R, dtype=np.float64)
        if R.shape != (self.n, self.K):
            raise ValueError(f"expected residual of shape {(self.n, self.K)}, got {R.shape}")
        if self._dense is not None:
            return (self._dense.T @ R).reshape(self.block_shape)
        out = np.zeros((self.d, self.B * self.K))
        for rows in row_blocks(self.n, 8 * self.B * (self.K + 1)):
            out += np.asarray(self.X[rows], dtype=np.float64).T @ (
                self.weights(rows)[:, :, None] * R[rows, None]).reshape(-1, self.B * self.K)
        return out.reshape(self.d, self.B, self.K).transpose(1, 0, 2)

    def weights(self, rows=slice(None)) -> np.ndarray:
        """sign_b mask_b[i] of the given rows, a C-ordered (rows, B) float64 array."""
        return np.ascontiguousarray(self.masks[:, rows].T) * self.signs


@dataclass(frozen=True)
class PcgConfig:
    """Ignored: the u-solve is always exact. Kept so existing callers still construct it."""

    max_iters: int = 32
    rel_tol: float = 1e-8
    preconditioner: str | None = None
    rank: int = 20


def gram_side(op: GatedOperator) -> str:
    """``"primal"`` when the (B*d)^2 F^T F is the smaller Gram, else ``"kernel"`` (n x n F F^T)."""
    return "primal" if op.B * op.d <= op.n else "kernel"


def _block_rows(m: int) -> list[np.ndarray]:
    """Block row i of an m x m lower triangle, the (e - k, e) slab [k:e, :e] with
    k = i * ``_CHOLESKY_BLOCK``, e = min(k + block, m), as views of one zeroed buffer."""
    spans = [(k, min(k + _CHOLESKY_BLOCK, m)) for k in range(0, m, _CHOLESKY_BLOCK)]
    flat = np.zeros(sum((e - k) * e for k, e in spans))
    starts = np.cumsum([0] + [(e - k) * e for k, e in spans])
    return [flat[o:o + (e - k) * e].reshape(e - k, e) for o, (k, e) in zip(starts, spans)]


def _span(row: np.ndarray) -> tuple[int, int]:
    """The rows k:e of the Gram that a block row of shape (e - k, e) holds."""
    return row.shape[1] - len(row), row.shape[1]


def fit_gram(op: GatedOperator) -> list[np.ndarray]:
    """Lower block rows of the smaller Gram of F (``_block_rows``).

    Column b*d + j of F is sign_b mask_b * X[:, j]. When B*d <= n this is the
    (B*d) x (B*d) F^T F, built from class sums (``_primal_gram``). When
    B*d > n it is the n x n kernel F F^T = (X X^T) o (W W^T) with W =
    ``op.weights()``, formed one block row at a time: rows k:e get
    (X_r X_c^T) o (W_r W_c^T) over columns 0:e. Nothing above the diagonal
    block of a row is stored; the Cholesky factor in ``gram_solver`` reads
    only the lower triangle. The kernel side upcasts a float32 X whole: each
    block row is one GEMM over rows 0:e, which split in blocks rounds otherwise.
    """
    if gram_side(op) == "primal":
        return _primal_gram(op)
    X, W = np.asarray(op.X, dtype=np.float64), op.weights()   # each GEMM reads rows 0:e
    rows = _block_rows(op.n)
    for row in rows:
        k, e = _span(row)
        np.matmul(X[k:e], X[:e].T, out=row)
        row *= W[k:e] @ W[:e].T
    return rows


def _group_size(n: int, d: int, B: int) -> int:
    """Largest g in 1..B with 4^g <= min(n / 32, 512 B / d, 2^18 / d^2).

    That leaves about 32 rows per class of a group pair, and keeps the 4^g
    class Grams (4^g d^2 floats) within 512 rows of F and, past g = 1, 2 MiB.
    """
    g = 1
    while g < B and 4 ** (g + 1) <= min(n / 32, 512 * B / d, 2 ** 18 / d ** 2):
        g += 1
    return g


def _primal_gram(op: GatedOperator) -> list[np.ndarray]:
    """F^T F summed over classes of rows that share their gate bits.

    Block (b, b') of F^T F is s_b s_b' sum_i m_b(i) m_b'(i) x_i x_i^T. The
    gates are taken in groups of g (``_group_size``). For each pair of
    groups, a group paired with itself included, the rows are sorted by
    their mask bits in the two groups; each nonempty class c gives
    C_c = X_c^T X_c, gathered one row block at a time, and every block of
    the pair is s_b s_b' times the sum of C_c over the classes where both
    bits are set: one GEMM of a signed 0/1 selection matrix with the stacked
    C. That is about n d^2 multiply-adds per group pair instead of
    n (B d)^2 / 2 for a syrk over the rows of F.
    Each pair's tile is then copied into the block rows it crosses.
    """
    X, n, d, B = op.X, op.n, op.d, op.B
    g = _group_size(n, d, B)
    starts = range(0, B, g)
    sig_type = np.min_scalar_type(4 ** g - 1)   # the bits of two groups
    group_sig = np.zeros((len(starts), n), dtype=sig_type)
    for b in range(B):
        group_sig[b // g] |= op.masks[b].astype(sig_type) << (b % g)
    C = np.empty((4 ** g, d, d))
    gathers = row_blocks(n, 8 * d)   # a class's rows are gathered one block at a time
    rows = _block_rows(B * d)
    for ia, a0 in enumerate(starts):
        ga = min(g, B - a0)
        for ib, b0 in enumerate(starts[:ia + 1]):
            gb = min(g, B - b0)
            # a group paired with itself repeats its bits: only 2^g classes fill
            sig = group_sig[ia] | group_sig[ib] << ga
            bits = (np.arange(1 << (ga + gb))[:, None] >> np.arange(ga + gb)) & 1
            select = (bits[:, :ga, None] * bits[:, None, ga:]).reshape(-1, ga * gb) \
                * np.outer(op.signs[a0:a0 + ga], op.signs[b0:b0 + gb]).ravel()
            counts = np.bincount(sig, minlength=len(bits))
            used = np.flatnonzero((counts > 0) & select.any(axis=1))
            order = np.argsort(sig, kind="stable")
            ends = np.cumsum(counts)
            for j, c in enumerate(used):
                members = order[ends[c] - counts[c]:ends[c]]
                for block in gathers:
                    if block.start >= len(members):
                        break
                    # a slice of members ends with the class
                    part = np.asarray(X[members[block]], dtype=np.float64)
                    if block.start == 0:
                        np.matmul(part.T, part, out=C[j])
                    else:
                        C[j] += part.T @ part
                    del part   # freed before the next block is gathered
            blocks = select[used].T @ C[:len(used)].reshape(len(used), d * d)
            tile = blocks.reshape(ga, gb, d, d).transpose(0, 2, 1, 3).reshape(ga * d, gb * d)
            top, left = a0 * d, b0 * d
            for row in rows[top // _CHOLESKY_BLOCK:(top + ga * d - 1) // _CHOLESKY_BLOCK + 1]:
                k, e = _span(row)
                lo, hi = max(top, k), min(top + ga * d, e)
                width = min(gb * d, e - left)   # a group paired with itself ends at column e
                row[lo - k:hi - k, left:left + width] = tile[lo - top:hi - top, :width]
    return rows


def _cholesky_solver(rows: list[np.ndarray]):
    """Factor the SPD Gram held in ``rows`` as L L^T in place; return ``solve``
    and ``sq_norm``, b (m, K).

    ``solve(b)`` is x with gram x = b, ``sq_norm(b)`` is ||L^T b||^2.
    Left-looking blocked Cholesky (Golub and Van Loan, ch. 4) on the block
    rows of ``_block_rows``: block row j subtracts, one block column c < j at
    a time, its product with row c of L and multiplies by c's diagonal
    inverse, then updates, factors (``np.linalg.cholesky``) and inverts its
    diagonal block. Each GEMM writes one block in place, so no panel is
    copied; only the lower triangle is read and L overwrites it. A solve is a
    blocked forward and back substitution on the transposed right-hand side,
    all GEMMs; ``sq_norm`` is one pass over the block rows of L.
    """
    spans = [_span(row) for row in rows]
    inverses = []
    for row, (k, _) in zip(rows, spans):
        for done, (kc, ec), inverse in zip(rows, spans, inverses):
            row[:, kc:ec] -= row[:, :kc] @ done[:, :kc].T
            row[:, kc:ec] = row[:, kc:ec] @ inverse.T
        row[:, k:] -= row[:, :k] @ row[:, :k].T
        row[:, k:] = np.linalg.cholesky(row[:, k:])
        inverses.append(np.linalg.inv(row[:, k:]))

    def solve(b):
        y = np.array(b.T, order="C")
        for row, (k, e), inverse in zip(rows, spans, inverses):      # L y = b
            y[:, k:e] = (y[:, k:e] - y[:, :k] @ row[:, :k].T) @ inverse.T
        for row, (k, e), inverse in zip(rows[::-1], spans[::-1], inverses[::-1]):   # L^T x = y
            y[:, k:e] = y[:, k:e] @ inverse
            y[:, :k] -= y[:, k:e] @ row[:, :k]
        return y.T

    def sq_norm(b):
        bt = np.array(b.T, order="C")
        y = np.zeros_like(bt)                        # (L^T b)^T, one block row of L at a time
        for row, (k, e) in zip(rows, spans):
            y[:, :e] += bt[:, k:e] @ row
        return float(np.vdot(y, y))

    return solve, sq_norm


def gram_solver(op: GatedOperator, sigma: float):
    """``(solve, fit, stats)`` for (F^T F + sigma I) u = rhs on (B, d, K) blocks.

    ``solve(rhs)`` is the exact u, ``fit(S, Y, fty)`` is 1/2 ||F S - Y||^2
    with ``fty`` = F^T Y; ``stats`` has the ``bytes`` of the packed block rows
    and the ``gram_seconds`` and ``factor_seconds`` spent forming and
    factoring, once, the shifted smaller Gram (``fit_gram``). With B*d <= n
    every solve is two triangular solves and the fit is read off the factor.
    With B*d > n it uses the matrix-inversion lemma on the n x n kernel:
    z = (sigma I + F F^T)^-1 F rhs, then u = (rhs - F^T z) / sigma, i.e. one
    apply, one pair of triangular solves and one adjoint; the fit is one apply.
    """
    B, d, K = op.block_shape
    tick = time.perf_counter()
    rows = fit_gram(op)
    for row in rows:
        np.einsum("ii->i", row[:, -len(row):])[...] += sigma   # a writable view of the diagonal
    formed = time.perf_counter()
    solve, sq_norm = _cholesky_solver(rows)
    stats = {"bytes": sum(row.nbytes for row in rows), "gram_seconds": formed - tick,
             "factor_seconds": time.perf_counter() - formed}
    if gram_side(op) == "primal":
        def fit(S, Y, fty):
            S = S.reshape(B * d, K)
            quad = sq_norm(S) - sigma * float(np.vdot(S, S))   # <S, F^T F S>
            return 0.5 * quad - float(np.vdot(S, fty)) + 0.5 * float(np.vdot(Y, Y))

        return lambda rhs: solve(rhs.reshape(B * d, K)).reshape(B, d, K), fit, stats

    def fit(S, Y, fty):
        diff = op.apply(S) - Y
        return 0.5 * float(np.vdot(diff, diff))

    return lambda rhs: (rhs - op.adjoint(solve(op.apply(rhs)))) / sigma, fit, stats


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
