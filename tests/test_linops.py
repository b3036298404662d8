from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cld.gates import GateSet, enumerate_patterns, sample_gates
import cld.linops
from cld.linops import GatedOperator, gram_solver, power_iteration

from conftest import random_problem, traced_peak


def all_on_gates(d, count=1):
    return GateSet(np.zeros((count, d)))   # 0 >= 0: every row is active


def mask_operator(X, active, K, split=False):
    """The relaxed (or split) operator of arbitrary (P, n) pattern rows ``active``."""
    P = len(active)
    if split:
        return GatedOperator(X, np.vstack([active, active]), np.repeat([1.0, -1.0], P), K)
    return GatedOperator(X, active, np.ones(P), K)


def dense_blocks(op):
    return np.hstack([op.signs[b] * op.masks[b][:, None] * op.X for b in range(op.B)])


class TestGatedOperator:
    def test_single_ungated_block_is_plain_matmul(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        op = GatedOperator.relaxed(X, all_on_gates(3), K=2)
        S = rng.standard_normal((1, 3, 2))
        np.testing.assert_allclose(op.apply(S), X @ S[0])

    def test_zero_blocks_map_to_zero(self):
        X = np.random.default_rng(1).standard_normal((5, 2))
        op = GatedOperator.relaxed(X, sample_gates(X, 3, seed=1), K=2)
        np.testing.assert_array_equal(op.apply(np.zeros(op.block_shape)), np.zeros((5, 2)))

    def test_matches_dense_construction(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((7, 3))
        op = GatedOperator.relaxed(X, sample_gates(X, 2, seed=2), K=2)
        S = rng.standard_normal(op.block_shape)
        dense = dense_blocks(op)
        np.testing.assert_allclose(
            op.apply(S), dense @ S.reshape(op.B * op.d, op.K), atol=1e-12
        )

    def test_adjoint_single_ungated_block(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 3))
        op = GatedOperator.relaxed(X, all_on_gates(3), K=2)
        R = rng.standard_normal((6, 2))
        np.testing.assert_allclose(op.adjoint(R)[0], X.T @ R)

    def test_adjoint_zero(self):
        X = np.random.default_rng(4).standard_normal((5, 2))
        op = GatedOperator.relaxed(X, sample_gates(X, 3, seed=4), K=3)
        np.testing.assert_array_equal(op.adjoint(np.zeros((5, 3))), np.zeros(op.block_shape))

    def test_adjoint_consistency_100_pairs(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 4))
        op = GatedOperator.relaxed(X, sample_gates(X, 5, seed=5), K=3)
        for _ in range(100):
            S = rng.standard_normal(op.block_shape)
            R = rng.standard_normal((10, 3))
            lhs = np.vdot(op.apply(S), R)
            rhs = np.vdot(S, op.adjoint(R))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_split_operator_signs(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((8, 3))
        gates = sample_gates(X, 3, seed=6)
        op = GatedOperator.split(X, gates, K=2)
        assert op.B == 6
        V = rng.standard_normal((3, 3, 2))
        W = rng.standard_normal((3, 3, 2))
        stacked = np.concatenate([V, W], axis=0)
        rel = GatedOperator.relaxed(X, gates, K=2)
        np.testing.assert_allclose(op.apply(stacked), rel.apply(V - W), atol=1e-12)

    def test_shape_mismatch(self):
        X = np.eye(3)
        op = GatedOperator.relaxed(X, all_on_gates(3), K=2)
        with pytest.raises(ValueError):
            op.apply(np.zeros((2, 3, 2)))
        with pytest.raises(ValueError):
            op.adjoint(np.zeros((3, 3)))

    def test_matrix_free_path_matches_cached_dense(self, monkeypatch):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((9, 3))
        gates = sample_gates(X, 4, seed=12)
        cached = GatedOperator.relaxed(X, gates, K=2)
        monkeypatch.setattr(GatedOperator, "_DENSE_CACHE_LIMIT", 0)
        free = GatedOperator.relaxed(X, gates, K=2)
        assert free._dense is None and cached._dense is not None
        S = rng.standard_normal(cached.block_shape)
        R = rng.standard_normal((9, 2))
        np.testing.assert_allclose(free.apply(S), cached.apply(S), atol=1e-12)
        np.testing.assert_allclose(free.adjoint(R), cached.adjoint(R), atol=1e-12)

    @pytest.mark.parametrize("n, K, rows", [(23, 5, 4), (3, 5, 1)], ids=["ragged-chunk", "n<K"])
    def test_matrix_free_adjoint_chunks_match_cached_dense(self, n, K, rows, monkeypatch):
        # the matrix-free passes sum one GEMM per row block of 8 B (K + 1)
        # bytes a row: 23 rows in blocks of 4 leave 3 over, 3 rows one a block
        rng = np.random.default_rng(14)
        X = rng.standard_normal((n, 4))
        active = rng.random((6, n)) < 0.5
        cached = mask_operator(X, active, K)
        monkeypatch.setattr(GatedOperator, "_DENSE_CACHE_LIMIT", 0)
        monkeypatch.setattr(cld.linops, "ROW_BLOCK_BYTES", rows * 8 * 6 * (K + 1))
        free = mask_operator(X, active, K)
        assert free._dense is None and cached._dense is not None
        R = rng.standard_normal((n, K))
        np.testing.assert_allclose(free.adjoint(R), cached.adjoint(R), rtol=1e-13, atol=1e-13)
        S = rng.standard_normal(free.block_shape)
        np.testing.assert_allclose(free.apply(S), cached.apply(S), rtol=1e-13, atol=1e-13)

    @staticmethod
    def _tall_operator():
        """n = 16,000 rows, d = 16, 20 gates, K = 5: n x B x K floats are 12.8 MB."""
        rng = np.random.default_rng(13)
        X = rng.standard_normal((16000, 16))
        op = GatedOperator.relaxed(X, sample_gates(X, 20, seed=13), K=5)
        assert op._dense is None
        return op, rng

    def test_matrix_free_adjoint_allocates_no_n_b_k_array(self):
        # one row block of products and weights, the result and one block's
        # GEMM, plus numpy's ufunc buffers (64 KiB each): less than a whole
        # n x B weight matrix (2.6 MB), let alone n x B x K
        op, rng = self._tall_operator()
        out, peak = traced_peak(op.adjoint, rng.standard_normal((op.n, op.K)))
        assert out.shape == op.block_shape
        assert peak <= cld.linops.ROW_BLOCK_BYTES + 2 * 8 * op.B * op.d * op.K + 256 * 1024
        assert peak < 8 * op.n * op.B

    def test_matrix_free_apply_allocates_no_n_b_k_array(self):
        # beside its (n, K) result, the apply holds one row block of X S
        # products and weights and the transposed blocks S
        op, rng = self._tall_operator()
        S = rng.standard_normal(op.block_shape)
        out, peak = traced_peak(op.apply, S)
        expected = sum(op.signs[b] * op.masks[b][:, None] * (op.X @ S[b]) for b in range(op.B))
        np.testing.assert_allclose(out, expected, atol=1e-12)
        assert peak <= (cld.linops.ROW_BLOCK_BYTES + 8 * op.n * op.K + S.nbytes
                        + 256 * 1024)
        assert peak < 8 * op.n * op.B


def _matrix_free_relaxed():
    X = np.random.default_rng(30).standard_normal((2000, 16))
    return GatedOperator.relaxed(X, sample_gates(X, 40, seed=30), K=3), 1


def _dense_cached_relaxed():
    X = np.random.default_rng(31).standard_normal((200, 16))
    return GatedOperator.relaxed(X, sample_gates(X, 32, seed=31), K=3), 1


def _split_exact():
    X = np.random.default_rng(32).standard_normal((10, 2))
    return GatedOperator.split(X, enumerate_patterns(X), K=2), 2


def _primal_sized(m):
    return masked_operator(m + 8, m, 1, False, "random", seed=36), 1


def _kernel_sized(m):
    X = np.random.default_rng(37).standard_normal((m, 16))
    return GatedOperator.relaxed(X, sample_gates(X, m // 16 + 1, seed=37), K=3), 1


# Gram sizes one below, at, one above and at twice-plus-one the Cholesky block
_NB = cld.linops._CHOLESKY_BLOCK
_SIZED = [(side, build, m) for side, build in (("primal", _primal_sized), ("kernel", _kernel_sized))
          for m in (_NB - 1, _NB, _NB + 1, 2 * _NB + 1)]


def lower_block_rows(m):
    """The shapes of the Gram's block rows [k:e, :e], k = 0, block, 2 block, ..."""
    return [(min(k + _NB, m) - k, min(k + _NB, m)) for k in range(0, m, _NB)]


def nan_above_diagonal(fit_gram, shapes, op):
    """``fit_gram(op)``, its block-row shapes appended to ``shapes``.

    The rows must share one flat buffer. Nothing above the diagonal is
    stored except in each row's diagonal block, and that part is made NaN,
    since the factor may not read it.
    """
    rows = fit_gram(op)
    shapes.append([row.shape for row in rows])
    assert all(row.base is rows[0].base for row in rows)
    for row in rows:
        row[:, -len(row):][np.triu_indices(len(row), 1)] = np.nan
    return rows


class TestGramSolver:
    @pytest.mark.parametrize(
        "build, dense, side",
        [(_matrix_free_relaxed, False, "primal"), (_dense_cached_relaxed, True, "kernel"),
         (_split_exact, True, "kernel")]
        + [(partial(build, m), True, side) for side, build, m in _SIZED],
        ids=["matrix-free", "dense-cached", "split"] + [f"{side}-{m}" for side, _, m in _SIZED])
    def test_factored_solve_residual(self, build, dense, side, monkeypatch):
        # the factored u-solve, checked against the operator's own apply/adjoint;
        # B*d <= n factors the (B*d)^2 primal Gram, B*d > n the n x n kernel,
        # each stored as exactly its lower block rows
        op, copies = build()
        assert (op._dense is not None) == dense
        shapes = []
        monkeypatch.setattr(cld.linops, "fit_gram",
                            partial(nan_above_diagonal, cld.linops.fit_gram, shapes))
        sigma = copies * 0.1
        rhs = np.random.default_rng(33).standard_normal(op.block_shape)
        u = gram_solver(op, sigma)[0](rhs)
        size = op.B * op.d if side == "primal" else op.n
        assert shapes == [lower_block_rows(size)]
        residual = op.adjoint(op.apply(u)) + sigma * u - rhs
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("split, m", [(False, m) for m in (_NB - 1, _NB, _NB + 1, 2 * _NB + 1)]
                             + [(True, m) for m in (_NB - 2, _NB, _NB + 2, 2 * _NB + 2)])
    @pytest.mark.parametrize("sigma", [1e-4, 1.0, 100.0])
    def test_factor_fit_matches_apply(self, split, m, sigma, monkeypatch):
        # the primal-side factored solve at sizes around the block, checked
        # against the operator's apply and adjoint, with its block rows checked
        # as above; split stacks have an even B*d, so they take the even sizes.
        # A split Gram is singular, so u grows as 1/sigma: the bound is on the
        # backward error, ||residual|| / ((||F||_F^2 + sigma) ||u||), about 1e-17
        op = masked_operator(m + 40, m // 2 if split else m, 1, split, "random", seed=m)
        assert op.B * op.d == m and cld.linops.gram_side(op) == "primal"
        shapes = []
        monkeypatch.setattr(cld.linops, "fit_gram",
                            partial(nan_above_diagonal, cld.linops.fit_gram, shapes))
        rhs = np.random.default_rng(m).standard_normal(op.block_shape)
        u = gram_solver(op, sigma)[0](rhs)
        assert shapes == [lower_block_rows(m)]
        residual = op.adjoint(op.apply(u)) + sigma * u - rhs
        fro2 = float(((op.weights() ** 2).sum(axis=1) * (op.X ** 2).sum(axis=1)).sum())
        assert np.linalg.norm(residual) <= 1e-15 * (fro2 + sigma) * np.linalg.norm(u)

    def test_factor_reports_its_packed_bytes(self):
        op, _ = _primal_sized(2 * _NB + 1)
        _, stats = gram_solver(op, 1.0)
        assert stats["bytes"] == 8 * sum(r * e for r, e in lower_block_rows(2 * _NB + 1))

    def test_factor_copies_no_panel(self):
        # m = 1,024 is 8 block rows; besides the kept inverses of the 8
        # diagonal blocks the factor may hold a few 128 x 128 blocks, never
        # a panel of the rows below a diagonal block (3 (m - 128) 128 floats)
        m = 8 * _NB
        rng = np.random.default_rng(39)
        A = rng.standard_normal((m + 10, m))
        gram = A.T @ A + np.eye(m)
        rows = cld.linops._block_rows(m)
        for row in rows:
            r, e = row.shape
            row[:] = gram[e - r:e, :e]
        solve, peak = traced_peak(cld.linops._cholesky_solver, rows)
        assert peak <= 8 * _NB * _NB * (len(rows) + 4)
        b = rng.standard_normal((m, 3))
        assert np.linalg.norm(gram @ solve(b) - b) <= 1e-10 * np.linalg.norm(b)

    @staticmethod
    def _wide_class_operator():
        """n = 8,200 rows, d = 64, 32 random gates; and its packed Gram's bytes."""
        rng = np.random.default_rng(40)
        n, d, P = 8200, 64, 32
        X = rng.standard_normal((n, d))
        op = mask_operator(X, rng.random((P, n)) < 0.5, K=2)
        return op, 8 * sum(r * e for r, e in lower_block_rows(op.B * op.d))

    def test_class_gram_table_is_capped(self):
        # d = 64 and 32 gates at n = 8,200 would allow 4^4 classes by the row
        # rules (an 8 MiB table); the 2 MiB cap keeps g = 3. Beside the packed
        # Gram the build holds that table and gathered class rows (at most X)
        op, packed = self._wide_class_operator()
        assert cld.linops._group_size(op.n, op.d, op.B) == 3
        _, peak = traced_peak(cld.linops.fit_gram, op)
        assert peak <= packed + 8 * 2 ** 18 + op.X.nbytes

    def test_gram_build_holds_one_class_of_rows_at_a_time(self):
        # the last group of 3 holds gates 30 and 31, so paired with itself it
        # sorts the rows into 4 classes of about n / 4 rows (1 MiB). Holding
        # one class's gathered rows while the next is gathered would cross
        # the bound; signatures, sort order and tiles stay well under a class
        op, packed = self._wide_class_operator()
        largest = 8 * op.d * np.bincount(op.masks[30] + 2 * op.masks[31].astype(int)).max()
        _, peak = traced_peak(cld.linops.fit_gram, op)
        assert peak < packed + 8 * 4 ** 3 * op.d ** 2 + 2 * largest

    def test_gram_build_gathers_one_row_block_of_a_class(self):
        # two gates over 40,000 rows make one group of 4 classes of about
        # 10,000 rows (4.9 MiB gathered whole); beside the packed Gram and
        # the class table the build holds one row block of a class, the
        # rows' sort order and their signatures
        rng = np.random.default_rng(41)
        n, d = 40000, 64
        X = rng.standard_normal((n, d))
        op = mask_operator(X, rng.random((2, n)) < 0.5, K=2)
        assert cld.linops._group_size(n, d, op.B) == 2
        largest = 8 * d * np.bincount(op.masks[0] + 2 * op.masks[1].astype(int)).max()
        packed = 8 * sum(r * e for r, e in lower_block_rows(op.B * d))
        _, peak = traced_peak(cld.linops.fit_gram, op)
        assert peak <= (packed + 8 * 4 ** 2 * d ** 2 + cld.linops.ROW_BLOCK_BYTES + 2 * 8 * n
                        + 256 * 1024)
        assert peak < largest

    def test_primal_factor_allocates_no_square(self):
        # m = 2,048: the square Gram alone (32 MiB) would exceed the bound,
        # the packed rows (about 17 MiB) plus the class Grams plus the
        # diagonal blocks' inverses and a few blocks of temporaries fit under it
        X = np.random.default_rng(38).standard_normal((4000, 32))
        op = GatedOperator.relaxed(X, sample_gates(X, 64, seed=38), K=2)
        m = op.B * op.d
        assert m == 2048 and op._dense is None and cld.linops.gram_side(op) == "primal"
        packed = 8 * sum(r * e for r, e in lower_block_rows(m))
        classes = 8 * 4 ** cld.linops._group_size(op.n, op.d, op.B) * op.d ** 2
        _, peak = traced_peak(gram_solver, op, 1.0)
        assert peak <= packed + classes + 4 * 8 * _NB * m
        assert peak < 8 * m * m

    def test_wide_u_solve_is_exact(self):
        # B*d = 5,120 > n = 300, the encoder-width regime: the u-system is
        # solved through the n x n kernel and must still be exact
        prob = random_problem(n=300, d=160, K=3, P=32, seed=22)
        op = prob.op
        assert op.B * op.d == 5120
        consensus = np.random.default_rng(22).standard_normal(op.block_shape)
        rhs = op.adjoint(prob.Y) + consensus
        u = gram_solver(op, 1.0)[0](rhs)
        residual = op.adjoint(op.apply(u)) + u - rhs
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("sigma, bound", [(1.0, 3e-11), (1e-2, 3e-9), (1e-4, 3e-7)])
    def test_kernel_solve_accuracy_scales_with_one_over_sigma(self, sigma, bound):
        # u = (rhs - F^T z) / sigma scales z's roundoff by ||F||^2 / sigma:
        # residuals of about 3e-12, 3e-10 and 3e-8 here, bounded at 10 times
        rng = np.random.default_rng(41)
        X = rng.standard_normal((1000, 64))
        op = GatedOperator.relaxed(X, sample_gates(X, 32, seed=41), K=5)
        assert op.B * op.d == 2048 and cld.linops.gram_side(op) == "kernel"
        rhs = rng.standard_normal(op.block_shape)
        u = gram_solver(op, sigma)[0](rhs)
        residual = op.adjoint(op.apply(u)) + sigma * u - rhs
        assert np.linalg.norm(residual) <= bound * np.linalg.norm(rhs)


def masked_operator(n, d, P, split, kind, seed):
    """Random 0/1 masks (``kind``: random, all_on, all_off, or mixed) on X with zero rows."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X[rng.random(n) < 0.2] = 0.0
    active = rng.random((P, n)) < rng.uniform(0.1, 0.9)
    if kind == "all_on":
        active[:] = True
    elif kind == "all_off":
        active[:] = False
    elif kind == "mixed":
        active[0], active[-1] = True, False
    return mask_operator(X, active, K=2, split=split)


def assert_primal_gram_exact(op):
    m = op.B * op.d
    assert m <= op.n
    rows = cld.linops.fit_gram(op)
    assert [row.shape for row in rows] == lower_block_rows(m)
    gram = np.full((m, m), np.nan)
    for row in rows:
        r, e = row.shape
        gram[e - r:e, :e] = row
    dense = dense_blocks(op)
    expected = dense.T @ dense
    lower = np.tril_indices(m)
    error = np.abs(gram[lower] - expected[lower]).max()
    assert error <= 1e-13 * np.abs(expected).max()


@st.composite
def primal_cases(draw):
    split = draw(st.booleans())
    d = draw(st.integers(1, 4))
    copies = 2 if split else 1
    # below 32 rows one gate per group; from 512 rows two, from 2,048 rows three
    n = draw(st.one_of(st.integers(copies * d, 31), st.integers(32, 700),
                       st.integers(2048, 2200)))
    P = draw(st.integers(1, min(12, n // (copies * d))))
    kind = draw(st.sampled_from(["random", "all_on", "all_off", "mixed"]))
    return n, d, P, split, kind, draw(st.integers(0, 2**32 - 1))


class TestPrimalGram:
    @settings(max_examples=60, deadline=None)
    @given(primal_cases())
    def test_lower_triangle_matches_dense(self, case):
        assert_primal_gram_exact(masked_operator(*case))

    @pytest.mark.parametrize("case", [(20, 2, 4, False, "random"), (50, 1, 1, False, "random"),
                                      (300, 3, 10, True, "mixed"), (640, 4, 16, False, "all_on"),
                                      (640, 4, 16, True, "all_off")],
                             ids=["n<32", "B=1,d=1", "split", "all-on", "all-off"])
    def test_named_shapes(self, case):
        assert_primal_gram_exact(masked_operator(*case, seed=34))

    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_classes_gathered_in_row_blocks(self, block_rows, monkeypatch):
        # blocks of 1 or 7 rows split every class of the 300 rows, most with
        # a ragged last block; each block must stop at its class's end
        monkeypatch.setattr(cld.linops, "ROW_BLOCK_BYTES", block_rows * 8 * 3)
        assert_primal_gram_exact(masked_operator(300, 3, 10, True, "mixed", seed=36))

    @pytest.mark.parametrize("n, d, P, split, g", [(600, 2, 5, False, 2), (2100, 3, 7, True, 3)])
    def test_last_gate_group_smaller_than_g(self, n, d, P, split, g):
        op = masked_operator(n, d, P, split, "mixed", seed=35)
        assert cld.linops._group_size(op.n, op.d, op.B) == g and op.B % g
        assert_primal_gram_exact(op)


class TestPowerIteration:
    def test_diagonal(self):
        A = np.diag([1.0, 3.0])
        est = power_iteration(lambda x: A @ x, 2, iters=100, seed=0)
        assert est == pytest.approx(3.0, abs=1e-4)

    def test_identity(self):
        est = power_iteration(lambda x: x, 5, iters=10, seed=0)
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_random_spd_within_one_percent(self):
        rng = np.random.default_rng(15)
        M = rng.standard_normal((20, 20))
        A = M.T @ M
        est = power_iteration(lambda x: A @ x, 20, iters=500, seed=3)
        true = np.linalg.eigvalsh(A).max()
        assert abs(est - true) / true < 0.01

    def test_zero_operator(self):
        assert power_iteration(lambda x: 0.0 * x, 4, iters=10, seed=0) == 0.0

    def test_iters_validation(self):
        with pytest.raises(ValueError):
            power_iteration(lambda x: x, 3, iters=0)
