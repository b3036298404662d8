import numpy as np
import pytest

from cld.gates import GatePattern, GateSet, enumerate_patterns, sample_gates
from cld.linops import (
    GatedOperator,
    PcgConfig,
    PcgNumericError,
    gram_solver,
    nystrom_precond,
    pcg_solve,
    power_iteration,
)


def all_on_gates(n, d, count=1):
    pats = tuple(
        GatePattern(np.ones(n, dtype=bool), np.ones(d)) for _ in range(count)
    )
    return GateSet(pats)


def dense_blocks(op):
    return np.hstack([op.signs[b] * op.masks[b][:, None] * op.X for b in range(op.B)])


class TestGatedOperator:
    def test_single_ungated_block_is_plain_matmul(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        op = GatedOperator.relaxed(X, all_on_gates(6, 3), K=2)
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
        op = GatedOperator.relaxed(X, all_on_gates(6, 3), K=2)
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
        op = GatedOperator.relaxed(X, all_on_gates(3, 3), K=2)
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


class TestPcg:
    def test_identity_one_iteration(self):
        b = np.array([1.0, -2.0, 3.0])
        res = pcg_solve(lambda x: x, b, PcgConfig())
        assert res.iters == 1
        np.testing.assert_allclose(res.x, b, atol=1e-12)

    def test_diagonal_solve(self):
        A = np.diag([1.0, 2.0])
        res = pcg_solve(lambda x: A @ x, np.array([1.0, 2.0]), PcgConfig())
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-10)

    def test_random_spd_matches_direct_solve(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((30, 30))
        A = M.T @ M + np.eye(30)
        b = rng.standard_normal(30)
        res = pcg_solve(lambda x: A @ x, b, PcgConfig(max_iters=200, rel_tol=1e-12))
        np.testing.assert_allclose(res.x, np.linalg.solve(A, b), atol=1e-6)

    def test_residual_history_non_increasing(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((25, 25))
        A = M.T @ M + np.eye(25)
        b = rng.standard_normal(25)
        res = pcg_solve(lambda x: A @ x, b, PcgConfig(max_iters=100, rel_tol=1e-12))
        hist = np.array(res.residual_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_zero_rhs(self):
        res = pcg_solve(lambda x: x, np.zeros(4), PcgConfig())
        assert res.iters == 0
        np.testing.assert_array_equal(res.x, np.zeros(4))

    def test_preconditioned_agrees_with_plain(self):
        rng = np.random.default_rng(10)
        M = rng.standard_normal((20, 20))
        A = M.T @ M + 5.0 * np.eye(20)
        b = rng.standard_normal(20)
        cfg = PcgConfig(max_iters=200, rel_tol=1e-12)
        plain = pcg_solve(lambda x: A @ x, b, cfg)
        jacobi = pcg_solve(lambda x: A @ x, b, cfg, precond=lambda r: r / np.diag(A))
        np.testing.assert_allclose(plain.x, jacobi.x, atol=1e-6)

    def test_numeric_error_raises(self):
        with pytest.raises(PcgNumericError, match="iteration"):
            pcg_solve(lambda x: 0.0 * x, np.ones(3), PcgConfig())

    def test_block_shaped_operands(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((2, 3, 2))
        res = pcg_solve(lambda x: 2.0 * x, b, PcgConfig())
        np.testing.assert_allclose(res.x, b / 2.0, atol=1e-10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PcgConfig(max_iters=0)
        with pytest.raises(ValueError):
            PcgConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            PcgConfig(preconditioner="lu")


class TestNystrom:
    def test_identity_spectrum_and_fast_convergence(self):
        dim, sigma = 12, 0.5
        pre = nystrom_precond(lambda x: x, dim, rank=12, sigma=sigma, seed=0)
        r = np.random.default_rng(0).standard_normal(dim)
        np.testing.assert_allclose(pre(r), r / (1.0 + sigma), atol=1e-6)
        res = pcg_solve(lambda x: (1.0 + sigma) * x, r,
                        PcgConfig(max_iters=10, rel_tol=1e-10), precond=pre)
        assert res.iters <= 2

    def test_full_rank_gives_three_iteration_solve(self):
        rng = np.random.default_rng(13)
        M = rng.standard_normal((15, 15))
        A = M.T @ M
        sigma = 0.1
        eig_ref = np.linalg.eigvalsh(A)
        pre = nystrom_precond(lambda x: A @ x, 15, rank=15, sigma=sigma, seed=1)
        np.testing.assert_allclose(np.sort(pre.lam), eig_ref, rtol=1e-6, atol=1e-8)
        b = rng.standard_normal(15)
        res = pcg_solve(lambda x: A @ x + sigma * x, b,
                        PcgConfig(max_iters=20, rel_tol=1e-10), precond=pre)
        assert res.iters <= 3
        np.testing.assert_allclose(res.x, np.linalg.solve(A + sigma * np.eye(15), b), atol=1e-6)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(14)
        M = rng.standard_normal((10, 10))
        A = M.T @ M + np.eye(10)
        p1 = nystrom_precond(lambda x: A @ x, 10, rank=4, sigma=1.0, seed=7)
        p2 = nystrom_precond(lambda x: A @ x, 10, rank=4, sigma=1.0, seed=7)
        np.testing.assert_array_equal(p1.U, p2.U)
        np.testing.assert_array_equal(p1.lam, p2.lam)

    def test_rank_validation(self):
        with pytest.raises(ValueError, match="rank"):
            nystrom_precond(lambda x: x, 5, rank=6, sigma=1.0)


def _matrix_free_relaxed():
    X = np.random.default_rng(30).standard_normal((2000, 16))
    return GatedOperator.relaxed(X, sample_gates(X, 40, seed=30), K=3), 1


def _dense_cached_relaxed():
    X = np.random.default_rng(31).standard_normal((200, 16))
    return GatedOperator.relaxed(X, sample_gates(X, 32, seed=31), K=3), 1


def _split_exact():
    X = np.random.default_rng(32).standard_normal((10, 2))
    return GatedOperator.split(X, enumerate_patterns(X), K=2), 2


class TestGramSolver:
    @pytest.mark.parametrize("build, dense", [(_matrix_free_relaxed, False),
                                              (_dense_cached_relaxed, True),
                                              (_split_exact, True)],
                             ids=["matrix-free", "dense-cached", "split"])
    def test_factored_solve_residual(self, build, dense):
        # the factored u-solve, checked against the operator's own apply/adjoint
        op, copies = build()
        assert (op._dense is not None) == dense
        sigma = copies * 0.1
        rhs = np.random.default_rng(33).standard_normal(op.block_shape)
        u, iters = gram_solver(op, sigma, PcgConfig())(rhs, None)
        assert iters == 0
        residual = op.adjoint(op.apply(u)) + sigma * u - rhs
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)


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

    def test_iters_validation(self):
        with pytest.raises(ValueError):
            power_iteration(lambda x: x, 3, iters=0)
