import numpy as np
import pytest

from cld.cvxprog import loss
from cld.oracle import (
    FistaConfig,
    dense_matrix,
    dense_solve_smallest,
    fista_solve,
)

from conftest import random_problem, traced_peak
from reference import fd_gradcheck, fit_value_and_grad


class TestFista:
    def test_huge_beta_gives_zero_solution(self):
        prob = random_problem(n=12, d=3, K=2, P=3, beta=1e6, seed=0)
        res = fista_solve(prob, FistaConfig(max_iters=50))
        np.testing.assert_array_equal(res.S, np.zeros(prob.op.block_shape))
        assert res.objective == pytest.approx(loss(np.zeros_like(prob.Y), prob.Y))

    def test_beta_zero_matches_dense_least_squares(self):
        prob = random_problem(n=15, d=3, K=2, P=3, beta=0.0, seed=1)
        res = fista_solve(prob, FistaConfig(max_iters=8000, rel_obj_tol=1e-14))
        dense = dense_solve_smallest(prob)
        assert res.objective == pytest.approx(dense.objective, abs=1e-8)

    def test_history_non_increasing(self):
        prob = random_problem(n=20, d=4, K=3, P=4, beta=1e-2, seed=2)
        res = fista_solve(prob, FistaConfig(max_iters=600))
        hist = np.array(res.objective_history)
        assert np.all(np.diff(hist) <= 1e-12)
        assert np.all(np.isfinite(hist))

    def test_relaxed_mode_only(self):
        import cld.cvxprog as cp
        from cld.gates import sample_gates
        from cld.linops import GatedOperator

        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 2))
        gates = sample_gates(X, 2, seed=3)
        op = GatedOperator.split(X, gates, K=2)
        prob = cp.ConvexProblem(op, np.eye(2)[rng.integers(0, 2, 6)], 0.1, "l21", "exact",
                                op.masks[:gates.P])
        with pytest.raises(ValueError, match="relaxed"):
            fista_solve(prob)

    @pytest.mark.parametrize("kind", ["l21", "frobenius"])
    def test_agrees_with_dense_oracle(self, kind):
        prob = random_problem(n=16, d=3, K=2, P=4, beta=5e-3, seed=4, penalty_kind=kind)
        res = fista_solve(prob, FistaConfig(max_iters=20000, rel_obj_tol=1e-14))
        dense = dense_solve_smallest(prob)
        rel = abs(res.objective - dense.objective) / max(abs(dense.objective), 1e-12)
        assert rel <= 1e-8


class TestGradcheck:
    def test_fit_gradient_random_point(self):
        prob = random_problem(n=12, d=3, K=2, P=3, seed=5)
        fun, grad = fit_value_and_grad(prob)
        S = np.random.default_rng(5).standard_normal(prob.op.block_shape)
        assert fd_gradcheck(fun, grad, S) <= 1e-5

    def test_gradient_norm_small_at_least_squares_optimum(self):
        prob = random_problem(n=30, d=3, K=2, P=3, beta=0.0, seed=6)
        dense = dense_solve_smallest(prob)
        _, grad = fit_value_and_grad(prob)
        assert np.linalg.norm(grad(dense.S)) <= 1e-8

    def test_1d_quadratic(self):
        fun = lambda x: 0.5 * float(x[0]) ** 2
        grad = lambda x: np.array([float(x[0])])
        err = fd_gradcheck(fun, grad, np.array([3.0]), num_coords=1)
        assert grad(np.array([3.0]))[0] == 3.0
        assert err <= 1e-9


class TestDenseOracle:
    def test_ungated_beta_zero_is_ordinary_least_squares(self):
        rng = np.random.default_rng(7)
        from cld.linops import GatedOperator
        from cld.cvxprog import ConvexProblem

        X = rng.standard_normal((10, 3))
        op = GatedOperator(X, np.ones((1, 10), dtype=bool), np.ones(1), K=2)
        Y = rng.standard_normal((10, 2))
        prob = ConvexProblem(op, Y, 0.0, "l21", "relaxed", ())
        res = dense_solve_smallest(prob)
        expected, *_ = np.linalg.lstsq(X, Y, rcond=None)
        np.testing.assert_allclose(res.S[0], expected, atol=1e-10)

    def test_targets_in_column_space_fit_zero(self):
        prob = random_problem(n=10, d=4, K=2, P=3, beta=0.0, seed=8)
        rng = np.random.default_rng(8)
        S = rng.standard_normal(prob.op.block_shape)
        reachable = prob.op.apply(S)
        import dataclasses

        prob2 = dataclasses.replace(prob, Y=reachable)
        res = dense_solve_smallest(prob2)
        assert res.objective <= 1e-10

    def test_dense_matrix_matches_operator(self):
        prob = random_problem(n=9, d=3, K=2, P=3, seed=9)
        A = dense_matrix(prob)
        rng = np.random.default_rng(9)
        S = rng.standard_normal(prob.op.block_shape)
        np.testing.assert_allclose(
            A @ S.reshape(-1, prob.op.K), prob.op.apply(S), atol=1e-12
        )

    def test_guard_rejects_large_instances(self):
        prob = random_problem(n=20, d=4, K=2, P=4, seed=10)
        import dataclasses

        big_X = np.zeros((20000, 4))
        from cld.linops import GatedOperator
        from cld.gates import GateSet

        gates = GateSet(np.ones((4, 4)))   # every zero row is active
        op = GatedOperator.relaxed(big_X, gates, K=2)
        from cld.cvxprog import ConvexProblem

        prob_big = ConvexProblem(op, np.zeros((20000, 2)), 0.0, "l21", "relaxed", ())
        with pytest.raises(ValueError, match="dense oracle"):
            dense_solve_smallest(prob_big)

    def test_inline_shrinkage_equals_library_prox_result(self):
        # the two solvers share no prox code, yet must land on the same value
        prob = random_problem(n=14, d=3, K=3, P=3, beta=1e-2, seed=11)
        fista = fista_solve(prob, FistaConfig(max_iters=20000, rel_obj_tol=1e-14))
        dense = dense_solve_smallest(prob)
        rel = abs(fista.objective - dense.objective) / max(abs(dense.objective), 1e-12)
        assert rel <= 1e-8

    # wide: 16 rows, B*d = 1,280 columns; the (B*d)^2 Gram alone would take 12.5 MiB
    WIDE = dict(n=16, d=128, K=2, P=10, beta=0.1, seed=0)

    def test_wide_instance_needs_no_gram(self):
        prob = random_problem(**self.WIDE)
        assert prob.op.block_shape == (10, 128, 2)
        _, peak = traced_peak(dense_solve_smallest, prob, 50)
        assert peak < 2 * 2**20

    def test_wide_instance_agrees_with_fista(self):
        prob = random_problem(**self.WIDE)
        fista = fista_solve(prob, FistaConfig(max_iters=20000, rel_obj_tol=1e-14))
        dense = dense_solve_smallest(prob)
        rel = abs(fista.objective - dense.objective) / max(abs(dense.objective), 1e-12)
        assert rel <= 1e-4
