from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cld.gates import GateSet, enumerate_patterns, sample_gates
import cld.linops
from cld.linops import GatedOperator, gram_solver, power_iteration

from conftest import random_problem


def all_on_gates(n, d, count=1):
    return GateSet(np.ones((count, n), dtype=bool), np.ones((count, d)))


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


class TestGramSolver:
    @pytest.mark.parametrize(
        "build, dense, side",
        [(_matrix_free_relaxed, False, "primal"), (_dense_cached_relaxed, True, "kernel"),
         (_split_exact, True, "kernel")]
        + [(partial(build, m), True, side) for side, build, m in _SIZED],
        ids=["matrix-free", "dense-cached", "split"] + [f"{side}-{m}" for side, _, m in _SIZED])
    def test_factored_solve_residual(self, build, dense, side, monkeypatch):
        # the factored u-solve, checked against the operator's own apply/adjoint;
        # B*d <= n factors the (B*d)^2 primal Gram, B*d > n the n x n kernel.
        # Only the Gram's lower triangle is defined, so its upper one is made NaN.
        op, copies = build()
        assert (op._dense is not None) == dense
        shapes, fit_gram = [], cld.linops.fit_gram

        def recording_fit_gram(op):
            gram = fit_gram(op)
            shapes.append(gram.shape)
            gram[np.triu_indices(len(gram), 1)] = np.nan
            return gram

        monkeypatch.setattr(cld.linops, "fit_gram", recording_fit_gram)
        sigma = copies * 0.1
        rhs = np.random.default_rng(33).standard_normal(op.block_shape)
        u = gram_solver(op, sigma)(rhs)
        size = op.B * op.d if side == "primal" else op.n
        assert shapes == [(size, size)]
        residual = op.adjoint(op.apply(u)) + sigma * u - rhs
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)

    def test_wide_u_solve_is_exact(self):
        # B*d = 5,120 > n = 300, the encoder-width regime: the u-system is
        # solved through the n x n kernel and must still be exact
        prob = random_problem(n=300, d=160, K=3, P=32, seed=22)
        op = prob.op
        assert op.B * op.d == 5120
        consensus = np.random.default_rng(22).standard_normal(op.block_shape)
        rhs = op.adjoint(prob.Y) + consensus
        u = gram_solver(op, 1.0)(rhs)
        residual = op.adjoint(op.apply(u)) + u - rhs
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)


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
    gates = GateSet(active, np.ones((P, d)))
    return (GatedOperator.split if split else GatedOperator.relaxed)(X, gates, K=2)


def assert_primal_gram_exact(op):
    assert op.B * op.d <= op.n
    gram = cld.linops.fit_gram(op)
    dense = dense_blocks(op)
    expected = dense.T @ dense
    lower = np.tril_indices(op.B * op.d)
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

    def test_iters_validation(self):
        with pytest.raises(ValueError):
            power_iteration(lambda x: x, 3, iters=0)
