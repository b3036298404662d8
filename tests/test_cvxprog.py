import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cld.cvxprog import (
    PENALTY_KINDS,
    ConvexProblem,
    group_prox,
    loss,
    max_cone_violation,
    objective,
    penalty,
    project_to_cones,
)
import cld.gates
from cld.gates import enumerate_patterns, sample_gates
from cld.linops import GatedOperator
from cld.oracle import dense_solve_smallest

from conftest import random_problem
from reference import Cone, cone_violation, loss_grad, nnls_cone_project, prox_dykstra


class TestLoss:
    def test_perfect_prediction(self):
        Y = np.eye(3)
        assert loss(Y, Y) == 0.0

    def test_all_ones_offset(self):
        Y = np.eye(4)[np.array([0, 1, 0, 1])][:, :2]
        pred = Y + np.ones_like(Y)
        assert loss(pred, Y) == pytest.approx(Y.size / 2.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        pred = rng.standard_normal((5, 3))
        Y = rng.standard_normal((5, 3))
        g = loss_grad(pred, Y)
        step = 1e-5
        for idx in [(0, 0), (2, 1), (4, 2)]:
            bumped = pred.copy()
            bumped[idx] += step
            hi = loss(bumped, Y)
            bumped[idx] -= 2 * step
            lo = loss(bumped, Y)
            fd = (hi - lo) / (2 * step)
            assert abs(fd - g[idx]) / max(abs(g[idx]), 1e-12) <= 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss(np.zeros((2, 2)), np.zeros((3, 2)))


class TestPenalty:
    def test_l21_sums_column_norms(self):
        S = np.zeros((1, 2, 2))
        S[0, :, 0] = [1.0, 0.0]       # norm 1
        S[0, :, 1] = [0.0, 2.0]       # norm 2
        assert penalty(S, "l21") == pytest.approx(3.0)

    def test_frobenius_of_same_block(self):
        S = np.zeros((1, 2, 2))
        S[0, :, 0] = [1.0, 0.0]
        S[0, :, 1] = [0.0, 2.0]
        assert penalty(S, "frobenius") == pytest.approx(np.sqrt(5.0))

    def test_identity_block_tight_sqrtK_relation(self):
        S = np.eye(2)[None, :, :]
        l21 = penalty(S, "l21")
        fro = penalty(S, "frobenius")
        assert l21 == pytest.approx(2.0)
        assert fro == pytest.approx(np.sqrt(2.0))
        K = 2
        assert l21 == pytest.approx(np.sqrt(K) * fro)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            penalty(np.zeros((1, 2, 2)), "l1")


class TestGroupProx:
    def test_closed_form_shrinkage(self):
        Z = np.array([3.0, 4.0]).reshape(1, 2, 1)
        out = group_prox(Z, 0.5, "l21")
        np.testing.assert_allclose(out.ravel(), [2.7, 3.6])

    def test_small_group_is_zeroed(self):
        Z = np.array([0.24, 0.32]).reshape(1, 2, 1)  # norm 0.4
        out = group_prox(Z, 0.5, "l21")
        np.testing.assert_array_equal(out, np.zeros_like(Z))

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((3, 4, 2))
        np.testing.assert_array_equal(group_prox(Z, 0.0, "l21"), Z)

    def test_zero_group_stays_zero(self):
        Z = np.zeros((2, 3, 2))
        np.testing.assert_array_equal(group_prox(Z, 1.0, "frobenius"), Z)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            group_prox(np.zeros((1, 2, 1)), -0.1, "l21")

    @pytest.mark.parametrize("kind", ["l21", "frobenius"])
    def test_prox_is_the_minimiser(self, kind):
        # objective t*||u|| + 0.5*||u - z||^2 at the prox output beats 100
        # random nearby perturbations
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((2, 3, 2))
        t = 0.7
        out = group_prox(Z, t, kind)

        def prox_objective(U):
            return t * penalty(U, kind) + 0.5 * float(np.vdot(U - Z, U - Z))

        base = prox_objective(out)
        for _ in range(100):
            trial = out + 0.1 * rng.standard_normal(out.shape)
            assert prox_objective(trial) >= base - 1e-12


class TestObjective:
    def test_zero_vars_fit_is_half_n(self):
        prob = random_problem(n=14, K=2, seed=3)
        val = objective(prob, np.zeros(prob.op.block_shape))
        assert val.fit == pytest.approx(14 / 2.0)
        assert val.penalty == 0.0
        assert val.total == val.fit

    def test_least_squares_fit_matches_dense_oracle(self):
        prob = random_problem(n=12, d=3, K=2, P=3, beta=0.0, seed=4)
        res = dense_solve_smallest(prob)
        val = objective(prob, res.S)
        assert val.fit == pytest.approx(res.objective, abs=1e-8)

    def test_convexity_spot_check(self):
        prob = random_problem(n=10, d=3, K=2, P=3, beta=0.05, seed=5)
        rng = np.random.default_rng(5)
        lam = 0.3
        for _ in range(20):
            A = rng.standard_normal(prob.op.block_shape)
            B = rng.standard_normal(prob.op.block_shape)
            mixed = objective(prob, lam * A + (1 - lam) * B).total
            bound = lam * objective(prob, A).total + (1 - lam) * objective(prob, B).total
            assert mixed <= bound + 1e-10

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -1.0])
    def test_beta_not_finite_and_nonnegative_refused(self, beta):
        # a NaN or inf beta would make every objective and oracle return nan
        prob = random_problem(seed=1)
        with pytest.raises(ValueError, match=f"beta must be finite and >= 0, got {beta}"):
            ConvexProblem(prob.op, prob.Y, beta)
        assert ConvexProblem(prob.op, prob.Y, 0.0).beta == 0.0

    def test_total_decomposition(self):
        prob = random_problem(beta=0.2, seed=6)
        S = np.random.default_rng(6).standard_normal(prob.op.block_shape)
        val = objective(prob, S)
        assert val.total == pytest.approx(val.fit + prob.beta * val.penalty)

    def test_block_permutation_invariance(self):
        prob = random_problem(n=10, d=3, K=2, P=4, beta=0.1, seed=7)
        rng = np.random.default_rng(7)
        S = rng.standard_normal(prob.op.block_shape)
        perm = rng.permutation(prob.op.B)
        op2 = GatedOperator(prob.op.X, prob.op.masks[perm], prob.op.signs[perm], prob.op.K)
        prob2 = ConvexProblem(op2, prob.Y, prob.beta, prob.penalty_kind, "relaxed", ())
        v1 = objective(prob, S)
        v2 = objective(prob2, S[perm])
        assert v1.total == pytest.approx(v2.total, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-3.0, 3.0))
    def test_relaxed_penalty_is_min_over_splits(self, seed, alpha):
        # ||S|| <= ||S + aS|| + ||aS|| for any split v - w = S with w = a S
        rng = np.random.default_rng(seed)
        S = rng.standard_normal((2, 3, 2))
        base = penalty(S, "l21")
        v = S + alpha * S
        w = alpha * S
        assert base <= penalty(v, "l21") + penalty(w, "l21") + 1e-12


class TestExactModeObjective:
    def test_cone_violation_reported(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((6, 3))
        gates = sample_gates(X, 2, seed=8)
        op = GatedOperator.split(X, gates, K=2)
        Y = np.eye(2)[rng.integers(0, 2, 6)]
        prob = ConvexProblem(op, Y, 0.1, "l21", "exact", op.masks[:gates.P])
        S = rng.standard_normal(op.block_shape)
        val = objective(prob, S)
        assert val.cone_violation == pytest.approx(max_cone_violation(prob, S))
        assert val.cone_violation > 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 3), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    @example(11, 3, 2, 3, 1559)
    @example(4, 4, 3, 3, 15018)
    def test_max_cone_violation_matches_column_loop(self, n, d, K, P, seed):
        # zero rows of X constrain nothing; zero columns of S lie in every cone
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d)) * (rng.random((n, 1)) < 0.75)
        gates = sample_gates(X, P, seed=seed, dedup=False)
        op = GatedOperator.split(X, gates, K)
        prob = ConvexProblem(op, np.eye(K)[rng.integers(0, K, n)], 0.1, "l21", "exact",
                             op.masks[:P])
        S = rng.standard_normal(op.block_shape) * (rng.random((op.B, 1, K)) < 0.6)
        expected = max(cone_violation(Cone(op.masks[b], X), S[b, :, k])
                       for b in range(op.B) for k in range(K))
        # the two sum the d-term products X @ s in different orders; bound the
        # difference by the forward error of a d-term dot product
        tol = 2 * d * np.finfo(float).eps * (np.abs(X) @ np.abs(S)).max(initial=0.0)
        assert abs(max_cone_violation(prob, S) - expected) <= tol

    def test_exact_mode_requires_cones(self):
        prob = random_problem(seed=9)
        with pytest.raises(ValueError, match="cone"):
            ConvexProblem(prob.op, prob.Y, 0.1, "l21", "exact", ())


def exact_problem(n, d, K, P, seed, zero_rows=0.25, duplicate=False):
    """Split-mode problem on random X, some rows zero and maybe two rows equal."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * (rng.random((n, 1)) >= zero_rows)
    if duplicate and n >= 2:
        X[1] = X[0]
    gates = sample_gates(X, P, seed=seed, dedup=False)
    op = GatedOperator.split(X, gates, K)
    return ConvexProblem(op, np.eye(K)[rng.integers(0, K, n)], 0.1, "l21", "exact",
                         op.masks[:gates.P])


def face_hint(kind, shape, d, rng):
    """(B, K, n) face guesses: none, every row, random rows, or d + 1 rows."""
    if kind == "empty":
        return np.zeros(shape, dtype=bool)
    if kind == "all":
        return np.ones(shape, dtype=bool)
    if kind == "random":
        return rng.random(shape) < 0.4
    hint = np.zeros(shape, dtype=bool)
    hint[..., : d + 1] = True
    return hint


class TestProjectToCones:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 4), st.integers(1, 3), st.integers(1, 4),
           st.sampled_from(["empty", "all", "random", "many"]), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_matches_per_column_kernel_for_any_hint(self, n, d, K, P, kind, duplicate, seed):
        prob = exact_problem(n, d, K, P, seed, duplicate=duplicate)
        rng = np.random.default_rng(seed + 1)
        B = prob.op.B
        S = 3.0 * rng.standard_normal((B, d, K)) * (rng.random((B, 1, K)) < 0.7)
        out, faces, fallbacks = project_to_cones(prob, S, face_hint(kind, (B, K, n), d, rng))
        assert faces.shape == (B, K, n) and faces.dtype == bool
        assert 0 <= fallbacks <= B * K
        for b in range(B):
            for k in range(K):
                x = S[b, :, k]
                if not np.any(x):
                    assert not np.any(out[b, :, k])
                    continue
                ref = nnls_cone_project(Cone(prob.cones[b % P], prob.op.X), x)
                assert np.linalg.norm(out[b, :, k] - ref) <= 1e-12 * np.linalg.norm(x)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 3), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    def test_returned_faces_need_no_fallback(self, n, d, K, P, seed):
        prob = exact_problem(n, d, K, P, seed)
        rng = np.random.default_rng(seed + 1)
        S = 3.0 * rng.standard_normal(prob.op.block_shape)
        first, faces, _ = project_to_cones(prob, S, np.zeros((prob.op.B, K, n), dtype=bool))
        again, same, fallbacks = project_to_cones(prob, S, faces)
        assert fallbacks == 0
        np.testing.assert_array_equal(same, faces)
        np.testing.assert_allclose(again, first, rtol=0.0,
                                   atol=1e-12 * np.abs(S).max())

    def test_inexact_face_solve_is_rejected(self, monkeypatch):
        # a warm face solve 1e-6 off leaves the face's slack nonzero; the check
        # must count those columns as misses and iterate on rather than keep them
        prob = exact_problem(10, 3, 2, 4, seed=5, zero_rows=0.0)
        S = 3.0 * np.random.default_rng(5).standard_normal(prob.op.block_shape)
        _, faces, _ = project_to_cones(prob, S, np.zeros((prob.op.B, 2, 10), dtype=bool))
        assert np.any(faces)
        real_step, calls = cld.gates._face_step, []

        def warm_step_off(G, A, z):
            # only the first round's solve, on the hinted faces, is off
            calls.append(len(G))
            step, moved, singular = real_step(G, A, z)
            if len(calls) == 1:
                step, moved = step * (1.0 + 1e-6), moved + 1e-6 * (moved - z)
            return step, moved, singular

        monkeypatch.setattr(cld.gates, "_face_step", warm_step_off)
        out, _, fallbacks = project_to_cones(prob, S, faces)
        assert fallbacks == int(np.any(faces, axis=2).sum())
        for b in range(prob.op.B):
            for k in range(2):
                ref = nnls_cone_project(Cone(prob.cones[b % 4], prob.op.X), S[b, :, k])
                assert np.linalg.norm(out[b, :, k] - ref) <= 1e-12 * np.linalg.norm(S[b, :, k])

    def test_singular_face_falls_back(self, monkeypatch):
        # two equal rows in one face make A_J A_J^T exactly singular; the
        # kernel catches numpy's error and restarts those columns cold
        prob = exact_problem(6, 3, 2, 3, seed=4, zero_rows=0.0, duplicate=True)
        S = np.random.default_rng(4).standard_normal(prob.op.block_shape)
        hint = np.zeros((prob.op.B, 2, 6), dtype=bool)
        hint[..., :2] = True
        raised, real_solve = [], np.linalg.solve

        def solve(*args):
            try:
                return real_solve(*args)
            except np.linalg.LinAlgError:
                raised.append(args)
                raise

        monkeypatch.setattr(np.linalg, "solve", solve)
        out, _, fallbacks = project_to_cones(prob, S, hint)
        assert len(raised) == 1 and fallbacks == prob.op.B * 2
        for b in range(prob.op.B):
            for k in range(2):
                ref = nnls_cone_project(Cone(prob.cones[b % 3], prob.op.X), S[b, :, k])
                assert np.linalg.norm(out[b, :, k] - ref) <= 1e-12 * np.linalg.norm(S[b, :, k])



class TestConeProx:
    """The exact-mode ADMM step's z-update against the proximal Dykstra map."""

    # rows from {-1, 0, 1}^d keep every enumerated cone at least ~35 degrees
    # wide, where the cyclic Dykstra reference converges in a few hundred cycles
    ROWS = st.lists(st.lists(st.integers(-1, 1), min_size=3, max_size=3).filter(any),
                    min_size=1, max_size=6)

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    @pytest.mark.parametrize("case", ["outside", "inside", "vanishing"])
    @settings(max_examples=10, deadline=None)
    @given(ROWS, st.integers(1, 3), st.integers(1, 2), st.floats(0.0, 0.95),
           st.integers(0, 2**32 - 1))
    def test_shrunk_projection_is_the_prox(self, kind, case, rows, d, K, frac, seed):
        # group_prox(project_to_cones(x), t) is the prox of t * penalty plus the
        # cone indicator; "inside" starts in the cones, "vanishing" has every
        # ||proj x|| < t
        X = np.array(rows, dtype=float)[:, :d]
        X = X[np.any(X != 0.0, axis=1)]
        if X.shape[0] == 0:
            X = np.ones((1, d))
        n = X.shape[0]
        gates = enumerate_patterns(X)
        op = GatedOperator.split(X, gates, K)
        prob = ConvexProblem(op, np.zeros((n, K)), 0.1, kind, "exact", op.masks[:gates.P])
        B, P = prob.op.B, gates.P
        rng = np.random.default_rng(seed)
        S = 3.0 * rng.standard_normal(prob.op.block_shape)
        faces = np.zeros((B, K, n), dtype=bool)
        proj = project_to_cones(prob, S, faces)[0]
        if case == "inside":
            S = proj
        top = np.linalg.norm(proj.reshape(B, -1), axis=1).max()
        t = (1.05 + frac if case == "vanishing" else frac) * top
        got = group_prox(project_to_cones(prob, S, faces)[0], t, kind)
        if case == "vanishing":
            assert not np.any(got)
        # a group is one column for l21 and the whole block for frobenius; the
        # reference converges sublinearly when ||proj x|| is close to t, so
        # those groups are left out
        if kind == "l21":
            groups = [(b, slice(k, k + 1)) for b in range(B) for k in range(K)]
        else:
            groups = [(b, slice(None)) for b in range(B)]
        groups = [(b, cols) for b, cols in groups
                  if abs(np.linalg.norm(proj[b][:, cols]) - t) >= 0.05 * t]
        for i in rng.choice(len(groups), size=min(4, len(groups)), replace=False):
            b, cols = groups[i]
            ref, converged = prox_dykstra(Cone(op.masks[b], X), S[b][:, cols], t)
            assert converged
            assert np.abs(got[b][:, cols] - ref).max() <= 1e-8
