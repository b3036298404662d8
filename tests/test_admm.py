import warnings

import numpy as np
import pytest

from cld.admm import AdmmConfig, GateConfig, TrainingError, admm_solve, train
from cld.cvxprog import ConvexProblem, group_prox, objective
from cld.dataio import LabelSet
from cld.gates import enumerate_patterns
from cld.head import predict_batch
from cld.linops import GatedOperator, gram_solver
from cld.oracle import FistaConfig, dense_solve_smallest, fista_solve

from conftest import cluster_data, random_problem

CONVERGED = dict(rho=0.1, admm_iters=600, stop_tol=1e-9)


class TestAdmmStep:
    def test_beta_zero_reaches_least_squares(self):
        prob = random_problem(n=20, d=4, K=2, P=4, beta=0.0, seed=0)
        cfg = AdmmConfig(beta=0.0, **CONVERGED)
        result = admm_solve(prob, cfg)
        dense = dense_solve_smallest(prob)
        final = objective(prob, result.z)
        assert final.fit == pytest.approx(dense.objective, abs=1e-6)

    def test_zero_targets_stay_zero(self):
        prob = random_problem(n=10, d=3, K=2, P=3, beta=1e-2, seed=1)
        import dataclasses

        prob = dataclasses.replace(prob, Y=np.zeros_like(prob.Y))
        cfg = AdmmConfig(rho=0.5, beta=1e-2, admm_iters=10)
        result = admm_solve(prob, cfg)
        np.testing.assert_array_equal(result.z, np.zeros(prob.op.block_shape))
        # a zero primal residual at every step means u = z = 0 throughout
        assert [r.primal for r in result.history] == [0.0] * 10

    def test_first_step_is_definitional(self):
        # from z = lam = 0 the first u solves (F^T F + rho I) u = F^T Y, and
        # z is group_prox(u, beta/rho) of it
        prob = random_problem(n=12, d=3, K=2, P=3, beta=1e-2, seed=2)
        cfg = AdmmConfig(rho=0.25, beta=1e-2, admm_iters=1)
        op = prob.op
        u = gram_solver(op, cfg.rho)(op.adjoint(prob.Y))
        np.testing.assert_array_equal(
            admm_solve(prob, cfg).z, group_prox(u, cfg.beta / cfg.rho, prob.penalty_kind)
        )

    def test_mode_mismatch_rejected(self):
        prob = random_problem(seed=3)
        cfg = AdmmConfig(mode="exact")
        with pytest.raises(ValueError, match="mode"):
            admm_solve(prob, cfg)

    @pytest.mark.parametrize("change", [{"beta": 0.1}, {"penalty_kind": "frobenius"}])
    def test_beta_or_penalty_mismatch_rejected(self, change):
        # the prox would shrink with the config's beta while the objective,
        # history and log report the problem's
        prob = random_problem(n=40, d=5, K=2, P=6, beta=1e-3, seed=15)
        cfg = AdmmConfig(rho=0.1, admm_iters=3, **change)
        with pytest.raises(ValueError, match="beta, penalty_kind"):
            admm_solve(prob, cfg)


class TestResiduals:
    def test_primal_zero_when_copies_agree(self):
        prob = random_problem(n=10, d=3, K=2, P=2, beta=0.0, seed=4)
        cfg = AdmmConfig(beta=0.0, **CONVERGED)
        last = admm_solve(prob, cfg).history[-1]
        assert last.primal <= 1e-9 and last.dual <= 1e-9

    def test_dual_zero_when_z_frozen(self):
        # a shrinkage threshold large enough to pin z at zero keeps the dual
        # residual exactly zero step after step
        prob = random_problem(n=8, d=2, K=2, P=2, beta=1e6, seed=5)
        cfg = AdmmConfig(rho=1.0, beta=1e6, admm_iters=2)
        result = admm_solve(prob, cfg)
        np.testing.assert_array_equal(result.z, np.zeros(prob.op.block_shape))
        assert len(result.history) == 2
        assert [r.dual for r in result.history] == [0.0, 0.0]
        assert result.history[-1].primal > 0.0   # u still moves


class TestTrain:
    def test_separable_clusters_train_accuracy_one(self):
        X, labels, _ = cluster_data(n=100, d=8, K=2, seed=7)
        cfg = AdmmConfig(**CONVERGED)
        head = train(X, labels, GateConfig(count=10, seed=7), cfg)
        preds = predict_batch(head, X).argmax(axis=1)
        # margin-check oracle: class centers are linearly separable, so the
        # fitted head must reach perfect training accuracy
        assert np.mean(preds == labels.class_ids) == 1.0
        margins = np.sort(predict_batch(head, X), axis=1)
        assert np.all(margins[:, -1] > margins[:, -2] - 1e-12)

    def test_gated_inference_equals_training_fit(self):
        X, labels, _ = cluster_data(n=60, d=6, K=3, seed=8)
        cfg = AdmmConfig(rho=0.1, admm_iters=40)
        head = train(X, labels, GateConfig(count=6, seed=8), cfg)
        op = GatedOperator.relaxed(X, head.gates, labels.K)
        fitted = op.apply(head.V)
        gated = predict_batch(head, X, inference="gated")
        assert np.max(np.abs(fitted - gated)) <= 1e-12

    def test_exact_mode_relu_equivalence(self):
        rng = np.random.default_rng(9)
        n, d, K = 9, 2, 2
        X = rng.standard_normal((n, d))
        y = rng.integers(0, K, n)
        y[:K] = np.arange(K)
        labels = LabelSet(y, {"a": 0, "b": 1})
        cfg = AdmmConfig(rho=0.1, admm_iters=60, mode="exact")
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            head = train(X, labels, GateConfig(enumerate_all=True), cfg)
        gated = predict_batch(head, X, inference="gated")
        relu = predict_batch(head, X, inference="relu")
        assert np.max(np.abs(gated - relu)) <= 1e-6

    @pytest.mark.parametrize("n, d, seed", [(10, 2, 3), (9, 3, 7)])
    def test_exact_mode_cone_copy_stays_feasible(self, n, d, seed):
        # the copy is a shrunk exact projection, so every iterate lies in its
        # pattern cones to roundoff, not just to an iteration tolerance
        rng = np.random.default_rng(seed)
        K = 2
        X = rng.standard_normal((n, d))
        y = rng.integers(0, K, n)
        y[:K] = np.arange(K)
        gates = enumerate_patterns(X)
        prob = ConvexProblem(GatedOperator.split(X, gates, K), np.eye(K)[y], 1e-3,
                             mode="exact", cones=gates.active)
        records = []
        admm_solve(prob, AdmmConfig(rho=0.1, admm_iters=20, mode="exact"), log=records.append)
        violations = [rec["cone_violation"] for rec in records if "iter" in rec]
        assert len(violations) == 20
        assert max(violations) <= 1e-10

    def test_exact_mode_fallback_budget(self, monkeypatch):
        # a column's active face seldom changes from one step to the next, so
        # most projections are accepted on their hinted face
        import cld.admm

        counts = {"columns": 0, "misses": 0}
        project = cld.admm.project_to_cones

        def counting_project(prob, S, faces):
            out, faces, misses = project(prob, S, faces)
            counts["columns"] += int(np.any(S != 0.0, axis=1).sum())
            counts["misses"] += misses
            return out, faces, misses

        monkeypatch.setattr(cld.admm, "project_to_cones", counting_project)
        rng = np.random.default_rng(7)   # criterion-2 instance (9, 3, 7)
        X = rng.standard_normal((9, 3))
        y = rng.integers(0, 2, 9)
        y[:2] = np.arange(2)
        train(X, LabelSet(y, {"a": 0, "b": 1}), GateConfig(enumerate_all=True),
              AdmmConfig(rho=0.1, admm_iters=60, mode="exact"))
        assert counts["columns"] > 0
        assert counts["misses"] <= 0.15 * counts["columns"]

    def test_exact_log_counts_cone_fallbacks(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((10, 2))
        y = rng.integers(0, 2, 10)
        y[:2] = np.arange(2)
        labels = LabelSet(y, {"a": 0, "b": 1})
        exact, relaxed = [], []
        head = train(X, labels, GateConfig(enumerate_all=True),
                     AdmmConfig(rho=0.1, admm_iters=10, mode="exact"), log=exact.append)
        train(X, labels, GateConfig(count=4, seed=3), AdmmConfig(rho=0.1, admm_iters=10),
              log=relaxed.append)
        fallbacks = [r["cone_fallbacks"] for r in exact if "iter" in r]
        assert all(isinstance(f, int) and f >= 0 for f in fallbacks)
        assert exact[-1]["phase"] == "summary" and exact[-1]["cone_fallbacks"] == sum(fallbacks)
        # nothing is known of the faces at the first step
        assert fallbacks[0] > 0
        assert "cone_fallbacks" not in head.train_meta["history"][0]
        assert all("cone_fallbacks" not in r for r in relaxed)

    def test_default_config_warns_on_all_zero_head(self):
        X, labels, _ = cluster_data(n=60, d=6, K=2, seed=19)
        with pytest.warns(UserWarning, match="all zero"):
            head = train(X, labels, GateConfig(count=6, seed=19), AdmmConfig())
        assert head.cert.B_l21 == 0.0

    def test_missing_class_rejected(self):
        X = np.random.default_rng(10).standard_normal((6, 2))
        labels = LabelSet(np.zeros(6, dtype=int), {"a": 0, "b": 1})
        with pytest.raises(TrainingError, match="no training examples"):
            train(X, labels, GateConfig(count=2), AdmmConfig())

    @pytest.mark.parametrize("rows, class_ids, names, message", [
        (6, [0, 1, 0, 1, 0], "ab", "6 feature rows but 5 labels"),
        (2, [0, 1], "abc", "need at least K=3 examples, got 2"),
    ])
    def test_malformed_training_input_rejected(self, rows, class_ids, names, message):
        X = np.random.default_rng(12).standard_normal((rows, 2))
        labels = LabelSet(np.array(class_ids), {name: k for k, name in enumerate(names)})
        with pytest.raises(TrainingError, match=message):
            train(X, labels, GateConfig(count=2), AdmmConfig())

    def test_thin_class_warns_but_trains(self):
        X = np.random.default_rng(11).standard_normal((7, 2))
        labels = LabelSet(np.array([0, 0, 0, 0, 0, 0, 1]), {"a": 0, "b": 1})
        with pytest.warns(UserWarning, match="fewer than 2"):
            head = train(X, labels, GateConfig(count=3, seed=11),
                         AdmmConfig(rho=0.1, admm_iters=5))
        assert head.K == 2

    def test_zero_variance_feature_column_is_harmless(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((20, 4))
        X[:, 2] = 0.0
        labels = LabelSet(rng.integers(0, 2, 20), {"a": 0, "b": 1})
        head = train(X, labels, GateConfig(count=4, seed=12),
                     AdmmConfig(rho=0.1, admm_iters=5))
        assert np.all(np.isfinite(head.V))

    def test_deterministic_per_seed(self):
        X, labels, _ = cluster_data(n=40, d=5, K=2, seed=13)
        cfg = AdmmConfig(rho=0.1, admm_iters=20)
        h1 = train(X, labels, GateConfig(count=5, seed=13), cfg)
        h2 = train(X, labels, GateConfig(count=5, seed=13), cfg)
        np.testing.assert_array_equal(h1.V, h2.V)
        assert h1.cert.B_l21 == h2.cert.B_l21

    def test_training_log_records_every_iteration(self):
        X, labels, _ = cluster_data(n=30, d=4, K=2, seed=14)
        records = []
        head = train(X, labels, GateConfig(count=4, seed=14),
                     AdmmConfig(rho=0.1, admm_iters=7), log=records.append)
        factor, iters, summary = records[0], records[1:-1], records[-1]
        # 4 gates on d=4 give B*d = 16 <= n = 30: the primal Gram is factored
        assert {k: factor[k] for k in ("phase", "side", "size")} == \
            {"phase": "u_factor", "side": "primal", "size": 16}
        assert factor["seconds"] >= 0.0
        assert [rec["iter"] for rec in iters] == list(range(7))
        fields = ("objective", "fit", "penalty", "cone_violation",
                  "primal_residual", "dual_residual")
        # the model's history holds the same numbers as the log
        assert head.train_meta["history"] == [{k: rec[k] for k in fields} for rec in iters]
        # one closing record: no stop_tol, so the run ends on its cap
        assert summary == {
            "phase": "summary", "stopped": "cap", "iters": 7,
            **{k: iters[-1][k] for k in fields},
            "active_groups": summary["active_groups"], "zero_head": False,
        }
        assert 0 < summary["active_groups"] <= 4 * 2

    def test_summary_record_says_why_the_run_stopped(self):
        X, labels, _ = cluster_data(n=30, d=4, K=2, seed=14)
        records = []
        head = train(X, labels, GateConfig(count=4, seed=14),
                     AdmmConfig(rho=0.1, admm_iters=500, stop_tol=1e-6), log=records.append)
        summary = records[-1]
        assert summary["phase"] == "summary" and summary["stopped"] == "tol"
        assert summary["iters"] == len(head.train_meta["history"]) < 500
        assert max(summary["primal_residual"], summary["dual_residual"]) <= 1e-6
        assert summary["active_groups"] == int(np.count_nonzero(
            np.linalg.norm(head.V, axis=1)))
        records.clear()
        with pytest.warns(UserWarning, match="all zero"):
            train(X, labels, GateConfig(count=4, seed=14), AdmmConfig(), log=records.append)
        assert records[-1]["zero_head"] is True and records[-1]["active_groups"] == 0


class TestSolverContracts:
    def test_matches_fista_objective(self):
        prob = random_problem(n=40, d=5, K=2, P=6, beta=1e-3, seed=15)
        result = admm_solve(prob, AdmmConfig(beta=1e-3, **CONVERGED))
        admm_obj = objective(prob, result.z).total
        fista = fista_solve(prob, FistaConfig(max_iters=30000, rel_obj_tol=1e-14))
        rel = abs(admm_obj - fista.objective) / max(abs(fista.objective), 1e-12)
        assert rel <= 1e-4

    def test_history_finite_and_running_min_non_increasing(self):
        prob = random_problem(n=25, d=4, K=2, P=4, beta=1e-3, seed=16)
        result = admm_solve(prob, AdmmConfig(rho=0.1, beta=1e-3, admm_iters=50))
        objs = np.array([r.objective.total for r in result.history])
        assert np.all(np.isfinite(objs))
        running = np.minimum.accumulate(objs)
        assert np.all(np.diff(running) <= 0.0)

    def test_penalty_non_increasing_along_beta_ladder(self):
        X, labels, _ = cluster_data(n=50, d=5, K=2, seed=17)
        pens = []
        for beta in (1e-4, 1e-3, 1e-2, 1e-1):
            cfg = AdmmConfig(rho=0.1, beta=beta, admm_iters=400, stop_tol=1e-9)
            head = train(X, labels, GateConfig(count=6, seed=17), cfg)
            pens.append(head.cert.B_l21)
        for lo, hi in zip(pens[1:], pens[:-1]):
            assert lo <= hi + 1e-8

    def test_early_stop_on_stop_tol(self):
        prob = random_problem(n=20, d=3, K=2, P=3, beta=0.0, seed=18)
        cfg = AdmmConfig(beta=0.0, rho=0.5, admm_iters=500, stop_tol=1e-8)
        result = admm_solve(prob, cfg)
        assert len(result.history) < 500
        assert max(result.history[-1].primal, result.history[-1].dual) <= 1e-8

    @pytest.mark.parametrize("stop_tol", [1e-3, 1e-6])
    def test_stop_tol_ends_on_first_iteration_within_it(self, stop_tol):
        # the stopped run is the capped run cut after its first iteration
        # whose residuals are both at most stop_tol; every earlier one is above
        prob = random_problem(n=25, d=4, K=2, P=4, beta=1e-3, seed=21)
        base = dict(rho=0.1, beta=1e-3, admm_iters=300)
        capped = admm_solve(prob, AdmmConfig(**base)).history
        stopped = admm_solve(prob, AdmmConfig(**base, stop_tol=stop_tol)).history
        worst = [max(r.primal, r.dual) for r in capped]
        first = next(i for i, w in enumerate(worst) if w <= stop_tol)
        assert 0 < first < 299
        assert stopped == capped[:first + 1]
        assert all(max(r.primal, r.dual) > stop_tol for r in stopped[:-1])
        assert max(stopped[-1].primal, stopped[-1].dual) <= stop_tol
