import warnings
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cld.admm
from cld.admm import AdmmConfig, GateConfig, TrainingError, admm_solve, train
from cld.cvxprog import ConvexProblem, group_norms, group_prox, max_cone_violation, objective
from cld.dataio import DataFormatError, LabelSet
from cld.gates import enumerate_patterns, sample_gates
from cld.head import predict_batch
from cld.linops import GatedOperator, gram_side, gram_solver
from cld.oracle import FistaConfig, dense_solve_smallest, fista_solve
from cld.synth import SynthSpec, generate, split

from conftest import cluster_data, random_problem, traced_peak
from reference import reference_admm

CONVERGED = dict(rho=0.1, admm_iters=600, stop_tol=1e-9)


def prox_outputs(monkeypatch) -> list:
    """Make the ADMM loop's ``group_prox`` record its outputs, the iterates z, in a list."""
    outputs = []

    def recording_prox(*args):
        outputs.append(group_prox(*args))
        return outputs[-1]

    monkeypatch.setattr(cld.admm, "group_prox", recording_prox)
    return outputs


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
        u = gram_solver(op, cfg.rho)[0](op.adjoint(prob.Y))
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


class TestAdmmConfig:
    @pytest.mark.parametrize("key, value", [
        ("rho", float("nan")), ("rho", float("inf")), ("rho", 0.0),
        ("beta", float("nan")), ("beta", float("inf")), ("beta", -1e-3),
        ("stop_tol", float("nan")), ("stop_tol", float("inf")), ("stop_tol", -1.0),
        ("seed", -1)])
    def test_value_that_gives_garbage_refused(self, key, value):
        # a NaN rho gives NaN weights, a NaN beta an all-zero head, a NaN or
        # negative stop_tol a run that can never stop early, and a negative
        # seed numpy's error, which names no setting
        with pytest.raises(ValueError, match=key):
            AdmmConfig(**{key: value})

    @pytest.mark.parametrize("key, value", [("count", 0), ("count", -3), ("seed", -1)])
    def test_gate_setting_refused(self, key, value):
        with pytest.raises(ValueError, match=key):
            GateConfig(**{key: value})

    def test_boundary_values_accepted(self):
        AdmmConfig(beta=0.0, stop_tol=0.0)


class TestObjectiveFromFactor:
    @staticmethod
    def _problem(mode, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((60, 4))
        Y = np.eye(2)[rng.integers(0, 2, 60)]
        gates = sample_gates(X, 4, seed=seed)
        if mode == "exact":
            op = GatedOperator.split(X, gates, 2)
            return ConvexProblem(op, Y, 1e-2, "l21", "exact", op.masks[:gates.P])
        return ConvexProblem(GatedOperator.relaxed(X, gates, 2), Y, 1e-2)

    @pytest.mark.parametrize("mode", ["relaxed", "exact"])
    @pytest.mark.parametrize("iters", [1, 3, 8])
    def test_history_objective_matches_apply(self, mode, iters):
        # the objective is evaluated once, at the returned weights, by the
        # apply-based objective itself: the same bits
        prob = self._problem(mode, seed=40 + iters)
        assert gram_side(prob.op) == "primal"
        cfg = AdmmConfig(rho=0.3, beta=1e-2, admm_iters=iters, mode=mode)
        result = admm_solve(prob, cfg)
        assert len(result.history) == iters
        assert result.objective == objective(prob, result.z)

    @staticmethod
    def _record_calls(monkeypatch) -> list:
        """Names of the operator passes and prox steps, in the order they run."""
        calls = []
        for name in ("apply", "adjoint"):
            method = getattr(GatedOperator, name)

            def counted(self, arg, _name=name, _method=method):
                calls.append(_name)
                return _method(self, arg)

            monkeypatch.setattr(GatedOperator, name, counted)

        def recording_prox(*args):
            calls.append("prox")
            return group_prox(*args)

        monkeypatch.setattr(cld.admm, "group_prox", recording_prox)
        return calls

    @pytest.mark.parametrize("mode", ["relaxed", "exact"])
    def test_primal_side_loop_makes_no_apply(self, monkeypatch, mode):
        # one adjoint forms F^T Y and the u-solves read the factor; the one
        # apply is the objective's, after the last iteration
        prob = self._problem(mode, seed=50)
        calls = self._record_calls(monkeypatch)
        admm_solve(prob, AdmmConfig(rho=0.3, beta=1e-2, admm_iters=5, mode=mode))
        assert calls == ["adjoint"] + ["prox"] * 5 + ["apply"]

    def test_kernel_side_counts_unchanged(self, monkeypatch):
        # B*d = 24 > n = 10: each u-solve is one apply and one adjoint, besides
        # the adjoint that forms F^T Y and the objective's apply after the loop,
        # 6 of each over 5 iterations
        prob = random_problem(n=10, d=3, K=2, P=8, beta=1e-2, seed=51)
        assert gram_side(prob.op) == "kernel"
        calls = self._record_calls(monkeypatch)
        admm_solve(prob, AdmmConfig(rho=0.3, beta=1e-2, admm_iters=5))
        assert calls == ["adjoint"] + ["apply", "adjoint", "prox"] * 5 + ["apply"]


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

    def test_train_serve_shape_holds_the_factor_and_one_row_block(self):
        # 9,600 synth rows, d = 64, 32 gates, K = 5: m = B d = 2,048. Beside its
        # inputs training holds the packed factor (17 MiB), the class-Gram table
        # or the diagonal inverses (2 MiB each) and one row block of scratch;
        # an n x B weight matrix or a whole class gathered at once crosses 22 MiB
        data = generate(SynthSpec(seed=1))
        rows, _, _ = split(data.labels.class_ids, seed=1)
        X = data.features.values[rows]
        labels = LabelSet(data.labels.class_ids[rows], data.labels.label_map)
        assert X.shape == (9600, 64) and labels.K == 5
        cfg = AdmmConfig(rho=100.0, admm_iters=2)
        head, peak = traced_peak(train, X, labels, GateConfig(count=32, seed=1), cfg)
        assert head.cert.B_l21 > 0.0
        assert peak < 22 * 2 ** 20

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
    def test_exact_mode_cone_copy_stays_feasible(self, n, d, seed, monkeypatch):
        # the copy is a shrunk exact projection, so every iterate lies in its
        # pattern cones to roundoff, not just to an iteration tolerance
        rng = np.random.default_rng(seed)
        K = 2
        X = rng.standard_normal((n, d))
        y = rng.integers(0, K, n)
        y[:K] = np.arange(K)
        gates = enumerate_patterns(X)
        op = GatedOperator.split(X, gates, K)
        prob = ConvexProblem(op, np.eye(K)[y], 1e-3, mode="exact", cones=op.masks[:gates.P])
        iterates = prox_outputs(monkeypatch)
        admm_solve(prob, AdmmConfig(rho=0.1, admm_iters=20, mode="exact"))
        violations = [max_cone_violation(prob, z) for z in iterates]
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
        (2, [0, 1], "abc", r"classes with no training examples: \['c'\]"),
    ])
    def test_malformed_training_input_rejected(self, rows, class_ids, names, message):
        X = np.random.default_rng(12).standard_normal((rows, 2))
        labels = LabelSet(np.array(class_ids), {name: k for k, name in enumerate(names)})
        with pytest.raises(TrainingError, match=message):
            train(X, labels, GateConfig(count=2), AdmmConfig())

    def test_non_finite_array_refused_before_any_gate_is_drawn(self, monkeypatch):
        # a raw array gets FeatureMatrix's check, as a read file does
        X = np.random.default_rng(12).standard_normal((60, 4))
        X[3, 1] = np.nan
        labels = LabelSet(np.arange(60) % 2, {"a": 0, "b": 1})
        monkeypatch.setattr("cld.admm.sample_gates", lambda *a, **k: pytest.fail("drew gates"))
        with pytest.raises(DataFormatError, match=r"non-finite feature entry at \(row 3, col 1\)"):
            train(X, labels, GateConfig(count=4), AdmmConfig(rho=0.1, admm_iters=5))

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

    @pytest.mark.parametrize("K, count", [(2, 10), (3, 32)])
    def test_default_gate_count_follows_the_class_count(self, K, count):
        # GateConfig() samples 10 patterns for two classes and 32 otherwise,
        # as cld train does, and records the count it resolved
        X, labels, _ = cluster_data(n=120, d=8, K=K, seed=15)
        head = train(X, labels, GateConfig(seed=15), AdmmConfig(rho=0.1, admm_iters=3))
        assert head.train_meta["gates"]["count"] == head.P == count

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
        # 4 gates on d=4 give B*d = 16 <= n = 30: the primal Gram is factored,
        # kept as one 16 x 16 block row
        assert {k: factor[k] for k in ("phase", "side", "size", "bytes")} == \
            {"phase": "u_factor", "side": "primal", "size": 16, "bytes": 8 * 16 * 16}
        assert factor["seconds"] >= 0.0
        # the seconds spent forming the Gram and factoring it, within the whole build
        assert min(factor["gram_seconds"], factor["factor_seconds"]) >= 0.0
        assert factor["gram_seconds"] + factor["factor_seconds"] <= factor["seconds"]
        assert [rec["iter"] for rec in iters] == list(range(7))
        # an iteration records what the loop decides on: its two residuals
        residuals = ("primal_residual", "dual_residual")
        assert all(set(rec) == {"iter", *residuals, "seconds"} for rec in iters)
        # the model's history holds the same numbers as the log
        assert head.train_meta["history"] == [{k: rec[k] for k in residuals} for rec in iters]
        # the objective, evaluated once at the returned weights
        obj = head.train_meta["objective"]
        assert set(obj) == {"total", "fit", "penalty", "cone_violation"}
        prob = ConvexProblem(GatedOperator.relaxed(X, head.gates, 2), labels.one_hot(), 1e-3)
        assert obj == asdict(objective(prob, head.V))
        # one closing record: no stop_tol, so the run ends on its cap
        assert summary == {
            "phase": "summary", "stopped": "cap", "iters": 7,
            "objective": obj["total"], "fit": obj["fit"], "penalty": obj["penalty"],
            "cone_violation": obj["cone_violation"], **{k: iters[-1][k] for k in residuals},
            "B_l21": head.cert.B_l21, "active_groups": summary["active_groups"],
            "zero_head": False,
            "aa_accepted": summary["aa_accepted"], "aa_rejected": summary["aa_rejected"],
        }
        # the first two steps are plain: no differences are stored before them
        assert summary["aa_accepted"] + summary["aa_rejected"] < summary["iters"]
        assert 0 < summary["active_groups"] <= 4 * 2

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_exact_summary_B_l21_is_the_certificates(self, seed):
        # V's and W's column norms are summed apart, as the certificate sums
        # them; one sum over all 2P blocks differed from it in the last bit
        # on these enumerated instances
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(8, 13)), int(rng.integers(2, 4))
        X = rng.standard_normal((n, d))
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        records = []
        head = train(X, LabelSet(y, {"a": 0, "b": 1}), GateConfig(enumerate_all=True),
                     AdmmConfig(rho=0.1, admm_iters=60, mode="exact"), log=records.append)
        assert records[-1]["B_l21"] == head.cert.B_l21 > 0.0
        op = GatedOperator.split(X, head.gates, 2)
        prob = ConvexProblem(op, np.eye(2)[y], 1e-3, mode="exact", cones=op.masks[:head.P])
        obj = objective(prob, np.concatenate([head.V, head.W]))
        assert head.train_meta["objective"] == asdict(obj)

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

    def test_history_finite_and_running_min_non_increasing(self, monkeypatch):
        prob = random_problem(n=25, d=4, K=2, P=4, beta=1e-3, seed=16)
        iterates = prox_outputs(monkeypatch)
        result = admm_solve(prob, AdmmConfig(rho=0.1, beta=1e-3, admm_iters=50))
        assert len(iterates) == len(result.history) == 50
        objs = np.array([objective(prob, z).total for z in iterates])
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

    def test_criterion_1_instances_stop_on_tol(self):
        # plain ADMM needs 858-1,289 iterations to reach stop_tol on these
        # ten instances; with Anderson acceleration each stops within the cap
        cfg = AdmmConfig(rho=0.1, beta=1e-3, admm_iters=250, stop_tol=1e-8)
        for i in range(10):
            prob = random_problem(n=200, d=16, K=3, P=32, beta=1e-3, seed=100 + i)
            records = []
            admm_solve(prob, cfg, log=records.append)
            summary = records[-1]
            assert summary["stopped"] == "tol" and summary["iters"] < 250, (i, summary)

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


class TestAnderson:
    @staticmethod
    def _problem(mode, n, d, K, P, beta, kind, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        Y = np.eye(K)[rng.integers(0, K, n)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # fewer distinct patterns than P
            gates = sample_gates(X, P, seed=seed)
        if mode == "exact":
            op = GatedOperator.split(X, gates, K)
            return ConvexProblem(op, Y, beta, kind, mode, op.masks[:gates.P])
        return ConvexProblem(GatedOperator.relaxed(X, gates, K), Y, beta, kind)

    @pytest.mark.parametrize("mode", ["relaxed", "exact"])
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(4, 16), d=st.integers(1, 4), K=st.integers(2, 3), P=st.integers(1, 4),
           rho=st.sampled_from([0.1, 0.3, 1.0]), beta=st.floats(1e-3, 1e-1),
           kind=st.sampled_from(["l21", "frobenius"]), seed=st.integers(0, 2**32 - 1))
    def test_reaches_the_plain_loops_optimum(self, mode, n, d, K, P, rho, beta, kind, seed):
        prob = self._problem(mode, n, d, K, P, beta, kind, seed)
        cfg = AdmmConfig(rho=rho, beta=beta, mode=mode, penalty_kind=kind,
                         admm_iters=3002, stop_tol=1e-10)
        plain, reached = reference_admm(prob, cfg.r, 1500, 1e-10)
        assume(reached)              # plain ADMM is slow on some degenerate instances
        seen = []

        def recording_prox(v, threshold, penalty_kind):
            seen[:] = [np.array(v), threshold]
            return group_prox(v, threshold, penalty_kind)

        with mock.patch.object(cld.admm, "group_prox", recording_prox):
            records = []
            z = admm_solve(prob, cfg, log=records.append).z
        assert records[-1]["stopped"] == "tol"
        ours, ref = objective(prob, z), objective(prob, plain)
        assert abs(ours.total - ref.total) <= 1e-9 * abs(ref.total)
        # z is the last prox output: the groups the prox zeroes are exactly zero
        v, threshold = seen
        zeroed = group_norms(v, kind) <= threshold
        np.testing.assert_array_equal(group_norms(z, kind) == 0.0, zeroed)
        if mode == "exact":
            assert ours.cone_violation <= 1e-10

    def test_no_memory_is_the_plain_loop(self, monkeypatch):
        # when not even one difference pair fits in ROW_BLOCK_BYTES, every step is plain
        monkeypatch.setattr(cld.admm, "AA_MEMORY", 0)
        prob = random_problem(n=40, d=5, K=2, P=6, beta=1e-3, seed=15)
        cfg = AdmmConfig(rho=0.1, beta=1e-3, admm_iters=80)
        np.testing.assert_array_equal(admm_solve(prob, cfg).z,
                                      reference_admm(prob, cfg.r, 80, 0.0)[0])

    def test_step_stays_bounded_where_residual_differences_vanish(self):
        # here plain ADMM drifts at a constant residual for hundreds of steps;
        # with a ridge on the residual differences alone a candidate jumped
        # to |z| ~ 1e12 and the run stopped there on rounding (objective 3e9)
        prob = self._problem("exact", n=4, d=1, K=2, P=2, beta=1e-3, kind="l21", seed=4)
        cfg = AdmmConfig(rho=1.0, beta=1e-3, mode="exact", admm_iters=3002, stop_tol=1e-10)
        plain, reached = reference_admm(prob, cfg.r, 3000, 1e-10)
        assert reached
        ours = objective(prob, admm_solve(prob, cfg).z).total
        assert ours == pytest.approx(objective(prob, plain).total, rel=1e-9, abs=0.0)
