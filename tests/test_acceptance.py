"""End-to-end acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS line with the measured margins; `pytest -v` adds the
per-criterion pass/fail verdict. Solver settings here are the converged
profiles (larger rho, more iterations than the paper-default 6), since
several criteria compare against global optima.
"""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from cld.admm import AdmmConfig, GateConfig, admm_solve, train
from cld.cert import (
    certify_batch,
    var_bound_fro,
    var_bound_l21,
    amgm_bound,
)
from cld.cli import main
from cld.cvxprog import objective
from cld.dataio import LabelSet
from cld.gates import (
    enumerate_patterns,
    pattern_of,
    sample_gates,
)
from cld.head import predict_batch, to_relu
from cld.linops import GatedOperator
from cld.oracle import FistaConfig, dense_solve_smallest, fista_solve
from cld.synth import SynthSpec, generate, split

from conftest import cluster_data, project_one, random_problem
from reference import (
    Cone,
    cone_violation,
    fd_gradcheck,
    fit_value_and_grad,
    gate_identity_check,
    margin_gap_check,
    nnls_cone_project,
    project_cone,
)
from test_gates import sweep_oracle_2d
from test_head import make_head


def _oracle_instance(seed):
    """One three-solver comparison; module-level so worker pools can run it."""
    prob = random_problem(n=200, d=16, K=3, P=32, beta=1e-3, seed=100 + seed)
    result = admm_solve(prob, AdmmConfig(rho=0.1, beta=1e-3, admm_iters=250, stop_tol=1e-8))
    admm_obj = objective(prob, result.z).total
    fista = fista_solve(prob, FistaConfig(max_iters=10000, rel_obj_tol=1e-12, seed=seed))
    dense = dense_solve_smallest(prob, max_iters=11000)
    values = (admm_obj, fista.objective, dense.objective)
    return (max(values) - min(values)) / abs(max(values))


def test_criterion_1_oracle_equivalence(monkeypatch):
    """Three solvers reach the same optimum on 10 medium instances, fast."""
    # The 60 s bound assumes two workers at one BLAS thread each on a 2-core
    # box. BLAS reads its thread count once, when it loads, so the limit goes
    # into the environment of freshly spawned workers; the parent's BLAS is
    # already loaded and keeps its own setting.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    start = time.perf_counter()
    # instances are independent problems; run two at a time
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        spreads = list(pool.map(_oracle_instance, range(10)))
    elapsed = time.perf_counter() - start
    assert max(spreads) <= 1e-4, f"objective spread {max(spreads):.2e} exceeds 1e-4"
    assert elapsed <= 60.0, f"oracle equivalence took {elapsed:.1f}s > 60s"
    print(f"\n[criterion 1] PASS oracle equivalence: worst relative spread "
          f"{max(spreads):.2e} over 10 instances in {elapsed:.1f}s")


def test_criterion_2_exact_representation_equivalence():
    """Split-mode training with full enumeration maps to an identical ReLU net."""
    cases = [(10, 2, 3), (12, 2, 5), (11, 2, 11), (9, 3, 7), (8, 3, 13)]
    worst = 0.0
    for n, d, seed in cases:
        rng = np.random.default_rng(seed)
        K = 2
        X = rng.standard_normal((n, d))
        y = rng.integers(0, K, n)
        y[:K] = np.arange(K)
        labels = LabelSet(y, {"a": 0, "b": 1})
        cfg = AdmmConfig(rho=0.1, admm_iters=60, mode="exact")
        head = train(X, labels, GateConfig(enumerate_all=True), cfg)
        op = GatedOperator.split(X, head.gates, K)
        convex_logits = op.apply(np.concatenate([head.V, head.W], axis=0))
        relu_logits = to_relu(head).apply(X)
        gap = float(np.abs(convex_logits - relu_logits).max())
        worst = max(worst, gap)
        assert gap <= 1e-6, f"(n={n}, d={d}): relu/convex gap {gap:.2e}"
    print(f"\n[criterion 2] PASS exact-representation equivalence: "
          f"worst logit gap {worst:.2e} over {len(cases)} enumerated instances")


def test_criterion_3_gate_identity_and_projection_feasibility():
    """Sampled gates satisfy the gate identity; projections land in their cones."""
    rng = np.random.default_rng(0)
    checked = 0
    for trial in range(50):
        n = int(rng.integers(5, 20))
        d = int(rng.integers(2, 7))
        X = rng.standard_normal((n, d))
        gs = sample_gates(X, 20, seed=trial, dedup=False)
        for active, g in zip(gs.patterns(X), gs.generators):
            assert gate_identity_check(Cone(active, X), g, tol=1e-12)
            checked += 1
    assert checked == 1000
    worst_dykstra, worst_exact, worst_ref = 0.0, 0.0, 0.0
    for trial in range(100):
        n = int(rng.integers(4, 11))
        d = int(rng.integers(2, 5))
        X = rng.standard_normal((n, d))
        cone = Cone(sample_gates(X, 1, seed=1000 + trial).patterns(X)[0], X)
        v = 4.0 * rng.standard_normal(d)
        projected, _ = project_cone(cone, v, tol=1e-8)
        worst_dykstra = max(worst_dykstra, cone_violation(cone, projected))
        exact = project_one(cone, v)
        worst_exact = max(worst_exact, cone_violation(cone, exact))
        # the library's projector is scipy's NNLS projection to roundoff
        worst_ref = max(worst_ref, np.linalg.norm(exact - nnls_cone_project(cone, v))
                        / np.linalg.norm(v))
    assert worst_dykstra <= 1e-7
    assert worst_exact <= 1e-10
    assert worst_ref <= 1e-12
    print(f"\n[criterion 3] PASS gate identity on 1000 sampled pairs at 1e-12; "
          f"projection violations {worst_dykstra:.2e} (cyclic) / {worst_exact:.2e} (exact), "
          f"exact vs NNLS reference {worst_ref:.2e}")


def _ten_heads():
    heads = []
    specs = [(60, 6, 2), (80, 8, 2), (100, 10, 3), (90, 6, 3), (120, 12, 2),
             (70, 7, 2), (110, 9, 3), (100, 8, 2), (80, 10, 3), (90, 12, 2)]
    for i, (n, d, K) in enumerate(specs):
        X, labels, _ = cluster_data(n=n, d=d, K=K, separation=4.0, seed=50 + i)
        cfg = AdmmConfig(rho=0.1, beta=1e-3, admm_iters=250, stop_tol=1e-8)
        heads.append(train(X, labels, GateConfig(count=8, seed=50 + i), cfg))
    return heads


def test_criterion_4_lipschitz_certificate():
    """Sampled logit differences never exceed the column-norm bound."""
    rng = np.random.default_rng(1)
    violations = 0
    worst_ratio = 0.0
    for head in _ten_heads():
        B = head.cert.B_l21
        assert B == pytest.approx(var_bound_l21(head))
        assert B <= var_bound_fro(head) + 1e-12
        assert B <= amgm_bound(to_relu(head)) + 1e-12
        H1 = 3.0 * rng.standard_normal((10000, head.d))
        H2 = 3.0 * rng.standard_normal((10000, head.d))
        lhs = np.abs(predict_batch(head, H1, "relu")
                     - predict_batch(head, H2, "relu")).max(axis=1)
        rhs = B * np.linalg.norm(H1 - H2, axis=1)
        violations += int(np.sum(lhs > rhs + 1e-12))
        with np.errstate(invalid="ignore", divide="ignore"):
            worst_ratio = max(worst_ratio, float(np.nanmax(lhs / np.maximum(rhs, 1e-300))))
    assert violations == 0
    print(f"\n[criterion 4] PASS Lipschitz certificate: 0 violations over "
          f"10 heads x 10^4 pairs (worst ratio {worst_ratio:.3f}); bound ordering holds")


def test_criterion_5_margin_stability_soundness():
    """Certified radii admit no label flips; the margin gap bound always holds."""
    data = generate(SynthSpec(languages=3, accents_per_language=(2, 2, 2), dim=16,
                              samples_per_accent=850, seed=2))
    tr, te, _ = split(data.labels.class_ids, seed=2)
    X = data.features.values
    labels = LabelSet(data.labels.class_ids[tr], data.labels.label_map)
    cfg = AdmmConfig(rho=100.0, beta=1e-3, admm_iters=120, stop_tol=1e-7)
    head = train(X[tr], labels, GateConfig(count=32, seed=2), cfg)
    test_idx = te[:500]
    assert len(test_idx) == 500
    certs = certify_batch(head, X[test_idx], data.labels.class_ids[test_idx])
    certified = np.flatnonzero(certs.certified)
    assert len(certified) > 0
    rng = np.random.default_rng(3)
    flips = 0
    for k in certified:
        deltas = rng.standard_normal((10000, head.d))
        deltas *= (0.99 * certs.radius_feature[k]) / np.linalg.norm(deltas, axis=1, keepdims=True)
        preds = predict_batch(head, X[test_idx[k]] + deltas, "relu").argmax(axis=1)
        flips += int(np.sum(preds != certs.pred[k]))
    assert flips == 0, f"{flips} label flips inside certified radii"

    holds = 0
    for t in range(10):
        rng_t = np.random.default_rng(400 + t)
        V = rng_t.standard_normal((3, 4, 3))
        W = rng_t.standard_normal((3, 4, 3)) * (t % 2)
        rand_head = make_head(V, W, seed=t)
        for _ in range(1000):
            h = 3.0 * rng_t.standard_normal(4)
            delta = rng_t.standard_normal(4) * 10.0 ** rng_t.uniform(-3, 1)
            y = int(rng_t.integers(0, 3))
            _, _, ok = margin_gap_check(rand_head, h, y, delta)
            holds += int(ok)
    assert holds == 10000
    print(f"\n[criterion 5] PASS margin stability: 0 flips over "
          f"{len(certified)} certified points x 10^4 perturbations at 0.99r; "
          f"margin gap bound held on 10^4 random triples")


def test_criterion_6_sample_efficiency(tmp_path):
    """Accuracy stays high and flat across training sizes on the default synth data."""
    start = time.perf_counter()
    rc = main(["bench", "--out", str(tmp_path / "bench"),
               "--sizes", "100,500,1000,10000",
               "--log", str(tmp_path / "bench.log"),
               "--rho", "100", "--admm-iters", "60", "--stop-tol", "1e-7",
               "--seed", "0"])
    elapsed = time.perf_counter() - start
    assert rc == 0
    rows = (tmp_path / "bench" / "accuracy_vs_size.csv").read_text().strip().splitlines()[1:]
    accs = {int(r.split(",")[0]): float(r.split(",")[2]) for r in rows}
    assert set(accs) == {100, 500, 1000, 10000}
    spread = max(accs.values()) - min(accs.values())
    assert min(accs.values()) >= 0.95, f"accuracy dipped to {min(accs.values()):.4f}"
    assert spread <= 0.03, f"accuracy spread {spread:.4f} exceeds 3 points"
    assert elapsed <= 300.0, f"benchmark took {elapsed:.0f}s > 5 min"
    print(f"\n[criterion 6] PASS sample efficiency: accuracies "
          f"{[round(accs[s], 4) for s in (100, 500, 1000, 10000)]}, "
          f"spread {spread:.4f}, {elapsed:.0f}s")


def _run_pipeline(root, threads, monkeypatch):
    monkeypatch.setenv("CLD_THREADS", threads)
    root.mkdir(parents=True, exist_ok=True)
    data = root / "data"
    fast = ["--rho", "0.1", "--admm-iters", "40", "--stop-tol", "1e-8",
            "--seed", "4"]
    assert main(["synth", "--out", str(data), "--languages", "2", "--accents", "2,2",
                 "--dim", "8", "--samples-per-accent", "25", "--seed", "4"]) == 0
    assert main(["train", "--manifest", str(data / "manifest.json"),
                 "--out", str(root / "model.json"), "--log", str(root / "train.log"),
                 *fast]) == 0
    assert main(["predict", "--model", str(root / "model.json"),
                 "--features", str(data / "features.cldf"),
                 "--out", str(root / "preds.csv"), "--log", str(root / "p.log")]) == 0
    assert main(["certify", "--model", str(root / "model.json"),
                 "--manifest", str(data / "manifest.json"),
                 "--out", str(root / "certs.csv"), "--summary", str(root / "summary.json")]) == 0
    assert main(["eval", "--model", str(root / "model.json"),
                 "--manifest", str(data / "manifest.json"),
                 "--out", str(root / "report.json")]) == 0
    assert main(["bench", "--out", str(root / "bench"), "--languages", "2",
                 "--accents", "1,1", "--dim", "6", "--samples-per-accent", "20",
                 "--sizes", "16", "--log", str(root / "b.log"), *fast]) == 0
    deterministic = [
        data / "features.cldf", data / "labels.csv", data / "manifest.json",
        data / "accents.csv", root / "model.json", root / "preds.csv",
        root / "certs.csv", root / "summary.json", root / "report.json",
        root / "bench" / "accuracy_vs_size.csv", root / "bench" / "metrics_16.json",
        root / "bench" / "per_accent_16.csv",
    ]
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in deterministic}


def test_criterion_7_determinism(tmp_path, monkeypatch):
    """Every command byte-reproduces its outputs at 1 and 4 worker threads."""
    run1 = _run_pipeline(tmp_path / "run1", "1", monkeypatch)
    run2 = _run_pipeline(tmp_path / "run2", "4", monkeypatch)
    assert run1.keys() == run2.keys()
    diffs = [name for name in run1 if run1[name] != run2[name]]
    assert not diffs, f"outputs differ between thread settings: {diffs}"
    print(f"\n[criterion 7] PASS determinism: {len(run1)} output files byte-identical "
          f"across reruns at CLD_THREADS=1 and 4")


def test_criterion_8_gradient_correctness():
    """Central differences agree with the analytic fit gradient."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        prob = random_problem(n=int(rng.integers(8, 30)), d=int(rng.integers(2, 6)),
                              K=int(rng.integers(2, 4)), P=int(rng.integers(2, 6)),
                              seed=700 + seed)
        fun, grad = fit_value_and_grad(prob)
        point = rng.standard_normal(prob.op.block_shape)
        err = fd_gradcheck(fun, grad, point, seed=seed)
        worst = max(worst, err)
        assert err <= 1e-5
    print(f"\n[criterion 8] PASS gradient correctness: worst relative error "
          f"{worst:.2e} over 20 instances")


def test_criterion_9_enumeration_sanity():
    """Enumerated pattern counts match the angular sweep and the cell bound."""
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(3, 9))
        X = rng.standard_normal((n, 2))
        gs = enumerate_patterns(X)
        sweep = sweep_oracle_2d(X)
        bound = 2 * n   # 2 * sum_{k<=1} C(n-1, k) for lines through the origin
        assert gs.P == len(sweep), f"seed {seed}: {gs.P} patterns vs sweep {len(sweep)}"
        assert {pattern_of(X, g).tobytes() for g in gs.generators} == sweep
        assert gs.P <= bound
    print("\n[criterion 9] PASS enumeration sanity: counts equal the sweep oracle "
          "and respect the arrangement bound on 20 instances")
