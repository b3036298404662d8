import hashlib
import itertools
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cld.linops
from cld.dataio import FeatureMatrix, read_features, write_features
from cld.gates import (
    GateSet,
    enumerate_patterns,
    pattern_of,
    project_cones,
    sample_gates,
)
from cld.synth import SynthSpec, generate, split
from conftest import project_one
from reference import (
    Cone,
    bitstrings,
    cone_violation,
    gate_identity_check,
    nnls_cone_project,
    project_cone,
    reference_enumerate,
)


def qp_projection_oracle(A, x):
    """Exact projection onto {v : Av >= 0} by active-subset enumeration.

    For every subset of constraints treated as equalities, project x onto
    their null space; the best feasible candidate is the projection.
    """
    n = A.shape[0]
    best, best_dist = None, np.inf
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            if subset:
                M = A[list(subset)]
                cand = x - M.T @ np.linalg.pinv(M @ M.T) @ (M @ x)
            else:
                cand = x.copy()
            if (A @ cand).min(initial=0.0) >= -1e-10:
                dist = np.linalg.norm(cand - x)
                if dist < best_dist:
                    best, best_dist = cand, dist
    return best


def sweep_oracle_2d(X, step_deg=None):
    """Collect activation patterns along a sweep of 2-D directions.

    With ``step_deg`` a fixed grid is swept; with None the sweep visits the
    midpoint of every angular sector cut out by the row normals, touching
    each open cell exactly once regardless of how narrow it is.
    """
    X = np.asarray(X, dtype=np.float64)
    if step_deg is not None:
        thetas = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    else:
        bounds = []
        for row in X:
            if np.linalg.norm(row) > 0.0:
                base = np.arctan2(row[1], row[0])
                bounds += [base + np.pi / 2, base - np.pi / 2]
        if not bounds:
            thetas = np.array([0.0])
        else:
            bounds = np.sort(np.unique(np.mod(bounds, 2 * np.pi)))
            gaps = np.diff(np.append(bounds, bounds[0] + 2 * np.pi))
            thetas = bounds + gaps / 2
    patterns = set()
    for theta in thetas:
        g = np.array([np.cos(theta), np.sin(theta)])
        patterns.add(pattern_of(X, g).tobytes())
    return patterns


def assert_same_enumeration(X):
    """Bitstrings equal the LP-only walk's; every generator is a verified witness."""
    got = enumerate_patterns(X)
    assert bitstrings(got.patterns(X)) == reference_enumerate(X)
    assert_generators_verified(X, got)


def assert_generators_verified(X, gs):
    """Every generator has slack > 1e-9 on every nonzero row of its pattern."""
    X = np.asarray(X, dtype=np.float64)
    nonzero = np.linalg.norm(X, axis=1) > 0.0
    for active, g in zip(gs.patterns(X), gs.generators):
        slack = np.where(active, 1.0, -1.0) * (X @ g)
        assert slack[nonzero].min(initial=np.inf) > 1e-9


class TestSampling:
    def test_sign_of_xg(self):
        pat = pattern_of(np.eye(2), np.array([1.0, -1.0]))
        np.testing.assert_array_equal(pat, [True, False])

    def test_determinism(self):
        X = np.random.default_rng(0).standard_normal((12, 3))
        a = sample_gates(X, 6, seed=42)
        b = sample_gates(X, 6, seed=42)
        assert a.P == b.P == 6
        np.testing.assert_array_equal(a.generators, b.generators)

    def test_tie_at_zero_counts_active(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]])
        pat = pattern_of(X, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(pat, [True, True, False])

    def test_dedup_shortfall_warns(self):
        # a single row admits only 2 patterns; asking for 5 must fall short
        X = np.array([[1.0]])
        with pytest.warns(UserWarning, match="short"):
            gs = sample_gates(X, 5, seed=0)
        assert gs.P == 2
        assert gs.shortfall == 3

    def test_sampled_generators_satisfy_gate_identity(self):
        X = np.random.default_rng(3).standard_normal((15, 4))
        gs = sample_gates(X, 12, seed=9)
        for active, g in zip(gs.patterns(X), gs.generators):
            assert gate_identity_check(Cone(active, X), g)

    @pytest.mark.parametrize("generators", [np.ones(2), np.ones((1, 2, 3)), np.float64(1.0)],
                             ids=["1-D", "3-D", "0-D"])
    def test_gate_set_rejects_misshapen_arrays(self, generators):
        with pytest.raises(ValueError, match=r"\(P, d\)"):
            GateSet(generators)

    def test_gate_set_arrays_are_read_only(self):
        gs = sample_gates(np.eye(3), 2, seed=0)
        with pytest.raises(ValueError, match="read-only"):
            gs.generators[0, 0] = 1.0

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_gates(np.eye(2), 0)


class TestGateIdentity:
    def test_identity_inside_cone(self):
        X = np.eye(2)
        cone = Cone(np.array([True, True]), X)
        assert gate_identity_check(cone, np.array([1.0, 1.0]))

    def test_identity_outside_cone(self):
        X = np.eye(2)
        cone = Cone(np.array([True, True]), X)
        assert not gate_identity_check(cone, np.array([1.0, -1.0]))


class TestConeViolation:
    def test_generator_has_zero_violation(self):
        X = np.random.default_rng(5).standard_normal((8, 3))
        gs = sample_gates(X, 4, seed=5)
        for active, g in zip(gs.patterns(X), gs.generators):
            assert cone_violation(Cone(active, X), g) == 0.0

    def test_orthant_violation_value(self):
        cone = Cone(np.array([True, True]), np.eye(2))
        assert cone_violation(cone, np.array([1.0, -2.0])) == pytest.approx(2.0)

    def test_zero_vector_in_every_cone(self):
        X = np.random.default_rng(6).standard_normal((8, 3))
        for active in sample_gates(X, 5, seed=6).patterns(X):
            assert cone_violation(Cone(active, X), np.zeros(3)) == 0.0


class TestProjection:
    def test_orthant_projection(self):
        cone = Cone(np.array([True, True]), np.eye(2))
        out, ok = project_cone(cone, np.array([1.0, -2.0]))
        assert ok
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-9)

    def test_fixed_point_inside_cone(self):
        X = np.random.default_rng(2).standard_normal((6, 3))
        gs = sample_gates(X, 1, seed=2)
        cone = Cone(gs.patterns(X)[0], X)
        out, ok = project_cone(cone, gs.generators[0])
        assert ok
        np.testing.assert_allclose(out, gs.generators[0], atol=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_qp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, d = rng.integers(3, 8), 2 + seed % 2
        X = rng.standard_normal((n, d))
        cone = Cone(sample_gates(X, 1, seed=seed).patterns(X)[0], X)
        v = 3.0 * rng.standard_normal(d)
        expected = qp_projection_oracle(cone.signed_rows(), v)
        dykstra, ok = project_cone(cone, v, tol=1e-10, max_iters=100000)
        assert ok
        np.testing.assert_allclose(dykstra, expected, atol=1e-6)
        np.testing.assert_allclose(project_one(cone, v), expected, atol=1e-9)
        np.testing.assert_allclose(nnls_cone_project(cone, v), expected, atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_projection_violation_and_idempotence(self, seed):
        rng = np.random.default_rng(100 + seed)
        X = rng.standard_normal((7, 3))
        cone = Cone(sample_gates(X, 1, seed=seed).patterns(X)[0], X)
        v = 5.0 * rng.standard_normal(3)
        tol = 1e-8
        out, _ = project_cone(cone, v, tol=tol)
        assert cone_violation(cone, out) <= 10 * tol
        again, _ = project_cone(cone, out, tol=tol)
        assert np.linalg.norm(again - out) <= 10 * tol

    def test_exact_projection_machine_feasible(self):
        # (200, 16) is the size of the cones exact mode builds from sampled
        # gates; there the dual NNLS has 200 variables
        for n, d, seed in ((10, 3, 11), (200, 16, 12)):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((n, d))
            gs = sample_gates(X, 6, seed=seed)
            for active, g in zip(gs.patterns(X), gs.generators):
                cone = Cone(active, X)
                for x in (4.0 * rng.standard_normal(d), g + rng.standard_normal(d)):
                    out = project_one(cone, x)
                    assert cone_violation(cone, out) <= 1e-10
                    np.testing.assert_allclose(project_one(cone, out), out,
                                               rtol=0.0, atol=1e-12 * np.linalg.norm(x))
                    np.testing.assert_allclose(nnls_cone_project(cone, x), out,
                                               rtol=0.0, atol=1e-12 * np.linalg.norm(x))
                    # Moreau: x - out lies in the polar cone, orthogonal to out
                    assert abs((x - out) @ out) <= 1e-12 * (x @ x)

    def test_tol_validation(self):
        cone = Cone(np.array([True]), np.eye(1))
        with pytest.raises(ValueError):
            project_cone(cone, np.zeros(1), tol=0.0)


class TestProjectCones:
    """The batched Lawson-Hanson kernel against scipy's NNLS, column by column."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 5), st.integers(1, 8),
           st.sampled_from(["empty", "full", "random", "d+1"]), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_matches_nnls_reference_for_any_hint(self, n, d, c, hint, zero_column, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d)) * (rng.random((n, 1)) >= 0.25)   # some zero rows
        if n >= 3:
            X[2] = X[0]                                                  # a duplicate row
        # a zero sign leaves its row out, as a zero row of X does
        signs = rng.choice([1.0, -1.0, 0.0], size=(c, n), p=[0.45, 0.45, 0.1])
        x = 3.0 * rng.standard_normal((c, d))
        if zero_column:
            x[0] = 0.0
        faces = {"empty": np.zeros((c, n), dtype=bool), "full": np.ones((c, n), dtype=bool),
                 "random": rng.random((c, n)) < 0.4,
                 "d+1": np.arange(n)[None, :].repeat(c, axis=0) <= d}[hint]
        z, final, missed = project_cones(X, signs, x, faces)
        assert final.shape == (c, n) and missed.shape == (c,)
        for j in range(c):
            cone = Cone(signs[j] > 0, X * (signs[j] != 0)[:, None])
            scale = np.linalg.norm(x[j])
            assert np.linalg.norm(z[j] - nnls_cone_project(cone, x[j])) <= 1e-12 * scale
            rows = cone.signed_rows()
            assert np.all(rows @ z[j] >= -1e-13 * scale * np.linalg.norm(rows, axis=1))
        again, same, missed = project_cones(X, signs, x, final)
        assert not missed.any()
        np.testing.assert_array_equal(same, final)
        np.testing.assert_allclose(again, z, rtol=0.0, atol=1e-12 * np.abs(x).max())

    def test_raises_rather_than_return_an_unchecked_point(self, monkeypatch):
        # a face solve that is always 1e-6 off never passes the check
        import cld.gates

        real_step = cld.gates._face_step

        def step_off(G, A, z):
            step, moved, singular = real_step(G, A, z)
            return step + 1e-6, moved + 1e-6, singular

        monkeypatch.setattr(cld.gates, "_face_step", step_off)
        X = np.random.default_rng(3).standard_normal((6, 2))
        with pytest.raises(RuntimeError, match="did not settle"):
            project_cones(X, -np.ones((1, 6)), np.ones((1, 2)), np.zeros((1, 6), dtype=bool))

    def test_no_columns(self):
        z, faces, missed = project_cones(np.eye(2), np.zeros((0, 2)), np.zeros((0, 2)),
                                         np.zeros((0, 2), dtype=bool))
        assert z.shape == (0, 2) and faces.shape == (0, 2) and missed.shape == (0,)


# The (P, n) pattern matrices that gate sets stored before they came to keep
# only their generators, as "PxN:" and the first 16 hex digits of the SHA-256
# of their packed rows: the train_serve benchmark's training sets (synth
# seeds 1-5, float32 rows, 32 gates), the ten criterion-1 instances (32
# gates) and the five enumerated criterion-2 instances.
STORED_PATTERNS = {
    ("train_serve", 1): "32x9600:ba9f00bac911c73e",
    ("train_serve", 2): "32x9600:94bd82d84cc53d07",
    ("train_serve", 3): "32x9600:8249e3db9d5972b7",
    ("train_serve", 4): "32x9600:ff4511df65b7073a",
    ("train_serve", 5): "32x9600:d87ac9204da13bb6",
    ("criterion_1", 0): "32x200:89a65550367a835b",
    ("criterion_1", 1): "32x200:10f2bfc056e6f56f",
    ("criterion_1", 2): "32x200:8f1fabac3726372a",
    ("criterion_1", 3): "32x200:488853c081fc8edd",
    ("criterion_1", 4): "32x200:49849233ac7a7cbb",
    ("criterion_1", 5): "32x200:9041f34c94c5dda8",
    ("criterion_1", 6): "32x200:a8c3e88c1ca13b75",
    ("criterion_1", 7): "32x200:72423696a988ce1d",
    ("criterion_1", 8): "32x200:310dd0600867b3f5",
    ("criterion_1", 9): "32x200:fd83a9708d252743",
    ("criterion_2", 3): "20x10:c5d825550872bd92",
    ("criterion_2", 5): "24x12:3954826586e14f9f",
    ("criterion_2", 11): "22x11:53bc9c6a528ad4f4",
    ("criterion_2", 7): "74x9:fcb902e601702002",
    ("criterion_2", 13): "58x8:b946d7285862071c",
}


def pattern_digest(active):
    digest = hashlib.sha256(np.packbits(active, axis=1).tobytes()).hexdigest()[:16]
    return f"{active.shape[0]}x{active.shape[1]}:{digest}"


class TestPatternsFromGenerators:
    """Patterns formed from the generators equal the ones gate sets used to store."""

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_train_serve_sets(self, seed, tmp_path):
        data = generate(SynthSpec(seed=seed))
        rows, _, _ = split(data.labels.class_ids, seed=seed)
        write_features(tmp_path / "train.cldf", FeatureMatrix(data.features.values[rows]))
        X = read_features(tmp_path / "train.cldf").values
        gates = sample_gates(X, 32, seed=seed)
        assert pattern_digest(gates.patterns(X)) == STORED_PATTERNS[("train_serve", seed)]

    @pytest.mark.parametrize("instance", range(10))
    def test_criterion_1_instances(self, instance):
        X = np.random.default_rng(100 + instance).standard_normal((200, 16))
        gates = sample_gates(X, 32, seed=100 + instance)
        assert pattern_digest(gates.patterns(X)) == STORED_PATTERNS[("criterion_1", instance)]

    @pytest.mark.parametrize("n, d, seed", [(10, 2, 3), (12, 2, 5), (11, 2, 11), (9, 3, 7),
                                            (8, 3, 13)])
    def test_criterion_2_instances(self, n, d, seed):
        X = np.random.default_rng(seed).standard_normal((n, d))
        gates = enumerate_patterns(X)
        assert pattern_digest(gates.patterns(X)) == STORED_PATTERNS[("criterion_2", seed)]

    def test_row_blocks_and_float32_rows_change_no_bit(self, monkeypatch):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((50, 5)).astype(np.float32)
        G = rng.standard_normal((7, 5))
        whole = np.stack([pattern_of(X, g) for g in G])
        monkeypatch.setattr(cld.linops, "ROW_BLOCK_BYTES", 3 * 8 * 5)   # blocks of 3 rows
        assert np.array_equal(GateSet(G).patterns(X), whole)
        assert np.array_equal(GateSet(G).patterns(X.astype(np.float64)), whole)


class TestEnumeration:
    def test_identity_two_by_two(self):
        gs = enumerate_patterns(np.eye(2))
        assert bitstrings(gs.patterns(np.eye(2))) == ["11", "10", "01", "00"]
        # dense grid of unit directions finds the same four cells
        assert len(sweep_oracle_2d(np.eye(2), step_deg=0.5)) == 4

    def test_single_row_splits_line(self):
        gs = enumerate_patterns(np.array([[1.0]]))
        assert bitstrings(gs.patterns(np.array([[1.0]]))) == ["1", "0"]

    def test_six_rows_matches_sweep_and_bound(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((6, 2))
        gs = enumerate_patterns(X)
        sweep = sweep_oracle_2d(X)
        assert gs.P == len(sweep)
        assert {a.tobytes() for a in gs.patterns(X)} == sweep
        # arrangement bound: 2 * sum_{k<=d-1} C(n-1, k) = 2 * (1 + 5) = 12
        assert gs.P <= 12

    def test_witnesses_reproduce_patterns(self):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((7, 3))
        gs = enumerate_patterns(X)
        assert bitstrings(pattern_of(X, gs.generators.T).T) == reference_enumerate(X)

    @pytest.mark.parametrize("seed", range(4))
    def test_superset_of_sampled(self, seed):
        rng = np.random.default_rng(40 + seed)
        X = rng.standard_normal((8, 2))
        full = {a.tobytes() for a in enumerate_patterns(X).patterns(X)}
        sampled = sample_gates(X, 6, seed=seed)
        assert {a.tobytes() for a in sampled.patterns(X)} <= full

    def test_size_guard(self):
        with pytest.raises(ValueError, match="enumeration"):
            enumerate_patterns(np.zeros((40, 2)))
        with pytest.raises(ValueError, match="enumeration"):
            enumerate_patterns(np.zeros((4, 6)))

    def test_zero_rows_always_active(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert bitstrings(enumerate_patterns(X).patterns(X)) == ["11", "10"]


def _cells_bound(n, d):
    return 2 * sum(math.comb(n - 1, k) for k in range(d))


# every n in 1..16 and d in 1..4 whose arrangement has at most 128 cells, so
# the LP-only reference stays at a few hundred LPs per example
ENUM_SHAPES = [(n, d) for n in range(1, 17) for d in range(1, 5) if _cells_bound(n, d) <= 128]


class TestScreenedEnumeration:
    """The LP-free walk keeps exactly the cells the LP-only reference keeps."""

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(ENUM_SHAPES), st.booleans(), st.integers(0, 2**32 - 1))
    @example((16, 2), False, 0)
    @example((8, 4), True, 1)
    def test_matches_lp_walk(self, shape, integer, seed):
        # small integer entries give duplicate, antiparallel, zero and
        # collinear rows; Gaussian ones give the arrangement in general position
        rng = np.random.default_rng(seed)
        X = (rng.integers(-2, 3, shape).astype(float) if integer
             else rng.standard_normal(shape))
        assert_same_enumeration(X)

    @pytest.mark.parametrize("X", [
        [[1.0, 2.0], [1.0, 2.0], [3.0, -1.0]],                      # duplicate rows
        [[1.0, 2.0], [-1.0, -2.0], [0.5, -1.0]],                    # x and -x
        [[0.0, 0.0, 0.0], [1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [-1.0, 1.0, 0.0]],  # zero rows
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [2.0, -1.0, 0.0]],  # coplanar
        [[1.0, 1.0], [2.0, 2.0], [-3.0, -3.0]],                     # one line
        [[0.0, 0.0]],                                               # nothing to split
    ])
    def test_degenerate_rows(self, X):
        assert_same_enumeration(np.array(X))

    def test_band_margin_matches_reference(self):
        # rows (1, 0) and (-1, e) are nearly antiparallel: the prefix (+, +)
        # has max margin e/2, between feas_tol/sqrt(2) and feas_tol
        assert_same_enumeration(np.array([[1.0, 0.0], [-1.0, 1.8e-9]]))

    def test_no_lp_on_criterion_2(self, monkeypatch):
        Xs = [np.random.default_rng(seed).standard_normal((n, d))
              for n, d, seed in ((10, 2, 3), (12, 2, 5), (11, 2, 11), (9, 3, 7), (8, 3, 13))]
        refs = [reference_enumerate(X) for X in Xs]

        def no_lp(*args, **kwargs):
            raise AssertionError("enumerate_patterns ran an LP")

        monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
        total = 0
        for X, ref in zip(Xs, refs):
            gs = enumerate_patterns(X)
            assert bitstrings(gs.patterns(X)) == ref
            assert_generators_verified(X, gs)
            total += gs.P
        assert total == 198
