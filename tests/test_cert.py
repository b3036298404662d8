import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cld.admm import AdmmConfig, GateConfig, train
from cld.cert import (
    CertificateBundle,
    amgm_bound,
    bundle_from_weights,
    bundle_to_dict,
    certified_accuracy,
    certify_batch,
    var_bound_fro,
    var_bound_l21,
)
from cld.head import ReluNetwork, predict_batch, to_relu

from conftest import cluster_data
from reference import margin_gap_check
from test_head import make_head


@pytest.fixture(scope="module")
def trained():
    X, labels, _ = cluster_data(n=90, d=6, K=3, seed=31)
    cfg = AdmmConfig(rho=0.1, admm_iters=300, stop_tol=1e-8)
    return train(X, labels, GateConfig(count=8, seed=31), cfg), X, labels


class TestBounds:
    def test_l21_single_block(self):
        V = np.zeros((1, 2, 2))
        V[0, :, 0] = [1.0, 0.0]
        V[0, :, 1] = [0.0, 2.0]
        assert var_bound_l21(make_head(V)) == pytest.approx(3.0)

    def test_zero_head(self):
        head = make_head(np.zeros((2, 3, 2)))
        assert var_bound_l21(head) == 0.0
        assert var_bound_fro(head) == 0.0
        assert amgm_bound(to_relu(head)) == 0.0

    def test_fro_tight_case_identity_block(self):
        head = make_head(np.eye(2)[None, :, :])
        assert var_bound_fro(head) == pytest.approx(2.0)
        assert var_bound_l21(head) == pytest.approx(2.0)

    def test_fro_dominates_l21_on_random_heads(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            V = rng.standard_normal((3, 4, 3))
            W = rng.standard_normal((3, 4, 3))
            head = make_head(V, W)
            assert var_bound_l21(head) <= var_bound_fro(head) + 1e-12

    def test_amgm_example(self):
        V = np.zeros((1, 2, 2))
        V[0, :, 0] = [1.0, 0.0]      # ||u|| = 1
        V[0, :, 1] = [0.0, 2.0]      # ||u|| = 2
        net = to_relu(make_head(V))
        assert amgm_bound(net) == pytest.approx(3.5)
        assert var_bound_l21(make_head(V)) <= amgm_bound(net)

    def test_amgm_tight_for_balanced_atom(self):
        net = ReluNetwork(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert amgm_bound(net) == pytest.approx(1.0)

    def test_bundle_matches_direct_bounds(self, trained):
        head, _, _ = trained
        bundle = bundle_from_weights(head)
        assert bundle.B_l21 == pytest.approx(var_bound_l21(head))
        assert bundle.B_fro_scaled == pytest.approx(var_bound_fro(head))
        assert bundle.B_amgm == pytest.approx(amgm_bound(to_relu(head)), rel=1e-12)
        assert bundle.B_l21 <= bundle.B_fro_scaled + 1e-12
        assert bundle.B_l21 <= bundle.B_amgm + 1e-12

    def test_bundle_bits_are_pinned(self):
        # stored certificates are compared as hex on load, so a change to the
        # bound arithmetic would make every stored model fail its check; with
        # weights over several decades a reordered sum changes some of these
        pinned = {   # (seed, mode): B_l21, B_fro_scaled, B_amgm
            (0, "relaxed"): ("0x1.7bc5e4bcb2836p+7", "0x1.cefef09af935fp+7",
                             "0x1.4f5b5c557172dp+11"),
            (0, "exact"): ("0x1.2b10d991688d0p+9", "0x1.b2736221fd22dp+9",
                           "0x1.71673402ad4c0p+14"),
            (6, "relaxed"): ("0x1.3c391e2f3506ep+7", "0x1.87f77c7a6a215p+7",
                             "0x1.befe728779a24p+10"),
            (6, "exact"): ("0x1.63b8fb04e128fp+8", "0x1.c9824d7e80809p+8",
                           "0x1.73500266f4efdp+12"),
        }
        for (seed, mode), (l21, fro, amgm) in pinned.items():
            rng = np.random.default_rng(seed)
            V, W = (rng.standard_normal((4, 6, 3)) * np.exp(2 * rng.standard_normal((4, 6, 3)))
                    for _ in range(2))
            V[1, :, 2] = 0.0
            W[0, :, 1] = 0.0
            head = make_head(V) if mode == "relaxed" else make_head(V, W, mode="exact")
            assert bundle_to_dict(head.cert) == {"B_l21": l21, "B_fro_scaled": fro, "B_amgm": amgm,
                                                 "K": 3, "penalty_kind_used": "l21"}

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            CertificateBundle(-1.0, 0.0, 0.0, 2, "l21")


class TestCertifyExample:
    def test_radius_arithmetic(self):
        # margin 1.5 against bound 3.0 certifies radius 0.25
        V = np.zeros((1, 1, 2))
        V[0, 0, 0] = 3.0   # B_l21 = 3, f(h) = (3h, 0) for h >= 0
        head = make_head(V)
        cert = certify_batch(head, np.array([[1.0]]), [0])
        assert cert.margin[0] == pytest.approx(3.0)
        assert cert.radius_feature[0] == pytest.approx(0.5)
        assert cert.certified[0]

    def test_misclassified_has_zero_radius(self, trained):
        head, X, labels = trained
        logits = predict_batch(head, X, "relu")
        wrong = (np.asarray(labels.class_ids) + 1) % head.K
        cert = certify_batch(head, X[:1], wrong[:1])
        assert cert.margin[0] < 0
        assert cert.radius_feature[0] == 0.0
        assert not cert.certified[0]

    def test_monte_carlo_soundness(self, trained):
        head, X, labels = trained
        cert = certify_batch(head, X[:1], labels.class_ids[:1])
        assert cert.certified[0]
        rng = np.random.default_rng(7)
        deltas = rng.standard_normal((10000, head.d))
        deltas *= (0.99 * cert.radius_feature[0]) / np.linalg.norm(deltas, axis=1, keepdims=True)
        logits = predict_batch(head, X[0] + deltas, "relu")
        assert np.all(logits.argmax(axis=1) == cert.pred[0])

    def test_audio_radius_scaling(self, trained):
        head, X, labels = trained
        with_le = certify_batch(head, X[1:2], labels.class_ids[1:2], L_E=2.0)
        without = certify_batch(head, X[1:2], labels.class_ids[1:2])
        assert without.radius_audio is None
        assert with_le.radius_audio[0] == pytest.approx(without.radius_feature[0] / 2.0)

    def test_invalid_le(self, trained):
        head, X, labels = trained
        with pytest.raises(ValueError):
            certify_batch(head, X[:1], [0], L_E=0.0)

    @pytest.mark.parametrize("L_E", [np.inf, np.nan])
    def test_nonfinite_le_refused(self, trained, L_E):
        # an infinite L_E would certify every row with audio radius 0
        head, X, labels = trained
        with pytest.raises(ValueError, match="L_E must be positive and finite"):
            certify_batch(head, X[:1], [0], L_E=L_E)


class TestCertifyBatch:
    def test_row_label_count_mismatch_rejected(self, trained):
        head, X, labels = trained
        with pytest.raises(ValueError):
            certify_batch(head, X[:5], labels.class_ids[:3])

    @pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "K"])
    def test_class_id_outside_range_rejected(self, trained, bad):
        head, X, labels = trained
        assert head.K == 3
        class_ids = np.array(labels.class_ids[:4])
        class_ids[2] = bad
        with pytest.raises(ValueError, match="0..2"):
            certify_batch(head, X[:4], class_ids)


class TestMarginGap:
    def test_zero_delta_equality(self, trained):
        head, X, labels = trained
        lhs, rhs, holds = margin_gap_check(head, X[0], int(labels.class_ids[0]),
                                           np.zeros(head.d))
        assert holds
        assert lhs == pytest.approx(rhs)

    def test_zero_head_trivial(self):
        head = make_head(np.zeros((1, 2, 2)))
        lhs, rhs, holds = margin_gap_check(head, np.ones(2), 0, np.ones(2))
        assert lhs == 0.0 and rhs == 0.0 and holds

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_holds_on_random_triples(self, seed):
        rng = np.random.default_rng(seed)
        V = rng.standard_normal((2, 3, 3))
        W = rng.standard_normal((2, 3, 3)) * (seed % 2)
        head = make_head(V, W)
        h = 3.0 * rng.standard_normal(3)
        delta = rng.standard_normal(3) * 10.0 ** rng.uniform(-3, 1)
        y = int(rng.integers(0, 3))
        _, _, holds = margin_gap_check(head, h, y, delta)
        assert holds


class TestCertifiedAccuracy:
    def test_eps_zero_equals_relu_accuracy(self, trained):
        head, X, labels = trained
        curve = certified_accuracy(certify_batch(head, X, labels.class_ids), labels.class_ids,
                                   np.array([0.0]))
        preds = predict_batch(head, X, "relu").argmax(axis=1)
        assert curve[0] == pytest.approx(np.mean(preds == labels.class_ids))

    def test_huge_eps_gives_zero(self, trained):
        head, X, labels = trained
        curve = certified_accuracy(certify_batch(head, X, labels.class_ids), labels.class_ids,
                                   np.array([1e12]))
        assert curve[0] == 0.0

    def test_monotone_non_increasing(self, trained):
        head, X, labels = trained
        eps = np.linspace(0.0, 1.0, 25)
        curve = certified_accuracy(certify_batch(head, X, labels.class_ids), labels.class_ids, eps)
        assert np.all(np.diff(curve) <= 1e-12)

    def test_certificates_for_another_row_count_rejected(self, trained):
        head, X, labels = trained
        certs = certify_batch(head, X, labels.class_ids)
        with pytest.raises(ValueError, match=f"{labels.n} certificates for {labels.n - 1}"):
            certified_accuracy(certs, labels.class_ids[1:], np.array([0.0]))

    def test_empty_set_rejected(self, trained):
        head, _, _ = trained
        empty = np.zeros(0, dtype=int)
        certs = certify_batch(head, np.zeros((0, head.d)), empty)
        with pytest.raises(ValueError):
            certified_accuracy(certs, empty, np.array([0.0]))


class TestSoundnessAdversarial:
    def test_steepest_directions_cannot_flip(self, trained):
        # random directions plus the per-class weight differences, the
        # steepest movers of individual logits
        head, X, labels = trained
        certs = certify_batch(head, X, labels.class_ids)
        diff = (head.V - head.W).transpose(0, 2, 1).reshape(-1, head.d)
        norms = np.linalg.norm(diff, axis=1)
        steep = diff[norms > 1e-12] / norms[norms > 1e-12, None]
        rng = np.random.default_rng(8)
        randoms = rng.standard_normal((64, head.d))
        randoms /= np.linalg.norm(randoms, axis=1, keepdims=True)
        directions = np.vstack([steep, randoms])
        for i in range(0, X.shape[0], 9):
            if not certs.certified[i] or certs.radius_feature[i] == np.inf:
                continue
            pts = X[i] + 0.99 * certs.radius_feature[i] * directions
            preds = predict_batch(head, pts, "relu").argmax(axis=1)
            assert np.all(preds == certs.pred[i])
