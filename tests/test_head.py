import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cld.admm import AdmmConfig, GateConfig, train
from cld.cert import var_bound_l21
from cld.cvxprog import loss, penalty
from cld.gates import GateSet
from cld.head import (
    CertificateMismatchError,
    ModelFormatError,
    ModelVersionError,
    ReluNetwork,
    TrainedHead,
    load_model,
    margin,
    predict,
    predict_batch,
    save_model,
    to_relu,
)

from conftest import cluster_data
from reference import nonconvex_objective


# documents that load_model must reject with a ModelFormatError naming the file
MALFORMED_DOCS = {
    "bogus-mode": lambda doc: {**doc, "mode": "bogus"},
    "bogus-penalty": lambda doc: {**doc, "penalty_kind": "bogus", "cert": None},
    "list-document": lambda doc: [doc],
    "V-not-object": lambda doc: {**doc, "V": doc["V"]["data"]},
    "gates-not-object": lambda doc: {**doc, "gates": "gates"},
    "list-label-map": lambda doc: {**doc, "label_map": sorted(doc["label_map"])},
    "non-string-pattern": lambda doc: {
        **doc, "gates": {**doc["gates"], "patterns": [7] + doc["gates"]["patterns"][1:]}},
    "string-P": lambda doc: {**doc, "P": "x"},
    "string-dedup": lambda doc: {**doc, "gates": {**doc["gates"], "dedup": "yes"}},
    "list-seed": lambda doc: {**doc, "gates": {**doc["gates"], "seed": [1, 2]}},
    "list-train-meta": lambda doc: {**doc, "train_meta": [3]},
    "no-gates": lambda doc: {
        **doc, "P": 0, "cert": None,
        "gates": {**doc["gates"], "patterns": [], "generators": []},
        **{key: {"shape": [0, doc["d"], doc["K"]], "data": []} for key in ("V", "W")}},
}


def make_head(V, W=None, mode="relaxed", seed=0):
    P, d, K = V.shape
    rng = np.random.default_rng(seed)
    gates = GateSet(np.ones((P, 3), dtype=bool), rng.standard_normal((P, d)), seed=seed)
    W = np.zeros_like(V) if W is None else W
    label_map = {f"l{k}": k for k in range(K)}
    return TrainedHead(gates, V, W, "l21", mode, label_map)


@pytest.fixture(scope="module")
def trained():
    X, labels, _ = cluster_data(n=80, d=6, K=3, seed=21)
    cfg = AdmmConfig(rho=0.1, admm_iters=300, stop_tol=1e-8)
    head = train(X, labels, GateConfig(count=8, seed=21), cfg)
    return head, X, labels


def reference_to_relu(head):
    """The column-by-column ReLU map, kept as the reference for the vectorised one."""
    hidden, output = [], []
    eye = np.eye(head.K)
    for p in range(head.P):
        for k in range(head.K):
            v = head.V[p, :, k]
            if np.any(v != 0.0):
                hidden.append(v)
                output.append(eye[k])
            w = head.W[p, :, k]
            if np.any(w != 0.0):
                hidden.append(w)
                output.append(-eye[k])
    if not hidden:
        return ReluNetwork(np.zeros((0, head.d)), np.zeros((0, head.K)))
    return ReluNetwork(np.stack(hidden), np.stack(output))


class TestToRelu:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @example(2, 3, 2, 0.0, 0)
    def test_matches_column_loop(self, P, d, K, keep, seed):
        # keep = 0 gives the all-zero head; otherwise a random share of the
        # V and W columns is zeroed out
        rng = np.random.default_rng(seed)
        V = rng.standard_normal((P, d, K)) * (rng.random((P, 1, K)) < keep)
        W = rng.standard_normal((P, d, K)) * (rng.random((P, 1, K)) < keep)
        head = make_head(V, W)
        net, ref = to_relu(head), reference_to_relu(head)
        assert np.array_equal(net.hidden, ref.hidden)
        assert np.array_equal(net.output, ref.output)

    def test_network_is_built_once(self, trained):
        head = trained[0]
        assert to_relu(head) is to_relu(head)

    def test_direct_construction(self):
        V = np.zeros((1, 2, 2))
        V[0, :, 0] = [1.0, 0.0]
        V[0, :, 1] = [0.0, 1.0]
        net = to_relu(make_head(V))
        assert net.m == 2
        np.testing.assert_array_equal(net.output, np.eye(2))

    def test_zero_head_is_empty_network(self):
        net = to_relu(make_head(np.zeros((2, 3, 2))))
        assert net.m == 0
        np.testing.assert_array_equal(net.apply(np.ones((4, 3))), np.zeros((4, 2)))

    def test_w_columns_get_negative_outputs(self):
        V = np.zeros((1, 2, 2))
        W = np.zeros((1, 2, 2))
        W[0, :, 1] = [1.0, 2.0]
        net = to_relu(make_head(V, W))
        assert net.m == 1
        np.testing.assert_array_equal(net.output[0], [0.0, -1.0])

    def test_atom_count_bounded_by_2PK(self):
        rng = np.random.default_rng(3)
        V = rng.standard_normal((4, 3, 3))
        W = rng.standard_normal((4, 3, 3))
        net = to_relu(make_head(V, W))
        assert net.m <= 2 * 4 * 3


class TestPredict:
    def test_zero_input_gives_zero_logits(self, trained):
        head, _, _ = trained
        np.testing.assert_array_equal(predict(head, np.zeros(head.d), "gated"),
                                      np.zeros(head.K))
        np.testing.assert_array_equal(predict(head, np.zeros(head.d), "relu"),
                                      np.zeros(head.K))

    def test_dimension_mismatch(self, trained):
        head, _, _ = trained
        with pytest.raises(ValueError, match="dimension"):
            predict(head, np.zeros(head.d + 1))

    def test_default_inference_follows_mode(self, trained):
        head, X, _ = trained
        assert head.default_inference == "gated"
        np.testing.assert_array_equal(predict_batch(head, X),
                                      predict_batch(head, X, "gated"))

    def test_gated_matches_training_rows_exactly(self, trained):
        head, X, _ = trained
        from cld.linops import GatedOperator

        op = GatedOperator.relaxed(X, head.gates, head.K)
        np.testing.assert_allclose(predict_batch(head, X, "gated"),
                                   op.apply(head.V), atol=1e-12)

    def test_relu_positive_homogeneity(self, trained):
        head, _, _ = trained
        rng = np.random.default_rng(4)
        H = rng.standard_normal((20, head.d))
        base = predict_batch(head, H, "relu")
        for c in (0.5, 2.0, 7.3):
            scaled = predict_batch(head, c * H, "relu")
            np.testing.assert_allclose(scaled, c * base, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(scaled.argmax(axis=1), base.argmax(axis=1))

    def test_lemma_lipschitz_sampled(self, trained):
        head, _, _ = trained
        B = var_bound_l21(head)
        rng = np.random.default_rng(5)
        H1 = rng.standard_normal((10000, head.d))
        H2 = rng.standard_normal((10000, head.d))
        f1 = predict_batch(head, H1, "relu")
        f2 = predict_batch(head, H2, "relu")
        lhs = np.abs(f1 - f2).max(axis=1)
        rhs = B * np.linalg.norm(H1 - H2, axis=1)
        assert np.all(lhs <= rhs + 1e-12)


def reference_margin(row, y):
    """The per-row margin definition the batched one must match bit for bit."""
    return row[y] - np.delete(row, y).max()


@st.composite
def logits_and_class_ids(draw):
    K = draw(st.integers(2, 6))
    m = draw(st.integers(0, 20))
    # integer-valued logits, so ties between classes occur
    values = draw(st.lists(st.integers(-3, 3), min_size=m * K, max_size=m * K))
    ids = draw(st.lists(st.integers(0, K - 1), min_size=m, max_size=m))
    return np.array(values, dtype=np.float64).reshape(m, K), np.array(ids, dtype=np.intp)


class TestMargin:
    def test_clear_winner(self):
        assert margin(np.array([[2.0, 0.5, -1.0]]), [0])[0] == pytest.approx(1.5)

    def test_tie_is_zero(self):
        assert margin(np.array([[1.0, 1.0]]), [0])[0] == 0.0

    def test_misclassified_is_negative(self):
        assert margin(np.array([[0.5, 2.0]]), [0])[0] == pytest.approx(-1.5)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            margin(np.array([[1.0]]), [0])

    @settings(max_examples=200, deadline=None)
    @given(logits_and_class_ids())
    @example((np.array([[2.0, 0.5, -1.0]]), np.array([0])))
    @example((np.array([[1.0, 1.0]]), np.array([0])))
    @example((np.array([[0.5, 2.0]]), np.array([0])))
    def test_matches_per_row_definition(self, case):
        logits, class_ids = case
        got = margin(logits, class_ids)
        expected = np.array([reference_margin(row, y) for row, y in zip(logits, class_ids)],
                            dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == class_ids.shape
        assert got.tobytes() == expected.tobytes()


class TestNonconvexObjective:
    def test_empty_network(self):
        net = ReluNetwork(np.zeros((0, 2)), np.zeros((0, 2)))
        Y = np.eye(2)
        assert nonconvex_objective(net, np.zeros((2, 2)), Y, 5.0) == pytest.approx(
            loss(np.zeros((2, 2)), Y)
        )

    def test_single_atom_zero_loss(self):
        net = ReluNetwork(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        X = np.array([[1.0, 0.0]])
        Y = np.array([[1.0, 0.0]])
        assert nonconvex_objective(net, X, Y, 0.0) == 0.0

    def test_balanced_atom_cost_matches_convex_penalty(self, trained):
        # rescaling every atom (u, a) to (u sqrt(t), a / sqrt(t)) leaves the
        # function unchanged; at the balanced point the ridge term equals the
        # group penalty, tying the two objectives together on training rows
        head, X, labels = trained
        net = to_relu(head)
        Y = labels.one_hot()
        atom_cost = float(
            np.sum(np.linalg.norm(net.hidden, axis=1) * np.linalg.norm(net.output, axis=1))
        )
        assert atom_cost == pytest.approx(penalty(head.V, "l21") + penalty(head.W, "l21"),
                                          rel=1e-10)
        raw = nonconvex_objective(net, X, Y, 2.0)
        balanced_fit = loss(net.apply(X), Y)
        assert raw >= balanced_fit + 2.0 * atom_cost - 1e-9


class TestModelIO:
    def test_round_trip_identical_predictions(self, trained, tmp_path):
        head, _, _ = trained
        path = tmp_path / "model.json"
        save_model(head, path)
        back = load_model(path)
        rng = np.random.default_rng(6)
        H = rng.standard_normal((100, head.d))
        for mode in ("gated", "relu"):
            np.testing.assert_array_equal(predict_batch(head, H, mode),
                                          predict_batch(back, H, mode))
        np.testing.assert_array_equal(back.V, head.V)
        assert back.label_map == head.label_map

    def test_failed_save_keeps_old_model(self, trained, tmp_path):
        head, _, _ = trained
        path = tmp_path / "m.json"
        save_model(head, path)
        before = path.read_bytes()
        bad = TrainedHead(head.gates, head.V, head.W, head.penalty_kind, head.mode,
                          head.label_map, train_meta={"when": object()})
        with pytest.raises(TypeError):
            save_model(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    def test_corrupted_weight_detected(self, trained, tmp_path):
        head, _, _ = trained
        path = tmp_path / "model.json"
        save_model(head, path)
        doc = json.loads(path.read_text())
        doc["V"]["data"][0] = (3.14159).hex()
        path.write_text(json.dumps(doc))
        with pytest.raises(CertificateMismatchError):
            load_model(path)

    def test_unknown_version_rejected(self, trained, tmp_path):
        head, _, _ = trained
        path = tmp_path / "model.json"
        save_model(head, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelVersionError):
            load_model(path)

    def test_gates_survive_round_trip(self, trained, tmp_path):
        head, _, _ = trained
        path = tmp_path / "model.json"
        save_model(head, path)
        back = load_model(path)
        np.testing.assert_array_equal(head.gates.generators, back.gates.generators)
        np.testing.assert_array_equal(head.gates.active, back.gates.active)

    @pytest.mark.parametrize("bad", ["x", "\u00e9"])
    def test_tampered_pattern_rejected(self, trained, tmp_path, bad):
        head, _, _ = trained
        path = tmp_path / "model.json"
        save_model(head, path)
        doc = json.loads(path.read_text())
        bits = doc["gates"]["patterns"][1]
        doc["gates"]["patterns"][1] = bits[:2] + bad + bits[3:]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="position 2"):
            load_model(path)

    @pytest.mark.parametrize("case", ["stated-K", "generator-count", "pattern-count",
                                      "generator-length", "data-length"])
    def test_document_disagreeing_with_its_arrays_rejected(self, trained, tmp_path, case):
        head, _, _ = trained
        path = tmp_path / "model.json"
        save_model(head, path)
        doc = json.loads(path.read_text())
        doc["cert"] = None
        if case == "stated-K":
            # V still has three classes
            doc["K"] = 2
            doc["label_map"] = {k: v for k, v in doc["label_map"].items() if v < 2}
        elif case == "generator-count":
            doc["gates"]["generators"].pop()
        elif case == "pattern-count":
            # V still has one weight block per original gate
            doc["gates"]["patterns"].pop()
            doc["gates"]["generators"].pop()
        elif case == "generator-length":
            doc["gates"]["generators"][0].pop()
        else:
            doc["V"]["data"].pop()
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="model.json"):
            load_model(path)

    @pytest.mark.parametrize("where", ["V", "W", "generator 1"])
    @pytest.mark.parametrize("bad", ["zz", 1.5])
    def test_non_hex_float_rejected(self, trained, tmp_path, where, bad):
        head, _, _ = trained
        path = tmp_path / "model.json"
        save_model(head, path)
        doc = json.loads(path.read_text())
        if where == "generator 1":
            doc["gates"]["generators"][1][0] = bad
        else:
            doc[where]["data"][0] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=rf"model\.json: {where} holds"):
            load_model(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_DOCS))
    def test_malformed_document_rejected(self, trained, tmp_path, case):
        head, _, _ = trained
        path = tmp_path / "model.json"
        save_model(head, path)
        path.write_text(json.dumps(MALFORMED_DOCS[case](json.loads(path.read_text()))))
        with pytest.raises(ModelFormatError, match="model.json"):
            load_model(path)

    def test_head_rejects_unknown_mode_and_penalty(self):
        V = np.ones((2, 3, 2))
        with pytest.raises(ModelFormatError, match="mode"):
            make_head(V, mode="split")
        head = make_head(V)
        with pytest.raises(ModelFormatError, match="penalty_kind"):
            TrainedHead(head.gates, V, np.zeros_like(V), "l1", "relaxed", head.label_map)

    def test_head_rejects_generators_not_of_width_d(self):
        head = make_head(np.ones((2, 3, 2)))
        gates = GateSet(head.gates.active, np.ones((2, 4)))
        with pytest.raises(ModelFormatError, match="width"):
            TrainedHead(gates, head.V, head.W, "l21", "relaxed", head.label_map)

    @pytest.mark.parametrize("label_map", [{"a": 0}, {"a": 0, "b": 2}, {"a": 0, "b": 0},
                                           {"a": 0, "b": "1"}, {"a": 0, "b": 1, "c": 2},
                                           {"a": 0, "b": True}])
    def test_head_rejects_label_map_not_numbering_its_classes(self, label_map):
        # K = 2: the values must be the integers 0 and 1, once each
        head = make_head(np.ones((2, 3, 2)))
        with pytest.raises(ModelFormatError, match="label_map"):
            TrainedHead(head.gates, head.V, head.W, "l21", "relaxed", label_map)

    def test_null_cert_gets_its_bundle(self, trained, tmp_path):
        head, _, _ = trained
        path = tmp_path / "model.json"
        save_model(head, path)
        doc = json.loads(path.read_text())
        stored = doc["cert"]
        doc["cert"] = None
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc))
        back = load_model(bare)
        assert back.cert == head.cert
        save_model(back, bare)
        assert json.loads(bare.read_text())["cert"] == stored
