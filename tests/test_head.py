import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cld.admm import AdmmConfig, GateConfig, train
from cld.cert import certify_batch, var_bound_l21
from cld.cvxprog import loss, penalty
from cld.gates import GateSet
from cld.head import (
    INFERENCE_MODES,
    CertificateMismatchError,
    ModelFormatError,
    ModelVersionError,
    ReluNetwork,
    TrainedHead,
    head_to_dict,
    load_model,
    margin,
    predict,
    predict_batch,
    save_model,
    to_relu,
)
from cld.linops import ROW_BLOCK_BYTES

from conftest import cluster_data, traced_peak
from reference import bitstrings, nonconvex_objective


def as_version_1(doc, patterns):
    """``doc`` as a version-1 file: each gate's pattern string, and W even where it is zero."""
    zero_w = {"shape": doc["V"]["shape"], "data": [(0.0).hex()] * len(doc["V"]["data"])}
    return {"W": zero_w, **doc, "version": 1, "gates": {**doc["gates"], "patterns": patterns}}


# documents that load_model must reject with a ModelFormatError naming the file
MALFORMED_DOCS = {
    "bogus-mode": lambda doc: {**doc, "mode": "bogus"},
    "bogus-penalty": lambda doc: {**doc, "penalty_kind": "bogus", "cert": None},
    "list-document": lambda doc: [doc],
    "V-not-object": lambda doc: {**doc, "V": doc["V"]["data"]},
    "gates-not-object": lambda doc: {**doc, "gates": "gates"},
    "list-label-map": lambda doc: {**doc, "label_map": sorted(doc["label_map"])},
    "non-string-pattern": lambda doc: as_version_1(doc, [7] + ["1"] * (doc["P"] - 1)),
    "string-P": lambda doc: {**doc, "P": "x"},
    "string-dedup": lambda doc: {**doc, "gates": {**doc["gates"], "dedup": "yes"}},
    "list-seed": lambda doc: {**doc, "gates": {**doc["gates"], "seed": [1, 2]}},
    "list-train-meta": lambda doc: {**doc, "train_meta": [3]},
    "negative-shape": lambda doc: {**doc, "V": {**doc["V"], "shape": [-1, *doc["V"]["shape"][1:]]}},
    # float.fromhex reads "inf" and "nan"; without the bundle nothing else catches them
    "inf-V": lambda doc: {**doc, "cert": None,
                          "V": {**doc["V"], "data": ["inf", *doc["V"]["data"][1:]]}},
    "nan-W": lambda doc: {**doc, "cert": None,
                          "W": {**doc["V"], "data": ["nan", *doc["V"]["data"][1:]]}},
    "nan-generator": lambda doc: {**doc, "cert": None, "gates": {
        **doc["gates"], "generators": [["nan", *doc["gates"]["generators"][0][1:]],
                                       *doc["gates"]["generators"][1:]]}},
    "no-gates": lambda doc: {
        **doc, "P": 0, "cert": None,
        "gates": {**doc["gates"], "generators": []},
        **{key: {"shape": [0, doc["d"], doc["K"]], "data": []} for key in ("V", "W")}},
}


def make_head(V, W=None, mode="relaxed", seed=0):
    P, d, K = V.shape
    rng = np.random.default_rng(seed)
    gates = GateSet(rng.standard_normal((P, d)), seed=seed)
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
    def test_apply_holds_one_hidden_array(self):
        # the max is taken in place on one row block of hidden units: beside
        # the (N, K) output, one block and numpy's ufunc buffers, never an
        # (N, m) array
        rng = np.random.default_rng(8)
        net = ReluNetwork(rng.standard_normal((100, 8)), rng.standard_normal((100, 3)))
        H = rng.standard_normal((20000, 8))
        out, peak = traced_peak(net.apply, H)
        np.testing.assert_allclose(out, np.maximum(H @ net.hidden.T, 0.0) @ net.output)
        assert peak <= ROW_BLOCK_BYTES + 8 * 20000 * 3 + 256 * 1024
        assert peak < 8 * 20000 * 100

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


class TestBatchMemory:
    """A 20,000-row batch through a head of 96 units, 15.4 MB as one (rows x units) array."""

    ROWS = 20000

    @pytest.fixture(scope="class")
    def batch(self):
        rng = np.random.default_rng(9)
        V = rng.standard_normal((8, 16, 6))
        head = make_head(V, rng.standard_normal(V.shape), mode="exact", seed=9)
        assert head._relu.m == 96
        return head, rng.standard_normal((self.ROWS, 16))

    @pytest.mark.parametrize("inference", INFERENCE_MODES)
    def test_predict_batch_holds_one_row_block(self, batch, inference):
        # beside the (rows, K) logits, one row block of hidden units (or of
        # gate products) and numpy's ufunc buffers
        head, H = batch
        logits, peak = traced_peak(predict_batch, head, H, inference)
        ind = H @ head.gates.generators.T >= 0.0
        expected = (np.maximum(H @ head._relu.hidden.T, 0.0) @ head._relu.output
                    if inference == "relu" else
                    np.einsum("mp,mpk->mk", ind, (H @ head._diff).reshape(-1, head.P, head.K)))
        np.testing.assert_allclose(logits, expected, rtol=1e-12, atol=1e-12)
        assert peak <= ROW_BLOCK_BYTES + 8 * self.ROWS * head.K + 256 * 1024
        assert peak < 8 * self.ROWS * head._relu.m

    def test_certify_batch_holds_one_row_block(self, batch):
        # the logits, the margins' copy of them and a few per-row columns
        head, H = batch
        class_ids = np.arange(self.ROWS) % head.K
        certs, peak = traced_peak(certify_batch, head, H, class_ids)
        logits = predict_batch(head, H, "relu")
        np.testing.assert_array_equal(certs.margin, margin(logits, class_ids))
        assert peak <= ROW_BLOCK_BYTES + 8 * self.ROWS * (2 * head.K + 4) + 256 * 1024
        assert peak < 8 * self.ROWS * head._relu.m


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

    def test_save_streams_the_same_bytes(self, tmp_path):
        # an oracle_small-shaped head: n = 200, d = 16, K = 3, 32 gates and 250
        # logged iterations. The file is byte for byte the one-shot document;
        # writing it holds little beyond the dict it is encoded from
        X, labels, _ = cluster_data(n=200, d=16, K=3, seed=3)
        head = train(X, labels, GateConfig(count=32, seed=3), AdmmConfig(rho=0.1, admm_iters=250))
        path = tmp_path / "m.json"
        _, dict_peak = traced_peak(head_to_dict, head)
        _, save_peak = traced_peak(save_model, head, path)
        data = path.read_bytes()
        assert data == (json.dumps(head_to_dict(head), indent=1, sort_keys=True) + "\n").encode()
        assert save_peak - dict_peak <= len(data) / 4

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
        assert (back.gates.seed, back.gates.dedup) == (head.gates.seed, head.gates.dedup)

    def test_version_1_file_loads_to_the_same_head(self, trained, tmp_path):
        head, X, labels = trained
        path = tmp_path / "v1.json"
        patterns = bitstrings(head.gates.patterns(X))
        path.write_text(json.dumps(as_version_1(head_to_dict(head), patterns), indent=1))
        back = load_model(path)
        assert back.cert == head.cert and head_to_dict(back) == head_to_dict(head)
        for inference in INFERENCE_MODES:
            assert np.array_equal(predict_batch(back, X, inference),
                                  predict_batch(head, X, inference))
        got, want = (certify_batch(h, X, labels.class_ids) for h in (back, head))
        for field in ("pred", "margin", "radius_feature", "certified"):
            assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_version_2_stores_no_patterns_and_w_only_for_exact_heads(self, trained, tmp_path):
        head, _, _ = trained
        doc = head_to_dict(head)
        assert doc["version"] == 2 and "W" not in doc and "patterns" not in doc["gates"]
        rng = np.random.default_rng(5)
        V, W = rng.standard_normal((2, 3, 6, 2))
        # a W that loading would not restore as zero is kept, whatever the mode
        for mode, W in (("exact", W), ("exact", np.zeros(V.shape)), ("relaxed", W)):
            path = tmp_path / f"{mode}.json"
            save_model(make_head(V, W, mode=mode, seed=5), path)
            assert "W" in json.loads(path.read_text())
            np.testing.assert_array_equal(load_model(path).W, W)

    def test_exact_file_without_w_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        V = rng.standard_normal((3, 6, 2))
        doc = head_to_dict(make_head(V, rng.standard_normal(V.shape), mode="exact", seed=6))
        del doc["W"]
        path = tmp_path / "exact.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=r"exact\.json: missing key 'W'"):
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
            # a version-1 file with one training pattern fewer than P
            doc = as_version_1(doc, ["1" * 80] * (doc["P"] - 1))
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
            # a relaxed head stores no W; one that is given is read
            doc.setdefault("W", {**doc["V"], "data": list(doc["V"]["data"])})
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
        gates = GateSet(np.ones((2, 4)))
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
