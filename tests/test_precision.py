"""Feature rows keep the precision they are stored in.

Float32 rows, as binary files store them, stay float32 in memory, and every
pass over them upcasts one row block to float64. So each result below is
the same to the bit as on the float64 upcast of the same rows, and no pass
holds a float64 copy of a float32 input.
"""

import json

import numpy as np
import pytest

from cld.admm import AdmmConfig, GateConfig, train
from cld.cert import certify_batch
from cld.cli import main
from cld.cvxprog import ConvexProblem, objective
from cld.dataio import (LabelSet, SequenceFeature, pool_masked_mean, read_features,
                        read_sequence, write_features, write_labels, write_manifest,
                        write_sequence)
from cld.gates import sample_gates
from cld.head import INFERENCE_MODES, load_model, predict_batch
from cld.linops import ROW_BLOCK_BYTES, GatedOperator, feature_array, gram_side
from cld.synth import SynthSpec, generate, split

from conftest import traced_peak
from test_head import make_head


def float32_rows(n, d, seed):
    """Gaussian rows in float32 and their float64 upcast."""
    X = np.random.default_rng(seed).standard_normal((n, d)).astype(np.float32)
    return X, X.astype(np.float64)


class TestFeatureArray:
    def test_float32_and_float64_pass_through_uncopied(self):
        for dtype in (np.float32, np.float64):
            a = np.ones((3, 2), dtype=dtype)
            assert feature_array(a) is a

    @pytest.mark.parametrize("a", [np.ones((2, 2), dtype=np.float16),
                                   np.ones((2, 2), dtype=np.int64), [[1, 2], [3, 4]],
                                   np.ones((2, 2), dtype=bool)])
    def test_anything_else_becomes_float64(self, a):
        out = feature_array(a)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, np.asarray(a, dtype=np.float64))

    def test_operator_shares_the_callers_float32_rows(self):
        X, _ = float32_rows(50, 4, seed=1)
        gates = sample_gates(X, 4, seed=1)
        for op in (GatedOperator.relaxed(X, gates, 2), GatedOperator.split(X, gates, 2)):
            assert op.X.dtype == np.float32 and np.shares_memory(op.X, X)


# (n, d, gates, mode) and the operator's Gram side and whether it is cached
# densely: both Grams, both operator forms, and split mode on every pattern
TRAIN_SHAPES = {
    "primal-matrix-free": ((2000, 64, 10, "relaxed"), ("primal", False)),
    "kernel-matrix-free": ((1000, 160, 8, "relaxed"), ("kernel", False)),
    "kernel-dense-cache": ((300, 16, 32, "relaxed"), ("kernel", True)),
    "exact-enumerated": ((10, 2, None, "exact"), ("kernel", True)),
}


def training_operator(head, X, K):
    build = GatedOperator.split if head.mode == "exact" else GatedOperator.relaxed
    return build(X, head.gates, K)


class TestBitIdentity:
    @pytest.fixture(scope="class", params=sorted(TRAIN_SHAPES))
    def trained(self, request):
        (n, d, count, mode), form = TRAIN_SHAPES[request.param]
        X32, X64 = float32_rows(n, d, seed=n)
        y = np.arange(n) % 3 if mode == "relaxed" else np.arange(n) % 2
        labels = LabelSet(y, {f"l{k}": k for k in range(y.max() + 1)})
        gate_cfg = GateConfig(count=count, seed=3, enumerate_all=count is None)
        cfg = AdmmConfig(rho=0.1, admm_iters=30, mode=mode)
        heads = [train(X, labels, gate_cfg, cfg) for X in (X32, X64)]
        op = training_operator(heads[0], X32, labels.K)
        assert (gram_side(op), op._dense is not None) == form
        return heads, X32, X64, labels

    def test_train(self, trained):
        (h32, h64), X32, *_ = trained
        assert np.array_equal(h32.gates.active, h64.gates.active)
        assert np.array_equal(h32.gates.generators, h64.gates.generators)
        assert np.array_equal(h32.V, h64.V) and np.array_equal(h32.W, h64.W)
        assert h32.train_meta == h64.train_meta
        assert h32.cert.B_l21 > 0.0

    def test_serving(self, trained):
        (head, _), X32, X64, labels = trained
        for inference in INFERENCE_MODES:
            assert np.array_equal(predict_batch(head, X32, inference),
                                  predict_batch(head, X64, inference))
        c32, c64 = (certify_batch(head, X, labels.class_ids) for X in (X32, X64))
        for field in ("pred", "margin", "radius_feature", "certified"):
            assert np.array_equal(getattr(c32, field), getattr(c64, field))

    def test_objective(self, trained):
        (head, _), X32, X64, labels = trained
        S = np.concatenate([head.V, head.W]) if head.mode == "exact" else head.V
        cones = head.gates.active if head.mode == "exact" else ()
        v32, v64 = (objective(ConvexProblem(training_operator(head, X, labels.K),
                                            labels.one_hot(), 1e-3, "l21", head.mode, cones), S)
                    for X in (X32, X64))
        assert v32 == v64 and v32.fit > 0.0

    def test_pooling(self):
        frames, frames64 = float32_rows(40, 6, seed=5)
        mask = np.random.default_rng(5).random(40) < 0.6
        pooled = pool_masked_mean(SequenceFeature(frames, mask))
        assert pooled.dtype == np.float64
        assert np.array_equal(pooled, pool_masked_mean(SequenceFeature(frames64, mask)))


class TestMemory:
    ROWS = 20000

    @pytest.mark.parametrize("inference", INFERENCE_MODES)
    def test_predict_batch_holds_no_float64_copy_of_the_batch(self, inference):
        # 20,000 x 64 float32 rows: a float64 copy is 9.8 MiB. Beside the
        # logits a batch holds one row block of units and that block's upcast
        rng = np.random.default_rng(6)
        head = make_head(rng.standard_normal((16, 64, 4)), rng.standard_normal((16, 64, 4)),
                         mode="exact", seed=6)
        H, H64 = float32_rows(self.ROWS, 64, seed=6)
        logits, peak = traced_peak(predict_batch, head, H, inference)
        assert np.array_equal(logits, predict_batch(head, H64, inference))
        assert peak <= 2 * ROW_BLOCK_BYTES + 8 * self.ROWS * head.K + 256 * 1024
        assert peak < H64.nbytes

    def test_train_holds_no_float64_copy_of_the_rows(self):
        # the train_serve shape (9,600 x 64, 32 gates, K = 5) in float32: the
        # same bound as its float64 run, which a 4.7 MiB float64 copy crosses
        data = generate(SynthSpec(seed=1))
        rows, _, _ = split(data.labels.class_ids, seed=1)
        X = data.features.values[rows].astype(np.float32)
        labels = LabelSet(data.labels.class_ids[rows], data.labels.label_map)
        cfg = AdmmConfig(rho=100.0, admm_iters=2)
        head, peak = traced_peak(train, X, labels, GateConfig(count=32, seed=1), cfg)
        assert head.cert.B_l21 > 0.0
        assert peak < 22 * 2 ** 20

    def test_sample_gates_holds_no_float64_copy(self):
        X, X64 = float32_rows(40000, 64, seed=7)
        gates, peak = traced_peak(sample_gates, X, 8)
        reference = sample_gates(X64, 8)
        assert np.array_equal(gates.active, reference.active)
        assert peak <= 2 * gates.active.nbytes + ROW_BLOCK_BYTES + 256 * 1024

    def test_read_sequence_keeps_float32_frames(self, tmp_path):
        frames, _ = float32_rows(30, 4, seed=8)
        write_sequence(tmp_path / "s.clds", SequenceFeature(frames, np.ones(30, dtype=bool)))
        seq = read_sequence(tmp_path / "s.clds")
        assert seq.frames.dtype == np.float32 and np.array_equal(seq.frames, frames)


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """One training set as a CLDF file and as a CSV file of its float64 upcast."""
    out = tmp_path_factory.mktemp("stored")
    X, X64 = float32_rows(120, 6, seed=9)
    X[:60] += 1.5   # two separable-ish classes
    X64 = X.astype(np.float64)
    labels = LabelSet(np.repeat([0, 1], 60), {"en": 0, "zh": 1})
    write_features(out / "x.cldf", X)
    (out / "x.csv").write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                                       for row in X64))
    write_labels(out / "labels.csv", labels)
    for name in ("x.cldf", "x.csv"):
        write_manifest(out / f"{name}.json", name, "labels.csv", labels.label_map)
    assert read_features(out / "x.cldf").values.dtype == np.float32
    assert np.array_equal(read_features(out / "x.csv").values, X64)
    return out


class TestCommands:
    def test_train_verify_gives_the_same_model(self, stored, tmp_path):
        logs = []
        for name in ("x.cldf", "x.csv"):
            log = tmp_path / f"{name}.log"
            assert main(["train", "--manifest", str(stored / f"{name}.json"), "--verify",
                         "--gates", "4", "--rho", "0.1", "--admm-iters", "400",
                         "--stop-tol", "1e-9", "--seed", "0",
                         "--out", str(tmp_path / f"{name}.model.json"),
                         "--log", str(log)]) == 0
            records = [json.loads(line) for line in log.read_text().splitlines()]
            logs.append([rec["verify"] for rec in records if "verify" in rec])
        assert logs[0] == logs[1] and logs[0]
        assert ((tmp_path / "x.cldf.model.json").read_bytes()
                == (tmp_path / "x.csv.model.json").read_bytes())

    def test_predict_pool_on_float32_frames(self, stored, tmp_path):
        assert main(["train", "--manifest", str(stored / "x.cldf.json"), "--rho", "0.1",
                     "--admm-iters", "60", "--out", str(tmp_path / "m.json"),
                     "--log", str(tmp_path / "t.log")]) == 0
        frames, frames64 = float32_rows(7, 6, seed=10)
        mask = np.array([1, 0, 1, 1, 0, 1, 1], dtype=bool)
        write_sequence(tmp_path / "utt.clds", SequenceFeature(frames, mask))
        out = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(tmp_path / "m.json"), "--pool",
                     "--features", str(tmp_path / "utt.clds"), "--out", str(out),
                     "--log", str(tmp_path / "p.log")]) == 0
        head = load_model(tmp_path / "m.json")
        assert head.cert.B_l21 > 0.0
        pooled = pool_masked_mean(SequenceFeature(frames64, mask))
        expected = predict_batch(head, pooled[None])[0]
        row = out.read_text().splitlines()[1].split(",")
        assert [float(v) for v in row[3:]] == expected.tolist() and expected.any()
