import contextlib
import io
import json
import re
import shlex
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from cld.cli import _FISTA_VERIFY_GUARD, _stratified_order, build_parser, main
from cld.dataio import (LabelSet, SequenceFeature, read_features, write_features, write_labels,
                        write_manifest, write_sequence)
from cld.gates import _ENUM_MAX_D, _ENUM_MAX_N
from cld.head import ModelFormatError, load_model, predict_batch

from reference import bitstrings
from test_dataio import MALFORMED_MANIFESTS
from test_gates import _cells_bound
from test_head import MALFORMED_DOCS, as_version_1
from test_linops import lower_block_rows

README = Path(__file__).resolve().parent.parent / "README.md"

FAST_TRAIN = ["--rho", "0.1", "--admm-iters", "60", "--stop-tol", "1e-8", "--seed", "0"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(["synth", "--out", str(out), "--languages", "2", "--accents", "2,2",
               "--dim", "8", "--samples-per-accent", "30", "--seed", "5"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def model(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    log = path.with_suffix(".log")
    rc = main(["train", "--manifest", str(dataset / "manifest.json"),
               "--out", str(path), "--log", str(log), *FAST_TRAIN])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A 10 x 2 CSV dataset with alternating labels, small enough to enumerate."""
    out = tmp_path_factory.mktemp("tiny")
    np.savetxt(out / "x.csv", np.random.default_rng(3).standard_normal((10, 2)), delimiter=",")
    write_labels(out / "labels.csv", LabelSet(np.arange(10) % 2, {"a": 0, "b": 1}))
    write_manifest(out / "manifest.json", "x.csv", "labels.csv", {"a": 0, "b": 1})
    return out


def _manifest_copy(dataset, tmp_path, label_map, rename=None):
    """A manifest over the dataset's features whose labels file and map may differ."""
    rename = rename or {}
    labels = tmp_path / "labels.csv"
    labels.write_text("".join(
        f"{ex_id},{rename.get(name, name)}\n"
        for ex_id, name in (line.split(",") for line in
                            (dataset / "labels.csv").read_text().strip().splitlines())
    ))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"features": str(dataset / "features.cldf"),
                                    "labels": str(labels), "label_map": label_map}))
    return manifest


def _unknown_label_manifest(dataset, tmp_path):
    """The dataset with one class renamed to 'xx', a label the model does not know."""
    label_map = json.loads((dataset / "manifest.json").read_text())["label_map"]
    name = min(label_map)
    renamed = {("xx" if k == name else k): v for k, v in label_map.items()}
    return _manifest_copy(dataset, tmp_path, renamed, rename={name: "xx"})


def _labels_manifest(dataset, tmp_path, labels):
    """A manifest over the dataset's features and map, with the labels file ``labels``."""
    label_map = json.loads((dataset / "manifest.json").read_text())["label_map"]
    write_manifest(tmp_path / "labels_manifest.json", dataset / "features.cldf", labels, label_map)
    return tmp_path / "labels_manifest.json"


WIDE_MANIFEST = (b'{"features": "wide.csv", "labels": "wide.labels.csv", '
                 b'"label_map": {"en": 0, "zh": 1}}')


def _wide_manifest(path):
    """Write the 4 x 7 features and the labels that the manifest at ``path`` names."""
    base = Path(path).parent
    np.savetxt(base / "wide.csv", np.ones((4, 7)), delimiter=",")
    write_labels(base / "wide.labels.csv", LabelSet(np.arange(4) % 2, {"en": 0, "zh": 1}))
    return path


# input files that a command must refuse, naming the file: (name, bytes, argv for the
# command given the file, the dataset, the model and a scratch directory)
BAD_INPUT_FILES = {
    "feature-csv-not-utf8": ("f.csv", b"1,2\n3,\xff\n", lambda bad, data, model, tmp: [
        "predict", "--model", str(model), "--features", bad, "--out", str(tmp / "p.csv")]),
    "label-csv-not-utf8": ("l.csv", b"0,\xff\n", lambda bad, data, model, tmp: [
        "train", "--manifest", str(_labels_manifest(data, tmp, bad)),
        "--out", str(tmp / "m.json")]),
    "model-not-utf8": ("model.json", b'{"version": "\xff"}', lambda bad, data, model, tmp: [
        "predict", "--model", bad, "--features", str(data / "features.cldf"),
        "--out", str(tmp / "p.csv")]),
    "accents-not-utf8": ("accents.csv", b"id,accent_id,label\n0,\xff,en\n",
                         lambda bad, data, model, tmp: [
        "eval", "--model", str(model), "--manifest", str(data / "manifest.json"),
        "--accents", bad, "--out", str(tmp / "r.json")]),
    # rows 7 wide against the model's 8: predict names the features file, certify
    # and eval the manifest, whose features and labels _wide_manifest writes beside it
    "predict-wide-features": ("wide.csv", b"1,2,3,4,5,6,7\n", lambda bad, data, model, tmp: [
        "predict", "--model", str(model), "--features", bad, "--out", str(tmp / "p.csv")]),
    "certify-wide-manifest": ("wide.json", WIDE_MANIFEST, lambda bad, data, model, tmp: [
        "certify", "--model", str(model), "--manifest", _wide_manifest(bad),
        "--out", str(tmp / "c.csv"), "--summary", str(tmp / "s.json")]),
    "eval-wide-manifest": ("wide.json", WIDE_MANIFEST, lambda bad, data, model, tmp: [
        "eval", "--model", str(model), "--manifest", _wide_manifest(bad),
        "--out", str(tmp / "r.json")]),
    **{f"config-{suffix}-{fault}": (f"cfg.{suffix}", content, lambda bad, data, model, tmp: [
        "train", "--manifest", str(data / "manifest.json"), "--config", bad,
        "--out", str(tmp / "m.json")])
       for suffix, fault, content in [("json", "not-utf8", b'{"mode": "\xff"}'),
                                      ("toml", "not-utf8", b'mode = "\xff"'),
                                      ("json", "syntax", b'{"rho": }'),
                                      ("toml", "syntax", b"rho = 0.1.2\n")]},
}


def _reordered_label_map(dataset):
    label_map = json.loads((dataset / "manifest.json").read_text())["label_map"]
    names = sorted(label_map, key=label_map.get)
    reordered = {name: k for k, name in enumerate(reversed(names))}
    assert reordered != label_map
    return reordered


class TestSynth:
    def test_outputs_exist(self, dataset):
        for name in ("features.cldf", "labels.csv", "manifest.json", "accents.csv"):
            assert (dataset / name).exists()

    def test_deterministic_outputs(self, tmp_path):
        args = ["synth", "--languages", "2", "--accents", "1,1", "--dim", "4",
                "--samples-per-accent", "10", "--seed", "3"]
        assert main([*args, "--out", str(tmp_path / "a")]) == 0
        assert main([*args, "--out", str(tmp_path / "b")]) == 0
        for name in ("features.cldf", "labels.csv", "manifest.json", "accents.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestTrain:
    def test_model_file_and_log(self, model):
        head = load_model(model)
        assert head.cert is not None
        log_lines = model.with_suffix(".log").read_text().strip().splitlines()
        parsed = [json.loads(l) for l in log_lines]
        assert any("objective" in rec for rec in parsed)
        assert any(rec.get("phase") == "train" for rec in parsed)
        factor = [rec for rec in parsed if rec.get("phase") == "u_factor"]
        assert len(factor) == 1 and factor[0]["side"] in ("primal", "kernel")
        assert factor[0]["size"] > 0 and factor[0]["seconds"] >= 0.0
        # the u-update's build time split into forming the Gram and factoring it
        assert 0.0 <= factor[0]["gram_seconds"] + factor[0]["factor_seconds"] <= factor[0]["seconds"]
        assert min(factor[0]["gram_seconds"], factor[0]["factor_seconds"]) >= 0.0
        assert factor[0]["bytes"] == 8 * sum(r * e for r, e in lower_block_rows(factor[0]["size"]))
        summary = [rec for rec in parsed if rec.get("phase") == "summary"]
        assert len(summary) == 1 and summary[0]["stopped"] in ("tol", "cap")
        assert summary[0]["iters"] == len([rec for rec in parsed if "iter" in rec])
        # the log holds the wall-clock and the summary; the model file stays free of them
        assert "u_factor" not in model.read_text()
        assert "seconds" not in model.read_text()
        assert "stopped" not in model.read_text()

    def test_missing_labels_file_exits_2(self, dataset, tmp_path, capsys):
        manifest = tmp_path / "broken.json"
        manifest.write_text(json.dumps({
            "features": str(dataset / "features.cldf"),
            "labels": str(dataset / "missing.csv"),
            "label_map": {"en": 0, "zh": 1},
        }))
        rc = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "missing.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_malformed_manifest_exits_2(self, dataset, tmp_path, capsys, case):
        doc = json.loads((dataset / "manifest.json").read_text())
        doc["features"] = str(dataset / doc["features"])
        doc["labels"] = str(dataset / doc["labels"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(MALFORMED_MANIFESTS[case][0](doc)))
        rc = main(["train", "--manifest", str(bad), "--out", str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.json" in err and "Traceback" not in err

    def test_deterministic_across_thread_env(self, dataset, tmp_path, monkeypatch):
        outs = []
        for threads, name in (("1", "m1.json"), ("4", "m4.json")):
            monkeypatch.setenv("CLD_THREADS", threads)
            path = tmp_path / name
            rc = main(["train", "--manifest", str(dataset / "manifest.json"),
                       "--out", str(path), *FAST_TRAIN])
            assert rc == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_bad_threads_env_exits_2(self, dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CLD_THREADS", "zero")
        rc = main(["train", "--manifest", str(dataset / "manifest.json"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "CLD_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "train", "predict", "certify", "eval",
                                         "bench", "gates-enum"])
    def test_bad_threads_env_refused_by_every_command(self, monkeypatch, capsys, command):
        monkeypatch.setenv("CLD_THREADS", "0")
        assert main([command, "--help"]) == 2    # refused before the arguments are parsed
        assert capsys.readouterr().err == (
            "cld: error: CLD_THREADS must be a positive integer, got '0'\n")

    def test_verify_passes_on_beta_zero(self, dataset, tmp_path):
        rc = main(["train", "--manifest", str(dataset / "manifest.json"),
                   "--out", str(tmp_path / "m.json"), "--beta", "0", "--verify",
                   *FAST_TRAIN])
        assert rc == 0

    def test_config_file_defaults(self, dataset, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"rho": 0.1, "admm_iters": 25, "gates": 4}))
        path = tmp_path / "m.json"
        rc = main(["train", "--manifest", str(dataset / "manifest.json"),
                   "--out", str(path), "--config", str(cfgfile)])
        assert rc == 0
        meta = load_model(path).train_meta
        assert meta["admm"]["admm_iters"] == 25
        assert meta["gates"]["count"] == 4

    @pytest.mark.parametrize("key, value", [("precond", "jacobi"), ("rank", 20),
                                            ("pcg_iters", 32), ("admm_iterz", 500)])
    def test_unknown_config_key_exits_2(self, dataset, tmp_path, capsys, key, value):
        # a removed key (precond, rank, pcg_iters) or a misspelt one must not be
        # dropped silently
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"rho": 0.1, key: value}))
        path = tmp_path / "m.json"
        rc = main(["train", "--manifest", str(dataset / "manifest.json"),
                   "--out", str(path), "--config", str(cfgfile)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("key, value", [("admm_iters", 2.9), ("gates", True),
                                            ("rho", "1e-1"), ("seed", 1.5),
                                            ("mode", "exactly"), ("penalty", "l1")])
    def test_mistyped_config_value_exits_2(self, dataset, tmp_path, capsys, key, value):
        # a value of another type than its flag's, or not one of its choices, is
        # refused, not coerced
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"rho": 0.1, key: value}))
        path = tmp_path / "m.json"
        rc = main(["train", "--manifest", str(dataset / "manifest.json"),
                   "--out", str(path), "--config", str(cfgfile)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cfg.json" in err and key in err and "Traceback" not in err
        assert not path.exists()

    @pytest.mark.parametrize("key, value", [("rho", "nan"), ("rho", "inf"), ("beta", "nan"),
                                            ("stop_tol", "nan"), ("stop_tol", "-1")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_garbage_solver_value_exits_2(self, dataset, tmp_path, capsys, key, value, source):
        # NaN weights, an all-zero head or a run that can never stop early:
        # refused before training, naming the setting
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({key: float(value)}))
        given = (["--config", str(cfgfile)] if source == "config"
                 else ["--" + key.replace("_", "-"), value])
        path = tmp_path / "m.json"
        rc = main(["train", "--manifest", str(dataset / "manifest.json"),
                   "--out", str(path), "--admm-iters", "5", *given])
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not path.exists()

    @pytest.mark.parametrize("given, key", [
        (["--rho", "-1"], "rho"), ({"penalty": "l1"}, "penalty"), ({"mode": "exactly"}, "mode"),
        ({"rho": "1e-1"}, "rho"), (["--seed", "-1"], "seed"), (["--gates", "0"], "gates"),
        ({"gates": -2}, "gates")],
        ids=["flag", "config-choice", "config-mode", "config-type", "seed", "gates", "config-gates"])
    def test_bad_setting_refused_before_the_manifest_is_read(self, tmp_path, capsys, given, key):
        if isinstance(given, dict):
            (tmp_path / "cfg.json").write_text(json.dumps(given))
            given = ["--config", str(tmp_path / "cfg.json")]
        rc = main(["train", "--manifest", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "m.json"), *given])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("cld: error: ") and key in err and "missing.json" not in err

    @pytest.mark.parametrize("suffix", [".json", ".toml"])
    def test_every_config_key_matches_its_flag(self, dataset, tmp_path, suffix):
        # all eight keys, none at its default; rho is an int, which stands for a float
        settings = {"seed": 3, "stop_tol": 1e-6, "rho": 1, "beta": 0.01, "admm_iters": 5,
                    "mode": "exact", "penalty": "frobenius", "gates": 4}
        cfgfile = tmp_path / f"cfg{suffix}"
        cfgfile.write_text(json.dumps(settings) if suffix == ".json" else
                           "".join(f"{k} = {json.dumps(v)}\n" for k, v in settings.items()))
        flags = ["--seed", "3", "--stop-tol", "1e-6", "--rho", "1", "--beta", "0.01",
                 "--admm-iters", "5", "--mode", "exact", "--penalty", "frobenius",
                 "--gates", "4"]

        def model_bytes(name, *extra):
            path = tmp_path / name
            assert main(["train", "--manifest", str(dataset / "manifest.json"),
                         "--out", str(path), *extra]) == 0
            return path.read_bytes()

        assert (model_bytes("file.json", "--config", str(cfgfile))
                == model_bytes("flags.json", *flags))
        # a flag still wins over the file
        assert (model_bytes("file7.json", "--config", str(cfgfile), "--admm-iters", "7")
                == model_bytes("flags7.json", *flags, "--admm-iters", "7"))


class TestPredict:
    def test_predictions_match_library(self, dataset, model, tmp_path):
        out = tmp_path / "preds.csv"
        rc = main(["predict", "--model", str(model),
                   "--features", str(dataset / "features.cldf"),
                   "--out", str(out), "--log", str(tmp_path / "p.log")])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        head = load_model(model)
        from cld.dataio import read_features

        H = read_features(dataset / "features.cldf").values
        expected = predict_batch(head, H).argmax(axis=1)
        got = np.array([int(l.split(",")[1]) for l in lines[1:]])
        np.testing.assert_array_equal(got, expected)
        latencies = [json.loads(l) for l in (tmp_path / "p.log").read_text().splitlines()]
        assert all("latency_ms" in rec for rec in latencies)

    @pytest.mark.parametrize("inference", ["gated", "relu"])
    def test_logits_equal_library_bit_for_bit(self, dataset, model, tmp_path, inference):
        out = tmp_path / "preds.csv"
        rc = main(["predict", "--model", str(model),
                   "--features", str(dataset / "features.cldf"), "--inference", inference,
                   "--out", str(out), "--log", str(tmp_path / "p.log")])
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
        got = np.array([[float(x) for x in r[3:]] for r in rows])
        H = read_features(dataset / "features.cldf").values
        np.testing.assert_array_equal(got, predict_batch(load_model(model), H, inference))

    def test_zero_vector_breaks_tie_to_class_zero(self, model, tmp_path):
        feats = tmp_path / "zero.csv"
        feats.write_text(",".join(["0"] * 8) + "\n")
        out = tmp_path / "preds.csv"
        rc = main(["predict", "--model", str(model), "--features", str(feats),
                   "--out", str(out), "--log", str(tmp_path / "z.log")])
        assert rc == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[1] == "0"

    def test_pool_composition(self, model, tmp_path):
        rng = np.random.default_rng(0)
        frames = rng.standard_normal((5, 8))
        mask = np.array([1, 1, 0, 1, 0], dtype=bool)
        seqdir = tmp_path / "seqs"
        seqdir.mkdir()
        write_sequence(seqdir / "utt0.clds", SequenceFeature(frames, mask))
        out = tmp_path / "pooled_preds.csv"
        # the relu logits, since this row's gated ones are [0, 0] and would match anything
        rc = main(["predict", "--model", str(model), "--features", str(seqdir), "--pool",
                   "--inference", "relu", "--out", str(out), "--log", str(tmp_path / "s.log")])
        assert rc == 0
        line = out.read_text().strip().splitlines()[1].split(",")
        from cld.dataio import pool_masked_mean

        # CLDS stores float32 frames, which read_sequence returns as they are
        pooled = pool_masked_mean(SequenceFeature(frames.astype(np.float32), mask))
        expected = predict_batch(load_model(model), pooled[None, :], "relu")[0]
        assert np.all(expected != 0.0)
        got = np.array([float(x) for x in line[3:]])
        np.testing.assert_allclose(got, expected, rtol=1e-15)
        assert line[0] == "utt0"

    def test_pool_of_directory_without_sequences_exits_2(self, model, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        rc = main(["predict", "--model", str(model), "--features", str(tmp_path / "empty"),
                   "--pool", "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        assert "no .clds sequence files under" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("frames, mask", [(np.ones((3, 8)), np.zeros(3, dtype=bool)),
                                              (np.ones((3, 9)), np.ones(3, dtype=bool))],
                             ids=["all-masked", "wider"])
    def test_pool_names_the_sequence_file_at_fault(self, model, tmp_path, capsys, frames, mask):
        seqdir = tmp_path / "seqs"
        seqdir.mkdir()
        write_sequence(seqdir / "a.clds", SequenceFeature(np.ones((2, 8)), np.ones(2, bool)))
        write_sequence(seqdir / "b.clds", SequenceFeature(frames, mask))
        write_sequence(seqdir / "c.clds", SequenceFeature(np.ones((2, 8)), np.ones(2, bool)))
        rc = main(["predict", "--model", str(model), "--features", str(seqdir), "--pool",
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cld: error: {seqdir / 'b.clds'}: ") and err.count("\n") == 1
        assert not (tmp_path / "p.csv").exists()

    def test_dimension_mismatch_exits_2(self, model, tmp_path):
        feats = tmp_path / "bad.csv"
        feats.write_text("1,2,3\n")
        rc = main(["predict", "--model", str(model), "--features", str(feats),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 2

    @pytest.mark.parametrize("case", ["missing-key", "label-map-values", "unequal-patterns",
                                      "stated-K", "non-hex-weight", *sorted(MALFORMED_DOCS)])
    def test_malformed_model_exits_2(self, dataset, model, tmp_path, capsys, case):
        doc = json.loads(model.read_text())
        if case == "missing-key":
            del doc["V"]
        elif case == "label-map-values":
            first, second = sorted(doc["label_map"])
            doc["label_map"] = {first: 0, second: 5}
        elif case == "stated-K":
            # one class fewer than V holds, and no bundle to catch it
            doc["K"], doc["cert"] = 1, None
            doc["label_map"] = {k: v for k, v in doc["label_map"].items() if v == 0}
        elif case == "non-hex-weight":
            doc["V"]["data"][0] = "zz"
        elif case in MALFORMED_DOCS:
            doc = MALFORMED_DOCS[case](doc)
        else:
            # a version-1 file, whose training patterns must have one length
            doc = as_version_1(doc, ["1" * 10, "1" * 9] + ["1" * 10] * (doc["P"] - 2))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(bad)
        rc = main(["predict", "--model", str(bad), "--features", str(dataset / "features.cldf"),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_model_file_unchanged_by_predict(self, dataset, model, tmp_path):
        before = model.read_bytes()
        main(["predict", "--model", str(model),
              "--features", str(dataset / "features.cldf"),
              "--out", str(tmp_path / "p.csv"), "--log", str(tmp_path / "l.log")])
        assert model.read_bytes() == before


class TestCertify:
    def test_csv_schema_and_summary(self, dataset, model, tmp_path):
        out, summary = tmp_path / "c.csv", tmp_path / "s.json"
        rc = main(["certify", "--model", str(model),
                   "--manifest", str(dataset / "manifest.json"),
                   "--out", str(out), "--summary", str(summary)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "id,pred,true,margin,radius_feature,radius_audio,certified"
        doc = json.loads(summary.read_text())
        assert doc["bounds"]["B_l21"] <= doc["bounds"]["B_fro_scaled"] + 1e-12
        curve = doc["certified_accuracy"]["accuracy"]
        assert all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))

    def test_le_flag_halves_radii(self, dataset, model, tmp_path):
        plain, scaled = tmp_path / "plain.csv", tmp_path / "scaled.csv"
        main(["certify", "--model", str(model), "--manifest", str(dataset / "manifest.json"),
              "--out", str(plain), "--summary", str(tmp_path / "a.json")])
        main(["certify", "--model", str(model), "--manifest", str(dataset / "manifest.json"),
              "--out", str(scaled), "--summary", str(tmp_path / "b.json"), "--L-E", "2.0"])
        rows_p = plain.read_text().strip().splitlines()[1:]
        rows_s = scaled.read_text().strip().splitlines()[1:]
        for p, s in zip(rows_p, rows_s):
            rf = float(p.split(",")[4])
            ra = s.split(",")[5]
            assert float(ra) == pytest.approx(rf / 2.0)

    @pytest.mark.parametrize("le", ["0", "-1", "inf", "nan"])
    def test_nonpositive_le_exits_2(self, dataset, model, tmp_path, capsys, le):
        out, summary = tmp_path / "c.csv", tmp_path / "s.json"
        rc = main(["certify", "--model", str(model),
                   "--manifest", str(dataset / "manifest.json"),
                   "--out", str(out), "--summary", str(summary), "--L-E", le])
        assert rc == 2
        assert "L_E must be positive" in capsys.readouterr().err
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("grid", ["0,abc", "0,nan", "inf", "0,-0.1", " , "])
    def test_bad_eps_grid_exits_2_before_any_output(self, dataset, model, tmp_path, capsys, grid):
        out, summary = tmp_path / "c.csv", tmp_path / "s.json"
        rc = main(["certify", "--model", str(model),
                   "--manifest", str(dataset / "manifest.json"),
                   "--out", str(out), "--summary", str(summary), "--eps-grid", grid])
        assert rc == 2
        assert "--eps-grid" in capsys.readouterr().err
        assert not out.exists() and not summary.exists()

    def test_reordered_label_map_gives_same_certificates(self, dataset, model, tmp_path):
        manifest = _manifest_copy(dataset, tmp_path, _reordered_label_map(dataset))
        outputs = []
        for m, tag in ((dataset / "manifest.json", "train"), (manifest, "reordered")):
            out, summary = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
            assert main(["certify", "--model", str(model), "--manifest", str(m),
                         "--out", str(out), "--summary", str(summary)]) == 0
            outputs.append((out.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_null_cert_model_gives_same_certificates(self, dataset, model, tmp_path):
        doc = json.loads(model.read_text())
        doc["cert"] = None
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc))
        outputs = []
        for m, tag in ((model, "stored"), (bare, "null")):
            out, summary = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
            assert main(["certify", "--model", str(m), "--manifest", str(dataset / "manifest.json"),
                         "--out", str(out), "--summary", str(summary), "--L-E", "2.5"]) == 0
            outputs.append((out.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_label_unknown_to_model_exits_2(self, dataset, model, tmp_path, capsys):
        manifest = _unknown_label_manifest(dataset, tmp_path)
        out = tmp_path / "c.csv"
        rc = main(["certify", "--model", str(model), "--manifest", str(manifest),
                   "--out", str(out), "--summary", str(tmp_path / "s.json")])
        assert rc == 2
        assert "'xx'" in capsys.readouterr().err
        assert not out.exists()

    def test_misclassified_rows_have_zero_radius(self, dataset, model, tmp_path):
        # flip every label; margins go negative and radii clamp to zero
        manifest = json.loads((dataset / "manifest.json").read_text())
        labels = (dataset / "labels.csv").read_text().strip().splitlines()
        flipped = tmp_path / "flipped.csv"
        names = list(manifest["label_map"])
        flipped.write_text("".join(
            f"{l.split(',')[0]},{names[1 - manifest['label_map'][l.split(',')[1]]]}\n"
            for l in labels
        ))
        m2 = tmp_path / "m2.json"
        m2.write_text(json.dumps({
            "features": str(dataset / "features.cldf"),
            "labels": str(flipped), "label_map": manifest["label_map"],
        }))
        out = tmp_path / "c.csv"
        main(["certify", "--model", str(model), "--manifest", str(m2),
              "--out", str(out), "--summary", str(tmp_path / "s.json")])
        rows = out.read_text().strip().splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            if float(cells[3]) < 0:
                assert float(cells[4]) == 0.0
                assert cells[6] == "false"


class TestInputFiles:
    @pytest.mark.parametrize("case", sorted(BAD_INPUT_FILES))
    def test_bad_input_file_exits_2_naming_it(self, dataset, model, tmp_path, capsys, case):
        name, content, argv = BAD_INPUT_FILES[case]
        bad = tmp_path / name
        bad.write_bytes(content)
        argv = argv(str(bad), dataset, model, tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("cld: error: ") and err.count("\n") == 1
        assert str(bad) in err
        assert not Path(argv[argv.index("--out") + 1]).exists()

    @pytest.mark.parametrize("command", ["train", "eval", "certify"])
    def test_huge_label_map_value_exits_2_naming_the_manifest(self, dataset, model, tmp_path,
                                                               capsys, command):
        # 10**30 does not fit an int64 class id: the map is refused before any conversion
        label_map = json.loads((dataset / "manifest.json").read_text())["label_map"]
        manifest = _manifest_copy(dataset, tmp_path, {name: 10 ** 30 if v else 0
                                                      for name, v in label_map.items()})
        out = tmp_path / "out"
        argv = {"train": ["train", "--manifest", str(manifest), "--out", str(out), *FAST_TRAIN],
                "eval": ["eval", "--model", str(model), "--manifest", str(manifest),
                         "--out", str(out)],
                "certify": ["certify", "--model", str(model), "--manifest", str(manifest),
                            "--out", str(out), "--summary", str(tmp_path / "summary.json")]
                }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cld: error: {manifest}: label_map values must be exactly 0..K-1")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["synth", "--accents", "5,x"], "--accents"),
        (["bench", "--sizes", "abc"], "--sizes"),
        (["bench", "--sizes", "10,"], "--sizes"),
    ])
    def test_bad_comma_list_exits_2_naming_the_flag(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cld: error: {flag} must be a comma list of integers >= 1, got ")
        assert err.rstrip().endswith(f" in {argv[-1]!r}") and err.count("\n") == 1
        assert not out.exists()


# --- input errors by property ---------------------------------------------

# the files of the tiny set each mutation may hit, and the JSON documents among them
MUTABLE = {"model": "model.json", "manifest": "manifest.json", "features": "features.cldf",
           "sequence": "utt.clds", "labels": "labels.csv"}
JSON_KINDS = ("model", "manifest")
_DELETE = "<delete>"   # a json mutation that removes the node instead of replacing it

JSON_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -1, 2 ** 63, 10 ** 30, 0.5, 1e308, "", "x",
                     "inf", "nan", "0x1p+0", "features.cldf", [], {}, [1], {"a": 1},
                     _DELETE]),
    st.integers(), st.text(max_size=4))
MUTATIONS = st.one_of(
    st.tuples(st.just("byte"), st.integers(0, 2 ** 16), st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 2 ** 16), st.none()),
    st.tuples(st.just("insert"), st.integers(0, 2 ** 16), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("delete"), st.integers(0, 2 ** 16), st.integers(1, 64)),
    st.tuples(st.just("json"), st.integers(0, 2 ** 16), JSON_VALUES),
)


def _json_paths(doc, path=()):
    """Every node of a JSON document, the root first, keys in sorted order."""
    yield path
    if isinstance(doc, dict):
        children = sorted(doc.items())
    else:
        children = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _json_paths(value, (*path, key))


def _mutate(data: bytes, mutation) -> bytes:
    op, at, arg = mutation
    if op == "json":   # replace (or delete) one node of the document
        doc = json.loads(data)
        paths = list(_json_paths(doc))
        path = paths[at % len(paths)]
        if not path:
            return json.dumps(None if arg == _DELETE else arg).encode()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if arg == _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = arg
        return json.dumps(doc).encode()
    at %= len(data) + 1
    return {"byte": lambda: data[:at] + bytes([arg]) + data[at + 1:],
            "truncate": lambda: data[:at],
            "insert": lambda: data[:at] + arg + data[at:],
            "delete": lambda: data[:at] + data[at + arg:]}[op]()


@pytest.fixture(scope="module")
def mutable_set(tmp_path_factory):
    """A 20 x 4 synth set, a head trained on it and one frame sequence."""
    base = tmp_path_factory.mktemp("mutable")
    assert main(["synth", "--out", str(base), "--languages", "2", "--accents", "1,1",
                 "--dim", "4", "--samples-per-accent", "10", "--seed", "1"]) == 0
    assert main(["train", "--manifest", str(base / "manifest.json"), "--out",
                 str(base / "model.json"), "--log", str(base / "train.log"), *FAST_TRAIN]) == 0
    frames = np.random.default_rng(1).standard_normal((6, 4))
    write_sequence(base / "utt.clds", SequenceFeature(frames, np.arange(6) % 3 > 0))
    return base


def _commands(work: Path, kind: str, train_too: bool) -> list[list[str]]:
    """The commands that read the ``kind`` of file, on the copy of the set in ``work``."""
    at = {name: str(work / name) for name in (*MUTABLE.values(), "p.csv", "q.csv", "c.csv",
                                               "s.json", "r.json", "m.json", "run.log")}
    serve = {
        "predict": ["predict", "--model", at["model.json"], "--features", at["features.cldf"],
                    "--out", at["p.csv"], "--log", at["run.log"]],
        "predict --pool": ["predict", "--model", at["model.json"], "--pool",
                           "--features", at["utt.clds"], "--out", at["q.csv"],
                           "--log", at["run.log"]],
        "certify": ["certify", "--model", at["model.json"], "--manifest", at["manifest.json"],
                    "--out", at["c.csv"], "--summary", at["s.json"]],
        "eval": ["eval", "--model", at["model.json"], "--manifest", at["manifest.json"],
                 "--out", at["r.json"]],
    }
    names = {"model": ["predict", "predict --pool", "certify", "eval"],
             "manifest": ["certify", "eval"], "features": ["predict", "certify", "eval"],
             "sequence": ["predict --pool"], "labels": ["certify", "eval"]}[kind]
    commands = [serve[name] for name in names]
    if train_too and kind not in ("model", "sequence"):
        commands.append(["train", "--manifest", at["manifest.json"], "--out", at["m.json"],
                         "--log", at["run.log"], *FAST_TRAIN])
    return commands


class TestInputErrorsByProperty:
    """Whatever its input files hold, cld exits 0, 2 or 3 and never with a
    traceback, and an exit 2 prints exactly one ``cld: error:`` line.

    Each example mutates one file of a tiny synth set (the model JSON, the
    manifest, the CLDF features, a CLDS sequence or the labels CSV) and runs
    every command that reads it; a third of the non-model mutations train too.
    Warnings stay warnings here, as they are for a user of the command line.
    """

    @pytest.mark.filterwarnings("default::UserWarning", "default::RuntimeWarning")
    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(sorted(MUTABLE)), MUTATIONS, st.sampled_from([True, False, False]))
    # 10**30 does not fit an int64 class id (the label map's "zh" is its node 4)
    @example("manifest", ("json", 4, 10 ** 30), True)
    def test_exit_codes(self, mutable_set, kind, mutation, train_too):
        assume(mutation[0] != "json" or kind in JSON_KINDS)
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            for name in MUTABLE.values():
                shutil.copy(mutable_set / name, work / name)
            target = work / MUTABLE[kind]
            target.write_bytes(_mutate(target.read_bytes(), mutation))
            for argv in _commands(work, kind, train_too):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    try:
                        rc = main(argv)
                    except Exception as exc:   # on the command line, a traceback
                        pytest.fail(f"cld {argv[0]} escaped with {exc!r}")
                event(f"{kind}: cld {argv[0]} exits {rc}")   # --hypothesis-show-statistics
                assert rc in (0, 2, 3), (argv, rc)
                lines = [line for line in err.getvalue().splitlines()
                         if not line.startswith("cld: warning: ")]
                if rc == 2:
                    assert len(lines) == 1 and lines[0].startswith("cld: error: "), lines


class TestCertifySeparated:
    def test_fully_certified_on_well_separated_data(self, tmp_path):
        # cone-constrained training keeps relu-mode inference aligned with the
        # separating fit, so every point carries a positive margin and the
        # certified fraction hits 1 at eps = 0
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--languages", "2",
                     "--accents", "1,1", "--dim", "6", "--separation", "40",
                     "--samples-per-accent", "12", "--seed", "6"]) == 0
        model = tmp_path / "model.json"
        assert main(["train", "--manifest", str(data / "manifest.json"),
                     "--out", str(model), "--mode", "exact", "--gates", "6",
                     "--rho", "0.5", "--admm-iters", "50",
                     "--stop-tol", "1e-8", "--seed", "6"]) == 0
        summary = tmp_path / "summary.json"
        assert main(["certify", "--model", str(model),
                     "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "c.csv"), "--summary", str(summary)]) == 0
        doc = json.loads(summary.read_text())
        assert doc["certified_fraction"] == 1.0
        assert doc["certified_accuracy"]["accuracy"][0] == 1.0

    def test_relaxed_head_relu_divergence_is_reported(self, tmp_path):
        # extreme separation makes the relaxed head's relu-mode predictions
        # drift from its gated fit; the certify summary must carry the caveat
        data = tmp_path / "data"
        main(["synth", "--out", str(data), "--languages", "2", "--accents", "1,1",
              "--dim", "8", "--separation", "40", "--samples-per-accent", "25",
              "--seed", "6"])
        model = tmp_path / "model.json"
        main(["train", "--manifest", str(data / "manifest.json"), "--out", str(model),
              "--rho", "0.5", "--admm-iters", "150", "--stop-tol", "1e-8",
              "--seed", "6"])
        summary = tmp_path / "summary.json"
        main(["certify", "--model", str(model), "--manifest", str(data / "manifest.json"),
              "--out", str(tmp_path / "c.csv"), "--summary", str(summary)])
        doc = json.loads(summary.read_text())
        assert doc["note"] is not None and "relu" in doc["note"]
        assert doc["inference_mode"] == "relu"


class TestEvalCommand:
    def test_report_and_confusion(self, dataset, model, tmp_path):
        out = tmp_path / "report.json"
        conf = tmp_path / "conf.csv"
        rc = main(["eval", "--model", str(model),
                   "--manifest", str(dataset / "manifest.json"),
                   "--accents", str(dataset / "accents.csv"),
                   "--out", str(out), "--confusion-csv", str(conf)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert doc["per_accent"] is not None
        assert conf.read_text().startswith("true\\pred,")

    def test_report_goes_to_stdout_without_out(self, dataset, model, tmp_path, capsys):
        argv = ["eval", "--model", str(model), "--manifest", str(dataset / "manifest.json")]
        assert main([*argv, "--out", str(tmp_path / "report.json")]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == (tmp_path / "report.json").read_text()

    def test_blank_accent_lines_are_skipped(self, dataset, model, tmp_path):
        header, *rows = (dataset / "accents.csv").read_text().splitlines()
        blanks = tmp_path / "blanks.csv"
        blanks.write_text("\n".join(["", header, rows[0], "", *rows[1:], "  "]) + "\n")
        reports = []
        for accents in (dataset / "accents.csv", blanks):
            out = tmp_path / f"{accents.stem}.json"
            assert main(["eval", "--model", str(model), "--manifest", str(dataset / "manifest.json"),
                         "--accents", str(accents), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_reordered_label_map_gives_same_report(self, dataset, model, tmp_path):
        manifest = _manifest_copy(dataset, tmp_path, _reordered_label_map(dataset))
        reports = []
        for m, tag in ((dataset / "manifest.json", "train"), (manifest, "reordered")):
            out, conf = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
            assert main(["eval", "--model", str(model), "--manifest", str(m),
                         "--out", str(out), "--confusion-csv", str(conf)]) == 0
            reports.append((out.read_bytes(), conf.read_bytes()))
        assert reports[0] == reports[1]
        assert json.loads(reports[0][0])["accuracy"] > 0.9

    def test_label_unknown_to_model_exits_2(self, dataset, model, tmp_path, capsys):
        manifest = _unknown_label_manifest(dataset, tmp_path)
        rc = main(["eval", "--model", str(model), "--manifest", str(manifest),
                   "--out", str(tmp_path / "report.json")])
        assert rc == 2
        assert "'xx'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_accent_row_without_accent_id_exits_2(self, dataset, model, tmp_path, capsys):
        lines = (dataset / "accents.csv").read_text().splitlines()
        lines[3] = lines[3].split(",")[0]
        accents = tmp_path / "accents.csv"
        accents.write_text("\n".join(lines) + "\n")
        rc = main(["eval", "--model", str(model), "--manifest", str(dataset / "manifest.json"),
                   "--accents", str(accents), "--out", str(tmp_path / "report.json")])
        assert rc == 2
        assert "line 4" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_non_integer_accent_id_exits_2(self, dataset, model, tmp_path, capsys):
        lines = (dataset / "accents.csv").read_text().splitlines()
        ex_id, _, label = lines[3].split(",")
        lines[3] = f"{ex_id},north,{label}"
        accents = tmp_path / "accents.csv"
        accents.write_text("\n".join(lines) + "\n")
        rc = main(["eval", "--model", str(model), "--manifest", str(dataset / "manifest.json"),
                   "--accents", str(accents), "--out", str(tmp_path / "report.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "accents.csv: line 4" in err and "north" in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()


    def test_reordered_accent_rows_give_same_report(self, model, tmp_path):
        # overlapping clouds, so the accents' accuracies differ and a row
        # matched to the wrong example would show
        data = tmp_path / "overlap"
        assert main(["synth", "--out", str(data), "--languages", "2", "--accents", "2,2",
                     "--dim", "8", "--spread", "3", "--sigma", "3",
                     "--samples-per-accent", "30", "--seed", "6"]) == 0
        header, *rows = (data / "accents.csv").read_text().splitlines()
        reversed_rows = tmp_path / "reversed.csv"
        reversed_rows.write_text("\n".join([header, *reversed(rows)]) + "\n")
        reports = []
        for accents in (data / "accents.csv", reversed_rows):
            out = tmp_path / f"{accents.stem}.json"
            assert main(["eval", "--model", str(model), "--manifest", str(data / "manifest.json"),
                         "--accents", str(accents), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert len(set(json.loads(reports[0])["per_accent"].values())) > 1

    def test_example_without_accent_row_exits_2(self, dataset, model, tmp_path, capsys):
        header, *rows = (dataset / "accents.csv").read_text().splitlines()
        accents = tmp_path / "accents.csv"
        accents.write_text("\n".join([header, *rows[:3], *rows[4:]]) + "\n")
        rc = main(["eval", "--model", str(model), "--manifest", str(dataset / "manifest.json"),
                   "--accents", str(accents), "--out", str(tmp_path / "report.json")])
        assert rc == 2
        missing = rows[3].split(",")[0]
        assert f"accents.csv: no row for example id '{missing}'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


class TestBench:
    def test_single_size_and_determinism(self, tmp_path):
        args = ["bench", "--languages", "2", "--accents", "1,1", "--dim", "6",
                "--samples-per-accent", "40", "--sizes", "24",
                "--seed", "2", *FAST_TRAIN[:-2]]
        assert main([*args, "--out", str(tmp_path / "r1"),
                     "--log", str(tmp_path / "b1.log")]) == 0
        assert main([*args, "--out", str(tmp_path / "r2"),
                     "--log", str(tmp_path / "b2.log")]) == 0
        csv1 = (tmp_path / "r1" / "accuracy_vs_size.csv").read_bytes()
        csv2 = (tmp_path / "r2" / "accuracy_vs_size.csv").read_bytes()
        assert csv1 == csv2
        lines = csv1.decode().strip().splitlines()
        assert len(lines) == 2      # header + one size row
        assert (tmp_path / "r1" / "metrics_24.json").exists()
        assert (tmp_path / "r1" / "per_accent_24.csv").exists()
        # wall-clock goes to the log sink, never into result files
        log = (tmp_path / "b1.log").read_text()
        assert "seconds" in log
        assert "seconds" not in csv1.decode()

    def test_eval_report_and_metrics_keys(self, dataset, model, tmp_path):
        # the exact key sets, so that any new field is added on purpose
        report = {"n", "accuracy", "confusion", "per_class", "per_accent"}
        out = tmp_path / "report.json"
        assert main(["eval", "--model", str(model), "--manifest", str(dataset / "manifest.json"),
                     "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())) == report
        assert main(["bench", "--languages", "2", "--accents", "1,1", "--dim", "4",
                     "--samples-per-accent", "20", "--sizes", "12", "--out", str(tmp_path / "r"),
                     "--log", str(tmp_path / "b.log"), "--admm-iters", "3", "--rho", "0.1"]) == 0
        metrics = json.loads((tmp_path / "r" / "metrics_12.json").read_text())
        assert set(metrics) == report | {"certified_fraction", "mean_radius", "n_train"}

    def test_log_holds_admm_iterations_for_every_size(self, tmp_path):
        log = tmp_path / "b.log"
        rc = main(["bench", "--languages", "2", "--accents", "1,1", "--dim", "4",
                   "--samples-per-accent", "20", "--sizes", "12,24",
                   "--out", str(tmp_path / "r"), "--log", str(log),
                   "--admm-iters", "3", "--rho", "0.1"])
        assert rc == 0
        records = [json.loads(l) for l in log.read_text().splitlines()]
        iters = [rec for rec in records if "iter" in rec]
        assert {rec["size"] for rec in iters} == {12, 24}
        assert all(len([r for r in iters if r["size"] == s]) == 3 for s in (12, 24))
        factors = [rec for rec in records if rec.get("phase") == "u_factor"]
        assert sorted(rec["size"] for rec in factors) == [12, 24]
        assert all(rec["gram_seconds"] + rec["factor_seconds"] <= rec["seconds"] for rec in factors)
        summaries = [rec for rec in records if rec.get("phase") == "summary"]
        assert sorted((rec["size"], rec["iters"]) for rec in summaries) == [(12, 3), (24, 3)]

    def test_oversized_request_capped_with_warning(self, tmp_path, capsys):
        rc = main(["bench", "--languages", "2", "--accents", "1,1", "--dim", "4",
                   "--samples-per-accent", "10", "--sizes", "999",
                   "--out", str(tmp_path / "r"), "--log", str(tmp_path / "b.log"),
                   "--admm-iters", "3", "--rho", "0.1"])
        assert rc == 0
        assert "cld: warning: size 999 exceeds" in capsys.readouterr().err
        rows = (tmp_path / "r" / "accuracy_vs_size.csv").read_text().strip().splitlines()
        assert rows[1].startswith("999,16,")

    def test_size_beyond_int64_is_capped(self, tmp_path, capsys):
        size = 2 ** 64
        assert main(["bench", "--languages", "2", "--accents", "1,1", "--dim", "4",
                     "--samples-per-accent", "10", "--sizes", str(size),
                     "--out", str(tmp_path / "r"), "--log", str(tmp_path / "b.log"),
                     "--admm-iters", "3", "--rho", "0.1"]) == 0
        assert f"cld: warning: size {size} exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", ["0", "-5", "24,-5"])
    def test_size_below_one_exits_2(self, tmp_path, capsys, sizes):
        log = tmp_path / "b.log"
        rc = main(["bench", "--languages", "2", "--accents", "1,1", "--dim", "4",
                   "--samples-per-accent", "20", "--sizes", sizes,
                   "--out", str(tmp_path / "r"), "--log", str(log)])
        assert rc == 2
        assert f"got {sizes.split(',')[-1]}" in capsys.readouterr().err
        assert log.read_text() == ""      # refused before any training
        assert not (tmp_path / "r").exists()

    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys):
        rc = main(["bench", "--sizes", "24", "--seed", "-1", "--out", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("cld: error: ") and "seed" in err
        assert not (tmp_path / "r").exists()

    def test_stratified_order_takes_groups_in_turn(self):
        # pool rows by group: 0 -> [6, 0, 2, 5], 1 -> [1], 2 -> [3]
        groups = np.array([0, 1, 0, 2, 1, 0, 0])
        order = _stratified_order(groups, np.array([6, 0, 1, 2, 3, 5]))
        np.testing.assert_array_equal(order, [6, 1, 3, 0, 2, 5])

    def test_config_seed_draws_data_split_and_gates(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"seed": 5}))
        args = ["bench", "--languages", "2", "--accents", "1,1", "--dim", "4",
                "--samples-per-accent", "20", "--sizes", "24", "--rho", "0.1",
                "--admm-iters", "20", "--log", str(tmp_path / "b.log")]
        assert main([*args, "--out", str(tmp_path / "cfg"), "--config", str(cfgfile)]) == 0
        assert main([*args, "--out", str(tmp_path / "flag"), "--seed", "5"]) == 0
        cfg, flag = tmp_path / "cfg", tmp_path / "flag"
        names = sorted(p.name for p in cfg.iterdir())
        assert names == sorted(p.name for p in flag.iterdir())
        for name in names:
            assert (cfg / name).read_bytes() == (flag / name).read_bytes()


class TestVerifyCommand:
    """`cld train --verify`: the cross-check against the reference solvers."""

    def test_agreement_exit_zero(self, dataset, tmp_path):
        log, out = tmp_path / "t.log", tmp_path / "m.json"
        rc = main(["train", "--verify", "--out", str(out), "--log", str(log),
                   "--manifest", str(dataset / "manifest.json"),
                   "--gates", "4", "--rho", "0.1", "--admm-iters", "400",
                   "--stop-tol", "1e-9", "--seed", "0"])
        assert rc == 0
        assert out.exists()
        records = [json.loads(l) for l in log.read_text().splitlines()]
        assert [rec.get("phase") for rec in records if "phase" in rec] == [
            "u_factor", "summary", "train"]
        assert "verify" in records[-1]

    @pytest.mark.filterwarnings("always::UserWarning")
    def test_unconverged_run_exits_3(self, dataset, tmp_path, capsys):
        # paper-default iteration budget leaves the objective far from optimal;
        # main prints the all-zero warning itself, as one cld: line on stderr,
        # so the warning is shown (not raised) and read from stderr
        out = tmp_path / "m.json"
        show = warnings.showwarning
        rc = main(["train", "--verify", "--out", str(out),
                   "--manifest", str(dataset / "manifest.json"),
                   "--gates", "4", "--admm-iters", "2", "--seed", "0"])
        assert rc == 3
        err = capsys.readouterr().err
        assert re.search(r"^cld: warning: trained head is all zero", err, re.M)
        assert "UserWarning" not in err and "verification failed" in err
        assert not out.exists()
        assert warnings.showwarning is show

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_refused_before_training(self, dataset, tmp_path, capsys, tol):
        # nan would pass every cross-check, a negative tolerance fail every one
        log, out = tmp_path / "v.log", tmp_path / "m.json"
        rc = main(["train", "--verify", "--verify-tol", tol, "--out", str(out),
                   "--manifest", str(dataset / "manifest.json"), "--log", str(log),
                   *FAST_TRAIN])
        assert rc == 2
        assert "--verify-tol" in capsys.readouterr().err
        assert log.read_text() == ""
        assert not out.exists()

    def test_oversized_instance_refused(self, tmp_path, capsys):
        data = tmp_path / "big"
        assert main(["synth", "--out", str(data), "--languages", "2",
                     "--accents", "1,1", "--dim", "64",
                     "--samples-per-accent", "300", "--seed", "1"]) == 0
        log, out = tmp_path / "v.log", tmp_path / "m.json"
        rc = main(["train", "--verify", "--out", str(out),
                   "--manifest", str(data / "manifest.json"),
                   "--gates", "64", "--admm-iters", "2", "--seed", "1", "--log", str(log)])
        assert rc == 2
        assert "too large" in capsys.readouterr().err
        assert log.read_text() == ""      # refused on n * count * d before training
        assert not out.exists()

    def test_exact_mode_refused_before_training(self, dataset, tmp_path, capsys):
        log, out = tmp_path / "v.log", tmp_path / "m.json"
        rc = main(["train", "--verify", "--out", str(out),
                   "--manifest", str(dataset / "manifest.json"), "--mode", "exact",
                   "--gates", "4", "--log", str(log)])
        assert rc == 2
        assert "relaxed-mode training only" in capsys.readouterr().err
        assert log.read_text() == ""      # no training record: it never started
        assert not out.exists()

    def test_enumerated_patterns_verify(self, tiny, tmp_path):
        log = tmp_path / "t.log"
        rc = main(["train", "--enumerate-gates", "--verify", "--out", str(tmp_path / "m.json"),
                   "--manifest", str(tiny / "manifest.json"), "--log", str(log),
                   "--rho", "0.01", "--admm-iters", "2000", "--stop-tol", "1e-10"])
        assert rc == 0
        report = json.loads(log.read_text().splitlines()[-1])["verify"]
        assert "dense" in report["objectives"]

    def test_enumeration_limits_fit_the_oracle_budget(self):
        # enumeration is not size-checked before training: its n and d limits
        # must keep n * P * d within the accelerated oracle's budget
        n, d = _ENUM_MAX_N, _ENUM_MAX_D
        assert n * _cells_bound(n, d) * d <= _FISTA_VERIFY_GUARD


class TestOutputDirectory:
    @pytest.mark.parametrize("command, flag", [
        ("train", "--out"), ("predict", "--out"), ("certify", "--out"), ("certify", "--summary"),
        ("eval", "--out"), ("eval", "--confusion-csv"), ("gates-enum", "--out")])
    def test_missing_directory_refused_before_any_work(self, dataset, model, tmp_path, capsys,
                                                       command, flag):
        manifest, features = str(dataset / "manifest.json"), str(dataset / "features.cldf")
        log, out, extra = str(tmp_path / "t.log"), str(tmp_path / "o.out"), str(tmp_path / "e.out")
        argv = {
            "train": ["--manifest", manifest, "--out", out, "--log", log, *FAST_TRAIN],
            "predict": ["--model", str(model), "--features", features, "--out", out,
                        "--log", log],
            "certify": ["--model", str(model), "--manifest", manifest, "--out", out,
                        "--summary", extra],
            "eval": ["--model", str(model), "--manifest", manifest, "--out", out,
                     "--confusion-csv", extra],
            "gates-enum": ["--features", features, "--out", out],
        }[command]
        missing = tmp_path / "nodir" / "x.out"
        argv[argv.index(flag) + 1] = str(missing)
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err == f"cld: error: cannot write {missing}: directory {missing.parent} " \
                      "does not exist\n"
        # no output written and, where there is a log, nothing computed
        assert [p.name for p in tmp_path.iterdir()] in ([], ["t.log"])
        if (tmp_path / "t.log").exists():
            assert (tmp_path / "t.log").read_text() == ""


class TestGatesEnum:
    def test_enumerates_identity(self, tmp_path):
        feats = tmp_path / "tiny.csv"
        feats.write_text("1,0\n0,1\n")
        out = tmp_path / "enum.json"
        rc = main(["gates-enum", "--features", str(feats), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["count"] == 4
        assert set(doc["patterns"]) == {"11", "10", "01", "00"}

    def test_witnesses_reproduce_patterns(self, tmp_path):
        X = np.random.default_rng(29).standard_normal((7, 3))
        feats = tmp_path / "x.cldf"
        write_features(feats, X)
        out = tmp_path / "enum.json"
        assert main(["gates-enum", "--features", str(feats), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["count"] == len(doc["patterns"]) == len(doc["witnesses"]) > 0
        for bits, w in zip(doc["patterns"], doc["witnesses"]):
            got = "".join("1" if a else "0" for a in X @ np.array(w) >= 0.0)
            assert got == bits

    def test_guard_exits_2(self, tmp_path, capsys):
        feats = tmp_path / "big.cldf"
        write_features(feats, np.random.default_rng(0).standard_normal((30, 2)))
        rc = main(["gates-enum", "--features", str(feats)])
        assert rc == 2
        assert "enumeration" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["relaxed", "exact"])
    def test_train_enumerate_gates_uses_these_patterns(self, tiny, tmp_path, mode):
        out = tmp_path / "enum.json"
        assert main(["gates-enum", "--features", str(tiny / "x.csv"), "--out", str(out)]) == 0
        model = tmp_path / "m.json"
        assert main(["train", "--enumerate-gates", "--mode", mode, "--out", str(model),
                     "--manifest", str(tiny / "manifest.json"), "--log", str(tmp_path / "t.log"),
                     "--rho", "0.1", "--admm-iters", "20"]) == 0
        doc = json.loads(out.read_text())
        gates = load_model(model).gates
        assert np.array_equal(gates.generators, doc["witnesses"])
        assert bitstrings(gates.patterns(read_features(tiny / "x.csv").values)) == doc["patterns"]


def test_readme_commands_parse():
    # every `cld` line of the README's bash blocks, backslash continuations joined
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("cld ")]
    assert len(commands) >= 9
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: cld {shlex.join(argv)}")
