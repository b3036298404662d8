import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cld.dataio import (
    AlignmentError,
    DataFormatError,
    FeatureMatrix,
    LabelError,
    LabelSet,
    SequenceFeature,
    atomic_write,
    csv_rows,
    load_manifest,
    pool_masked_mean,
    read_features,
    read_labels,
    read_sequence,
    write_features,
    write_labels,
    write_manifest,
    write_sequence,
)
import cld.linops
from cld.linops import ROW_BLOCK_BYTES

from conftest import traced_peak


# one (3, 2) file of each binary container, and its reader
CONTAINERS = {
    "cldf": (lambda p: write_features(p, np.ones((3, 2))), read_features),
    "clds": (lambda p: write_sequence(p, SequenceFeature(np.ones((3, 2)), np.ones(3, dtype=bool))),
             read_sequence),
}


class TestFeatureFiles:
    def test_csv_identity(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,0\n0,1\n")
        fm = read_features(p)
        assert fm.n == 2 and fm.d == 2
        np.testing.assert_array_equal(fm.values, np.eye(2))

    def test_binary_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((100, 16)).astype(np.float32).astype(np.float64)
        p = tmp_path / "f.cldf"
        write_features(p, values)
        back = read_features(p)
        assert back.values.dtype == np.float32   # the stored precision
        np.testing.assert_array_equal(back.values, values)
        # second pass writes the identical file
        p2 = tmp_path / "g.cldf"
        write_features(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_binary_read_holds_no_second_copy_of_the_payload(self, tmp_path):
        # 40,000 x 64 entries: the float32 result is 10 MB, as is the file's
        # payload. Beside the result the read holds one row block of the
        # finiteness check's mask, never a float64 copy or an n x d mask
        values = np.random.default_rng(8).standard_normal((40000, 64)).astype(np.float32)
        p = tmp_path / "f.cldf"
        write_features(p, values)
        back, peak = traced_peak(read_features, p)
        assert back.values.dtype == np.float32
        np.testing.assert_array_equal(back.values, values)
        assert peak <= values.nbytes + ROW_BLOCK_BYTES + 256 * 1024

    def test_csv_nan_reports_position(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2\n3,nan\n")
        with pytest.raises(DataFormatError, match=r"row 1, col 1"):
            read_features(p)

    def test_binary_truncated_reports_offset(self, tmp_path):
        p = tmp_path / "f.cldf"
        write_features(p, np.ones((3, 2)))
        raw = p.read_bytes()
        p.write_bytes(raw[:-5])
        with pytest.raises(DataFormatError, match="byte"):
            read_features(p)

    def test_binary_bad_version(self, tmp_path):
        p = tmp_path / "f.cldf"
        write_features(p, np.ones((2, 2)))
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="version"):
            read_features(p)

    @pytest.mark.parametrize("fmt", sorted(CONTAINERS))
    def test_binary_nonfinite_reports_offset(self, tmp_path, monkeypatch, fmt):
        # with 8-byte blocks each 2-float row is checked alone, so the bad
        # entry is found in the second block and its offset counts the first
        monkeypatch.setattr(cld.linops, "ROW_BLOCK_BYTES", 8)
        write, read = CONTAINERS[fmt]
        p = tmp_path / f"f.{fmt}"
        write(p)
        raw = bytearray(p.read_bytes())
        raw[36:40] = np.float32(np.nan).tobytes()     # row 1, col 1 after the 24-byte header
        p.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=r"non-finite entry at byte offset 36 \(row 1\)"):
            read(p)

    def test_binary_nonfinite_rejected_on_write(self, tmp_path):
        with pytest.raises(DataFormatError):
            write_features(tmp_path / "f.cldf", np.array([[1.0, np.inf]]))

    def test_empty_matrix_rejected_on_write(self, tmp_path):
        # the writer checks as FeatureMatrix does, so it writes nothing the reader refuses
        with pytest.raises(DataFormatError, match=r"non-empty, got shape \(0, 3\)"):
            write_features(tmp_path / "f.cldf", np.zeros((0, 3)))
        assert not (tmp_path / "f.cldf").exists()

    @pytest.mark.parametrize("fmt", ["cldf", "clds"])
    def test_float32_overflow_rejected_on_write(self, tmp_path, fmt):
        # -1e39 is finite in float64 but -inf in float32, which the readers refuse;
        # float32's own largest value still round-trips
        write, read = {
            "cldf": (write_features, lambda p: read_features(p).values),
            "clds": (lambda p, v: write_sequence(p, SequenceFeature(v, np.ones(3, dtype=bool))),
                     lambda p: read_sequence(p).frames),
        }[fmt]
        values = np.ones((3, 2))
        values[0, 0] = np.finfo(np.float32).max
        write(tmp_path / f"ok.{fmt}", values)
        np.testing.assert_array_equal(read(tmp_path / f"ok.{fmt}"), values)
        values[2, 1] = -1e39
        p = tmp_path / f"f.{fmt}"
        with pytest.raises(DataFormatError, match=r"-1e\+39 at \(row 2, col 1\) overflows float32"):
            write(p, values)
        assert not p.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="exist"):
            read_features(tmp_path / "nope.cldf")

    def test_ragged_csv(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(DataFormatError, match="columns"):
            read_features(p)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataFormatError):
            FeatureMatrix(np.zeros((0, 3)))


class TestAtomicWrite:
    def test_text_is_utf8_and_replaces(self, tmp_path):
        p = tmp_path / "t.txt"
        atomic_write(p, b"old")
        atomic_write(p, "zh \u4e2d\n")
        assert p.read_bytes() == "zh \u4e2d\n".encode("utf-8")
        assert [q.name for q in tmp_path.iterdir()] == ["t.txt"]

    def test_chunks_are_written_in_order(self, tmp_path):
        p = tmp_path / "t.txt"
        atomic_write(p, iter(["zh ", "\u4e2d", "\n"]))
        assert p.read_bytes() == "zh \u4e2d\n".encode("utf-8")

    @pytest.mark.parametrize("make", ["missing-dir", "directory"])
    def test_error_names_the_given_path(self, tmp_path, make):
        target = tmp_path / "nodir" / "t.txt" if make == "missing-dir" else tmp_path / "t"
        if make == "directory":
            target.mkdir()
        with pytest.raises(OSError) as info:
            atomic_write(target, "x")
        assert info.value.filename == str(target) and info.value.filename2 is None
        assert ".tmp." not in str(info.value)

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(OSError):
            write_features(target, np.ones((2, 2)))
        assert target.is_dir() and list(target.iterdir()) == []
        assert [q.name for q in tmp_path.iterdir()] == ["out"]


class TestSequences:
    def test_round_trip(self, tmp_path):
        frames = np.arange(12, dtype=np.float64).reshape(4, 3)
        seq = SequenceFeature(frames, np.array([1, 0, 1, 1], dtype=bool))
        p = tmp_path / "s.clds"
        write_sequence(p, seq)
        back = read_sequence(p)
        np.testing.assert_array_equal(back.frames, frames)
        np.testing.assert_array_equal(back.mask, seq.mask)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "s.clds"
        p.write_bytes(b"XXXX" + b"\x00" * 30)
        with pytest.raises(DataFormatError, match="magic"):
            read_sequence(p)

    def test_truncated_reports_offset(self, tmp_path):
        p = tmp_path / "s.clds"
        write_sequence(p, SequenceFeature(np.ones((3, 2)), np.ones(3, dtype=bool)))
        raw = p.read_bytes()
        p.write_bytes(raw[:-5])
        with pytest.raises(DataFormatError, match="byte"):
            read_sequence(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "s.clds"
        write_sequence(p, SequenceFeature(np.ones((3, 2)), np.ones(3, dtype=bool)))
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="version"):
            read_sequence(p)


class TestPooling:
    def test_full_mask_mean(self):
        seq = SequenceFeature(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([True, True]))
        np.testing.assert_allclose(pool_masked_mean(seq), [2.0, 3.0])

    def test_single_frame_selection(self):
        seq = SequenceFeature(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([True, False]))
        np.testing.assert_allclose(pool_masked_mean(seq), [1.0, 2.0])

    def test_repeated_row_is_identity(self):
        row = np.array([0.5, -1.5, 2.0])
        seq = SequenceFeature(np.tile(row, (5, 1)), np.ones(5, dtype=bool))
        np.testing.assert_allclose(pool_masked_mean(seq), row)

    def test_empty_mask_rejected(self):
        seq = SequenceFeature(np.ones((3, 2)), np.zeros(3, dtype=bool))
        with pytest.raises(DataFormatError, match="mask"):
            pool_masked_mean(seq)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_masked_out_frames_do_not_matter(self, seed):
        rng = np.random.default_rng(seed)
        T, d = 6, 3
        frames = rng.standard_normal((T, d))
        mask = rng.integers(0, 2, T).astype(bool)
        mask[rng.integers(0, T)] = True
        pooled = pool_masked_mean(SequenceFeature(frames, mask))
        noisy = frames.copy()
        noisy[~mask] = rng.standard_normal((int((~mask).sum()), d)) * 100
        np.testing.assert_array_equal(
            pooled, pool_masked_mean(SequenceFeature(noisy, mask))
        )

def _class_index_zero_as(value):
    """A manifest edit that writes ``value`` in place of class index 0."""
    return lambda doc: {**doc, "label_map": {k: value if v == 0 else v
                                             for k, v in doc["label_map"].items()}}


# manifest edits that load_manifest must reject with a DataFormatError naming
# the file, each with a fragment of the message that names the field
MALFORMED_MANIFESTS = {
    "number-document": (lambda doc: 5, "JSON object"),
    "number-features": (lambda doc: {**doc, "features": 5}, "'features'"),
    "list-label-map": (lambda doc: {**doc, "label_map": sorted(doc["label_map"])}, "'label_map'"),
    "string-class-index": (_class_index_zero_as("x"), "label_map values"),
    "float-class-index": (_class_index_zero_as(1.7), "label_map values"),
    "bool-class-index": (_class_index_zero_as(True), "label_map values"),
    "numeric-string-class-index": (_class_index_zero_as("0"), "label_map values"),
}


def _write_dataset(tmp_path, n=3, labels=("en", "zh", "en"), label_map=None):
    """m.json over an (n, 2) f.cldf and an l.csv of ``labels``."""
    write_features(tmp_path / "f.cldf", np.arange(2 * n, dtype=float).reshape(n, 2))
    (tmp_path / "l.csv").write_text(
        "".join(f"{i},{lab}\n" for i, lab in enumerate(labels))
    )
    write_manifest(tmp_path / "m.json", "f.cldf", "l.csv", label_map or {"en": 0, "zh": 1})
    return tmp_path / "m.json"


class TestLabelsAndManifest:
    def test_load_manifest(self, tmp_path):
        manifest = _write_dataset(tmp_path)
        fm, labels = load_manifest(manifest)
        assert fm.n == labels.n == 3
        np.testing.assert_array_equal(labels.class_ids, [0, 1, 0])
        assert labels.label_map == {"en": 0, "zh": 1}

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_malformed_manifest_names_file_and_field(self, tmp_path, case):
        manifest = _write_dataset(tmp_path)
        edit, field = MALFORMED_MANIFESTS[case]
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        with pytest.raises(DataFormatError, match="m.json") as info:
            load_manifest(manifest)
        assert field in str(info.value)

    def test_alignment_error(self, tmp_path):
        manifest = _write_dataset(tmp_path)
        write_features(tmp_path / "f.cldf", np.zeros((10, 2)))
        with pytest.raises(AlignmentError, match="10"):
            load_manifest(manifest)

    def test_unknown_label(self, tmp_path):
        manifest = _write_dataset(tmp_path, labels=("en", "fr", "en"))
        with pytest.raises(LabelError, match="'fr'"):
            load_manifest(manifest)

    def test_empty_label_file(self, tmp_path):
        manifest = _write_dataset(tmp_path)
        (tmp_path / "l.csv").write_text("")
        with pytest.raises(LabelError, match="empty"):
            load_manifest(manifest)

    def test_labels_round_trip(self, tmp_path):
        labels = LabelSet(np.array([0, 1, 1]), {"en": 0, "zh": 1}, ("a", "b", "c"))
        write_labels(tmp_path / "l.csv", labels)
        back = read_labels(tmp_path / "l.csv", labels.label_map)
        np.testing.assert_array_equal(back.class_ids, labels.class_ids)
        assert back.ids == labels.ids

    def test_failed_manifest_write_keeps_old_manifest(self, tmp_path):
        manifest = _write_dataset(tmp_path)
        before = manifest.read_bytes()
        with pytest.raises(TypeError):
            write_manifest(manifest, "f.cldf", "l.csv", {"en": np.int64(0), "zh": 1})
        assert manifest.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.cldf", "l.csv", "m.json"]

    def test_one_hot(self):
        labels = LabelSet(np.array([0, 1, 2, 1]), {"a": 0, "b": 1, "c": 2})
        Y = labels.one_hot()
        assert Y.shape == (4, 3)
        np.testing.assert_array_equal(Y.sum(axis=1), np.ones(4))
        np.testing.assert_array_equal(Y.argmax(axis=1), labels.class_ids)

    def test_csv_rows_skip_blank_lines_and_strip_cells(self, tmp_path):
        # lines are numbered from 0 in the file, blank ones included
        (tmp_path / "r.csv").write_bytes(b"a, b\r\n\n  \n c ,d,\n")
        assert list(csv_rows(tmp_path / "r.csv")) == [(0, ["a", "b"]), (3, ["c", "d", ""])]

    def test_label_set_needs_two_classes(self):
        with pytest.raises(LabelError):
            LabelSet(np.array([0, 0]), {"en": 0})


def _load_written(name, text):
    """load_manifest after writing ``text`` to ``name`` over a valid dataset."""
    def run(tmp_path):
        manifest = _write_dataset(tmp_path)
        (tmp_path / name).write_text(text)
        load_manifest(manifest)
    return run


def _read_written(name, data, read):
    """``read`` of a file holding ``data`` (bytes, or text)."""
    def run(tmp_path):
        p = tmp_path / name
        if isinstance(data, bytes):
            p.write_bytes(data)
        else:
            p.write_text(data)
        read(p)
    return run


# inputs each reader or record must refuse: (trigger, expected error or warning, message)
INPUT_ERRORS = {
    "labels-empty": (lambda tmp: LabelSet(np.array([], dtype=int), {"a": 0, "b": 1}),
                     LabelError, "non-empty 1-D"),
    "labels-map-gap": (lambda tmp: LabelSet(np.array([0, 1]), {"a": 0, "b": 2}),
                       LabelError, "exactly 0..K-1"),
    # ids taken from such a map do not fit int64: the map is refused before they are converted
    "labels-map-beyond-int64": (lambda tmp: LabelSet([10 ** 30, 0], {"a": 0, "b": 10 ** 30}),
                                LabelError, "exactly 0..K-1"),
    "labels-map-bool": (lambda tmp: LabelSet(np.array([0, 1, 0, 1]), {"a": False, "b": True}),
                        LabelError, r"integer class indices, not \{'a': False, 'b': True\}"),
    "labels-map-float": (lambda tmp: LabelSet(np.array([0, 1]), {"a": 0, "b": 1.0}),
                         LabelError, r"integer class indices, not \{'b': 1.0\}"),
    "labels-id-out-of-range": (lambda tmp: LabelSet(np.array([0, 2]), {"a": 0, "b": 1}),
                               LabelError, r"out of range \[0, 2\)"),
    "labels-ids-length": (lambda tmp: LabelSet(np.array([0, 1]), {"a": 0, "b": 1}, ("x",)),
                          LabelError, "lengths differ"),
    "sequence-1d-frames": (lambda tmp: SequenceFeature(np.ones(3), np.ones(3, dtype=bool)),
                           DataFormatError, "frames must be 2-D"),
    "sequence-mask-length": (lambda tmp: SequenceFeature(np.ones((3, 2)), np.ones(2, dtype=bool)),
                             DataFormatError, "mask length"),
    "sequence-nonfinite": (lambda tmp: SequenceFeature(np.array([[1.0, np.nan]]), [True]),
                           DataFormatError, "non-finite frame entry"),
    "csv-unparseable": (_read_written("f.csv", "1,2\n3,x\n", read_features),
                        DataFormatError, r"f.csv: unparseable value at \(row 1, col 1\)"),
    "csv-not-utf8": (_read_written("f.csv", b"1,2\n3,\xff\n", read_features),
                     DataFormatError, "cannot read .*f.csv: 'utf-8' codec can't decode"),
    "csv-empty": (_read_written("f.csv", "\n\n", read_features),
                  DataFormatError, "f.csv: empty feature file"),
    "cldf-truncated-header": (_read_written("f.cldf", b"CLDF" + bytes(6), read_features),
                              DataFormatError, "f.cldf: truncated header at byte 10"),
    "clds-truncated-header": (_read_written("s.clds", b"CLDS" + bytes(6), read_sequence),
                              DataFormatError, "s.clds: truncated header at byte 10"),
    "cldf-declared-empty": (_read_written("f.cldf", struct.pack("<4sIQQ", b"CLDF", 1, 0, 2),
                                          read_features),
                            DataFormatError, "f.cldf: declared shape 0x2 is empty"),
    "labels-row-not-id-label": (_load_written("l.csv", "0,en\n1,zh,extra\n2,en\n"),
                                LabelError, "l.csv: row 1 is not 'id,label'"),
    "labels-not-utf8": (_read_written("l.csv", b"0,en\n1,\xff\n",
                                      lambda p: read_labels(p, {"en": 0, "zh": 1})),
                        DataFormatError, "cannot read .*l.csv: 'utf-8' codec can't decode"),
    "manifest-not-utf8": (_read_written("m.json", b'{"features": "\xff"}', load_manifest),
                          DataFormatError, "cannot read .*m.json: 'utf-8' codec can't decode"),
    "manifest-unreadable": (_load_written("m.json", "{not json"),
                            DataFormatError, "cannot read manifest .*m.json"),
    "manifest-missing-key": (_load_written("m.json", json.dumps(
                                 {"features": "f.cldf", "label_map": {"en": 0, "zh": 1}})),
                             DataFormatError, "m.json: manifest missing 'labels'"),
    "manifest-one-class": (lambda tmp: load_manifest(_write_dataset(
                               tmp, labels=("en",) * 3, label_map={"en": 0})),
                           LabelError, "m.json: label_map needs at least 2 classes"),
    "manifest-class-never-seen": (lambda tmp: load_manifest(_write_dataset(
                                      tmp, labels=("en",) * 3)),
                                  UserWarning, r"classes never seen in labels: \['zh'\]"),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_error_names_its_cause(tmp_path, case):
    trigger, expected, message = INPUT_ERRORS[case]
    check = pytest.warns if issubclass(expected, Warning) else pytest.raises
    with check(expected, match=message):
        trigger(tmp_path)
