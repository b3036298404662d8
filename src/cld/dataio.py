"""On-disk formats for embedding features, labels, and frame sequences.

Two binary containers are defined, both little-endian:

* feature matrix:   magic ``CLDF`` | version u32=1 | n u64 | d u64 | n*d f32
  (row-major)
* frame sequence:   magic ``CLDS`` | version u32=1 | T u64 | d u64 | T*d f32
  (row-major) | T mask bytes (0/1)

Payloads are stored as 32-bit floats (encoder outputs are 32-bit); every
reader promotes to float64 so that all downstream solver math runs in double
precision. CSV is accepted as a secondary feature format for hand-written
fixtures. Labels are a two-column CSV ``id,label``; a manifest is a JSON
object ``{"features": ..., "labels": ..., "label_map": {...}}`` with paths
resolved relative to the manifest file.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"CLDF"
SEQUENCE_MAGIC = b"CLDS"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIQQ")


class DataFormatError(ValueError):
    """A feature or sequence file failed to parse or validate."""


class AlignmentError(ValueError):
    """Features and labels disagree on the number of examples."""


class LabelError(ValueError):
    """Unknown, missing, or malformed labels."""


@dataclass(frozen=True)
class FeatureMatrix:
    """n x d matrix of pooled utterance embeddings, one row per example."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DataFormatError(f"feature matrix must be 2-D and non-empty, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            r, c = np.argwhere(~np.isfinite(v))[0]
            raise DataFormatError(f"non-finite feature entry at (row {r}, col {c})")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabelSet:
    """Integer class ids plus the class-index <-> language-string mapping."""

    class_ids: np.ndarray
    label_map: dict[str, int]
    ids: tuple[str, ...] = field(default=())

    def __post_init__(self):
        cid = np.asarray(self.class_ids, dtype=np.int64)
        if cid.ndim != 1 or cid.size < 1:
            raise LabelError("class_ids must be a non-empty 1-D sequence")
        K = len(self.label_map)
        if K < 2:
            raise LabelError(f"need at least 2 classes, label_map has {K}")
        bad = {k: v for k, v in self.label_map.items() if type(v) is not int}
        if bad:
            raise LabelError(f"label_map values must be integer class indices, not {bad}")
        if sorted(self.label_map.values()) != list(range(K)):
            raise LabelError("label_map values must be exactly 0..K-1")
        if cid.min() < 0 or cid.max() >= K:
            raise LabelError(f"class id out of range [0, {K}) in class_ids")
        object.__setattr__(self, "class_ids", cid)
        if not self.ids:
            object.__setattr__(self, "ids", tuple(str(i) for i in range(cid.size)))
        elif len(self.ids) != cid.size:
            raise LabelError("ids and class_ids lengths differ")

    @property
    def n(self) -> int:
        return self.class_ids.size

    @property
    def K(self) -> int:
        return len(self.label_map)

    @property
    def names(self) -> list[str]:
        inv = {v: k for k, v in self.label_map.items()}
        return [inv[k] for k in range(self.K)]

    def relabel(self, label_map: dict[str, int]) -> "LabelSet":
        """The same labels numbered by ``label_map``, matched by name."""
        unknown = sorted(set(self.label_map) - set(label_map))
        if unknown:
            raise LabelError(f"labels {unknown} are not among the classes {sorted(label_map)}")
        new_ids = np.array([label_map[name] for name in self.names])
        return LabelSet(new_ids[self.class_ids], dict(label_map), self.ids)

    def one_hot(self) -> np.ndarray:
        Y = np.zeros((self.n, self.K))
        Y[np.arange(self.n), self.class_ids] = 1.0
        return Y


@dataclass(frozen=True)
class SequenceFeature:
    """T x d encoder frames with a validity mask (True = frame counts)."""

    frames: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frames, dtype=np.float64)
        m = np.asarray(self.mask, dtype=bool)
        if f.ndim != 2:
            raise DataFormatError(f"frames must be 2-D, got shape {f.shape}")
        if m.shape != (f.shape[0],):
            raise DataFormatError("mask length must equal the frame count")
        if not np.all(np.isfinite(f)):
            raise DataFormatError("non-finite frame entry")
        object.__setattr__(self, "frames", f)
        object.__setattr__(self, "mask", m)

    @property
    def T(self) -> int:
        return self.frames.shape[0]

    @property
    def d(self) -> int:
        return self.frames.shape[1]


def pool_masked_mean(seq: SequenceFeature) -> np.ndarray:
    """Average the masked-in frames into a single length-d embedding."""
    count = int(seq.mask.sum())
    if count == 0:
        raise DataFormatError("cannot pool a sequence whose mask excludes every frame")
    return seq.frames[seq.mask].sum(axis=0) / count


def atomic_write(path, data: bytes | str) -> None:
    """Replace ``path`` by ``data`` (bytes, or a str as UTF-8) whole, or leave it as it was."""
    tmp = Path(f"{path}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _f32_payload(path, values: np.ndarray) -> bytes:
    """The <f4 bytes of a finite 2-D array; an entry beyond float32's range is refused."""
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(values, dtype="<f4")
    if not np.all(np.isfinite(payload)):
        r, c = np.argwhere(~np.isfinite(payload))[0]
        raise DataFormatError(f"{path}: {values[r, c]:g} at (row {r}, col {c}) overflows float32")
    return payload.tobytes()


def write_features(path, matrix) -> None:
    """Write a feature matrix in the CLDF binary format (f32 payload)."""
    values = (matrix if isinstance(matrix, FeatureMatrix) else FeatureMatrix(matrix)).values
    n, d = values.shape
    atomic_write(path, _HEADER.pack(FEATURE_MAGIC, FORMAT_VERSION, n, d)
                 + _f32_payload(path, values))


def _read_feature_csv(path) -> FeatureMatrix:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise DataFormatError(f"{path}: row {lineno} has {len(cells)} columns, expected {width}")
            parsed = []
            for col, cell in enumerate(cells):
                try:
                    x = float(cell)
                except ValueError:
                    raise DataFormatError(f"{path}: unparseable value at (row {lineno}, col {col})") from None
                if not np.isfinite(x):
                    raise DataFormatError(f"{path}: non-finite value at (row {lineno}, col {col})")
                parsed.append(x)
            rows.append(parsed)
    if not rows:
        raise DataFormatError(f"{path}: empty feature file")
    return FeatureMatrix(np.array(rows, dtype=np.float64))


def _read_container(path: Path, magic: bytes, trailer_per_row: int):
    """Checked (rows, d) float64 payload of a CLDF or CLDS file, and the bytes after it.

    A CLDS file follows its frames with one mask byte per frame
    (``trailer_per_row`` = 1); a CLDF file ends with its payload.
    """
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise DataFormatError(f"{path}: truncated header at byte {len(raw)}")
    found, version, rows, d = _HEADER.unpack_from(raw)
    if found != magic:
        raise DataFormatError(f"{path}: bad magic {found!r}")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported format version {version}")
    end = _HEADER.size + 4 * rows * d
    expected = end + trailer_per_row * rows
    if len(raw) != expected:
        raise DataFormatError(f"{path}: payload truncated at byte {len(raw)}, expected {expected} bytes")
    values = np.frombuffer(raw, dtype="<f4", count=rows * d, offset=_HEADER.size)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        offset = _HEADER.size + 4 * int(bad[0])
        raise DataFormatError(f"{path}: non-finite entry at byte offset {offset} (row {bad[0] // d})")
    return values.astype(np.float64).reshape(rows, d), raw[end:]


def read_features(path) -> FeatureMatrix:
    """Read a CLDF binary or CSV feature file into a float64 matrix."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"feature file does not exist: {path}")
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head != FEATURE_MAGIC:
        return _read_feature_csv(path)
    values, _ = _read_container(path, FEATURE_MAGIC, 0)
    if values.size == 0:
        raise DataFormatError(f"{path}: declared shape {values.shape[0]}x{values.shape[1]} is empty")
    return FeatureMatrix(values)


def write_sequence(path, seq: SequenceFeature) -> None:
    """Write a frame sequence in the CLDS binary format."""
    atomic_write(path, _HEADER.pack(SEQUENCE_MAGIC, FORMAT_VERSION, seq.T, seq.d)
                 + _f32_payload(path, seq.frames) + seq.mask.astype(np.uint8).tobytes())


def read_sequence(path) -> SequenceFeature:
    """Read a CLDS sequence file."""
    frames, mask_bytes = _read_container(Path(path), SEQUENCE_MAGIC, 1)
    return SequenceFeature(frames, np.frombuffer(mask_bytes, dtype=np.uint8) != 0)


def read_labels(path, label_map: dict[str, int]) -> LabelSet:
    """Read an ``id,label`` CSV against a fixed label map."""
    ids, class_ids = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise LabelError(f"{path}: row {lineno} is not 'id,label'")
            ex_id, name = parts[0].strip(), parts[1].strip()
            if name not in label_map:
                raise LabelError(f"{path}: unknown class string {name!r} at row {lineno}")
            ids.append(ex_id)
            class_ids.append(label_map[name])
    if not ids:
        raise LabelError(f"{path}: empty label file")
    return LabelSet(np.array(class_ids), dict(label_map), tuple(ids))


def write_labels(path, labels: LabelSet) -> None:
    names = labels.names
    atomic_write(path, "".join(f"{ex_id},{names[cid]}\n"
                               for ex_id, cid in zip(labels.ids, labels.class_ids)))


def write_manifest(path, features_path, labels_path, label_map: dict[str, int]) -> None:
    doc = {"features": str(features_path), "labels": str(labels_path), "label_map": label_map}
    atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_manifest(path) -> tuple[FeatureMatrix, LabelSet]:
    """Load an aligned (features, labels) pair from a manifest JSON."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:     # ValueError: bad JSON or bad UTF-8
        raise DataFormatError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: a manifest is a JSON object, not {type(doc).__name__}")
    for key, kind in (("features", str), ("labels", str), ("label_map", dict)):
        if key not in doc:
            raise DataFormatError(f"{path}: manifest missing {key!r}")
        if not isinstance(doc[key], kind):
            raise DataFormatError(f"{path}: manifest field {key!r} must be a JSON "
                                  f"{'string' if kind is str else 'object'}, not {doc[key]!r}")
    base = path.parent
    features = read_features(base / doc["features"])
    label_map = doc["label_map"]
    bad = {k: v for k, v in label_map.items() if not isinstance(v, int) or isinstance(v, bool)}
    if bad:
        raise DataFormatError(f"{path}: label_map values must be integer class indices, "
                              f"not {bad}")
    if len(label_map) < 2:
        raise LabelError(f"{path}: label_map needs at least 2 classes")
    labels = read_labels(base / doc["labels"], label_map)
    if labels.n != features.n:
        raise AlignmentError(
            f"{path}: features have {features.n} rows but labels have {labels.n}"
        )
    counts = np.bincount(labels.class_ids, minlength=labels.K)
    if np.any(counts == 0):
        missing = [labels.names[k] for k in np.flatnonzero(counts == 0)]
        warnings.warn(f"classes never seen in labels: {missing}", stacklevel=2)
    return features, labels
