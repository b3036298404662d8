"""On-disk formats for embedding features, labels, and frame sequences.

Two binary containers are defined, both little-endian:

* feature matrix:   magic ``CLDF`` | version u32=1 | n u64 | d u64 | n*d f32
  (row-major)
* frame sequence:   magic ``CLDS`` | version u32=1 | T u64 | d u64 | T*d f32
  (row-major) | T mask bytes (0/1)

Payloads are stored as 32-bit floats (encoder outputs are 32-bit) and stay
float32 in memory: a binary read fills one float32 array straight from the
file and checks it once, ``linops.row_blocks`` at a time. Every pass over
the rows upcasts one row block to float64 (``linops.feature_array``), so all
solver math runs in double precision. CSV is accepted as a secondary feature
format for hand-written fixtures. Labels are a two-column CSV ``id,label``;
a manifest is a JSON object ``{"features": ..., "labels": ..., "label_map":
{...}}`` with paths resolved relative to the manifest file.

Every file cld reads or writes goes through this module: in through
``read_text`` (UTF-8), ``read_document`` (one JSON or TOML object) and
``csv_rows``, which name the file in every error, and out through ``atomic_write``.
"""

from __future__ import annotations

import io
import json
import os
import struct
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linops import feature_array, row_blocks

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


class _NonFiniteEntry(DataFormatError):
    """A non-finite entry of a feature or frame array, at (row, col) ``at``."""

    def __init__(self, what: str, at: tuple[int, int]):
        super().__init__(f"non-finite {what} entry at (row {at[0]}, col {at[1]})")
        self.at = at


def _check_finite(values: np.ndarray, what: str) -> None:
    """Raise _NonFiniteEntry at the first non-finite entry, scanning a row block at a time."""
    for rows in row_blocks(len(values), values.itemsize * values.shape[1]):
        finite = np.isfinite(values[rows])
        if not finite.all():
            r, c = np.argwhere(~finite)[0]
            raise _NonFiniteEntry(what, (rows.start + int(r), int(c)))


@dataclass(frozen=True)
class FeatureMatrix:
    """n x d matrix of pooled utterance embeddings, one row per example (float32 or float64)."""

    values: np.ndarray

    def __post_init__(self):
        v = feature_array(self.values)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DataFormatError(f"feature matrix must be 2-D and non-empty, got shape {v.shape}")
        _check_finite(v, "feature")
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
        K = len(self.label_map)   # checked first: an id beyond int64 fails the conversion
        if K < 2:
            raise LabelError(f"need at least 2 classes, label_map has {K}")
        bad = {k: v for k, v in self.label_map.items() if type(v) is not int}
        if bad:
            raise LabelError(f"label_map values must be integer class indices, not {bad}")
        if sorted(self.label_map.values()) != list(range(K)):
            raise LabelError("label_map values must be exactly 0..K-1")
        cid = np.asarray(self.class_ids)
        if cid.ndim != 1 or cid.size < 1:
            raise LabelError("class_ids must be a non-empty 1-D sequence")
        if cid.dtype.kind not in "iu":   # bools, floats and strings are refused, not cast
            raise LabelError(f"class_ids must be integer class indices, got {cid.dtype} values")
        if cid.min() < 0 or cid.max() >= K:
            raise LabelError(f"class id out of range [0, {K}) in class_ids")
        object.__setattr__(self, "class_ids", cid.astype(np.int64, copy=False))
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
        f = feature_array(self.frames)
        m = np.asarray(self.mask, dtype=bool)
        if f.ndim != 2:
            raise DataFormatError(f"frames must be 2-D, got shape {f.shape}")
        if m.shape != (f.shape[0],):
            raise DataFormatError("mask length must equal the frame count")
        _check_finite(f, "frame")
        object.__setattr__(self, "frames", f)
        object.__setattr__(self, "mask", m)

    @property
    def T(self) -> int:
        return self.frames.shape[0]

    @property
    def d(self) -> int:
        return self.frames.shape[1]


def pool_masked_mean(seq: SequenceFeature) -> np.ndarray:
    """Average the masked-in frames into a single length-d float64 embedding."""
    count = int(seq.mask.sum())
    if count == 0:
        raise DataFormatError("cannot pool a sequence whose mask excludes every frame")
    return seq.frames[seq.mask].sum(axis=0, dtype=np.float64) / count


def atomic_write(path, data: bytes | str | Iterable[str]) -> None:
    """Replace ``path`` by ``data`` whole, or leave it as it was.

    ``data`` is bytes, a str or an iterable of str chunks, written as they
    come (text as UTF-8). An OSError names ``path``, not the temporary file.
    """
    tmp = Path(f"{path}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            for chunk in [data] if isinstance(data, (bytes, str)) else data:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is not None:
            exc.filename, exc.filename2 = str(path), None
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


def read_text(path) -> str:
    """The UTF-8 text of ``path``; an OSError or a bad byte raises DataFormatError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc


def read_document(path, what: str, parse=json.loads) -> dict:
    """The object ``parse`` reads from ``path``; a syntax error or a non-object names the file."""
    text = read_text(path)
    try:
        doc = parse(text)
    except ValueError as exc:     # JSONDecodeError and TOMLDecodeError alike
        raise DataFormatError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: a {what} is a JSON object, not {type(doc).__name__}")
    return doc


def csv_rows(path) -> Iterator[tuple[int, list[str]]]:
    """(0-based line number, stripped cells) of each non-blank line, made one at a time."""
    for lineno, line in enumerate(io.StringIO(read_text(path))):
        if line.strip():
            yield lineno, [cell.strip() for cell in line.split(",")]


def _read_feature_csv(path) -> FeatureMatrix:
    rows = []
    for lineno, cells in csv_rows(path):
        if rows and len(cells) != len(rows[0]):
            raise DataFormatError(
                f"{path}: row {lineno} has {len(cells)} columns, expected {len(rows[0])}")
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


def _read_container(path: Path, magic: bytes, trailer_per_row: int, build):
    """``build(payload, trailer)`` for a CLDF or CLDS file's (rows, d) float32
    payload, read straight into one array, and the bytes after it.

    A CLDS file follows its frames with one mask byte per frame
    (``trailer_per_row`` = 1); a CLDF file ends with its payload. ``build``
    checks the payload's finiteness (``FeatureMatrix`` or ``SequenceFeature``);
    a non-finite entry is named by its byte offset in the file.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DataFormatError(f"{path}: truncated header at byte {len(header)}")
        found, version, rows, d = _HEADER.unpack(header)
        if found != magic:
            raise DataFormatError(f"{path}: bad magic {found!r}")
        if version != FORMAT_VERSION:
            raise DataFormatError(f"{path}: unsupported format version {version}")
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.size + (4 * d + trailer_per_row) * rows
        if size != expected:
            raise DataFormatError(
                f"{path}: payload truncated at byte {size}, expected {expected} bytes")
        values = np.empty((rows, d), dtype="<f4")
        got = fh.readinto(values)
        if got != values.nbytes:
            raise DataFormatError(f"{path}: payload truncated at byte {_HEADER.size + got}")
        trailer = fh.read()
    try:
        return build(values, trailer)
    except _NonFiniteEntry as exc:
        row, col = exc.at
        offset = _HEADER.size + 4 * (row * d + col)
        raise DataFormatError(f"{path}: non-finite entry at byte offset {offset} (row {row})") from None


def read_features(path) -> FeatureMatrix:
    """Read a CLDF binary file into a float32 matrix, or a CSV feature file into a float64 one."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"feature file does not exist: {path}")
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head != FEATURE_MAGIC:
        return _read_feature_csv(path)

    def build(values, _):
        if values.size == 0:
            raise DataFormatError(f"{path}: declared shape {values.shape[0]}x{values.shape[1]} is empty")
        return FeatureMatrix(values)

    return _read_container(path, FEATURE_MAGIC, 0, build)


def write_sequence(path, seq: SequenceFeature) -> None:
    """Write a frame sequence in the CLDS binary format."""
    atomic_write(path, _HEADER.pack(SEQUENCE_MAGIC, FORMAT_VERSION, seq.T, seq.d)
                 + _f32_payload(path, seq.frames) + seq.mask.astype(np.uint8).tobytes())


def read_sequence(path) -> SequenceFeature:
    """Read a CLDS sequence file; its frames are float32."""
    return _read_container(Path(path), SEQUENCE_MAGIC, 1, lambda frames, mask_bytes:
                           SequenceFeature(frames, np.frombuffer(mask_bytes, dtype=np.uint8) != 0))


def read_labels(path, label_map: dict[str, int]) -> LabelSet:
    """Read an ``id,label`` CSV against a fixed label map."""
    ids, class_ids = [], []
    for lineno, cells in csv_rows(path):
        if len(cells) != 2:
            raise LabelError(f"{path}: row {lineno} is not 'id,label'")
        ex_id, name = cells
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
    doc = read_document(path, "manifest")
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
    if sorted(label_map.values()) != list(range(len(label_map))):
        raise LabelError(f"{path}: label_map values must be exactly 0..K-1 "
                         f"for its K = {len(label_map)} classes")
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
