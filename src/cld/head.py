"""The trained detection head: inference, the explicit ReLU form, and model I/O.

A head carries one weight block pair (V_p, W_p) of shape d x K per gate. Two
inference modes exist with different semantics:

* ``gated``: f_k(h) = sum_p 1(g_p . h >= 0) * h . (V_p - W_p)_k. This matches
  the training-time fit exactly on training rows, but is discontinuous across
  gate boundaries, so no Lipschitz statement attaches to it.
* ``relu``:  f_k(h) = sum_p [h . V_pk]_+ - [h . W_pk]_+. A genuine two-layer
  ReLU network (one hidden unit per nonzero weight column, at most 2PK of
  them); all robustness certificates are claimed for this mode.

For heads trained in split (cone-constrained) mode the two coincide on the
training set; for relaxed heads they may differ away from it. Relaxed heads
default to gated inference, split-mode heads to relu.
Both forms are built once, when the head is constructed, so every prediction
and certificate is one batched forward pass, taken ``linops.row_blocks`` at a
time: beside its inputs and logits a batch holds one block of hidden units
(or gate products), never a (rows x units) array, and a float32 batch is
upcast one block at a time. The certificate bundle is computed from the
weights at the same time.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .cert import CertificateBundle, bundle_from_weights, bundle_to_dict
from .cvxprog import MODES, PENALTY_KINDS
from .dataio import DataFormatError, atomic_write, read_document
from .gates import GateSet
from .linops import feature_array, row_blocks

MODEL_VERSION = 1
INFERENCE_MODES = ("gated", "relu")


class ModelFormatError(ValueError):
    """Model file failed to parse or validate."""


class ModelVersionError(ModelFormatError):
    """Model file written by an unknown format version."""


class CertificateMismatchError(ModelFormatError):
    """Stored certificate bundle does not match the stored weights."""


@dataclass(frozen=True)
class ReluNetwork:
    """Explicit two-layer ReLU network: f(h) = sum_j a_j [u_j . h]_+."""

    hidden: np.ndarray   # (m, d) rows u_j
    output: np.ndarray   # (m, K) rows a_j

    @property
    def m(self) -> int:
        return self.hidden.shape[0]

    def apply(self, H: np.ndarray) -> np.ndarray:
        """Logits for a batch of embeddings (rows of H), each row block upcast to float64."""
        H = np.atleast_2d(feature_array(H))
        out = np.empty((len(H), self.output.shape[1]))
        for rows in row_blocks(len(H), 8 * self.m):
            Z = np.asarray(H[rows], dtype=np.float64) @ self.hidden.T
            out[rows] = np.maximum(Z, 0.0, out=Z) @ self.output
            del Z   # freed before the next block is formed
        return out


@dataclass(frozen=True)
class TrainedHead:
    gates: GateSet
    V: np.ndarray                 # (P, d, K)
    W: np.ndarray                 # (P, d, K); all-zero for relaxed heads
    penalty_kind: str
    mode: str
    label_map: dict[str, int]
    cert: CertificateBundle = field(init=False)   # computed from the weights
    train_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ModelFormatError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.penalty_kind not in PENALTY_KINDS:
            raise ModelFormatError(
                f"penalty_kind must be one of {PENALTY_KINDS}, got {self.penalty_kind!r}")
        V = np.array(self.V, dtype=np.float64)
        W = np.array(self.W, dtype=np.float64)
        if V.shape != W.shape or V.ndim != 3:
            raise ModelFormatError(f"V/W must be matching 3-D stacks, got {V.shape} and {W.shape}")
        if V.shape[0] != self.gates.P:
            raise ModelFormatError(f"{V.shape[0]} weight blocks for {self.gates.P} gates")
        P, d, K = V.shape
        if self.gates.generators.shape[1] != d:
            raise ModelFormatError(
                f"generators have width {self.gates.generators.shape[1]}, the weights d = {d}")
        values = list(self.label_map.values())
        if (not all(isinstance(v, int) and not isinstance(v, bool) for v in values)
                or sorted(values) != list(range(K))):
            raise ModelFormatError(f"label_map values must be 0..{K - 1} exactly once each")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "W", W)
        # relu form: one unit per nonzero column, in (p, k) order, V's before W's
        cols = np.stack([V, W], axis=3).transpose(0, 2, 3, 1).reshape(-1, d)
        outs = np.tile(np.kron(np.eye(K), [[1.0], [-1.0]]), (P, 1))    # +e_k, -e_k
        keep = np.any(cols != 0.0, axis=1)
        net = ReluNetwork(cols[keep], outs[keep])
        object.__setattr__(self, "_relu", net)
        # gated form: V - W as a d x PK matrix, gated by the generators
        object.__setattr__(self, "_diff", (V - W).transpose(1, 0, 2).reshape(d, P * K))
        for a in (V, W, net.hidden, net.output):  # both forms are built from these once
            a.setflags(write=False)
        object.__setattr__(self, "cert", bundle_from_weights(V, W, K, self.penalty_kind))

    @property
    def P(self) -> int:
        return self.V.shape[0]

    @property
    def d(self) -> int:
        return self.V.shape[1]

    @property
    def K(self) -> int:
        return self.V.shape[2]

    @property
    def default_inference(self) -> str:
        return "gated" if self.mode == "relaxed" else "relu"

    @property
    def class_names(self) -> list[str]:
        inv = {v: k for k, v in self.label_map.items()}
        return [inv[k] for k in range(self.K)]


def to_relu(head: TrainedHead) -> ReluNetwork:
    """The head's explicit ReLU network, built once with the head.

    Every nonzero column V[p, :, k] is a hidden unit with output +e_k; every
    nonzero W[p, :, k] one with output -e_k.
    """
    return head._relu


def predict_batch(head: TrainedHead, H: np.ndarray, inference: str | None = None) -> np.ndarray:
    """Logits (rows) for a batch of embeddings under the chosen inference mode."""
    inference = inference or head.default_inference
    if inference not in INFERENCE_MODES:
        raise ValueError(f"inference must be one of {INFERENCE_MODES}")
    H = np.atleast_2d(feature_array(H))
    if H.shape[1] != head.d:
        raise ValueError(f"embeddings have dimension {H.shape[1]}, head expects {head.d}")
    if inference == "relu":
        return head._relu.apply(H)
    out = np.empty((H.shape[0], head.K))
    for rows in row_blocks(H.shape[0], 8 * head.P * (head.K + 2)):
        block = np.asarray(H[rows], dtype=np.float64)
        np.matmul((block @ head.gates.generators.T >= 0.0).astype(np.float64)[:, None, :],
                  (block @ head._diff).reshape(-1, head.P, head.K), out=out[rows, None, :])
    return out


def predict(head: TrainedHead, h: np.ndarray, inference: str | None = None) -> np.ndarray:
    """Logits for a single embedding vector."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1:
        raise ValueError("predict expects a single vector; use predict_batch for matrices")
    return predict_batch(head, h[None, :], inference)[0]


def margin(logits: np.ndarray, class_ids) -> np.ndarray:
    """Per-row one-vs-rest margin f_y - max_{k != y} f_k; positive iff y is the unique argmax."""
    logits = np.asarray(logits, dtype=np.float64)
    class_ids = np.asarray(class_ids)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ValueError(f"margin needs (m, K) logits with K >= 2, got shape {logits.shape}")
    m, K = logits.shape
    if class_ids.shape != (m,):
        raise ValueError(f"{class_ids.size} class ids for {m} rows")
    if m and (class_ids.min() < 0 or class_ids.max() >= K):
        raise ValueError(f"class ids must lie in 0..{K - 1}")
    rows = np.arange(m)
    rivals = logits.copy()
    rivals[rows, class_ids] = -np.inf
    return logits[rows, class_ids] - rivals.max(axis=1)


# --- model file I/O -------------------------------------------------------

def _enc_array(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "data": [float(x).hex() for x in a.ravel()]}


def _dec_floats(values, name: str, path) -> np.ndarray:
    try:
        floats = np.array([float.fromhex(x) for x in values], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(
            f"{path}: {name} holds a value that is not a hex float: {exc}") from exc
    if not np.isfinite(floats).all():   # fromhex reads inf and nan
        raise ModelFormatError(f"{path}: {name} holds a non-finite value")
    return floats


def _field(doc: dict, key: str, kinds: tuple, path, where: str = ""):
    """doc[key] if it is one of ``kinds``; a missing key or another type raises ModelFormatError."""
    if key not in doc:
        raise ModelFormatError(f"{path}: missing key {where}{key!r}")
    value = doc[key]
    if not isinstance(value, kinds) or (bool not in kinds and isinstance(value, bool)):
        names = " or ".join(k.__name__ for k in kinds)
        raise ModelFormatError(
            f"{path}: {where}{key} must be of type {names}, not {type(value).__name__}")
    return value


def _dec_array(doc: dict, name: str, path) -> np.ndarray:
    shape = _field(doc, "shape", (list,), path, f"{name}.")
    if not all(isinstance(s, int) and s >= 0 for s in shape):
        raise ModelFormatError(f"{path}: {name}.shape must hold nonnegative integers, got {shape}")
    flat = _dec_floats(_field(doc, "data", (list,), path, f"{name}."), name, path)
    if flat.size != np.prod(shape):
        raise ModelFormatError(f"{path}: {name} holds {flat.size} values for shape {shape}")
    return flat.reshape(shape)


def head_to_dict(head: TrainedHead) -> dict:
    return {
        "version": MODEL_VERSION,
        "d": head.d,
        "K": head.K,
        "P": head.P,
        "mode": head.mode,
        "penalty_kind": head.penalty_kind,
        "label_map": dict(sorted(head.label_map.items())),
        "gates": {
            "seed": head.gates.seed,
            "dedup": head.gates.dedup,
            "generators": [[x.hex() for x in row] for row in head.gates.generators.tolist()],
            "patterns": head.gates.bitstrings(),
        },
        "V": _enc_array(head.V),
        "W": _enc_array(head.W),
        "cert": bundle_to_dict(head.cert),
        "train_meta": head.train_meta,
    }


def save_model(head: TrainedHead, path) -> None:
    """Write the head as JSON, streamed; float payloads are hex-encoded and lossless."""
    chunks = json.JSONEncoder(indent=1, sort_keys=True).iterencode(head_to_dict(head))
    atomic_write(path, itertools.chain(chunks, ["\n"]))


def _decode_pattern(bits: str, path) -> np.ndarray:
    """Boolean pattern from its stored string of '0'/'1' characters."""
    # "replace" keeps one byte per character, so positions stay aligned
    codes = np.frombuffer(bits.encode("ascii", "replace"), dtype=np.uint8)
    bad = np.flatnonzero((codes != ord("0")) & (codes != ord("1")))
    if bad.size:
        raise ModelFormatError(
            f"{path}: gate pattern has {bits[bad[0]]!r} at position {bad[0]}; "
            "only 0 and 1 are allowed"
        )
    return codes == ord("1")


def load_model(path) -> TrainedHead:
    """Read a model file, recomputing and checking its certificate bundle.

    A file that cannot be read or decoded as UTF-8, a syntax error, a
    document that is not a JSON object, a missing key, a field of the wrong
    JSON type, a mode or penalty kind the trainer does not know, a label map
    whose values are not exactly 0..K-1, no gates (P < 1), gate patterns that
    are not equal-length strings of 0 and 1, pattern or generator counts other
    than P, generators not of length d, floats not stored as hex strings or
    not finite, or arrays that disagree with their stated shapes raises
    ModelFormatError naming the file;
    ``"cert": null`` skips the check.
    """
    try:
        doc = read_document(path, "model")
    except DataFormatError as exc:
        raise ModelFormatError(str(exc)) from exc
    version = doc.get("version")
    if version != MODEL_VERSION:
        raise ModelVersionError(f"{path}: unknown model version {version!r}")
    P, d, K = (_field(doc, key, (int,), path) for key in ("P", "d", "K"))
    if P < 1:
        raise ModelFormatError(f"{path}: a model needs at least one gate pattern, got P = {P}")
    gates_doc = _field(doc, "gates", (dict,), path)
    bits = _field(gates_doc, "patterns", (list,), path, "gates.")
    gens = _field(gates_doc, "generators", (list,), path, "gates.")
    if not all(isinstance(b, str) for b in bits) or not all(isinstance(g, list) for g in gens):
        raise ModelFormatError(
            f"{path}: gate patterns must be strings and generators lists of hex floats")
    if not len(bits) == len(gens) == P or any(len(gen) != d for gen in gens):
        raise ModelFormatError(
            f"{path}: need P = {P} gate patterns, each with a generator of length d = {d}"
        )
    if len({len(b) for b in bits}) > 1:
        raise ModelFormatError(f"{path}: gate patterns have unequal lengths")
    gates = GateSet(np.stack([_decode_pattern(b, path) for b in bits]),
                    np.stack([_dec_floats(gen, f"generator {i}", path)
                              for i, gen in enumerate(gens)]),
                    seed=_field(gates_doc, "seed", (int, type(None)), path, "gates."),
                    dedup=_field(gates_doc, "dedup", (bool,), path, "gates."))
    V = _dec_array(_field(doc, "V", (dict,), path), "V", path)
    W = _dec_array(_field(doc, "W", (dict,), path), "W", path)
    penalty_kind = _field(doc, "penalty_kind", (str,), path)
    mode = _field(doc, "mode", (str,), path)
    label_map = _field(doc, "label_map", (dict,), path)
    train_meta = _field({"train_meta": {}, **doc}, "train_meta", (dict,), path)  # optional
    stored = doc.get("cert")
    if V.shape != (P, d, K) or W.shape != (P, d, K):
        raise ModelFormatError(
            f"{path}: V and W have shapes {V.shape} and {W.shape}, "
            f"the document states (P, d, K) = {(P, d, K)}"
        )
    try:
        head = TrainedHead(
            gates=gates,
            V=V,
            W=W,
            penalty_kind=penalty_kind,
            mode=mode,
            label_map=label_map,
            train_meta=train_meta,
        )
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    if stored is not None and bundle_to_dict(head.cert) != stored:
        raise CertificateMismatchError(
            f"{path}: stored certificate bundle does not match the weights"
        )
    return head
