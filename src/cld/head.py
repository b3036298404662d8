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
and certificate is one batched forward pass.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .gates import GatePattern, GateSet

if TYPE_CHECKING:  # pragma: no cover
    from .cert import CertificateBundle

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
        """Logits for a batch of embeddings (rows of H)."""
        H = np.atleast_2d(np.asarray(H, dtype=np.float64))
        return np.maximum(H @ self.hidden.T, 0.0) @ self.output


@dataclass(frozen=True)
class TrainedHead:
    gates: GateSet
    V: np.ndarray                 # (P, d, K)
    W: np.ndarray                 # (P, d, K); all-zero for relaxed heads
    penalty_kind: str
    mode: str
    label_map: dict[str, int]
    cert: "CertificateBundle | None" = None
    train_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        V = np.array(self.V, dtype=np.float64)
        W = np.array(self.W, dtype=np.float64)
        if V.shape != W.shape or V.ndim != 3:
            raise ModelFormatError(f"V/W must be matching 3-D stacks, got {V.shape} and {W.shape}")
        if V.shape[0] != self.gates.P:
            raise ModelFormatError(f"{V.shape[0]} weight blocks for {self.gates.P} gates")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "W", W)
        P, d, K = V.shape
        # relu form: one unit per nonzero column, in (p, k) order, V's before W's
        cols = np.stack([V, W], axis=3).transpose(0, 2, 3, 1).reshape(-1, d)
        outs = np.tile(np.kron(np.eye(K), [[1.0], [-1.0]]), (P, 1))    # +e_k, -e_k
        keep = np.any(cols != 0.0, axis=1)
        net = ReluNetwork(cols[keep], outs[keep])
        object.__setattr__(self, "_relu", net)
        # gated form: the generators, and V - W as a d x PK matrix
        object.__setattr__(self, "_generators", self.gates.generators())
        object.__setattr__(self, "_diff", (V - W).transpose(1, 0, 2).reshape(d, P * K))
        for a in (V, W, net.hidden, net.output):  # both forms are built from these once
            a.setflags(write=False)

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
    H = np.atleast_2d(np.asarray(H, dtype=np.float64))
    if H.shape[1] != head.d:
        raise ValueError(f"embeddings have dimension {H.shape[1]}, head expects {head.d}")
    if inference == "relu":
        return head._relu.apply(H)
    ind = (H @ head._generators.T >= 0.0).astype(np.float64)           # (m, P)
    T = (H @ head._diff).reshape(H.shape[0], head.P, head.K)           # (m, P, K)
    return np.einsum("mp,mpk->mk", ind, T)


def predict(head: TrainedHead, h: np.ndarray, inference: str | None = None) -> np.ndarray:
    """Logits for a single embedding vector."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1:
        raise ValueError("predict expects a single vector; use predict_batch for matrices")
    return predict_batch(head, h[None, :], inference)[0]


def margin(logits: np.ndarray, y: int) -> float:
    """One-vs-rest margin f_y - max_{k != y} f_k; positive iff y is the unique argmax."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size < 2:
        raise ValueError("margin needs at least two classes")
    rivals = np.delete(logits, y)
    return float(logits[y] - rivals.max())


def nonconvex_objective(net: ReluNetwork, X: np.ndarray, Y: np.ndarray, beta: float) -> float:
    """Squared loss of the ReLU network plus the ridge penalty on its atoms."""
    from .cvxprog import loss

    fit = loss(net.apply(X), np.asarray(Y, dtype=np.float64))
    reg = float(np.sum(net.hidden * net.hidden) + np.sum(net.output * net.output))
    return fit + 0.5 * beta * reg


# --- model file I/O -------------------------------------------------------

def _enc_array(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "data": [float(x).hex() for x in a.ravel()]}


def _dec_array(doc: dict) -> np.ndarray:
    flat = np.array([float.fromhex(x) for x in doc["data"]], dtype=np.float64)
    return flat.reshape(doc["shape"])


def head_to_dict(head: TrainedHead) -> dict:
    from .cert import bundle_to_dict

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
            "generators": [[float(x).hex() for x in p.generator] for p in head.gates.patterns],
            "patterns": [p.bitstring() for p in head.gates.patterns],
        },
        "V": _enc_array(head.V),
        "W": _enc_array(head.W),
        "cert": bundle_to_dict(head.cert) if head.cert is not None else None,
        "train_meta": head.train_meta,
    }


def save_model(head: TrainedHead, path) -> None:
    """Write the head as JSON; float payloads are hex-encoded and lossless."""
    doc = head_to_dict(head)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def load_model(path) -> TrainedHead:
    """Read a model file, recomputing and checking its certificate bundle."""
    from .cert import bundle_from_weights, bundle_to_dict, dict_to_bundle

    try:
        doc = json.loads(open(path, "r", encoding="utf-8").read())
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot read model {path}: {exc}") from exc
    version = doc.get("version")
    if version != MODEL_VERSION:
        raise ModelVersionError(f"{path}: unknown model version {version!r}")
    gates_doc = doc["gates"]
    patterns = tuple(
        GatePattern(
            np.array([c == "1" for c in bits]),
            np.array([float.fromhex(x) for x in gen], dtype=np.float64),
        )
        for bits, gen in zip(gates_doc["patterns"], gates_doc["generators"])
    )
    gates = GateSet(patterns, seed=gates_doc["seed"], dedup=gates_doc["dedup"])
    V = _dec_array(doc["V"])
    W = _dec_array(doc["W"])
    stored = doc.get("cert")
    cert = dict_to_bundle(stored) if stored is not None else None
    if cert is not None:
        recomputed = bundle_from_weights(V, W, int(doc["K"]), doc["penalty_kind"])
        if bundle_to_dict(recomputed) != stored:
            raise CertificateMismatchError(
                f"{path}: stored certificate bundle does not match the weights"
            )
    return TrainedHead(
        gates=gates,
        V=V,
        W=W,
        penalty_kind=doc["penalty_kind"],
        mode=doc["mode"],
        label_map={str(k): int(v) for k, v in doc["label_map"].items()},
        cert=cert,
        train_meta=doc.get("train_meta", {}),
    )
