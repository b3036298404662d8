"""Robustness certificates for a trained head.

Everything here is derived from one quantity: an upper bound B on the
variation norm of the head's ReLU-mode function, read directly off the
trained weights. B is a global Lipschitz constant for the logits in the
max-norm, so a prediction with one-vs-rest margin m cannot change within the
feature-space ball of radius m / (2B). Three bounds are computed:

* ``B_l21``        - sum over blocks and classes of weight-column norms
                     (the tightest of the three; used for all radii);
* ``B_fro_scaled`` - sqrt(K) times the sum of blockwise Frobenius norms;
* ``B_amgm``       - half the sum of squared atom norms of the explicit ReLU
                     network, the certificate available from a ridge-trained
                     network.

Certificates are only claimed for relu-mode inference; gated inference is
discontinuous across gate boundaries, so certification forces relu mode
regardless of the head's default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import head as _head


@dataclass(frozen=True)
class CertificateBundle:
    B_l21: float
    B_fro_scaled: float
    B_amgm: float
    K: int
    penalty_kind_used: str

    def __post_init__(self):
        if min(self.B_l21, self.B_fro_scaled, self.B_amgm) < 0:
            raise ValueError("variation-norm bounds must be nonnegative")


@dataclass(frozen=True)
class ExampleCertificate:
    """Per-example stability record (relu-mode semantics)."""

    pred: int
    margin: float
    radius_feature: float
    radius_audio: float | None
    certified: bool


def column_norm_bound(V: np.ndarray, W: np.ndarray) -> float:
    """Sum of per-class column norms over both weight stacks."""
    return float(np.linalg.norm(V, axis=1).sum() + np.linalg.norm(W, axis=1).sum())


def var_bound_l21(head: "_head.TrainedHead") -> float:
    return column_norm_bound(head.V, head.W)


def var_bound_fro(head: "_head.TrainedHead") -> float:
    """sqrt(K) times the summed blockwise Frobenius norms of V and W."""
    P = head.P
    fro = np.linalg.norm(head.V.reshape(P, -1), axis=1).sum()
    fro += np.linalg.norm(head.W.reshape(P, -1), axis=1).sum()
    return float(np.sqrt(head.K) * fro)


def amgm_bound(net: "_head.ReluNetwork") -> float:
    """Half the sum of squared hidden and output atom norms.

    Per atom, ||a|| ||u|| <= (||a||^2 + ||u||^2) / 2, so this dominates the
    column-norm bound whenever the output weights are unit vectors. A network
    trained with ridge penalty R = (beta/2) * sum_j (...) certifies B = R/beta,
    which is exactly this value.
    """
    return 0.5 * float(np.sum(net.hidden * net.hidden) + np.sum(net.output * net.output))


def bundle_from_weights(V: np.ndarray, W: np.ndarray, K: int, penalty_kind: str) -> CertificateBundle:
    V = np.asarray(V, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    P = V.shape[0]
    fro = np.linalg.norm(V.reshape(P, -1), axis=1).sum() + np.linalg.norm(W.reshape(P, -1), axis=1).sum()
    # atoms of the mapped ReLU network: nonzero columns with unit outputs
    col_v = np.linalg.norm(V, axis=1)
    col_w = np.linalg.norm(W, axis=1)
    amgm = 0.5 * float(np.sum(col_v[col_v > 0] ** 2) + np.count_nonzero(col_v)
                       + np.sum(col_w[col_w > 0] ** 2) + np.count_nonzero(col_w))
    return CertificateBundle(
        B_l21=column_norm_bound(V, W),
        B_fro_scaled=float(np.sqrt(K) * fro),
        B_amgm=amgm,
        K=K,
        penalty_kind_used=penalty_kind,
    )


def bundle_to_dict(bundle: CertificateBundle) -> dict:
    return {
        "B_l21": float(bundle.B_l21).hex(),
        "B_fro_scaled": float(bundle.B_fro_scaled).hex(),
        "B_amgm": float(bundle.B_amgm).hex(),
        "K": bundle.K,
        "penalty_kind_used": bundle.penalty_kind_used,
    }


def dict_to_bundle(doc: dict) -> CertificateBundle:
    return CertificateBundle(
        B_l21=float.fromhex(doc["B_l21"]),
        B_fro_scaled=float.fromhex(doc["B_fro_scaled"]),
        B_amgm=float.fromhex(doc["B_amgm"]),
        K=int(doc["K"]),
        penalty_kind_used=str(doc["penalty_kind_used"]),
    )


def _radius(margin: float, bound: float) -> float:
    if margin <= 0.0:
        return 0.0
    if bound == 0.0:
        return float("inf")
    return margin / (2.0 * bound)


def certify_example(head: "_head.TrainedHead", h: np.ndarray, y: int,
                    L_E: float | None = None) -> ExampleCertificate:
    """Margin, certified feature-space radius, and optional audio radius.

    The radius max(0, margin) / (2 B_l21) guarantees the relu-mode argmax
    cannot change under any feature perturbation of smaller Euclidean norm.
    When the encoder Lipschitz constant ``L_E`` is supplied, the conservative
    audio-space radius radius / L_E is reported as well; it is never
    estimated here.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1:
        raise ValueError("certify_example expects a single vector; use certify_batch for matrices")
    return certify_batch(head, h[None, :], [y], L_E=L_E)[0]


def margin_gap_check(head: "_head.TrainedHead", h: np.ndarray, y: int,
                     delta: np.ndarray) -> tuple[float, float, bool]:
    """Check mar(h + delta) >= mar(h) - 2 B ||delta|| on relu-mode logits.

    Returns (lhs, rhs, holds) with a 1e-9 slack for floating-point noise.
    """
    h = np.asarray(h, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    B = head.cert.B_l21 if head.cert is not None else var_bound_l21(head)
    lhs = _head.margin(_head.predict(head, h + delta, inference="relu"), y)
    rhs = _head.margin(_head.predict(head, h, inference="relu"), y) \
        - 2.0 * B * float(np.linalg.norm(delta))
    return lhs, rhs, bool(lhs >= rhs - 1e-9)


def certify_batch(head: "_head.TrainedHead", H: np.ndarray, class_ids: np.ndarray,
                  L_E: float | None = None) -> list[ExampleCertificate]:
    """``certify_example`` for every row of H, from one relu-mode forward pass."""
    if L_E is not None and not L_E > 0:
        raise ValueError("L_E must be positive")
    H = np.atleast_2d(np.asarray(H, dtype=np.float64))
    class_ids = np.asarray(class_ids)
    if class_ids.size and (class_ids.min() < 0 or class_ids.max() >= head.K):
        raise ValueError(f"class ids must lie in 0..{head.K - 1}")
    logits = _head.predict_batch(head, H, inference="relu")
    B = head.cert.B_l21 if head.cert is not None else var_bound_l21(head)
    out = []
    for row, y in zip(logits, class_ids, strict=True):
        mar = _head.margin(row, int(y))
        r = _radius(mar, B)
        out.append(ExampleCertificate(
            pred=int(np.argmax(row)),
            margin=mar,
            radius_feature=r,
            radius_audio=None if L_E is None else r / L_E,
            certified=mar > 0.0,
        ))
    return out


def certified_accuracy(certs: list[ExampleCertificate], class_ids: np.ndarray,
                       eps_grid: np.ndarray) -> np.ndarray:
    """Fraction of examples correctly predicted with radius >= eps, per eps.

    ``certs`` come from ``certify_batch`` on the examples labelled ``class_ids``.
    Non-increasing in eps; at eps = 0 it equals plain relu-mode accuracy.
    """
    class_ids = np.asarray(class_ids)
    if class_ids.size == 0:
        raise ValueError("certified_accuracy needs a nonempty evaluation set")
    correct = np.array([c.pred == y for c, y in zip(certs, class_ids, strict=True)])
    radii = np.array([c.radius_feature for c in certs])
    return np.array([float(np.mean(correct & (radii >= eps))) for eps in np.asarray(eps_grid)])
