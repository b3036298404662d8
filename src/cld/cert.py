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

``certify_batch`` returns one ``Certificates`` record whose fields are
columns (prediction, margin, radii, certified flag) with one entry per row,
all computed with array operations from a single forward pass. Every head
carries its bundle: ``TrainedHead`` computes it from the weights when it is
built, so a model file stored with ``"cert": null`` loads with one too.
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
class Certificates:
    """Stability records of a batch as columns, one entry per row (relu-mode semantics)."""

    pred: np.ndarray                  # (m,) relu-mode argmax
    margin: np.ndarray                # (m,) one-vs-rest margin of the given class
    radius_feature: np.ndarray        # (m,) certified feature-space radius
    radius_audio: np.ndarray | None   # (m,) radius_feature / L_E; None without L_E
    certified: np.ndarray             # (m,) margin > 0


def var_bound_l21(head: "_head.TrainedHead") -> float:
    """Sum of per-class column norms over both weight stacks."""
    return float(np.linalg.norm(head.V, axis=1).sum() + np.linalg.norm(head.W, axis=1).sum())


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


def bundle_from_weights(head: "_head.TrainedHead") -> CertificateBundle:
    """The head's bundle: ``var_bound_l21``, ``var_bound_fro`` and its relu form's B_amgm."""
    # atoms of the mapped ReLU network: nonzero columns with unit outputs
    col_v = np.linalg.norm(head.V, axis=1)
    col_w = np.linalg.norm(head.W, axis=1)
    amgm = 0.5 * float(np.sum(col_v[col_v > 0] ** 2) + np.count_nonzero(col_v)
                       + np.sum(col_w[col_w > 0] ** 2) + np.count_nonzero(col_w))
    return CertificateBundle(B_l21=var_bound_l21(head), B_fro_scaled=var_bound_fro(head),
                             B_amgm=amgm, K=head.K, penalty_kind_used=head.penalty_kind)


def bundle_to_dict(bundle: CertificateBundle) -> dict:
    return {
        "B_l21": float(bundle.B_l21).hex(),
        "B_fro_scaled": float(bundle.B_fro_scaled).hex(),
        "B_amgm": float(bundle.B_amgm).hex(),
        "K": bundle.K,
        "penalty_kind_used": bundle.penalty_kind_used,
    }


def certify_batch(head: "_head.TrainedHead", H: np.ndarray, class_ids: np.ndarray,
                  L_E: float | None = None) -> Certificates:
    """Margin, certified feature-space radius and optional audio radius of every row of H.

    One relu-mode forward pass. The radius max(0, margin) / (2 B_l21)
    guarantees the relu-mode argmax cannot change under any feature
    perturbation of smaller Euclidean norm; a zero bound with a positive
    margin certifies every radius. When the encoder Lipschitz constant
    ``L_E`` is supplied, the conservative audio-space radius radius / L_E is
    reported as well; it is never estimated here.
    """
    if L_E is not None and not 0 < L_E < np.inf:
        raise ValueError(f"L_E must be positive and finite, got {L_E}")
    logits = _head.predict_batch(head, H, inference="relu")
    mar = _head.margin(logits, class_ids)
    certified = mar > 0.0
    B = head.cert.B_l21
    radius = np.zeros_like(mar)
    radius[certified] = np.inf if B == 0.0 else mar[certified] / (2.0 * B)
    return Certificates(
        pred=logits.argmax(axis=1),
        margin=mar,
        radius_feature=radius,
        radius_audio=None if L_E is None else radius / L_E,
        certified=certified,
    )


def certified_accuracy(certs: Certificates, class_ids: np.ndarray,
                       eps_grid: np.ndarray) -> np.ndarray:
    """Fraction of examples correctly predicted with radius >= eps, per eps.

    ``certs`` come from ``certify_batch`` on the examples labelled ``class_ids``.
    Non-increasing in eps; at eps = 0 it equals plain relu-mode accuracy.
    """
    class_ids = np.asarray(class_ids)
    if class_ids.size == 0:
        raise ValueError("certified_accuracy needs a nonempty evaluation set")
    if certs.pred.shape != class_ids.shape:
        raise ValueError(f"{certs.pred.size} certificates for {class_ids.size} class ids")
    correct = certs.pred == class_ids
    eps = np.asarray(eps_grid, dtype=np.float64)
    return np.mean(correct & (certs.radius_feature >= eps[:, None]), axis=1)
