"""Detection accuracy, confusion matrices, and per-accent breakdowns."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import LabelSet


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    confusion: np.ndarray          # (K, K) counts; rows true, cols predicted
    per_class: np.ndarray          # (K,) accuracy per true class
    n: int
    per_accent: dict[int, float] | None = None
    class_names: list[str] | None = None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "accuracy": self.accuracy,
            "confusion": self.confusion.tolist(),
            "per_class": {
                (self.class_names[k] if self.class_names else str(k)): float(a)
                for k, a in enumerate(self.per_class)
            },
            "per_accent": (
                {str(k): v for k, v in sorted(self.per_accent.items())}
                if self.per_accent is not None else None
            ),
        }


def evaluate(preds, labels, accents=None, class_names=None) -> EvalReport:
    """Score integer predictions against true class ids.

    ``labels`` may be a LabelSet or a plain id vector; ``accents`` optionally
    adds a per-accent accuracy map.
    """
    if isinstance(labels, LabelSet):
        class_names = labels.names if class_names is None else class_names
        true, K = labels.class_ids, labels.K
    else:
        true, K = np.asarray(labels), 0
    preds = np.asarray(preds)
    for what, ids in (("labels", true), ("predictions", preds)):
        if ids.dtype.kind not in "iu":   # bools, floats and strings are refused, not cast
            raise ValueError(f"{what} must be integer class ids, got {ids.dtype} values")
        if ids.min(initial=0) < 0:
            raise ValueError(f"{what} must be non-negative class ids, got {ids.min()}")
    if preds.shape != true.shape:
        raise ValueError(f"{preds.size} predictions for {true.size} labels")
    K = max(K, int(true.max()) + 1, int(preds.max()) + 1)
    confusion = np.zeros((K, K), dtype=np.int64)
    np.add.at(confusion, (true, preds), 1)
    correct = preds == true
    row_tot = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        per_class = np.where(row_tot > 0, np.diag(confusion) / np.maximum(row_tot, 1), 0.0)
    per_accent = None
    if accents is not None:
        accents = np.asarray(accents)
        if accents.shape != true.shape:
            raise ValueError("accent ids must align with labels")
        per_accent = {
            int(a): float(correct[accents == a].mean()) for a in sorted(set(accents.tolist()))
        }
    return EvalReport(
        accuracy=float(correct.mean()),
        confusion=confusion,
        per_class=per_class,
        n=int(true.size),
        per_accent=per_accent,
        class_names=class_names,
    )
