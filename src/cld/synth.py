"""Deterministic synthetic language/accent embedding generator.

Clusters are isotropic Gaussians arranged hierarchically: each language has a
center in feature space, each of its accents a sub-center offset from the
language center, and each sample adds white noise around its accent center.
Overlap between accent clouds of different languages is what makes the
detection task nontrivial; the generator records the nearest-language-center
accuracy at generation time as a separability gauge.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import FeatureMatrix, LabelSet

_DEFAULT_LANGS = ("en", "zh", "id", "ms", "hi")
SPLIT = (0.8, 0.1, 0.1)   # train, test and validation shares of every class in ``split``


@dataclass(frozen=True)
class SynthSpec:
    languages: int = 5
    accents_per_language: tuple[int, ...] = (5, 5, 5, 5, 4)   # 24 accents total
    dim: int = 64
    language_separation: float = 6.0     # floor on the nearest pair of language centers
    accent_spread: float = 1.0
    noise_sigma: float = 1.0
    samples_per_accent: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.languages < 2:
            raise ValueError("need at least 2 languages")
        if len(self.accents_per_language) != self.languages:
            raise ValueError("accents_per_language must list one count per language")
        if min(self.accents_per_language) < 1:
            raise ValueError("every language needs at least one accent")
        if min(self.dim, self.samples_per_accent) < 1:
            raise ValueError("dim and samples_per_accent must be positive")
        if min(self.language_separation, self.accent_spread, self.noise_sigma) < 0:
            raise ValueError("geometry scales must be nonnegative")

    @property
    def total_accents(self) -> int:
        return sum(self.accents_per_language)

    def language_names(self) -> list[str]:
        names = list(_DEFAULT_LANGS[: self.languages])
        names += [f"lang{i}" for i in range(len(names), self.languages)]
        return names


@dataclass(frozen=True)
class SynthData:
    features: FeatureMatrix
    labels: LabelSet
    accent_ids: np.ndarray
    language_centers: np.ndarray
    accent_centers: np.ndarray
    nearest_center_accuracy: float


def _language_centers(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    centers = rng.standard_normal((spec.languages, spec.dim))
    dist = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    min_pair = dist[np.triu_indices(spec.languages, k=1)].min()
    centers *= max(1.0, spec.language_separation / min_pair)   # scale up to the floor only
    return centers


def generate(spec: SynthSpec) -> SynthData:
    """Generate an embedding dataset; byte-identical for a fixed seed."""
    root = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(0,)))
    centers = _language_centers(spec, root)
    accent_centers = []
    accent_language = []
    for lang, count in enumerate(spec.accents_per_language):
        for a in range(count):
            accent_language.append(lang)
    accent_language = np.array(accent_language)
    total = spec.total_accents
    rows, labels, accents = [], [], []
    for accent_id in range(total):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=spec.seed, spawn_key=(1, accent_id))
        )
        lang = accent_language[accent_id]
        center = centers[lang] + spec.accent_spread * rng.standard_normal(spec.dim)
        accent_centers.append(center)
        samples = center + spec.noise_sigma * rng.standard_normal(
            (spec.samples_per_accent, spec.dim)
        )
        rows.append(samples)
        labels.append(np.full(spec.samples_per_accent, lang))
        accents.append(np.full(spec.samples_per_accent, accent_id))
    X = np.vstack(rows)
    y = np.concatenate(labels)
    accent_ids = np.concatenate(accents)
    label_map = {name: i for i, name in enumerate(spec.language_names())}
    dists = np.column_stack([np.linalg.norm(X - c, axis=1) for c in centers])
    nearest_acc = float(np.mean(dists.argmin(axis=1) == y))
    return SynthData(
        features=FeatureMatrix(X),
        labels=LabelSet(y, label_map),
        accent_ids=accent_ids,
        language_centers=centers,
        accent_centers=np.stack(accent_centers),
        nearest_center_accuracy=nearest_acc,
    )


def split(class_ids: np.ndarray, seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stratified (train, test, validation) index split in the shares ``SPLIT``.

    Per-class proportions land within one sample of the targets. Classes with
    fewer than 3 members cannot be stratified; a warning is emitted and the
    split falls back to one global shuffle.
    """
    def cut(idx):
        c1, c2 = round(SPLIT[0] * idx.size), round((SPLIT[0] + SPLIT[1]) * idx.size)
        return idx[:c1], idx[c1:c2], idx[c2:]

    class_ids = np.asarray(class_ids)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
    counts = np.bincount(class_ids)
    if counts[counts > 0].min() < 3:
        warnings.warn("a class has fewer than 3 examples; falling back to a global shuffle",
                      stacklevel=2)
        return cut(rng.permutation(class_ids.size))
    parts = []
    for cls in np.flatnonzero(counts):
        members = np.flatnonzero(class_ids == cls)
        parts.append(cut(members[rng.permutation(members.size)]))
    return tuple(np.sort(np.concatenate(p)) for p in zip(*parts))
