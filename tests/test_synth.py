import numpy as np
import pytest

from cld.synth import SPLIT, SynthSpec, generate, split

from conftest import traced_peak


class TestGenerate:
    def test_zero_noise_samples_sit_on_accent_centers(self):
        spec = SynthSpec(languages=2, accents_per_language=(2, 2), dim=8,
                         noise_sigma=0.0, samples_per_accent=5, seed=3)
        data = generate(spec)
        for accent in range(spec.total_accents):
            rows = data.features.values[data.accent_ids == accent]
            np.testing.assert_allclose(rows, np.tile(data.accent_centers[accent], (5, 1)))
        # any sensible classifier separates exact centers
        assert data.nearest_center_accuracy == 1.0

    def test_deterministic_per_seed(self):
        spec = SynthSpec(languages=3, accents_per_language=(2, 1, 2), dim=6,
                         samples_per_accent=7, seed=11)
        a, b = generate(spec), generate(spec)
        np.testing.assert_array_equal(a.features.values, b.features.values)
        np.testing.assert_array_equal(a.labels.class_ids, b.labels.class_ids)
        np.testing.assert_array_equal(a.accent_ids, b.accent_ids)

    def test_different_seed_differs(self):
        spec = SynthSpec(languages=2, accents_per_language=(1, 1), dim=4,
                         samples_per_accent=5, seed=0)
        import dataclasses

        other = dataclasses.replace(spec, seed=1)
        assert not np.array_equal(generate(spec).features.values,
                                  generate(other).features.values)

    def test_default_spec_traced_peak(self):
        # the 12,000 x 64 rows take 5.9 MiB; a (rows, languages, dim) distance
        # temporary would add 29 MiB, and its square as much again
        _, peak = traced_peak(generate, SynthSpec(seed=1))
        assert peak < 40 * 2**20

    def test_default_spec_nearest_center_separability(self):
        data = generate(SynthSpec(samples_per_accent=50, seed=0))
        assert data.nearest_center_accuracy >= 0.99

    def test_language_separation_enforced(self):
        spec = SynthSpec(languages=4, accents_per_language=(1, 1, 1, 1), dim=5,
                         language_separation=25.0, samples_per_accent=2, seed=2)
        centers = generate(spec).language_centers
        diffs = centers[:, None, :] - centers[None, :, :]
        dist = np.linalg.norm(diffs, axis=2)
        pairs = dist[np.triu_indices(4, k=1)]
        assert pairs.min() >= 25.0 - 1e-9

    def test_accent_center_estimates_within_3_sigma(self):
        spec = SynthSpec(languages=2, accents_per_language=(2, 2), dim=16,
                         noise_sigma=0.5, samples_per_accent=400, seed=5)
        data = generate(spec)
        m = spec.samples_per_accent
        for accent in range(spec.total_accents):
            rows = data.features.values[data.accent_ids == accent]
            err = np.linalg.norm(rows.mean(axis=0) - data.accent_centers[accent])
            # mean of m isotropic draws: per-coordinate sd sigma/sqrt(m)
            assert err <= 3.0 * spec.noise_sigma / np.sqrt(m) * np.sqrt(spec.dim) * 1.5

    def test_label_names(self):
        data = generate(SynthSpec(languages=2, accents_per_language=(1, 1), dim=3,
                                  samples_per_accent=4, seed=0))
        assert data.labels.names == ["en", "zh"]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(languages=1, accents_per_language=(1,))
        with pytest.raises(ValueError):
            SynthSpec(accents_per_language=(5, 5))

    @pytest.mark.parametrize("change, message", [
        ({"accents_per_language": (5, 0, 5, 5, 4)}, "at least one accent"),
        ({"dim": 0}, "dim and samples_per_accent must be positive"),
        ({"accent_spread": -1.0}, "geometry scales must be nonnegative"),
    ])
    def test_spec_refuses_empty_or_negative_settings(self, change, message):
        with pytest.raises(ValueError, match=message):
            SynthSpec(**change)


class TestSplit:
    def test_balanced_two_class_80_10_10(self):
        ids = np.repeat([0, 1], 50)
        tr, te, va = split(ids, seed=0)
        assert len(tr) == 80 and len(te) == 10 and len(va) == 10
        for part in (tr, te, va):
            counts = np.bincount(ids[part], minlength=2)
            assert counts[0] == counts[1]

    def test_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 3, 97)
        tr, te, va = split(ids, seed=4)
        merged = np.concatenate([tr, te, va])
        assert len(merged) == 97
        assert len(np.unique(merged)) == 97

    def test_deterministic(self):
        ids = np.repeat([0, 1, 2], 20)
        a = split(ids, seed=9)
        b = split(ids, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_stratification_within_one_sample(self):
        rng = np.random.default_rng(2)
        ids = rng.integers(0, 4, 203)
        tr, te, va = split(ids, seed=3)
        for frac, part in zip(SPLIT, (tr, te, va)):
            for c in range(4):
                m = int((ids == c).sum())
                got = int((ids[part] == c).sum())
                assert abs(got - frac * m) <= 1.0

    def test_tiny_class_falls_back_with_warning(self):
        ids = np.array([0, 0, 0, 0, 1, 1, 2])
        with pytest.warns(UserWarning, match="fewer than 3"):
            tr, te, va = split(ids, seed=0)
        assert len(tr) + len(te) + len(va) == 7
