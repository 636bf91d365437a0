import re

import numpy as np
import pytest

from oracles import reference_augment, reference_view_seed, splitmix64_int
from tailspin.data import (
    AugmentationSpec,
    Dataset,
    ImbalanceSpec,
    NoiseSpec,
    apply_exponential_imbalance,
    augment,
    estimate_priors,
    exponential_profile,
    generate_synthetic,
    inject_symmetric_noise,
    noise_selection,
    view_seed,
)
from tailspin.errors import ContractError, NumericError, ValidationError
from tailspin.evaluation import KNNConfig, knn_classify
from tailspin.seeding import derive, splitmix64, splitmix64_array


@pytest.fixture(scope="module")
def clusters():
    return generate_synthetic(3, 100, 8, 6.0, seed=1)


class TestGenerate:
    def test_balanced_counts(self, clusters):
        assert clusters.num_samples == 300
        assert clusters.true_counts().tolist() == [100, 100, 100]
        assert np.array_equal(clusters.labels_observed, clusters.labels_true)

    def test_same_seed_bitwise_identical(self, clusters):
        again = generate_synthetic(3, 100, 8, 6.0, seed=1)
        assert np.array_equal(again.features, clusters.features)

    def test_different_split_shares_means_not_samples(self, clusters):
        test = generate_synthetic(3, 50, 8, 6.0, seed=1, split="test")
        assert not np.array_equal(test.features[:50], clusters.features[:50])
        # same clusters: per-class means land close to each other
        for c in range(3):
            mu_train = clusters.features[clusters.labels_true == c].mean(axis=0)
            mu_test = test.features[test.labels_true == c].mean(axis=0)
            assert np.linalg.norm(mu_train - mu_test) < 1.5

    def test_separated_clusters_classify_cleanly(self, clusters):
        # 1-NN on the clean data via the eval module
        test = generate_synthetic(3, 50, 8, 6.0, seed=1, split="test")
        preds = knn_classify(clusters, test, KNNConfig(k=1, metric="euclidean"))
        assert np.mean(preds == test.labels_true) >= 0.99

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValidationError):
            generate_synthetic(1, 10, 8, 6.0, seed=0)
        with pytest.raises(ValidationError):
            generate_synthetic(3, 0, 8, 6.0, seed=0)
        with pytest.raises(ValidationError):
            generate_synthetic(3, 10, 1, 6.0, seed=0)
        with pytest.raises(ValidationError):
            generate_synthetic(3, 10, 8, 0.0, seed=0)
        with pytest.raises(ValidationError, match="cluster_separation"):
            generate_synthetic(3, 10, 8, float("nan"), seed=0)


class TestImbalance:
    def test_gamma_100_smallest_class_is_50(self):
        counts = exponential_profile(5000, 100.0, 10)
        assert counts[-1] == 50
        assert counts[0] == 5000

    def test_profile_matches_direct_formula(self):
        # oracle: evaluate n_max * gamma^(-c/(C-1)) directly and round
        got = exponential_profile(5000, 100.0, 10)
        want = [round(5000 * 100 ** (-c / 9)) for c in range(10)]
        assert got.tolist() == want
        assert got[1] == 2997

    def test_gamma_one_is_identity(self, clusters):
        out = apply_exponential_imbalance(clusters, ImbalanceSpec(1.0, seed=5))
        assert np.array_equal(out.features, clusters.features)
        assert np.array_equal(out.labels_true, clusters.labels_true)

    def test_ratio_within_rounding_slack(self, clusters):
        for gamma in (2.0, 5.0, 10.0):
            out = apply_exponential_imbalance(clusters, ImbalanceSpec(gamma, seed=5))
            counts = out.true_counts()
            n_min = counts.min()
            ratio = counts.max() / n_min
            assert gamma * (1 - 2 / n_min) <= ratio <= gamma * (1 + 2 / n_min)

    def test_features_untouched_by_subsampling(self, clusters):
        out = apply_exponential_imbalance(clusters, ImbalanceSpec(10.0, seed=5))
        # every retained row exists verbatim in the source
        source = {row.tobytes() for row in clusters.features}
        assert all(row.tobytes() in source for row in out.features)

    def test_already_imbalanced_is_contract_error(self, clusters):
        out = apply_exponential_imbalance(clusters, ImbalanceSpec(10.0, seed=5))
        with pytest.raises(ContractError):
            apply_exponential_imbalance(out, ImbalanceSpec(2.0, seed=5))

    def test_gamma_emptying_a_class_rejected(self, clusters):
        with pytest.raises(ValidationError):
            apply_exponential_imbalance(clusters, ImbalanceSpec(1000.0, seed=5))

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValidationError):
            ImbalanceSpec(0.5)
        # the profile makes the same check: below 1 a class would grow past n_max,
        # and NaN has no count at all
        for gamma in (0.5, -1.0, float("nan")):
            with pytest.raises(ValidationError, match="gamma must be >= 1"):
                exponential_profile(300, gamma, 3)


class TestNoise:
    def test_nu_zero_is_identity(self, clusters):
        out = inject_symmetric_noise(clusters, NoiseSpec(0.0, seed=9))
        assert np.array_equal(out.labels_observed, clusters.labels_true)

    def test_exact_resample_count_50_samples(self):
        # N = 50 at 90% noise: exactly 45 redrawn, 5 untouched
        selected = noise_selection(50, 0.9, seed=9)
        assert selected.size == 45
        assert np.unique(selected).size == 45

        ds = generate_synthetic(2, 25, 4, 5.0, seed=3)
        out = inject_symmetric_noise(ds, NoiseSpec(0.9, seed=9))
        untouched = np.setdiff1d(np.arange(50), selected)
        assert untouched.size == 5
        assert np.array_equal(out.labels_observed[untouched], ds.labels_observed[untouched])

    @pytest.mark.parametrize("nu,n", [(0.4, 300), (0.25, 10), (0.333, 99)])
    def test_selection_count_is_rounded_nu_n(self, nu, n):
        assert noise_selection(n, nu, seed=1).size == int(np.floor(nu * n + 0.5))

    def test_noise_deterministic_for_fixed_seed(self):
        ds = generate_synthetic(3, 40, 4, 5.0, seed=3)
        a = inject_symmetric_noise(ds, NoiseSpec(0.5, seed=13))
        b = inject_symmetric_noise(ds, NoiseSpec(0.5, seed=13))
        assert np.array_equal(a.labels_observed, b.labels_observed)

    def test_labels_true_bitwise_invariant(self, clusters):
        out = inject_symmetric_noise(clusters, NoiseSpec(0.7, seed=9))
        assert np.array_equal(out.labels_true, clusters.labels_true)
        assert np.array_equal(out.features, clusters.features)

    def test_retention_rate_within_three_binomial_sd(self):
        # Monte-Carlo count over a generated dataset, N = 10^4
        c, nu = 10, 0.8
        ds = generate_synthetic(c, 1000, 4, 5.0, seed=4)
        out = inject_symmetric_noise(ds, NoiseSpec(nu, seed=11))
        p = (1 - nu) + nu / c
        n = ds.num_samples
        sd = np.sqrt(p * (1 - p) / n)
        observed = np.mean(out.labels_observed == out.labels_true)
        assert abs(observed - p) <= 3 * sd

    def test_nu_bounds(self):
        with pytest.raises(ValidationError):
            NoiseSpec(1.0)
        with pytest.raises(ValidationError):
            NoiseSpec(-0.1)

    @pytest.mark.parametrize("nu", ["0.4", None, True, [0.4]])
    def test_nu_that_is_not_a_number_is_validation_error(self, nu):
        with pytest.raises(ValidationError, match=re.escape(f"got {nu!r}")):
            NoiseSpec(nu)


class TestPriors:
    def test_balanced_three_classes(self, clusters):
        pri = estimate_priors(clusters)
        assert np.allclose(pri.pi, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        assert abs(pri.pi.sum() - 1.0) <= 1e-12

    def test_counts_50_30_20(self):
        feats = np.random.default_rng(0).normal(size=(100, 3)).astype(np.float32)
        labels = np.array([0] * 50 + [1] * 30 + [2] * 20)
        ds = Dataset(feats, labels, labels.copy(), 3)
        pri = estimate_priors(ds)
        assert np.allclose(pri.pi, [0.5, 0.3, 0.2], atol=1e-15)

    def test_exponential_profile_ratios(self):
        ds = generate_synthetic(10, 200, 4, 5.0, seed=6)
        out = apply_exponential_imbalance(ds, ImbalanceSpec(100.0, seed=6))
        pri = estimate_priors(out)
        counts = out.true_counts()
        assert np.allclose(pri.pi / pri.pi[0], counts / counts[0], atol=1e-12)

    def test_floor_keeps_priors_positive(self):
        feats = np.random.default_rng(0).normal(size=(40, 3)).astype(np.float32)
        observed = np.array([0] * 40)  # class 1 and 2 never observed
        true = np.array([0] * 20 + [1] * 10 + [2] * 10)
        ds = Dataset(feats, observed, true, 3)
        pri = estimate_priors(ds)
        assert np.all(pri.pi > 0)


def _seeds(n, view=0):
    return view_seed(0, 0, np.arange(n), view)


class TestAugment:
    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_bad_gaussian_sigma_rejected(self, sigma):
        with pytest.raises(ValidationError, match="gaussian_sigma"):
            AugmentationSpec(sigma, 0.1, 0.2)

    def test_all_zero_spec_is_identity(self):
        x = np.random.default_rng(1).normal(size=(4, 12))
        out = augment(x, AugmentationSpec(), _seeds(4))
        assert np.array_equal(out, x)

    def test_fixed_seed_reproducible(self):
        x = np.random.default_rng(2).normal(size=(3, 12))
        spec = AugmentationSpec(gaussian_sigma=0.5, mask_prob=0.2, scale_jitter=0.1)
        seeds = np.array([5, 5, 5], dtype=np.uint64)
        a = augment(x, spec, seeds)
        b = augment(x, spec, seeds)
        assert np.array_equal(a, b)
        other = augment(x, spec, seeds + np.uint64(1))
        assert all(not np.array_equal(a[r], other[r]) for r in range(3))

    def test_heavy_masking_survival_rate(self):
        # expected surviving coordinates ~= eps * d, Monte-Carlo over 10^4 draws
        eps = 0.05
        d = 16
        spec = AugmentationSpec(mask_prob=1 - eps)
        x = np.ones((10_000, d))
        survived = np.count_nonzero(augment(x, spec, _seeds(10_000)))
        expected = eps * d * 10_000
        sd = np.sqrt(10_000 * d * eps * (1 - eps))
        assert abs(survived - expected) <= 4 * sd

    def test_scale_factors_stay_in_jitter_range(self):
        j = 0.3
        factors = augment(np.ones((20_000, 3)), AugmentationSpec(scale_jitter=j), _seeds(20_000))
        assert np.all(factors == factors[:, :1])  # one factor per row
        assert factors.min() >= 1 - j and factors.max() <= 1 + j
        assert factors.min() < 1 - 0.99 * j and factors.max() > 1 + 0.99 * j

    @pytest.mark.parametrize("d", [8, 5])
    def test_noise_mean_and_std(self, d):
        # 10^5 draws; an odd width drops the last pair's sine
        sigma, n = 0.7, 100_000
        noise = augment(np.zeros((n // d, d)), AugmentationSpec(gaussian_sigma=sigma), _seeds(n // d)).ravel()
        assert abs(noise.mean()) <= 4 * sigma / np.sqrt(n)
        assert abs(noise.std() - sigma) <= 4 * sigma / np.sqrt(2 * n)

    def test_bad_input_rejected(self):
        x = np.ones((2, 3))
        with pytest.raises(ContractError):
            augment(x[0], AugmentationSpec(), _seeds(1))
        with pytest.raises(ContractError):
            augment(x, AugmentationSpec(), _seeds(3))
        x[1, 2] = np.nan
        with pytest.raises(NumericError):
            augment(x, AugmentationSpec(), _seeds(2))

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            AugmentationSpec(gaussian_sigma=-1.0)
        with pytest.raises(ValidationError):
            AugmentationSpec(mask_prob=1.0)


class TestReferenceStream:
    """The counter-based augmentation stream against a pure-Python reading of the README."""

    def test_array_splitmix64_matches_scalar(self):
        values = [0, 2**64 - 1, *np.random.default_rng(5).integers(0, 2**64 - 1, size=50, dtype=np.uint64).tolist()]
        got = splitmix64_array(np.array(values, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [splitmix64(v) for v in values] == [splitmix64_int(v) for v in values]

    def test_view_seed_matches_reference(self):
        indices = np.array([0, 1, 424, 2**63, 2**64 - 1], dtype=np.uint64)
        for run_seed, epoch, view in ((0, 0, 0), (7, 3, 1), (2**64 - 1, 199, 1)):
            got = view_seed(run_seed, epoch, indices, view).tolist()
            assert got == [reference_view_seed(run_seed, epoch, int(i), view) for i in indices.tolist()]
            assert got == [derive(run_seed, "augment", epoch, int(i), view) for i in indices.tolist()]

    @pytest.mark.parametrize("d", [8, 5])
    def test_augment_matches_reference_bit_for_bit(self, d):
        spec = AugmentationSpec(gaussian_sigma=0.4, mask_prob=0.3, scale_jitter=0.2)
        # enough rows (about 2,000 logarithms) that a vectorised log off by an ulp would show
        rows = np.random.default_rng(d).normal(size=(300, d))
        indices = np.array([0, 3, 2**63, *range(11, 308)], dtype=np.uint64)
        for view in (0, 1):
            seeds = view_seed(9, 2, indices, view)
            got = augment(rows, spec, seeds)
            want = [reference_augment(r.tolist(), 0.4, 0.3, 0.2, int(s)) for r, s in zip(rows, seeds.tolist())]
            assert got.tobytes() == np.array(want).tobytes()


class TestDatasetInvariants:
    def test_corruption_pipeline_preserves_truth(self, clusters):
        step1 = apply_exponential_imbalance(clusters, ImbalanceSpec(10.0, seed=2))
        step2 = inject_symmetric_noise(step1, NoiseSpec(0.4, seed=2))
        assert np.array_equal(step2.labels_true, step1.labels_true)
        assert np.array_equal(step2.features, step1.features)

    def test_corruption_returns_new_frozen_datasets(self, clusters):
        imbalanced = apply_exponential_imbalance(clusters, ImbalanceSpec(10.0, seed=2))
        noisy = inject_symmetric_noise(imbalanced, NoiseSpec(0.4, seed=2))
        for out, given in ((imbalanced, clusters), (noisy, imbalanced)):
            assert out is not given
            assert not any(a.flags.writeable for a in (out.features, out.labels_observed, out.labels_true))
        # the noisy set shares the frozen features and true labels, and redraws labels in its own array
        assert not np.shares_memory(noisy.labels_observed, imbalanced.labels_observed)
        assert np.array_equal(imbalanced.labels_observed, imbalanced.labels_true)

    def test_arrays_are_frozen(self, clusters):
        with pytest.raises(ValueError):
            clusters.labels_true[0] = 2
        with pytest.raises(ValueError):
            clusters.features[0, 0] = 5.0

    def test_label_range_validated(self):
        feats = np.zeros((3, 2), dtype=np.float32)
        with pytest.raises(ValidationError):
            Dataset(feats, np.array([0, 1, 3]), np.array([0, 1, 2]), 3)


_FEATURES = np.zeros((3, 2), np.float32)


@pytest.mark.parametrize("args, error, message", [
    ((np.zeros((0, 2)), [], [], 2), ValidationError, "dataset must contain at least one sample"),
    ((np.zeros(3), [0, 1, 0], [0, 1, 0], 2), ValidationError, "features must be 2-d, got shape (3,)"),
    ((_FEATURES, [0, 1], [0, 1, 0], 2), ValidationError, "label tracks must align with features"),
    ((_FEATURES, [0, 1, 0], [0, 1], 2), ValidationError, "label tracks must align with features"),
    ((_FEATURES, [0, 0, 0], [0, 0, 0], 1), ValidationError, "need at least 2 classes, got 1"),
    ((np.full((3, 2), np.nan), [0, 1, 0], [0, 1, 0], 2), NumericError, "features contain NaN or Inf"),
], ids=["empty", "1-d", "short observed", "short true", "one class", "nan"])
def test_dataset_refusals(args, error, message):
    with pytest.raises(error, match=re.escape(message)):
        Dataset(*args)


@pytest.mark.parametrize("part, kind", [(2.5, "float"), (None, "NoneType"), (b"pretrain", "bytes")])
def test_derive_refuses_a_part_that_is_neither_int_nor_str(part, kind):
    with pytest.raises(TypeError, match=f"seed parts must be int or str, got {kind}"):
        derive(7, "shuffle", part)
