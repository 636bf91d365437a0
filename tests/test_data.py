import numpy as np
import pytest

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
)
from tailspin.errors import ContractError, ValidationError
from tailspin.evaluation import KNNConfig, knn_classify


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


class TestAugment:
    def test_all_zero_spec_is_identity(self):
        x = np.random.default_rng(1).normal(size=12)
        out = augment(x, AugmentationSpec(), draw_seed=77)
        assert np.array_equal(out, x)

    def test_fixed_seed_reproducible(self):
        x = np.random.default_rng(2).normal(size=12)
        spec = AugmentationSpec(gaussian_sigma=0.5, mask_prob=0.2, scale_jitter=0.1)
        a = augment(x, spec, draw_seed=5)
        b = augment(x, spec, draw_seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, augment(x, spec, draw_seed=6))

    def test_heavy_masking_survival_rate(self):
        # expected surviving coordinates ~= eps * d, Monte-Carlo over 10^4 draws
        eps = 0.05
        d = 16
        spec = AugmentationSpec(mask_prob=1 - eps)
        x = np.ones(d)
        survived = sum(np.count_nonzero(augment(x, spec, draw_seed=s)) for s in range(10_000))
        expected = eps * d * 10_000
        sd = np.sqrt(10_000 * d * eps * (1 - eps))
        assert abs(survived - expected) <= 4 * sd

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            AugmentationSpec(gaussian_sigma=-1.0)
        with pytest.raises(ValidationError):
            AugmentationSpec(mask_prob=1.0)


class TestDatasetInvariants:
    def test_corruption_pipeline_preserves_truth(self, clusters):
        step1 = apply_exponential_imbalance(clusters, ImbalanceSpec(10.0, seed=2))
        step2 = inject_symmetric_noise(step1, NoiseSpec(0.4, seed=2))
        assert np.array_equal(step2.labels_true, step1.labels_true)
        assert np.array_equal(step2.features, step1.features)

    def test_arrays_are_frozen(self, clusters):
        with pytest.raises(ValueError):
            clusters.labels_true[0] = 2
        with pytest.raises(ValueError):
            clusters.features[0, 0] = 5.0

    def test_label_range_validated(self):
        feats = np.zeros((3, 2), dtype=np.float32)
        with pytest.raises(ValidationError):
            Dataset(feats, np.array([0, 1, 3]), np.array([0, 1, 2]), 3)
