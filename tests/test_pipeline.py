from dataclasses import replace

import numpy as np
import pytest

from oracles import in_dtype, params_digest
from tailspin import tensor
from tailspin.data import AugmentationSpec, Dataset, generate_synthetic
from tailspin.errors import ConfigError, ContractError, NumericError, ValidationError
from tailspin.evaluation import KNNConfig
from tailspin.gradcheck import battery
from tailspin.nn import NETWORKS, SSL_METHODS, build_model
from tailspin.optim import OptimizerConfig, ScheduleConfig, lr_at, make_optimizer, scaled_lr
from tailspin.pipeline import (
    FULL_HEAD,
    LAST_LAYER_ONLY,
    FinetuneSettings,
    PretrainSettings,
    build_finetune_head,
    corrupt_train,
    evaluate_classifier,
    finetune,
    knn_proxy_accuracy,
    make_datasets,
    pretrain,
    run_single_stage,
    select_freeze_policy,
)
from tailspin.seeding import derive
from tailspin.ssl import SSLMethod, pretrain_epoch


def fast_pretrain(method="simsiam", epochs=6):
    return PretrainSettings(
        method=SSLMethod(method),
        optimizer=OptimizerConfig(kind="sgd", base_lr=0.03, weight_decay=5e-4, momentum=0.9, batch_size=32),
        schedule=ScheduleConfig("cosine", warmup_epochs=2, total_epochs=epochs),
        augmentation=AugmentationSpec(0.8, 0.1, 0.2),
    )


def fast_finetune(loss="la_sl", epochs=8):
    return FinetuneSettings(
        loss=loss,
        optimizer=OptimizerConfig(kind="adam", base_lr=0.01, weight_decay=0.0, batch_size=32),
        epochs=epochs,
    )


class TestFreezePolicy:
    def test_simsiam_threshold_60(self):
        assert select_freeze_policy("simsiam", 0.7) == LAST_LAYER_ONLY
        assert select_freeze_policy("simsiam", 0.6) == FULL_HEAD

    def test_byol_below_every_threshold(self):
        assert select_freeze_policy("byol", 0.0) == FULL_HEAD
        assert select_freeze_policy("byol", 0.5) == LAST_LAYER_ONLY

    def test_barlow_threshold_20(self):
        assert select_freeze_policy("barlow_twins", 0.3) == LAST_LAYER_ONLY

    def test_simclr_always_linear_head(self):
        assert select_freeze_policy("simclr", 0.9) == FULL_HEAD

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            select_freeze_policy("moco", 0.1)


@pytest.fixture(scope="module")
def setup():
    train = generate_synthetic(3, 60, 8, 6.0, seed=2)
    test = generate_synthetic(3, 30, 8, 6.0, seed=2, split="test")
    model = build_model("simsiam", 8, seed=3)
    return train, test, model


class TestFinetune:

    def test_encoder_checksum_unchanged(self, setup):
        train, test, model = setup
        head = build_finetune_head(model, 3, seed=4)
        before = params_digest(model.encoder.parameters())
        finetune(model, head, train, fast_finetune(), FULL_HEAD, run_seed=5, test_set=test)
        assert params_digest(model.encoder.parameters()) == before

    def test_last_layer_only_freezes_first_head_layer(self, setup):
        train, _, model = setup
        head = build_finetune_head(model, 3, seed=4)
        first_before = params_digest(list(head.layers[0]))
        last_before = params_digest(list(head.layers[-1]))
        finetune(model, head, train, fast_finetune(), LAST_LAYER_ONLY, run_seed=5)
        assert params_digest(list(head.layers[0])) == first_before
        assert params_digest(list(head.layers[-1])) != last_before

    @pytest.mark.parametrize("policy", [FULL_HEAD, LAST_LAYER_ONLY])
    def test_requires_grad_left_as_found(self, setup, policy):
        # freezing is positional: the optimizer's parameter list alone says what trains
        train, _, model = setup
        head = build_finetune_head(model, 3, seed=4)
        tensors = model.encoder.parameters() + head.parameters()
        before = [p.requires_grad for p in tensors]
        finetune(model, head, train, fast_finetune(epochs=1), policy, run_seed=5)
        assert [p.requires_grad for p in tensors] == before

    def test_unknown_policy_rejected_before_any_epoch(self, setup):
        train, _, model = setup
        head = build_finetune_head(model, 3, seed=4)
        before = params_digest(head.parameters())
        records = []
        with pytest.raises(ConfigError, match="last_layer"):
            finetune(model, head, train, fast_finetune(), "last_layer", run_seed=5, sink=records.append)
        assert records == []
        assert params_digest(head.parameters()) == before

    def test_head_that_cannot_train_rejected_before_any_epoch(self, setup):
        train, _, model = setup
        head = build_finetune_head(model, 3, seed=4).copy(requires_grad=False)
        records = []
        with pytest.raises(ContractError, match="does not require grad"):
            finetune(model, head, train, fast_finetune(), LAST_LAYER_ONLY, run_seed=5, sink=records.append)
        assert records == []

    def test_clean_balanced_reaches_95_percent_train_accuracy(self, setup):
        train, _, model = setup
        head = build_finetune_head(model, 3, seed=4)
        finetune(model, head, train, fast_finetune(loss="ce", epochs=10), FULL_HEAD, run_seed=5)

        report = evaluate_classifier(model, head, train)
        assert report.overall >= 0.95

    def test_one_record_per_epoch(self, setup):
        train, test, model = setup
        head = build_finetune_head(model, 3, seed=4)
        records = finetune(model, head, train, fast_finetune(epochs=7), FULL_HEAD, run_seed=5, test_set=test)
        assert len(records) == 7
        assert [r.epoch for r in records] == list(range(7))
        assert all(r.stage == "finetune" for r in records)

    def test_per_epoch_accuracy_is_the_classifier_evaluation(self, setup):
        train, test, model = setup
        head = build_finetune_head(model, 3, seed=4)
        records = finetune(model, head, train, fast_finetune(epochs=2), FULL_HEAD, run_seed=5, test_set=test)
        assert records[-1].per_class_accuracy == evaluate_classifier(model, head, test).per_class_json()

    @pytest.mark.parametrize("policy", [FULL_HEAD, LAST_LAYER_ONLY])
    def test_every_epoch_accuracy_is_the_classifier_evaluation(self, setup, policy):
        # each record's accuracy equals a fresh evaluation after that epoch
        train, test, model = setup
        head = build_finetune_head(model, 3, seed=4)
        expected = []
        records = finetune(model, head, train, fast_finetune(epochs=3), policy, run_seed=5, test_set=test,
                           sink=lambda _: expected.append(evaluate_classifier(model, head, test).per_class_json()))
        assert [r.per_class_accuracy for r in records] == expected

    @pytest.mark.parametrize("policy", [FULL_HEAD, LAST_LAYER_ONLY])
    def test_encoder_sees_each_set_once(self, setup, policy):
        # the per-epoch test accuracy reuses the frozen outputs instead of rerunning the encoder
        train, test, model = setup
        batches = []

        def encoder(x):
            batches.append(x.shape[0])
            return model.encoder(x)

        head = build_finetune_head(model, 3, seed=4)
        finetune(replace(model, encoder=encoder), head, train, fast_finetune(epochs=3), policy, run_seed=5,
                 test_set=test)
        assert sorted(batches) == sorted([train.num_samples, test.num_samples])

    @pytest.mark.parametrize("field", [{"loss": "la-sl"}])
    def test_misspelt_settings_rejected_at_construction(self, field):
        with pytest.raises(ValidationError, match=next(iter(field.values()))):
            FinetuneSettings(**field)

    def test_simclr_head_is_single_linear_layer(self):
        head = build_finetune_head(build_model("simclr", 8, seed=3), 3, seed=4)
        assert len(head.layers) == 1


@pytest.fixture(scope="module")
def two_stage():
    # the library composition README's "Library use" documents
    train, test = make_datasets(3, 60, 8, 6.0, run_seed=11, test_per_class=40)
    train = corrupt_train(train, 5.0, 0.3, 11)
    model = build_model("simsiam", 8, seed=derive(11, "model"))
    records = pretrain(model, train, fast_pretrain(), 11, KNNConfig(k=5), test)
    head = build_finetune_head(model, 3, derive(11, "model"))
    policy = select_freeze_policy("simsiam", 0.3)
    records += finetune(model, head, train, fast_finetune(), policy, 11, test_set=test)
    return records, evaluate_classifier(model, head, test)


class TestTwoStage:
    def test_completes_and_reports(self, two_stage):
        records, report = two_stage
        assert 0.0 <= report.balanced <= 1.0
        assert records[5].stage == "pretrain" and records[5].knn_accuracy is not None

    def test_record_stages_and_counts(self, two_stage):
        records, _ = two_stage
        stages = [r.stage for r in records]
        assert stages.count("pretrain") == 6
        assert stages.count("finetune") == 8
        knn_marks = [r.knn_accuracy for r in records if r.stage == "pretrain"]
        assert knn_marks[-1] is not None and all(v is None for v in knn_marks[:-1])


class TestSingleStage:
    @staticmethod
    def trained(train, settings, seed):
        """The baseline's call shape: build the model and head, then train them together."""
        model = build_model("simsiam", train.feature_dim, seed=derive(seed, "model"))
        head = build_finetune_head(model, train.num_classes, derive(seed, "model"))
        return model, head, run_single_stage(model, head, train, settings, seed)

    def test_runs_and_is_deterministic(self):
        train, test = make_datasets(3, 40, 8, 6.0, run_seed=13, test_per_class=30)
        runs = [self.trained(train, fast_finetune(loss="ce", epochs=5), 13) for _ in range(2)]
        (model_a, head_a, a), (model_b, head_b, b) = runs
        assert [r.to_json_line() for r in a] == [r.to_json_line() for r in b]
        assert params_digest(model_a.encoder.parameters() + head_a.parameters()) == params_digest(
            model_b.encoder.parameters() + head_b.parameters())
        assert (evaluate_classifier(model_a, head_a, test).per_class_json()
                == evaluate_classifier(model_b, head_b, test).per_class_json())
        assert len(a) == 5 and {r.stage for r in a} == {"single_stage"}

    def test_trains_the_encoder_and_head_it_is_given(self):
        train, _ = make_datasets(3, 40, 8, 6.0, run_seed=13, test_per_class=30)
        model = build_model("simsiam", train.feature_dim, seed=derive(13, "model"))
        head = build_finetune_head(model, train.num_classes, derive(13, "model"))
        before = [p.data.copy() for p in model.encoder.parameters() + head.parameters()]
        untouched = params_digest(model.projector.parameters() + model.predictor.parameters())
        run_single_stage(model, head, train, fast_finetune(loss="ce", epochs=2), 13)
        after = model.encoder.parameters() + head.parameters()
        assert all(not np.array_equal(b, p.data) for b, p in zip(before, after))
        assert params_digest(model.projector.parameters() + model.predictor.parameters()) == untouched

    def test_clean_data_trains_well(self):
        train, test = make_datasets(3, 60, 8, 6.0, run_seed=17, test_per_class=40)
        model, head, _ = self.trained(train, fast_finetune(loss="ce", epochs=30), 17)
        assert evaluate_classifier(model, head, test).balanced >= 0.9


class TestCleanBalancedRegime:
    def test_la_sl_and_ce_coincide_within_two_points(self):
        # clean balanced data: uniform priors make LA equal CE, and SuperLoss
        # saturates near its cap, so the two fine-tunes land together
        gaps = []
        for seed in range(5):
            train, test = make_datasets(3, 80, 8, 3.0, run_seed=seed, test_per_class=50)
            model = build_model("simsiam", 8, seed=seed)
            pre = fast_pretrain(epochs=30)
            pretrain(model, train, pre, seed)
            accs = {}
            for loss in ("la_sl", "ce"):
                head = build_finetune_head(model, 3, seed)
                finetune(model, head, train, fast_finetune(loss=loss, epochs=15), FULL_HEAD, seed)
                accs[loss] = evaluate_classifier(model, head, test).balanced
            gaps.append(accs["la_sl"] - accs["ce"])
        assert abs(float(np.mean(gaps))) <= 0.02

    def test_knn_proxy_perfect_on_fully_separated_clusters(self):
        train, test = make_datasets(3, 60, 8, 12.0, run_seed=31, test_per_class=40)
        model = build_model("simsiam", 8, seed=31)
        from tailspin.pipeline import knn_proxy_accuracy

        pretrain(model, train, fast_pretrain(epochs=30), 31)
        assert knn_proxy_accuracy(model, train, test, KNNConfig(k=5)) == 1.0


class TestImbalancedPretraining:
    def test_gamma_100_completes_and_beats_chance_3x(self):
        # 10-class set so 3x chance (0.3) is attainable; smallest class keeps 1 sample
        train, test = make_datasets(10, 100, 8, 5.0, run_seed=23, test_per_class=20)
        train = corrupt_train(train, 100.0, 0.0, 23)
        assert train.true_counts().min() == 1
        model = build_model("simsiam", 8, seed=derive(23, "model"))
        records = pretrain(model, train, fast_pretrain(epochs=40), 23, KNNConfig(k=5), test)
        assert records[-1].knn_accuracy is not None
        assert records[-1].knn_accuracy >= 3 * (1 / 10)


class TestTooFewSamples:
    def test_one_sample_is_contract_error_before_any_record(self):
        # SSL batches need two samples: no batch would train, and the mean loss would be NaN
        one = Dataset(np.ones((1, 4), np.float32), [0], [0], 2)
        settings = PretrainSettings(schedule=ScheduleConfig(warmup_epochs=0, total_epochs=2))
        records = []
        with pytest.raises(ContractError, match="1 samples cannot fill a batch of 2"):
            pretrain(build_model("simsiam", 4, seed=1), one, settings, 0, sink=records.append)
        assert records == []


class TestMismatchedSplits:
    """A test set whose feature width or class count differs from the training set's
    fails in either stage before any training, and no record reaches the sink."""

    @pytest.mark.parametrize("dim, num_classes, named", [(16, 3, "feature_dim=16"), (8, 5, "num_classes=5")])
    @pytest.mark.parametrize("stage", ["pretrain", "finetune"])
    def test_refused_before_any_record(self, setup, stage, dim, num_classes, named):
        train = setup[0]
        test = generate_synthetic(num_classes, 10, dim, 6.0, seed=2, split="test")
        model = build_model("simsiam", 8, seed=3)
        head = build_finetune_head(model, 3, seed=4)
        before = params_digest(model.trainable_parameters() + head.parameters())
        records = []
        with pytest.raises(ContractError, match=f"test set {named} differs"):
            if stage == "pretrain":
                pretrain(model, train, fast_pretrain(epochs=3), 3, test_set=test, sink=records.append)
            else:
                finetune(model, head, train, fast_finetune(), FULL_HEAD, run_seed=5, test_set=test, sink=records.append)
        assert records == []
        assert params_digest(model.trainable_parameters() + head.parameters()) == before


class TestThreadConfinement:
    def test_concurrent_runs_match_sequential_results(self):
        # tapes are thread-local: two simultaneous trainings on different
        # threads must produce the same parameters as running them alone
        import threading

        def one_run(seed, sink):
            train, test = make_datasets(3, 30, 6, 4.0, run_seed=seed, test_per_class=10)
            model = build_model("simsiam", 6, seed=derive(seed, "model"))
            pretrain(model, train, fast_pretrain(epochs=4), seed, KNNConfig(k=3), test)
            head = build_finetune_head(model, 3, derive(seed, "model"))
            finetune(model, head, train, fast_finetune(epochs=2), FULL_HEAD, seed, test_set=test)
            sink[seed] = params_digest(model.trainable_parameters() + head.parameters())

        sequential = {}
        for seed in (51, 52):
            one_run(seed, sequential)
        concurrent = {}
        threads = [threading.Thread(target=one_run, args=(seed, concurrent)) for seed in (51, 52)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert concurrent == sequential


class TestMakeDatasets:
    def test_corruption_applied_in_order(self):
        train, test = make_datasets(3, 100, 8, 6.0, run_seed=19, test_per_class=50)
        train = corrupt_train(train, 10.0, 0.4, 19)
        counts = train.true_counts()
        assert counts[0] == 100
        assert counts[-1] == 10
        changed = np.mean(train.labels_observed != train.labels_true)
        assert 0.15 <= changed <= 0.45  # 0.4 * 2/3 expected
        assert test.true_counts().tolist() == [50, 50, 50]
        assert np.array_equal(test.labels_observed, test.labels_true)


class TestPrecisionBoundary:
    """pipeline.pretrain trains in float32 and hands back float64 parameters; every
    other stage, gradient checks included, forms its tensors in float64."""

    @pytest.fixture
    def op_dtypes(self, monkeypatch):
        # every op's output passes through tensor._checked, looked up at call time
        seen = []
        checked = tensor._checked

        def spy(arr, requires_grad=False):
            seen.append(arr.dtype)
            return checked(arr, requires_grad)

        monkeypatch.setattr(tensor, "_checked", spy)
        return seen

    @staticmethod
    def all_params(model):
        return [p for name in NETWORKS if (net := getattr(model, name)) is not None for p in net.parameters()]

    @pytest.mark.parametrize("method", SSL_METHODS)
    def test_pretrain_is_float32_training_returned_in_float64(self, op_dtypes, method):
        train, _ = make_datasets(3, 20, 6, 4.0, run_seed=1)
        settings = fast_pretrain(method, epochs=3)
        model = build_model(method, 6, seed=2)
        pretrain(model, train, settings, 3)
        assert set(op_dtypes) == {np.dtype(np.float32)}
        params = self.all_params(model)
        assert {p.data.dtype for p in params} == {np.dtype(np.float64)}
        assert all(np.array_equal(p.data.astype(np.float32).astype(np.float64), p.data) for p in params)
        # the same as the float32 epochs run by hand, then widened
        reference = in_dtype(build_model(method, 6, seed=2), np.float32)
        opt = make_optimizer(settings.optimizer, reference.trainable_parameters())
        effective = scaled_lr(settings.optimizer.base_lr, settings.optimizer.batch_size)
        for epoch in range(3):
            pretrain_epoch(reference, train, settings.method, opt, lr_at(settings.schedule, epoch, effective), epoch,
                           3, settings.augmentation, settings.optimizer.batch_size)
        assert params_digest(params) == params_digest(self.all_params(in_dtype(reference, np.float64)))

    def test_knn_proxy_reads_the_float64_parameters(self, op_dtypes):
        train, test = make_datasets(3, 20, 6, 4.0, run_seed=1, test_per_class=10)
        model = build_model("byol", 6, seed=2)
        records = pretrain(model, train, fast_pretrain("byol", epochs=3), 3, KNNConfig(k=3), test)
        first64 = op_dtypes.index(np.dtype(np.float64))
        assert set(op_dtypes[:first64]) == {np.dtype(np.float32)}
        assert set(op_dtypes[first64:]) == {np.dtype(np.float64)}
        assert records[-1].knn_accuracy == knn_proxy_accuracy(model, train, test, KNNConfig(k=3))

    def test_pretrain_that_raises_leaves_float64_parameters(self):
        train, _ = make_datasets(3, 20, 6, 4.0, run_seed=1)
        model = build_model("simsiam", 6, seed=2)

        def refuse(record):  # fails after the first float32 epoch
            raise ContractError("sink refused")

        with pytest.raises(ContractError, match="sink refused"):
            pretrain(model, train, fast_pretrain(epochs=3), 3, sink=refuse)
        assert {p.data.dtype for p in self.all_params(model)} == {np.dtype(np.float64)}

    def test_overflow_in_float32_is_one_numeric_error_naming_float32(self):
        # features of 1e20: float64 holds every square in the step, float32 does not
        base, _ = make_datasets(3, 20, 6, 4.0, run_seed=1)
        train = Dataset(base.features * np.float32(1e20), base.labels_observed, base.labels_true, 3)
        model = build_model("simsiam", 6, seed=2)
        with pytest.raises(NumericError, match=r"^simsiam: squared norm overflows float32$"):
            pretrain(model, train, fast_pretrain(epochs=3), 3)
        assert {p.data.dtype for p in self.all_params(model)} == {np.dtype(np.float64)}

    @pytest.mark.parametrize("policy", [FULL_HEAD, LAST_LAYER_ONLY])
    def test_finetune_and_evaluation_stay_float64(self, op_dtypes, setup, policy):
        train, test, model = setup
        head = build_finetune_head(model, 3, seed=4)
        finetune(model, head, train, fast_finetune(epochs=1), policy, 5, test_set=test)
        evaluate_classifier(model, head, test)
        knn_proxy_accuracy(model, train, test, KNNConfig(k=3))
        assert op_dtypes and set(op_dtypes) == {np.dtype(np.float64)}
        assert {p.data.dtype for p in head.parameters()} == {np.dtype(np.float64)}

    def test_single_stage_and_gradcheck_stay_float64(self, op_dtypes, setup):
        train, _, _ = setup
        model = build_model("simsiam", 8, seed=3)
        head = build_finetune_head(model, 3, seed=4)
        run_single_stage(model, head, train, fast_finetune(epochs=1), 5)
        battery(instances=1, seed=0)
        assert op_dtypes and set(op_dtypes) == {np.dtype(np.float64)}
        assert {p.data.dtype for p in model.encoder.parameters() + head.parameters()} == {np.dtype(np.float64)}
