"""Two-stage orchestration: self-supervised pretraining, then head fine-tuning
with a robust loss under a noise-dependent freeze policy. Also the
single-stage supervised baseline used for ablation.

Training paths read ``labels_observed`` only; the hidden true labels are
consumed exclusively by evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import (
    AugmentationSpec,
    Dataset,
    ImbalanceSpec,
    NoiseSpec,
    apply_exponential_imbalance,
    estimate_priors,
    generate_synthetic,
    inject_symmetric_noise,
)
from .errors import ConfigError, ContractError, ValidationError
from .evaluation import AccuracyReport, KNNConfig, MetricsRecord, accuracy_suite, embed, encoder_outputs, knn_classify
from .losses import LOSS_KINDS, SuperLossParams, batch_loss
from .nn import Mlp, Model
from .optim import OptimizerConfig, ScheduleConfig, lr_at, make_optimizer, scaled_lr, train_epoch
from .seeding import derive, rng_for
from .ssl import SSLMethod, pretrain_epoch
from .tensor import Tensor

FULL_HEAD = "full_head"
LAST_LAYER_ONLY = "last_layer_only"

# per-method noise thresholds above which only the last FC layer is tuned
NOISE_THRESHOLDS = {"simsiam": 0.6, "byol": 0.4, "barlow_twins": 0.2}


def select_freeze_policy(method: str, nu: float) -> str:
    """Full head at or below the method's noise threshold, last layer above it.

    SimCLR always trains a linear classifier on the frozen encoder, which is
    a single-layer head; full_head describes it.
    """
    if method == "simclr":
        return FULL_HEAD
    if method not in NOISE_THRESHOLDS:
        raise ConfigError(f"unknown method '{method}' for freeze policy")
    return FULL_HEAD if nu <= NOISE_THRESHOLDS[method] else LAST_LAYER_ONLY


def build_finetune_head(model: Model, num_classes: int, seed: int) -> Mlp:
    """Classification head on the frozen encoder, shaped by ``model.method``.

    SimCLR gets a fresh linear classifier. The other methods reuse the first
    pretrained projector layer and replace the output layer with a fresh
    C-way linear layer, mirroring fine-tuning from a middle layer of the
    projection head.
    """
    rng = rng_for(seed, "init", "head")
    if model.method == "simclr":
        return Mlp.init([model.encoder.dims[-1], num_classes], rng)
    first = Mlp(model.projector.layers[:1]).copy()
    return Mlp(first.layers + Mlp.init([first.dims[-1], num_classes], rng).layers)


@dataclass
class PretrainSettings:
    """Pretraining runs for ``schedule.total_epochs`` epochs; the defaults are the desk-scale recipe of ``run``."""

    method: SSLMethod = field(default_factory=lambda: SSLMethod("simsiam"))
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    augmentation: AugmentationSpec = field(default_factory=lambda: AugmentationSpec(gaussian_sigma=0.4, scale_jitter=0.2))

    def __post_init__(self):
        if self.optimizer.batch_size < 2:
            # pretrain_epoch skips batches of one sample, so a smaller size would train on nothing
            raise ValidationError(f"pretraining batch_size must be >= 2, got {self.optimizer.batch_size}")


@dataclass
class FinetuneSettings:
    loss: str = "la_sl"
    optimizer: OptimizerConfig = field(default_factory=lambda: OptimizerConfig(kind="adam", base_lr=0.003, weight_decay=0.0))
    epochs: int = 25
    superloss: SuperLossParams = field(default_factory=SuperLossParams)

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValidationError(f"unknown loss kind '{self.loss}', expected one of {LOSS_KINDS}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")


def _run_epochs(stage: str, epochs: int, run_seed: int, sink, epoch_fn) -> list[MetricsRecord]:
    """Call ``epoch_fn(epoch)`` for each epoch; it returns (loss, lr, extra record
    fields). One record per epoch, handed to ``sink`` as soon as it exists."""
    records = []
    for epoch in range(epochs):
        loss, lr, extra = epoch_fn(epoch)
        records.append(MetricsRecord(stage, epoch, loss, lr, run_seed, **extra))
        if sink is not None:
            sink(records[-1])
    return records


def pretrain(
    model: Model,
    dataset: Dataset,
    settings: PretrainSettings,
    run_seed: int,
    knn_cfg: KNNConfig = KNNConfig(),
    test_set: Dataset | None = None,
    sink=None,
) -> list[MetricsRecord]:
    """Run the self-supervised stage; one record per epoch. Given a ``test_set``, the
    last record carries the kNN proxy accuracy, whose k is checked before epoch 0."""
    if test_set is not None:
        knn_cfg.check_reference(dataset.num_samples)
    opt = make_optimizer(settings.optimizer, model.trainable_parameters())
    effective = scaled_lr(settings.optimizer.base_lr, settings.optimizer.batch_size)
    epochs = settings.schedule.total_epochs

    def epoch_fn(epoch: int):
        lr = lr_at(settings.schedule, epoch, effective)
        loss = pretrain_epoch(model, dataset, settings.method, opt, lr, epoch, run_seed,
                              settings.augmentation, settings.optimizer.batch_size)
        last = epoch == epochs - 1 and test_set is not None
        return loss, lr, {"knn_accuracy": knn_proxy_accuracy(model, dataset, test_set, knn_cfg) if last else None}

    return _run_epochs("pretrain", epochs, run_seed, sink, epoch_fn)


def knn_proxy_accuracy(model: Model, train_set: Dataset, test_set: Dataset, cfg: KNNConfig) -> float:
    """kNN accuracy on frozen encoder outputs: train embeddings vote for test queries."""
    preds = knn_classify(embed(train_set, model), embed(test_set, model), cfg)
    return accuracy_suite(preds, test_set.labels_true, test_set.num_classes).overall


def _train_supervised(stage: str, params: list[Tensor], logits_of: Callable[[np.ndarray], Tensor], dataset: Dataset,
                      settings: FinetuneSettings, run_seed: int, sink=None,
                      extra: Callable[[], dict] = dict) -> list[MetricsRecord]:
    """Train ``params`` on the observed labels of ``dataset``, with priors from those
    labels, for ``settings.epochs`` epochs; ``logits_of(batch indices)`` is the
    forward pass and ``extra()`` the further fields of each epoch's record."""
    if not all(p.requires_grad for p in params):
        raise ContractError(f"{stage}: a parameter to train does not require grad")
    opt = make_optimizer(settings.optimizer, params)
    priors = estimate_priors(dataset)
    labels = dataset.labels_observed
    lr = settings.optimizer.base_lr
    superloss = settings.superloss.resolved(priors.num_classes)

    def loss_fn(idx: np.ndarray) -> Tensor:
        return batch_loss(settings.loss, logits_of(idx), labels[idx], priors, superloss)[0]

    def epoch_fn(epoch: int):
        loss = train_epoch(opt, lr, loss_fn, dataset.num_samples, settings.optimizer.batch_size,
                           run_seed, stage, epoch)
        return loss, lr, extra()

    return _run_epochs(stage, settings.epochs, run_seed, sink, epoch_fn)


def finetune(
    model: Model,
    head: Mlp,
    dataset: Dataset,
    settings: FinetuneSettings,
    policy: str,
    run_seed: int,
    test_set: Dataset | None = None,
    sink=None,
) -> list[MetricsRecord]:
    """Train the head on frozen-encoder representations with the configured loss.

    The encoder, and under ``last_layer_only`` every head layer but the last (with
    its ReLU), are frozen: computed once, outside any tape, for the training set
    and for the test set. No ``requires_grad`` flag changes. Per-epoch test
    accuracy is recorded when a test set is supplied.
    """
    if policy not in (FULL_HEAD, LAST_LAYER_ONLY):
        raise ConfigError(f"unknown freeze policy '{policy}'")
    frozen = len(head.layers) - 1 if policy == LAST_LAYER_ONLY else 0

    def frozen_outputs(data: Dataset) -> np.ndarray:
        reps = encoder_outputs(model, data)
        # the last frozen layer keeps its ReLU, which Mlp leaves off its own last layer
        return np.maximum(Mlp(head.layers[:frozen])(Tensor(reps)).data, 0.0) if frozen else reps

    reps = frozen_outputs(dataset)
    trained = Mlp(head.layers[frozen:])
    test_reps = None if test_set is None else frozen_outputs(test_set)

    def per_class() -> dict:
        return {"per_class_accuracy": None if test_set is None else
                _classify(trained, test_reps, test_set).per_class_json()}

    return _train_supervised("finetune", trained.parameters(), lambda idx: trained(Tensor(reps[idx])),
                             dataset, settings, run_seed, sink, per_class)


def run_single_stage(
    model: Model,
    head: Mlp,
    train_set: Dataset,
    settings: FinetuneSettings,
    run_seed: int,
    sink=None,
) -> list[MetricsRecord]:
    """Supervised baseline, the ablation that removes pretraining: the encoder and
    head train end to end from their initial weights with the configured loss."""
    features = train_set.features.astype(np.float64)
    return _train_supervised("single_stage", model.encoder.parameters() + head.parameters(),
                             lambda idx: head(model.encoder(Tensor(features[idx]))),
                             train_set, settings, run_seed, sink)


def corrupt_train(train: Dataset, gamma: float, nu: float, run_seed: int) -> Dataset:
    """Imbalance first, then symmetric noise; both values are validated, even 1 and 0, which leave the set as it is."""
    imbalance = ImbalanceSpec(gamma, seed=derive(run_seed, "imbalance"))
    noise = NoiseSpec(nu, seed=derive(run_seed, "noise"))
    if gamma > 1.0:
        train = apply_exponential_imbalance(train, imbalance)
    if nu > 0.0:
        train = inject_symmetric_noise(train, noise)
    return train


def make_datasets(
    num_classes: int,
    per_class: int,
    dim: int,
    separation: float,
    run_seed: int,
    test_per_class: int = 100,
) -> tuple[Dataset, Dataset]:
    """Clean, balanced train and test clusters; ``corrupt_train`` corrupts the train split."""
    if test_per_class < 1:  # generate_synthetic would name it per_class
        raise ValidationError(f"test_per_class must be >= 1, got {test_per_class}")
    data_seed = derive(run_seed, "data")
    train = generate_synthetic(num_classes, per_class, dim, separation, data_seed, split="train")
    test = generate_synthetic(num_classes, test_per_class, dim, separation, data_seed, split="test")
    return train, test


def _classify(head: Mlp, reps: np.ndarray, test_set: Dataset) -> AccuracyReport:
    preds = np.argmax(head(Tensor(reps)).data, axis=1)
    return accuracy_suite(preds, test_set.labels_true, test_set.num_classes)


def evaluate_classifier(model: Model, head: Mlp, test_set: Dataset) -> AccuracyReport:
    return _classify(head, encoder_outputs(model, test_set), test_set)
