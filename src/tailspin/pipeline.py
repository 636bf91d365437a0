"""Two-stage orchestration: self-supervised pretraining, then head fine-tuning
with a robust loss under a noise-dependent freeze policy. Also the
single-stage supervised baseline used for ablation.

Training paths read ``labels_observed`` only; the hidden true labels are
consumed exclusively by evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
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
from .errors import ConfigError, ValidationError
from .evaluation import AccuracyReport, KNNConfig, MetricsRecord, accuracy_suite, embed, knn_classify
from .losses import SuperLossParams, batch_loss
from .nn import Linear, Mlp, Model, build_model
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


def build_finetune_head(model: Model, num_classes: int, method: str, seed: int) -> Mlp:
    """Classification head on the frozen encoder.

    SimCLR gets a fresh linear classifier. The other methods reuse the first
    pretrained projector layer and replace the output layer with a fresh
    C-way linear layer, mirroring fine-tuning from a middle layer of the
    projection head.
    """
    rng = rng_for(seed, "init", "head")
    rep_dim = model.encoder.layers[-1].weight.shape[1]
    if method == "simclr":
        return Mlp.init([rep_dim, num_classes], rng)
    first = model.projector.layers[0].copy(requires_grad=True)
    out_dim = first.weight.shape[1]
    return Mlp([first, Linear.init(out_dim, num_classes, rng)])


def _head_trainable(head: Mlp, policy: str) -> list:
    if policy == LAST_LAYER_ONLY:
        layers = head.layers[-1:]
    elif policy == FULL_HEAD:
        layers = head.layers
    else:
        raise ConfigError(f"unknown freeze policy '{policy}'")
    selected = [p for layer in layers for p in layer.parameters()]
    for layer in head.layers:
        for p in layer.parameters():
            p.requires_grad = any(p is q for q in selected)
    return selected


@dataclass
class PretrainSettings:
    """Pretraining runs for ``schedule.total_epochs`` epochs."""

    method: SSLMethod
    optimizer: OptimizerConfig
    schedule: ScheduleConfig
    augmentation: AugmentationSpec = field(default_factory=lambda: AugmentationSpec(0.4, 0.0, 0.2))
    disable_stop_gradient: bool = False

    def __post_init__(self):
        if self.optimizer.batch_size < 2:
            # pretrain_epoch skips batches of one sample, so a smaller size would train on nothing
            raise ValidationError(f"pretraining batch_size must be >= 2, got {self.optimizer.batch_size}")


@dataclass
class FinetuneSettings:
    loss: str = "la_sl"
    optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(kind="adam", base_lr=0.003, weight_decay=0.0)
    )
    epochs: int = 25
    superloss_lambda: float = 4.0
    superloss_tau: float | None = None  # None means log(num_classes)
    clamp_mode: str = "lower_bound"
    freeze_override: str | None = None  # None means select by method and nu

    def __post_init__(self):
        if self.superloss_lambda <= 0:
            raise ValidationError(f"superloss lambda must be positive, got {self.superloss_lambda}")


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
    knn_cfg: KNNConfig | None = None,
    test_set: Dataset | None = None,
    sink=None,
) -> list[MetricsRecord]:
    """Run the self-supervised stage; one record per epoch, kNN proxy on the last, whose k is checked before epoch 0."""
    if knn_cfg is not None and test_set is not None:
        knn_cfg.check_reference(dataset.num_samples)
    opt = make_optimizer(settings.optimizer, model.trainable_parameters())
    effective = scaled_lr(settings.optimizer.base_lr, settings.optimizer.batch_size)
    epochs = settings.schedule.total_epochs

    def epoch_fn(epoch: int):
        lr = lr_at(settings.schedule, epoch, effective)
        loss = pretrain_epoch(
            model,
            dataset,
            settings.method,
            opt,
            lr,
            epoch,
            run_seed,
            settings.augmentation,
            settings.optimizer.batch_size,
            disable_stop_gradient=settings.disable_stop_gradient,
        )
        knn_acc = None
        if epoch == epochs - 1 and knn_cfg is not None and test_set is not None:
            knn_acc = knn_proxy_accuracy(model, dataset, test_set, knn_cfg)
        return loss, lr, {"knn_accuracy": knn_acc}

    return _run_epochs("pretrain", epochs, run_seed, sink, epoch_fn)


def knn_proxy_accuracy(model: Model, train_set: Dataset, test_set: Dataset, cfg: KNNConfig) -> float:
    """kNN accuracy on frozen encoder outputs: train embeddings vote for test queries."""
    reference = embed(train_set, model)
    queries = embed(test_set, model)
    preds = knn_classify(reference, queries, cfg)
    return accuracy_suite(preds, queries.labels, test_set.num_classes).overall


def _representations(model: Model, ds: Dataset) -> np.ndarray:
    return model.encoder(Tensor(ds.features.astype(np.float64))).data


def _supervised_loss(fine: FinetuneSettings, dataset: Dataset, logits_of: Callable[[np.ndarray], Tensor]):
    """Minibatch loss on the observed labels of ``dataset``, with priors from
    those labels; the SuperLoss threshold defaults to log(C)."""
    priors = estimate_priors(dataset)
    sl_params = SuperLossParams.for_classes(dataset.num_classes, fine.superloss_lambda, fine.clamp_mode)
    if fine.superloss_tau is not None:
        sl_params = replace(sl_params, tau=fine.superloss_tau)
    labels = dataset.labels_observed
    return lambda idx: batch_loss(fine.loss, logits_of(idx), labels[idx], priors, sl_params)[0]


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

    The encoder is frozen (its outputs are precomputed once), priors come
    from the observed labels, and per-epoch test accuracy is recorded when a
    test set is supplied.
    """
    for p in model.trainable_parameters():
        p.requires_grad = False
    opt = make_optimizer(settings.optimizer, _head_trainable(head, policy))
    reps = _representations(model, dataset)
    test_reps = _representations(model, test_set) if test_set is not None else None
    loss_fn = _supervised_loss(settings, dataset, lambda idx: head(Tensor(reps[idx])))
    lr = settings.optimizer.base_lr

    def epoch_fn(epoch: int):
        loss = train_epoch(opt, lr, loss_fn, dataset.num_samples, settings.optimizer.batch_size,
                           run_seed, "finetune", epoch)
        per_class = None
        if test_reps is not None:
            preds = np.argmax(head(Tensor(test_reps)).data, axis=1)
            per_class = accuracy_suite(preds, test_set.labels_true, test_set.num_classes).per_class_json()
        return loss, lr, {"per_class_accuracy": per_class}

    return _run_epochs("finetune", settings.epochs, run_seed, sink, epoch_fn)


@dataclass
class RunResult:
    model: Model
    head: Mlp
    records: list[MetricsRecord]
    report: AccuracyReport
    summary: dict


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
    data_seed = derive(run_seed, "data")
    train = generate_synthetic(num_classes, per_class, dim, separation, data_seed, split="train")
    test = generate_synthetic(num_classes, test_per_class, dim, separation, data_seed, split="test")
    return train, test


def evaluate_classifier(model: Model, head: Mlp, test_set: Dataset) -> AccuracyReport:
    reps = _representations(model, test_set)
    preds = np.argmax(head(Tensor(reps)).data, axis=1)
    return accuracy_suite(preds, test_set.labels_true, test_set.num_classes)


def run_single_stage(
    train_set: Dataset,
    test_set: Dataset,
    method_name: str,
    fine: FinetuneSettings,
    epochs: int,
    run_seed: int,
    sink=None,
    model_dims: dict | None = None,
) -> RunResult:
    """Supervised baseline: encoder + head trained end-to-end from scratch
    with the configured loss; the ablation that removes pretraining."""
    model = build_model("simsiam" if method_name == "simclr" else method_name,
                        train_set.feature_dim, seed=derive(run_seed, "model"), **(model_dims or {}))
    head = build_finetune_head(model, train_set.num_classes, "single_stage", derive(run_seed, "model"))
    opt = make_optimizer(fine.optimizer, model.encoder.parameters() + head.parameters())
    features = train_set.features.astype(np.float64)
    loss_fn = _supervised_loss(fine, train_set, lambda idx: head(model.encoder(Tensor(features[idx]))))
    lr = fine.optimizer.base_lr
    records = _run_epochs("single_stage", epochs, run_seed, sink, lambda epoch: (
        train_epoch(opt, lr, loss_fn, train_set.num_samples, fine.optimizer.batch_size, run_seed, "single_stage", epoch),
        lr,
        {},
    ))
    report = evaluate_classifier(model, head, test_set)
    summary = summarize(report, None, run_seed, {"single_stage": epochs})
    return RunResult(model, head, records, report, summary)


def summarize(report: AccuracyReport, knn_acc: float | None, seed: int, stages: dict) -> dict:
    """The body of summary.json: final accuracies, kNN proxy and epochs per stage."""
    return {
        "seed": seed,
        "overall_accuracy": report.overall,
        "balanced_accuracy": report.balanced,
        "per_class_accuracy": report.per_class_json(),
        "knn_accuracy": knn_acc,
        "stages": stages,
    }
