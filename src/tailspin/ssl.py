"""The four self-supervised pretraining objectives over a Siamese MLP encoder.

SimCLR (NT-Xent over positives and negatives), SimSiam (stop-gradient plus
predictor), BYOL (EMA target network), Barlow Twins (redundancy reduction).
Pretraining never reads either label track.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AugmentationSpec, Dataset, augment, view_seed
from .errors import ConfigError, ContractError, ValidationError
from .nn import SSL_METHODS, Model, ema_update
from .optim import train_epoch
from .tensor import (
    Tensor,
    add,
    concat_rows,
    l2_normalize,
    matmul,
    mean,
    mul,
    negative_cosine_similarity,
    softmax_nll,
    standardize_columns,
    stop_gradient,
    sub,
    tensor_sum,
    transpose,
    _as_tensor,
)

_NEG_MASK = -1e9  # finite stand-in for -inf when masking self-similarities
# NT-Xent's logits are cosines / temperature and its gradients grow as 1 / temperature;
# below this floor the softmax is a hard argmax, and by 1e-50 a run overflows float64
_MIN_TEMPERATURE = 1e-4
# pretrain_epoch builds an epoch's views this many rows at a time, which bounds
# augment's temporaries on a large dataset (12,408 rows at once took 7 MB more)
_VIEW_BLOCK_ROWS = 1024


@dataclass
class SSLMethod:
    """Method selector plus the hyperparameters the method actually uses."""

    name: str
    temperature: float = 0.5
    ema_momentum: float = 0.99
    lambda_bt: float = 0.005
    stop_gradient: bool = True  # SimSiam only; off is the collapse ablation

    def __post_init__(self):
        if self.name not in SSL_METHODS:
            raise ConfigError(f"unknown SSL method '{self.name}', expected one of {SSL_METHODS}")
        if not self.temperature >= _MIN_TEMPERATURE:
            raise ValidationError(f"temperature must be >= {_MIN_TEMPERATURE:g}, got {self.temperature}")
        if not 0.0 <= self.ema_momentum <= 1.0:
            raise ValidationError(f"ema_momentum must lie in [0, 1], got {self.ema_momentum}")
        if not 0.0 < self.lambda_bt < np.inf:
            raise ValidationError(f"lambda_bt must be positive and finite, got {self.lambda_bt}")
        if not self.stop_gradient and self.name != "simsiam":
            raise ValidationError(f"stop_gradient=False is SimSiam's collapse ablation; "
                                  f"{self.name} has no stop-gradient to turn off")


def build_views(
    features: np.ndarray,
    indices: np.ndarray,
    aug: AugmentationSpec,
    run_seed: int,
    epoch: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Augment each sample twice. Seeds derive from the original sample index,
    so data ordering never changes the views a sample receives."""
    if len(indices) == 0:
        raise ContractError("build_views: empty batch")
    return (augment(features, aug, view_seed(run_seed, epoch, indices, 0)),
            augment(features, aug, view_seed(run_seed, epoch, indices, 1)))


def simsiam_loss(p_a: Tensor, z_a: Tensor, p_b: Tensor, z_b: Tensor, stop_grad: bool = True) -> Tensor:
    """-0.5 * [cos(p_a, sg(z_b)) + cos(p_b, sg(z_a))], batch-averaged.

    ``stop_grad=False`` is the collapse-ablation switch; gradients then flow
    through both branches.
    """
    t_b = stop_gradient(z_b) if stop_grad else z_b
    t_a = stop_gradient(z_a) if stop_grad else z_a
    half = _as_tensor(0.5)
    return add(
        mul(negative_cosine_similarity(p_a, t_b), half),
        mul(negative_cosine_similarity(p_b, t_a), half),
    )


def nt_xent_loss(z_a: Tensor, z_b: Tensor, temperature: float) -> Tensor:
    """Normalized-temperature cross-entropy over the 2B embeddings.

    For each anchor the positive is its other view; the remaining 2B - 2
    embeddings act as negatives (the positive stays in the denominator).
    """
    if z_a.shape != z_b.shape:
        raise ContractError(f"nt_xent: view shapes differ, {z_a.shape} vs {z_b.shape}")
    b = z_a.shape[0]
    if b < 2:
        raise ContractError("nt_xent: batch size must be >= 2, negatives are undefined otherwise")
    z = l2_normalize(concat_rows(z_a, z_b))
    sims = mul(matmul(z, transpose(z)), _as_tensor(1.0 / temperature))
    positives = np.concatenate([np.arange(b) + b, np.arange(b)])
    return mean(softmax_nll(sims, positives, np.eye(2 * b) * _NEG_MASK))


def barlow_twins_loss(z_a: Tensor, z_b: Tensor, lambda_bt: float, eps: float = 1e-9) -> Tensor:
    """Redundancy reduction on the batch-standardized cross-correlation matrix."""
    if z_a.shape != z_b.shape:
        raise ContractError(f"barlow_twins: view shapes differ, {z_a.shape} vs {z_b.shape}")
    if z_a.shape[0] < 2:
        raise ContractError("barlow_twins: batch standardization needs batch size >= 2")
    b, d = z_a.shape
    za = standardize_columns(z_a, eps=eps)
    zb = standardize_columns(z_b, eps=eps)
    corr = mul(matmul(transpose(za), zb), _as_tensor(1.0 / b))
    eye = np.eye(d)
    diag_err = mul(sub(corr, Tensor(eye)), Tensor(eye))
    off = mul(corr, Tensor(1.0 - eye))
    invariance = tensor_sum(mul(diag_err, diag_err))
    redundancy = tensor_sum(mul(off, off))
    return add(invariance, mul(redundancy, _as_tensor(lambda_bt)))


def method_loss(model: Model, method: SSLMethod, view_a: np.ndarray, view_b: np.ndarray) -> Tensor:
    """The configured objective on two views of one minibatch; labels are never consulted.

    SimSiam applies ``method.stop_gradient``; BYOL's target branch is the EMA
    network, which never takes a gradient.
    """
    if method.name == "byol" and not model.has_ema():
        raise ConfigError("byol requires a model with an EMA target")
    z_a = model.projector(model.encoder(Tensor(view_a)))
    z_b = model.projector(model.encoder(Tensor(view_b)))
    if method.name == "simclr":
        return nt_xent_loss(z_a, z_b, method.temperature)
    if method.name == "barlow_twins":
        return barlow_twins_loss(z_a, z_b, method.lambda_bt)
    p_a, p_b = model.predictor(z_a), model.predictor(z_b)
    if method.name == "simsiam":
        return simsiam_loss(p_a, z_a, p_b, z_b, stop_grad=method.stop_gradient)
    t_a = model.ema_projector(model.ema_encoder(Tensor(view_a)))
    t_b = model.ema_projector(model.ema_encoder(Tensor(view_b)))
    return simsiam_loss(p_a, t_a, p_b, t_b, stop_grad=False)


def pretrain_epoch(
    model: Model,
    dataset: Dataset,
    method: SSLMethod,
    optimizer,
    lr: float,
    epoch: int,
    run_seed: int,
    aug: AugmentationSpec,
    batch_size: int,
) -> float:
    """One shuffled pass over the dataset; returns the mean minibatch loss.

    Both views of every sample are built once per epoch, in blocks of rows,
    and indexed per batch; each row draws only from its own seeds, so they
    equal the views ``build_views`` makes for the batch. Batches smaller than
    2 at the tail of the epoch are dropped because the contrastive and
    redundancy objectives are undefined on them.
    """
    n = dataset.num_samples
    view_a, view_b = np.empty((n, dataset.feature_dim)), np.empty((n, dataset.feature_dim))
    for start in range(0, n, _VIEW_BLOCK_ROWS):
        stop = min(start + _VIEW_BLOCK_ROWS, n)
        view_a[start:stop], view_b[start:stop] = build_views(dataset.features[start:stop], np.arange(start, stop),
                                                             aug, run_seed, epoch)

    def loss_fn(idx: np.ndarray) -> Tensor:
        return method_loss(model, method, view_a[idx], view_b[idx])

    after_step = (lambda: ema_update(model, method.ema_momentum)) if method.name == "byol" else None
    return train_epoch(optimizer, lr, loss_fn, dataset.num_samples, batch_size, run_seed, "pretrain", epoch,
                       min_batch=2, after_step=after_step)
