"""The four self-supervised pretraining objectives over a Siamese MLP encoder.

SimCLR (NT-Xent over positives and negatives), SimSiam (stop-gradient plus
predictor), BYOL (EMA target network), Barlow Twins (redundancy reduction).
Pretraining never reads either label track.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AugmentationSpec, Dataset, augment, view_seed
from .errors import ConfigError, ContractError, NumericError, ValidationError
from .evaluation import _FORWARD_ROWS, _row_blocks
from .nn import SSL_METHODS, Model, ema_update
from .optim import train_epoch
from .tensor import Tensor, _op, _softmax_nll, _unit

_NEG_MASK = -1e9  # finite stand-in for -inf when masking self-similarities
# NT-Xent's logits are cosines / temperature and its gradients grow as 1 / temperature;
# below this floor the softmax is a hard argmax, and by 1e-50 a run overflows float64
_MIN_TEMPERATURE = 1e-4


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


def _views(z: Tensor, name: str) -> int:
    """B, for z holding two views of B >= 1 rows each stacked as (2B, d), view a first."""
    if z.ndim != 2 or z.shape[0] < 2 or z.shape[0] % 2:
        raise ContractError(f"{name}: expected two views stacked as (2B, d), got shape {z.shape}")
    return z.shape[0] // 2


def _swap(a: np.ndarray, b: int) -> np.ndarray:
    """The other view of every row: view b's rows, then view a's."""
    return np.concatenate([a[b:], a[:b]])


def simsiam_loss(p: Tensor, z: Tensor, stop_grad: bool = True) -> Tensor:
    """-0.5 * [cos(p_a, sg(z_b)) + cos(p_b, sg(z_a))], batch-averaged, as one record.

    p and z are stacked views, (2B, d) with view a in rows [:B]. The value
    and gradients equal the chain of l2-normalize, product, row sum, mean,
    negation and halving per term that it replaced, bit for bit.
    ``stop_grad=False`` is the collapse-ablation switch; gradients then flow
    through both branches.
    """
    if p.shape != z.shape:
        raise ContractError(f"simsiam: predictor and target shapes differ, {p.shape} vs {z.shape}")
    b = _views(p, "simsiam")
    yp, p_vjp = _unit(p.data, -1, "simsiam")
    yz, z_vjp = _unit(z.data, -1, "simsiam")
    dots = np.sum(yp * _swap(yz, b), axis=-1)
    inv_n = 1.0 / b

    def scale(g):  # the halving, negation and mean vjps
        return -(g * 0.5) * inv_n

    value = -(np.sum(dots[:b]) * inv_n) * 0.5 + -(np.sum(dots[b:]) * inv_n) * 0.5
    z_takes_grad = z.requires_grad and not stop_grad

    def vjp(g):
        pairs = [(p, p_vjp(scale(g) * _swap(yz, b)))] if p.requires_grad else []
        if z_takes_grad:
            pairs.append((z, z_vjp(scale(g) * _swap(yp, b))))
        return pairs

    return _op("simsiam", value, vjp, p, *([] if stop_grad else [z]))


def nt_xent_loss(z: Tensor, temperature: float) -> Tensor:
    """Normalized-temperature cross-entropy over the 2B stacked embeddings, as one record.

    z is (2B, d) with view a in rows [:B]. For each anchor the positive is
    its other view; the remaining 2B - 2 embeddings act as negatives (the
    positive stays in the denominator). The value and gradient equal the
    chain of normalize, Gram matrix, 1/T scale, masked softmax-NLL and mean
    that it replaced, bit for bit, the Gram matrix included: it multiplies
    by a contiguous copy of the normalized z's transpose, as that chain's
    transpose record did, since a product with the transposed view takes
    another BLAS path.
    """
    b = _views(z, "nt_xent")
    if b < 2:
        raise ContractError("nt_xent: batch size must be >= 2, negatives are undefined otherwise")
    y, unit_vjp = _unit(z.data, -1, "nt_xent")
    yt = np.ascontiguousarray(y.T)
    inv_t = 1.0 / temperature
    sims = (y @ yt) * inv_t
    positives = np.concatenate([np.arange(b) + b, np.arange(b)])
    nll, nll_vjp = _softmax_nll(sims + np.eye(2 * b, dtype=sims.dtype) * _NEG_MASK, positives)
    inv_n = 1.0 / (2 * b)

    def vjp(g):
        grad_sims = nll_vjp(np.broadcast_to(g * inv_n, nll.shape)) * inv_t
        # y is both Gram operands: the left one's gradient, then the transposed right one's
        grad_y = grad_sims @ yt.T
        grad_y += (y.T @ grad_sims).T
        return [(z, unit_vjp(grad_y))]

    return _op("nt_xent", np.sum(nll) * inv_n, vjp, z)


def _standardize(a: np.ndarray, inv_b: float, eps: float):
    """Zero-mean unit-variance columns of one view (biased variance) and their vjp,
    with the mean, sub, square, mean, add and power steps of the chain it replaced."""
    mu = np.sum(a, axis=0, keepdims=True) * inv_b
    centered = a - mu
    var = np.sum(centered * centered, axis=0, keepdims=True) * inv_b
    if not np.isfinite(var).all():
        raise NumericError(f"barlow_twins: a column's variance overflows {var.dtype}")
    shifted = var + eps
    scale = shifted ** -0.5

    def vjp(g):
        grad_var = (g * centered).sum(axis=0, keepdims=True) * -0.5 * shifted ** -1.5
        square = (grad_var * inv_b) * centered
        # centered takes the scaled gradient, then the square's two factors in turn
        grad = g * scale
        grad += square
        grad += square
        return grad + (-grad).sum(axis=0, keepdims=True) * inv_b

    return centered * scale, vjp


def barlow_twins_loss(z: Tensor, lambda_bt: float, eps: float = 1e-9) -> Tensor:
    """Redundancy reduction on the batch-standardized cross-correlation matrix, as one record.

    z is (2B, d) with view a in rows [:B]; each view is standardized on its
    own. The value and gradient equal the chain of standardization,
    cross-correlation and weighted squares that it replaced, bit for bit.
    """
    b = _views(z, "barlow_twins")
    if b < 2:
        raise ContractError("barlow_twins: batch standardization needs batch size >= 2")
    inv_b = 1.0 / b
    eye = np.eye(z.shape[1], dtype=z.data.dtype)
    off_mask = 1.0 - eye
    std_a, vjp_a = _standardize(z.data[:b], inv_b, eps)
    std_b, vjp_b = _standardize(z.data[b:], inv_b, eps)
    std_a_t = np.ascontiguousarray(std_a.T)
    corr = (std_a_t @ std_b) * inv_b
    diag_err = (corr - eye) * eye
    off = corr * off_mask
    value = np.sum(diag_err * diag_err) + np.sum(off * off) * lambda_bt

    def vjp(g):
        # each square's two factors add the same term, one after the other
        off_term = (g * lambda_bt) * off
        diag_term = g * diag_err
        grad_corr = (off_term + off_term) * off_mask
        grad_corr += (diag_term + diag_term) * eye
        grad_corr *= inv_b
        grad = np.empty_like(z.data)
        grad[:b] = vjp_a((grad_corr @ std_b.T).T.copy())
        grad[b:] = vjp_b(std_a_t.T @ grad_corr)
        return [(z, grad)]

    return _op("barlow_twins", value, vjp, z)


def method_loss(model: Model, method: SSLMethod, view_a: np.ndarray, view_b: np.ndarray) -> Tensor:
    """The configured objective on two views of one minibatch; labels are never consulted.

    Both views pass through each network once, as one stacked (2B, d) batch
    with view a in rows [:B], so every layer forms one product over the 2B
    rows, as SimSiam and SimCLR batch their views, in the dtype of the views
    and the model. ``method`` must be the one ``model`` was built for, which
    decides its networks. SimSiam applies ``method.stop_gradient``; BYOL's
    target is the EMA network, which takes no gradient.
    """
    if method.name != model.method:
        raise ContractError(f"method_loss: {method.name} loss on a {model.method} model")
    if view_a.shape != view_b.shape:
        raise ContractError(f"method_loss: view shapes differ, {view_a.shape} vs {view_b.shape}")
    x = Tensor(np.concatenate([view_a, view_b]))
    z = model.projector(model.encoder(x))
    if method.name == "simclr":
        return nt_xent_loss(z, method.temperature)
    if method.name == "barlow_twins":
        return barlow_twins_loss(z, method.lambda_bt)
    p = model.predictor(z)
    if method.name == "simsiam":
        return simsiam_loss(p, z, stop_grad=method.stop_gradient)
    return simsiam_loss(p, model.ema_projector(model.ema_encoder(x)), stop_grad=False)


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
    equal the views ``build_views`` makes for the batch, stored in the dtype
    of the model's parameters (``augment`` computes in float64, and a float32
    model's views are its values rounded). A view that overflows that dtype
    is a NumericError. Batches smaller than
    2 at the tail of the epoch are dropped because the contrastive and
    redundancy objectives are undefined on them.
    """
    n, dtype = dataset.num_samples, model.encoder.layers[0].weight.data.dtype
    view_a, view_b = np.empty((n, dataset.feature_dim), dtype), np.empty((n, dataset.feature_dim), dtype)
    for start, stop in _row_blocks(n, _FORWARD_ROWS):
        with np.errstate(over="ignore"):  # rounding to float32 may overflow; the check below says so
            view_a[start:stop], view_b[start:stop] = build_views(dataset.features[start:stop],
                                                                 np.arange(start, stop), aug, run_seed, epoch)
        if not (np.isfinite(view_a[start:stop]).all() and np.isfinite(view_b[start:stop]).all()):
            raise NumericError(f"augment: a view overflows {dtype}")

    def loss_fn(idx: np.ndarray) -> Tensor:
        return method_loss(model, method, view_a[idx], view_b[idx])

    after_step = (lambda: ema_update(model, method.ema_momentum)) if method.name == "byol" else None
    return train_epoch(optimizer, lr, loss_fn, dataset.num_samples, batch_size, run_seed, "pretrain", epoch,
                       min_batch=2, after_step=after_step)
