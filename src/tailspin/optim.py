"""SGD and Adam steps, learning-rate scaling, the warmup + cosine schedule, and
the one minibatch training pass every stage runs."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractError, NumericError, ValidationError
from .seeding import rng_for
from .tensor import Tape, Tensor, flatten

OPTIMIZER_KINDS = ("sgd", "adam")
SCHEDULE_KINDS = ("cosine", "constant")
_NONFINITE_GRADIENT = "optimizer step: gradient (weight decay included) contains NaN or Inf, aborting run"


@dataclass
class OptimizerConfig:
    """Defaults are the pretraining SGD of ``run``; FinetuneSettings overrides them for fine-tuning."""

    kind: str = "sgd"
    base_lr: float = 0.12
    weight_decay: float = 5e-4
    momentum: float = 0.9
    batch_size: int = 64

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"optimizer kind must be one of {OPTIMIZER_KINDS}, got '{self.kind}'")
        if not 0.0 < self.base_lr < np.inf:
            raise ValidationError(f"base_lr must be positive and finite, got {self.base_lr}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ValidationError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class ScheduleConfig:
    kind: str = "cosine"
    warmup_epochs: int = 10
    total_epochs: int = 200

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(f"schedule kind must be one of {SCHEDULE_KINDS}, got '{self.kind}'")
        if self.total_epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.total_epochs}")
        if not 0 <= self.warmup_epochs < self.total_epochs:
            raise ValidationError(f"warmup_epochs must lie in [0, total_epochs) = [0, {self.total_epochs}), "
                                  f"got {self.warmup_epochs}")


def scaled_lr(base_lr: float, batch_size: int) -> float:
    """Linear scaling rule: base_lr * batch_size / 256."""
    if not (0.0 < base_lr < np.inf and batch_size > 0):
        raise ValidationError(f"scaled_lr needs a positive finite base_lr and a positive batch_size, "
                              f"got base_lr={base_lr}, batch_size={batch_size}")
    return base_lr * batch_size / 256.0


def lr_at(schedule: ScheduleConfig, epoch: int, effective_lr: float) -> float:
    """Linear warmup to effective_lr, then cosine decay toward zero."""
    if not 0 <= epoch < schedule.total_epochs:
        raise ContractError(f"epoch {epoch} outside [0, {schedule.total_epochs})")
    if schedule.warmup_epochs > 0 and epoch < schedule.warmup_epochs:
        return effective_lr * (epoch + 1) / schedule.warmup_epochs
    if schedule.kind == "constant":
        return effective_lr
    span = schedule.total_epochs - schedule.warmup_epochs
    progress = (epoch - schedule.warmup_epochs) / span
    # a Python float, which a float32 step keeps in float32 where a NumPy float64 would not
    return float(effective_lr * 0.5 * (1.0 + np.cos(np.pi * progress)))


class _Optimizer:
    """Parameters as views into one flat vector ``data``, in the parameters' dtype,
    which the optimizer's state and arithmetic share: float32 parameters are their
    own float32 master weights. Each step gathers the parameters' gradients into
    one vector, zeros where no gradient arrived, and is a few whole-vector
    operations. Weight decay is coupled (added to the gradient), and the
    gradient is checked finite before ``data`` or any state moves, so a step
    that raises leaves the optimizer as it was."""

    def __init__(self, params: list[Tensor], weight_decay: float):
        self.params = list(params)
        self.weight_decay = weight_decay
        self.data = flatten(self.params)
        self._gathered = np.empty_like(self.data)

    def _gradient(self) -> np.ndarray:
        g = np.concatenate([p._grad.ravel() if p._grad is not None else np.zeros(p.data.size, self.data.dtype)
                            for p in self.params], out=self._gathered)
        if self.weight_decay:
            with np.errstate(over="ignore"):  # an overflow fails the step's finiteness check
                g += self.weight_decay * self.data
        return g

    def zero_grad(self) -> None:
        for p in self.params:
            p._grad = None


class Sgd(_Optimizer):
    """v <- momentum * v + (g + wd * theta); theta <- theta - lr * v."""

    def __init__(self, params: list[Tensor], momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(params, weight_decay)
        self.momentum = momentum
        self.velocity = np.zeros_like(self.data)

    def step(self, lr: float) -> None:
        g = self._gradient()
        if not np.isfinite(g).all():
            raise NumericError(_NONFINITE_GRADIENT)
        self.velocity *= self.momentum
        self.velocity += g
        self.data -= lr * self.velocity


class Adam(_Optimizer):
    """Bias-corrected Adam with the usual betas and eps; weight decay is coupled
    (added to the gradient). Each step scans one vector for finiteness, the new
    second moment v: from a finite v it is finite exactly when g is finite and
    g * g does not overflow. Only a failed scan reads g, to say which it was. The
    new v is formed in a second buffer, and the two swap only once the scan
    passes; m, t and the parameters move after it too."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], weight_decay: float = 0.0):
        super().__init__(params, weight_decay)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self._v_next = np.empty_like(self.data)
        self.t = 0
        # as 0-d arrays of the parameters' dtype, since NumPy converts a Python-float
        # operand on every call, and a float64 array would promote float32 arithmetic
        self._factors = tuple(np.array(f, self.data.dtype)
                              for f in (self.beta1, 1.0 - self.beta1, self.beta2, 1.0 - self.beta2, self.eps))

    def step(self, lr: float) -> None:
        m, (b1, c1, b2, c2, eps) = self.m, self._factors
        g = self._gradient()
        with np.errstate(over="ignore"):  # an overflow is one of the NumericErrors, not a warning
            v = np.multiply(self.v, b2, out=self._v_next)
            v += c2 * g * g
        if not np.isfinite(v).all():  # v = inf would leave theta unmoved
            if not np.isfinite(g).all():
                raise NumericError(_NONFINITE_GRADIENT)
            raise NumericError(f"adam step: the squared gradient overflows {v.dtype}, aborting run")
        self.v, self._v_next = v, self.v
        self.t += 1
        m *= b1
        m += c1 * g
        self.data -= lr * (m / (1.0 - self.beta1 ** self.t)) / (np.sqrt(v / (1.0 - self.beta2 ** self.t)) + eps)


def make_optimizer(cfg: OptimizerConfig, params: list[Tensor]):
    if cfg.kind == "sgd":
        return Sgd(params, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    return Adam(params, weight_decay=cfg.weight_decay)


def train_epoch(
    optimizer,
    lr: float,
    loss_fn: Callable[[np.ndarray], Tensor],
    num_samples: int,
    batch_size: int,
    run_seed: int,
    stage: str,
    epoch: int,
    min_batch: int = 1,
    after_step: Callable[[], None] | None = None,
) -> float:
    """One pass in ("shuffle", stage, epoch) order: tape ``loss_fn(batch indices)``,
    backpropagate, step at ``lr``, zero the gradients; returns the mean loss.
    A batch under ``min_batch`` is skipped, and a dataset under it is a ContractError;
    ``after_step`` runs after each step.

    NumPy's floating-point warnings are off for the epoch: a value that
    overflows fails as the ``NumericError`` of the op or step that made it."""
    if num_samples < min_batch:
        raise ContractError(f"{stage}: {num_samples} samples cannot fill a batch of {min_batch}")
    order = rng_for(run_seed, "shuffle", stage, epoch).permutation(num_samples)
    losses = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, num_samples, batch_size):
            idx = order[start : start + batch_size]
            if idx.size < min_batch:
                continue
            with Tape() as tape:
                loss = loss_fn(idx)
                tape.backward(loss)
            optimizer.step(lr)
            optimizer.zero_grad()
            if after_step is not None:
                after_step()
            losses.append(loss.item())
    return float(np.mean(losses))
