"""MLP building blocks and the Siamese model container."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ValidationError
from .seeding import rng_for
from .tensor import Tensor, flatten, mlp


class Linear:
    """Fully-connected layer's parameters, for x @ W + b; He-normal weight init.
    ``Mlp`` applies its layers."""

    def __init__(self, weight: Tensor, bias: Tensor):
        self.weight = weight
        self.bias = bias

    @classmethod
    def init(cls, fan_in: int, fan_out: int, rng: np.random.Generator) -> "Linear":
        scale = np.sqrt(2.0 / fan_in)
        w = Tensor(rng.normal(0.0, scale, size=(fan_in, fan_out)), requires_grad=True)
        b = Tensor(np.zeros(fan_out), requires_grad=True)
        return cls(w, b)

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def copy(self, requires_grad: bool) -> "Linear":
        return Linear(
            Tensor(self.weight.data.copy(), requires_grad=requires_grad),
            Tensor(self.bias.data.copy(), requires_grad=requires_grad),
        )


class Mlp:
    """Stack of Linear layers with ReLU between them (none after the last),
    applied as one tape record with one product per layer over all the rows
    it is given (see ``tensor.mlp``)."""

    def __init__(self, layers: list[Linear]):
        self.layers = layers

    @classmethod
    def init(cls, dims: list[int], rng: np.random.Generator) -> "Mlp":
        if len(dims) < 2:
            raise ConfigError(f"mlp needs at least two dims, got {dims}")
        if min(dims) < 1:
            raise ValidationError(f"mlp widths must be >= 1, got {dims}")
        return cls([Linear.init(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)])

    def __call__(self, x: Tensor) -> Tensor:
        return mlp(x, self.parameters())

    def parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.parameters()]

    def copy(self, requires_grad: bool = True) -> "Mlp":
        return Mlp([layer.copy(requires_grad) for layer in self.layers])

    @property
    def dims(self) -> list[int]:
        return [self.layers[0].weight.shape[0]] + [l.weight.shape[1] for l in self.layers]


SSL_METHODS = ("simsiam", "simclr", "byol", "barlow_twins")


@dataclass
class Model:
    """Encoder + projector, plus predictor and EMA target where the method needs them."""

    encoder: Mlp
    projector: Mlp
    predictor: Mlp | None = None
    ema_encoder: Mlp | None = None
    ema_projector: Mlp | None = None
    arch: dict = field(default_factory=dict)

    def trainable_parameters(self) -> list[Tensor]:
        params = self.encoder.parameters() + self.projector.parameters()
        if self.predictor is not None:
            params += self.predictor.parameters()
        return params

    def has_ema(self) -> bool:
        return self.ema_encoder is not None


def build_model(
    method: str,
    input_dim: int,
    hidden_dim: int = 64,
    rep_dim: int = 32,
    proj_dim: int = 32,
    pred_hidden: int = 16,
    seed: int = 0,
) -> Model:
    """Desk-scale Siamese MLP: encoder [d, hidden, rep], 2-layer projector, optional predictor."""
    if method not in SSL_METHODS:
        raise ConfigError(f"unknown SSL method '{method}', expected one of {SSL_METHODS}")
    rng = rng_for(seed, "init", method)
    encoder = Mlp.init([input_dim, hidden_dim, rep_dim], rng)
    projector = Mlp.init([rep_dim, proj_dim, proj_dim], rng)
    predictor = None
    if method in ("simsiam", "byol"):
        predictor = Mlp.init([proj_dim, pred_hidden, proj_dim], rng)
    model = Model(
        encoder,
        projector,
        predictor,
        arch={
            "method": method,
            "input_dim": input_dim,
            "hidden_dim": hidden_dim,
            "rep_dim": rep_dim,
            "proj_dim": proj_dim,
            "pred_hidden": pred_hidden,
        },
    )
    if method == "byol":
        model.ema_encoder = encoder.copy(requires_grad=False)
        model.ema_projector = projector.copy(requires_grad=False)
    return model


def ema_update(model: Model, momentum: float) -> None:
    """Move every EMA target parameter toward the online one: xi <- m*xi + (1-m)*theta,
    over the flat vectors of both networks (the online one is usually a run of
    the optimizer's vector)."""
    if not model.has_ema():
        raise ConfigError("ema_update: model has no EMA target")
    if not 0.0 <= momentum <= 1.0:
        raise ConfigError(f"ema momentum must be in [0, 1], got {momentum}")
    xi = flatten(model.ema_encoder.parameters() + model.ema_projector.parameters())
    theta = flatten(model.encoder.parameters() + model.projector.parameters())
    xi *= momentum
    xi += (1.0 - momentum) * theta
