"""MLP building blocks and the Siamese model container of one SSL method."""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ValidationError
from .seeding import rng_for
from .tensor import Tensor, flatten, mlp


class Layer(NamedTuple):
    """One fully-connected layer's parameters, for x @ W + b."""
    weight: Tensor
    bias: Tensor


class Mlp:
    """Stack of layers with ReLU between them (none after the last), applied as
    one tape record with one product per layer over all the rows it is given
    (see ``tensor.mlp``). Its widths are its weights' shapes."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers

    @classmethod
    def init(cls, dims: list[int], rng: np.random.Generator) -> "Mlp":
        """He-normal weights and zero biases, drawn layer by layer."""
        if len(dims) < 2:
            raise ConfigError(f"mlp needs at least two dims, got {dims}")
        if min(dims) < 1:
            raise ValidationError(f"mlp widths must be >= 1, got {dims}")
        return cls([
            Layer(Tensor(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)), requires_grad=True),
                  Tensor(np.zeros(fan_out), requires_grad=True))
            for fan_in, fan_out in zip(dims[:-1], dims[1:])
        ])

    def __call__(self, x: Tensor) -> Tensor:
        return mlp(x, self.parameters())

    def parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer]

    def copy(self, requires_grad: bool = True) -> "Mlp":
        return Mlp([Layer(*(Tensor(p.data.copy(), requires_grad=requires_grad) for p in layer))
                    for layer in self.layers])

    @property
    def dims(self) -> list[int]:
        return [self.layers[0].weight.shape[0]] + [l.weight.shape[1] for l in self.layers]


SSL_METHODS = ("simsiam", "simclr", "byol", "barlow_twins")
NETWORKS = ("encoder", "projector", "predictor", "ema_encoder", "ema_projector")


@dataclass
class Model:
    """The networks of ``method``, exactly those ``build_model`` makes: encoder and
    projector, a predictor for SimSiam and BYOL, and an EMA target for BYOL only.
    A method outside ``SSL_METHODS``, or a missing or extra network, is a ValidationError."""

    method: str
    encoder: Mlp
    projector: Mlp
    predictor: Mlp | None = None
    ema_encoder: Mlp | None = None
    ema_projector: Mlp | None = None

    def __post_init__(self):
        if self.method not in SSL_METHODS:
            raise ValidationError(f"unknown SSL method {self.method!r}, expected one of {SSL_METHODS}")
        needs = NETWORKS[:{"simsiam": 3, "byol": 5}.get(self.method, 2)]  # the first 2, 3 or 5 of NETWORKS
        if (has := tuple(name for name in NETWORKS if getattr(self, name) is not None)) != needs:
            raise ValidationError(f"a {self.method} model has the networks {needs}, got {has}")

    def trainable_parameters(self) -> list[Tensor]:
        params = self.encoder.parameters() + self.projector.parameters()
        if self.predictor is not None:
            params += self.predictor.parameters()
        return params


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
    predictor = Mlp.init([proj_dim, pred_hidden, proj_dim], rng) if method in ("simsiam", "byol") else None
    ema = (encoder.copy(requires_grad=False), projector.copy(requires_grad=False)) if method == "byol" else ()
    return Model(method, encoder, projector, predictor, *ema)


def ema_update(model: Model, momentum: float) -> None:
    """Move every EMA target parameter toward the online one: xi <- m*xi + (1-m)*theta,
    over the flat vectors of both networks (the online one is usually a run of
    the optimizer's vector)."""
    if model.ema_encoder is None:
        raise ConfigError("ema_update: model has no EMA target")
    if not 0.0 <= momentum <= 1.0:
        raise ConfigError(f"ema momentum must be in [0, 1], got {momentum}")
    xi = flatten(model.ema_encoder.parameters() + model.ema_projector.parameters())
    theta = flatten(model.encoder.parameters() + model.projector.parameters())
    xi *= momentum
    xi += (1.0 - momentum) * theta
