"""Finite-difference verification battery for every fine-tuning loss kind and
SSL method, computed through the same ``batch_loss``/``method_loss`` that
training calls. Used by the `gradcheck` CLI subcommand and the test suite."""
from __future__ import annotations

import numpy as np

from .losses import LOSS_KINDS, Priors, SuperLossParams, batch_loss
from .nn import SSL_METHODS, build_model
from .seeding import rng_for
from .ssl import SSLMethod, method_loss
from .tensor import Tensor, finite_diff_check

TOLERANCE = 1e-4


def _random_priors(rng, c: int) -> Priors:
    raw = rng.uniform(0.2, 2.0, size=c)
    return Priors(raw / raw.sum())


def _loss_case(name: str, rng, batch: int = 5, classes: int = 4) -> float:
    logits = Tensor(rng.uniform(-2.0, 2.0, size=(batch, classes)), requires_grad=True)
    labels = rng.integers(0, classes, size=batch)
    priors = _random_priors(rng, classes)
    return finite_diff_check(lambda: batch_loss(name, logits, labels, priors, SuperLossParams())[0], [logits])


def _conditioned(name: str, model, view_a: Tensor, view_b: Tensor) -> bool:
    """Reject draws where finite differences are meaningless: any ReLU
    preactivation within 1e-3 of its kink (a perturbed forward pass would
    cross a non-differentiable point), a Barlow column with (near-)zero
    variance, or a cosine input with (near-)zero norm. Each view passes once
    through the model's encoder, projector and predictor; BYOL's target
    branch is a copy of the online one when ``_ssl_case`` builds the model,
    so the projector outputs stand for the target's."""
    margin = np.inf
    outputs = []  # every projector and predictor output
    for view in (view_a, view_b):
        h = view.data
        for mlp in (model.encoder, model.projector, model.predictor):
            if mlp is None:
                continue
            for i, (weight, bias) in enumerate(mlp.layers):
                h = h @ weight.data + bias.data
                if i < len(mlp.layers) - 1:
                    margin = min(margin, float(np.min(np.abs(h))))
                    h = np.maximum(h, 0.0)
            if mlp is not model.encoder:
                outputs.append(h)
    if margin <= 1e-3:
        return False
    if name == "barlow_twins":
        return min(z.std(axis=0).min() for z in outputs) > 0.05
    return min(np.linalg.norm(z, axis=1).min() for z in outputs) > 0.05


def _ssl_case(name: str, rng, batch: int = 5, dim: int = 4) -> float:
    for _ in range(100):
        model = build_model(name, input_dim=dim, hidden_dim=6, rep_dim=4, proj_dim=4, pred_hidden=6,
                            seed=int(rng.integers(0, 2**63 - 1)))
        view_a = Tensor(rng.uniform(-2.0, 2.0, size=(batch, dim)))
        view_b = Tensor(rng.uniform(-2.0, 2.0, size=(batch, dim)))
        if _conditioned(name, model, view_a, view_b):
            break
    # SimSiam's stop-gradient update is a semi-gradient, the derivative of no
    # function, so its row turns stop-gradient off and checks the full graph's
    # true derivative instead; no other method has the switch
    method = SSLMethod(name, stop_gradient=name != "simsiam")
    return finite_diff_check(lambda: method_loss(model, method, view_a.data, view_b.data), model.trainable_parameters())


def battery(instances: int = 5, seed: int = 0) -> list[tuple[str, float]]:
    """Max relative gradient error per loss kind, then per SSL method, over random instances."""
    results = []
    for name in LOSS_KINDS + SSL_METHODS:
        case = _loss_case if name in LOSS_KINDS else _ssl_case
        rng = rng_for(seed, "gradcheck", name)
        results.append((name, max(case(name, rng) for _ in range(instances))))
    return results
