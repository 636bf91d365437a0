"""The fine-tuning loss: cross-entropy or logit-adjusted cross-entropy, optionally
wrapped in SuperLoss, as one tape record.

The SuperLoss confidence sigma* has a closed form through the principal
branch of the Lambert W function; sigma* is treated as a detached constant
during backpropagation, so the gradient of the wrapped loss with respect to
the base loss equals sigma*.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractError, NumericError, ShapeError, ValidationError
from .tensor import Tensor, _as_tensor, _op, _softmax_nll

_BRANCH_POINT = -np.exp(-1.0)  # smallest argument of W0
# operands as 0-d arrays: NumPy converts a Python float on every call, half an op's cost on 64 rows
_0, _1, _2, _3, _E, _2_3, _11_72, _HALF, _2_E, _MINUS_2_E = (np.array(v) for v in (
    0.0, 1.0, 2.0, 3.0, np.e, 2.0 / 3.0, 11.0 / 72.0, 0.5, 2.0 / np.e, -2.0 / np.e))

CLAMP_MODES = ("lower_bound", "as_written")
LOSS_KINDS = ("ce", "ce_sl", "la", "la_sl")
# 2**-32 of the float64 range: the bound on SuperLoss's per-sample terms for a base loss of 1
_LOSS_LIMIT = float(np.finfo(np.float64).max) / 2.0**32


def lambert_w0(x):
    """Principal branch of the Lambert W function, w * exp(w) = x, w >= -1.

    Accepts a scalar or array with x >= -1/e (values within 1e-12 below the
    branch point are clamped onto it). A fixed sequence with no loop and no
    convergence test: Winitzki's guess log(1+x) * (1 - log(1+log(1+x)) / (2+log(1+x))),
    the branch-point series where x < -0.25 (kept only there, and formed only
    when some element needs it), then two Fritsch-Shafer-Crowley steps
    (CACM 1973, Algorithm 443). w = x exactly where x = 0 (so -0.0 stays -0.0)
    and w = -1 at the branch point. Residual |w*exp(w) - x| <= 1e-12 * max(1, |x|).
    Checks, on every call, that x is finite and not below -1/e, from the two
    reductions that also pick the branches; SuperLoss's arguments pass always.
    """
    z = np.asarray(x, dtype=np.float64)
    scalar = z.ndim == 0
    z = z.reshape(1) if scalar else z
    if z.size == 0:
        return z.copy()
    lo, hi = z.min(), z.max()  # NaN propagates into both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError("lambert_w0: argument must be finite")
    if lo < _BRANCH_POINT - 1e-12:
        raise ValidationError(f"lambert_w0: argument below -1/e (min was {lo!r})")
    at_branch = lo <= _BRANCH_POINT
    if at_branch:
        z = np.maximum(z, _BRANCH_POINT)

    w = np.log1p(z)
    w *= _1 - np.log1p(w) / (_2 + w)
    # the series overflows at large x, where it is not kept; x = 0 and the branch point divide by 0, set below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if lo < -0.25:
            p = np.sqrt(np.maximum(_2 * (_E * z + _1), _0))
            np.copyto(w, p - _1 - p * p / _3 + _11_72 * p ** _3, where=z < -0.25)
        w = _fsc_step(z, _fsc_step(z, w))

    if lo <= 0.0 <= hi:
        np.copyto(w, z, where=z == 0.0)
    if at_branch:
        w[z == _BRANCH_POINT] = -1.0
    return float(w[0]) if scalar else w


def _fsc_step(z, w):
    """One Fritsch-Shafer-Crowley step towards W0(z) from w: fourth-order, so
    two steps from a guess within a few percent reach full precision."""
    wp1 = _1 + w
    t = np.log(z / w) - w
    q = (wp1 + wp1) * (wp1 + _2_3 * t)  # 2 (1 + w) (1 + w + 2t/3), as 2w and 2t below exactly
    return w * (_1 + t / wp1 * (q - t) / (q - (t + t)))


@dataclass
class Priors:
    """Observed class distribution pi over C classes, and log pi, logit adjustment's shift."""

    pi: np.ndarray
    log_pi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=np.float64)
        if self.pi.ndim != 1 or self.pi.size < 2:
            raise ValidationError(f"priors must be a vector over >= 2 classes, got shape {self.pi.shape}")
        if not np.all(self.pi > 0.0):
            raise ValidationError("priors must be strictly positive")
        if not abs(self.pi.sum() - 1.0) <= 1e-12:
            raise ValidationError(f"priors must sum to 1, got {self.pi.sum()!r}")
        self.log_pi = np.log(self.pi)

    @property
    def num_classes(self) -> int:
        return self.pi.size


@dataclass
class SuperLossParams:
    """Threshold tau (expected average-sample loss; None means log(C), the loss of a
    uniform prediction, which ``resolved`` fills in) and regularization lambda."""

    tau: float | None = None
    lam: float = 4.0
    clamp_mode: str = "lower_bound"

    def __post_init__(self):
        if not 0.0 < self.lam < np.inf:
            raise ValidationError(f"superloss lambda must be positive and finite, got {self.lam}")
        if self.clamp_mode not in CLAMP_MODES:
            raise ValidationError(f"clamp_mode must be one of {CLAMP_MODES}, got '{self.clamp_mode}'")
        # |l - tau| / lambda and |l - tau| * sigma* (sigma* <= e) stay below (1 + l) * _LOSS_LIMIT,
        # room for large base losses l and for sums over batches; a bound on |tau| cannot overflow
        tau = 0.0 if self.tau is None else self.tau
        if not abs(tau) + 1.0 <= _LOSS_LIMIT * min(self.lam, 1.0 / np.e):
            raise ValidationError(
                f"superloss tau={self.tau} with lambda={self.lam} overflows (l - tau) / lambda or "
                f"(l - tau) * sigma*: need a finite |tau| + 1 <= {_LOSS_LIMIT:.3g} * min(lambda, 1/e)"
            )

    def resolved(self, num_classes: int) -> "SuperLossParams":
        """These settings with tau None replaced by log(num_classes)."""
        return self if self.tau is not None else replace(self, tau=float(np.log(num_classes)))


@dataclass
class ConfidenceReport:
    """Per-sample base losses, SuperLoss confidences sigma* and wrapped losses."""

    base_losses: np.ndarray
    sigma: np.ndarray
    per_sample: np.ndarray


def superloss_sigma(base_loss, params: SuperLossParams):
    """Closed-form confidence sigma* = exp(-W(0.5 * clamp((l - tau) / lambda))).

    lower_bound mode clamps the ratio at -2/e so W stays in its domain and
    sigma* ranges over (0, e]; as_written mode clamps at +2/e, reproducing the
    printed formula, which caps sigma* near 0.757 and never exceeds it.
    Checks that tau is resolved and the base losses finite on every call, also on the
    cross-entropy that ``batch_loss`` has just checked: this is its one way to sigma*.
    """
    if params.tau is None:
        raise ContractError("superloss_sigma: tau is unresolved; batch_loss sets it to log(C)")
    ell = np.asarray(base_loss, dtype=np.float64)
    if not np.isfinite(ell).all():
        raise ValidationError("superloss_sigma: base loss must be finite")
    clamped = np.maximum((ell - params.tau) / params.lam, _MINUS_2_E if params.clamp_mode == "lower_bound" else _2_E)
    clamped *= _HALF
    return np.exp(-lambert_w0(clamped))


def _wrap(ell: np.ndarray, params: SuperLossParams):
    """SuperLoss's sigma* of base losses ell and its terms (l - tau) * sigma* + lambda * log(sigma*)^2."""
    sigma = superloss_sigma(ell, params)
    log_sigma = np.log(sigma)
    return sigma, (ell - params.tau) * sigma + params.lam * log_sigma * log_sigma


def batch_loss(kind: str, logits: Tensor, labels, priors: Priors, params: SuperLossParams) -> tuple[Tensor, ConfidenceReport | None]:
    """The configured fine-tuning loss as one tape record; returns (scalar mean
    loss, report for the ``*_sl`` kinds or None).

    Per sample, the softmax cross-entropy -log softmax(s)[y] of s = logits, or
    for the ``la*`` kinds of s = logits + log(pi) (logit adjustment). Then its
    batch mean, or for the ``*_sl`` kinds the mean of its SuperLoss wrap, whose
    threshold defaults to log(C). sigma* enters the wrap as a constant
    (envelope theorem), so d(loss)/d(l) = sigma*.

    Value and gradient equal, bit for bit, the chain of single ops: the shift's
    add, log_sum_exp, gather_rows and sub, then sum times 1/n, or SuperLoss's
    sub, mul and add and their mean. The record's vjp is the NLL's, softmax * u
    less u at each label, on the per-sample gradient u that chain passes the
    NLL: broadcast(g / n) for the mean and (g / n) * sigma* for SuperLoss.
    Checks, per call and on this batch only: the kind, the shapes, integer labels
    in [0, C) (a bool would index as a mask), a finite cross-entropy, for ``*_sl``
    the checks of ``superloss_sigma`` and ``lambert_w0``, and a finite loss.
    """
    if kind not in LOSS_KINDS:
        raise ValidationError(f"unknown loss kind '{kind}', expected one of {LOSS_KINDS}")
    logits = _as_tensor(logits)
    s, idx, c = logits.data, np.asarray(labels), priors.pi.size
    if s.ndim != 2 or s.shape[1] != c or idx.shape != (s.shape[0],):
        raise ShapeError(f"batch_loss: logits {s.shape} vs labels {idx.shape} and {c} priors")
    if idx.dtype.kind not in "iu":
        raise ValidationError(f"batch_loss: labels must be integers, got dtype {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= c):
        raise ValidationError(f"batch_loss: label out of range for {c} classes")
    # log(pi) lies in [-745, 0], so it moves no finite logit out of range; a finite s
    # gives a finite log-sum-exp, but its difference with s[y] may overflow
    nll, nll_vjp = _softmax_nll(s + priors.log_pi if kind.startswith("la") else s, idx)
    if not np.isfinite(nll).all():
        raise NumericError("batch_loss: the cross-entropy is non-finite")
    inv_n = 1.0 / nll.size
    if not kind.endswith("_sl"):
        return _op("batch_loss", nll.sum() * inv_n,
                   lambda g: [(logits, nll_vjp(np.full(nll.shape, g * inv_n)))], logits), None
    sigma, per_sample = _wrap(nll, params.resolved(c))
    loss = _op("batch_loss", per_sample.sum() * inv_n, lambda g: [(logits, nll_vjp(g * inv_n * sigma))], logits)
    return loss, ConfidenceReport(base_losses=nll, sigma=sigma.copy(), per_sample=per_sample)  # the vjp keeps sigma
