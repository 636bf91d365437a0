"""Independent oracles and helpers used by the test suite.

Each oracle recomputes an expected value by a different route than the
library (Newton instead of Halley, golden-section instead of closed form,
explicit softmax instead of log-sum-exp, python loops instead of matrix
algebra, Python integers instead of uint64 arrays) so agreement is
meaningful. A few keep a library function's former body verbatim, as the
reference its replacement must match bit for bit. The helpers compare
parameters and read metrics lines back.
"""
import hashlib
import json
import math

import numpy as np

from tailspin.errors import ContractError, NumericError, ValidationError
from tailspin.evaluation import MetricsRecord
from tailspin.losses import _BRANCH_POINT, superloss_sigma
from tailspin.nn import NETWORKS
from tailspin.tensor import (
    Tensor,
    _op,
    add,
    cast,
    concat_rows,
    gather_rows,
    l2_normalize,
    log_sum_exp,
    matmul,
    mul,
    power,
    relu,
    sub,
    tensor_sum,
    transpose,
)


def in_dtype(model, dtype):
    """``model`` with every network's parameters rounded to ``dtype`` in place, as
    ``pipeline.pretrain`` casts them for its float32 stage."""
    cast([p for name in NETWORKS if (net := getattr(model, name)) is not None for p in net.parameters()], dtype)
    return model


def params_digest(params) -> str:
    """SHA-256 over the concatenated raw bytes of all parameter arrays."""
    h = hashlib.sha256()
    for p in params:
        h.update(p.data.tobytes())
    return h.hexdigest()


def record_from_json_line(line: str) -> MetricsRecord:
    """The MetricsRecord that ``MetricsRecord.to_json_line`` wrote as ``line``."""
    return MetricsRecord(**json.loads(line))


def newton_lambert(x: float, iters: int = 200) -> float:
    """Solve w * exp(w) = x by plain Newton iteration."""
    w = 0.0 if x < np.e else np.log(x)
    for _ in range(iters):
        ew = np.exp(w)
        f = w * ew - x
        step = f / (ew * (w + 1.0))
        w -= step
        if abs(step) < 1e-16 * (1.0 + abs(w)):
            break
    return w


def golden_section_sigma(ell: float, tau: float, lam: float, lo: float = 1e-9, hi: float = np.e, iters: int = 220) -> float:
    """Minimize (ell - tau) * s + lam * log(s)^2 over s in (0, e] by golden section.

    The objective's derivative is strictly increasing on (0, e], so it is
    unimodal there and the boundary e is the minimizer exactly when the
    closed form hits its clamp.
    """
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0

    def f(s):
        return (ell - tau) * s + lam * np.log(s) ** 2

    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    mid = (a + b) / 2.0
    # the boundary can be the minimum; report whichever candidate wins
    return hi if f(hi) <= f(mid) else mid


def explicit_softmax_nll(logits: np.ndarray, labels: np.ndarray, log_prior: np.ndarray | None = None) -> np.ndarray:
    """Per-sample -log softmax probability, via literal exponentials."""
    z = np.asarray(logits, dtype=np.float64).copy()
    if log_prior is not None:
        z = z + log_prior
    out = np.empty(len(labels))
    for i, y in enumerate(labels):
        probs = np.exp(z[i]) / np.sum(np.exp(z[i]))
        out[i] = -np.log(probs[y])
    return out


def ntxent_enumerate(z_a: np.ndarray, z_b: np.ndarray, temperature: float) -> float:
    """NT-Xent by explicit loops over anchors, positives, and negatives."""
    z = np.concatenate([z_a, z_b], axis=0).astype(np.float64)
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    n = len(z)
    b = len(z_a)
    total = 0.0
    for i in range(n):
        pos = i + b if i < b else i - b
        num = np.exp(np.dot(z[i], z[pos]) / temperature)
        den = sum(np.exp(np.dot(z[i], z[k]) / temperature) for k in range(n) if k != i)
        total += -np.log(num / den)
    return total / n


def barlow_direct(z_a: np.ndarray, z_b: np.ndarray, lam: float, eps: float = 1e-9) -> float:
    """Barlow Twins loss via elementwise loops on the standardized views."""
    def std_cols(z):
        z = np.asarray(z, dtype=np.float64)
        mu = z.mean(axis=0)
        var = ((z - mu) ** 2).mean(axis=0)
        return (z - mu) / np.sqrt(var + eps)

    za, zb = std_cols(z_a), std_cols(z_b)
    b, d = za.shape
    total = 0.0
    for i in range(d):
        for j in range(d):
            c_ij = sum(za[k, i] * zb[k, j] for k in range(b)) / b
            if i == j:
                total += (1.0 - c_ij) ** 2
            else:
                total += lam * c_ij ** 2
    return total


def brute_knn(
    ref_emb: np.ndarray,
    ref_labels: np.ndarray,
    qry_emb: np.ndarray,
    k: int,
    num_classes: int,
    metric: str = "cosine",
    weighting: str = "similarity",
) -> np.ndarray:
    """Exhaustive O(N^2) distance-sort kNN with the same weighting definitions
    as the library: (1 + cosine) and 1 / (dist + 1e-12)."""
    ref = np.asarray(ref_emb, dtype=np.float64)
    qry = np.asarray(qry_emb, dtype=np.float64)
    preds = np.empty(len(qry), dtype=np.int64)
    for qi in range(len(qry)):
        if metric == "cosine":
            u = qry[qi]
            nu = np.linalg.norm(u)
            uhat = np.zeros_like(u) if nu < 1e-12 else u / nu
            nv = np.linalg.norm(ref, axis=1)
            vhat = np.where(nv[:, None] < 1e-12, 0.0, ref / np.where(nv[:, None] < 1e-12, 1.0, nv[:, None]))
            sims = vhat @ uhat
            scored = [(-float(s), ri, 1.0 + float(s)) for ri, s in enumerate(sims)]
        else:
            dists = np.linalg.norm(ref - qry[qi], axis=1)
            scored = [(float(d), ri, 1.0 / (float(d) + 1e-12)) for ri, d in enumerate(dists)]
        scored.sort(key=lambda t: t[0])  # python sort is stable
        votes = np.zeros(num_classes)
        for _, ri, w in scored[:k]:
            votes[ref_labels[ri]] += w if weighting == "similarity" else 1.0
        preds[qi] = int(np.argmax(votes))
    return preds


def full_matrix_knn(reference, queries, cfg) -> np.ndarray:
    """``knn_classify`` as it was before query blocks: the whole Q x R score
    matrix, a full stable argsort, then the first k columns. The block path
    must give the same predictions bit for bit."""
    cfg.check_reference(reference.num_samples)
    ref = reference.features.astype(np.float64)
    qry = queries.features.astype(np.float64)

    if cfg.metric == "cosine":
        ref_n = _unit_rows(ref)
        qry_n = _unit_rows(qry)
        sims = qry_n @ ref_n.T
        order = np.argsort(-sims, axis=1, kind="stable")[:, : cfg.k]
        strengths = np.take_along_axis(sims, order, axis=1)
        weights = 1.0 + strengths
    else:
        d2 = (
            np.sum(qry * qry, axis=1, keepdims=True)
            - 2.0 * qry @ ref.T
            + np.sum(ref * ref, axis=1)
        )
        dists = np.sqrt(np.maximum(d2, 0.0))
        order = np.argsort(dists, axis=1, kind="stable")[:, : cfg.k]
        weights = 1.0 / (np.take_along_axis(dists, order, axis=1) + 1e-12)

    if cfg.weighting == "uniform":
        weights = np.ones_like(weights)

    neighbor_labels = reference.labels_true[order]
    votes = np.zeros((queries.num_samples, reference.num_classes))
    for c in range(reference.num_classes):
        votes[:, c] = np.sum(weights * (neighbor_labels == c), axis=1)
    return np.argmax(votes, axis=1).astype(np.int64)  # argmax takes the smallest index on ties


def per_class_loop(predictions: np.ndarray, labels_true: np.ndarray, num_classes: int):
    """``accuracy_suite``'s former per-class loop: (per_class, confusion) one true
    class at a time, the reference its single ``np.bincount`` must match bit for bit."""
    per_class = np.full(num_classes, np.nan)
    confusion = np.zeros((num_classes, num_classes))
    for c in range(num_classes):
        members = labels_true == c
        count = int(members.sum())
        if count == 0:
            continue
        per_class[c] = float(np.mean(predictions[members] == c))
        confusion[c] = np.bincount(predictions[members], minlength=num_classes) / count
    return per_class, confusion


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return np.where(norms < 1e-12, 0.0, x / np.where(norms < 1e-12, 1.0, norms))


# ``gradcheck``'s draw conditioning as it was before one pass per view took its
# place: a margin walk per network and a table of cosine inputs per method,
# with BYOL's target rows from a separate EMA forward. The new conditioning
# must accept and reject exactly the same draws.

def _relu_margin(mlp, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest |preactivation| feeding a ReLU, plus the MLP output."""
    margin = np.inf
    h = x
    for i, layer in enumerate(mlp.layers):
        pre = h @ layer.weight.data + layer.bias.data
        if i < len(mlp.layers) - 1:
            margin = min(margin, float(np.min(np.abs(pre))))
            h = np.maximum(pre, 0.0)
        else:
            h = pre
    return margin, h


def _conditioned(name: str, model, view_a: Tensor, view_b: Tensor) -> bool:
    """Reject draws where finite differences are meaningless: a cosine input
    with (near-)zero norm, a Barlow column with (near-)zero variance, or any
    ReLU preactivation within 1e-3 of its kink (a perturbed forward pass
    would cross a non-differentiable point)."""
    margins = []
    z = {}
    p = {}
    for tag, view in (("a", view_a), ("b", view_b)):
        enc_margin, enc_out = _relu_margin(model.encoder, view.data)
        proj_margin, proj_out = _relu_margin(model.projector, enc_out)
        margins += [enc_margin, proj_margin]
        z[tag] = proj_out
        if name in ("simsiam", "byol"):
            pred_margin, pred_out = _relu_margin(model.predictor, proj_out)
            margins.append(pred_margin)
            p[tag] = pred_out
    if min(margins) <= 1e-3:
        return False
    if name == "barlow_twins":
        return min(z["a"].std(axis=0).min(), z["b"].std(axis=0).min()) > 0.05
    if name == "simclr":
        rows = [z["a"], z["b"]]
    elif name == "simsiam":
        rows = [z["a"], z["b"], p["a"], p["b"]]
    else:  # byol
        rows = [
            p["a"],
            p["b"],
            model.ema_projector(model.ema_encoder(view_a)).data,
            model.ema_projector(model.ema_encoder(view_b)).data,
        ]
    return min(np.linalg.norm(r, axis=1).min() for r in rows) > 0.05


_M64 = (1 << 64) - 1


def splitmix64_int(x: int) -> int:
    """splitmix64 as the README writes it, on Python integers reduced mod 2^64."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def reference_view_seed(run_seed: int, epoch: int, sample_index: int, view_index: int) -> int:
    """The README's ("augment", epoch, sample_index, view_index) chain, one part at a time."""
    label = 0xCBF29CE484222325
    for byte in b"augment":  # FNV-1a 64
        label = ((label ^ byte) * 0x100000001B3) & _M64
    state = splitmix64_int(run_seed & _M64)
    for part in (label, epoch, sample_index, view_index):
        state = splitmix64_int(state ^ (part & _M64))
    return state


def reference_augment(row, gaussian_sigma: float, mask_prob: float, scale_jitter: float, seed: int) -> list[float]:
    """One augmented view of one row, following the README's slot layout with
    Python floats: slot 0 scales, slots 1..h and h+1..2h are the Box-Muller
    radii and angles (cosines fill coordinates 0..h-1, sines h..d-1), and the
    last d slots mask."""
    d = len(row)
    h = (d + 1) // 2
    u = [(splitmix64_int(seed ^ k) >> 11) * 2.0 ** -53 for k in range(1 + 2 * h + d)]
    lo, hi = 1.0 - scale_jitter, 1.0 + scale_jitter
    scale = lo + (hi - lo) * u[0]
    radius = [math.sqrt(-2.0 * math.log(1.0 - u[1 + k])) for k in range(h)]
    angle = [2.0 * math.pi * u[1 + h + k] for k in range(h)]
    normals = [r * math.cos(t) for r, t in zip(radius, angle)] + [r * math.sin(t) for r, t in zip(radius, angle)]
    out = []
    for i, x in enumerate(row):
        y = float(x) * scale + gaussian_sigma * normals[i]
        out.append(0.0 if u[1 + 2 * h + i] < mask_prob else y)
    return out


# The tape's chains as they were before one record per layer and per loss
# term: each step its own op and record. The fused ops must give the same
# values and the same gradient in every leaf, bit for bit.

def unfused_linear(x, weight, bias, use_relu: bool = False):
    out = add(matmul(x, weight), bias)
    return relu(out) if use_relu else out


def unfused_mlp(mlp, x):
    last = len(mlp.layers) - 1
    for i, layer in enumerate(mlp.layers):
        x = unfused_linear(x, layer.weight, layer.bias, i < last)
    return x


def constant(value, like):
    """``value`` as a tensor of ``like``'s dtype, as a fused op's Python-float operand
    acts: a float64 constant would promote a float32 chain."""
    return Tensor(np.asarray(value, like.data.dtype))


def unfused_mean(a, axis=None, keepdims=False):
    n = a.size if axis is None else a.shape[axis]
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), constant(1.0 / n, a))


def logit_adjust(logits, priors):
    """The former ``losses.logit_adjust``: log(pi_y) added to column y of every row."""
    return add(logits, Tensor(np.log(priors.pi)))


def unfused_nll(logits, labels, shift=None):
    """The constant shift added as ``logit_adjust`` did, log_sum_exp, gather_rows, sub."""
    adjusted = logits if shift is None else add(logits, Tensor(shift))
    return sub(log_sum_exp(adjusted, axis=-1), gather_rows(adjusted, np.asarray(labels)))


def unfused_superloss(base, params):
    """SuperLoss's sub/mul/add chain and its batch mean: (per-sample values, loss)."""
    sigma = np.atleast_1d(superloss_sigma(base.data, params))
    log_sigma = np.log(sigma)
    sigma_t = Tensor(sigma.reshape(base.shape))
    reg = Tensor((params.lam * log_sigma * log_sigma).reshape(base.shape))
    per_sample = add(mul(sub(base, Tensor(params.tau)), sigma_t), reg)
    return per_sample.data, unfused_mean(per_sample)


def unfused_batch_loss(kind, logits, labels, priors, params):
    """``losses.batch_loss`` over the unfused chains; tau must be resolved for the ``*_sl`` kinds."""
    base = unfused_nll(logits, labels, np.log(priors.pi) if kind.startswith("la") else None)
    return unfused_superloss(base, params)[1] if kind.endswith("_sl") else unfused_mean(base)


def unfused_nt_xent(z_a, z_b, temperature):
    """``ssl.nt_xent_loss`` as two views with its concat, normalize, transpose, matmul,
    scale, masked add, log_sum_exp, gather_rows, sub and mean."""
    b = z_a.shape[0]
    z = l2_normalize(concat_rows(z_a, z_b))
    sims = mul(matmul(z, transpose(z)), constant(1.0 / temperature, z))
    masked = add(sims, constant(np.eye(2 * b) * -1e9, z))
    positives = np.concatenate([np.arange(b) + b, np.arange(b)])
    return unfused_mean(sub(log_sum_exp(masked, axis=-1), gather_rows(masked, positives)))


# The ops that built the SSL objectives before each became one record, and
# those objectives on two separate views. ``ssl``'s fused objectives must give
# the same values and leaf gradients, bit for bit.

def neg(a):
    return _op("neg", -a.data, lambda g: [(a, -g)], a)


def stop_gradient(a):
    """Pass values through bitwise unchanged; block all gradient flow."""
    return _op("stop_gradient", a.data, None)


def negative_cosine_similarity(p, z):
    """Batch mean of -cos(p_i, z_i) over rows."""
    dots = tensor_sum(mul(l2_normalize(p), l2_normalize(z)), axis=-1)
    return neg(unfused_mean(dots))


def standardize_columns(a, eps: float = 1e-9):
    """Zero-mean unit-variance per column over the batch axis (biased variance)."""
    if a.ndim != 2 or a.shape[0] < 2:
        raise ContractError(f"standardize_columns: need a (B>=2, d) tensor, got {a.shape}")
    mu = unfused_mean(a, axis=0, keepdims=True)
    centered = sub(a, mu)
    var = unfused_mean(mul(centered, centered), axis=0, keepdims=True)
    return mul(centered, power(add(var, constant(eps, var)), -0.5))


def unfused_simsiam(p_a, z_a, p_b, z_b, stop_grad=True):
    """-0.5 * [cos(p_a, sg(z_b)) + cos(p_b, sg(z_a))] on two views."""
    t_b = stop_gradient(z_b) if stop_grad else z_b
    t_a = stop_gradient(z_a) if stop_grad else z_a
    half = constant(0.5, p_a)
    return add(mul(negative_cosine_similarity(p_a, t_b), half), mul(negative_cosine_similarity(p_b, t_a), half))


def unfused_barlow_twins(z_a, z_b, lambda_bt, eps=1e-9):
    b, d = z_a.shape
    za = standardize_columns(z_a, eps=eps)
    zb = standardize_columns(z_b, eps=eps)
    corr = mul(matmul(transpose(za), zb), constant(1.0 / b, za))
    eye = constant(np.eye(d), corr)
    diag_err = mul(sub(corr, eye), eye)
    off = mul(corr, constant(1.0 - eye.data, corr))
    invariance = tensor_sum(mul(diag_err, diag_err))
    redundancy = tensor_sum(mul(off, off))
    return add(invariance, mul(redundancy, constant(lambda_bt, redundancy)))


def row_block(a, start, stop):
    """Rows [start, stop) of a 2-d tensor. Its gradient is -0.0 in the other rows,
    which adds to any float without changing its bits, so the blocks of one tensor
    hand it their gradients unchanged."""
    def vjp(g):
        grad = np.full(a.shape, -0.0, a.data.dtype)
        grad[start:stop] = g
        return [(a, grad)]

    return _op("row_block", a.data[start:stop], vjp, a)


def _two_views(a):
    b = a.shape[0] // 2
    return row_block(a, 0, b), row_block(a, b, 2 * b)


def unfused_method_loss(model, method, view_a, view_b):
    """``ssl.method_loss`` over the unfused chains: each network once on the stacked
    views, through the unfused layers, then the unfused objective on its two row blocks."""
    x = Tensor(np.concatenate([view_a, view_b]))
    z = unfused_mlp(model.projector, unfused_mlp(model.encoder, x))
    if method.name == "simclr":
        return unfused_nt_xent(*_two_views(z), method.temperature)
    if method.name == "barlow_twins":
        return unfused_barlow_twins(*_two_views(z), method.lambda_bt)
    (p_a, p_b), (z_a, z_b) = _two_views(unfused_mlp(model.predictor, z)), _two_views(z)
    if method.name == "simsiam":
        return unfused_simsiam(p_a, z_a, p_b, z_b, stop_grad=method.stop_gradient)
    t_a, t_b = _two_views(unfused_mlp(model.ema_projector, unfused_mlp(model.ema_encoder, x)))
    return unfused_simsiam(p_a, t_a, p_b, t_b, stop_grad=False)


def two_pass_method_loss(model, method, view_a, view_b):
    """``ssl.method_loss`` as one pass per view through the unfused layers, then the
    unfused objective: the per-view products that ``method_loss`` replaced with one
    product over both views, so the two agree to rounding, not bit for bit."""
    z_a = unfused_mlp(model.projector, unfused_mlp(model.encoder, Tensor(view_a)))
    z_b = unfused_mlp(model.projector, unfused_mlp(model.encoder, Tensor(view_b)))
    if method.name == "simclr":
        return unfused_nt_xent(z_a, z_b, method.temperature)
    if method.name == "barlow_twins":
        return unfused_barlow_twins(z_a, z_b, method.lambda_bt)
    p_a, p_b = unfused_mlp(model.predictor, z_a), unfused_mlp(model.predictor, z_b)
    if method.name == "simsiam":
        return unfused_simsiam(p_a, z_a, p_b, z_b, stop_grad=method.stop_gradient)
    t_a = unfused_mlp(model.ema_projector, unfused_mlp(model.ema_encoder, Tensor(view_a)))
    t_b = unfused_mlp(model.ema_projector, unfused_mlp(model.ema_encoder, Tensor(view_b)))
    return unfused_simsiam(p_a, t_a, p_b, t_b, stop_grad=False)


# ``lambert_w0`` as a Halley iteration to convergence, with every branch
# evaluated for every call. The two Fritsch-Shafer-Crowley steps must agree
# with it to the tolerances ``test_losses`` states and raise the same errors.

def reference_lambert_w0(x):
    scalar = np.isscalar(x) or np.ndim(x) == 0
    z = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.isfinite(z).all():
        raise ValidationError("lambert_w0: argument must be finite")
    if np.any(z < _BRANCH_POINT - 1e-12):
        raise ValidationError(f"lambert_w0: argument below -1/e (min was {z.min()!r})")
    z = np.maximum(z, _BRANCH_POINT)

    with np.errstate(divide="ignore", invalid="ignore"):
        lz = np.log(np.where(z > 1.0, z, np.e))
        big = lz - np.log(lz)
    w = np.where(z <= np.e, z / (1.0 + z), big)
    near = z < -0.25
    p = np.sqrt(np.maximum(2.0 * (np.e * z[near] + 1.0), 0.0))
    w[near] = -1.0 + p - p * p / 3.0 + (11.0 / 72.0) * p ** 3

    for _ in range(64):
        ew = np.exp(w)
        f = w * ew - z
        wp1 = w + 1.0
        safe = np.abs(wp1) > 1e-12
        denom = np.where(safe, ew * wp1 - (w + 2.0) * f / (2.0 * np.where(safe, wp1, 1.0)), 1.0)
        dw = np.where(f == 0.0, 0.0, f / denom)
        w = w - dw
        if np.all(np.abs(dw) <= 1e-15 * (1.0 + np.abs(w))):
            break

    w[z == _BRANCH_POINT] = -1.0
    return float(w[0]) if scalar else w


# The optimizers and the EMA update as they were before one flat vector per
# optimizer: a loop over the parameters, each stepped on its own arrays. The
# flat versions must leave every parameter with the same bits.

class PerTensorSgd:
    def __init__(self, params, momentum=0.0, weight_decay=0.0):
        self.params = list(params)
        self.weight_decay = weight_decay
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def _grad(self, p):
        g = p.grad + self.weight_decay * p.data if self.weight_decay else p.grad
        if not np.isfinite(g).all():
            raise NumericError("optimizer step: gradient (weight decay included) contains NaN or Inf, aborting run")
        return g

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self, lr):
        for p, v in zip(self.params, self.velocity):
            v *= self.momentum
            v += self._grad(p)
            p.data -= lr * v


class PerTensorAdam(PerTensorSgd):
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, weight_decay=0.0):
        super().__init__(params, weight_decay=weight_decay)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self, lr):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            with np.errstate(over="ignore"):
                g = self._grad(p)
                v *= self.beta2
                v += (1.0 - self.beta2) * g * g
            if not np.isfinite(v).all():
                raise NumericError("adam step: the squared gradient overflows float64, aborting run")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            p.data -= lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def per_tensor_ema_update(model, momentum):
    online = model.encoder.parameters() + model.projector.parameters()
    target = model.ema_encoder.parameters() + model.ema_projector.parameters()
    for xi, theta in zip(target, online):
        xi.data *= momentum
        xi.data += (1.0 - momentum) * theta.data


# The kernels of the fine-tuning step as they were before they saved NumPy
# calls: every operation makes a new array and takes its constants as Python
# floats. The leaner kernels must give the same bits, raise the same errors and
# return the same types.

def out_of_place_lambert_w0(x):
    scalar = np.isscalar(x) or np.ndim(x) == 0
    z = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if z.size == 0:
        return z.copy()
    lo, hi = z.min(), z.max()  # NaN propagates into both
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError("lambert_w0: argument must be finite")
    if lo < _BRANCH_POINT - 1e-12:
        raise ValidationError(f"lambert_w0: argument below -1/e (min was {lo!r})")
    at_branch = lo <= _BRANCH_POINT
    if at_branch:
        z = np.maximum(z, _BRANCH_POINT)

    lz = np.log1p(z)
    w = lz * (1.0 - np.log1p(lz) / (2.0 + lz))
    if lo < -0.25:  # only there: the series' cube overflows for large z
        near = z < -0.25
        p = np.sqrt(np.maximum(2.0 * (np.e * z[near] + 1.0), 0.0))
        w[near] = -1.0 + p - p * p / 3.0 + (11.0 / 72.0) * p ** 3

    # x = 0 divides 0 by 0 and the branch point may divide by w + 1 = 0; both are set below
    with np.errstate(divide="ignore", invalid="ignore"):
        w = out_of_place_fsc_step(z, out_of_place_fsc_step(z, w))

    if lo <= 0.0 <= hi:
        zero = z == 0.0
        w[zero] = z[zero]
    if at_branch:
        w[z == _BRANCH_POINT] = -1.0
    return float(w[0]) if scalar else w


def out_of_place_fsc_step(z, w):
    wp1 = 1.0 + w
    t = np.log(z / w) - w
    q = 2.0 * wp1 * (wp1 + (2.0 / 3.0) * t)
    return w * (1.0 + t / wp1 * (q - t) / (q - 2.0 * t))


def out_of_place_softmax_nll(s, idx):
    m = np.max(s, axis=-1, keepdims=True)
    shifted = np.exp(s - m)
    total = np.sum(shifted, axis=-1, keepdims=True)
    soft = shifted / total
    rows = np.arange(s.shape[0])

    def vjp(g):
        z = soft * g[:, None]
        z[rows, idx] -= g
        return z

    return np.squeeze(m + np.log(total), axis=-1) - s[rows, idx], vjp


def out_of_place_superloss_sigma(base_loss, params):
    if params.tau is None:
        raise ContractError("superloss_sigma: tau is unresolved; batch_loss sets it to log(C)")
    ell = np.asarray(base_loss, dtype=np.float64)
    if not np.isfinite(ell).all():
        raise ValidationError("superloss_sigma: base loss must be finite")
    beta = (ell - params.tau) / params.lam
    bound = 2.0 / np.e
    clamped = np.maximum(beta, -bound) if params.clamp_mode == "lower_bound" else np.maximum(beta, bound)
    return np.exp(-out_of_place_lambert_w0(0.5 * clamped))


def out_of_place_wrap(ell, params):
    """SuperLoss's sigma* of base losses ell and its terms (l - tau) * sigma* + lambda * log(sigma*)^2."""
    sigma = out_of_place_superloss_sigma(ell, params)
    log_sigma = np.log(sigma)
    return sigma, (ell - params.tau) * sigma + params.lam * log_sigma * log_sigma
