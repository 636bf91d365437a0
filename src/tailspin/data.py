"""Synthetic datasets and the two corruptions: exponential imbalance and symmetric noise.

Corruption order is imbalance first, then noise. Feature values and the
hidden true labels are never modified by either corruption; all arrays are
frozen after construction, and corruption ops return new Dataset objects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NumericError, ValidationError
from .losses import Priors
from .seeding import derive, rng_for, splitmix64_array


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass
class Dataset:
    """Feature matrix with dual label tracks: observed (possibly noisy) and hidden truth."""

    features: np.ndarray  # (N, d) float32
    labels_observed: np.ndarray  # (N,) int64 in [0, C)
    labels_true: np.ndarray  # (N,) int64, immutable ground truth
    num_classes: int
    split: str = "train"

    def __post_init__(self):
        self.features = _frozen(np.asarray(self.features, dtype=np.float32))
        self.labels_observed = _frozen(np.asarray(self.labels_observed, dtype=np.int64))
        self.labels_true = _frozen(np.asarray(self.labels_true, dtype=np.int64))
        n = self.features.shape[0]
        if n == 0:
            raise ValidationError("dataset must contain at least one sample")
        if self.features.ndim != 2:
            raise ValidationError(f"features must be 2-d, got shape {self.features.shape}")
        if self.labels_observed.shape != (n,) or self.labels_true.shape != (n,):
            raise ValidationError("label tracks must align with features")
        if self.num_classes < 2:
            raise ValidationError(f"need at least 2 classes, got {self.num_classes}")
        for track in (self.labels_observed, self.labels_true):
            if track.min() < 0 or track.max() >= self.num_classes:
                raise ValidationError("label index outside [0, num_classes)")
        if not np.isfinite(self.features).all():
            raise NumericError("features contain NaN or Inf")

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def observed_counts(self) -> np.ndarray:
        return np.bincount(self.labels_observed, minlength=self.num_classes)

    def true_counts(self) -> np.ndarray:
        return np.bincount(self.labels_true, minlength=self.num_classes)


@dataclass
class ImbalanceSpec:
    gamma: float
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma < 1.0:
            raise ValidationError(f"imbalance ratio gamma must be >= 1, got {self.gamma}")


@dataclass
class NoiseSpec:
    nu: float
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.nu, bool) or not isinstance(self.nu, (int, float, np.number)) or not 0.0 <= self.nu < 1.0:
            raise ValidationError(f"noise fraction nu must be a number in [0, 1), got {self.nu!r}")


@dataclass
class AugmentationSpec:
    """Vector-data augmentation family: scale jitter, additive noise, coordinate masking."""

    gaussian_sigma: float = 0.0
    mask_prob: float = 0.0
    scale_jitter: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.gaussian_sigma < np.inf:
            raise ValidationError(f"gaussian_sigma must be >= 0 and finite, got {self.gaussian_sigma}")
        if not 0.0 <= self.scale_jitter <= 1.0:
            raise ValidationError(f"scale_jitter must lie in [0, 1], since above 1 scale factors go negative, "
                                  f"got {self.scale_jitter}")
        if not 0.0 <= self.mask_prob < 1.0:
            raise ValidationError(f"mask_prob must lie in [0, 1), got {self.mask_prob}")


def generate_synthetic(
    num_classes: int,
    per_class: int,
    dim: int,
    cluster_separation: float,
    seed: int,
    split: str = "train",
) -> Dataset:
    """Isotropic unit Gaussian clusters with class means at pairwise distance >= separation.

    The class means depend only on ``seed``, so train and test splits drawn
    with different ``split`` tags share the same clusters.
    """
    if num_classes < 2:
        raise ValidationError(f"num_classes must be >= 2, got {num_classes}")
    if per_class < 1:
        raise ValidationError(f"per_class must be >= 1, got {per_class}")
    if dim < 2:
        raise ValidationError(f"dim must be >= 2, got {dim}")
    if not cluster_separation > 0:
        raise ValidationError(f"cluster_separation must be positive, got {cluster_separation}")

    means = rng_for(seed, "means").normal(size=(num_classes, dim))
    dists = [
        float(np.linalg.norm(means[i] - means[j]))
        for i in range(num_classes)
        for j in range(i + 1, num_classes)
    ]
    closest = min(dists)
    scale = max(float(cluster_separation) / closest, 1.0)  # spreads the means apart, never together
    if float(np.abs(means).max()) * scale > np.finfo(np.float32).max.item():  # Python floats: no overflow warning
        raise ValidationError(f"cluster_separation={cluster_separation} puts the class means beyond float32 range")
    means = means * scale

    rng = rng_for(seed, "samples", split)
    features = np.empty((num_classes * per_class, dim), dtype=np.float32)
    for c in range(num_classes):  # one float32 array, filled class by class; assignment rounds as astype does
        features[c * per_class : (c + 1) * per_class] = means[c] + rng.normal(size=(per_class, dim))
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return Dataset(features, labels.copy(), labels.copy(), num_classes, split=split)


def exponential_profile(n_max: int, gamma: float, num_classes: int) -> np.ndarray:
    """Per-class retention counts n_c = round(n_max * gamma^(-c / (C - 1))), each at least 1."""
    if num_classes < 2:
        raise ValidationError(f"num_classes must be >= 2, got {num_classes}")
    if n_max < 1:
        raise ValidationError(f"n_max, the per_class count before imbalance, must be >= 1, got {n_max}")
    ImbalanceSpec(gamma)  # gamma in [1, inf)
    c = np.arange(num_classes, dtype=np.float64)
    raw = n_max * gamma ** (-c / (num_classes - 1))
    counts = np.array([_round_half_up(v) for v in raw], dtype=np.int64)
    if counts.min() < 1:
        raise ValidationError(f"gamma={gamma} empties the smallest class (n_max={n_max}); reduce gamma")
    return counts


def apply_exponential_imbalance(ds: Dataset, spec: ImbalanceSpec) -> Dataset:
    """Down-sample each class along the exponential profile; requires a balanced input."""
    counts = ds.true_counts()
    if counts.min() != counts.max():
        raise ContractError(f"imbalance requires a balanced dataset, got class counts {counts.tolist()}")
    n_max = int(counts[0])
    targets = exponential_profile(n_max, spec.gamma, ds.num_classes)
    rng = rng_for(spec.seed, "imbalance")
    kept: list[np.ndarray] = []
    for c in range(ds.num_classes):
        members = np.flatnonzero(ds.labels_true == c)
        kept.append(rng.choice(members, size=int(targets[c]), replace=False))
    order = np.sort(np.concatenate(kept))
    return Dataset(
        ds.features[order], ds.labels_observed[order], ds.labels_true[order], ds.num_classes, split=ds.split
    )


def noise_selection(num_samples: int, nu: float, seed: int) -> np.ndarray:
    """The round(nu * N) sample indices whose labels get redrawn, chosen
    uniformly without replacement over the whole dataset."""
    k = _round_half_up(nu * num_samples)
    return rng_for(seed, "noise").choice(num_samples, size=k, replace=False)


def inject_symmetric_noise(ds: Dataset, spec: NoiseSpec) -> Dataset:
    """Redraw the observed label of round(nu * N) samples uniformly over all classes.

    Selection is global and uniform over the dataset; a resampled label may
    coincide with the original. True labels are untouched.
    """
    selected = noise_selection(ds.num_samples, spec.nu, spec.seed)
    observed = ds.labels_observed.copy()
    observed[selected] = rng_for(spec.seed, "noise", "redraw").integers(0, ds.num_classes, size=selected.size)
    # features and true labels are frozen, so the new dataset can share them
    return Dataset(ds.features, observed, ds.labels_true, ds.num_classes, split=ds.split)


def estimate_priors(ds: Dataset) -> Priors:
    """Observed class frequencies; floored at 1/(10N) and renormalized so log(pi) stays finite."""
    n = ds.num_samples
    pi = np.maximum(ds.observed_counts().astype(np.float64) / n, 1.0 / (10.0 * n))
    return Priors(pi / pi.sum())


def augment(rows: np.ndarray, spec: AugmentationSpec, seeds: np.ndarray) -> np.ndarray:
    """One augmented view of each row: scale jitter, then Gaussian noise, then masking.

    Row r draws only from ``seeds[r]``: its uniform in slot k is
    ``(splitmix64(seeds[r] ^ k) >> 11) * 2**-53``. Slot 0 sets the scale
    factor, the next ceil(d/2) + ceil(d/2) slots the Box-Muller radii and
    angles, the last d the mask. Two calls with distinct seeds form the two
    views of a positive pair.
    """
    x = np.asarray(rows, dtype=np.float64)
    seeds = np.asarray(seeds, dtype=np.uint64)
    if x.ndim != 2 or seeds.shape != x.shape[:1]:
        raise ContractError(f"augment: needs (B, d) rows and B seeds, got shapes {x.shape} and {seeds.shape}")
    if not np.isfinite(x).all():
        raise NumericError("augment: input contains NaN or Inf")
    d = x.shape[1]
    h = (d + 1) // 2
    slots = np.arange(1 + 2 * h + d, dtype=np.uint64)
    u = (splitmix64_array(seeds[:, None] ^ slots) >> np.uint64(11)) * 2.0 ** -53
    radius_u, angle_u, mask_u = u[:, 1 : 1 + h], u[:, 1 + h : 1 + 2 * h], u[:, 1 + 2 * h :]
    # math.log, not np.log: NumPy's AVX-512 log differs from the C library's in
    # the last bit for some arguments, which would make the stream CPU-dependent
    log_u = np.fromiter(map(math.log, (1.0 - radius_u).ravel().tolist()), np.float64).reshape(radius_u.shape)
    radius = np.sqrt(-2.0 * log_u)
    angle = 2.0 * math.pi * angle_u
    normals = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=1)[:, :d]
    lo, hi = 1.0 - spec.scale_jitter, 1.0 + spec.scale_jitter
    y = x * (lo + (hi - lo) * u[:, :1])
    y = y + spec.gaussian_sigma * normals
    y[mask_u < spec.mask_prob] = 0.0
    return y


def view_seed(run_seed: int, epoch: int, sample_indices: np.ndarray, view_index: int) -> np.ndarray:
    """Per-sample augmentation seeds, independent of data ordering within the epoch:
    element i is ``derive(run_seed, "augment", epoch, sample_indices[i], view_index)``."""
    prefix = np.uint64(derive(run_seed, "augment", epoch))
    state = splitmix64_array(prefix ^ np.asarray(sample_indices).astype(np.uint64))
    return splitmix64_array(state ^ np.asarray(view_index).astype(np.uint64))
