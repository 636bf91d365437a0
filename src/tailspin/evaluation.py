"""kNN proxy metric, accuracy variants, embedding export, and metrics records."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import ContractError, ValidationError
from .io import save_dataset
from .nn import Model
from .tensor import Tensor, l2_normalize

KNN_METRICS = ("cosine", "euclidean")
KNN_WEIGHTINGS = ("uniform", "similarity")
EMBED_LAYERS = ("encoder", "projector")


@dataclass(frozen=True)
class KNNConfig:
    k: int = 20
    metric: str = "cosine"
    weighting: str = "similarity"

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if self.metric not in KNN_METRICS:
            raise ValidationError(f"metric must be one of {KNN_METRICS}, got '{self.metric}'")
        if self.weighting not in KNN_WEIGHTINGS:
            raise ValidationError(f"weighting must be one of {KNN_WEIGHTINGS}, got '{self.weighting}'")

    def check_reference(self, size: int) -> None:
        """k neighbours need a reference set of at least k samples."""
        if self.k > size:
            raise ContractError(f"k={self.k} exceeds reference size {size}")


@dataclass
class MetricsRecord:
    """One serializable row per epoch per stage."""

    stage: str
    epoch: int
    loss: float
    lr: float
    seed: int
    knn_accuracy: float | None = None
    per_class_accuracy: list[float] | None = None

    def to_json_line(self) -> str:
        """The fields in declaration order, as compact JSON."""
        return json.dumps(asdict(self), separators=(",", ":"))


def embed(dataset: Dataset, model: Model, layer: str = "encoder") -> Dataset:
    """Deterministic forward pass with augmentations disabled: a Dataset whose
    features are the float32 representations, by default the encoder output
    (pre-projector), with ``dataset``'s own label tracks and split, formed in row
    blocks (``map_rows``) with the bits of the one-shot forward."""
    if layer not in EMBED_LAYERS:
        raise ValidationError(f"layer must be one of {EMBED_LAYERS}, got '{layer}'")

    def forward(x: np.ndarray) -> np.ndarray:
        reps = model.encoder(Tensor(x))
        return (model.projector(reps) if layer == "projector" else reps).data

    return replace(dataset, features=map_rows(dataset.features, forward, np.float32))


def map_rows(features: np.ndarray, fn: Callable[[np.ndarray], np.ndarray], dtype=np.float64) -> np.ndarray:
    """``fn`` (row-wise, recording nothing on a tape) over float64 ``_row_blocks`` of
    ``features``, written into one (N, width) array of ``dtype``: memory grows with
    the block, not with N times a hidden width, and the bits are fn's over all rows."""
    out = None
    for start, stop in _row_blocks(len(features), _FORWARD_ROWS):
        block = fn(features[start:stop].astype(np.float64))
        if out is None:
            out = np.empty((len(features), block.shape[1]), dtype=dtype)
        out[start:stop] = block
    return out


def knn_classify(reference: Dataset, queries: Dataset, cfg: KNNConfig) -> np.ndarray:
    """Vote among the k nearest reference rows with their true labels; ties go to
    the smallest class index.

    Similarity weighting uses (1 + cosine) for the cosine metric and
    1 / (distance + 1e-12) for the euclidean metric. Queries are scored into one
    reused buffer and selected ``_KNN_ROWS`` rows at a time (``_row_blocks``): memory
    holds one score block and the float64 reference, not Q x R; the neighbours are
    those of a stable sort on (score, reference index).
    """
    cfg.check_reference(reference.num_samples)
    if cfg.metric == "cosine":
        ref, qry = (map_rows(d.features, lambda x: l2_normalize(Tensor(x)).data) for d in (reference, queries))
    else:
        ref, qry = reference.features.astype(np.float64), queries.features.astype(np.float64)
        qry_sq = np.sum(qry * qry, axis=1, keepdims=True)
        ref_sq = np.sum(ref * ref, axis=1)

    order = np.empty((queries.num_samples, cfg.k), dtype=np.intp)
    nearest = np.empty((queries.num_samples, cfg.k))
    blocks = _row_blocks(queries.num_samples, _KNN_ROWS)
    buffer = np.empty((max(stop - start for start, stop in blocks), reference.num_samples))
    for start, stop in blocks:
        scores = buffer[: stop - start]
        if cfg.metric == "cosine":
            np.matmul(qry[start:stop], ref.T, out=scores)
            np.negative(scores, out=scores)  # score = -similarity
        else:  # score = distance, computed in place as sqrt(max(|q|^2 - 2 q.r + |r|^2, 0))
            np.matmul(2.0 * qry[start:stop], ref.T, out=scores)
            np.subtract(qry_sq[start:stop], scores, out=scores)
            scores += ref_sq
            np.sqrt(np.maximum(scores, 0.0, out=scores), out=scores)
        order[start:stop], nearest[start:stop] = _smallest_k(scores, cfg.k)

    if cfg.weighting == "uniform":
        weights = np.ones_like(nearest)
    elif cfg.metric == "cosine":
        weights = 1.0 - nearest  # 1 + similarity
    else:
        weights = 1.0 / (nearest + 1e-12)

    neighbor_labels = reference.labels_true[order]
    votes = np.zeros((queries.num_samples, reference.num_classes))
    for c in range(reference.num_classes):
        votes[:, c] = np.sum(weights * (neighbor_labels == c), axis=1)
    return np.argmax(votes, axis=1).astype(np.int64)  # argmax takes the smallest index on ties


# The kNN scores and selects this many query rows at a time, so its buffer and copies stay small.
_KNN_ROWS = 8
# Whole-dataset forwards (``map_rows``) run in blocks of this many rows.
_FORWARD_ROWS = 1024


def _row_blocks(num_rows: int, rows: int) -> list[tuple[int, int]]:
    """Consecutive (start, stop) ranges of ``rows`` >= 2 rows covering ``num_rows``.
    No range has one row unless ``num_rows`` is 1: BLAS computes a one-row product
    with another kernel, whose last bits differ from the same row of a taller one,
    so a lone last row joins the block before it."""
    bounds = [*range(0, num_rows, rows), num_rows]
    if num_rows > 1 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _smallest_k(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Column indices and values of each row's k smallest scores, ordered by
    (score, column): the first k columns of a stable argsort, without sorting
    whole rows. Every candidate at or below the k-th smallest score is kept,
    so ties at the boundary go to the lowest columns."""
    kth = np.partition(scores, k - 1, axis=1)[:, k - 1 : k]
    rows, cols = np.divmod(np.flatnonzero(scores <= kth), scores.shape[1])  # 2-D nonzero costs 10x more
    values = scores[rows, cols]
    ranked = np.lexsort((cols, values, rows))  # rows stay grouped, in order
    counts = np.bincount(rows, minlength=len(scores))
    starts = np.cumsum(counts) - counts
    pick = ranked[starts[:, None] + np.arange(k)]
    return cols[pick], values[pick]


@dataclass
class AccuracyReport:
    overall: float
    per_class: np.ndarray  # NaN for classes absent from the test set
    balanced: float
    confusion: np.ndarray  # rows normalized by true-class counts

    def per_class_json(self) -> list[float | None]:
        """Per-class accuracies for JSON output, NaN (class absent) as None."""
        return [float(v) if np.isfinite(v) else None for v in self.per_class]


def accuracy_suite(predictions: np.ndarray, labels_true: np.ndarray, num_classes: int) -> AccuracyReport:
    """Overall, per-class, and balanced accuracy plus a row-normalized confusion matrix.

    A true class absent from the test set gets a NaN per-class entry and is
    excluded from the balanced mean. Every label must lie in [0, num_classes).
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    labels_true = np.asarray(labels_true, dtype=np.int64)
    if predictions.shape != labels_true.shape:
        raise ValidationError(f"predictions {predictions.shape} vs labels {labels_true.shape}")
    for name, labels in (("predictions", predictions), ("labels_true", labels_true)):
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValidationError(f"{name} must lie in [0, {num_classes}), got {labels.min()} to {labels.max()}")
    overall = float(np.mean(predictions == labels_true))
    counts = np.bincount(labels_true * num_classes + predictions, minlength=num_classes**2).reshape(num_classes, num_classes)
    totals = counts.sum(axis=1, keepdims=True)
    confusion = np.divide(counts, totals, out=np.zeros((num_classes, num_classes)), where=totals > 0)
    per_class = np.where(totals[:, 0] > 0, np.diagonal(confusion), np.nan)
    balanced = float(np.nanmean(per_class))
    return AccuracyReport(overall, per_class, balanced, confusion)


def export_embeddings(ds: Dataset, directory: str | Path) -> Path:
    """Write an ``embed`` result as a dataset directory with an empty provenance,
    which ``io.load_dataset`` reads back as that Dataset, both label tracks included."""
    return save_dataset(ds, directory)
