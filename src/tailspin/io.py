"""On-disk formats: dataset directories, checkpoints, metrics lines.

Bulk arrays are little-endian binaries (32-bit IEEE floats or unsigned ints
for datasets, 64-bit floats for checkpoints so reloads are bit-exact) next to
a human-readable JSON manifest whose declared sizes must match the file byte
lengths exactly. Everything written here can be read back by this module.
"""
from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import ValidationError
from .nn import Linear, Mlp, Model
from .tensor import Tensor

FORMAT_VERSION = 1

_F32 = "<f4"
_F64 = "<f8"
_U32 = "<u4"


def _write_array(path: Path, arr: np.ndarray, dtype: str) -> None:
    np.ascontiguousarray(arr).astype(dtype).tofile(path)


def _read_array(path: Path, dtype: str, shape: list[int]) -> np.ndarray:
    expected = int(np.prod(shape)) * np.dtype(dtype).itemsize
    actual = os.path.getsize(path)
    if actual != expected:
        raise ValidationError(
            f"{path}: declared shape {shape} needs {expected} bytes, file has {actual}"
        )
    return np.fromfile(path, dtype=dtype).reshape(shape)


def _write_manifest(path: Path, manifest: dict) -> None:
    path.write_text(json.dumps(manifest, indent=2, sort_keys=False) + "\n")


def _read_manifest(directory: Path, kind: str) -> dict:
    path = directory / "manifest.json"
    if not path.is_file():
        raise ValidationError(f"manifest not found: {path}")
    manifest = json.loads(path.read_text())
    if manifest.get("kind") != kind:
        raise ValidationError(f"{directory}: manifest kind is not '{kind}'")
    return manifest


def save_dataset(ds: Dataset, directory: str | Path, provenance: dict | None = None) -> Path:
    """Write features + both label tracks + manifest under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_array(directory / "features.bin", ds.features, _F32)
    _write_array(directory / "labels_observed.bin", ds.labels_observed, _U32)
    _write_array(directory / "labels_true.bin", ds.labels_true, _U32)
    manifest = {
        "version": FORMAT_VERSION,
        "kind": "dataset",
        "num_samples": ds.num_samples,
        "feature_dim": ds.feature_dim,
        "num_classes": ds.num_classes,
        "split": ds.split,
        "files": {
            "features": {"name": "features.bin", "dtype": "float32-le", "shape": [ds.num_samples, ds.feature_dim]},
            "labels_observed": {"name": "labels_observed.bin", "dtype": "uint32-le", "shape": [ds.num_samples]},
            "labels_true": {"name": "labels_true.bin", "dtype": "uint32-le", "shape": [ds.num_samples]},
        },
        "provenance": provenance or {},
    }
    _write_manifest(directory / "manifest.json", manifest)
    return directory


def load_dataset(directory: str | Path) -> Dataset:
    directory = Path(directory)
    manifest = _read_manifest(directory, "dataset")
    files = manifest["files"]
    features = _read_array(directory / files["features"]["name"], _F32, files["features"]["shape"])
    observed = _read_array(directory / files["labels_observed"]["name"], _U32, files["labels_observed"]["shape"])
    true = _read_array(directory / files["labels_true"]["name"], _U32, files["labels_true"]["shape"])
    return Dataset(
        features,
        observed.astype(np.int64),
        true.astype(np.int64),
        int(manifest["num_classes"]),
        split=manifest.get("split", "train"),
    )


def dataset_provenance(directory: str | Path) -> dict:
    return _read_manifest(Path(directory), "dataset").get("provenance", {})


# ---------------------------------------------------------------------------
# checkpoints: raw parameter arrays plus an architecture descriptor

def _named_params(model: Model | None, head: Mlp | None) -> list[tuple[str, np.ndarray]]:
    entries = []

    def mlp_entries(prefix: str, mlp: Mlp):
        for i, layer in enumerate(mlp.layers):
            entries.append((f"{prefix}.{i}.weight", layer.weight.data))
            entries.append((f"{prefix}.{i}.bias", layer.bias.data))

    if model is not None:
        mlp_entries("encoder", model.encoder)
        mlp_entries("projector", model.projector)
        if model.predictor is not None:
            mlp_entries("predictor", model.predictor)
        if model.ema_encoder is not None:
            mlp_entries("ema_encoder", model.ema_encoder)
            mlp_entries("ema_projector", model.ema_projector)
    if head is not None:
        mlp_entries("head", head)
    return entries


def save_checkpoint(
    directory: str | Path,
    model: Model | None,
    head: Mlp | None = None,
    extra: dict | None = None,
) -> Path:
    """Single params.bin (float64-le) plus a manifest listing name/shape/offset."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = _named_params(model, head)
    index = []
    offset = 0
    with open(directory / "params.bin", "wb") as fh:
        for name, arr in entries:
            data = np.ascontiguousarray(arr).astype(_F64)
            fh.write(data.tobytes())
            index.append({"name": name, "shape": list(arr.shape), "offset": offset})
            offset += data.nbytes
    manifest = {
        "version": FORMAT_VERSION,
        "kind": "checkpoint",
        "arch": dict(model.arch) if model is not None else {},
        "head_dims": head.dims if head is not None else None,
        "params": index,
        "file": "params.bin",
        "extra": extra or {},
    }
    _write_manifest(directory / "manifest.json", manifest)
    return directory


def load_checkpoint(directory: str | Path) -> tuple[Model | None, Mlp | None, dict]:
    """Rebuild the model and head recorded by save_checkpoint."""
    directory = Path(directory)
    manifest = _read_manifest(directory, "checkpoint")
    sizes = [int(np.prod(entry["shape"])) for entry in manifest["params"]]
    raw = _read_array(directory / manifest["file"], _F64, [sum(sizes)])
    arrays: dict[str, np.ndarray] = {}
    for entry, size in zip(manifest["params"], sizes):
        start = entry["offset"] // 8
        arrays[entry["name"]] = raw[start : start + size].reshape(entry["shape"])

    def build_mlp(prefix: str, requires_grad: bool = True) -> Mlp | None:
        layers = []
        i = 0
        while f"{prefix}.{i}.weight" in arrays:
            layers.append(
                Linear(
                    Tensor(arrays[f"{prefix}.{i}.weight"], requires_grad=requires_grad),
                    Tensor(arrays[f"{prefix}.{i}.bias"], requires_grad=requires_grad),
                )
            )
            i += 1
        return Mlp(layers) if layers else None

    model = None
    encoder = build_mlp("encoder")
    if encoder is not None:
        model = Model(
            encoder,
            build_mlp("projector"),
            build_mlp("predictor"),
            build_mlp("ema_encoder", requires_grad=False),
            build_mlp("ema_projector", requires_grad=False),
            arch=manifest.get("arch", {}),
        )
    head = build_mlp("head")
    return model, head, manifest.get("extra", {})


# ---------------------------------------------------------------------------
# metrics: append-only JSON lines, flushed per record

class MetricsWriter:
    """Append-only metrics sink; one line per record, flushed immediately so
    interrupted runs retain every completed epoch."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def __call__(self, record) -> None:
        self._fh.write(record.to_json_line() + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
