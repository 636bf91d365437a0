"""On-disk formats: array directories (datasets, checkpoints, embeddings) and metrics lines.

An array directory holds one little-endian ``<name>.bin`` per array next to a
human-readable ``manifest.json``: the format ``version``, the directory's
``kind``, the writer's metadata and ``files``, each array's dtype and shape.
Datasets and embeddings store 32-bit IEEE floats and unsigned ints,
checkpoints 64-bit floats so reloads are bit-exact. The reader checks kind,
version, the kind's metadata keys and their types, dtypes and every file's
exact byte length; a manifest that does not describe its files is a
ValidationError.
"""
from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import ValidationError
from .nn import Layer, Mlp, Model
from .tensor import Tensor

FORMAT_VERSION = 2

# kind -> (array name -> little-endian dtype, metadata key -> type of its value),
# for writing and reading alike
SCHEMAS = {
    "dataset": (
        {"features": "<f4", "labels_observed": "<u4", "labels_true": "<u4"},
        {"num_samples": int, "feature_dim": int, "num_classes": int, "split": str, "provenance": dict},
    ),
    "checkpoint": ({"params": "<f8"}, {"method": (str, type(None)), "params": dict, "extra": dict}),
    "embeddings": (
        {"embeddings": "<f4", "labels": "<u4"},
        {"num_samples": int, "dim": int, "num_classes": int, "split": str},
    ),
}


def _dtype_name(dtype: str) -> str:
    return f"{np.dtype(dtype).name}-le"


def _size(shape, where: str) -> int:
    if not isinstance(shape, list) or not all(isinstance(n, int) and n >= 0 for n in shape):
        raise ValidationError(f"{where}: shape {shape!r} is not a list of non-negative ints")
    return math.prod(shape)


def save_arrays(directory: str | Path, kind: str, arrays: dict[str, np.ndarray], meta: dict) -> Path:
    """Write each array of ``kind``'s schema to ``<name>.bin``, then the manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, dtype in SCHEMAS[kind][0].items():
        data = np.ascontiguousarray(arrays[name]).astype(dtype)
        data.tofile(directory / f"{name}.bin")
        files[name] = {"dtype": _dtype_name(dtype), "shape": list(data.shape)}
    manifest = {"version": FORMAT_VERSION, "kind": kind, **meta, "files": files}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return directory


def load_arrays(directory: str | Path, kind: str) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays and the manifest that ``save_arrays`` wrote for ``kind``."""
    path = Path(directory) / "manifest.json"
    if not path.is_file():
        raise ValidationError(f"manifest not found: {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{path}: not JSON ({exc})") from None
    if not isinstance(manifest, dict) or manifest.get("kind") != kind:
        raise ValidationError(f"{path}: manifest kind is not '{kind}'")
    if manifest.get("version") != FORMAT_VERSION:
        raise ValidationError(f"{path}: format version {manifest.get('version')!r}, expected {FORMAT_VERSION}")
    dtypes, meta = SCHEMAS[kind]
    for key, types in meta.items():
        if key not in manifest or not isinstance(manifest[key], types):
            raise ValidationError(f"{path}: metadata '{key}' is missing or of the wrong type")
    files = manifest.get("files")
    arrays = {}
    for name, dtype in dtypes.items():
        entry = files.get(name) if isinstance(files, dict) else None
        if not isinstance(entry, dict) or entry.get("dtype") != _dtype_name(dtype):
            raise ValidationError(f"{path}: files has no {_dtype_name(dtype)} entry '{name}'")
        file = path.parent / f"{name}.bin"
        expected = _size(entry.get("shape"), f"{path}: {name}") * np.dtype(dtype).itemsize
        if (actual := os.path.getsize(file)) != expected:
            raise ValidationError(f"{file}: declared shape {entry['shape']} needs {expected} bytes, file has {actual}")
        arrays[name] = np.fromfile(file, dtype=dtype).reshape(entry["shape"])
    return arrays, manifest


def save_dataset(ds: Dataset, directory: str | Path, provenance: dict | None = None) -> Path:
    """Write features + both label tracks + manifest under ``directory``."""
    arrays = {"features": ds.features, "labels_observed": ds.labels_observed, "labels_true": ds.labels_true}
    meta = {"num_samples": ds.num_samples, "feature_dim": ds.feature_dim, "num_classes": ds.num_classes, "split": ds.split}
    return save_arrays(directory, "dataset", arrays, {**meta, "provenance": provenance or {}})


def load_dataset(directory: str | Path) -> Dataset:
    return _load_dataset(directory)[0]


def _load_dataset(directory: str | Path) -> tuple[Dataset, dict]:
    """The dataset under ``directory`` and the provenance its manifest records, in one read."""
    arrays, manifest = load_arrays(directory, "dataset")
    return Dataset(**arrays, num_classes=manifest["num_classes"], split=manifest["split"]), manifest["provenance"]


# ---------------------------------------------------------------------------
# checkpoints: raw parameter arrays, their names and shapes, and the SSL method

_MLPS = ("encoder", "projector", "predictor", "ema_encoder", "ema_projector")


def _named_params(model: Model | None, head: Mlp | None) -> dict[str, np.ndarray]:
    mlps = {name: getattr(model, name) for name in _MLPS} if model is not None else {}
    mlps["head"] = head
    return {
        f"{prefix}.{i}.{part}": getattr(layer, part).data
        for prefix, mlp in mlps.items() if mlp is not None
        for i, layer in enumerate(mlp.layers) for part in ("weight", "bias")
    }


def save_checkpoint(
    directory: str | Path,
    model: Model | None,
    head: Mlp | None = None,
    extra: dict | None = None,
) -> Path:
    """One ``params`` array (the parameters concatenated, float64) and a manifest
    listing each parameter's name and shape, in order; the offsets follow from the shapes."""
    params = _named_params(model, head)
    return save_arrays(directory, "checkpoint", {"params": np.concatenate([a.ravel() for a in params.values()])}, {
        "method": model.method if model is not None else None,
        "params": {name: list(a.shape) for name, a in params.items()},
        "extra": extra or {},
    })


def load_checkpoint(directory: str | Path) -> tuple[Model | None, Mlp | None, dict]:
    """Rebuild the model and head recorded by save_checkpoint."""
    arrays, manifest = load_arrays(directory, "checkpoint")
    shapes, raw = manifest["params"], arrays["params"]
    sizes = [_size(shape, f"{directory}: {name}") for name, shape in shapes.items()]
    if sum(sizes) != raw.size:
        raise ValidationError(f"{directory}: parameter shapes hold {sum(sizes)} values, params.bin {raw.size}")
    pieces = np.split(raw, np.cumsum(sizes)[:-1])
    params = {name: piece.reshape(shape) for (name, shape), piece in zip(shapes.items(), pieces)}

    def build_mlp(prefix: str) -> Mlp | None:
        layers, grad = [], not prefix.startswith("ema_")
        while (weight := params.get(f"{prefix}.{len(layers)}.weight")) is not None:
            bias = params.get(f"{prefix}.{len(layers)}.bias")
            if bias is None or weight.ndim != 2 or bias.shape != weight.shape[1:] or (
                layers and layers[-1].weight.shape[1] != weight.shape[0]
            ):
                raise ValidationError(f"{directory}: the shapes of {prefix}.{len(layers)} do not chain")
            layers.append(Layer(Tensor(weight, requires_grad=grad), Tensor(bias, requires_grad=grad)))
        return Mlp(layers) if layers else None

    mlps = {name: build_mlp(name) for name in _MLPS}
    model = Model(manifest["method"], **mlps) if mlps["encoder"] is not None else None
    return model, build_mlp("head"), manifest["extra"]


# ---------------------------------------------------------------------------
# metrics: append-only JSON lines, flushed per record

class MetricsWriter:
    """Append-only metrics sink; one line per record, flushed to the operating
    system immediately, so a reader sees every completed line and a killed
    run leaves every completed epoch. It does not fsync: the lines survive the
    process, not a crash of the machine."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def __call__(self, record) -> None:
        self._fh.write(record.to_json_line() + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
