"""Experiment configuration: flat namespaced keys, documented defaults,
strict validation with nearest-key suggestions.

Config files are plain text, one ``key = value`` per line, ``#`` comments
allowed; an empty file yields all defaults. ``--set key=value`` overrides
win over the file.
"""
from __future__ import annotations

import difflib
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .evaluation import EMBED_LAYERS, KNN_METRICS, KNN_WEIGHTINGS
from .losses import CLAMP_MODES, LOSS_KINDS
from .nn import SSL_METHODS
from .optim import OPTIMIZER_KINDS, SCHEDULE_KINDS
from .pipeline import FULL_HEAD, LAST_LAYER_ONLY

# key -> (type, default, allowed values or None, help)
_SPEC: dict[str, tuple[type, object, tuple | None, str]] = {
    "data.num_classes": (int, 3, None, "number of classes C"),
    "data.per_class": (int, 300, None, "balanced per-class training count n_max"),
    "data.test_per_class": (int, 100, None, "balanced per-class test count"),
    "data.dim": (int, 8, None, "feature dimension"),
    "data.separation": (float, 3.0, None, "minimum pairwise distance between cluster means"),
    "data.gamma": (float, 1.0, None, "imbalance ratio, 1 disables"),
    "data.nu": (float, 0.0, None, "symmetric noise fraction in [0, 1)"),
    "pretrain.method": (str, "simsiam", SSL_METHODS, "SSL objective"),
    "pretrain.epochs": (int, 200, None, "pretraining epochs"),
    "pretrain.batch_size": (int, 64, None, "pretraining batch size"),
    "pretrain.optimizer": (str, "sgd", OPTIMIZER_KINDS, "pretraining optimizer"),
    "pretrain.base_lr": (float, 0.12, None, "base lr, scaled by batch_size/256"),
    "pretrain.weight_decay": (float, 5e-4, None, "pretraining weight decay"),
    "pretrain.momentum": (float, 0.9, None, "SGD momentum"),
    "pretrain.schedule": (str, "cosine", SCHEDULE_KINDS, "lr schedule after warmup"),
    "pretrain.warmup_epochs": (int, 10, None, "linear warmup epochs"),
    "pretrain.temperature": (float, 0.5, None, "SimCLR NT-Xent temperature"),
    "pretrain.ema_momentum": (float, 0.99, None, "BYOL target momentum"),
    "pretrain.lambda_bt": (float, 0.005, None, "Barlow Twins off-diagonal weight"),
    "pretrain.aug_sigma": (float, 0.4, None, "augmentation: additive Gaussian scale"),
    "pretrain.aug_mask_prob": (float, 0.0, None, "augmentation: coordinate dropout probability"),
    "pretrain.aug_jitter": (float, 0.2, None, "augmentation: multiplicative jitter half-range"),
    "pretrain.disable_stop_gradient": (bool, False, None, "collapse-ablation switch for SimSiam"),
    "model.hidden_dim": (int, 64, None, "encoder hidden width"),
    "model.rep_dim": (int, 32, None, "encoder output width"),
    "model.proj_dim": (int, 32, None, "projector width (2 FC layers)"),
    "model.pred_hidden": (int, 16, None, "predictor hidden width"),
    "finetune.loss": (str, "la_sl", LOSS_KINDS, "fine-tuning loss"),
    "finetune.epochs": (int, 25, None, "fine-tuning epochs"),
    "finetune.batch_size": (int, 64, None, "fine-tuning batch size"),
    "finetune.optimizer": (str, "adam", OPTIMIZER_KINDS, "fine-tuning optimizer"),
    "finetune.lr": (float, 0.003, None, "fine-tuning learning rate (not batch-scaled)"),
    "finetune.weight_decay": (float, 0.0, None, "fine-tuning weight decay"),
    "finetune.momentum": (float, 0.9, None, "fine-tuning SGD momentum"),
    "finetune.freeze": (str, "auto", ("auto", FULL_HEAD, LAST_LAYER_ONLY), "freeze policy override"),
    "finetune.tau": (str, "auto", None, "SuperLoss threshold; 'auto' means log(C)"),
    "finetune.lambda": (float, 4.0, None, "SuperLoss regularization"),
    "finetune.clamp_mode": (str, "lower_bound", CLAMP_MODES, "SuperLoss clamp direction"),
    "single_stage.epochs": (int, 60, None, "epochs for the from-scratch baseline"),
    "eval.knn_k": (int, 20, None, "kNN proxy neighbor count"),
    "eval.knn_metric": (str, "cosine", KNN_METRICS, "kNN distance"),
    "eval.knn_weighting": (str, "similarity", KNN_WEIGHTINGS, "kNN vote weighting"),
    "eval.embedding_layer": (str, "encoder", EMBED_LAYERS, "representation used by eval"),
    "eval.export_embeddings": (bool, False, None, "write embeddings during eval subcommand"),
    "run.seed": (int, 0, None, "single global seed; all streams derive from it"),
    "run.output_dir": (str, "runs/default", None, "where outputs are written"),
}


@dataclass
class ExperimentConfig:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def is_default(self, key: str) -> bool:
        return self.values[key] == _SPEC[key][1]

    @property
    def seed(self) -> int:
        return self.values["run.seed"]

    @property
    def output_dir(self) -> Path:
        return Path(self.values["run.output_dir"])

    def resolved_text(self) -> str:
        lines = [f"{key} = {_format_value(self.values[key])}" for key in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        """SHA-256 over every resolved key except run.output_dir, which names
        where results land rather than what the experiment is; identical
        experiments written to different directories hash identically."""
        lines = self.resolved_text().splitlines(keepends=True)
        kept = "".join(line for line in lines if not line.startswith("run.output_dir = "))
        return hashlib.sha256(kept.encode("utf-8")).hexdigest()

    def superloss_tau(self) -> float | None:
        raw = self.values["finetune.tau"]
        if raw == "auto":
            return None
        try:
            tau = float(raw)
        except ValueError:
            tau = math.nan
        if not math.isfinite(tau):
            raise ConfigError(f"finetune.tau must be 'auto' or a finite number, got '{raw}'")
        return tau


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _parse_value(key: str, raw: str):
    kind, _, allowed, _ = _SPEC[key]
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                value = True
            elif raw.lower() in ("false", "0", "no"):
                value = False
            else:
                raise ValueError(raw)
        elif kind is int:
            value = int(raw)
        elif kind is float:
            value = float(raw)
        else:
            value = raw
    except ValueError:
        raise ConfigError(f"key '{key}' expects {kind.__name__}, got '{raw}'") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"key '{key}' expects a finite number, got '{raw}'")
    if allowed is not None and value not in allowed:
        raise ConfigError(f"key '{key}' must be one of {allowed}, got '{value}'")
    return value


def _reject_unknown(key: str) -> None:
    if key in _SPEC:
        return
    near = difflib.get_close_matches(key, _SPEC.keys(), n=1)
    hint = f" (did you mean '{near[0]}'?)" if near else ""
    raise ConfigError(f"unknown config key '{key}'{hint}")


def _parse_file(path: Path) -> dict:
    entries = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{stripped}'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        _reject_unknown(key)
        entries[key] = _parse_value(key, raw)
    return entries


def config_load(path: str | Path | None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Defaults, then the file, then --set overrides; unknown keys are rejected."""
    values = {key: default for key, (_, default, _, _) in _SPEC.items()}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        values.update(_parse_file(p))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got '{item}'")
        key, raw = item.split("=", 1)
        key = key.strip()
        _reject_unknown(key)
        values[key] = _parse_value(key, raw)
    return ExperimentConfig(values)


def write_resolved(cfg: ExperimentConfig, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "config.resolved").write_text(cfg.resolved_text())


def describe_defaults() -> str:
    lines = []
    for key, (kind, default, allowed, help_text) in _SPEC.items():
        extra = f" choices={list(allowed)}" if allowed else ""
        lines.append(f"{key} ({kind.__name__}, default {_format_value(default)}){extra}: {help_text}")
    return "\n".join(lines)


def summary_payload(cfg: ExperimentConfig, summary: dict) -> str:
    payload = {"config_hash": cfg.config_hash(), **summary}
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
