"""Experiment configuration: flat namespaced keys, documented defaults,
strict validation with nearest-key suggestions.

Config files are plain text, one ``key = value`` per line, ``#`` comments
allowed; an empty file yields all defaults. ``--set key=value`` overrides
win over the file.
"""
from __future__ import annotations

import difflib
import hashlib
import inspect
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import ConfigError
from .evaluation import EMBED_LAYERS, KNN_METRICS, KNN_WEIGHTINGS, KNNConfig, embed
from .losses import CLAMP_MODES, LOSS_KINDS
from .nn import SSL_METHODS, build_model
from .optim import OPTIMIZER_KINDS, SCHEDULE_KINDS
from .pipeline import FULL_HEAD, LAST_LAYER_ONLY, FinetuneSettings, PretrainSettings, make_datasets


def _default_arg(fn, name: str):
    return inspect.signature(fn).parameters[name].default


def _flag(raw: str) -> bool:
    return {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}[raw.lower()]


def _float_or_auto(raw: str) -> float | str:
    """SuperLoss's threshold: 'auto' (log C, resolved once data.num_classes is known) or a number."""
    return raw if raw == "auto" else float(raw)


def _type_name(parse: Callable) -> str:
    return {_flag: "bool", _float_or_auto: "float or 'auto'"}.get(parse, parse.__name__)


# A key with a library counterpart reads its default there, from a default-constructed
# settings object or a default argument; only the keys without one write a literal.
_PRE, _FINE, _KNN = PretrainSettings(), FinetuneSettings(), KNNConfig()

# key -> (parser, default, allowed values or None, help); the parser is the key's type
_SPEC: dict[str, tuple[Callable[[str], object], object, tuple | None, str]] = {
    "data.num_classes": (int, 3, None, "number of classes C"),
    "data.per_class": (int, 300, None, "balanced per-class training count n_max"),
    "data.test_per_class": (int, _default_arg(make_datasets, "test_per_class"), None, "balanced per-class test count"),
    "data.dim": (int, 8, None, "feature dimension"),
    "data.separation": (float, 3.0, None, "minimum pairwise distance between cluster means"),
    "data.gamma": (float, 1.0, None, "imbalance ratio, 1 disables"),
    "data.nu": (float, 0.0, None, "symmetric noise fraction in [0, 1)"),
    "pretrain.method": (str, _PRE.method.name, SSL_METHODS, "SSL objective"),
    "pretrain.epochs": (int, _PRE.schedule.total_epochs, None, "pretraining epochs"),
    "pretrain.batch_size": (int, _PRE.optimizer.batch_size, None, "pretraining batch size"),
    "pretrain.optimizer": (str, _PRE.optimizer.kind, OPTIMIZER_KINDS, "pretraining optimizer"),
    "pretrain.base_lr": (float, _PRE.optimizer.base_lr, None, "base lr, scaled by batch_size/256"),
    "pretrain.weight_decay": (float, _PRE.optimizer.weight_decay, None, "pretraining weight decay"),
    "pretrain.momentum": (float, _PRE.optimizer.momentum, None, "SGD momentum"),
    "pretrain.schedule": (str, _PRE.schedule.kind, SCHEDULE_KINDS, "lr schedule after warmup"),
    "pretrain.warmup_epochs": (int, _PRE.schedule.warmup_epochs, None, "linear warmup epochs"),
    "pretrain.temperature": (float, _PRE.method.temperature, None, "SimCLR NT-Xent temperature"),
    "pretrain.ema_momentum": (float, _PRE.method.ema_momentum, None, "BYOL target momentum"),
    "pretrain.lambda_bt": (float, _PRE.method.lambda_bt, None, "Barlow Twins off-diagonal weight"),
    "pretrain.aug_sigma": (float, _PRE.augmentation.gaussian_sigma, None, "augmentation: additive Gaussian scale"),
    "pretrain.aug_mask_prob": (float, _PRE.augmentation.mask_prob, None, "augmentation: coordinate dropout probability"),
    "pretrain.aug_jitter": (float, _PRE.augmentation.scale_jitter, None, "augmentation: multiplicative jitter half-range"),
    "pretrain.disable_stop_gradient": (_flag, not _PRE.method.stop_gradient, None, "collapse-ablation switch for SimSiam"),
    "model.hidden_dim": (int, _default_arg(build_model, "hidden_dim"), None, "encoder hidden width"),
    "model.rep_dim": (int, _default_arg(build_model, "rep_dim"), None, "encoder output width"),
    "model.proj_dim": (int, _default_arg(build_model, "proj_dim"), None, "projector width (2 FC layers)"),
    "model.pred_hidden": (int, _default_arg(build_model, "pred_hidden"), None, "predictor hidden width"),
    "finetune.loss": (str, _FINE.loss, LOSS_KINDS, "fine-tuning loss"),
    "finetune.epochs": (int, _FINE.epochs, None, "fine-tuning epochs"),
    "finetune.batch_size": (int, _FINE.optimizer.batch_size, None, "fine-tuning batch size"),
    "finetune.optimizer": (str, _FINE.optimizer.kind, OPTIMIZER_KINDS, "fine-tuning optimizer"),
    "finetune.lr": (float, _FINE.optimizer.base_lr, None, "fine-tuning learning rate (not batch-scaled)"),
    "finetune.weight_decay": (float, _FINE.optimizer.weight_decay, None, "fine-tuning weight decay"),
    "finetune.momentum": (float, _FINE.optimizer.momentum, None, "fine-tuning SGD momentum"),
    "finetune.freeze": (str, "auto", ("auto", FULL_HEAD, LAST_LAYER_ONLY), "freeze policy override"),
    "finetune.tau": (_float_or_auto, "auto", None, "SuperLoss threshold; 'auto' means log(C)"),
    "finetune.lambda": (float, _FINE.superloss.lam, None, "SuperLoss regularization"),
    "finetune.clamp_mode": (str, _FINE.superloss.clamp_mode, CLAMP_MODES, "SuperLoss clamp direction"),
    "single_stage.epochs": (int, 60, None, "epochs for the from-scratch baseline"),
    "eval.knn_k": (int, _KNN.k, None, "kNN proxy neighbor count"),
    "eval.knn_metric": (str, _KNN.metric, KNN_METRICS, "kNN distance"),
    "eval.knn_weighting": (str, _KNN.weighting, KNN_WEIGHTINGS, "kNN vote weighting"),
    "eval.embedding_layer": (str, _default_arg(embed, "layer"), EMBED_LAYERS, "representation used by eval"),
    "eval.export_embeddings": (_flag, False, None, "write embeddings during eval subcommand"),
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

    def config_hash(self, unread: tuple[str, ...] = ()) -> str:
        """SHA-256 over the resolved keys, leaving out run.output_dir, which names
        where results land rather than what the experiment is, and the keys in
        ``unread``, where a name without a dot stands for every key of its group
        ("pretrain" for pretrain.*); identical experiments hash identically."""
        dropped = ("run.output_dir", *unread)
        kept = {key: value for key, value in self.values.items()
                if not any(key == name or key.startswith(name + ".") for name in dropped)}
        return hashlib.sha256(ExperimentConfig(kept).resolved_text().encode("utf-8")).hexdigest()


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _entry(item: str, where: str) -> tuple[str, object]:
    """One ``key = value`` item, parsed by its key's type; every error it raises
    is prefixed with ``where``."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected 'key = value', got '{item}'")
    key, raw = (part.strip() for part in item.split("=", 1))
    if key not in _SPEC:
        near = difflib.get_close_matches(key, _SPEC.keys(), n=1)
        hint = f" (did you mean '{near[0]}'?)" if near else ""
        raise ConfigError(f"{where}: unknown config key '{key}'{hint}")
    parse, _, allowed, _ = _SPEC[key]
    if len(raw.splitlines()) > 1:  # config.resolved holds one line per key
        raise ConfigError(f"{where}: key '{key}' takes one line, got {raw!r}")
    try:
        value = parse(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{where}: key '{key}' expects {_type_name(parse)}, got '{raw}'") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}: key '{key}' expects a finite number, got '{raw}'")
    if allowed is not None and value not in allowed:
        raise ConfigError(f"{where}: key '{key}' must be one of {allowed}, got '{value}'")
    return key, value


def _parse_file(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} at offset {exc.start})") from None
    lines = [(lineno, line.strip()) for lineno, line in enumerate(text.splitlines(), start=1)]
    return dict(_entry(line, f"{path}:{lineno}") for lineno, line in lines if line and not line.startswith("#"))


def config_load(path: str | Path | None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Defaults, then the file, then --set overrides; unknown keys are rejected."""
    values = {key: default for key, (_, default, _, _) in _SPEC.items()}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        values.update(_parse_file(p))
    values.update(_entry(item, "--set") for item in overrides or [])
    return ExperimentConfig(values)


def write_resolved(cfg: ExperimentConfig, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "config.resolved").write_text(cfg.resolved_text(), encoding="utf-8")


def describe_defaults() -> str:
    lines = []
    for key, (parse, default, allowed, help_text) in _SPEC.items():
        extra = f" choices={list(allowed)}" if allowed else ""
        lines.append(f"{key} ({_type_name(parse)}, default {_format_value(default)}){extra}: {help_text}")
    return "\n".join(lines)
