"""Command-line entry point and experiment orchestration.

Subcommands: generate | corrupt | pretrain | finetune | run |
run-single-stage | eval | gradcheck. Every subcommand reads its settings
from a config file plus --set overrides and writes its outputs under
run.output_dir. Errors exit nonzero with one machine-parsable line.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import io as tio
from .config import ExperimentConfig, config_load, describe_defaults, write_resolved
from .data import AugmentationSpec, Dataset, ImbalanceSpec, NoiseSpec, exponential_profile
from .errors import ConfigError, ContractError, TailspinError, ValidationError
from .evaluation import KNNConfig, accuracy_suite, embed, export_embeddings, knn_classify
from .gradcheck import TOLERANCE, battery
from .losses import SuperLossParams
from .nn import build_model
from .optim import OptimizerConfig, ScheduleConfig
from .pipeline import (
    FinetuneSettings,
    PretrainSettings,
    build_finetune_head,
    check_test_set,
    corrupt_train,
    evaluate_classifier,
    finetune,
    make_datasets,
    pretrain,
    run_single_stage,
    select_freeze_policy,
)
from .seeding import derive
from .ssl import SSLMethod

log = logging.getLogger("tailspin")


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("TAILSPIN_LOG", "info").lower(), logging.INFO
    )
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")


# ---------------------------------------------------------------------------
# config -> settings objects

# per settings prefix, the config key of each library field that the key's last part does not name
_KEY_OF_FIELD = {"data": {"cluster_separation": "data.separation"}, "eval": {"k": "eval.knn_k"},
                 "finetune": {"base_lr": "finetune.lr"}, "single_stage": {"base_lr": "finetune.lr"},
                 "pretrain": {"gaussian_sigma": "pretrain.aug_sigma", "mask_prob": "pretrain.aug_mask_prob",
                              "scale_jitter": "pretrain.aug_jitter"}}


def _settings(cfg: ExperimentConfig, prefix: str, reference: int | None = None):
    """The library settings that the ``<prefix>.*`` keys describe: PretrainSettings for
    ``pretrain``; FinetuneSettings for ``finetune`` and ``single_stage``, which share
    the finetune.* keys but each have their own epoch count; KNNConfig for ``eval``,
    checked against ``reference`` rows if given; build_model's width arguments for
    ``model``; and for ``data`` the clean train and test sets. A library check's error
    names the config key the user set, not the library field it feeds."""
    try:
        return _build_settings(cfg, prefix, reference)
    except (ValidationError, ContractError) as exc:
        keys = _KEY_OF_FIELD.get(prefix)
        if not keys:
            raise
        raise type(exc)(re.sub(rf"\b({'|'.join(keys)})\b", lambda m: keys[m[1]], str(exc))) from None


def _build_settings(cfg: ExperimentConfig, prefix: str, reference: int | None):
    if prefix == "data":
        return make_datasets(cfg["data.num_classes"], cfg["data.per_class"], cfg["data.dim"],
                             cfg["data.separation"], cfg.seed, cfg["data.test_per_class"])
    if prefix == "pretrain":
        epochs = cfg["pretrain.epochs"]
        return PretrainSettings(
            method=SSLMethod(
                cfg["pretrain.method"],
                temperature=cfg["pretrain.temperature"],
                ema_momentum=cfg["pretrain.ema_momentum"],
                lambda_bt=cfg["pretrain.lambda_bt"],
                stop_gradient=not cfg["pretrain.disable_stop_gradient"],
            ),
            optimizer=OptimizerConfig(
                kind=cfg["pretrain.optimizer"],
                base_lr=cfg["pretrain.base_lr"],
                weight_decay=cfg["pretrain.weight_decay"],
                momentum=cfg["pretrain.momentum"],
                batch_size=cfg["pretrain.batch_size"],
            ),
            schedule=ScheduleConfig(
                kind=cfg["pretrain.schedule"],
                warmup_epochs=min(cfg["pretrain.warmup_epochs"], max(epochs - 1, 0)),
                total_epochs=epochs,
            ),
            augmentation=AugmentationSpec(
                gaussian_sigma=cfg["pretrain.aug_sigma"],
                mask_prob=cfg["pretrain.aug_mask_prob"],
                scale_jitter=cfg["pretrain.aug_jitter"],
            ),
        )
    if prefix in ("finetune", "single_stage"):
        return FinetuneSettings(
            loss=cfg["finetune.loss"],
            optimizer=OptimizerConfig(
                kind=cfg["finetune.optimizer"],
                base_lr=cfg["finetune.lr"],
                weight_decay=cfg["finetune.weight_decay"],
                momentum=cfg["finetune.momentum"],
                batch_size=cfg["finetune.batch_size"],
            ),
            epochs=cfg[f"{prefix}.epochs"],
            superloss=SuperLossParams(tau=None if cfg["finetune.tau"] == "auto" else cfg["finetune.tau"],
                                      lam=cfg["finetune.lambda"], clamp_mode=cfg["finetune.clamp_mode"]),
        )
    if prefix == "eval":
        knn = KNNConfig(k=cfg["eval.knn_k"], metric=cfg["eval.knn_metric"], weighting=cfg["eval.knn_weighting"])
        if reference is not None:
            knn.check_reference(reference)
        return knn
    if prefix == "model":
        dims = {key: cfg[f"model.{key}"] for key in ("hidden_dim", "rep_dim", "proj_dim", "pred_hidden")}
        for key, width in dims.items():
            if width < 1:
                raise ValidationError(f"model.{key} must be >= 1, got {width}")
        return dims
    raise KeyError(f"no settings for config prefix '{prefix}'")


def _corrupted_size(cfg: ExperimentConfig) -> int:
    """Validate the corruption settings and count the corrupted training set, before anything is written."""
    ImbalanceSpec(cfg["data.gamma"]), NoiseSpec(cfg["data.nu"])
    return int(exponential_profile(cfg["data.per_class"], cfg["data.gamma"], cfg["data.num_classes"]).sum())


def _save_dataset(ds: Dataset, directory: Path, cfg: ExperimentConfig, gamma: float = 1.0, nu: float = 0.0) -> None:
    """Every dataset directory carries the same provenance block."""
    true_counts = ds.true_counts()
    tio.save_dataset(ds, directory, provenance={
        "seed": cfg.seed,
        "gamma": gamma,
        "nu": nu,
        "class_counts": ds.observed_counts().tolist(),
        "min_class_count": int(true_counts.min()),
        "max_class_count": int(true_counts.max()),
    })


def _fresh_metrics(out: Path) -> tio.MetricsWriter:
    """A metrics sink that starts the file over; only ``finetune`` appends."""
    (out / "metrics.jsonl").unlink(missing_ok=True)
    return tio.MetricsWriter(out / "metrics.jsonl")


def _recorded(cfg: ExperimentConfig, key: str, value, source: Path):
    """A setting taken from an artifact; a non-default config value that contradicts it is an error."""
    if value is None:
        raise ValidationError(f"{source} records no value for {key}")
    if not cfg.is_default(key) and cfg[key] != value:
        raise ConfigError(f"{key}={cfg[key]} contradicts {source}, which records {value}")
    return value


def _train_dir(out: Path) -> Path:
    corrupted = out / "data" / "train-corrupted"
    return corrupted if (corrupted / "manifest.json").is_file() else out / "data" / "train"


# the config keys each supervised stage's command never reads, left out of
# summary.json's config_hash; a key not listed is hashed
_UNREAD = {
    "finetune": ("single_stage", "eval.embedding_layer", "eval.export_embeddings"),
    "single_stage": ("pretrain", "eval", "finetune.epochs"),
}


def _save_and_summarize(cfg: ExperimentConfig, model, head, test: Dataset, stages: dict,
                        knn_accuracy: float | None = None) -> None:
    """The last step of both supervised stages, named by the last key of ``stages``:
    checkpoints/finetuned, the classifier's test accuracy and summary.json."""
    out = cfg.output_dir
    stage = list(stages)[-1]
    tio.save_checkpoint(out / "checkpoints" / "finetuned", model, head, extra={"stage": stage})
    report = evaluate_classifier(model, head, test)
    summary = {
        "config_hash": cfg.config_hash(_UNREAD[stage]),
        "seed": cfg.seed,
        "overall_accuracy": report.overall,
        "balanced_accuracy": report.balanced,
        "per_class_accuracy": report.per_class_json(),
        "knn_accuracy": knn_accuracy,
        "stages": stages,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    log.info("%s done: balanced accuracy %.4f", stage, report.balanced)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_generate(cfg: ExperimentConfig) -> None:
    train, test = _settings(cfg, "data")
    _save_dataset(train, cfg.output_dir / "data" / "train", cfg)
    _save_dataset(test, cfg.output_dir / "data" / "test", cfg)
    log.info("generated %d train and %d test samples", train.num_samples, test.num_samples)


def _cmd_corrupt(cfg: ExperimentConfig) -> None:
    gamma, nu = cfg["data.gamma"], cfg["data.nu"]
    ds = corrupt_train(tio.load_dataset(cfg.output_dir / "data" / "train"), gamma, nu, cfg.seed)
    _save_dataset(ds, cfg.output_dir / "data" / "train-corrupted", cfg, gamma, nu)
    log.info("corrupted train set: gamma=%s nu=%s counts=%s", gamma, nu, ds.observed_counts().tolist())


def _cmd_pretrain(cfg: ExperimentConfig) -> None:
    out = cfg.output_dir
    train, test = tio.load_dataset(_train_dir(out)), tio.load_dataset(out / "data" / "test")
    settings, dims = _settings(cfg, "pretrain"), _settings(cfg, "model")
    model = build_model(settings.method.name, train.feature_dim, seed=derive(cfg.seed, "model"), **dims)
    with _fresh_metrics(out) as sink:
        records = pretrain(model, train, settings, cfg.seed, knn_cfg=_settings(cfg, "eval"), test_set=test, sink=sink)
    extra = {"stage": "pretrain", "epochs": len(records), "knn_accuracy": records[-1].knn_accuracy}
    tio.save_checkpoint(out / "checkpoints" / "pretrained", model, extra=extra)
    log.info("pretraining done: %s epochs of %s", len(records), settings.method.name)


def _cmd_finetune(cfg: ExperimentConfig) -> None:
    out = cfg.output_dir
    train_dir, checkpoint = _train_dir(out), out / "checkpoints" / "pretrained"
    train, provenance = tio._load_dataset(train_dir)
    test = tio.load_dataset(out / "data" / "test")
    model, _, pretrained = tio.load_checkpoint(checkpoint)
    nu = NoiseSpec(_recorded(cfg, "data.nu", provenance.get("nu"), train_dir)).nu
    method = _recorded(cfg, "pretrain.method", model.method, checkpoint)
    settings, freeze = _settings(cfg, "finetune"), cfg["finetune.freeze"]
    policy = select_freeze_policy(method, nu) if freeze == "auto" else freeze
    head = build_finetune_head(model, train.num_classes, derive(cfg.seed, "model"))
    with tio.MetricsWriter(out / "metrics.jsonl") as sink:
        finetune(model, head, train, settings, policy, cfg.seed, test_set=test, sink=sink)
    stages = {"pretrain": pretrained.get("epochs"), "finetune": settings.epochs}
    _save_and_summarize(cfg, model, head, test, stages, pretrained.get("knn_accuracy"))


def _cmd_run(cfg: ExperimentConfig) -> None:
    """generate -> corrupt -> pretrain -> finetune in one process; every stage's settings
    are resolved first, so bad input fails before the first stage writes anything."""
    _settings(cfg, "pretrain"), _settings(cfg, "model")
    superloss = _settings(cfg, "finetune").superloss
    _settings(cfg, "eval", reference=_corrupted_size(cfg))
    superloss.resolved(cfg["data.num_classes"])  # tau 'auto' is log(C), checked once data.* are
    _cmd_generate(cfg)
    _cmd_corrupt(cfg)
    _cmd_pretrain(cfg)
    _cmd_finetune(cfg)


def _cmd_run_single_stage(cfg: ExperimentConfig) -> None:
    """The baseline trains a SimSiam-shaped encoder and head from scratch; it
    reads no pretrain.* key, and it trains every layer, so a freeze policy is an error."""
    out = cfg.output_dir
    settings, dims = _settings(cfg, "single_stage"), _settings(cfg, "model")
    if not cfg.is_default("finetune.freeze"):
        raise ConfigError(f"finetune.freeze={cfg['finetune.freeze']} does not apply to run-single-stage, "
                          "which trains the encoder and the whole head")
    _corrupted_size(cfg)
    settings.superloss.resolved(cfg["data.num_classes"])  # tau 'auto' is log(C), checked once data.* are
    _cmd_generate(cfg)
    _cmd_corrupt(cfg)
    train, test = tio.load_dataset(out / "data" / "train-corrupted"), tio.load_dataset(out / "data" / "test")
    model = build_model("simsiam", train.feature_dim, seed=derive(cfg.seed, "model"), **dims)
    head = build_finetune_head(model, train.num_classes, derive(cfg.seed, "model"))
    with _fresh_metrics(out) as sink:
        run_single_stage(model, head, train, settings, cfg.seed, sink=sink)
    _save_and_summarize(cfg, model, head, test, {"single_stage": settings.epochs})


def _cmd_eval(cfg: ExperimentConfig) -> None:
    out = cfg.output_dir
    train = tio.load_dataset(_train_dir(out))
    test = tio.load_dataset(out / "data" / "test")
    check_test_set(train, test)
    model, head, _ = tio.load_checkpoint(out / "checkpoints" / "finetuned")
    layer = cfg["eval.embedding_layer"]
    reference = embed(train, model, layer=layer)
    queries = embed(test, model, layer=layer)
    knn_preds = knn_classify(reference, queries, _settings(cfg, "eval"))
    knn_report = accuracy_suite(knn_preds, queries.labels_true, test.num_classes)
    payload = {"knn_accuracy": knn_report.overall, "knn_balanced_accuracy": knn_report.balanced}
    if head is not None:
        report = evaluate_classifier(model, head, test)
        payload.update(
            overall_accuracy=report.overall,
            balanced_accuracy=report.balanced,
            per_class_accuracy=report.per_class_json(),
            confusion=report.confusion.tolist(),
        )
    if cfg["eval.export_embeddings"]:
        export_embeddings(queries, out / "embeddings" / "test")
        export_embeddings(reference, out / "embeddings" / "train")
    (out / "eval.json").write_text(json.dumps(payload, indent=2) + "\n")
    log.info("eval done: %s", {k: v for k, v in payload.items() if not isinstance(v, list)})


def _cmd_gradcheck(cfg: ExperimentConfig) -> None:
    results = battery(instances=5, seed=cfg.seed)
    width = max(len(name) for name, _ in results)
    print(f"{'objective'.ljust(width)}  max_rel_err  limit     status")
    failed = False
    for name, err in results:
        ok = err <= TOLERANCE
        failed = failed or not ok
        print(f"{name.ljust(width)}  {err:.3e}    {TOLERANCE:.0e}  {'ok' if ok else 'FAIL'}")
    if failed:
        raise TailspinError("gradient check failed")


_COMMANDS = {
    "generate": _cmd_generate,
    "corrupt": _cmd_corrupt,
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "run": _cmd_run,
    "run-single-stage": _cmd_run_single_stage,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailspin",
        description="Two-stage learning under class imbalance and label noise, at desk scale.",
        epilog="Config keys (see README for details):\n" + describe_defaults(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=sorted(_COMMANDS), help="subcommand to run")
    parser.add_argument("--config", metavar="PATH", default=None, help="config file (key = value lines)")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append", default=[], dest="overrides",
                        help="override one config key (repeatable)")
    parser.add_argument("--output", metavar="DIR", default=None, help="shorthand for --set run.output_dir=DIR")
    parser.add_argument("--seed", metavar="N", type=int, default=None, help="shorthand for --set run.seed=N")
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        overrides = list(args.overrides)
        if args.output is not None:
            overrides.append(f"run.output_dir={args.output}")
        if args.seed is not None:
            overrides.append(f"run.seed={args.seed}")
        cfg = config_load(args.config, overrides)
        if args.command != "gradcheck":
            write_resolved(cfg, cfg.output_dir)
            if args.config is not None:
                (cfg.output_dir / "config.input").write_bytes(Path(args.config).read_bytes())
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # an overflow fails as one NumericError line
            _COMMANDS[args.command](cfg)
    except TailspinError as exc:
        print(f"{exc.cli_class}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
