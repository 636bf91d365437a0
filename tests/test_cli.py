import inspect
import json
import re
import shutil
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import params_digest
from tailspin import io as tio
from tailspin.cli import _settings, main
from tailspin.config import _SPEC, _flag, _float_or_auto, _format_value, config_load
from tailspin.evaluation import KNNConfig, accuracy_suite, embed, knn_classify
from tailspin.io import load_arrays, load_checkpoint, load_dataset, save_dataset
from tailspin.nn import build_model
from tailspin.pipeline import FinetuneSettings, PretrainSettings, make_datasets
from tailspin.ssl import SSLMethod


def run_cli(*args):
    return main(list(args))


SSL_METHODS = ("simsiam", "simclr", "byol", "barlow_twins")

FAST = [
    "--set", "data.per_class=30",
    "--set", "data.test_per_class=20",
    "--set", "pretrain.epochs=3",
    "--set", "pretrain.batch_size=16",
    "--set", "finetune.epochs=2",
    "--set", "single_stage.epochs=2",
    "--set", "eval.knn_k=5",
]


class TestRunDeterminism:
    def test_byte_identical_metrics_and_summary(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = run_cli("run", "--seed", "7", "--output", str(out), *FAST,
                           "--set", "data.gamma=5", "--set", "data.nu=0.3")
            assert code == 0
        assert (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_summary_contains_hash_and_metrics(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--seed", "3", "--output", str(out), *FAST) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) >= {"config_hash", "seed", "balanced_accuracy", "knn_accuracy"}
        assert 0.0 <= summary["balanced_accuracy"] <= 1.0 and summary["knn_accuracy"] is not None
        resolved = (out / "config.resolved").read_text()
        assert "run.seed = 3" in resolved

    def test_config_file_copied_byte_for_byte(self, tmp_path):
        text = "# desk run\ndata.per_class = 30\n\ndata.test_per_class=20   \npretrain.epochs = 3"
        (tmp_path / "exp.cfg").write_text(text)
        out = tmp_path / "run"
        assert run_cli("generate", "--config", str(tmp_path / "exp.cfg"), "--output", str(out)) == 0
        assert (out / "config.input").read_bytes() == text.encode()
        assert "data.per_class = 30" in (out / "config.resolved").read_text()

    def test_model_widths_come_from_config(self, tmp_path):
        widths = ["--set", "model.hidden_dim=16", "--set", "model.rep_dim=8",
                  "--set", "model.proj_dim=12", "--set", "model.pred_hidden=5"]
        for cmd, checkpoint in (("run", "pretrained"), ("run-single-stage", "finetuned")):
            out = tmp_path / cmd
            assert run_cli(cmd, "--seed", "3", "--output", str(out), *FAST, *widths) == 0
            model, _, _ = load_checkpoint(out / "checkpoints" / checkpoint)
            assert model.encoder.dims == [8, 16, 8]
            assert model.projector.dims == [8, 12, 12]
            assert model.predictor.dims == [12, 5, 12]

    def test_record_count_one_per_epoch_per_stage(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--seed", "3", "--output", str(out), *FAST) == 0
        records = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert [r["stage"] for r in records] == ["pretrain"] * 3 + ["finetune"] * 2
        # the kNN proxy is reported on the last pretraining epoch only
        knn = [r["knn_accuracy"] for r in records if r["stage"] == "pretrain"]
        assert knn[-1] is not None and all(v is None for v in knn[:-1])


class TestStagewiseCommands:
    def test_generate_corrupt_pretrain_finetune_eval(self, tmp_path):
        out = tmp_path / "exp"
        base = ["--seed", "5", "--output", str(out), *FAST,
                "--set", "data.gamma=4", "--set", "data.nu=0.2"]
        assert run_cli("generate", *base) == 0
        assert load_dataset(out / "data" / "train").num_samples == 90
        assert run_cli("corrupt", *base) == 0
        corrupted = load_dataset(out / "data" / "train-corrupted")
        assert corrupted.true_counts().min() < 30
        assert run_cli("pretrain", *base) == 0
        assert run_cli("finetune", *base) == 0
        assert run_cli("eval", *base, "--set", "eval.export_embeddings=true") == 0
        payload = json.loads((out / "eval.json").read_text())
        assert "knn_accuracy" in payload and "balanced_accuracy" in payload
        assert (out / "embeddings" / "test" / "features.bin").is_file()

    def test_exported_embeddings_reproduce_the_eval_knn(self, tmp_path):
        # an export is a dataset directory: its train rows, voting for its test rows
        # with eval's k-NN settings, give eval.json's accuracies exactly
        out = tmp_path / "exp"
        base = ["--seed", "5", "--output", str(out), *FAST, "--set", "data.gamma=4", "--set", "data.nu=0.3"]
        for cmd in ("generate", "corrupt", "pretrain", "finetune"):
            assert run_cli(cmd, *base) == 0
        assert run_cli("eval", *base, "--set", "eval.export_embeddings=true") == 0
        payload = json.loads((out / "eval.json").read_text())
        reference, queries = load_dataset(out / "embeddings" / "train"), load_dataset(out / "embeddings" / "test")
        predictions = knn_classify(reference, queries, _settings(config_load(None, ["eval.knn_k=5"]), "eval"))
        report = accuracy_suite(predictions, queries.labels_true, queries.num_classes)
        assert (report.overall, report.balanced) == (payload["knn_accuracy"], payload["knn_balanced_accuracy"])
        # the observed labels travel with the export, as a k-NN noise estimate needs them
        corrupted = load_dataset(out / "data" / "train-corrupted")
        assert np.array_equal(reference.labels_observed, corrupted.labels_observed)
        assert not np.array_equal(reference.labels_observed, reference.labels_true)
        assert np.array_equal(queries.labels_true, load_dataset(out / "data" / "test").labels_true)

    def test_corrupt_severe_imbalance_provenance_min_class_50(self, tmp_path):
        out = tmp_path / "severe"
        base = ["--seed", "5", "--output", str(out),
                "--set", "data.num_classes=10", "--set", "data.per_class=5000",
                "--set", "data.test_per_class=10", "--set", "data.gamma=100"]
        assert run_cli("generate", *base) == 0
        assert run_cli("corrupt", *base) == 0
        prov = load_arrays(out / "data" / "train-corrupted", "dataset")[1]["provenance"]
        assert prov["min_class_count"] == 50
        assert prov["max_class_count"] == 5000

    def test_freeze_override_trains_last_layer_only(self, tmp_path):
        out = tmp_path / "frozen"
        assert run_cli("run", "--seed", "4", "--output", str(out), *FAST,
                       "--set", "finetune.freeze=last_layer_only") == 0
        pre_model, _, _ = load_checkpoint(out / "checkpoints" / "pretrained")
        fin_model, head, _ = load_checkpoint(out / "checkpoints" / "finetuned")
        # encoder untouched by fine-tuning, and the first head layer kept its
        # pretrained projector weights under the last-layer-only policy
        assert params_digest(pre_model.encoder.parameters()) == params_digest(fin_model.encoder.parameters())
        assert params_digest([head.layers[0].weight]) == params_digest([pre_model.projector.layers[0].weight])

    def test_finetune_reads_nu_from_corrupted_provenance(self, tmp_path):
        out = tmp_path / "noisy"
        base = ["--seed", "4", "--output", str(out), *FAST]
        assert run_cli("generate", *base) == 0
        assert run_cli("corrupt", *base, "--set", "data.nu=0.7") == 0
        assert run_cli("pretrain", *base) == 0
        assert run_cli("finetune", *base) == 0
        pre_model, _, _ = load_checkpoint(out / "checkpoints" / "pretrained")
        _, head, _ = load_checkpoint(out / "checkpoints" / "finetuned")
        # nu=0.7 is above simsiam's threshold: last-layer-only, so layer 0 keeps
        # the pretrained projector weights
        assert params_digest([head.layers[0].weight]) == params_digest([pre_model.projector.layers[0].weight])

    def test_finetune_reads_each_directory_once(self, monkeypatch, tmp_path):
        # the corrupted train set yields both the samples and the recorded nu
        out = tmp_path / "reads"
        base = ["--seed", "4", "--output", str(out), *FAST]
        for cmd in ("generate", "corrupt", "pretrain"):
            assert run_cli(cmd, *base) == 0
        reads = Counter()
        load_arrays = tio.load_arrays

        def counting(directory, kind):
            reads[Path(directory).relative_to(out).as_posix()] += 1
            return load_arrays(directory, kind)

        monkeypatch.setattr(tio, "load_arrays", counting)
        assert run_cli("finetune", *base) == 0
        assert reads == {"data/train-corrupted": 1, "data/test": 1, "checkpoints/pretrained": 1}

    def test_finetune_rejects_config_contradicting_artifacts(self, capsys, tmp_path):
        out = tmp_path / "conflict"
        base = ["--seed", "4", "--output", str(out), *FAST]
        for cmd in ("generate", "corrupt", "pretrain"):
            assert run_cli(cmd, *base, "--set", "data.nu=0.7") == 0
        records = (out / "metrics.jsonl").read_text()
        for override in ("data.nu=0.3", "pretrain.method=byol"):
            assert run_cli("finetune", *base, "--set", override) == 2
            assert capsys.readouterr().err.strip().splitlines()[-1].startswith("config-error:")
        assert (out / "metrics.jsonl").read_text() == records

    def test_finetune_without_recorded_nu_fails_before_training(self, capsys, tmp_path):
        out = tmp_path / "unrecorded"
        base = ["--seed", "4", "--output", str(out), *FAST]
        for cmd in ("generate", "corrupt", "pretrain"):
            assert run_cli(cmd, *base) == 0
        corrupted = out / "data" / "train-corrupted"
        save_dataset(load_dataset(corrupted), corrupted, provenance={"seed": 4})
        records = (out / "metrics.jsonl").read_text()
        capsys.readouterr()
        assert run_cli("finetune", *base) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation-error:")
        assert "records no value for data.nu" in lines[0]
        assert (out / "metrics.jsonl").read_text() == records

    @pytest.mark.parametrize("nu", ['"0.4"', "7.5", "true"])
    def test_finetune_with_recorded_nu_not_in_range_fails_before_training(self, capsys, tmp_path, nu):
        out = tmp_path / "unusable"
        base = ["--seed", "4", "--output", str(out), *FAST]
        for cmd in ("generate", "corrupt", "pretrain"):
            assert run_cli(cmd, *base) == 0
        path = out / "data" / "train-corrupted" / "manifest.json"
        path.write_text(re.sub(r'"nu": [^,\n]+', f'"nu": {nu}', path.read_text()))
        records = (out / "metrics.jsonl").read_text()
        capsys.readouterr()
        assert run_cli("finetune", *base) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation-error:")
        assert f"nu must be a number in [0, 1), got {json.loads(nu)!r}" in lines[0]
        assert (out / "metrics.jsonl").read_text() == records

    def test_constant_schedule_holds_the_lr_after_warmup(self, tmp_path):
        base = ["--output", str(tmp_path), *FAST]
        assert run_cli("generate", *base) == 0
        assert run_cli("pretrain", *base, "--set", "pretrain.schedule=constant", "--set", "pretrain.epochs=5",
                       "--set", "pretrain.warmup_epochs=2", "--set", "pretrain.batch_size=64") == 0
        records = [json.loads(line) for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
        assert [r["lr"] for r in records] == [0.015, 0.03, 0.03, 0.03, 0.03]

    def test_pretrain_rerun_starts_metrics_over(self, tmp_path):
        out = tmp_path / "again"
        base = ["--seed", "2", "--output", str(out), *FAST]
        assert run_cli("generate", *base) == 0
        assert run_cli("pretrain", *base) == 0
        assert run_cli("pretrain", *base) == 0
        stages = [json.loads(l)["stage"] for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert stages == ["pretrain"] * 3

    def test_run_and_generate_corrupt_write_identical_datasets(self, tmp_path):
        settings = ["--seed", "6", *FAST, "--set", "data.gamma=4", "--set", "data.nu=0.3"]
        assert run_cli("run", "--output", str(tmp_path / "run"), *settings) == 0
        for cmd in ("generate", "corrupt"):
            assert run_cli(cmd, "--output", str(tmp_path / "stages"), *settings) == 0
        for split in ("train-corrupted", "test"):
            run_dir, stage_dir = tmp_path / "run" / "data" / split, tmp_path / "stages" / "data" / split
            names = sorted(p.name for p in run_dir.iterdir())
            assert names == sorted(p.name for p in stage_dir.iterdir())
            for name in names:
                assert (run_dir / name).read_bytes() == (stage_dir / name).read_bytes(), f"{split}/{name}"

    @pytest.mark.parametrize("method", SSL_METHODS)
    def test_chain_writes_the_same_files_as_run(self, tmp_path, method):
        settings = ["--seed", "6", *FAST, "--set", "data.gamma=4", "--set", "data.nu=0.3",
                    "--set", f"pretrain.method={method}"]
        for cmd in ("run", "eval"):
            assert run_cli(cmd, "--output", str(tmp_path / "run"), *settings) == 0
        for cmd in ("generate", "corrupt", "pretrain", "finetune", "eval"):
            assert run_cli(cmd, "--output", str(tmp_path / "chain"), *settings) == 0
        # pretraining's float32 stage hands both the same float64 checkpoint
        for name in ("metrics.jsonl", "summary.json", "eval.json", "checkpoints/pretrained/params.bin",
                     "checkpoints/finetuned/params.bin"):
            assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "chain" / name).read_bytes(), name

    def test_true_label_tamper_leaves_checkpoints_identical(self, tmp_path):
        # training never reads labels_true: permuting the corrupted set's true
        # labels between corrupt and pretrain must not move any parameter
        base = ["--seed", "8", *FAST, "--set", "data.gamma=4", "--set", "data.nu=0.3"]
        clean, tampered = tmp_path / "clean", tmp_path / "tampered"
        for cmd in ("generate", "corrupt"):
            assert run_cli(cmd, "--output", str(clean), *base) == 0
        shutil.copytree(clean, tampered)
        path = tampered / "data" / "train-corrupted" / "labels_true.bin"
        labels = np.fromfile(path, dtype="<u4")
        permuted = np.random.default_rng(0).permutation(labels)
        assert not np.array_equal(permuted, labels)
        permuted.tofile(path)
        for out in (clean, tampered):
            for cmd in ("pretrain", "finetune"):
                assert run_cli(cmd, "--output", str(out), *base) == 0
        for checkpoint in ("pretrained", "finetuned"):
            params = [out / "checkpoints" / checkpoint / "params.bin" for out in (clean, tampered)]
            assert params[0].read_bytes() == params[1].read_bytes(), checkpoint

    def test_single_stage_run(self, tmp_path):
        out = tmp_path / "single"
        assert run_cli("run-single-stage", "--seed", "9", "--output", str(out), *FAST,
                       "--set", "finetune.loss=ce") == 0
        stages = {json.loads(l)["stage"] for l in (out / "metrics.jsonl").read_text().splitlines()}
        assert stages == {"single_stage"}
        assert (out / "summary.json").is_file()
        assert run_cli("eval", "--seed", "9", "--output", str(out), *FAST, "--set", "finetune.loss=ce") == 0
        assert "balanced_accuracy" in json.loads((out / "eval.json").read_text())

    def test_single_stage_reads_no_pretrain_method(self, tmp_path):
        # the baseline is a SimSiam-shaped encoder and head whatever pretrain.method names
        written = {}
        for method in SSL_METHODS:
            out = tmp_path / method
            assert run_cli("run-single-stage", "--seed", "9", "--output", str(out), *FAST,
                           "--set", f"pretrain.method={method}") == 0
            written[method] = [(out / name).read_bytes() for name in (
                "metrics.jsonl", "checkpoints/finetuned/params.bin", "checkpoints/finetuned/manifest.json")]
        for method in SSL_METHODS[1:]:
            assert written[method] == written["simsiam"], method

    def test_config_hash_leaves_out_keys_the_command_never_reads(self, tmp_path):
        # run-single-stage reads no pretrain.* key; finetune does not read eval.export_embeddings
        def written(out):
            return [(out / name).read_bytes() for name in ("metrics.jsonl", "summary.json")]

        plain, other = tmp_path / "single", tmp_path / "single-byol"
        assert run_cli("run-single-stage", "--seed", "9", "--output", str(plain), *FAST) == 0
        assert run_cli("run-single-stage", "--seed", "9", "--output", str(other), *FAST,
                       "--set", "pretrain.method=byol", "--set", "pretrain.epochs=7") == 0
        assert written(other) == written(plain)

        assert run_cli("run", "--seed", "9", "--output", str(tmp_path / "run"), *FAST) == 0
        for cmd in ("generate", "corrupt", "pretrain", "finetune"):
            assert run_cli(cmd, "--seed", "9", "--output", str(tmp_path / "chain"), *FAST,
                           "--set", "eval.export_embeddings=true") == 0
        assert written(tmp_path / "chain") == written(tmp_path / "run")


class TestDefaults:
    """The config's defaults are the library's: a config left at its defaults
    builds the settings a library user gets by leaving every argument out."""

    @pytest.mark.parametrize("method", SSL_METHODS)
    def test_pretrain_defaults(self, method):
        cfg = config_load(None, [f"pretrain.method={method}"])
        assert _settings(cfg, "pretrain") == PretrainSettings(SSLMethod(method))

    def test_finetune_knn_and_model_defaults(self):
        cfg = config_load(None)
        assert _settings(cfg, "finetune") == FinetuneSettings()
        assert _settings(cfg, "single_stage") == replace(FinetuneSettings(), epochs=cfg["single_stage.epochs"])
        assert _settings(cfg, "eval") == KNNConfig()
        widths = inspect.signature(build_model).parameters
        assert _settings(cfg, "model") == {
            key: widths[key].default for key in ("hidden_dim", "rep_dim", "proj_dim", "pred_hidden")}

    @pytest.mark.parametrize("key", [
        key for key in _SPEC
        if key.split(".")[0] in ("pretrain", "finetune", "model") and key != "finetune.freeze"
        or key.startswith("eval.knn_")
    ])
    def test_every_key_reaches_its_settings(self, key):
        # a key that is accepted and then dropped leaves the settings at their defaults
        _, default, allowed, _ = _SPEC[key]
        if allowed:
            value = next(v for v in allowed if v != default)
        elif isinstance(default, bool):
            value = not default
        elif isinstance(default, int):
            value = default + 1
        elif isinstance(default, float):
            value = default / 2 if default else 0.1
        else:  # finetune.tau: a number in place of 'auto'
            value = 0.5
        prefix = key.split(".")[0]
        changed = config_load(None, [f"{key}={_format_value(value)}"])
        assert _settings(changed, prefix) != _settings(config_load(None), prefix)

    def test_defaults_taken_from_function_signatures(self):
        cfg = config_load(None)
        assert cfg["data.test_per_class"] == inspect.signature(make_datasets).parameters["test_per_class"].default
        assert cfg["eval.embedding_layer"] == inspect.signature(embed).parameters["layer"].default


class TestGradcheckCommand:
    def test_exit_zero_and_table(self, capsys):
        assert run_cli("gradcheck") == 0
        table = capsys.readouterr().out
        assert "max_rel_err" in table
        rows = [line.split() for line in table.strip().splitlines()[1:]]
        # one row per loss kind, then one per SSL method; no alias rows such as "sl"
        assert [row[0] for row in rows] == ["ce", "ce_sl", "la", "la_sl", "simsiam", "simclr", "byol", "barlow_twins"]
        assert all(row[-1] == "ok" for row in rows)


class TestErrorReporting:
    def test_unknown_key_machine_parsable_exit_2(self, capsys, tmp_path):
        code = run_cli("run", "--output", str(tmp_path / "x"), "--set", "pretrain.methd=simsiam")
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err.startswith("config-error:")
        assert "pretrain.method" in err

    def test_validation_error_exit_1(self, capsys, tmp_path):
        # corruption values are validated even where they would leave the data as it is
        for override in ("data.nu=2.0", "data.gamma=0.5", "data.nu=-0.1"):
            out = tmp_path / override
            assert run_cli("run", "--output", str(out), "--set", override, *FAST) == 1
            err = capsys.readouterr().err.strip().splitlines()[-1]
            assert err.startswith("validation-error:"), override
            assert not (out / "data").exists(), override

    # an override is one or more space-separated key=value settings; the error
    # line must name the offending setting as a whole word
    @pytest.mark.parametrize("override, code, error, commands, named", [
        pytest.param(override, code, error, commands, named, id=f"{override}-{code}-{error}")
        for override, code, error, commands, named in [
            ("finetune.tau=abc", 2, "config-error", ["run"], "finetune.tau"),
            ("finetune.tau=nan", 2, "config-error", ["run", "run-single-stage"], "finetune.tau"),
            ("eval.knn_k=100000", 1, "contract-error", ["run"], "eval.knn_k"),
            ("finetune.lr=nan", 2, "config-error", ["run"], "finetune.lr"),
            ("model.hidden_dim=0", 1, "validation-error", ["run"], "model.hidden_dim"),
            ("pretrain.batch_size=1", 1, "validation-error", ["run"], "batch_size"),
            # positive, but 1/temperature overflows to inf
            ("pretrain.method=simclr pretrain.temperature=1e-310", 1, "validation-error", ["run"], "temperature"),
            # finite reciprocals, but the gradients overflowed mid-run, after data/ was written
            ("pretrain.method=simclr pretrain.temperature=1e-300", 1, "validation-error", ["run"], "temperature"),
            ("pretrain.method=simclr pretrain.temperature=1e-100", 1, "validation-error", ["run"], "temperature"),
            ("finetune.lambda=0", 1, "validation-error", ["run"], "lambda"),
            # only SimSiam has a stop-gradient; only the training loop reads a freeze policy
            ("pretrain.method=byol pretrain.disable_stop_gradient=true", 1, "validation-error", ["run"], "stop_gradient"),
            ("finetune.freeze=last_layer_only", 2, "config-error", ["run-single-stage"], "finetune.freeze"),
            # finite, but SuperLoss's (l - tau) * sigma* or (l - tau) / lambda overflows
            ("finetune.tau=1e308", 1, "validation-error", ["run", "run-single-stage"], "tau"),
            ("finetune.tau=-1e300 finetune.lambda=1e-300", 1, "validation-error", ["run", "run-single-stage"], "tau"),
            # tau 'auto' is log 3 here, too large for this lambda; run found it after pretraining
            ("finetune.lambda=3e-299", 1, "validation-error", ["run", "run-single-stage"], "tau"),
            # per_class=30 at gamma=1000 gives the profile [30, 1, 0]
            ("data.gamma=1000", 1, "validation-error", ["run", "run-single-stage"], "gamma"),
            ("data.nu=2.0", 1, "validation-error", ["run-single-stage"], "nu"),
            ("finetune.epochs=-1", 1, "validation-error", ["run"], "epochs"),
            ("single_stage.epochs=0", 1, "validation-error", ["run-single-stage"], "epochs"),
            ("pretrain.epochs=0", 1, "validation-error", ["run"], "epochs"),
            # -1 is below the range, not above it: the message states [0, total_epochs)
            ("pretrain.warmup_epochs=-1 pretrain.epochs=2", 1, "validation-error", ["run"],
             "warmup_epochs must lie in [0, total_epochs) = [0, 2), got -1"),
            ("pretrain.momentum=5", 1, "validation-error", ["run"], "momentum"),
            ("finetune.optimizer=sgd finetune.momentum=-5", 1, "validation-error", ["run"], "momentum"),
            ("pretrain.weight_decay=-1", 1, "validation-error", ["run"], "weight_decay"),
            ("pretrain.aug_jitter=5", 1, "validation-error", ["run"], "pretrain.aug_jitter"),
            ("pretrain.aug_sigma=-1", 1, "validation-error", ["run"], "pretrain.aug_sigma"),
            ("pretrain.ema_momentum=2", 1, "validation-error", ["run"], "ema_momentum"),
            # finite, but the class means would overflow the float32 features
            ("data.separation=1e300", 1, "validation-error", ["run", "run-single-stage"], "data.separation"),
            ("data.per_class=0", 1, "validation-error", ["run", "run-single-stage"], "per_class"),
            ("data.test_per_class=0", 1, "validation-error", ["run", "run-single-stage"], "test_per_class"),
        ]
    ])
    def test_bad_input_fails_before_training(self, capsys, tmp_path, override, code, error, commands, named):
        settings = [arg for item in override.split() for arg in ("--set", item)]
        for cmd in commands:
            out = tmp_path / cmd
            assert run_cli(cmd, "--output", str(out), *FAST, *settings) == code, cmd
            lines = capsys.readouterr().err.strip().splitlines()
            line = lines[-1]
            assert [entry for entry in lines if re.match(r"[a-z-]*error: ", entry)] == [line], cmd
            assert line.startswith(f"{error}:"), cmd
            assert re.search(rf"\b{re.escape(named)}\b", line), (cmd, line)
            metrics = out / "metrics.jsonl"
            assert not metrics.exists() or metrics.read_text() == "", cmd
            assert not (out / "data").exists() and not (out / "checkpoints").exists(), cmd

    def test_temperature_at_floor_trains(self, tmp_path):
        out = tmp_path / "floor"
        assert run_cli("run", "--output", str(out), *FAST,
                       "--set", "pretrain.method=simclr", "--set", "pretrain.temperature=1e-4") == 0
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert lines and all(np.isfinite(json.loads(line)["loss"]) for line in lines)

    def test_adam_overflow_is_one_numeric_error(self, capsys, tmp_path):
        # the squared weight-decayed gradient overflows; training must stop, not stall
        out = tmp_path / "decay"
        assert run_cli("run", "--output", str(out), *FAST, "--set", "finetune.weight_decay=1e300") == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert [line for line in lines if line.startswith("numeric-error:")] == lines[-1:]

    # the parameters reach ~1e300 and the next forward matmul overflows; that must be
    # one numeric-error line, with no NumPy warning (an error under the suite's filter).
    # With one batch per epoch the overflow first shows outside a training epoch: in the
    # per-epoch test evaluation, the kNN proxy's embed, or the final evaluation.
    @pytest.mark.parametrize("command, override", [
        pytest.param(command, override, id=override) for command, override in (
            ("run", "finetune.lr=1e300"),
            ("run", "pretrain.base_lr=1e300"),
            ("run", "pretrain.weight_decay=1e300"),
            ("run", "finetune.epochs=1 finetune.batch_size=128 finetune.lr=1e300"),
            ("run", "pretrain.epochs=1 pretrain.batch_size=128 pretrain.base_lr=1e300"),
            ("run-single-stage", "single_stage.epochs=1 finetune.batch_size=128 finetune.lr=1e300"),
        )
    ])
    def test_overflowing_parameters_are_one_numeric_error(self, capsys, tmp_path, command, override):
        settings = [arg for item in override.split() for arg in ("--set", item)]
        assert run_cli(command, "--output", str(tmp_path), *FAST, *settings) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert [line for line in lines if re.match(r"[a-z-]+-error:", line)] == lines[-1:]
        assert lines[-1].startswith("numeric-error:")

    def test_truncated_checkpoint_is_validation_error(self, capsys, tmp_path):
        out = tmp_path / "cut"
        assert run_cli("run", "--output", str(out), *FAST) == 0
        params = out / "checkpoints" / "finetuned" / "params.bin"
        params.write_bytes(params.read_bytes()[:-8])
        assert run_cli("eval", "--output", str(out), *FAST) == 1
        assert capsys.readouterr().err.strip().splitlines()[-1].startswith("validation-error:")

    def test_bad_checkpoint_manifest_is_validation_error(self, capsys, tmp_path):
        out = tmp_path / "bad"
        assert run_cli("run", "--output", str(out), *FAST) == 0
        path = out / "checkpoints" / "finetuned" / "manifest.json"
        original = json.loads(path.read_text())

        def swap_first_shape(m):  # same number of values, so only the layer shapes can tell
            m["params"]["encoder.0.weight"].reverse()

        def grow_first_shape(m):
            m["params"]["encoder.0.weight"][0] += 1

        def rename_second_projector_layer(m):  # the projector then ends after one layer
            m["params"] = {name.replace("projector.1.", "projector.one."): shape for name, shape in m["params"].items()}

        edits = {
            "version 1": lambda m: m.update(version=1),
            "swapped shape": swap_first_shape,
            "grown shape": grow_first_shape,
            "no files entry": lambda m: m["files"].clear(),
            "no method": lambda m: m.pop("method"),
            "method not a string": lambda m: m.update(method=["simsiam"]),
            "extra not an object": lambda m: m.update(extra=[]),
            "method not an SSL method": lambda m: m.update(method="foo"),
            "method relabelled": lambda m: m.update(method="simclr"),  # a simsiam model has a predictor
            "parameter no layer reads": rename_second_projector_layer,
        }
        for name, edit in edits.items():
            manifest = json.loads(json.dumps(original))
            edit(manifest)
            path.write_text(json.dumps(manifest))
            assert run_cli("eval", "--output", str(out), *FAST) == 1, name
            assert capsys.readouterr().err.strip().splitlines()[-1].startswith("validation-error:"), name
        path.write_text("{not json")
        assert run_cli("eval", "--output", str(out), *FAST) == 1
        assert capsys.readouterr().err.strip().splitlines()[-1].startswith("validation-error:")

    def test_unwritable_output_is_one_io_error(self, capsys, tmp_path):
        (tmp_path / "file").write_text("")
        assert run_cli("generate", "--output", str(tmp_path / "file" / "sub")) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("io-error:")

    def test_manifest_not_utf8_is_one_validation_error(self, capsys, tmp_path):
        out = tmp_path / "out"
        assert run_cli("generate", "--output", str(out), *FAST) == 0
        (out / "data" / "test" / "manifest.json").write_bytes(b"\xff\xfe{bad")
        capsys.readouterr()
        assert run_cli("pretrain", "--output", str(out), *FAST) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation-error:") and "manifest.json" in lines[0]

    def test_config_file_not_utf8_is_one_config_error(self, capsys, tmp_path):
        (tmp_path / "bad.cfg").write_bytes(b"data.per_class = 30\n# caf\xe9\n")
        out = tmp_path / "out"
        assert run_cli("generate", "--config", str(tmp_path / "bad.cfg"), "--output", str(out)) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config-error:")
        assert "bad.cfg" in lines[0] and "offset 25" in lines[0]
        assert not out.exists()

    def test_output_not_utf8_is_one_config_error(self, capsys, tmp_path):
        # Python decodes argv bytes that are not UTF-8 (here 0xff) to lone surrogates,
        # which config.resolved, a UTF-8 file, cannot hold
        out = tmp_path / "x\udcff"
        assert run_cli("generate", "--output", str(out)) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == [f"config-error: --set: key 'run.output_dir' takes UTF-8 text, got {str(out)!r}"]
        assert not out.exists()

    def test_item_without_equals_is_one_line(self, capsys, tmp_path):
        assert run_cli("generate", "--output", str(tmp_path / "out"), "--set", "data.gamma\nfoo") == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == ["config-error: --set: expected 'key = value', got 'data.gamma\\nfoo'"]

    def test_utf8_config_file_with_crlf_copied_byte_for_byte(self, tmp_path):
        raw = "# caf\u00e9 \u2014 desk run\r\ndata.per_class = 30\r\n".encode("utf-8")
        (tmp_path / "exp.cfg").write_bytes(raw)
        out = tmp_path / "out"
        assert run_cli("generate", "--config", str(tmp_path / "exp.cfg"), "--output", str(out)) == 0
        assert (out / "config.input").read_bytes() == raw

    def test_missing_dataset_reported(self, capsys, tmp_path):
        code = run_cli("pretrain", "--output", str(tmp_path / "nothing"))
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err.split(":", 1)[0] in ("validation-error", "io-error")


# The property over the whole config: tiny sizes, then one to three keys set to
# the edges of their ranges and of float64. Keys that size the work (epochs,
# widths, counts) reach 16, so that no draw runs long; the others reach 10**9.
_TINY = {"data.per_class": 12, "data.test_per_class": 4, "data.dim": 4, "model.hidden_dim": 4, "model.rep_dim": 4,
         "model.proj_dim": 4, "model.pred_hidden": 4, "pretrain.epochs": 2, "pretrain.warmup_epochs": 1,
         "pretrain.batch_size": 8, "finetune.epochs": 1, "finetune.batch_size": 8, "single_stage.epochs": 1,
         "eval.knn_k": 3}
_UNSIZED = ("pretrain.batch_size", "pretrain.warmup_epochs", "finetune.batch_size", "eval.knn_k", "run.seed")
_EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-300, 0.5, 0.999999, 1.0, -1.0, 1e300, -1e300, 1.7e308)


def _edge_values(key):
    parse, _, allowed, _ = _SPEC[key]
    if allowed is not None:
        return st.sampled_from(allowed)
    ints = (-1, 0, 1, 2, 10**9 if key in _UNSIZED else 16)
    return {int: st.sampled_from(ints), float: st.sampled_from(_EDGE_FLOATS), _flag: st.booleans(),
            _float_or_auto: st.sampled_from(("auto",) + _EDGE_FLOATS)}[parse]


@st.composite
def _edge_draws(draw):
    keys = draw(st.lists(st.sampled_from(sorted(set(_SPEC) - {"run.output_dir"})), min_size=1, max_size=3, unique=True))
    return {key: draw(_edge_values(key)) for key in keys}


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # capsys is read per draw
@given(drawn=_edge_draws(), command=st.sampled_from(["run", "run-single-stage"]))
def test_edge_values_finish_or_fail_as_one_classed_line(tmp_path_factory, capsys, drawn, command):
    # a run either finishes with finite losses or stops at one classed error line:
    # a check that names a drawn key, or a NumericError of the step that diverged
    out = tmp_path_factory.mktemp("edge")
    overrides = [a for key, value in {**_TINY, **drawn}.items() for a in ("--set", f"{key}={_format_value(value)}")]
    capsys.readouterr()
    code = run_cli(command, "--output", str(out), *overrides)
    lines = capsys.readouterr().err.strip().splitlines()
    if code == 0:
        losses = [json.loads(line)["loss"] for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert losses and all(np.isfinite(losses)), (drawn, losses)
        return
    assert len(lines) == 1, (drawn, lines)
    cls, message = lines[0].split(": ", 1)
    assert code == (2 if cls == "config-error" else 1), (drawn, lines)
    if cls != "numeric-error":
        assert cls in ("config-error", "validation-error", "contract-error"), (drawn, lines)
        # a check names the key, or its last part (``dim`` for data.dim)
        assert any(key in message or re.search(rf"\b{key.split('.')[-1]}\b", message)
                   for key in drawn), (drawn, lines)


@pytest.mark.parametrize("key, value", [("finetune.lr", "0"), ("eval.knn_k", "0"), ("data.separation", "0"),
                                        ("data.separation", "1e300"), ("pretrain.aug_sigma", "-1"),
                                        ("pretrain.aug_mask_prob", "1"), ("pretrain.aug_jitter", "2")])
def test_library_check_names_the_key_the_user_set(tmp_path, capsys, key, value):
    # these keys feed library fields of other names (finetune.lr is OptimizerConfig's base_lr)
    assert run_cli("run", "--output", str(tmp_path), *FAST, "--set", f"{key}={value}") == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"validation-error: {key}"), lines


@pytest.mark.parametrize("method, message", [("simsiam", "simsiam: squared norm overflows float32"),
                                             ("simclr", "nt_xent: squared norm overflows float32"),
                                             ("barlow_twins", "barlow_twins: a column's variance overflows float32")])
def test_float32_pretraining_overflow_is_one_numeric_error_line(tmp_path, capsys, method, message):
    # features near 1e20: their squares fit float64 but not the float32 that pretraining runs in
    assert run_cli("run", "--output", str(tmp_path), *FAST, "--set", "data.separation=1e20",
                   "--set", f"pretrain.method={method}") == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"numeric-error: {message}"]


def test_console_script_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "tailspin.cli", "gradcheck"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0
    assert "max_rel_err" in proc.stdout
