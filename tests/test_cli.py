import json
import shutil

import numpy as np
import pytest

from tailspin.cli import main
from tailspin.io import dataset_provenance, load_checkpoint, load_dataset
from tailspin.nn import params_digest


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

    def test_model_widths_come_from_config(self, tmp_path):
        widths = ["--set", "model.hidden_dim=16", "--set", "model.rep_dim=8",
                  "--set", "model.proj_dim=12", "--set", "model.pred_hidden=5"]
        for cmd, checkpoint in (("run", "pretrained"), ("run-single-stage", "finetuned")):
            out = tmp_path / cmd
            assert run_cli(cmd, "--seed", "3", "--output", str(out), *FAST, *widths) == 0
            model, _, _ = load_checkpoint(out / "checkpoints" / checkpoint)
            assert {k: model.arch[k] for k in ("hidden_dim", "rep_dim", "proj_dim", "pred_hidden")} == {
                "hidden_dim": 16, "rep_dim": 8, "proj_dim": 12, "pred_hidden": 5}
            assert model.encoder.dims == [8, 16, 8]

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
        assert (out / "embeddings" / "test" / "embeddings.bin").is_file()

    def test_corrupt_severe_imbalance_provenance_min_class_50(self, tmp_path):
        out = tmp_path / "severe"
        base = ["--seed", "5", "--output", str(out),
                "--set", "data.num_classes=10", "--set", "data.per_class=5000",
                "--set", "data.test_per_class=10", "--set", "data.gamma=100"]
        assert run_cli("generate", *base) == 0
        assert run_cli("corrupt", *base) == 0
        prov = dataset_provenance(out / "data" / "train-corrupted")
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
        assert run_cli("run", "--output", str(tmp_path / "run"), *settings) == 0
        for cmd in ("generate", "corrupt", "pretrain", "finetune"):
            assert run_cli(cmd, "--output", str(tmp_path / "chain"), *settings) == 0
        for name in ("metrics.jsonl", "summary.json"):
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


class TestGradcheckCommand:
    def test_exit_zero_and_table(self, capsys):
        assert run_cli("gradcheck") == 0
        table = capsys.readouterr().out
        assert "max_rel_err" in table
        for name in ("ce", "la_sl", "simsiam", "simclr", "byol", "barlow_twins"):
            assert name in table
        assert "FAIL" not in table


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

    @pytest.mark.parametrize("override, code, error", [
        ("finetune.tau=abc", 2, "config-error"),
        ("eval.knn_k=100000", 1, "contract-error"),
        ("finetune.lr=nan", 2, "config-error"),
        ("model.hidden_dim=0", 1, "validation-error"),
        ("pretrain.batch_size=1", 1, "validation-error"),
        ("finetune.lambda=0", 1, "validation-error"),
    ])
    def test_bad_input_fails_before_training(self, capsys, tmp_path, override, code, error):
        out = tmp_path / "bad"
        assert run_cli("run", "--output", str(out), *FAST, "--set", override) == code
        assert capsys.readouterr().err.strip().splitlines()[-1].startswith(f"{error}:")
        metrics = out / "metrics.jsonl"
        assert not metrics.exists() or metrics.read_text() == ""
        # k is checked against the corrupted training set, so only that case gets to write data/
        if not override.startswith("eval.knn_k="):
            assert not (out / "data").exists()

    def test_truncated_checkpoint_is_validation_error(self, capsys, tmp_path):
        out = tmp_path / "cut"
        assert run_cli("run", "--output", str(out), *FAST) == 0
        params = out / "checkpoints" / "finetuned" / "params.bin"
        params.write_bytes(params.read_bytes()[:-8])
        assert run_cli("eval", "--output", str(out), *FAST) == 1
        assert capsys.readouterr().err.strip().splitlines()[-1].startswith("validation-error:")

    def test_missing_dataset_reported(self, capsys, tmp_path):
        code = run_cli("pretrain", "--output", str(tmp_path / "nothing"))
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err.split(":", 1)[0] in ("validation-error", "io-error")


def test_console_script_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "tailspin.cli", "gradcheck"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0
    assert "max_rel_err" in proc.stdout
