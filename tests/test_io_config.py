import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import params_digest, record_from_json_line
from tailspin.config import _SPEC, _float_or_auto, _flag, _format_value, config_load, write_resolved
from tailspin.data import ImbalanceSpec, NoiseSpec, apply_exponential_imbalance, generate_synthetic, inject_symmetric_noise
from tailspin.errors import ConfigError, ValidationError
from tailspin.evaluation import MetricsRecord
from tailspin.io import MetricsWriter, load_checkpoint, load_dataset, save_checkpoint, save_dataset
from tailspin.nn import build_model
from tailspin.pipeline import build_finetune_head


class TestDatasetFormat:
    @pytest.fixture()
    def corrupted(self):
        ds = generate_synthetic(4, 25, 6, 5.0, seed=31)
        ds = apply_exponential_imbalance(ds, ImbalanceSpec(4.0, seed=31))
        return inject_symmetric_noise(ds, NoiseSpec(0.3, seed=31))

    def test_round_trip_bitwise(self, tmp_path, corrupted):
        save_dataset(corrupted, tmp_path / "ds", provenance={"gamma": 4.0, "nu": 0.3})
        back = load_dataset(tmp_path / "ds")
        assert np.array_equal(back.features, corrupted.features)
        assert np.array_equal(back.labels_observed, corrupted.labels_observed)
        assert np.array_equal(back.labels_true, corrupted.labels_true)
        assert back.num_classes == corrupted.num_classes
        assert back.split == corrupted.split

    def test_byte_length_mismatch_detected(self, tmp_path, corrupted):
        save_dataset(corrupted, tmp_path / "ds")
        (tmp_path / "ds" / "features.bin").write_bytes(b"\x00" * 12)
        with pytest.raises(ValidationError, match="bytes"):
            load_dataset(tmp_path / "ds")

    def test_manifest_is_human_readable_json(self, tmp_path, corrupted):
        save_dataset(corrupted, tmp_path / "ds", provenance={"gamma": 4.0})
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["kind"] == "dataset"
        assert manifest["provenance"]["gamma"] == 4.0

    def test_manifest_that_misdescribes_its_files_is_validation_error(self, tmp_path, corrupted):
        save_dataset(corrupted, tmp_path / "ds")
        path = tmp_path / "ds" / "manifest.json"
        original = path.read_text()
        edits = {
            "version": lambda m: m.update(version=1),
            "kind": lambda m: m.update(kind="embeddings"),
            "missing entry": lambda m: m["files"].pop("labels_true"),
            "dtype": lambda m: m["files"]["features"].update(dtype="float64-le"),
            "shape": lambda m: m["files"]["labels_true"].update(shape=[-1]),
            "missing metadata": lambda m: m.pop("num_classes"),
            "metadata type": lambda m: m.update(split=3),
        }
        for name, edit in edits.items():
            manifest = json.loads(original)
            edit(manifest)
            path.write_text(json.dumps(manifest))
            with pytest.raises(ValidationError):
                load_dataset(tmp_path / "ds")
        path.write_text(original[:-10])
        with pytest.raises(ValidationError, match="not JSON"):
            load_dataset(tmp_path / "ds")


class TestCheckpointFormat:
    def test_model_and_head_round_trip(self, tmp_path):
        model = build_model("byol", 8, seed=41)
        head = build_finetune_head(model, 3, seed=41)
        save_checkpoint(tmp_path / "ck", model, head, extra={"stage": "finetune"})
        model2, head2, extra = load_checkpoint(tmp_path / "ck")
        assert extra == {"stage": "finetune"}
        assert model2.method == "byol"
        assert model2.predictor is not None and model2.ema_encoder is not None
        # float64 storage: the reload is bit-exact with the trained parameters
        assert params_digest(model2.trainable_parameters()) == params_digest(model.trainable_parameters())
        assert params_digest(model2.ema_encoder.parameters()) == params_digest(model.ema_encoder.parameters())
        assert params_digest(head2.parameters()) == params_digest(head.parameters())
        assert head2.dims == head.dims

    def test_head_only_checkpoint(self, tmp_path):
        model = build_model("simclr", 8, seed=42)
        head = build_finetune_head(model, 5, seed=42)
        save_checkpoint(tmp_path / "ck", None, head)
        model2, head2, _ = load_checkpoint(tmp_path / "ck")
        assert model2 is None
        assert head2.dims == [32, 5]

    def test_simclr_model_without_predictor_round_trips(self, tmp_path):
        model = build_model("simclr", 8, seed=43)
        save_checkpoint(tmp_path / "ck", model)
        model2, head2, _ = load_checkpoint(tmp_path / "ck")
        assert head2 is None
        assert model2.predictor is None and model2.ema_encoder is None
        assert model2.encoder.dims == model.encoder.dims


class TestMetricsFile:
    def test_one_line_per_record_and_parse_back(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        records = [MetricsRecord("finetune", e, 0.1 * e, 0.01, 3) for e in range(25)]
        with MetricsWriter(path) as sink:
            for r in records:
                sink(r)
        lines = path.read_text().splitlines()
        assert len(lines) == 25
        assert [record_from_json_line(l) for l in lines] == records

    def test_flush_per_record_survives_interruption(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        sink = MetricsWriter(path)
        for e in range(7):
            sink(MetricsRecord("pretrain", e, 1.0, 0.06, 3))
        # reader sees all 7 complete lines while the writer is still open
        lines = path.read_text().splitlines()
        assert len(lines) == 7
        assert all(json.loads(l)["epoch"] == i for i, l in enumerate(lines))
        sink.close()

    @pytest.mark.parametrize("records", [1, 5])
    def test_killed_writer_leaves_every_complete_line(self, tmp_path, records):
        path = tmp_path / "metrics.jsonl"
        child = (
            "import os, signal, sys\n"
            "from tailspin.evaluation import MetricsRecord\n"
            "from tailspin.io import MetricsWriter\n"
            "sink = MetricsWriter(sys.argv[1])\n"
            "for e in range(int(sys.argv[2])):\n"
            "    sink(MetricsRecord('pretrain', e, 1.0, 0.06, 3))\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", child, str(path), str(records)], env=env, timeout=60)
        assert proc.returncode == -signal.SIGKILL
        text = path.read_text()
        assert text.endswith("\n")
        assert [json.loads(l)["epoch"] for l in text.splitlines()] == list(range(records))


class TestConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("")
        cfg = config_load(p)
        assert cfg["pretrain.method"] == "simsiam"
        assert cfg["finetune.loss"] == "la_sl"
        assert cfg["run.seed"] == 0

    def test_file_and_overrides(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("# comment\ndata.gamma = 10\nfinetune.loss = ce\n")
        cfg = config_load(p, overrides=["finetune.loss=la_sl", "run.seed=7"])
        assert cfg["data.gamma"] == 10.0
        assert cfg["finetune.loss"] == "la_sl"  # override wins
        assert cfg["run.seed"] == 7

    @pytest.mark.parametrize("item, message", [
        ("pretrain.methd = simsiam", "unknown config key 'pretrain.methd' (did you mean 'pretrain.method'?)"),
        ("data.gamma = banana", "key 'data.gamma' expects float, got 'banana'"),
        ("pretrain.method = mocov2", "key 'pretrain.method' must be one of"),
        ("data.nu = inf", "key 'data.nu' expects a finite number"),
        ("data.gamma", "expected 'key = value', got 'data.gamma'"),
    ], ids=["unknown-key", "type", "choice", "non-finite", "no-equals"])
    def test_every_file_error_names_its_line(self, tmp_path, item, message):
        p = tmp_path / "exp.cfg"
        p.write_text(f"# comment\n{item}\n")
        with pytest.raises(ConfigError) as info:
            config_load(p)
        assert str(info.value).startswith(f"{p}:2: {message}")

    def test_value_with_a_line_break_is_one_config_error(self, tmp_path):
        # config.resolved holds one line per key, so it could not hold this value
        for brk in ("\n", "\r", "\x1c", "\x85", "\u2028"):
            with pytest.raises(ConfigError) as info:
                config_load(None, overrides=[f"run.output_dir=a{brk}b"])
            assert str(info.value) == f"--set: key 'run.output_dir' takes one line, got {'a' + brk + 'b'!r}"
        cfg = config_load(None, overrides=["run.output_dir= a b\n"])
        write_resolved(cfg, tmp_path)
        assert config_load(tmp_path / "config.resolved")["run.output_dir"] == "a b"

    def test_unknown_key_suggests_nearest(self):
        with pytest.raises(ConfigError, match="pretrain.method"):
            config_load(None, overrides=["pretrain.methd=simsiam"])

    def test_type_mismatch_names_expected_type(self):
        with pytest.raises(ConfigError, match="int"):
            config_load(None, overrides=["pretrain.epochs=ten"])

    def test_choice_validation(self):
        with pytest.raises(ConfigError, match="finetune.loss"):
            config_load(None, overrides=["finetune.loss=focal"])

    def test_resolved_file_written(self, tmp_path):
        cfg = config_load(None, overrides=["data.gamma=3.5"])
        write_resolved(cfg, tmp_path)
        text = (tmp_path / "config.resolved").read_text()
        assert "data.gamma = 3.5" in text
        assert "run.seed = 0" in text

    def test_hash_changes_iff_any_key_changes(self):
        base = config_load(None)
        same = config_load(None)
        assert base.config_hash() == same.config_hash()
        changed = config_load(None, overrides=["data.nu=0.1"])
        assert changed.config_hash() != base.config_hash()

    def test_hash_ignores_output_dir(self):
        a = config_load(None, overrides=["run.output_dir=runs/a"])
        b = config_load(None, overrides=["run.output_dir=runs/b"])
        assert a.config_hash() == b.config_hash()

    def test_tau_auto_and_numeric(self):
        assert config_load(None)["finetune.tau"] == "auto"
        assert config_load(None, overrides=["finetune.tau=1.25"])["finetune.tau"] == 1.25
        for raw in ("banana", "nan", "inf", "Auto"):
            with pytest.raises(ConfigError, match="finetune.tau"):
                config_load(None, overrides=[f"finetune.tau={raw}"])

    def test_explicit_tau_is_written_as_its_number(self):
        # two spellings of one threshold are one experiment: one resolved line, one hash
        cfgs = [config_load(None, overrides=[f"finetune.tau={raw}"]) for raw in ("1.5", "1.50", " 15e-1")]
        assert {line for cfg in cfgs for line in cfg.resolved_text().splitlines()
                if line.startswith("finetune.tau")} == {"finetune.tau = 1.5"}
        assert len({cfg.config_hash() for cfg in cfgs}) == 1

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="not found"):
            config_load("/nonexistent/path.cfg")

    def test_bool_parsing(self):
        cfg = config_load(None, overrides=["pretrain.disable_stop_gradient=true"])
        assert cfg["pretrain.disable_stop_gradient"] is True
        with pytest.raises(ConfigError):
            config_load(None, overrides=["pretrain.disable_stop_gradient=maybe"])

    def test_resolved_file_is_itself_loadable(self, tmp_path):
        cfg = config_load(None, overrides=["data.gamma=7.5", "finetune.loss=ce_sl", "run.seed=11"])
        write_resolved(cfg, tmp_path)
        back = config_load(tmp_path / "config.resolved")
        assert back.values == cfg.values
        assert back.config_hash() == cfg.config_hash()


# any text, lone surrogates included: Python decodes argv bytes that are not UTF-8 to them
ANY_TEXT = st.text(st.characters(exclude_categories=()) | st.characters(categories=("Cs",)), max_size=12)


def _values(key):
    """Every value that ``key`` accepts, as the config holds it."""
    parse, _, allowed, _ = _SPEC[key]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    if allowed is not None:
        return st.sampled_from(allowed)
    if key == "run.output_dir":  # any text: parsing strips it and refuses a line break or non-UTF-8 within
        return ANY_TEXT
    return {int: st.integers(), float: finite, _flag: st.booleans(),
            _float_or_auto: st.just("auto") | finite}[parse]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(values=st.fixed_dictionaries({key: _values(key) for key in _SPEC}),
       key=st.sampled_from(sorted(_SPEC)), text=ANY_TEXT)
def test_every_value_parses_back_and_any_text_is_one_config_error(tmp_path_factory, values, key, text):
    def round_trip(overrides):
        # the value accepted from --set, written as config.resolved writes it, parses back equal
        cfg = config_load(None, overrides=overrides)
        directory = tmp_path_factory.mktemp("resolved")
        write_resolved(cfg, directory)
        assert config_load(directory / "config.resolved").values == cfg.values
        return cfg

    # each value parses as itself; run.output_dir's text is stripped, or refused for a
    # line break or for a lone surrogate, which UTF-8 cannot encode
    overrides = [f"{k}={_format_value(v)}" for k, v in values.items()]
    output_dir = values["run.output_dir"].strip()
    refusal = ("takes one line" if len(output_dir.splitlines()) > 1 else
               "takes UTF-8 text" if output_dir.encode("utf-8", "replace").decode("utf-8") != output_dir else None)
    if refusal:
        with pytest.raises(ConfigError, match=f"^--set: key 'run.output_dir' {refusal}"):
            config_load(None, overrides=overrides)
    else:
        assert round_trip(overrides).values == dict(values, **{"run.output_dir": output_dir})
    # any text is a value of the key, which round-trips, or one ConfigError that names it
    try:
        round_trip([f"{key}={text}"])
    except ConfigError as exc:
        assert f"'{key}'" in str(exc)
