"""tools/output_hashes.py exits 1 when a checkout's outputs differ from the first checkout's,
so a refactor can gate on it; the hashing itself is replaced here, so no run starts.
tools/peak_rss.py stops its chain at the first process that fails, and exits 1.
tools/step_time.py exits 1 when a cell's hash differs between checkouts or a run fails."""
import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("output_hashes", _ROOT / "tools" / "output_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("second, status, moved", [("same", 0, 0), ("other", 1, 1)])
def test_exit_status_follows_the_moved_cells(tool, monkeypatch, capsys, second, status, moved):
    rows = {"same": ("a", "b", "-", "c", "d"), "other": ("a", "b", "-", "c", "e")}
    tables = iter([{"run": rows["same"]}, {"run": rows[second]}])
    monkeypatch.setattr(tool, "hash_checkout", lambda checkout, scratch: next(tables))
    assert tool.main([str(_ROOT), str(_ROOT)]) == status
    assert f"differ from {_ROOT}: {moved}\n" in capsys.readouterr().out


def test_peak_rss_stops_at_the_first_failing_process(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(_ROOT / "tools"))  # as when run as a script: it imports output_hashes
    spec = importlib.util.spec_from_file_location("peak_rss", _ROOT / "tools" / "peak_rss.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--set", "data.per_class=0"]) == 1  # an empty class fails `generate`
    out = capsys.readouterr().out.splitlines()
    command, code, _ = out[1].split()
    assert len(out) == 2 and command == "generate" and code != "0", out


@pytest.mark.parametrize("second, status", [("f00d", 0), ("beef", 1), (None, 1)])
def test_step_time_exit_status_follows_the_hashes(monkeypatch, capsys, second, status):
    spec = importlib.util.spec_from_file_location("step_time", _ROOT / "tools" / "step_time.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    runs = iter([{"finetune la_sl": {"us": 120.0, "hash": "f00d"}},
                 None if second is None else {"finetune la_sl": {"us": 90.0, "hash": second}}])
    monkeypatch.setattr(module, "run_child", lambda checkout, tiny: next(runs))
    assert module.main([str(_ROOT), str(_ROOT), "--rounds", "1"]) == status
    out = capsys.readouterr().out
    if second is not None:  # both minimums, in microseconds per step, and the verdict on the hashes
        assert "120.0 us" in out and "90.0 us" in out and ("(hashes differ)" in out) == (second != "f00d")
