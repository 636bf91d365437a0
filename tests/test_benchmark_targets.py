"""The benchmark's tracer wraps library functions by name; a rename must fail here, in tier-1."""
import importlib
import importlib.util
from pathlib import Path

import pytest

_SHIM = Path(__file__).resolve().parents[1] / "perfbench" / "shim.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_shim", _SHIM)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)  # defines TARGETS; imports no tailspin module
    return shim.TARGETS


@pytest.mark.parametrize("span, module_name, path", _targets())
def test_traced_name_resolves(span, module_name, path):
    owner = importlib.import_module(module_name)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), span
