"""The benchmark's tracer wraps library functions by name; a rename must fail here, in tier-1.
Those names also keep the autodiff ops that nothing else in ``src/`` uses, and only those."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SHIM = _ROOT / "perfbench" / "shim.py"
_PACKAGE = _ROOT / "src" / "tailspin"


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


def test_every_public_tensor_op_has_a_user():
    # a public function or class of tensor.py is imported by another module of
    # the package (the re-exports of __init__.py aside), called in tensor.py or traced
    tree = ast.parse((_PACKAGE / "tensor.py").read_text(encoding="utf-8"))
    public = {node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    used = {node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    for module in _PACKAGE.glob("*.py"):
        if module.name not in ("tensor.py", "__init__.py"):
            used |= {alias.name for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
                     if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "tensor"
                     for alias in node.names}
    used |= {path.split(".")[0] for _, module_name, path in _targets() if module_name == "tailspin.tensor"}
    assert sorted(public - used) == []
