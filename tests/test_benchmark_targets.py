"""The benchmark's tracer wraps library functions by name; a rename must fail here, in tier-1.
Those names also keep the public functions and classes that nothing else in ``src/`` uses, and only those."""
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


def test_every_public_name_has_a_user():
    # a public top-level function or class of a module of the package is loaded in
    # its own module, imported by another module (the re-exports of __init__.py
    # aside), read there through a module alias (``tio.x`` after ``from . import io
    # as tio``) or traced
    trees = {module.stem: ast.parse(module.read_text(encoding="utf-8"))
             for module in _PACKAGE.glob("*.py") if module.name != "__init__.py"}
    unused = []
    for name, tree in trees.items():
        public = {node.name for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for other_name, other in trees.items():
            if other_name == name:
                continue
            imports = [node for node in ast.walk(other) if isinstance(node, ast.ImportFrom) and node.level == 1]
            used |= {alias.name for node in imports if node.module == name for alias in node.names}
            aliases = {alias.asname or alias.name for node in imports if node.module is None
                       for alias in node.names if alias.name == name}
            used |= {node.attr for node in ast.walk(other)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases}
        used |= {path.split(".")[0] for _, module_name, path in _targets() if module_name == f"tailspin.{name}"}
        unused += [f"{name}.{public_name}" for public_name in sorted(public - used)]
    assert unused == []
