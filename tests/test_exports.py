import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gssl

MODULES = ["gssl"] + [f"gssl.{m.name}" for m in pkgutil.iter_modules(gssl.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_no_module_imports_another_modules_private_names():
    # a private helper that two modules need belongs to one of them, with
    # the code that uses it: the dataset text format lives in gssl.data only
    found = []
    for path in sorted(Path(gssl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [f"{path.name}: from .{node.module} import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []
