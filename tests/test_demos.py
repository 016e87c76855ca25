"""The demos import only names that greenstat has; running them is left out of the suite as too slow."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[path.name for path in DEMOS])
def test_every_name_a_demo_imports_from_greenstat_exists(path):
    imports = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "greenstat"
        for alias in node.names
    ]
    missing = [f"{module}.{name}" for module, name in imports if not hasattr(importlib.import_module(module), name)]
    assert imports and not missing
