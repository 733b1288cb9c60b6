import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import robls

MODULES = sorted(m.name for m in pkgutil.iter_modules(robls.__path__))
TRAFFIC = Path(__file__).resolve().parent.parent / "tools" / "traffic.py"


class TestExports:
    @pytest.mark.parametrize("name", MODULES)
    def test_star_import_resolves(self, name):
        # A name left in __all__ after its definition is gone fails here.
        exec(f"from robls.{name} import *", {})

    def test_package_imports_resolve(self):
        tree = ast.parse(Path(robls.__file__).read_text())
        imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
        assert imports
        for node in imports:
            module = importlib.import_module(f"robls.{node.module}")
            for alias in node.names:
                assert hasattr(robls, alias.name)
                assert alias.name in module.__all__, f"robls.{node.module}.{alias.name}"


def test_every_function_is_reached_by_some_command():
    # A fresh process: lru_caches warmed by other tests in this one would
    # keep the tracer from seeing the bodies they cache.
    run = subprocess.run([sys.executable, str(TRAFFIC), "--check"],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
