"""The package imports nothing outside the standard library."""

import ast
import glob
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "coxheaps")


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))), ids=os.path.basename)
def test_absolute_imports_are_standard_library(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
    outside = sorted({m for m in modules if m.split(".")[0] not in sys.stdlib_module_names})
    assert not outside, f"{os.path.basename(path)} imports {outside}"
