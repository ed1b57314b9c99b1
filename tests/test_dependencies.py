"""The package imports nothing outside the standard library but NumPy."""
import ast
import sys
from pathlib import Path

import pptgeo


def test_absolute_imports_are_stdlib_or_numpy():
    for path in sorted(Path(pptgeo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", f"{path.name} imports {name}"
