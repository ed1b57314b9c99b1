"""The package imports nothing outside the standard library but NumPy, no
private name of the seesaw, writes no tolerance literal outside the few that
are documented, and reads CUTOFF only through the linalg rules."""
import ast
import sys
from pathlib import Path

import pptgeo


def package_trees():
    for path in sorted(Path(pptgeo.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_absolute_imports_are_stdlib_or_numpy():
    for path, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", f"{path.name} imports {name}"


def test_seesaw_is_reached_by_public_names():
    # names imported from the module, and attributes read off it where the
    # module itself is imported
    names = {alias.name for _, tree in package_trees() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module in ("seesaw", "pptgeo.seesaw")
             for alias in node.names}
    names |= {node.attr for _, tree in package_trees() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "seesaw"}
    assert {"minimize", "starts", "forms"} <= names
    assert not any(name.startswith("_") for name in names), names


def test_tolerance_literals_are_the_documented_ones():
    # linalg.CUTOFF and linalg.ROUNDOFF, and the seesaw.minimize stopping fraction,
    # which must sit far below the ROUNDOFF zero level it serves; every other
    # tolerance is one of these, and format_theta compares exactly.
    found = sorted((path.stem, node.value) for path, tree in package_trees()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and type(node.value) is float
                   and 0 < node.value < 1e-3)
    assert found == [("linalg", 1e-12), ("linalg", 1e-9), ("seesaw", 1e-15)]


def cutoff_readers(node, scope="<module>"):
    """The innermost enclosing function (or <module>) of each read of CUTOFF under node."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Name) and child.id == "CUTOFF"
                or isinstance(child, ast.Attribute) and child.attr == "CUTOFF"):
            yield scope
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from cutoff_readers(child, inner)


def test_cutoff_is_read_outside_linalg_only_by_the_newton_damping():
    # every rank, definiteness and kernel decision goes through a linalg rule;
    # the seesaw's Newton damping starts at CUTOFF and never drops below it
    readers = {(path.stem, scope) for path, tree in package_trees() if path.stem != "linalg"
               for scope in cutoff_readers(tree)}
    assert readers == {("seesaw", "minimize"), ("seesaw", "_newton_step")}
