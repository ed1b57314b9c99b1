"""The package imports nothing outside the standard library but NumPy, no
private name of the seesaw, writes no tolerance literal outside the few that
are documented, reads CUTOFF only through the linalg rules, applies those
rules to a state's spectrum only in the state's cached decisions, skips
the hermiticity check only where it derives a matrix exactly hermitian, and
reaches each public name through its defining module alone."""
import ast
import os
import subprocess
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
    assert {"minimize", "starts", "partial_minima"} <= names
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


def readers_of(names, node, scope="<module>"):
    """The innermost enclosing function or class (or <module>) of each read
    of one of names under node, a method named Class.method."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Name) and child.id in names
                or isinstance(child, ast.Attribute) and child.attr in names):
            yield scope
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
        yield from readers_of(names, child, inner)


def readers_outside_linalg(*names):
    return {(path.stem, scope) for path, tree in package_trees() if path.stem != "linalg"
            for scope in readers_of(names, tree)}


def test_cutoff_is_read_outside_linalg_only_by_the_newton_damping():
    # every rank, definiteness and kernel decision goes through a linalg rule;
    # the seesaw's Newton damping starts at CUTOFF and never drops below it
    assert readers_outside_linalg("CUTOFF") == {("seesaw", "minimize"), ("seesaw", "_newton_step")}


def test_spectrum_rules_are_applied_to_a_state_only_by_its_cached_decisions():
    # every per-state verdict reads BipartiteMatrix's cached range mask or PSD
    # verdict; the other two apply a rule to a diagonal and to a form's spectrum
    readers = readers_outside_linalg("range_mask", "spectrum_is_psd", "spectrum_is_pd", "spectrum_rank")
    assert readers == {
        ("states", "BipartiteMatrix._range_mask"),
        ("states", "BipartiteMatrix._is_psd"),
        ("states", "is_interior_of_S_sufficient"),
        ("maps", "boundary_witness_search"),
    }


def test_unchecked_constructor_serves_only_the_derivation_sites():
    # BipartiteMatrix._exact wraps data without as_hermitian; every other
    # constructor call, outside input included, goes through the check
    readers = {(path.stem, scope) for path, tree in package_trees()
               for scope in readers_of(("_exact",), tree)}
    assert readers == {
        ("states", "_cyclic_pattern"),
        ("states", "BipartiteMatrix._partial_transpose"),
        ("states", "normalize"),
    }


def test_package_init_holds_only_its_docstring():
    # every public name is imported from its defining module; the package
    # itself binds nothing, so importing one module loads no other
    path = Path(pptgeo.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1, [type(node).__name__ for node in tree.body]


def test_krawtchouk_runs_without_numpy():
    # the integer combinatorics load nothing numerical
    code = ("import sys; from pptgeo.krawtchouk import solve; "
            "assert [(s.k, s.l) for s in solve(3, 3)] == [(1, 3), (3, 1)]; "
            "print(sorted(name for name in sys.modules if name.partition('.')[0] in ('numpy', 'pptgeo')))")
    src = str(Path(pptgeo.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "['pptgeo', 'pptgeo.krawtchouk']"
