"""Spans around calls into pptgeo, recorded from outside the package.

The traced run wraps the public functions listed in ``TRACED``.  pptgeo's
modules import names from one another (``extremality`` imports ``is_ppt``
from ``states``, the package re-exports everything), so each wrapper is
installed in every pptgeo module namespace that holds the original function;
nested calls such as ``face_of`` inside ``is_extreme_in_T`` then become child
spans.  ``numpy.linalg.eigh`` and ``numpy.linalg.svd`` are wrapped to count
eigensolves and SVDs; the counts are charged to the innermost open span and
added to its ancestors when it closes.  A listed function that a later
version of pptgeo no longer has is reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

TRACED = {
    "states": ("rho", "sigma", "partial_transpose", "is_ppt", "state_type", "arc_of", "combine",
               "is_interior_of_T", "is_interior_of_S_sufficient", "search_product_vector_in_subspace"),
    "extremality": ("face_of", "phi_D_operator", "phi_E_operator", "is_extreme_in_T", "appendix_basis_X",
                    "appendix_basis_Y", "basis_span_rank", "verify_combination_identity"),
    "maps": ("choi_of", "apply_map", "phi_theta_t", "decomposable_map", "product_pairing",
             "boundary_witness_search", "block_positivity_sample", "trace_map_decomposition_33",
             "trace_map_decomposition_2n"),
    "krawtchouk": ("solve", "nu_summary"),
    "linalg": ("eig_hermitian", "rank_tol", "kernel_basis", "range_basis", "is_psd", "real_operator_matrix",
               "numerical_kernel", "numerical_rank"),
    "serialize": ("matrix_to_json", "matrix_from_json", "vector_to_json", "vector_from_json",
                  "bipartite_to_json", "bipartite_from_json", "choi_to_json", "choi_from_json",
                  "spec_to_json", "spec_from_json", "report_to_json"),
    "cli": ("main", "build_parser", "cmd_state", "cmd_extremality", "cmd_combine", "cmd_map",
            "cmd_krawtchouk"),
}

# Searches whose result is None when nothing was found.
SEARCHES = {"states.search_product_vector_in_subspace", "maps.boundary_witness_search"}

# Fields of one span record.
NAME, START, END, PARENT, OP, EIGH, SVD, FOUND = range(8)


class Tracer:
    """In-memory span store.  A span is
    [name, start, end, parent index, op index, eigh calls, svd calls, found]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.absent: list[str] = []
        self._patches: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0, 0, None])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        rec = self.spans[idx]
        rec[END] = time.perf_counter()
        self.stack.pop()
        if rec[PARENT] >= 0:
            parent = self.spans[rec[PARENT]]
            parent[EIGH] += rec[EIGH]
            parent[SVD] += rec[SVD]

    def run_op(self, kind: str, fn):
        """Run one op under a root span named ``op.<kind>``."""
        self.op += 1
        idx = self.open(f"op.{kind}")
        try:
            return fn()
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn):
        tracer = self
        search = name in SEARCHES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if search:
                    tracer.spans[idx][FOUND] = result is not None
                return result
            finally:
                tracer.close(idx)

        return wrapper

    def _counter(self, field: int, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.stack:
                tracer.spans[tracer.stack[-1]][field] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pptgeo" or name.startswith("pptgeo."))]
        self.absent = []
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"pptgeo.{layer}")
            for name in names:
                fn = getattr(mod, name, None)
                if not callable(fn):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for m in modules:
                    if m.__dict__.get(name) is fn:
                        self._patches.append((m, name, fn))
                        setattr(m, name, wrapper)
        for field, name in ((EIGH, "eigh"), (SVD, "svd")):
            fn = getattr(np.linalg, name)
            self._patches.append((np.linalg, name, fn))
            setattr(np.linalg, name, self._counter(field, fn))

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._patches):
            setattr(mod, name, fn)
        self._patches = []
