"""JSON formats used across the library and the CLI.

Complex matrices are serialized as row-major [re, im] pairs; Python's float
repr is shortest-round-trip, so doubles survive a JSON round trip bit-exactly.
"""
from __future__ import annotations

import numpy as np

from .extremality import ExtremalityReport
from .maps import ChoiMap, DecomposableSpec
from .states import BipartiteMatrix


def matrix_to_json(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return {
        "rows": M.shape[0],
        "cols": M.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in M.ravel()],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    entries = obj["entries"]
    if len(entries) != rows * cols:
        raise ValueError("entry count does not match rows * cols")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(rows, cols)


def vector_to_json(v: np.ndarray) -> list:
    v = np.asarray(v, dtype=complex).ravel()
    return [[float(z.real), float(z.imag)] for z in v]


def vector_from_json(obj) -> np.ndarray:
    return np.array([complex(re, im) for re, im in obj])


def bipartite_to_json(X: BipartiteMatrix) -> dict:
    return {"m": X.m, "n": X.n, "matrix": matrix_to_json(X.data)}


def bipartite_from_json(obj: dict) -> BipartiteMatrix:
    return BipartiteMatrix(int(obj["m"]), int(obj["n"]), matrix_from_json(obj["matrix"]))


def choi_to_json(phi: ChoiMap) -> dict:
    return {"m": phi.m, "n": phi.n, "choi": bipartite_to_json(phi.choi)}


def choi_from_json(obj: dict) -> ChoiMap:
    return ChoiMap(int(obj["m"]), int(obj["n"]), bipartite_from_json(obj["choi"]))


def spec_to_json(spec: DecomposableSpec) -> dict:
    return {
        "Vs": [matrix_to_json(V) for V in spec.Vs],
        "Ws": [matrix_to_json(W) for W in spec.Ws],
    }


def spec_from_json(obj: dict) -> DecomposableSpec:
    return DecomposableSpec(
        tuple(matrix_from_json(V) for V in obj.get("Vs", [])),
        tuple(matrix_from_json(W) for W in obj.get("Ws", [])),
    )


def report_to_json(rep: ExtremalityReport) -> dict:
    return {
        "dim_ker_D": rep.dim_ker_D,
        "dim_ker_E": rep.dim_ker_E,
        "dim_intersection": rep.dim_intersection,
        "is_extreme": rep.is_extreme,
        "generator": None if rep.generator is None else bipartite_to_json(rep.generator),
    }
