"""JSON formats used across the library and the CLI, and the readers of every
document the CLI takes (state, map and spec files, combination specs, angles).

Complex matrices are serialized as row-major [re, im] pairs; Python's float
repr is shortest-round-trip, so doubles survive a JSON round trip bit-exactly.
The readers accept only the documented layouts and raise :class:`FormatError`
otherwise.
"""
from __future__ import annotations

import json
import math
import os
import re
from fractions import Fraction

import numpy as np

from .extremality import ExtremalityReport
from .maps import ChoiMap, DecomposableSpec
from .states import FAMILIES, BipartiteMatrix

_PI_EXPR = re.compile(
    r"^(?P<sign>[+-]?)\s*(?:(?P<num>\d+(?:\.\d+)?)\s*\*?\s*)?pi\s*(?:/\s*(?P<den>\d+))?$"
)


def matrix_to_json(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return {
        "rows": M.shape[0],
        "cols": M.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in M.ravel()],
    }


class FormatError(ValueError):
    """JSON or angle text that does not have its documented layout."""


def load_json(source: str, inline: bool = False):
    """The JSON in the file `source` or, with inline=True and no such file, in
    `source` itself.  Every parse failure, also an integer past Python's digit
    limit (a plain ValueError), raises FormatError."""
    if inline and not os.path.isfile(source):
        text, what = source, "inline JSON (and not a file)"
    else:
        with open(source, encoding="utf-8") as fh:
            text, what = fh.read(), source
    try:
        return json.loads(text)
    except ValueError as exc:
        raise FormatError(f"{what}: {exc}") from None


def angle_from_text(text: str) -> float:
    """A finite angle: a decimal, or an exact multiple of pi such as 'pi',
    '-pi/3', '2*pi/3', '5pi/12'.  Multiples of pi are computed symbolically
    before the final float conversion so boundary angles stay detectable."""
    s = text.strip().lower()
    m = _PI_EXPR.match(s)
    try:
        if not m:
            val = float(s)
        else:
            val = float(Fraction(m.group("num") or "1") / Fraction(m.group("den") or "1")) * math.pi
            val = -val if m.group("sign") == "-" else val
    except ZeroDivisionError:
        raise FormatError(f"angle {text!r} divides by zero") from None
    except OverflowError:
        raise FormatError(f"angle {text!r} is out of the floating-point range") from None
    except ValueError:
        raise FormatError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(val):
        raise FormatError(f"angle {text!r} is not finite")
    return val


def _field(obj, key: str):
    """obj[key] of a JSON object."""
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"expected a JSON object with the key {key!r}")
    return obj[key]


def _count(obj, key: str) -> int:
    """obj[key] of a JSON object, a nonnegative integer."""
    value = _field(obj, key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise FormatError(f"{key!r} must be a nonnegative integer, got {value!r}")
    return value


def _build(cls, *args):
    """cls(*args), with the ValueError of a size, shape or symmetry that cls
    rejects raised as FormatError."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise FormatError(f"{cls.__name__}: {exc}") from None


def _real(x) -> float:
    """A finite JSON number as a float (bools are not numbers here)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise FormatError(f"expected a number, got {x!r}")
    try:
        value = float(x)
    except OverflowError:
        raise FormatError("a number is out of the floating-point range") from None
    if not math.isfinite(value):
        raise FormatError(f"expected a finite number, got {x!r}")
    return value


def _complex_entries(entries) -> np.ndarray:
    """A JSON list of [re, im] pairs of finite numbers as a complex array."""
    if not isinstance(entries, list):
        raise FormatError("entries must be a JSON list of [re, im] pairs")
    for k, e in enumerate(entries):
        if not isinstance(e, list) or len(e) != 2:
            raise FormatError(f"entry {k} is not a [re, im] pair: {e!r}")
    return np.array([complex(_real(re), _real(im)) for re, im in entries], dtype=complex)


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = _count(obj, "rows"), _count(obj, "cols")
    entries = _complex_entries(_field(obj, "entries"))
    if len(entries) != rows * cols:
        raise FormatError("entry count does not match rows * cols")
    return entries.reshape(rows, cols)


def vector_to_json(v: np.ndarray) -> list:
    v = np.asarray(v, dtype=complex).ravel()
    return [[float(z.real), float(z.imag)] for z in v]


def bipartite_to_json(X: BipartiteMatrix) -> dict:
    return {"m": X.m, "n": X.n, "matrix": matrix_to_json(X.data)}


def bipartite_from_json(obj: dict) -> BipartiteMatrix:
    return _build(BipartiteMatrix, _count(obj, "m"), _count(obj, "n"),
                  matrix_from_json(_field(obj, "matrix")))


def choi_to_json(phi: ChoiMap) -> dict:
    return {"m": phi.m, "n": phi.n, "choi": bipartite_to_json(phi.choi)}


def choi_from_json(obj: dict) -> ChoiMap:
    m, n, choi = _count(obj, "m"), _count(obj, "n"), bipartite_from_json(_field(obj, "choi"))
    if (choi.m, choi.n) != (m, n):
        raise FormatError("ChoiMap: Choi matrix dimensions disagree with the map's")
    return ChoiMap(choi)


def spec_to_json(spec: DecomposableSpec) -> dict:
    return {
        "Vs": [matrix_to_json(V) for V in spec.Vs],
        "Ws": [matrix_to_json(W) for W in spec.Ws],
    }


def spec_from_json(obj: dict) -> DecomposableSpec:
    if not isinstance(obj, dict):
        raise FormatError(f"a spec must be a JSON object, got {type(obj).__name__}")
    lists = [obj.get(key, []) for key in ("Vs", "Ws")]
    if not all(isinstance(mats, list) for mats in lists):
        raise FormatError("'Vs' and 'Ws' must be JSON lists of matrices")
    return _build(DecomposableSpec, *(tuple(matrix_from_json(M) for M in mats) for mats in lists))


def combination_from_json(obj) -> list[tuple[str, float, float, float]]:
    """(family, b, theta, weight) of each entry of a combination spec, a
    non-empty JSON list of objects.  Each has a family name of
    states.FAMILIES, finite numbers b and weight, and theta as a finite
    number or an angle string."""
    if not obj or not isinstance(obj, list) or not all(isinstance(s, dict) for s in obj):
        raise FormatError("a combination spec must be a non-empty JSON list of objects")
    return [_combination_entry(i, s) for i, s in enumerate(obj)]


def _combination_entry(i: int, s: dict) -> tuple[str, float, float, float]:
    missing = [key for key in ("family", "b", "theta", "weight") if key not in s]
    if missing:
        raise FormatError(f"spec entry {i}: missing key(s) {', '.join(missing)}")
    if not isinstance(s["family"], str) or s["family"] not in FAMILIES:
        raise FormatError(f"spec entry {i}: unknown family {s['family']!r}")
    try:
        b, weight = _real(s["b"]), _real(s["weight"])
    except FormatError as exc:
        raise FormatError(f"spec entry {i}: b and weight must be numbers ({exc})") from None
    try:
        theta = angle_from_text(s["theta"]) if isinstance(s["theta"], str) else _real(s["theta"])
    except FormatError as exc:
        raise FormatError(f"spec entry {i}: theta: {exc}") from None
    return s["family"], b, theta, weight


def report_to_json(rep: ExtremalityReport) -> dict:
    return {
        "dim_ker_D": rep.dim_ker_D,
        "dim_ker_E": rep.dim_ker_E,
        "dim_intersection": rep.dim_intersection,
        "is_extreme": rep.is_extreme,
        "generator": None if rep.generator is None else bipartite_to_json(rep.generator),
    }
