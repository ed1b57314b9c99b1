"""Extreme-point test for the PPT convex body, solved in face coordinates.

A PPT state X of type (p, q) determines the face given by the range D of X
and the range E of its partial transpose.  X is an extreme point iff the real
space of hermitian Z with Z supported on D and Z^Gamma supported on E is
one-dimensional (Leinaas, Myrheim & Ovrum, PRA 76, 034304, 2007).  Z -> Z^Gamma
maps that space one-to-one onto the same space for X^Gamma, whose ranges are
E and D, so the system is posed for Y, the one of X and X^Gamma with the
smaller range (X when p <= q).  Writing Z = D H D^dagger, with D the range
basis of Y and H hermitian on its min(p, q) coordinates, leaves one
condition, F^dagger Z^Gamma = 0 with F an orthonormal basis of the kernel of
Y^Gamma; the intersection is the kernel of that real
(2 mn (mn - max(p, q))) x min(p, q)^2 system, whose singular values give its
dimension.  X lies in its own face, so an extreme X is its own generator.
D, F and the bases of :func:`face_of` are read off the spectra and range
masks that each state caches, so no basis is computed or checked twice.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    ROUNDOFF,
    hermitian_basis,
    NumericalError,
    hermitian_to_real_vector,
    numerical_rank,
    orthonormal_system_rank,
    unit_scaled,
)
from .states import BipartiteMatrix, _pt, is_ppt, normalize, partial_transpose, rho


@dataclass(frozen=True)
class ExtremalityReport:
    dim_ker_D: int
    dim_ker_E: int
    dim_intersection: int
    is_extreme: bool
    generator: Optional[BipartiteMatrix]


@dataclass(frozen=True)
class FaceSpec:
    """Orthonormal bases (columns) of the two range subspaces defining a face."""

    D: np.ndarray
    E: np.ndarray


def face_of(X: BipartiteMatrix) -> FaceSpec:
    """Range bases of a PPT X and of its partial transpose: the eigenvectors
    that the cached range masks keep from the two cached spectra."""
    if not is_ppt(X):
        raise ValueError("face_of requires a PPT input")
    return FaceSpec(*(Y.spectrum[1][:, Y._range_mask] for Y in (X, partial_transpose(X))))


def is_extreme_in_T(X: BipartiteMatrix) -> ExtremalityReport:
    """Extremality of a nonzero PPT state in the PPT convex body.

    dim_ker_D and dim_ker_E are p^2 and q^2, the real dimensions of the
    hermitian matrices supported on D and on E.  The generator of an extreme
    X is normalize(X); NumericalError if the face system does not contain X."""
    if np.max(np.abs(X.data)) == 0:
        raise ValueError("the zero matrix has no extremality report")
    if not is_ppt(X):
        raise ValueError("is_extreme_in_T requires a PPT input")
    XT = partial_transpose(X)
    p, q = (int(np.count_nonzero(S._range_mask)) for S in (X, XT))
    # The system is posed for Y, whichever of X and X^Gamma has the smaller
    # range D (see the module docstring); Y^Gamma is the other one, and F,
    # the complement of its range, is the kernel half of its cached spectrum.
    Y, YT = (X, XT) if p <= q else (XT, X)
    r = min(p, q)
    D, F = Y.spectrum[1][:, Y._range_mask], YT.spectrum[1][:, ~YT._range_mask]
    Z = D @ hermitian_basis(r) @ D.conj().T
    W = F.conj().T @ _pt(Z, X.m, X.n)
    M = np.concatenate([W.real, W.imag], axis=1).reshape(r * r, -1).T
    # D, F and the Herm(r) basis are orthonormal, so ||M|| <= 1.
    dim = r * r - orthonormal_system_rank(np.linalg.svd(M, compute_uv=False))
    # Y's coordinates c_k = Tr(Z_k U) = Tr(B_k D^dagger U D), U = Y 2^-e, give
    # M c = [Re; Im] F^dagger (P_D U P_D)^Gamma: nonzero only by the eigenvalues
    # range_mask drops from U and from U^Gamma (a partial transpose keeps the
    # Frobenius norm), scaled before the norm so that it cannot overflow.
    U, e = Y._unit_scaled
    c = (Z.reshape(r * r, -1) @ U.T.ravel()).real
    slack = sum(np.linalg.norm(np.ldexp(S.spectrum[0][~S._range_mask], -e)) for S in (Y, YT))
    if np.linalg.norm(M @ c) > slack + ROUNDOFF * np.linalg.norm(c):
        raise NumericalError("the state is not in its own face system")
    return ExtremalityReport(p * p, q * q, dim, dim == 1, normalize(X) if dim == 1 else None)


def _check_appendix_b(b: float) -> None:
    """b > 0, and NumericalError unless b^2 and 1/b^2, held by the bases, are finite."""
    if b <= 0:
        raise ValueError("b must be positive")
    if not 0 < b * b < math.inf or 1 / (b * b) == math.inf:
        raise NumericalError(f"appendix basis out of floating-point range at b={b!r}")


# The appendix bases at the face of rho(b, theta) as term tables, one string
# per basis element and one term per nonzero entry.  The term "rc<coefficient>"
# puts the coefficient at row r, column c (1-based, the paper's E(r, c)).  A
# coefficient is a sign, an optional i and a product (*) or quotient (/) of
# 1, e = e^{i theta}, ec = e^{-i theta}, their squares e2 and ec2, b and b2.
_X_TERMS = (
    "11+1 55+1 15-1 51-1",
    "11+1 99+1 19-1 91-1",
    "55+1 99+1 59-1 95-1",
    "19+i 15-i 59-i 91-i 51+i 95+i",
    "24+ec 42+e 44-b 22-1/b",
    "68+ec 86+e 88-b 66-1/b",
    "73+ec 37+e 33-b 77-1/b",
    "29+ec 21-ec 92+e 12-e 14+b 41+b 49-b 94-b",
    "71+ec 75-ec 17+e 57-e 35+b 53+b 13-b 31-b",
    "79+ec 71-ec 97+e 17-e 13+b 31+b 39-b 93-b",
    "61+ec 65-ec 16+e 56-e 58+b 85+b 18-b 81-b",
    "69+ec 61-ec 96+e 16-e 18+b 81+b 89-b 98-b",
    # Signs on the (2,5)/(5,2) couplings must oppose the (2,1)/(1,2)
    # ones, or the matrix fails to annihilate the face's kernel vectors.
    "21-ec 25+ec 12-e 52+e 14+b 41+b 45-b 54-b",
    "13+ec 53-ec 31+e 35-e 57+1/b 75+1/b 17-1/b 71-1/b",
    "13+ec 93-ec 31+e 39-e 97+1/b 79+1/b 17-1/b 71-1/b",
    "14+ec 54-ec 41+e 45-e 25+1/b 52+1/b 12-1/b 21-1/b",
    "14+ec 94-ec 41+e 49-e 29+1/b 92+1/b 12-1/b 21-1/b",
    "18+ec 98-ec 81+e 89-e 69+1/b 96+1/b 16-1/b 61-1/b",
    "58+ec 18-ec 85+e 81-e 16+1/b 61+1/b 56-1/b 65-1/b",
    "63+ec 78+ec 36+e 87+e 38-b 83-b 67-1/b 76-1/b",
    "23-ec 74-ec 32-e 47-e 34+b 43+b 27+1/b 72+1/b",
    "28-ec 64-ec 82-e 46-e 48+b 84+b 26+1/b 62+1/b",
    "67+ec 83+ec*b2 63-ec2*b 76+e 38+e*b2 36-e2*b 78-b 87-b",
    "48+ec 26+ec/b2 28-ec2/b 84+e 62+e/b2 82-e2/b 46-1/b 64-1/b",
    "43-ec 27-ec/b2 23+ec2/b 34-e 72-e/b2 32+e2/b 47+1/b 74+1/b",
)
_Y_TERMS = (
    "11+1 55+1 24-1 42-1",
    "11+1 99+1 37-1 73-1",
    "55+1 99+1 68-1 86-1",
    "37+i 42+i 86+i 73-i 24-i 68-i",
    "19+ec 91+e 33-b 77-1/b",
    "51+ec 15+e 44-b 22-1/b",
    "95+ec 59+e 88-b 66-1/b",
    "21+ec 83-ec 12+e 38-e 67+b 76+b 14-b 41-b",
    "21+ec 52-ec 12+e 25-e 45+b 54+b 14-b 41-b",
    "34+ec 65-ec 43+e 56-e 58+b 85+b 27-b 72-b",
    "34+ec 96-ec 43+e 69-e 89+b 98+b 27-b 72-b",
    "48+ec 17-ec 84+e 71-e 13+b 31+b 26-b 62-b",
    "79+ec 17-ec 97+e 71-e 13+b 31+b 39-b 93-b",
    "26+ec 13-ec 62+e 31-e 17+1/b 71+1/b 48-1/b 84-1/b",
    "39+ec 13-ec 93+e 31-e 17+1/b 71+1/b 79-1/b 97-1/b",
    "41+ec 54-ec 14+e 45-e 25+1/b 52+1/b 12-1/b 21-1/b",
    "67+ec 41-ec 76+e 14-e 12+1/b 21+1/b 38-1/b 83-1/b",
    "72+ec 85-ec 27+e 58-e 56+1/b 65+1/b 34-1/b 43-1/b",
    "72+ec 98-ec 27+e 89-e 69+1/b 96+1/b 34-1/b 43-1/b",
    "36+ec 78+ec 63+e 87+e 29-b 92-b 49-1/b 94-1/b",
    "64-ec 82-ec 46-e 28-e 57+b 75+b 35+1/b 53+1/b",
    "36+ec2*b 94-ec 29-ec*b2 63+e2*b 49-e 92-e*b2 78+b 87+b",
    "82+ec2/b 53-ec/b2 75-ec 28+e2/b 35-e/b2 57-e 46+1/b 64+1/b",
    "23+ec2 16-ec*b 81-ec/b 32+e2 61-e*b 18-e/b 47+1 74+1",
    "47+ec2 61-ec*b 18-ec/b 74+e2 16-e*b 81-e/b 23+1 32+1",
)

# A coefficient's sign and i as an index into _UNIT_VALUES, and each factor
# as its (e exponent, b exponent).
_UNITS = {"+": 0, "-": 1, "+i": 2, "-i": 3}
_FACTORS = {"1": (0, 0), "e": (1, 0), "ec": (-1, 0), "e2": (2, 0), "ec2": (-2, 0), "b": (0, 1), "b2": (0, 2)}


def _term_table(elements):
    """(element, row, column, code) read-only index arrays of a term table;
    code indexes the vector of :func:`_coefficients`."""
    rows = []
    for k, terms in enumerate(elements):
        for term in terms.split():
            unit, product = re.fullmatch(r"\d\d([+-]i?)(.*)", term).groups()
            ke = kb = 0
            for op, name in re.findall(r"([*/]?)(\w+)", product or "1"):
                de, db = _FACTORS[name]
                sign = -1 if op == "/" else 1
                ke, kb = ke + sign * de, kb + sign * db
            code = (5 * _UNITS[unit] + ke + 2) * 5 + kb + 2
            rows.append((k, int(term[0]) - 1, int(term[1]) - 1, code))
    table = tuple(np.array(rows).T)
    for a in table:
        a.flags.writeable = False
    return table


_X_TABLE, _Y_TABLE = _term_table(_X_TERMS), _term_table(_Y_TERMS)
_UNIT_VALUES = np.array([1, -1, 1j, -1j])


def _coefficients(b: float, theta: float) -> np.ndarray:
    """The 100 values u e^{ik theta} b^j, for u in (1, -1, i, -i) and k, j in
    -2..2, at code (5 u + k + 2) 5 + j + 2.  e^{+-2i theta} b^j is taken as
    e^{+-i theta} (b^j e^{+-i theta}), the order of the printed formulas, and
    each u is applied last, so a coefficient and its conjugate partner are
    exact conjugates up to the sign of a zero: every matrix is hermitian."""
    e = np.exp(1j * theta)
    ec = np.conj(e)
    once = np.array([[ec], [1], [e]]) * np.array([1 / (b * b), 1 / b, 1, b, b * b])
    phased = np.concatenate([ec * once[:1], once, e * once[2:]])
    return (_UNIT_VALUES[:, None, None] * phased).ravel()


def _appendix_basis(table, b: float, theta: float) -> list[np.ndarray]:
    """The 25 matrices of a term table at (b, theta), scattered at once."""
    _check_appendix_b(b)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    element, row, col, code = table
    out = np.zeros((25, 9, 9), dtype=complex)
    out[element, row, col] = _coefficients(b, theta)[code]
    return list(out)


def appendix_basis_X(b: float, theta: float) -> list[np.ndarray]:
    """The 25 hermitian matrices spanning ker(phi_D) for the face of
    rho(b, theta), built from the term table ``_X_TERMS``."""
    return _appendix_basis(_X_TABLE, b, theta)


def appendix_basis_Y(b: float, theta: float) -> list[np.ndarray]:
    """The hermitian matrices listed for ker(phi_E) at the face of
    rho(b, theta), built from the term table ``_Y_TERMS``.  The source list
    repeats two entries verbatim; the repeats are dropped, leaving 25
    distinct formulas.  The achieved span dimension is what
    :func:`basis_span_rank` reports, not an assumption."""
    return _appendix_basis(_Y_TABLE, b, theta)


def basis_span_rank(mats: list[np.ndarray]) -> int:
    """Real-linear span dimension of a list or stack of hermitian matrices,
    each unit-scaled first, so that the rank does not depend on how the
    elements' sizes compare (the appendix bases hold b^2 next to 1)."""
    return numerical_rank(hermitian_to_real_vector(unit_scaled(mats)[0]))


@dataclass(frozen=True)
class CombinationIdentityReport:
    """Residuals of the explicit linear combinations reconstructing
    rho(b, theta) from the X and Y bases (valid on the central arc)."""

    x_residual: float
    y_residual_last_x7: float
    y_residual_last_y7: float
    ok: bool


def verify_combination_identity(b: float, theta: float) -> CombinationIdentityReport:
    """Check rho(b,theta) = cos(theta)(X1+X2+X3) + sin(theta) X4 - X5 - X6 - X7
    and both readings of the analogous Y combination (whose printed last term
    is ambiguous between -X7 and -Y7); ok when the X residual, relative to
    the Frobenius norm of rho, is within ROUNDOFF.  The norms are taken with
    rho and the three differences unit-scaled together, so they stay finite
    wherever the bases do."""
    return _combination_identity(rho(b, theta).data, appendix_basis_X(b, theta),
                                 appendix_basis_Y(b, theta), theta)


def _combination_identity(target, xs, ys, theta: float) -> CombinationIdentityReport:
    """:func:`verify_combination_identity` on rho's data and the two bases."""
    c, s = np.cos(theta), np.sin(theta)
    combo_x = c * (xs[0] + xs[1] + xs[2]) + s * xs[3] - xs[4] - xs[5] - xs[6]
    y_head = c * (ys[0] + ys[1] + ys[2]) - s * ys[3] - ys[4] - ys[5]
    # one matrix of the four stacked, so that they share one exponent
    scaled = unit_scaled(np.concatenate([target, target - combo_x, target - (y_head - xs[6]),
                                         target - (y_head - ys[6])]))[0]
    scale, *norms = (np.linalg.norm(M) for M in np.split(scaled, 4))
    rx, ry_x7, ry_y7 = (float(r / scale) for r in norms)
    return CombinationIdentityReport(rx, ry_x7, ry_y7, rx <= ROUNDOFF)


@dataclass(frozen=True)
class AppendixReport:
    """Membership residuals, span ranks and combination-identity residuals of
    the appendix bases at the face of rho(b, theta)."""

    x_membership_max_residual: float
    y_membership_max_residual: float
    x_span_rank: int
    y_span_rank: int
    x_combination_residual: float
    y_combination_residual_last_x7: float
    y_combination_residual_last_y7: float


def verify_appendix(b: float, theta: float) -> AppendixReport:
    """Check the appendix bases against the face of rho(b, theta).

    The membership residuals are max ||P_D M P_D - M||_F / ||M||_F over the
    X basis and max ||(P_E M^Gamma P_E)^Gamma - M||_F / ||M||_F over the Y
    basis; the real vectorization is an isometry, so they equal the norms of
    phi_D and phi_E applied to the unit basis elements.  The bases hold b^2
    and 1/b^2 and the norms square them, so a b that leaves the
    floating-point range raises NumericalError instead of reporting an
    infinite residual."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            X = rho(b, theta)
            face = face_of(X)
            P_D = face.D @ face.D.conj().T
            P_E = face.E @ face.E.conj().T
            xs = np.array(appendix_basis_X(b, theta))
            ys = np.array(appendix_basis_Y(b, theta))
            x_norms, y_norms = (np.linalg.norm(B, axis=(1, 2)) for B in (xs, ys))
            x_res = (np.linalg.norm(P_D @ xs @ P_D - xs, axis=(1, 2)) / x_norms).max()
            ys_E = _pt(P_E @ _pt(ys, X.m, X.n) @ P_E, X.m, X.n)
            y_res = (np.linalg.norm(ys_E - ys, axis=(1, 2)) / y_norms).max()
            ident = _combination_identity(X.data, xs, ys, theta)
    except ArithmeticError as exc:
        raise NumericalError(f"appendix check out of floating-point range at b={b!r}") from exc
    return AppendixReport(
        float(x_res),
        float(y_res),
        basis_span_rank(xs),
        basis_span_rank(ys),
        ident.x_residual,
        ident.y_residual_last_x7,
        ident.y_residual_last_y7,
    )
