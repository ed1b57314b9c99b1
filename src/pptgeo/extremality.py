"""Extreme-point test for the PPT convex body, solved in face coordinates.

A PPT state X determines the face given by the range D of X and the range E
of its partial transpose.  X is an extreme point iff the real space of
hermitian Z with Z supported on D and Z^Gamma supported on E is
one-dimensional (Leinaas, Myrheim & Ovrum, PRA 76, 034304, 2007).  Writing
Z = D H D^dagger with H hermitian on the p = dim D coordinates leaves one
condition, F^dagger Z^Gamma = 0 with F an orthonormal basis of the complement
of E (the kernel eigenvectors of X^Gamma); the intersection is the kernel of
that real (2 mn (mn - q)) x p^2 system.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    CUTOFF,
    ROUNDOFF,
    as_hermitian,
    hermitian_basis,
    NumericalError,
    hermitian_to_real_vector,
    numerical_rank,
    range_mask,
    unit_scaled,
)
from .states import BipartiteMatrix, FaceSpec, _pt, _unit_trace, is_ppt, partial_transpose, rho


@dataclass(frozen=True)
class ExtremalityReport:
    dim_ker_D: int
    dim_ker_E: int
    dim_intersection: int
    is_extreme: bool
    generator: Optional[BipartiteMatrix]


def face_of(X: BipartiteMatrix) -> FaceSpec:
    """Range bases of X and of its partial transpose, built and checked once
    per state and cached on X."""
    if not is_ppt(X):
        raise ValueError("face_of requires a PPT input")
    return X._face


def is_extreme_in_T(X: BipartiteMatrix) -> ExtremalityReport:
    """Extremality of a nonzero PPT state in the PPT convex body.

    dim_ker_D and dim_ker_E are p^2 and q^2, the real dimensions of the
    hermitian matrices supported on D and on E."""
    if np.max(np.abs(X.data)) == 0:
        raise ValueError("the zero matrix has no extremality report")
    face = face_of(X)
    p, q = face.D.shape[1], face.E.shape[1]
    # F, the complement of E, is the kernel half of the same cached spectrum.
    w, V = partial_transpose(X).spectrum
    F = V[:, ~range_mask(w)]
    Z = face.D @ hermitian_basis(p) @ face.D.conj().T
    W = F.conj().T @ _pt(Z, X.m, X.n)
    M = np.concatenate([W.real, W.imag], axis=1).reshape(p * p, -1).T
    dim_int, g = _intersection(M)
    generator = None
    if g is not None:
        G = np.tensordot(g, Z, axes=1)
        # ||G||_F = 1, so the trace guard is relative to G.
        tr = float(np.trace(G).real)
        if abs(tr) < ROUNDOFF:
            raise ValueError("intersection generator is traceless; cannot normalize")
        G = G / tr
        generator = BipartiteMatrix(X.m, X.n, G)
        # Not ROUNDOFF: near a type change G and X / tr X agree only to about 1e-8.
        if np.max(np.abs(G - _unit_trace(X.data))) > 1e-7:
            raise ValueError("unique intersection element is not proportional to the input")
    return ExtremalityReport(p * p, q * q, dim_int, dim_int == 1, generator)


def _intersection(M: np.ndarray) -> tuple[int, Optional[np.ndarray]]:
    """dim ker M, and the unit vector spanning the kernel when that is 1.

    The shape of M decides which singular vectors to compute: the economy
    SVD of a tall M (rows >= cols) holds its whole kernel in one call, while
    for a wide M the singular values alone give the dimension, and its
    vectors are computed only when the kernel is one-dimensional."""
    rows, cols = M.shape
    if rows >= cols:
        _, s, Vh = np.linalg.svd(M, full_matrices=False)
    else:
        s, Vh = np.linalg.svd(M, compute_uv=False), None
    # D, F and the Herm(p) basis are orthonormal, so ||M|| <= 1: the cutoff is absolute.
    dim = cols - int(np.count_nonzero(s > CUTOFF))
    if dim != 1:
        return dim, None
    if Vh is None:
        Vh = np.linalg.svd(M)[2]
    return 1, Vh[-1]


def _E(i: int, j: int) -> np.ndarray:
    M = np.zeros((9, 9), dtype=complex)
    M[i - 1, j - 1] = 1.0
    return M


def appendix_basis_X(b: float, theta: float) -> list[np.ndarray]:
    """The 25 hermitian matrices spanning ker(phi_D) for the face of
    rho(b, theta), materialized from their matrix-unit expressions."""
    if b <= 0:
        raise ValueError("b must be positive")
    e = np.exp(1j * theta)
    ec = np.conj(e)
    E = _E
    xs = [
        E(1, 1) + E(5, 5) - E(1, 5) - E(5, 1),
        E(1, 1) + E(9, 9) - E(1, 9) - E(9, 1),
        E(5, 5) + E(9, 9) - E(5, 9) - E(9, 5),
        1j * (E(1, 9) - E(1, 5) - E(5, 9)) - 1j * (E(9, 1) - E(5, 1) - E(9, 5)),
        ec * E(2, 4) + e * E(4, 2) - b * E(4, 4) - (1 / b) * E(2, 2),
        ec * E(6, 8) + e * E(8, 6) - b * E(8, 8) - (1 / b) * E(6, 6),
        ec * E(7, 3) + e * E(3, 7) - b * E(3, 3) - (1 / b) * E(7, 7),
        ec * (E(2, 9) - E(2, 1)) + e * (E(9, 2) - E(1, 2))
        + b * (E(1, 4) + E(4, 1) - E(4, 9) - E(9, 4)),
        ec * (E(7, 1) - E(7, 5)) + e * (E(1, 7) - E(5, 7))
        + b * (E(3, 5) + E(5, 3) - E(1, 3) - E(3, 1)),
        ec * (E(7, 9) - E(7, 1)) + e * (E(9, 7) - E(1, 7))
        + b * (E(1, 3) + E(3, 1) - E(3, 9) - E(9, 3)),
        ec * (E(6, 1) - E(6, 5)) + e * (E(1, 6) - E(5, 6))
        + b * (E(5, 8) + E(8, 5) - E(1, 8) - E(8, 1)),
        ec * (E(6, 9) - E(6, 1)) + e * (E(9, 6) - E(1, 6))
        + b * (E(1, 8) + E(8, 1) - E(8, 9) - E(9, 8)),
        # Signs on the (2,5)/(5,2) couplings must oppose the (2,1)/(1,2)
        # ones, or the matrix fails to annihilate the face's kernel vectors.
        -ec * (E(2, 1) - E(2, 5)) - e * (E(1, 2) - E(5, 2))
        + b * (E(1, 4) + E(4, 1) - E(4, 5) - E(5, 4)),
        ec * (E(1, 3) - E(5, 3)) + e * (E(3, 1) - E(3, 5))
        + (1 / b) * (E(5, 7) + E(7, 5) - E(1, 7) - E(7, 1)),
        ec * (E(1, 3) - E(9, 3)) + e * (E(3, 1) - E(3, 9))
        + (1 / b) * (E(9, 7) + E(7, 9) - E(1, 7) - E(7, 1)),
        ec * (E(1, 4) - E(5, 4)) + e * (E(4, 1) - E(4, 5))
        + (1 / b) * (E(2, 5) + E(5, 2) - E(1, 2) - E(2, 1)),
        ec * (E(1, 4) - E(9, 4)) + e * (E(4, 1) - E(4, 9))
        + (1 / b) * (E(2, 9) + E(9, 2) - E(1, 2) - E(2, 1)),
        ec * (E(1, 8) - E(9, 8)) + e * (E(8, 1) - E(8, 9))
        + (1 / b) * (E(6, 9) + E(9, 6) - E(1, 6) - E(6, 1)),
        ec * (E(5, 8) - E(1, 8)) + e * (E(8, 5) - E(8, 1))
        + (1 / b) * (E(1, 6) + E(6, 1) - E(5, 6) - E(6, 5)),
        ec * (E(6, 3) + E(7, 8)) + e * (E(3, 6) + E(8, 7))
        - b * (E(3, 8) + E(8, 3)) - (1 / b) * (E(6, 7) + E(7, 6)),
        -ec * (E(2, 3) + E(7, 4)) - e * (E(3, 2) + E(4, 7))
        + b * (E(3, 4) + E(4, 3)) + (1 / b) * (E(2, 7) + E(7, 2)),
        -ec * (E(2, 8) + E(6, 4)) - e * (E(8, 2) + E(4, 6))
        + b * (E(4, 8) + E(8, 4)) + (1 / b) * (E(2, 6) + E(6, 2)),
        ec * (E(6, 7) + b**2 * E(8, 3) - b * ec * E(6, 3))
        + e * (E(7, 6) + b**2 * E(3, 8) - b * e * E(3, 6))
        - b * (E(7, 8) + E(8, 7)),
        ec * (E(4, 8) + (1 / b**2) * E(2, 6) - (1 / b) * ec * E(2, 8))
        + e * (E(8, 4) + (1 / b**2) * E(6, 2) - (1 / b) * e * E(8, 2))
        - (1 / b) * (E(4, 6) + E(6, 4)),
        -ec * (E(4, 3) + (1 / b**2) * E(2, 7) - (1 / b) * ec * E(2, 3))
        - e * (E(3, 4) + (1 / b**2) * E(7, 2) - (1 / b) * e * E(3, 2))
        + (1 / b) * (E(4, 7) + E(7, 4)),
    ]
    return list(as_hermitian(xs))


def appendix_basis_Y(b: float, theta: float) -> list[np.ndarray]:
    """The hermitian matrices listed for ker(phi_E) at the face of
    rho(b, theta).  The source list repeats two entries verbatim; the repeats
    are dropped, leaving 25 distinct formulas.  The achieved span dimension is
    what :func:`basis_span_rank` reports, not an assumption."""
    if b <= 0:
        raise ValueError("b must be positive")
    e = np.exp(1j * theta)
    ec = np.conj(e)
    E = _E
    ys = [
        E(1, 1) + E(5, 5) - E(2, 4) - E(4, 2),
        E(1, 1) + E(9, 9) - E(3, 7) - E(7, 3),
        E(5, 5) + E(9, 9) - E(6, 8) - E(8, 6),
        1j * (E(3, 7) + E(4, 2) + E(8, 6)) - 1j * (E(7, 3) + E(2, 4) + E(6, 8)),
        ec * E(1, 9) + e * E(9, 1) - b * E(3, 3) - (1 / b) * E(7, 7),
        ec * E(5, 1) + e * E(1, 5) - b * E(4, 4) - (1 / b) * E(2, 2),
        ec * E(9, 5) + e * E(5, 9) - b * E(8, 8) - (1 / b) * E(6, 6),
        ec * (E(2, 1) - E(8, 3)) + e * (E(1, 2) - E(3, 8))
        + b * (E(6, 7) + E(7, 6) - E(1, 4) - E(4, 1)),
        ec * (E(2, 1) - E(5, 2)) + e * (E(1, 2) - E(2, 5))
        + b * (E(4, 5) + E(5, 4) - E(1, 4) - E(4, 1)),
        ec * (E(3, 4) - E(6, 5)) + e * (E(4, 3) - E(5, 6))
        + b * (E(5, 8) + E(8, 5) - E(2, 7) - E(7, 2)),
        ec * (E(3, 4) - E(9, 6)) + e * (E(4, 3) - E(6, 9))
        + b * (E(8, 9) + E(9, 8) - E(2, 7) - E(7, 2)),
        ec * (E(4, 8) - E(1, 7)) + e * (E(8, 4) - E(7, 1))
        + b * (E(1, 3) + E(3, 1) - E(2, 6) - E(6, 2)),
        ec * (E(7, 9) - E(1, 7)) + e * (E(9, 7) - E(7, 1))
        + b * (E(1, 3) + E(3, 1) - E(3, 9) - E(9, 3)),
        ec * (E(2, 6) - E(1, 3)) + e * (E(6, 2) - E(3, 1))
        + (1 / b) * (E(1, 7) + E(7, 1) - E(4, 8) - E(8, 4)),
        ec * (E(3, 9) - E(1, 3)) + e * (E(9, 3) - E(3, 1))
        + (1 / b) * (E(1, 7) + E(7, 1) - E(7, 9) - E(9, 7)),
        ec * (E(4, 1) - E(5, 4)) + e * (E(1, 4) - E(4, 5))
        + (1 / b) * (E(2, 5) + E(5, 2) - E(1, 2) - E(2, 1)),
        ec * (E(6, 7) - E(4, 1)) + e * (E(7, 6) - E(1, 4))
        + (1 / b) * (E(1, 2) + E(2, 1) - E(3, 8) - E(8, 3)),
        ec * (E(7, 2) - E(8, 5)) + e * (E(2, 7) - E(5, 8))
        + (1 / b) * (E(5, 6) + E(6, 5) - E(3, 4) - E(4, 3)),
        ec * (E(7, 2) - E(9, 8)) + e * (E(2, 7) - E(8, 9))
        + (1 / b) * (E(6, 9) + E(9, 6) - E(3, 4) - E(4, 3)),
        ec * (E(3, 6) + E(7, 8)) + e * (E(6, 3) + E(8, 7))
        - b * (E(2, 9) + E(9, 2)) - (1 / b) * (E(4, 9) + E(9, 4)),
        -ec * (E(6, 4) + E(8, 2)) - e * (E(4, 6) + E(2, 8))
        + b * (E(5, 7) + E(7, 5)) + (1 / b) * (E(3, 5) + E(5, 3)),
        ec * (b * ec * E(3, 6) - E(9, 4) - b**2 * E(2, 9))
        + e * (b * e * E(6, 3) - E(4, 9) - b**2 * E(9, 2))
        + b * (E(7, 8) + E(8, 7)),
        ec * ((ec / b) * E(8, 2) - (1 / b**2) * E(5, 3) - E(7, 5))
        + e * ((e / b) * E(2, 8) - (1 / b**2) * E(3, 5) - E(5, 7))
        + (1 / b) * (E(4, 6) + E(6, 4)),
        ec * (ec * E(2, 3) - b * E(1, 6) - (1 / b) * E(8, 1))
        + e * (e * E(3, 2) - b * E(6, 1) - (1 / b) * E(1, 8))
        + (E(4, 7) + E(7, 4)),
        ec * (ec * E(4, 7) - b * E(6, 1) - (1 / b) * E(1, 8))
        + e * (e * E(7, 4) - b * E(1, 6) - (1 / b) * E(8, 1))
        + (E(2, 3) + E(3, 2)),
    ]
    return list(as_hermitian(ys))


def basis_span_rank(mats: list[np.ndarray]) -> int:
    """Real-linear span dimension of a list or stack of hermitian matrices."""
    return numerical_rank(hermitian_to_real_vector(mats))


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
    target = rho(b, theta).data
    xs = appendix_basis_X(b, theta)
    ys = appendix_basis_Y(b, theta)
    c, s = np.cos(theta), np.sin(theta)
    combo_x = c * (xs[0] + xs[1] + xs[2]) + s * xs[3] - xs[4] - xs[5] - xs[6]
    y_head = c * (ys[0] + ys[1] + ys[2]) - s * ys[3] - ys[4] - ys[5]
    scaled, _ = unit_scaled([target, target - combo_x, target - (y_head - xs[6]),
                             target - (y_head - ys[6])])
    scale, *norms = (np.linalg.norm(M) for M in scaled)
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

    The membership residuals are max ||P_D M P_D - M||_F over the X basis and
    max ||(P_E M^Gamma P_E)^Gamma - M||_F over the Y basis; the real
    vectorization is an isometry, so they equal the norms of phi_D and phi_E
    applied to the basis elements.  The bases hold b^2 and 1/b^2 and the
    norms square them, so a b that leaves the floating-point range raises
    NumericalError instead of reporting an infinite residual."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            X = rho(b, theta)
            face = face_of(X)
            P_D = face.D @ face.D.conj().T
            P_E = face.E @ face.E.conj().T
            xs = np.array(appendix_basis_X(b, theta))
            ys = np.array(appendix_basis_Y(b, theta))
            x_res = np.linalg.norm(P_D @ xs @ P_D - xs, axis=(1, 2)).max()
            ys_E = _pt(P_E @ _pt(ys, X.m, X.n) @ P_E, X.m, X.n)
            y_res = np.linalg.norm(ys_E - ys, axis=(1, 2)).max()
            ident = verify_combination_identity(b, theta)
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
