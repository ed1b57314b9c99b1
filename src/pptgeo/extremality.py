"""Extreme-point test for the PPT convex body, solved in face coordinates.

A PPT state X determines the face given by the range D of X and the range E
of its partial transpose.  X is an extreme point iff the real space of
hermitian Z with Z supported on D and Z^Gamma supported on E is
one-dimensional (Leinaas, Myrheim & Ovrum, PRA 76, 034304, 2007).  Writing
Z = D H D^dagger with H hermitian on the p = dim D coordinates leaves one
condition, F^dagger Z^Gamma = 0 with F an orthonormal basis of the complement
of E (the kernel eigenvectors of X^Gamma); the intersection is the kernel of
that real (2 mn (mn - q)) x p^2 system.  The 81-dimensional operators phi_D
and phi_E on all of Herm(9) are kept as an independent test oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_hermitian,
    hermitian_basis,
    numerical_kernel,
    numerical_rank,
    range_mask,
)
from .states import BipartiteMatrix, _pt, is_ppt, partial_transpose, rho


@dataclass(frozen=True)
class FaceSpec:
    """Orthonormal bases (columns) of the two range subspaces defining a face."""

    D: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        for name, B in (("D", self.D), ("E", self.E)):
            G = B.conj().T @ B
            if np.max(np.abs(G - np.eye(B.shape[1]))) > 1e-10:
                raise ValueError(f"{name} columns are not orthonormal")


@dataclass(frozen=True)
class ExtremalityReport:
    dim_ker_D: int
    dim_ker_E: int
    dim_intersection: int
    is_extreme: bool
    generator: Optional[BipartiteMatrix]


def face_of(X: BipartiteMatrix, tol: Tolerance = DEFAULT_TOL) -> FaceSpec:
    """Range bases of X and of its partial transpose."""
    if not is_ppt(X, tol):
        raise ValueError("face_of requires a PPT input")
    return FaceSpec(_range(X, tol), _range(partial_transpose(X), tol))


def _range(X: BipartiteMatrix, tol: Tolerance) -> np.ndarray:
    """The eigenvectors of X's cached spectrum that span its numerical range."""
    w, V = X.spectrum
    return V[:, range_mask(w, tol)]


def is_extreme_in_T(X: BipartiteMatrix, tol: Tolerance = DEFAULT_TOL) -> ExtremalityReport:
    """Extremality of a nonzero PPT state in the PPT convex body.

    dim_ker_D and dim_ker_E are p^2 and q^2, the real dimensions of the
    hermitian matrices supported on D and on E."""
    if np.max(np.abs(X.data)) == 0:
        raise ValueError("the zero matrix has no extremality report")
    face = face_of(X, tol)
    p, q = face.D.shape[1], face.E.shape[1]
    # F, the complement of E, is the kernel half of the same cached spectrum.
    w, V = partial_transpose(X).spectrum
    F = V[:, ~range_mask(w, tol)]
    Z = face.D @ hermitian_basis(p) @ face.D.conj().T
    W = F.conj().T @ _pt(Z, X.m, X.n)
    M = np.concatenate([W.real, W.imag], axis=1).reshape(p * p, -1).T
    # D, F and the Herm(p) basis are orthonormal, so ||M|| <= 1: the cutoff is absolute.
    _, s, Vh = np.linalg.svd(M)
    ker = Vh[np.count_nonzero(s > tol.rank_rel):]
    dim_int = ker.shape[0]
    generator = None
    if dim_int == 1:
        G = np.tensordot(ker[0], Z, axes=1)
        tr = float(np.trace(G).real)
        if abs(tr) < 1e-12:
            raise ValueError("intersection generator is traceless; cannot normalize")
        G = G / tr
        generator = BipartiteMatrix(X.m, X.n, G)
        ref = X.data / float(np.trace(X.data).real)
        if np.max(np.abs(G - ref)) > 1e-7 * max(1.0, float(np.max(np.abs(ref)))):
            raise ValueError("unique intersection element is not proportional to the input")
    return ExtremalityReport(p * p, q * q, dim_int, dim_int == 1, generator)


def _operator(f, dim: int) -> np.ndarray:
    """Real dim^2 x dim^2 matrix of a real-linear map f on Herm(dim), with f
    applied to the whole basis stack at once."""
    B = hermitian_basis(dim)
    return np.einsum("jab,kba->jk", B, f(B)).real


def phi_D_operator(D: np.ndarray) -> np.ndarray:
    """Real matrix of Z -> P_D Z P_D - Z; its kernel is the hermitian matrices
    supported on D, of real dimension (dim D)^2.  Test oracle only."""
    D = np.asarray(D, dtype=complex)
    P = D @ D.conj().T
    return _operator(lambda Z: P @ Z @ P - Z, D.shape[0])


def phi_E_operator(E: np.ndarray, m: int, n: int) -> np.ndarray:
    """Real matrix of Z -> (P_E Z^Gamma P_E)^Gamma - Z on the m*n system.
    Test oracle only."""
    E = np.asarray(E, dtype=complex)
    if E.shape[0] != m * n:
        raise ValueError("subspace lives in the wrong dimension")
    P = E @ E.conj().T
    return _operator(lambda Z: _pt(P @ _pt(Z, m, n) @ P, m, n) - Z, m * n)


def kernel_intersection_dim_oracle(
    op_a: np.ndarray, op_b: np.ndarray, rel_cutoff: float = 1e-9
) -> int:
    """Independent route to dim(ker A & ker B): intersect the two kernel bases
    (dim sum minus rank of the concatenation).  Test oracle for
    :func:`is_extreme_in_T`, valid when both kernels are proper subspaces."""
    Ka = numerical_kernel(op_a, rel_cutoff)
    Kb = numerical_kernel(op_b, rel_cutoff)
    if Ka.shape[1] == 0 or Kb.shape[1] == 0:
        return 0
    return Ka.shape[1] + Kb.shape[1] - numerical_rank(np.hstack([Ka, Kb]), rel_cutoff)


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
    return [as_hermitian(x) for x in xs]


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
    return [as_hermitian(y) for y in ys]


def basis_span_rank(mats: list[np.ndarray], rel_cutoff: float = 1e-9) -> int:
    """Real-linear span dimension of a list of hermitian matrices."""
    from .linalg import hermitian_to_real_vector

    rows = np.array([hermitian_to_real_vector(M) for M in mats])
    return numerical_rank(rows, rel_cutoff)


@dataclass(frozen=True)
class CombinationIdentityReport:
    """Residuals of the explicit linear combinations reconstructing
    rho(b, theta) from the X and Y bases (valid on the central arc)."""

    x_residual: float
    y_residual_last_x7: float
    y_residual_last_y7: float
    ok: bool


def verify_combination_identity(
    b: float, theta: float, tol_rel: float = 1e-10
) -> CombinationIdentityReport:
    """Check rho(b,theta) = cos(theta)(X1+X2+X3) + sin(theta) X4 - X5 - X6 - X7
    and both readings of the analogous Y combination (whose printed last term
    is ambiguous between -X7 and -Y7)."""
    target = rho(b, theta).data
    scale = np.linalg.norm(target)
    xs = appendix_basis_X(b, theta)
    ys = appendix_basis_Y(b, theta)
    c, s = np.cos(theta), np.sin(theta)
    combo_x = c * (xs[0] + xs[1] + xs[2]) + s * xs[3] - xs[4] - xs[5] - xs[6]
    y_head = c * (ys[0] + ys[1] + ys[2]) - s * ys[3] - ys[4] - ys[5]
    rx = float(np.linalg.norm(target - combo_x) / scale)
    ry_x7 = float(np.linalg.norm(target - (y_head - xs[6])) / scale)
    ry_y7 = float(np.linalg.norm(target - (y_head - ys[6])) / scale)
    return CombinationIdentityReport(rx, ry_x7, ry_y7, rx <= tol_rel)


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
    applied to the basis elements."""
    X = rho(b, theta)
    face = face_of(X)
    P_D = face.D @ face.D.conj().T
    P_E = face.E @ face.E.conj().T
    xs = np.array(appendix_basis_X(b, theta))
    ys = np.array(appendix_basis_Y(b, theta))
    x_res = np.linalg.norm(P_D @ xs @ P_D - xs, axis=(1, 2)).max()
    y_res = np.linalg.norm(_pt(P_E @ _pt(ys, X.m, X.n) @ P_E, X.m, X.n) - ys, axis=(1, 2)).max()
    ident = verify_combination_identity(b, theta)
    return AppendixReport(
        float(x_res),
        float(y_res),
        basis_span_rank(xs),
        basis_span_rank(ys),
        ident.x_residual,
        ident.y_residual_last_x7,
        ident.y_residual_last_y7,
    )
