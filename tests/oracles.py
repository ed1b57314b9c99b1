"""Slow, independent routes to the spectral, extremality and map decisions,
used only by tests.

phi_D and phi_E are the 81-dimensional operators on all of Herm(9) whose
kernels are the hermitian matrices supported on a face's two ranges; the
kernel dimension of is_extreme_in_T is checked against the intersection of
their kernels, and against d_side_face_dim, the face system always posed on
the range of X and built by z_stack_face_system from a stack of r^2 mn x mn
matrices Z_k; compression_membership is its membership check as first
written, with Y's coordinates read from its compression onto its range
(compression_coordinates).  Rank and kernel cuts use the package's CUTOFF.  choi_of
builds a Choi matrix one matrix unit at a time, from a map's action.
seesaw_product_vector_search is the multi-start seesaw that searched a
subspace for a product vector before the Macaulay solver; a None from it
proves nothing.  as_hermitian_oracle is the hermiticity check as first
written, stacks included, and appendix_basis_X_formula / _Y_formula build
the appendix bases from their printed formulas, one dense matrix unit at a
time.
hermitian_to_real_vector gives the real coordinates X = Re H + Im H of a
hermitian H, raveled row by row, on which phi_D and phi_E act and in which
the package poses its face system; H = sym X + i antisym X maps them back,
and _unit_hermitians stacks the images of the matrix units, the orthonormal
basis of Herm(d) that X holds the coordinates over.  numerical_rank ranks a
rectangular matrix by the spectrum rule on its singular values; the package
ranks the appendix spans off the real entries of the stack instead.
json_vector reads a vector the CLI prints, a JSON list of [re, im] pairs.
"""
import numpy as np

from pptgeo.extremality import _check_appendix_b
from pptgeo.linalg import (
    CUTOFF,
    ROUNDOFF,
    orthonormal_system_rank,
    range_mask,
    spectrum_rank,
    unit_scaled,
    zero_level,
)
from pptgeo.maps import ChoiMap
from pptgeo.seesaw import minimize, starts
from pptgeo.states import BipartiteMatrix, _pt


def as_hermitian_oracle(A) -> np.ndarray:
    """linalg.as_hermitian as first written, with np.all/np.max/np.any calls
    on the real and imaginary parts: on one matrix the same decision and
    bits, and the same messages but the shape error's.  It also takes a
    (..., d, d) stack, each matrix held to its own largest entry."""
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise ValueError("matrix entries must be finite")
    half = A / 2
    half_h = np.swapaxes(half, -2, -1).conj()
    dev = np.max(np.abs(half - half_h), axis=(-2, -1), initial=0.0)
    bad = dev > ROUNDOFF * np.max(np.abs(half), axis=(-2, -1), initial=0.0)
    if np.any(bad):
        raise ValueError(f"matrix is not hermitian (deviation {2 * np.max(dev[bad]):.3e})")
    return half + half_h


def numerical_kernel(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of a real or
    complex rectangular matrix: the right singular vectors past the singular
    values above CUTOFF times the largest."""
    M = np.asarray(M)
    _, s, Vh = np.linalg.svd(M, full_matrices=True)
    smax = s[0] if s.size else 0.0
    nkeep = int(np.count_nonzero(s > CUTOFF * smax)) if smax > 0 else 0
    return Vh[nkeep:].conj().T


def _eigh_split(H: np.ndarray):
    """(ascending eigenvalues, CUTOFF, range columns, kernel columns) of a
    hermitian matrix, from one np.linalg.eigh and the CUTOFF rule written out
    again, not from a package spectrum."""
    w, V = np.linalg.eigh(H)
    cut = CUTOFF * np.max(np.abs(w))
    return w, cut, V[:, np.abs(w) > cut], V[:, np.abs(w) <= cut]


def eigh_oracle(H: np.ndarray):
    """(smallest eigenvalue, PSD verdict, rank, range projector, kernel
    projector) of a hermitian matrix."""
    w, cut, R, K = _eigh_split(H)
    return w[0], bool(w[0] >= -cut), R.shape[1], R @ R.conj().T, K @ K.conj().T


def d_side_face_dim(X: BipartiteMatrix) -> int:
    """The face-intersection dimension of a PPT state of type (p, q), from the
    system on the range D of X whatever p and q are: Z = D H D^dagger over
    the hermitian H on p coordinates, and F^dagger Z^Gamma = 0 for the kernel
    F of X^Gamma, a real (2 mn (mn - q)) x p^2 matrix read by the package's
    singular-value rule.  D and F come from _eigh_split."""
    m, n = X.m, X.n
    D = _eigh_split(X.data)[2]
    F = _eigh_split(_pt(X.data, m, n))[3]
    p = D.shape[1]
    M = z_stack_face_system(D, F, m, n)
    return p * p - orthonormal_system_rank(np.linalg.svd(M, compute_uv=False))


def compression_coordinates(Y: BipartiteMatrix):
    """(c, e): Y's r^2 real coordinates, read from the compression of
    U = Y 2^-e, unit-scaled, onto the range D of Y, as the membership check
    of is_extreme_in_T first read them."""
    U, e = unit_scaled(Y.data)
    w, V = Y.spectrum
    D = V[:, range_mask(w)]
    return hermitian_to_real_vector(D.conj().T @ U @ D), e


def compression_membership(Y: BipartiteMatrix, YT: BipartiteMatrix, M: np.ndarray):
    """The membership check of is_extreme_in_T as first written, for the face
    system M posed on the range of Y, on the coordinates of
    :func:`compression_coordinates`: (c, ||M c||, bound)."""
    c, e = compression_coordinates(Y)
    slack = sum(np.linalg.norm(np.ldexp(S.spectrum[0][~range_mask(S.spectrum[0])], -e)) for S in (Y, YT))
    return c, np.linalg.norm(M @ c), slack + ROUNDOFF * np.linalg.norm(c)


def z_stack_face_system(D: np.ndarray, F: np.ndarray, m: int, n: int, pt=_pt) -> np.ndarray:
    """The real face system [Re; Im] F^dagger Z_k^Gamma, one column per
    unit hermitian H_k of :func:`_unit_hermitians`, built from the stack of
    the r^2 mn x mn matrices Z_k = D H_k D^dagger, partially transposed by pt
    (the package's first-factor transpose unless given)."""
    Z = D @ _unit_hermitians(D.shape[1]) @ D.conj().T
    W = F.conj().T @ pt(Z, m, n)
    return np.concatenate([W.real, W.imag], axis=1).reshape(len(Z), -1).T


def hermitian_to_real_vector(H: np.ndarray) -> np.ndarray:
    """Real coordinates Re H + Im H of hermitian H, raveled row by row, or of
    each matrix of a (..., d, d) stack along the last axis.  The map is an
    isometry: Tr(XY) equals the Euclidean dot product of the coordinate
    vectors."""
    H = as_hermitian_oracle(H)
    return (H.real + H.imag).reshape(*H.shape[:-2], -1)


def _unit_hermitians(d: int) -> np.ndarray:
    """The (d^2, d, d) stack of H_k = sym E_st + i antisym E_st, k = s d + t:
    the hermitian matrix with coordinate vector e_k, so that
    ``np.tensordot(v, _unit_hermitians(d), axes=1)`` maps coordinates back."""
    E = np.eye(d * d).reshape(d * d, d, d)
    ET = np.swapaxes(E, -2, -1)
    return (E + ET + 1j * (E - ET)) / 2


def json_vector(entries) -> np.ndarray:
    """The complex vector of a JSON list of [re, im] pairs."""
    return np.array([complex(re, im) for re, im in entries])


def numerical_rank(M: np.ndarray) -> int:
    """Numerical rank of a rectangular matrix: :func:`spectrum_rank` of its
    singular values."""
    return spectrum_rank(np.linalg.svd(np.asarray(M), compute_uv=False))


def _operator(f, dim: int) -> np.ndarray:
    """Real dim^2 x dim^2 matrix of a real-linear map f on Herm(dim), with f
    applied to the whole :func:`_unit_hermitians` stack at once.  Its images
    are hermitian only up to rounding, so their coordinates Re + Im are taken
    unchecked."""
    F = f(_unit_hermitians(dim))
    return (F.real + F.imag).reshape(dim * dim, dim * dim).T


def phi_D_operator(D: np.ndarray) -> np.ndarray:
    """Real matrix of Z -> P_D Z P_D - Z; its kernel is the hermitian matrices
    supported on D, of real dimension (dim D)^2."""
    D = np.asarray(D, dtype=complex)
    P = D @ D.conj().T
    return _operator(lambda Z: P @ Z @ P - Z, D.shape[0])


def phi_E_operator(E: np.ndarray, m: int, n: int) -> np.ndarray:
    """Real matrix of Z -> (P_E Z^Gamma P_E)^Gamma - Z on the m*n system."""
    E = np.asarray(E, dtype=complex)
    if E.shape[0] != m * n:
        raise ValueError("subspace lives in the wrong dimension")
    P = E @ E.conj().T
    return _operator(lambda Z: _pt(P @ _pt(Z, m, n) @ P, m, n) - Z, m * n)


def kernel_intersection_dim_oracle(op_a: np.ndarray, op_b: np.ndarray) -> int:
    """dim(ker A & ker B) by intersecting the two kernel bases (dim sum minus
    rank of the concatenation), valid when both kernels are proper
    subspaces."""
    Ka = numerical_kernel(op_a)
    Kb = numerical_kernel(op_b)
    if Ka.shape[1] == 0 or Kb.shape[1] == 0:
        return 0
    return Ka.shape[1] + Kb.shape[1] - numerical_rank(np.hstack([Ka, Kb]))


def seesaw_product_vector_search(D: np.ndarray, m: int, n: int, restarts: int = 100, seed: int = 0):
    """(xi, eta) when the seesaw minimum of the squared distance
    <xi (x) eta| I - P |xi (x) eta> to the span of the orthonormal columns D
    is at most the zero level of I - P, else None.  Restart 0 runs alone,
    and the other starts only when it misses."""
    Q = (np.eye(m * n) - D @ D.conj().T).reshape(m, n, m, n)
    xi, eta, val = minimize(Q, starts(1, n, seed))
    if val > zero_level(Q) and restarts > 1:
        rest = minimize(Q, starts(restarts, n, seed)[1:])
        xi, eta, val = min((xi, eta, val), rest, key=lambda best: best[2])
    return (xi, eta) if val <= zero_level(Q) else None


def choi_of(action, m: int, n: int) -> ChoiMap:
    """Assemble the Choi matrix of a map given by its action on matrix units.

    action(E) takes an m x m matrix unit and returns the n x n image.
    """
    C = np.zeros((m * n, m * n), dtype=complex)
    for i in range(m):
        for j in range(m):
            E = np.zeros((m, m), dtype=complex)
            E[i, j] = 1.0
            img = np.asarray(action(E), dtype=complex)
            if img.shape != (n, n):
                raise ValueError(f"image must be {n}x{n}, got {img.shape}")
            C[i * n:(i + 1) * n, j * n:(j + 1) * n] = img
    return ChoiMap(BipartiteMatrix(m, n, C))


def apply_map(phi: ChoiMap, X) -> np.ndarray:
    """Reconstruct phi(X) from the Choi matrix: phi(X) = sum_ij X_ij * block_ij."""
    X = np.asarray(X, dtype=complex)
    if X.shape != (phi.m, phi.m):
        raise ValueError(f"input must be {phi.m}x{phi.m}, got {X.shape}")
    Cr = phi.choi.data.reshape(phi.m, phi.n, phi.m, phi.n)
    return np.einsum("ij,iajb->ab", X, Cr)


def identity_map(n: int) -> ChoiMap:
    return choi_of(lambda E: E, n, n)


def transpose_map(n: int) -> ChoiMap:
    return choi_of(lambda E: E.T, n, n)


def trace_map(m: int, n: int) -> ChoiMap:
    return choi_of(lambda E: np.trace(E) * np.eye(n, dtype=complex), m, n)


def _E(i: int, j: int) -> np.ndarray:
    M = np.zeros((9, 9), dtype=complex)
    M[i - 1, j - 1] = 1.0
    return M


def appendix_basis_X_formula(b: float, theta: float) -> list[np.ndarray]:
    """The X basis of the appendix as its formulas read, one dense matrix
    unit at a time: the oracle of the package's term table."""
    _check_appendix_b(b)
    with np.errstate(invalid="ignore"):
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
    return list(as_hermitian_oracle(xs))


def appendix_basis_Y_formula(b: float, theta: float) -> list[np.ndarray]:
    """The Y basis of the appendix as its formulas read, with the source's
    two verbatim repeats dropped: the oracle of the package's term table."""
    _check_appendix_b(b)
    with np.errstate(invalid="ignore"):
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
    return list(as_hermitian_oracle(ys))
