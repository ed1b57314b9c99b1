"""Slow, independent routes to the spectral, extremality and map decisions,
used only by tests.

phi_D and phi_E are the 81-dimensional operators on all of Herm(9) whose
kernels are the hermitian matrices supported on a face's two ranges; the
kernel dimension of is_extreme_in_T is checked against the intersection of
their kernels, and against d_side_face_dim, the face system always posed on
the range of X.  Rank and kernel cuts use the package's CUTOFF.  choi_of
builds a Choi matrix one matrix unit at a time, from a map's action.
seesaw_product_vector_search is the multi-start seesaw that searched a
subspace for a product vector before the Macaulay solver; a None from it
proves nothing.
"""
import numpy as np

from pptgeo.linalg import CUTOFF, hermitian_basis, numerical_rank, orthonormal_system_rank, zero_level
from pptgeo.maps import ChoiMap
from pptgeo.seesaw import minimize, starts
from pptgeo.states import BipartiteMatrix, _pt


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
    Z = D @ hermitian_basis(p) @ D.conj().T
    W = F.conj().T @ _pt(Z, m, n)
    M = np.concatenate([W.real, W.imag], axis=1).reshape(p * p, -1).T
    return p * p - orthonormal_system_rank(np.linalg.svd(M, compute_uv=False))


def _operator(f, dim: int) -> np.ndarray:
    """Real dim^2 x dim^2 matrix of a real-linear map f on Herm(dim), with f
    applied to the whole basis stack at once."""
    B = hermitian_basis(dim)
    return np.einsum("jab,kba->jk", B, f(B)).real


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
    is at most the zero level of I - P, else None."""
    Q = (np.eye(m * n) - D @ D.conj().T).reshape(m, n, m, n)
    xi, eta, val = minimize(Q, starts(restarts, m, n, seed)[1])
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
