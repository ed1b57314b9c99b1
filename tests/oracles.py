"""Slow, independent routes to the extremality decision, used only by tests.

phi_D and phi_E are the 81-dimensional operators on all of Herm(9) whose
kernels are the hermitian matrices supported on a face's two ranges; the
kernel dimension of is_extreme_in_T is checked against the intersection of
their kernels.  Rank and kernel cuts use the package's CUTOFF.
"""
import numpy as np

from pptgeo.linalg import CUTOFF, hermitian_basis, numerical_rank
from pptgeo.states import _pt


def numerical_kernel(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of a real or
    complex rectangular matrix: the right singular vectors past the singular
    values above CUTOFF times the largest."""
    M = np.asarray(M)
    _, s, Vh = np.linalg.svd(M, full_matrices=True)
    smax = s[0] if s.size else 0.0
    nkeep = int(np.count_nonzero(s > CUTOFF * smax)) if smax > 0 else 0
    return Vh[nkeep:].conj().T


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
