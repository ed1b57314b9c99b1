"""Dense complex hermitian linear algebra under one tolerance policy.

All matrices are small (at most 81x81 here), so everything is plain dense
numpy.  The real vectorization of hermitian space uses one fixed orthonormal
basis, documented and built at :func:`hermitian_basis`, so that real
coordinates are reproducible.

Every numerical decision in the package uses one of two cutoffs, each relative
to the largest magnitude involved, so that no verdict changes when an input is
rescaled: :data:`CUTOFF` for rank, kernel and PSD decisions and
:data:`ROUNDOFF` for deviations that can only be rounding.
"""
from __future__ import annotations

import functools

import numpy as np

#: An eigenvalue or singular value at most CUTOFF times the largest is zero.
CUTOFF = 1e-9
#: A deviation at most ROUNDOFF times the scale is rounding.
ROUNDOFF = 1e-12


class NumericalError(RuntimeError):
    """A computation failed to meet its numerical contract."""


def as_hermitian(A) -> np.ndarray:
    """Validate that max |A - A^dagger| <= ROUNDOFF * max |A| (a relative slack)
    and return the exact symmetrization A/2 + A^dagger/2, halved first so
    that entries near the floating-point limit stay finite, as a fresh array."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise ValueError("matrix entries must be finite")
    half = A / 2
    dev = np.max(np.abs(half - half.conj().T), initial=0.0)
    if dev > ROUNDOFF * np.max(np.abs(half), initial=0.0):
        raise ValueError(f"matrix is not hermitian (deviation {2 * dev:.3e})")
    return half + half.conj().T


def eig_hermitian(H: np.ndarray):
    """Eigendecomposition of a hermitian matrix, validated by :func:`as_hermitian`.

    Returns (eigenvalues, eigenvectors) with real eigenvalues in descending
    order and the matching orthonormal eigenvectors as columns.
    """
    return eigh_descending(as_hermitian(H))


def eigh_descending(H: np.ndarray):
    """:func:`eig_hermitian` of an already exactly hermitian H, without the
    validation: one ``np.linalg.eigh``, reordered to descending eigenvalues."""
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    return w[::-1].copy(), V[:, ::-1].copy()


# The cutoff rules, each a function of a descending spectrum w, so that a
# decision read from a cached spectrum and one computed from a matrix agree.

def range_mask(w: np.ndarray) -> np.ndarray:
    """Which eigenvalues span the numerical range: |w| > CUTOFF * max |w|.
    None do when w is all zero; the kernel is the complement."""
    return np.abs(w) > CUTOFF * (np.max(np.abs(w)) if w.size else 0.0)


def spectrum_rank(w: np.ndarray) -> int:
    """Numerical rank: the number of eigenvalues in :func:`range_mask`."""
    return int(np.count_nonzero(range_mask(w)))


def spectrum_is_psd(w: np.ndarray) -> bool:
    """True iff the smallest eigenvalue is >= -CUTOFF * max |w|."""
    return bool(w.size == 0 or w[-1] >= -CUTOFF * np.max(np.abs(w)))


def rank_tol(H: np.ndarray) -> int:
    """Numerical rank of hermitian H (:func:`spectrum_rank`)."""
    return spectrum_rank(eig_hermitian(H)[0])


def kernel_basis(H: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of hermitian H."""
    w, V = eig_hermitian(H)
    return V[:, ~range_mask(w)]


def range_basis(H: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical range of hermitian H."""
    w, V = eig_hermitian(H)
    return V[:, range_mask(w)]


def is_psd(H: np.ndarray) -> bool:
    """PSD verdict of hermitian H (:func:`spectrum_is_psd`)."""
    return spectrum_is_psd(eig_hermitian(H)[0])


def hermitian_to_real_vector(H: np.ndarray) -> np.ndarray:
    """Coordinates Tr(B_k H) of hermitian H over the :func:`hermitian_basis`
    stack B.  The map is an isometry: Tr(XY) equals the Euclidean dot product
    of the coordinate vectors."""
    H = as_hermitian(H)
    d = H.shape[0]
    return (hermitian_basis(d).reshape(d * d, d * d) @ H.T.ravel()).real


def real_vector_to_hermitian(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`hermitian_to_real_vector` for the documented basis."""
    v = np.asarray(v, dtype=float)
    if v.shape != (dim * dim,):
        raise ValueError(f"expected vector of length {dim * dim}, got {v.shape}")
    return np.tensordot(v, hermitian_basis(dim), axes=1)


@functools.lru_cache(maxsize=16)
def hermitian_basis(dim: int) -> np.ndarray:
    """The fixed orthonormal real basis of Herm(dim) as a (dim^2, dim, dim)
    stack, in this order:
      1. diagonal units E_ii, i = 0..dim-1;
      2. symmetric off-diagonals (E_ij + E_ji)/sqrt(2), i < j, row-major;
      3. antisymmetric off-diagonals i(E_ij - E_ji)/sqrt(2), i < j, row-major.

    Element k is the hermitian matrix with coordinate vector e_k under
    :func:`hermitian_to_real_vector`.  Memoised per dim and returned
    read-only."""
    B = np.zeros((dim * dim, dim, dim), dtype=complex)
    d = np.arange(dim)
    B[d, d, d] = 1.0
    r, c = np.triu_indices(dim, k=1)
    sym = dim + np.arange(r.size)
    anti = sym + r.size
    h = 1 / np.sqrt(2.0)
    B[sym, r, c] = B[sym, c, r] = h
    B[anti, r, c] = 1j * h
    B[anti, c, r] = -1j * h
    B.flags.writeable = False
    return B


def numerical_rank(M: np.ndarray) -> int:
    """Numerical rank of a rectangular matrix: its singular values above
    CUTOFF times the largest."""
    s = np.linalg.svd(np.asarray(M), compute_uv=False)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return 0
    return int(np.count_nonzero(s > CUTOFF * smax))
