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
import math

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
    that entries near the floating-point limit stay finite, as a fresh array.
    A may be one matrix or a (..., d, d) stack; each matrix of a stack is held
    to its own largest entry, and the result is bitwise what one call per
    matrix would return."""
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


def unit_scaled(A):
    """(A * 2**-e, e) as a complex array, with e the ``math.frexp`` exponent
    of A's largest real or imaginary magnitude, so that magnitude of the
    scaled array lies in [1/2, 1).  A zero A comes back unchanged with e = 0.

    A power of two scales exactly, so a result computed on the scaled array
    and scaled back is bitwise the unscaled one wherever that stays in the
    floating-point range.  Every norm and normalisation of input data goes
    through here."""
    A = np.ascontiguousarray(A, dtype=complex)
    R = A.view(float)
    top = float(np.max(np.abs(R), initial=0.0))
    if top == 0.0:
        return A, 0
    e = math.frexp(top)[1]
    return np.ldexp(R, -e).view(complex), e


def eigh_descending(H: np.ndarray):
    """Eigendecomposition of an exactly hermitian H (see :func:`as_hermitian`):
    one ``np.linalg.eigh``, reordered to descending eigenvalues with the
    matching orthonormal eigenvectors as columns."""
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    return w[::-1].copy(), V[:, ::-1].copy()


# The cutoff rules, each a function of a descending spectrum w: every rank,
# PSD, range and kernel decision reads one, from a cached spectrum.

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


def hermitian_to_real_vector(H: np.ndarray) -> np.ndarray:
    """Coordinates Tr(B_k H) of hermitian H over the :func:`hermitian_basis`
    stack B, or of each matrix of a (..., d, d) stack along the last axis.
    The map is an isometry: Tr(XY) equals the Euclidean dot product of the
    coordinate vectors."""
    H = as_hermitian(H)
    d = H.shape[-1]
    cols = np.swapaxes(H, -2, -1).reshape(*H.shape[:-2], d * d)
    return (cols @ hermitian_basis(d).reshape(d * d, d * d).T).real


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
    """Numerical rank of a rectangular matrix: :func:`spectrum_rank` of its
    singular values."""
    return spectrum_rank(np.linalg.svd(np.asarray(M), compute_uv=False))
