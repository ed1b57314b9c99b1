"""Dense complex hermitian linear algebra under one tolerance policy.

All matrices are small (at most 81x81 here), so everything is plain dense
numpy.  Hermitian space has one fixed orthonormal real basis, documented and
built at :func:`hermitian_basis`: the real coordinates of a hermitian H are
Tr(B_k H) over it, and the extremality test writes its face system and
its membership check in them.

Every numerical decision in the package uses one of two cutoffs, each relative
to the largest magnitude involved, so that no verdict changes when an input is
rescaled: :data:`CUTOFF` for rank, kernel and definiteness decisions and
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
    for one square matrix A and return the exact symmetrization
    A/2 + A^dagger/2, halved first so that entries near the floating-point
    limit stay finite, as a fresh array.  The halving divides: A * 0.5
    rounds the same but gives some zeros the other sign."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    half = A / 2
    half_h = half.T.conj()
    dev = float(np.abs(half - half_h).max(initial=0.0))
    if dev > ROUNDOFF * float(np.abs(half).max(initial=0.0)):
        # a Python float doubles past the float range to inf without a warning
        raise ValueError(f"matrix is not hermitian (deviation {2 * dev:.3e})")
    return half + half_h


def unit_scaled(A):
    """(A * 2**-e, e) as a fresh complex array, with e the ``math.frexp``
    exponent of A's largest real or imaginary magnitude, so that magnitude
    of the scaled array lies in [1/2, 1); a zero A has e = 0.
    A of more than two dimensions is a (..., r, c) stack of matrices, each
    scaled by its own exponent: e is then an integer array of shape
    A.shape[:-2], a zero matrix keeps e = 0, and the result is bitwise what
    one call per matrix would return.

    A power of two scales exactly, so a result computed on the scaled array
    and scaled back is bitwise the unscaled one wherever that stays in the
    floating-point range.  Every norm and normalisation of input data goes
    through here."""
    A = np.ascontiguousarray(A, dtype=complex)
    R = A.view(float)
    if A.ndim > 2:
        e = np.frexp(np.abs(R).max(axis=(-2, -1), initial=0.0))[1]
        return np.ldexp(R, -e[..., None, None]).view(complex), e
    e = math.frexp(float(np.abs(R).max(initial=0.0)))[1]
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


# The cutoff rules, each written once: every rank, definiteness, range, kernel,
# orthonormality and product-zero decision reads one.  w and s are descending.

def _largest_magnitude(w: np.ndarray) -> float:
    """max |w| of a descending w, read off its two ends; 0 when w is empty."""
    return max(float(w[0]), -float(w[-1])) if w.size else 0.0


def range_mask(w: np.ndarray) -> np.ndarray:
    """Which eigenvalues span the numerical range: |w| > CUTOFF * max |w|.
    None do when w is all zero; the kernel is the complement."""
    return np.abs(w) > CUTOFF * _largest_magnitude(w)


def spectrum_rank(w: np.ndarray) -> int:
    """Numerical rank: the number of eigenvalues in :func:`range_mask`."""
    return int(np.count_nonzero(range_mask(w)))


def spectrum_is_psd(w: np.ndarray) -> bool:
    """True iff the smallest eigenvalue is >= -CUTOFF * max |w|."""
    return w.size == 0 or float(w[-1]) >= -CUTOFF * _largest_magnitude(w)


def spectrum_is_pd(w: np.ndarray) -> bool:
    """True iff every eigenvalue, in any order, is above CUTOFF * max |w|."""
    return bool(np.all(w > CUTOFF * np.max(np.abs(w), initial=0.0)))


def orthonormal_system_rank(s: np.ndarray) -> int:
    """Rank of a system built from orthonormal bases: singular values s above CUTOFF * max(1, s[0])."""
    return int(np.count_nonzero(s > CUTOFF * max(1.0, s[0] if len(s) else 0.0)))


def has_orthonormal_columns(B: np.ndarray) -> bool:
    """max |B^dagger B - I| <= ROUNDOFF: no columns pass, non-finite ones fail."""
    return bool(np.max(np.abs(B.conj().T @ B - np.eye(B.shape[1])), initial=0.0) <= ROUNDOFF)


def zero_level(Q: np.ndarray) -> float:
    """ROUNDOFF * max|Q|: a product vector is a zero of the PSD form Q at or below it."""
    return ROUNDOFF * np.max(np.abs(Q))


@functools.lru_cache(maxsize=16)
def hermitian_basis(dim: int) -> np.ndarray:
    """The fixed orthonormal real basis of Herm(dim) as a (dim^2, dim, dim)
    stack, in this order:
      1. diagonal units E_ii, i = 0..dim-1;
      2. symmetric off-diagonals (E_ij + E_ji)/sqrt(2), i < j, row-major;
      3. antisymmetric off-diagonals i(E_ij - E_ji)/sqrt(2), i < j, row-major.

    The basis is orthonormal under Tr(XY), so the coordinates Tr(B_k H) of a
    hermitian H are an isometry onto R^(dim^2), and element k is the
    hermitian matrix with coordinate vector e_k.  Memoised per dim and
    returned read-only."""
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

