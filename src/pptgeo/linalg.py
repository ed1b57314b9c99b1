"""Dense complex hermitian linear algebra under one tolerance policy.

All matrices are small (at most 81x81 here), so everything is plain dense
numpy.

Every numerical decision in the package uses one of two cutoffs, each relative
to the largest magnitude involved, so that no verdict changes when an input is
rescaled: :data:`CUTOFF` for rank, kernel and definiteness decisions and
:data:`ROUNDOFF` for deviations that can only be rounding.
"""
from __future__ import annotations

import math

import numpy as np

#: An eigenvalue or singular value at most CUTOFF times the largest is zero.
CUTOFF = 1e-9
#: A deviation at most ROUNDOFF times the scale is rounding.
ROUNDOFF = 1e-12
#: The dense-size budget: the most entries (complex, 32 MiB) of an array whose
#: size a caller sets; :func:`check_dense` refuses one past it.
MAX_DENSE_ENTRIES = 2**21


class NumericalError(RuntimeError):
    """A computation failed to meet its numerical contract."""


def check_dense(entries: int, what: str) -> None:
    """Raise NumericalError, naming ``what`` and its size, when an array of
    ``entries`` entries would pass the dense-size budget
    :data:`MAX_DENSE_ENTRIES`; called before anything is allocated."""
    if entries > MAX_DENSE_ENTRIES:
        raise NumericalError(f"{what} has {entries} entries, "
                             f"more than the dense-size budget of {MAX_DENSE_ENTRIES}")


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


def has_full_rank(A: np.ndarray) -> bool:
    """True proves that the real matrix A has full rank under the
    :func:`orthonormal_system_rank` rule: every singular value lies above
    CUTOFF * max(1, s[0]), so the rule would count min(A.shape) of them.
    False decides nothing.

    The proof is one Cholesky factorisation of the Gram matrix G on A's
    smaller side (A^T A if A is tall, else A A^T), shifted down by
    ROUNDOFF * max(1, tr G) on its diagonal, that completes with a finite
    factor; ``np.linalg.cholesky`` returns a non-finite factor of non-finite
    input without raising, so NaN or inf in A gives False (inf with NumPy's
    invalid-value warning).  Forming G and factorising it are backward
    stable (Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 10.3): at this package's sizes they round by at most
    about 1e-13 ||A||_F^2 = 1e-13 tr G, so a completed factorisation puts
    the smallest eigenvalue of the exact G above about
    0.9 ROUNDOFF max(1, ||A||_F^2), and the smallest singular value above
    about 1e-6 max(1, ||A||_F) >= 1e-6 max(1, s[0]), far above the cutoff."""
    G = A.T @ A if A.shape[0] >= A.shape[1] else A @ A.T
    G.flat[::len(G) + 1] -= ROUNDOFF * max(1.0, G.trace())
    try:
        return bool(np.isfinite(np.linalg.cholesky(G)).all())
    except np.linalg.LinAlgError:
        return False


def spectrum_is_clean(w: np.ndarray) -> bool:
    """True iff no |w| of a descending w lies in (ROUNDOFF, CUTOFF] times
    max |w|: each eigenvalue that the CUTOFF rules drop is rounding, so no
    rank or type read off w hangs on the cut."""
    a, top = np.abs(w), _largest_magnitude(w)
    return not np.any((a > ROUNDOFF * top) & (a <= CUTOFF * top))


def has_orthonormal_columns(B: np.ndarray) -> bool:
    """max |B^dagger B - I| <= ROUNDOFF: no columns pass, non-finite ones fail."""
    return bool(np.max(np.abs(B.conj().T @ B - np.eye(B.shape[1])), initial=0.0) <= ROUNDOFF)


def zero_level(Q: np.ndarray) -> float:
    """ROUNDOFF * max|Q|: a product vector is a zero of the PSD form Q at or below it."""
    return ROUNDOFF * np.max(np.abs(Q))
