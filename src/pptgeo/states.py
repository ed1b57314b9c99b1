"""Bipartite state families, partial transpose, and interior/boundary tests.

The two 3x3 families rho(b, theta) and sigma(b, theta) are kept unnormalized
(trace 3*(p_theta + b + 1/b)); use :func:`normalize` when a unit-trace state
is needed.  Composite indexing is A-major: |i> tensor |j> sits at i*n + j.
"""
from __future__ import annotations

import enum
import functools
import itertools
import math
import types
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    MAX_DENSE_ENTRIES,
    ROUNDOFF,
    NumericalError,
    as_hermitian,
    check_dense,
    eigh_descending,
    has_orthonormal_columns,
    orthonormal_system_rank,
    spectrum_is_pd,
    spectrum_is_psd,
    spectrum_rank,
    unit_scaled,
    zero_level,
)


class _cached:
    """A computed attribute stored in the instance's ``__dict__`` on first
    read, after which the plain attribute shadows this non-data descriptor.
    Unlike ``functools.cached_property`` before Python 3.12 it takes no lock,
    which made a first read there cost about three times as much.  Two threads
    reading it first may both compute it; the state is frozen, so both get
    equal values."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True, eq=False)
class BipartiteMatrix:
    """An mn x mn hermitian matrix tagged with its local dimensions.

    data is a read-only, exactly hermitian copy and the class is frozen, so
    the spectrum and the partial transpose, and the two decisions that a
    grid op reads more than once (the rank and the PSD verdict), are
    computed at most once per object and cached; every per-state decision
    reads them.  What a caller reads once, a range mask or unit-scaled
    data, it computes by the linalg rule itself.  It compares and hashes by
    identity.

    Hermiticity is checked once, where data enters: this constructor
    validates it through :func:`~pptgeo.linalg.as_hermitian` (finite,
    hermitian within ROUNDOFF) and keeps the exact symmetrization.  The
    matrices the package derives exactly hermitian itself (the cyclic
    pattern of rho, sigma and phi_theta_t, a partial transpose, a
    normalization) are wrapped by :meth:`_exact`, which checks nothing.
    """

    m: int
    n: int
    data: np.ndarray

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"local dimensions must be positive, got m={self.m}, n={self.n}")
        data = as_hermitian(self.data)
        if data.shape != (self.m * self.n, self.m * self.n):
            raise ValueError(
                f"data must be {self.m * self.n}x{self.m * self.n}, got {data.shape}"
            )
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @classmethod
    def _exact(cls, m: int, n: int, data: np.ndarray) -> BipartiteMatrix:
        """Wrap data with no check: a fresh, finite, exactly hermitian
        mn x mn complex array, with m, n >= 1, that nothing else holds.  It
        is made read-only in place.  Its callers are the derivation sites
        only (a guard in tests/test_dependencies.py holds this)."""
        data.flags.writeable = False
        X = object.__new__(cls)
        for name, value in (("m", m), ("n", n), ("data", data)):
            object.__setattr__(X, name, value)
        return X

    @_cached
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, V): eigenvalues descending and the matching orthonormal
        eigenvectors as columns, both read-only."""
        w, V = eigh_descending(self.data)
        w.flags.writeable = V.flags.writeable = False
        return w, V

    @_cached
    def _rank(self) -> int:
        """:func:`~pptgeo.linalg.spectrum_rank` of the spectrum."""
        return spectrum_rank(self.spectrum[0])

    @_cached
    def _is_psd(self) -> bool:
        """:func:`~pptgeo.linalg.spectrum_is_psd` of the spectrum."""
        return spectrum_is_psd(self.spectrum[0])

    @_cached
    def _partial_transpose(self) -> Optional[BipartiteMatrix]:
        """X^Gamma, or None when the permuted data is bitwise X's, signed
        zeros included (every rho): X^Gamma is then X itself and shares its
        spectrum, and None keeps X out of a reference cycle with itself.
        The permutation maps each conjugate pair of entries onto a conjugate
        pair, so X^Gamma is exactly hermitian and is not checked again."""
        T = _pt(self.data, self.m, self.n)
        if T.tobytes() == self.data.tobytes():
            return None
        return BipartiteMatrix._exact(self.m, self.n, T)


def _pt(Z: np.ndarray, m: int, n: int) -> np.ndarray:
    """The index permutation of :func:`partial_transpose`, on one mn x mn
    matrix or on every matrix of a stack."""
    return Z.reshape(-1, m, n, m, n).transpose(0, 3, 2, 1, 4).reshape(Z.shape)


class Arc(enum.Enum):
    """Position of exp(i*theta) on the unit circle, split at multiples of pi/3."""

    MINUS = "minus"      # theta in (-pi, -pi/3)
    ZERO = "zero"        # theta in (-pi/3, pi/3)
    PLUS = "plus"        # theta in (pi/3, pi)
    BOUNDARY = "boundary"  # theta = n*pi/3 for an integer n


@dataclass(frozen=True)
class StateType:
    """Rank pair (rank of X, rank of the partial transpose of X)."""

    p: int
    q: int


def _positive(name: str, x: float) -> None:
    """ValueError unless 0 < x < inf: the domain of b, t and the weights."""
    if not 0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def _turn(theta: float) -> tuple[int, float, bool]:
    """(j, r, tie) with theta = r + 2 pi j/3 (mod 2 pi), j in {0, 1, 2} and
    r in [-pi/3, pi/3]: theta is reduced by an exact 2 pi into [-pi, pi], as
    np.exp(1j * theta) reduces it (theta itself where |theta| <= pi, else
    atan2(sin, cos), whose sine and cosine reduce exactly), then by
    math.remainder, which is exact, modulo 2 pi/3.  tie holds where
    pi/3 - |r| <= ROUNDOFF, at an odd multiple of pi/3, where the two
    reductions r and r -+ 2 pi/3 tie; the subtraction is exact (Sterbenz).
    Every reader of theta's arc reads it here; the phases reduce exactly by
    themselves."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    t = theta if abs(theta) <= math.pi else math.atan2(math.sin(theta), math.cos(theta))
    step = 2.0 * math.pi / 3.0
    r = math.remainder(t, step)
    return round((t - r) / step) % 3, r, math.pi / 3.0 - abs(r) <= ROUNDOFF


def p_theta(theta: float) -> float:
    """The smallest a making the 3x3 circulant with off-diagonals -e^{+-i theta}
    positive semidefinite; equals max_k 2cos(theta + 2k pi/3), in [1, 2].
    The largest of the three cosines is the one whose angle lies nearest a
    multiple of 2 pi, so it is 2 cos r for the r of :func:`_turn`."""
    return 2.0 * math.cos(_turn(theta)[1])


def _positions(*pairs) -> np.ndarray:
    """(rows, columns), 0-based and read-only, of 1-based (row, column) pairs."""
    index = np.array(pairs).T - 1
    index.flags.writeable = False
    return index


# Positions (1-based composite indices) carrying -e^{i theta}; the hermitian
# partners carry -e^{-i theta}.
_RHO_PHASE_POSITIONS = _positions((1, 5), (5, 9), (9, 1), (3, 7), (4, 2), (8, 6))
_SIGMA_PHASE_POSITIONS = _positions((1, 5), (5, 9), (9, 1))


def _cyclic_pattern(diag, theta: float, positions) -> BipartiteMatrix:
    """The 3 (x) 3 matrix with diagonal (x, y, z, z, x, y, y, z, x), -e^{i theta}
    at the (rows, columns) positions and -e^{-i theta} at their partners.
    rho and sigma use (p_theta, 1/b, b); the generalized Choi map's Choi
    matrix is sigma's pattern with (a, c, b).  Each entry is written next
    to its conjugate, bitwise as :func:`~pptgeo.linalg.as_hermitian` would
    return it, and every caller has checked its parameters, so the diagonal
    and theta are finite and nothing is checked here."""
    # adding 0 turns a -0 into +0, as the halving in as_hermitian does here:
    # to a diagonal -0 (an underflowed coefficient of phi_theta_t), and to
    # the imaginary part of -e^{i theta} or of its conjugate at theta = +-0,
    # the only angles where sin(theta) is 0
    x, y, z = (v + 0.0 for v in diag)
    M = np.zeros((9, 9), dtype=complex)
    np.fill_diagonal(M, (x, y, z, z, x, y, y, z, x))
    phase = -np.exp(1j * theta) + 0.0
    i, j = positions
    M[i, j] = phase
    M[j, i] = np.conj(phase) + 0.0
    return BipartiteMatrix._exact(3, 3, M)


def _family(b: float, theta: float, positions) -> BipartiteMatrix:
    """rho or sigma; NumericalError where 1/b overflows (a subnormal b)."""
    _positive("b", b)
    if 1 / b == math.inf:
        raise NumericalError(f"state family out of floating-point range at b={b!r}")
    return _cyclic_pattern((p_theta(theta), 1 / b, b), theta, positions)


def rho(b: float, theta: float) -> BipartiteMatrix:
    """The unnormalized 3x3-bipartite state rho(b, theta); equals its own
    partial transpose bitwise, so :func:`partial_transpose` returns it."""
    return _family(b, theta, _RHO_PHASE_POSITIONS)


def sigma(b: float, theta: float) -> BipartiteMatrix:
    """The unnormalized companion state with phases only on the (1,5), (5,9),
    (9,1) couplings; rho = sigma + sigma^Gamma - Diag(sigma)."""
    return _family(b, theta, _SIGMA_PHASE_POSITIONS)


#: The two families by the name that CLI flags and JSON specs give them.
FAMILIES = {"rho": rho, "sigma": sigma}


def partial_transpose(X: BipartiteMatrix) -> BipartiteMatrix:
    """Transpose on the first tensor factor only.

    Viewing the matrix as an m x m grid of n x n blocks, block (i, k) moves to
    (k, i) with its interior unchanged.  With this convention rho(b, theta) is
    fixed and rho = sigma + sigma^Gamma - Diag(sigma) holds entrywise.
    Transposing the other factor instead gives the entrywise conjugate, so
    spectra, ranks and PPT verdicts are identical either way.  Every call
    on the same X returns the same (cached) object, X itself when the
    transposed entries are bitwise X's (every rho).
    """
    T = X._partial_transpose
    return X if T is None else T


def state_type(X: BipartiteMatrix) -> StateType:
    """Rank pair of a PPT state and its partial transpose."""
    if not X._is_psd:
        raise ValueError("state_type requires a PSD input")
    return StateType(X._rank, partial_transpose(X)._rank)


def is_ppt(X: BipartiteMatrix) -> bool:
    """PSD together with PSD partial transpose."""
    return X._is_psd and partial_transpose(X)._is_psd


def arc_of(theta: float) -> Arc:
    """Classify theta into the three open arcs by :func:`_turn`'s j, or
    BOUNDARY within ROUNDOFF (radians) of n*pi/3: where r ties or lies within
    ROUNDOFF of 0."""
    j, r, tie = _turn(theta)
    if tie or abs(r) <= ROUNDOFF:
        return Arc.BOUNDARY
    return (Arc.ZERO, Arc.PLUS, Arc.MINUS)[j]


def kernel_vectors_w(b: float, theta: float) -> list[np.ndarray]:
    """The whole kernel of rho(b, theta): w_1, w_2, w_3, then in increasing k
    each Fourier vector f_k = |00> + w^k |11> + w^2k |22>, w = e^{2 pi i/3},
    with 2cos(theta + 2k pi/3) = p_theta.

    k is read off :func:`_turn`, the reduction that :func:`p_theta` takes:
    theta + 2k pi/3 = r (mod 2 pi) for k = -j mod 3.  Where r ties, as
    :func:`arc_of` reads BOUNDARY at an odd multiple of pi/3, two cosines
    tie and the neighbouring k is taken too.  That gives 9 - p vectors for
    rho's type (p, p): five at the odd multiples of pi/3 and four elsewhere."""
    _positive("b", b)
    j, r, tie = _turn(theta)
    e = np.exp(1j * theta)
    vecs = [
        np.array([0, b, 0, e, 0, 0, 0, 0, 0], dtype=complex),
        np.array([0, 0, 0, 0, 0, b, 0, e, 0], dtype=complex),
        np.array([0, 0, e, 0, 0, 0, b, 0, 0], dtype=complex),
    ]
    k = -j % 3
    ks = {k, (k - 1 if r > 0 else k + 1) % 3} if tie else {k}
    w = np.exp(2j * math.pi / 3.0)
    phases = ((1, 1), (w, np.conj(w)), (np.conj(w), w))
    for i in sorted(ks):
        u, v = phases[i]
        vecs.append(np.array([1, 0, 0, 0, u, 0, 0, 0, v], dtype=complex))
    return vecs


def combine(states: list[BipartiteMatrix], weights) -> BipartiteMatrix:
    """Convex combination sum_i w_i X_i of equally shaped states."""
    if not states:
        raise ValueError("need at least one state")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(states),):
        raise ValueError("one weight per state required")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    if abs(weights.sum() - 1.0) > ROUNDOFF:
        raise ValueError("weights must sum to 1")
    m, n = states[0].m, states[0].n
    if any(X.m != m or X.n != n for X in states):
        raise ValueError("all states must share local dimensions")
    acc = sum(w * X.data for w, X in zip(weights, states))
    return BipartiteMatrix(m, n, acc)


def normalize(X: BipartiteMatrix) -> BipartiteMatrix:
    """Scale to unit trace.  X is unit-scaled before its trace is taken and
    divided by, so the result stays finite at any scale of X; the trace must
    be positive.  A power of two and a positive real divisor keep every
    conjugate pair of entries exact.  A trace far below the largest entry,
    as a non-PSD X can have, can overflow the quotient: NumPy divides the
    complex data by multiplying with 1/tr, and the unit-scaled entries lie
    below 1, so the quotient overflows exactly where 1/tr does.  That is
    decided before dividing and is a NumericalError."""
    A = unit_scaled(X.data)[0]
    tr = float(np.trace(A).real)
    if tr <= 0:
        raise ValueError("trace must be positive to normalize")
    if 1 / tr == math.inf:
        raise NumericalError("normalized state out of floating-point range")
    return BipartiteMatrix._exact(X.m, X.n, A / tr)


_PHASE_U = np.diag([1.0, np.exp(-2j * math.pi / 3.0), np.exp(2j * math.pi / 3.0)])


def conjugate_by_phase_unitary(X: BipartiteMatrix) -> BipartiteMatrix:
    """Conjugate by I tensor U with U = Diag(1, e^{-2pi i/3}, e^{2pi i/3});
    shifts the theta parameter of rho/sigma by -2pi/3."""
    if (X.m, X.n) != (3, 3):
        raise ValueError("phase-unitary conjugation is defined for 3x3 systems")
    IU = np.kron(np.eye(3), _PHASE_U)
    return BipartiteMatrix(3, 3, IU.conj().T @ X.data @ IU)


def is_interior_of_T(X: BipartiteMatrix) -> bool:
    """Interior of the PPT convex body: X and its partial transpose are
    positive definite.  Both are PSD, so that is full cached rank for each."""
    if not is_ppt(X):
        raise ValueError("is_interior_of_T requires a PPT input")
    return all(Y._rank == Y.m * Y.n for Y in (X, partial_transpose(X)))


def is_interior_of_S_sufficient(X: BipartiteMatrix) -> bool:
    """Sufficient interior test for the separable body (and, on Choi matrices,
    the positive-map cone): off-diagonal entries within ROUNDOFF times the
    largest entry and a positive definite diagonal.  False means undecided,
    not "boundary"."""
    A = unit_scaled(X.data)[0]
    off = A - np.diag(np.diag(A))
    return bool(np.max(np.abs(off)) <= ROUNDOFF * np.max(np.abs(A))) and spectrum_is_pd(np.diag(A).real)


def _unit_kron(xi, eta):
    """(v, k) with xi (x) eta = 2**k v.  xi and eta must be finite and
    nonzero; each is unit-scaled before the product, so v stays finite at any
    scale and has an entry of modulus at least 1/4."""
    xi, eta = (np.ravel(np.asarray(u, dtype=complex)) for u in (xi, eta))
    if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(eta))):
        raise ValueError("product vectors must be finite")
    (xi, a), (eta, b) = unit_scaled(xi), unit_scaled(eta)
    if not xi.any() or not eta.any():
        raise ValueError("product vectors must be nonzero")
    return np.kron(xi, eta), a + b


def product_state(xi, eta) -> BipartiteMatrix:
    """Unit-trace projector onto xi tensor eta, at any scale of xi and eta."""
    v = _unit_kron(xi, eta)[0]
    v = v / np.linalg.norm(v)
    return BipartiteMatrix(np.size(xi), np.size(eta), np.outer(v, v.conj()))


def verify_product_decomposition(X: BipartiteMatrix, parts) -> bool:
    """Check X = sum_i w_i |xi_i (x) eta_i><...| with the raw (unnormalized)
    product vectors: the largest entry of the difference is at most ROUNDOFF
    times the largest entry of X.  Each term is summed in the units of X
    unit-scaled, so the check holds at any scale of X and of the parts."""
    U, e = unit_scaled(X.data)
    acc = np.zeros_like(U)
    for xi, eta, weight in parts:
        _positive("weights", weight)
        v, k = _unit_kron(xi, eta)
        w, j = math.frexp(weight)
        t = 2 * k + j - e
        # The term's largest diagonal entry is at least 2**t / 32 and that of
        # U is below 1; the terms are PSD, so past t = 6 this one overshoots.
        if t > 6:
            return False
        acc += math.ldexp(w, t) * np.outer(v, v.conj())
    return bool(np.max(np.abs(U - acc)) <= ROUNDOFF * np.max(np.abs(U)))


def product_decomposition_rho_1_pi() -> list[tuple[np.ndarray, np.ndarray, float]]:
    """The four real product vectors decomposing rho(1, pi), weight 1/4 each."""
    signs = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)]
    return [(np.array(s, dtype=complex), np.array(s, dtype=complex), 0.25) for s in signs]


def search_product_vector_in_subspace(
    D: np.ndarray,
    m: int,
    n: int,
    restarts: int = 100,
    seed: int = 0,
):
    """Decide whether the span of the orthonormal columns D of C^m (x) C^n
    (D^dagger D = I up to ROUNDOFF, else ValueError) holds a product vector
    xi (x) eta, and return one as unit (xi, eta).

    A None result is a proof, up to the CUTOFF rank rule, that the span holds
    none, from whichever side :func:`_product_vectors` decided it on: a
    Macaulay matrix of minors, of the span's 2x2 minors or of its
    complement's n x n minors, has full column rank, with margin
    sigma_min / sigma_max (see :func:`_points`).  seed draws the random
    coordinates, slices and frames; restarts must be at least 1 and is
    otherwise unused.  The vector returned is the first one the solver
    enumerates, and it must meet the product-zero rule
    <xi (x) eta| I - P |xi (x) eta> <= :func:`~pptgeo.linalg.zero_level`
    of I - P, else NumericalError.  So is a span whose span side needs a
    Macaulay matrix of more than :data:`~pptgeo.linalg.MAX_DENSE_ENTRIES`
    (2**21) entries and whose complement side,
    counted by :func:`_cost`, is over that too (a full 6 (x) 6 span), even
    where any product vector would be an answer.
    """
    D = np.asarray(D, dtype=complex)
    if D.ndim != 2 or D.shape[0] != m * n or not has_orthonormal_columns(D):
        raise ValueError("D must have m*n rows of orthonormal columns")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    found = _product_vectors(D, m, n, np.random.default_rng(seed))
    if not found:
        return None
    xi, eta = found[0]
    Q = np.eye(m * n) - D @ D.conj().T
    v = np.outer(xi, eta).ravel()
    if (v.conj() @ Q @ v).real > zero_level(Q):
        raise NumericalError("the enumerated product vector is not in the subspace")
    return xi, eta


def _product_vectors(D: np.ndarray, m: int, n: int, rng: np.random.Generator) -> list:
    """Every product vector in the span of D, as unit (xi, eta) pairs, when
    the span holds finitely many; those of a random slice when it holds a
    family; [] when it holds none.

    The span is first put in random orthonormal coordinates drawn from rng.
    A span of dimension above (m-1)(n-1)+1 always holds a family, and is cut
    down to that dimension by dropping random coordinates (slicing with
    random linear forms).  The slice is then decided on the side whose first
    Macaulay matrix, counted with the products that expanding its minors
    takes (:func:`_cost`), is smaller: the slice itself
    (:func:`_span_vectors`) or its orthogonal complement
    (:func:`_complement_vectors`), both read off one complete QR (whose
    leading columns are bitwise the reduced QR's).  What the complement side
    cannot decide goes to the span side.
    """
    d = D.shape[1]
    if not d:
        return []
    G = rng.normal(size=(d, d, 2)).view(complex)[..., 0]
    Q = np.linalg.qr(D @ G, mode="complete")[0]
    k = min(d, (m - 1) * (n - 1) + 1)
    c = m * n - k
    # the complement has n x n minors (c >= n) when m, n > 1, as the span has 2x2 ones
    cost = _cost(c, n, n, m, n) if 1 < n <= c else math.inf
    found = None
    if cost <= MAX_DENSE_ENTRIES and cost < _cost(m, n, 2, k, 3):
        found = _complement_vectors(Q[:, k:], m, n, rng)
    return _span_vectors(Q[:, :k], m, n, rng) if found is None else found


def _span_vectors(B: np.ndarray, m: int, n: int, rng: np.random.Generator) -> list:
    """The product vectors in the span of an orthonormal B (mn, d) in random
    coordinates, d at most (m-1)(n-1)+1, as :func:`_product_vectors` lists
    them.

    x (x) y lies in span{B_k} (column k of B reshaped m x n) iff
    M(c) = sum_k c_k B_k has rank one, i.e. iff the C(m,2) C(n,2) 2x2 minors
    of M(c), quadrics in c, all vanish.  :func:`_points` tries the degrees 3
    to d + 2, and takes the points of a degree only when the leading
    singular vectors u, v of every M(c) make u (x) v a product zero of
    I - B B^dagger: a degree too low can pass the rank test of :func:`_points`
    with points that are not there (a null space of dimension one always
    passes it).  A null space still growing at the last degree is a family,
    and the span is sliced one dimension further (its last coordinate
    dropped); one that is not is a NumericalError.
    """
    def read(P):
        U, _, Vh = np.linalg.svd((B @ P).T.reshape(-1, m, n))
        xi, eta = U[:, :, 0], Vh[:, 0]
        v = (xi[:, :, None] * eta[:, None, :]).reshape(len(xi), -1)
        Q = np.eye(m * n) - B @ B.conj().T
        if np.any(((v.conj() @ Q) * v).sum(1).real > zero_level(Q)):
            return None
        return list(zip(xi, eta))

    while True:
        found, nulls = _points(B, m, n, 2, range(3, B.shape[1] + 3), rng, read)
        if found is not None:
            return found
        if len(nulls) < 2 or nulls[-1] <= nulls[-2]:
            raise NumericalError("the Macaulay null space did not settle")
        B = B[:, :-1]


def _complement_vectors(K: np.ndarray, m: int, n: int, rng: np.random.Generator):
    """The product vectors orthogonal to the orthonormal columns K (mn, c),
    c at least n, as :func:`_product_vectors` lists them, from one attempt
    at degree n; None when that attempt decides nothing.

    x (x) y is orthogonal to every K_k iff A(x) y = 0 for the c x n matrix
    A(x)[k, j] = sum_i x_i conj(K_k[i*n + j]), i.e. iff A(x) has rank below
    n: its C(c, n) n x n minors, forms of degree n in x, all vanish.  x is
    put in a random unitary frame drawn from rng, and :func:`_points` reads
    the points off the degree-n Macaulay matrix, whose rows are the minors
    themselves.  Full column rank is a proof that there is none, since the
    minors then span every form of degree n.  Otherwise every point x must
    leave A(x) a one-dimensional kernel y (by the rank rule), and x (x) y
    must be a product zero of K K^dagger; else the result is None, as it is
    when the null space does not show the points at degree n.
    """
    c = K.shape[1]
    U = np.linalg.qr(rng.normal(size=(m, m, 2)).view(complex)[..., 0])[0]
    # row k * n + j holds A(x)[k, j] as a linear form in the frame coordinates
    L = K.conj().reshape(m, n, c).transpose(2, 1, 0).reshape(c * n, m) @ U

    def read(P):
        P = P / np.linalg.norm(P, axis=0)
        _, s, Vh = np.linalg.svd((L @ P).T.reshape(-1, c, n))
        # for unit x and y, <x (x) y| K K^dagger |x (x) y> = |A(x) y|^2 = s_min^2
        if (any(orthonormal_system_rank(t) != n - 1 for t in s)
                or np.any(s[:, -1] ** 2 > zero_level(K @ K.conj().T))):
            return None
        return list(zip((U @ P).T, Vh[:, -1].conj()))

    return _points(L, c, n, n, (n,), rng, read)[0]


def _macaulay_entries(p: int, q: int, s: int, v: int, deg: int) -> int:
    """The entries of the degree-deg Macaulay matrix of the s x s minors of a
    p x q matrix of linear forms in v variables (see :func:`_points`)."""
    rows = math.comb(p, s) * math.comb(q, s) * math.comb(v + deg - s - 1, deg - s)
    return rows * math.comb(v + deg - 1, deg)


@functools.cache
def _cost(p: int, q: int, s: int, v: int, deg: int) -> int:
    """The size of posing such a Macaulay matrix: its entries plus the
    coefficient products that expanding the minors takes (:func:`_minor_forms`;
    size t lists C(p, t) C(q - s + t, t) minors of t products each)."""
    return _macaulay_entries(p, q, s, v, deg) + sum(
        math.comb(p, t) * math.comb(q - s + t, t) * t * math.comb(v + t - 2, t - 1) * v
        for t in range(2, s + 1))


@functools.cache
def _minor_plan(p: int, q: int, s: int, v: int):
    """The s x s minors of a p x q matrix M of linear forms in v variables,
    expanded along their last column one size t = 2..s at a time: one
    (entry, sub, fold) per t, with minor k of size t equal to
    sum_i (-1)**(i + t - 1) M[entry[k, i]] (minor sub[k, i] of size t - 1).
    Entries are composite indices row * q + col, and the minors of size 1
    are the entries themselves.  Size t lists the minors on every t-subset
    of the rows and every t-subset of the first q - s + t columns (the
    leading t columns of the s-subsets), rows major, so the last size lists
    every s x s minor.  fold is a signed 0/1 matrix, the last with a
    trailing zero column: the t products of a size-(t - 1) minor and an
    entry (forms of degree t - 1 and 1), raveled as outer products of their
    coefficients, times fold give the minor's coefficients, the Laplace
    signs included.  All read-only."""
    index = {((r,), (j,)): r * q + j for r, j in itertools.product(range(p), range(q))}
    plan = []
    for t in range(2, s + 1):
        keys = list(itertools.product(itertools.combinations(range(p), t),
                                      itertools.combinations(range(q - s + t), t)))
        entry = np.array([[r * q + C[-1] for r in R] for R, C in keys], dtype=int).reshape(-1, t)
        sub = np.array([[index[R[:i] + R[i + 1:], C[:-1]] for i in range(t)] for R, C in keys],
                       dtype=int).reshape(-1, t)
        shift = _shift_columns(v, t)
        fold = np.zeros((shift.shape[1], v, len(_monomials(v, t)) + (t == s)))
        fold[np.arange(shift.shape[1]), np.arange(v)[:, None], shift] = 1
        sign = (-1.0) ** (np.arange(t) + t - 1)
        fold = (sign[:, None, None, None] * fold).reshape(-1, fold.shape[2])
        entry.flags.writeable = sub.flags.writeable = fold.flags.writeable = False
        plan.append((entry, sub, fold))
        index = {key: i for i, key in enumerate(keys)}
    return tuple(plan)


@functools.cache
def _monomials(d: int, deg: int) -> types.MappingProxyType:
    """{exponent tuple: column} for the monomials of degree deg in d
    variables, in lexicographic order, so that c_0^deg comes first; read-only."""
    return types.MappingProxyType({tuple(np.bincount(t, minlength=d)): i for i, t in
                                   enumerate(itertools.combinations_with_replacement(range(d), deg))})


def _shift_columns(d: int, deg: int) -> np.ndarray:
    """(d, r): the column of c_k times each of the r monomials of degree deg - 1
    among the monomials of degree deg."""
    cols = _monomials(d, deg)
    return np.array([[cols[beta[:k] + (beta[k] + 1,) + beta[k + 1:]] for beta in _monomials(d, deg - 1)]
                     for k in range(d)])


@functools.cache
def _macaulay_plan(d: int, deg: int, s: int):
    """(spread, shifts) for the degree-deg Macaulay matrix of forms of
    degree s in d variables, built on first use.

    spread (rows, cols) holds, at (beta, alpha) for a monomial beta of
    degree deg - s and one alpha of degree deg, the degree-s monomial
    alpha - beta, or the trailing 0 where alpha - beta is none, so that
    coefficients[:, spread] is the forms times each beta (the coefficients
    of :func:`_minor_forms` end in that 0).  shifts (d, r) holds the
    columns of c_k times each monomial of degree deg - 1.  Both read-only;
    the minors' own folds are in :func:`_minor_plan`."""
    forms, cols = _monomials(d, s), _monomials(d, deg)
    spread = np.full((len(_monomials(d, deg - s)), len(cols)), len(forms))
    for (beta, r), gamma in itertools.product(_monomials(d, deg - s).items(), forms):
        spread[r, cols[tuple(np.add(beta, gamma))]] = forms[gamma]
    shifts = _shift_columns(d, deg)
    spread.flags.writeable = shifts.flags.writeable = False
    return spread, shifts


def _minor_forms(L: np.ndarray, p: int, q: int, s: int) -> np.ndarray:
    """The coefficients of the s x s minors of a p x q matrix of linear forms
    in v = L.shape[1] variables, whose entry (row, col) has the coefficients
    L[row * q + col]: one row per minor, as :func:`_minor_plan` lists them,
    on the monomials of degree s and a trailing 0, read through the one
    plan of that minor shape."""
    F = L
    for entry, sub, fold in _minor_plan(p, q, s, L.shape[1]):
        F = (F[sub][..., None] * L[entry][:, :, None, :]).reshape(len(entry), len(fold)) @ fold
    return F


def _points(L: np.ndarray, p: int, q: int, s: int, degrees, rng: np.random.Generator, read):
    """(found, nulls) for the points c at which the p x q matrix of linear
    forms M(c) = sum_k c_k L[:, k], entry (row, col) at row * q + col, has
    rank below s: found is [] when there are none and read(P) when a degree
    shows some, P holding them as columns (c_0 = 1); read returns what the
    caller makes of them, or None to reject them.  found is None when no
    degree in degrees shows points that read takes; nulls holds the
    null-space dimension of each degree that did not.

    The Macaulay matrix at degree deg has the s x s minors of M(c) times each
    monomial of degree deg - s as rows and the monomials of degree deg as
    columns.  Full column rank means no point (found is []); its margin
    is sigma_min / sigma_max.  Otherwise its null space K, of dimension N,
    holds the monomial vectors of the N points once deg is high enough,
    which shows as the rows of K at c_0 times the degree-(deg - 1) monomials
    having rank N (Stetter, Numerical Polynomial Algebra, SIAM 2004).  The
    points are then read off the eigenvectors of a random multiplication
    map on K.  A Macaulay matrix past the dense-size budget is a
    NumericalError (:func:`~pptgeo.linalg.check_dense`).
    """
    v = L.shape[1]
    nulls, F = [], None
    for deg in degrees:
        check_dense(_macaulay_entries(p, q, s, v, deg), f"the degree-{deg} Macaulay matrix")
        spread, shifts = _macaulay_plan(v, deg, s)
        if F is None:
            F = _minor_forms(L, p, q, s)
        cols = spread.shape[1]
        M = F[:, spread].reshape(-1, cols)
        _, sv, Vh = np.linalg.svd(M, full_matrices=M.shape[0] < cols)
        r = orthonormal_system_rank(sv)
        if r == cols:
            return [], nulls
        S = Vh[r:].conj().T[shifts]  # S[k]: the null basis at c_k times each monomial of degree deg - 1
        U0, s0, V0h = np.linalg.svd(S[0], full_matrices=False)
        if orthonormal_system_rank(s0) == cols - r:
            # S[k] = S[0] T_k for T_k the multiplication by c_k / c_0, which
            # share one eigenbasis; a random combination of them separates the points
            Sr = (rng.normal(size=(v, 2)).view(complex)[:, 0] @ S.reshape(v, -1)).reshape(S.shape[1:])
            T = V0h.conj().T @ ((U0.conj().T @ Sr) / s0[:, None])
            Y = S @ np.linalg.eig(T)[1]  # Y[k] = Y[0] diag(c_k / c_0)
            found = read((Y[0].conj() * Y).sum(1) / (np.abs(Y[0]) ** 2).sum(0))
            if found is not None:
                return found, nulls
        nulls.append(cols - r)
    return None, nulls
