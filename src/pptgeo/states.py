"""Bipartite state families, partial transpose, and interior/boundary tests.

The two 3x3 families rho(b, theta) and sigma(b, theta) are kept unnormalized
(trace 3*(p_theta + b + 1/b)); use :func:`normalize` when a unit-trace state
is needed.  Composite indexing is A-major: |i> tensor |j> sits at i*n + j.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    CUTOFF,
    ROUNDOFF,
    as_hermitian,
    eigh_descending,
    range_mask,
    spectrum_is_psd,
    spectrum_rank,
    unit_scaled,
)


@dataclass(frozen=True)
class BipartiteMatrix:
    """An mn x mn hermitian matrix tagged with its local dimensions.

    data is a read-only, exactly hermitian copy and the class is frozen, so
    the spectrum, the partial transpose and the face are computed at most
    once per object and cached.
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

    @property
    def dim(self) -> int:
        return self.m * self.n

    @functools.cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, V): eigenvalues descending and the matching orthonormal
        eigenvectors as columns, both read-only."""
        w, V = eigh_descending(self.data)
        w.flags.writeable = V.flags.writeable = False
        return w, V

    @functools.cached_property
    def _partial_transpose(self) -> BipartiteMatrix:
        return BipartiteMatrix(self.m, self.n, _pt(self.data, self.m, self.n))

    @functools.cached_property
    def _face(self) -> FaceSpec:
        """The range bases of X and of X^Gamma, read-only and read from the
        two cached spectra; extremality.face_of checks PPT before reading it."""
        D, E = (V[:, range_mask(w)] for w, V in (self.spectrum, self._partial_transpose.spectrum))
        D.flags.writeable = E.flags.writeable = False
        return FaceSpec(D, E)


@dataclass(frozen=True)
class FaceSpec:
    """Orthonormal bases (columns) of the two range subspaces defining a face."""

    D: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        for name, B in (("D", self.D), ("E", self.E)):
            G = B.conj().T @ B
            if np.max(np.abs(G - np.eye(B.shape[1]))) > ROUNDOFF:
                raise ValueError(f"{name} columns are not orthonormal")


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


def p_theta(theta: float) -> float:
    """The smallest a making the 3x3 circulant with off-diagonals -e^{+-i theta}
    positive semidefinite; equals max_k 2cos(theta + 2k pi/3), in [1, 2]."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return max(2.0 * math.cos(theta + 2.0 * math.pi * k / 3.0) for k in (-1, 0, 1))


# Positions (1-based composite indices) carrying -e^{i theta}; the hermitian
# partners carry -e^{-i theta}.
_RHO_PHASE_POSITIONS = ((1, 5), (5, 9), (9, 1), (3, 7), (4, 2), (8, 6))
_SIGMA_PHASE_POSITIONS = ((1, 5), (5, 9), (9, 1))


def _cyclic_pattern(diag, theta: float, positions) -> BipartiteMatrix:
    """The 3 (x) 3 matrix with diagonal (x, y, z, z, x, y, y, z, x), -e^{i theta}
    at the 1-based positions and -e^{-i theta} at their partners.  rho and sigma
    use (p_theta, 1/b, b); the generalized Choi map's Choi matrix is sigma's
    pattern with (a, c, b)."""
    x, y, z = diag
    M = np.diag([x, y, z, z, x, y, y, z, x]).astype(complex)
    phase = -np.exp(1j * theta)
    for i, j in positions:
        M[i - 1, j - 1] = phase
        M[j - 1, i - 1] = np.conj(phase)
    return BipartiteMatrix(3, 3, M)


def _family(b: float, theta: float, positions) -> BipartiteMatrix:
    if b <= 0:
        raise ValueError("b must be positive")
    return _cyclic_pattern((p_theta(theta), 1 / b, b), theta, positions)


def rho(b: float, theta: float) -> BipartiteMatrix:
    """The unnormalized 3x3-bipartite state rho(b, theta); equals its own
    partial transpose."""
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
    on the same X returns the same (cached) object.
    """
    return X._partial_transpose


def state_type(X: BipartiteMatrix) -> StateType:
    """Rank pair of a PPT state and its partial transpose."""
    if not spectrum_is_psd(X.spectrum[0]):
        raise ValueError("state_type requires a PSD input")
    return StateType(spectrum_rank(X.spectrum[0]), spectrum_rank(partial_transpose(X).spectrum[0]))


def is_ppt(X: BipartiteMatrix) -> bool:
    """PSD together with PSD partial transpose."""
    return spectrum_is_psd(X.spectrum[0]) and spectrum_is_psd(partial_transpose(X).spectrum[0])


def arc_of(theta: float) -> Arc:
    """Classify theta into the three open arcs, or BOUNDARY within ROUNDOFF
    (radians) of n*pi/3."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if abs(math.remainder(theta, math.pi / 3.0)) <= ROUNDOFF:
        return Arc.BOUNDARY
    # Odd multiples of pi, the only theta reduced to -pi, returned BOUNDARY above.
    t = math.remainder(theta, math.tau)
    if t < -math.pi / 3.0:
        return Arc.MINUS
    if t < math.pi / 3.0:
        return Arc.ZERO
    return Arc.PLUS


def kernel_vectors_w(b: float, theta: float) -> list[np.ndarray]:
    """The explicit kernel vectors of rho(b, theta): w_1, w_2, w_3 always,
    plus the arc-dependent w_-, w_0, or w_+ away from boundary angles."""
    if b <= 0:
        raise ValueError("b must be positive")
    e = np.exp(1j * theta)
    vecs = [
        np.array([0, b, 0, e, 0, 0, 0, 0, 0], dtype=complex),
        np.array([0, 0, 0, 0, 0, b, 0, e, 0], dtype=complex),
        np.array([0, 0, e, 0, 0, 0, b, 0, 0], dtype=complex),
    ]
    w = np.exp(2j * math.pi / 3.0)
    arc = arc_of(theta)
    if arc is Arc.MINUS:
        vecs.append(np.array([1, 0, 0, 0, w, 0, 0, 0, np.conj(w)], dtype=complex))
    elif arc is Arc.ZERO:
        vecs.append(np.array([1, 0, 0, 0, 1, 0, 0, 0, 1], dtype=complex))
    elif arc is Arc.PLUS:
        vecs.append(np.array([1, 0, 0, 0, np.conj(w), 0, 0, 0, w], dtype=complex))
    return vecs


def combine(states: list[BipartiteMatrix], weights) -> BipartiteMatrix:
    """Convex combination sum_i w_i X_i of equally shaped states."""
    if not states:
        raise ValueError("need at least one state")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(states),):
        raise ValueError("one weight per state required")
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
    """Scale to unit trace."""
    return BipartiteMatrix(X.m, X.n, _unit_trace(X.data))


def _unit_trace(A: np.ndarray) -> np.ndarray:
    """A / tr A, unit-scaled before the trace is taken and divided by, so it
    stays finite at any scale of A; the trace must be positive."""
    ref = unit_scaled(A)[0]
    tr = np.trace(ref).real
    if tr <= 0:
        raise ValueError("trace must be positive to normalize")
    ref /= tr
    return ref


_PHASE_U = np.diag([1.0, np.exp(-2j * math.pi / 3.0), np.exp(2j * math.pi / 3.0)])


def conjugate_by_phase_unitary(X: BipartiteMatrix) -> BipartiteMatrix:
    """Conjugate by I tensor U with U = Diag(1, e^{-2pi i/3}, e^{2pi i/3});
    shifts the theta parameter of rho/sigma by -2pi/3."""
    if (X.m, X.n) != (3, 3):
        raise ValueError("phase-unitary conjugation is defined for 3x3 systems")
    IU = np.kron(np.eye(3), _PHASE_U)
    return BipartiteMatrix(3, 3, IU.conj().T @ X.data @ IU)


def is_interior_of_T(X: BipartiteMatrix) -> bool:
    """Interior of the PPT convex body: both ranges are the full space."""
    if not is_ppt(X):
        raise ValueError("is_interior_of_T requires a PPT input")
    st = state_type(X)
    return st.p == X.dim and st.q == X.dim


def is_interior_of_S_sufficient(X: BipartiteMatrix) -> bool:
    """Sufficient interior test for the separable body (and, on Choi matrices,
    the positive-map cone): off-diagonal entries within ROUNDOFF and diagonal
    entries above CUTOFF, both times the largest entry.  False means
    undecided, not "boundary"."""
    A = X.data
    scale = float(np.max(np.abs(A)))
    off = A - np.diag(np.diag(A))
    return bool(np.max(np.abs(off)) <= ROUNDOFF * scale
                and np.all(np.diag(A).real > CUTOFF * scale))


def product_state(xi, eta) -> BipartiteMatrix:
    """Unit-trace projector onto xi tensor eta, at any scale of xi and eta."""
    xi, _ = unit_scaled(np.ravel(xi))
    eta, _ = unit_scaled(np.ravel(eta))
    if not xi.any() or not eta.any():
        raise ValueError("product vectors must be nonzero")
    v = np.kron(xi, eta)
    v = v / np.linalg.norm(v)
    return BipartiteMatrix(xi.size, eta.size, np.outer(v, v.conj()))


def verify_product_decomposition(X: BipartiteMatrix, parts) -> bool:
    """Check X = sum_i w_i |xi_i (x) eta_i><...| with the raw (unnormalized)
    product vectors: the largest entry of the difference is at most ROUNDOFF
    times the largest entry of X."""
    acc = np.zeros_like(X.data)
    for xi, eta, weight in parts:
        if weight <= 0:
            raise ValueError("weights must be positive")
        v = np.kron(np.asarray(xi, dtype=complex).ravel(),
                    np.asarray(eta, dtype=complex).ravel())
        acc = acc + weight * np.outer(v, v.conj())
    return bool(np.max(np.abs(X.data - acc)) <= ROUNDOFF * np.max(np.abs(X.data)))


def product_decomposition_rho_1_pi() -> list[tuple[np.ndarray, np.ndarray, float]]:
    """The four real product vectors decomposing rho(1, pi), weight 1/4 each."""
    signs = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)]
    return [(np.array(s, dtype=complex), np.array(s, dtype=complex), 0.25) for s in signs]


def _product_starts(restarts: int, m: int, n: int, seed: int):
    """All start pairs of a multi-start search, drawn up front from
    default_rng(seed): complex gaussian rows xi (restarts, m) and
    eta (restarts, n), not normalized (their directions are uniform)."""
    if restarts < 1:
        raise ValueError("need at least one restart")
    z = np.random.default_rng(seed).normal(size=(restarts, m + n, 2)).view(complex)[..., 0]
    return z[:, :m], z[:, m:]


def _gram_rows(v: np.ndarray) -> np.ndarray:
    """conj(v_r) v_r^T for each row v_r of v, flattened: (R, k) -> (R, k*k)."""
    return (v.conj()[:, :, None] * v[:, None, :]).reshape(len(v), -1)


def _seesaw(Q: np.ndarray, eta: np.ndarray, target: float | None = None, max_iter: int = 200):
    """Minimise <xi (x) eta| Q |xi (x) eta> over unit product vectors by
    alternating bottom-eigenvector updates, all restarts advanced as one stack.

    Q is a hermitian form of shape (m, n, m, n) and eta (R, n) holds the
    starts; each step sets xi from eta, then eta from xi, so the xi of a
    start pair is never read.  A restart stops after max_iter steps or once
    a step gains at most a fixed fraction of max|Q|; steps never lose (up to
    rounding), so its last value is its best.  Restart 0 runs alone, then
    the rest run together; everything stops as soon as a stopped restart's
    value reaches target (a restart is only judged once it has stopped, so a
    caller's re-evaluation is not left at the edge of target).  Returns the
    best (xi, eta, value) among the restarts that ran.
    """
    m, n = Q.shape[:2]
    reach = -np.inf if target is None else target
    settled = 1e-15 * np.max(np.abs(Q))  # a restart's own convergence, relative to the form
    # The xi-form for fixed eta is _gram_rows(eta) @ to_xi, and symmetrically.
    to_xi = Q.transpose(1, 3, 0, 2).reshape(n * n, m * m)
    to_eta = Q.transpose(0, 2, 1, 3).reshape(m * m, n * n)
    best = (None, None, np.inf)
    for e in (eta[:1], eta[1:]):
        if not len(e):
            break
        v = np.full(len(e), np.inf)
        for _ in range(max_iter):
            x = np.linalg.eigh((_gram_rows(e) @ to_xi).reshape(-1, m, m))[1][:, :, 0]
            w, U = np.linalg.eigh((_gram_rows(x) @ to_eta).reshape(-1, n, n))
            e, gain, v = U[:, :, 0], v - w[:, 0], w[:, 0]
            stopped = gain <= settled
            if stopped.any():
                best = _lowest(best, x[stopped], e[stopped], v[stopped])
                live = ~stopped
                x, e, v = x[live], e[live], v[live]
                if best[2] <= reach or not len(e):
                    break
        else:
            best = _lowest(best, x, e, v)
        if best[2] <= reach:
            break
    return best


def _lowest(best, x, e, v):
    """best, or the row of (x, e, v) with the lowest value if that is lower."""
    k = int(np.argmin(v))
    return (x[k], e[k], v[k]) if v[k] < best[2] else best


#: Distance from the subspace below which a unit product vector counts as
#: inside it; the form I - P is a projector, so the distance is scale-free.
PRODUCT_RESIDUAL = 1e-7


def search_product_vector_in_subspace(
    D: np.ndarray,
    m: int,
    n: int,
    restarts: int = 100,
    seed: int = 0,
):
    """Heuristic search for a product vector xi (x) eta inside the span of the
    orthonormal columns D of C^m (x) C^n.

    Multi-start alternating minimisation of the squared distance
    <xi (x) eta| I - P |xi (x) eta> to the subspace by bottom-eigenvector
    updates in xi and eta (restart 0 first, then the others as one batch).
    Returns (xi, eta) with ||(I - P)(xi (x) eta)|| <= PRODUCT_RESIDUAL, or
    None.  A None result is not a proof that no product vector exists.
    """
    D = np.asarray(D, dtype=complex)
    if D.ndim != 2 or D.shape[0] != m * n:
        raise ValueError("D must have m*n rows of orthonormal columns")
    Q = (np.eye(m * n) - D @ D.conj().T).reshape(m, n, m, n)
    _, eta = _product_starts(restarts, m, n, seed)
    xi, eta, val = _seesaw(Q, eta, target=PRODUCT_RESIDUAL**2)
    if val <= PRODUCT_RESIDUAL**2:
        return xi, eta
    return None
