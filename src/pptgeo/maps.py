"""Positive and decomposable maps via Choi matrices.

A map phi: M_m -> M_n is stored as its Choi matrix
C = sum_ij E_ij (x) phi(E_ij), an mn x mn bipartite hermitian matrix.
Decomposable maps are built from the Kraus-like pieces
phi_V: X -> V* X V and phi^W: X -> W* X^t W; the generating matrices are kept
alongside the Choi form since decomposability is not recoverable from the
Choi matrix alone.

Conjugation convention: bars on xi and eta in the product-state pairing
formula mean entrywise complex conjugation in the computational basis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import seesaw
from .linalg import ROUNDOFF, NumericalError, spectrum_is_pd, unit_scaled, zero_level
from .states import (_SIGMA_PHASE_POSITIONS, BipartiteMatrix, _cyclic_pattern,
                     is_interior_of_S_sufficient, p_theta)


@dataclass(frozen=True)
class ChoiMap:
    """A hermiticity-preserving linear map M_m -> M_n as its Choi matrix."""

    choi: BipartiteMatrix
    m = property(lambda self: self.choi.m)
    n = property(lambda self: self.choi.n)


@dataclass(frozen=True)
class DecomposableSpec:
    """Generators of a decomposable map: sum_i phi_{V_i} + sum_j phi^{W_j}."""

    Vs: tuple = field(default_factory=tuple)
    Ws: tuple = field(default_factory=tuple)

    def __post_init__(self):
        Vs = tuple(np.asarray(V, dtype=complex) for V in self.Vs)
        Ws = tuple(np.asarray(W, dtype=complex) for W in self.Ws)
        if not Vs and not Ws:
            raise ValueError("spec needs at least one generating matrix")
        shapes = {M.shape for M in Vs + Ws}
        if len(shapes) != 1 or any(len(s) != 2 for s in shapes):
            raise ValueError("all generating matrices must share one m x n shape")
        (m, n), = shapes
        if m < 1 or n < 1:
            raise ValueError(f"generating matrices must be at least 1 x 1, got {m} x {n}")
        object.__setattr__(self, "Vs", Vs)
        object.__setattr__(self, "Ws", Ws)

    @property
    def shape(self):
        return (self.Vs + self.Ws)[0].shape


def pairing(rho: BipartiteMatrix, phi: ChoiMap) -> float:
    """Duality pairing Tr(rho * C_phi^t) between states and maps, evaluated on
    the unit-scaled matrices and scaled back.  Both are hermitian, so an
    imaginary part beyond ROUNDOFF times the Cauchy-Schwarz bound
    ||rho||_F ||C_phi||_F of the scaled matrices is an error, as is a value
    past the floating-point range."""
    if (rho.m, rho.n) != (phi.m, phi.n):
        raise ValueError("state and map live on different systems")
    (R, r), (C, c) = rho._unit_scaled, phi.choi._unit_scaled
    val = complex(np.trace(R @ C.T))
    if abs(val.imag) > ROUNDOFF * np.linalg.norm(R) * np.linalg.norm(C):
        raise NumericalError(f"pairing has a nonreal value {val} * 2**{r + c}")
    try:
        return math.ldexp(val.real, r + c)
    except OverflowError as exc:
        raise NumericalError("pairing is out of floating-point range") from exc


def phi_theta_coefficients(theta: float, t: float):
    """The diagonal coefficients (a, b, c) of the one-parameter positive map
    family; they always sum to p_theta and are finite at every finite t > 0."""
    if t <= 0:
        raise ValueError("t must be positive")
    p = p_theta(theta)
    if t * t < math.inf:
        den = 1.0 - t + t * t
        return 1.0 - (p - 1.0) * t / den, (p - 1.0) * t * t / den, (p - 1.0) / den
    # t * t overflows: the same formulas divided through by t^2, with s = 1/t
    s = 1.0 / t
    den = s * s - s + 1.0
    return 1.0 - (p - 1.0) * s / den, (p - 1.0) / den, (p - 1.0) * s * s / den


def phi_theta_t(theta: float, t: float) -> ChoiMap:
    """The positive map on M_3 with cyclically arranged diagonal coefficients
    a(t), b(t), c(t) and off-diagonal phases -e^{+-i theta}: the generalized
    Choi map phi[a, b, c; theta], whose Choi matrix is sigma's pattern with
    (a, c, b) in place of (p_theta, 1/b, b)."""
    a, b, c = phi_theta_coefficients(theta, t)
    return ChoiMap(_cyclic_pattern((a, c, b), theta, _SIGMA_PHASE_POSITIONS))


def antipodal_sum_choi(theta: float, t: float, s: float) -> ChoiMap:
    """Choi matrix of the sum of the maps at theta and theta + pi.

    The off-diagonal phases cancel, leaving a diagonal Choi matrix with
    strictly positive entries: a sufficient certificate for the interior of
    the positive-map cone; the sum is checked by that rule, then made exactly diagonal.
    """
    C = BipartiteMatrix(3, 3, phi_theta_t(theta, t).choi.data
                        + phi_theta_t(theta + math.pi, s).choi.data)
    if not is_interior_of_S_sufficient(C):
        raise NumericalError("antipodal Choi sum is not diagonal with a positive diagonal")
    return ChoiMap(BipartiteMatrix(3, 3, np.diag(np.diag(C.data).real)))


def decomposable_map(spec: DecomposableSpec) -> ChoiMap:
    """Choi matrix of sum_i phi_{V_i} + sum_j phi^{W_j}: the conjugate of
    :func:`_pairing_form`."""
    m, n = spec.shape
    C = _pairing_form(spec).conj().reshape(m * n, m * n)
    return ChoiMap(BipartiteMatrix(m, n, C))


def product_pairing(spec: DecomposableSpec, xi, eta) -> float:
    """sum_i |<xi|V_i|eta_bar>|^2 + sum_j |<xi_bar|W_j|eta_bar>|^2 — the
    pairing of the decomposable map with the product state on (xi, eta)."""
    xi = np.asarray(xi, dtype=complex).ravel()
    eta = np.asarray(eta, dtype=complex).ravel()
    total = 0.0
    for V in spec.Vs:
        total += abs(xi.conj() @ V @ eta.conj()) ** 2
    for W in spec.Ws:
        total += abs(xi @ W @ eta.conj()) ** 2
    return float(total)


def _pairing_form(spec: DecomposableSpec) -> np.ndarray:
    """Q[i,a,j,b] = sum V_ia conj(V_jb) + sum W_ja conj(W_ib), the (m, n, m, n)
    form with <xi (x) eta| Q |xi (x) eta> = product_pairing(spec, xi, eta);
    its conjugate is the Choi matrix of :func:`decomposable_map`."""
    m, n = spec.shape
    V = np.array(spec.Vs).reshape(-1, m, n)
    W = np.array(spec.Ws).reshape(-1, m, n)
    return np.einsum("kia,kjb->iajb", V, V.conj()) + np.einsum("kja,kib->iajb", W, W.conj())


def boundary_witness_search(
    spec: DecomposableSpec,
    restarts: int = 1000,
    seed: int = 0,
):
    """Look for unit xi, eta with <xi|V_i|eta_bar> = 0 and
    <xi_bar|W_j|eta_bar> = 0 for every generator: a numerical certificate that
    the map sits on the boundary of the positive-map cone.

    The product pairing is the hermitian form <xi (x) eta| Q |xi (x) eta> with
    Q = conj(C) for the Choi matrix C of the decomposable map, built from the
    generators unit-scaled together (largest real or imaginary magnitude in
    [1/2, 1)) so that it is finite at any scale.  When Q is positive definite
    (:func:`~pptgeo.linalg.spectrum_is_pd`), the pairing has no zero at all
    and the result is None, a proof that no witness exists; the trace maps,
    with Q = I, are such forms.  Otherwise Q is minimised by
    :func:`~pptgeo.seesaw.minimize` from ``restarts`` start pairs, and the
    result is (xi, eta, residual) when :func:`product_pairing` of the scaled
    spec at (xi, eta) is at most :func:`~pptgeo.linalg.zero_level` of Q, the
    residual being that pairing over max|Q|; else None, which is inconclusive.
    """
    m, n = spec.shape
    _, eta = seesaw.starts(restarts, m, n, seed)
    G = unit_scaled(np.concatenate(spec.Vs + spec.Ws))[0].reshape(-1, m, n)
    spec = DecomposableSpec(tuple(G[:len(spec.Vs)]), tuple(G[len(spec.Vs):]))
    Q = _pairing_form(spec)
    if spectrum_is_pd(np.linalg.eigvalsh(Q.reshape(m * n, m * n))):
        return None
    xi, eta, _ = seesaw.minimize(Q, eta)
    value = product_pairing(spec, xi, eta)
    if value <= zero_level(Q):
        return xi, eta, value / (np.max(np.abs(Q)) or 1.0)  # max|Q| is 0 only for an all-zero spec
    return None


def trace_map_decomposition_2n(mu: int) -> DecomposableSpec:
    """Generators on the 2 (x) 2mu system whose decomposable sum is exactly
    the trace map X -> Tr(X) I: identity blocks for the V's and rotated
    blocks [[0, -1], [1, 0]] for the W's."""
    if mu < 1:
        raise ValueError("mu must be a positive integer")
    J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    Vs, Ws = [], []
    for i in range(mu):
        V = np.zeros((2, 2 * mu), dtype=complex)
        V[:, 2 * i:2 * i + 2] = np.eye(2)
        W = np.zeros((2, 2 * mu), dtype=complex)
        W[:, 2 * i:2 * i + 2] = J
        Vs.append(V)
        Ws.append(W)
    return DecomposableSpec(tuple(Vs), tuple(Ws))


def trace_map_decomposition_33() -> DecomposableSpec:
    """Identity plus the three antisymmetric rank-two matrices on M_3; the
    decomposable sum is exactly the trace map, with generator counts (1, 3)."""
    def A(i, j):
        M = np.zeros((3, 3), dtype=complex)
        M[i, j] = 1.0
        M[j, i] = -1.0
        return M

    return DecomposableSpec((np.eye(3, dtype=complex),), (A(0, 1), A(1, 2), A(2, 0)))


def block_positivity_sample(phi: ChoiMap, samples: int = 10000, seed: int = 0) -> float:
    """Minimum of <eta| phi(|xi><xi|) |eta> = <xi_bar (x) eta| C |xi_bar (x) eta>
    over sampled unit product vectors, refined from the best sample by
    :func:`~pptgeo.seesaw.minimize` on that same form, built from the
    unit-scaled Choi matrix; the value is scaled back, and one past the
    floating-point range is an error.  Deterministic per seed; a value
    below -ROUNDOFF times the largest entry of the Choi matrix (the form's
    zero level, scaled back) certifies non-positivity, while a positive map
    may read a little below 0 from rounding."""
    m, n = phi.m, phi.n
    C, e = phi.choi._unit_scaled
    Q, (xi, eta) = C.reshape(m, n, m, n), seesaw.starts(samples, m, n, seed)
    # the form at each sample (xi, eta), the value above at an equally likely (xi_bar, eta)
    vals = seesaw.forms(Q, xi, eta)[1] / (np.linalg.norm(xi, axis=1) * np.linalg.norm(eta, axis=1)) ** 2
    k = int(np.argmin(vals))
    try:
        return math.ldexp(seesaw.minimize(Q, eta[k:k + 1])[2], e)
    except OverflowError as exc:
        raise NumericalError("block positivity value is out of floating-point range") from exc
