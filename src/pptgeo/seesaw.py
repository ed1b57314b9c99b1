"""The seesaw over product vectors: minimise <xi (x) eta| Q |xi (x) eta>, for a
hermitian form Q of shape (m, n, m, n), over unit xi in C^m and eta in C^n.
The searches of :mod:`pptgeo.maps` hand forms and starts to :func:`minimize`
and keep their restart policies; block positivity first scores every sample
by :func:`partial_minima`, in closed form for m = 3.  This is the only module
that reshapes a form for contraction; product vectors in a subspace are
decided by linear algebra in :mod:`pptgeo.states` instead."""
from __future__ import annotations

import functools

import numpy as np

from .linalg import CUTOFF, unit_scaled, zero_level


def starts(restarts: int, n: int, seed: int):
    """The eta rows (restarts, n) of a multi-start search, drawn up front from
    default_rng(seed) as complex gaussians, not normalized (their directions
    are uniform); :func:`minimize` sets each start's xi from its eta."""
    if restarts < 1:
        raise ValueError("need at least one start pair")
    return np.random.default_rng(seed).standard_normal((restarts, n, 2)).view(complex)[..., 0]


def _gram_rows(v: np.ndarray) -> np.ndarray:
    """conj(v_r) v_r^T for each row v_r of v, flattened: (R, k) -> (R, k*k)."""
    return (v.conj()[:, :, None] * v[:, None, :]).reshape(len(v), -1)


def _xi_map(Q: np.ndarray) -> np.ndarray:
    """Q as the map (n*n, m*m) with xi-form(eta) = _gram_rows(eta) @ it."""
    m, n = Q.shape[:2]
    return Q.transpose(1, 3, 0, 2).reshape(n * n, m * m)


def partial_minima(Q: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The minimum of the form value over xi at each row of eta (R, n): the
    bottom eigenvalue of the xi-form at eta_r over |eta_r|^2.  The forms are
    those of the unit-scaled Q, so no step leaves the float range, and the
    minima are scaled back.  For m = 3 they are read in closed form
    (:func:`_bottom_eigenvalues_3`); for any other m, by one batched
    eigvalsh of all rows."""
    m, n = Q.shape[:2]
    norms = np.einsum("ij,ij->i", eta.conj(), eta).real
    Q, e = unit_scaled(Q.reshape(m * n, m * n))
    to_xi = _xi_map(Q.reshape(m, n, m, n))
    if m == 3:
        # the entries 00, 11, 22, 01, 02, 12 of every xi-form, one row each
        low = _bottom_eigenvalues_3(to_xi[:, [0, 4, 8, 1, 2, 5]].T @ _gram_rows(eta).T)
    else:
        low = np.linalg.eigvalsh((_gram_rows(eta) @ to_xi).reshape(-1, m, m))[:, 0]
    return np.ldexp(low / norms, e)


def _bottom_eigenvalues_3(A: np.ndarray) -> np.ndarray:
    """The bottom eigenvalue of each hermitian 3 x 3 matrix, given as the
    rows (a00, a11, a22, a01, a02, a12) of A (6, R), in closed form
    (O. K. Smith, Commun. ACM 4, 168, 1961).

    With q the mean diagonal and p = sqrt(tr (A - q)^2 / 6), the eigenvalues
    of C = (A - q) / p are 2 cos(phi + 2 pi k / 3), phi = arccos(r) / 3 for
    r = det C / 2 clipped to [-1, 1]; p = 0 reads as q.  Read that way alone,
    the bottom eigenvalue loses half its digits when the lower two nearly
    coincide (r near 1), so only t = 2 cos(arccos |r| / 3) in [sqrt 3, 2],
    the eigenvalue of sign(r) C farthest from the other two, is read from r.
    For r < 0 the bottom eigenvalue is -t.  Otherwise it is -(t + g) / 2,
    where g, the gap between the lower two, is sqrt 2 times the Frobenius
    norm of M = C + t / 2 - a (C^2 + t C + t^2 - 3), a = t / (2 (t^2 - 1)):
    the bracket is 3 (t^2 - 1) times the projector onto t's eigenvector, so M
    has eigenvalues 0 and +-g / 2, and its entries carry no cancellation."""
    a0, a1, a2 = A[0].real, A[1].real, A[2].real
    q = (a0 + a1 + a2) / 3
    d0, d1, d2 = a0 - q, a1 - q, a2 - q
    u01, u02, u12 = _sq(A[3]), _sq(A[4]), _sq(A[5])
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2 * (u01 + u02 + u12)) / 6)
    k = 1 / np.where(p > 0, p, 1)
    d0, d1, d2, b01, b02, b12 = d0 * k, d1 * k, d2 * k, A[3] * k, A[4] * k, A[5] * k
    k = k * k
    u01, u02, u12 = u01 * k, u02 * k, u12 * k
    r = (d0 * d1 * d2 + 2 * (b01 * b12 * b02.conj()).real - d0 * u12 - d1 * u02 - d2 * u01) / 2
    t = 2 * np.cos(np.arccos(np.minimum(np.abs(r), 1)) / 3)
    # the entries of M, with those of C^2 written out
    a = t / (2 * (t * t - 1))
    c = t / 2 - a * (t * t - 3)
    m0 = d0 + c - a * (d0 * d0 + u01 + u02 + t * d0)
    m1 = d1 + c - a * (d1 * d1 + u01 + u12 + t * d1)
    m2 = d2 + c - a * (d2 * d2 + u02 + u12 + t * d2)
    m01 = b01 - a * ((d0 + d1 + t) * b01 + b02 * b12.conj())
    m02 = b02 - a * ((d0 + d2 + t) * b02 + b01 * b12)
    m12 = b12 - a * ((d1 + d2 + t) * b12 + b01.conj() * b02)
    g = np.sqrt(2 * (m0 * m0 + m1 * m1 + m2 * m2 + 2 * (_sq(m01) + _sq(m02) + _sq(m12))))
    return q + p * np.where(r < 0, -t, -(t + g) / 2)


def _sq(z: np.ndarray) -> np.ndarray:
    """|z|^2, entrywise."""
    return z.real * z.real + z.imag * z.imag


def minimize(Q: np.ndarray, eta: np.ndarray):
    """Minimise <xi (x) eta| Q |xi (x) eta> over unit product vectors by
    alternating bottom-eigenvector updates with damped Newton steps, the
    given restarts advanced as one stack.

    Q is a hermitian form of shape (m, n, m, n) and eta (R, n) holds the
    starts (:func:`starts`); each step sets xi from eta, then eta from xi,
    and builds one xi-form, at the eta that the last step kept.  A restart
    stops once a step gains at most a fixed fraction of max|Q|, and its
    200th step stops it the same way.
    From its second step on, each restart that has not stopped then takes
    :func:`_newton_step` from the new pair, damped past any negative
    curvature of the model, so a restart crossing an indefinite region keeps
    moving.  Neither half of a step ever loses (up to rounding), and a Newton
    step is kept only where it lowers the value, so a restart's last value
    is its best.  All stop once a stopped restart's value reaches
    :func:`zero_level` (restarts are judged only once stopped, far below
    that level, not at its edge).  Returns the best (xi, eta, value) of the
    stopped restarts, the pair and value of one seesaw step.
    """
    m, n = Q.shape[:2]
    reach = zero_level(Q)
    scale = np.max(np.abs(Q))
    settled = 1e-15 * scale  # a restart's own convergence, relative to the form
    # The xi-form for fixed eta is _gram_rows(eta) @ to_xi, and symmetrically.
    to_xi = _xi_map(Q)
    to_eta = Q.transpose(0, 2, 1, 3).reshape(m * m, n * n)
    best = (None, None, np.inf)
    v = np.full(len(eta), np.inf)
    mu = np.full(len(eta), CUTOFF)  # each restart's Newton damping, relative to max|Q|
    for i in range(200):
        Ux = np.linalg.eigh((_gram_rows(eta) @ to_xi).reshape(-1, m, m))[1]
        w, U = np.linalg.eigh((_gram_rows(Ux[:, :, 0]) @ to_eta).reshape(-1, n, n))
        stopped = (v - w[:, 0] <= settled) | (i == 199)
        if stopped.any():
            best = _lowest(best, Ux[stopped, :, 0], U[stopped, :, 0], w[stopped, 0])
            if best[2] <= reach or stopped.all():
                break
            Ux, U, w, mu = Ux[~stopped], U[~stopped], w[~stopped], mu[~stopped]
        v, eta = w[:, 0], U[:, :, 0]
        if i and scale:  # Q = 0 has nothing to polish
            v, eta, mu = _newton_step(Q, Ux, U, mu, scale)
    return best


def _newton_model(Q, Ux, U):
    """The second-order model of f = <y|Q|y> / (|x|^2 |e|^2) at the unit pair
    (x, e) = (Ux[:, :, 0], U[:, :, 0]) of a seesaw step, y = x (x) e, over the
    tangent steps s = (a, c) to (x + Bx a, e + Be c), where Bx = Ux[:, :, 1:]
    and Be = U[:, :, 1:] span the complements of x and e.

    Returns (G, g, H): G (R, mn, mn) is Q in the product basis Ux (x) U, and
    f(z) = f + 2 g.z + z.H z + O(|z|^3) in the real coordinates
    z = s.view(float), (Re s_0, Im s_0, Re s_1, ...), for f = Re G[:, 0, 0].
    Each entry of g and H is at most two entries of G with sign +-1, the
    selection :func:`_model_map`."""
    R, m = Ux.shape[:2]
    n = U.shape[1]
    W = (Ux[:, :, None, :, None] * U[:, None, :, None, :]).reshape(R, m * n, m * n)
    G = W.conj().swapaxes(1, 2) @ Q.reshape(m * n, m * n) @ W
    index, sign = _model_map(m, n)
    gH = (G.view(float).reshape(R, -1)[:, index] * sign).sum(1)
    k = 2 * (m + n - 2)
    return G, gH[:, :k], gH[:, k:].reshape(R, k, k)


@functools.cache
def _model_map(m: int, n: int):
    """(index, sign), each (2, k + k^2) for k = 2 (m + n - 2) and read-only:
    the concatenated (g, H.ravel()) of :func:`_newton_model` is
    (Gr[:, index] * sign).sum(1) for Gr = G.view(float).reshape(R, -1), the
    real coordinates of G = Q in a product basis (u_p (x) v_q at index
    p n + q, u_0 (x) v_0 = y).  A sign 0 pads an entry that reads only one.

    With M = [Bx (x) e, x (x) Be] the complex model is
    2 Re(h^dagger s) + s^dagger (Hc - f) s + Re(s^T S s) for h = G[M, 0],
    Hc = G[M, M] and f = Re G[0, 0].  S_ij = conj(G[M_i + M_j, 0]) when
    exactly one of s_i, s_j moves x, else 0, is the complex-bilinear term of
    (Bx a) (x) (Be c).  z -> H z is s -> (Hc - f) s + conj(S s), so g holds
    (Re h_i, Im h_i) and each (i, j) block of H is
    [[Re(Hc+S), -Im(Hc+S)], [Im(Hc-S), Re(Hc-S)]], less f on the diagonal."""
    d, k = m * n, 2 * (m + n - 2)
    M = np.r_[np.arange(1, m) * n, np.arange(1, n)]
    p, a = np.repeat(M, 2), np.arange(k) % 2  # z_r is the real (a = 0) or imaginary part of s at p
    x = np.arange(k) < 2 * (m - 1)  # z_r moves x
    cross = x[:, None] != x  # where S is read
    off = a[:, None] ^ a  # each block reads imaginary parts off its diagonal
    hc = 2 * (d * p[:, None] + p) + off  # G[M_i, M_j]
    t = np.where(cross, 2 * d * (p[:, None] + p) + off, 0)  # G[M_i + M_j, 0], else f
    index = np.stack([np.r_[2 * d * p + a, hc.ravel()], np.r_[np.zeros_like(p), t.ravel()]])
    t_sign = np.where(cross, np.where(a[:, None] & a, -1.0, 1.0), -np.eye(k))  # -f on the diagonal
    hc_sign = np.where(a[:, None] < a, -1.0, 1.0)
    sign = np.stack([np.r_[np.ones(k), hc_sign.ravel()], np.r_[np.zeros(k), t_sign.ravel()]])
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


def _newton_step(Q, Ux, U, mu, scale):
    """One Levenberg-Marquardt step on :func:`_newton_model` per row, from
    the seesaw pair (x, e) = (Ux[:, :, 0], U[:, :, 0]), kept only where the
    form value goes down.  Each row's damping is first shifted past the
    model's negative curvature, shift = max(mu, -2 lambda_min(H / scale)),
    so the damped model H / scale + shift is positive definite and the step
    heads for its minimum (Hessian modification, Nocedal & Wright,
    Numerical Optimization, section 3.4).

    scale = max|Q| and mu is each row's damping relative to it: after a kept
    step the shift shrinks tenfold, down to CUTOFF; after a step that did not
    lower the value it grows tenfold.  Returns (v, e, mu): the value and a
    nonzero multiple of eta at the kept step, else the seesaw's value and e
    itself, which is all the next seesaw step reads.

    The trial pair (x + Bx a, e + Be c) is W y for the unitary W = Ux (x) U
    and y = (1, a) (x) (1, c), so its value y^dagger G y / y^dagger y is read
    off the model's G, and Q is contracted once."""
    R, m = Ux.shape[:2]
    G, g, H = _newton_model(Q, Ux, U)
    v = G[:, 0, 0].real
    k = H.shape[1]
    H = H / scale
    mu = np.maximum(mu, -2 * np.linalg.eigvalsh(H)[:, 0])
    H.reshape(R, -1)[:, ::k + 1] += mu[:, None]
    z = np.linalg.solve(H, -g[:, :, None] / scale)[..., 0]
    s, t = z.view(complex), np.ones((R, m + U.shape[1]), complex)
    t[:, 1:m], t[:, m + 1:] = s[:, :m - 1], s[:, m - 1:]  # (1, a, 1, c)
    y = (t[:, :m, None] * t[:, None, m:]).reshape(R, -1)
    yc = y.conj()
    ft = ((yc[:, None] @ G)[:, 0] * y).sum(1).real / (yc * y).sum(1).real
    keep = ft < v
    et = U[:, :, 0] + (U[:, :, 1:] @ s[:, m - 1:, None])[..., 0]
    return (np.where(keep, ft, v), np.where(keep[:, None], et, U[:, :, 0]),
            np.where(keep, np.maximum(mu / 10, CUTOFF), 10 * mu))


def _lowest(best, x, e, v):
    """best, or the row of (x, e, v) with the lowest value if that is lower."""
    k = int(np.argmin(v))
    return (x[k], e[k], v[k]) if v[k] < best[2] else best
