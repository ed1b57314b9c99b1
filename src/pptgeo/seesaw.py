"""The seesaw over product vectors: minimise <xi (x) eta| Q |xi (x) eta>, for a
hermitian form Q of shape (m, n, m, n), over unit xi in C^m and eta in C^n.
The boundary-witness and block-positivity searches each hand one form to
:func:`minimize`; block positivity first ranks its samples by
:func:`values` and scores the lowest by :func:`partial_minima`.  This is
the only module that reshapes a form for contraction; product vectors in a
subspace are decided by linear algebra in :mod:`pptgeo.states` instead."""
from __future__ import annotations

import functools

import numpy as np

from .linalg import CUTOFF, zero_level


def starts(restarts: int, m: int, n: int, seed: int):
    """All start pairs of a multi-start search, drawn up front from
    default_rng(seed): complex gaussian rows xi (restarts, m) and
    eta (restarts, n), not normalized (their directions are uniform)."""
    if restarts < 1:
        raise ValueError("need at least one start pair")
    z = np.random.default_rng(seed).standard_normal((restarts, m + n, 2)).view(complex)[..., 0]
    return z[:, :m], z[:, m:]


def _gram_rows(v: np.ndarray) -> np.ndarray:
    """conj(v_r) v_r^T for each row v_r of v, flattened: (R, k) -> (R, k*k)."""
    return (v.conj()[:, :, None] * v[:, None, :]).reshape(len(v), -1)


def _xi_map(Q: np.ndarray) -> np.ndarray:
    """Q as the map (n*n, m*m) with xi-form(eta) = _gram_rows(eta) @ it."""
    m, n = Q.shape[:2]
    return Q.transpose(1, 3, 0, 2).reshape(n * n, m * m)


def values(Q: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The form value y^dagger Q y / y^dagger y, shape (R,), at each product
    row y = xi_r (x) eta_r of rows xi (R, m) and eta (R, n)."""
    m, n = Q.shape[:2]
    y = (xi[:, :, None] * eta[:, None, :]).reshape(len(xi), m * n)
    yc = y.conj()
    return ((yc @ Q.reshape(m * n, m * n)) * y).sum(1).real / (yc * y).sum(1).real


def partial_minima(Q: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The minimum of the form value over xi at each row of eta (R, n): the
    bottom eigenvalue of the xi-form at eta_r over |eta_r|^2, one batched
    eigvalsh for all rows."""
    m = Q.shape[0]
    A = (_gram_rows(eta) @ _xi_map(Q)).reshape(-1, m, m)
    return np.linalg.eigvalsh(A)[:, 0] / (eta.conj() * eta).sum(1).real


def minimize(Q: np.ndarray, eta: np.ndarray):
    """Minimise <xi (x) eta| Q |xi (x) eta> over unit product vectors by
    alternating bottom-eigenvector updates with damped Newton steps, all
    restarts advanced as one stack.

    Q is a hermitian form of shape (m, n, m, n) and eta (R, n) holds the
    starts; each step sets xi from eta, then eta from xi, so the xi of a
    start pair is never read, and builds one xi-form, at the eta that the
    last step kept.  A restart stops once a step gains at most a
    fixed fraction of max|Q|, and its 200th step stops it the same way.
    From its second step on, each restart that has not stopped then takes
    :func:`_newton_step` from the new pair, damped past any negative
    curvature of the model, so a restart crossing an indefinite region keeps
    moving.  Neither half of a step ever loses (up to rounding), and a Newton
    step is kept only where it lowers the value, so a restart's last value
    is its best.  Restart 0 runs alone, then the rest run together; all
    stop once a stopped restart's value reaches :func:`zero_level`
    (restarts are judged only once stopped, far below that level, not at its
    edge).  Returns the best (xi, eta, value) of those run, the pair and
    value of one seesaw step.
    """
    m, n = Q.shape[:2]
    reach = zero_level(Q)
    scale = np.max(np.abs(Q))
    settled = 1e-15 * scale  # a restart's own convergence, relative to the form
    # The xi-form for fixed eta is _gram_rows(eta) @ to_xi, and symmetrically.
    to_xi = _xi_map(Q)
    to_eta = Q.transpose(0, 2, 1, 3).reshape(m * m, n * n)
    best = (None, None, np.inf)
    for e in (eta[:1], eta[1:]):
        if not len(e):
            break
        v = np.full(len(e), np.inf)
        mu = np.full(len(e), CUTOFF)  # each restart's Newton damping, relative to max|Q|
        for i in range(200):
            Ux = np.linalg.eigh((_gram_rows(e) @ to_xi).reshape(-1, m, m))[1]
            w, U = np.linalg.eigh((_gram_rows(Ux[:, :, 0]) @ to_eta).reshape(-1, n, n))
            stopped = (v - w[:, 0] <= settled) | (i == 199)
            if stopped.any():
                best = _lowest(best, Ux[stopped, :, 0], U[stopped, :, 0], w[stopped, 0])
                if best[2] <= reach or stopped.all():
                    break
                Ux, U, w, mu = Ux[~stopped], U[~stopped], w[~stopped], mu[~stopped]
            v, e = w[:, 0], U[:, :, 0]
            if i and scale:  # Q = 0 has nothing to polish
                v, e, mu = _newton_step(Q, Ux, U, mu, scale)
        if best[2] <= reach:
            break
    return best


def _newton_model(Q, Ux, U):
    """The second-order model of f = <y|Q|y> / (|x|^2 |e|^2) at the unit pair
    (x, e) = (Ux[:, :, 0], U[:, :, 0]) of a seesaw step, y = x (x) e, over the
    tangent steps s = (a, c) to (x + Bx a, e + Be c), where Bx = Ux[:, :, 1:]
    and Be = U[:, :, 1:] span the complements of x and e.

    Returns (f, g, H) with f(z) = f + 2 g.z + z.H z + O(|z|^3) in the real
    coordinates z = s.view(float), (Re s_0, Im s_0, Re s_1, ...).  All three
    are entries of G, Q in the product basis Ux (x) U; each entry of g and H
    is at most two of them with sign +-1, the selection :func:`_model_map`."""
    R, m = Ux.shape[:2]
    n = U.shape[1]
    W = (Ux[:, :, None, :, None] * U[:, None, :, None, :]).reshape(R, m * n, m * n)
    G = W.conj().swapaxes(1, 2) @ Q.reshape(m * n, m * n) @ W
    index, sign = _model_map(m, n)
    gH = (G.view(float).reshape(R, -1)[:, index] * sign).sum(1)
    k = 2 * (m + n - 2)
    return G[:, 0, 0].real, gH[:, :k], gH[:, k:].reshape(R, k, k)


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
    itself, which is all the next seesaw step reads."""
    R, m = Ux.shape[:2]
    v, g, H = _newton_model(Q, Ux, U)
    k = H.shape[1]
    H = H / scale
    mu = np.maximum(mu, -2 * np.linalg.eigvalsh(H)[:, 0])
    H.reshape(R, -1)[:, ::k + 1] += mu[:, None]
    z = np.linalg.solve(H, -g[:, :, None] / scale)[..., 0]
    s = z.view(complex)
    # the trial pair, unnormalised: |xt|^2 = 1 + |a|^2 and |et|^2 = 1 + |c|^2
    xt = Ux[:, :, 0] + (Ux[:, :, 1:] @ s[:, :m - 1, None])[..., 0]
    et = U[:, :, 0] + (U[:, :, 1:] @ s[:, m - 1:, None])[..., 0]
    ft = values(Q, xt, et)
    keep = ft < v
    return (np.where(keep, ft, v), np.where(keep[:, None], et, U[:, :, 0]),
            np.where(keep, np.maximum(mu / 10, CUTOFF), 10 * mu))


def _lowest(best, x, e, v):
    """best, or the row of (x, e, v) with the lowest value if that is lower."""
    k = int(np.argmin(v))
    return (x[k], e[k], v[k]) if v[k] < best[2] else best
