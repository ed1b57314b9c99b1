"""The batched product-vector seesaw against a plain per-restart loop."""
import math

import numpy as np
import pytest

from oracles import choi_of
from pptgeo.maps import (
    DecomposableSpec,
    _pairing_form,
    decomposable_map,
    phi_theta_t,
    product_pairing,
    trace_map_decomposition_2n,
)
from pptgeo.linalg import range_mask
from pptgeo.states import _product_starts, _seesaw, rho


def seesaw_oracle(Q, eta_starts, max_iter=200):
    """One restart at a time, one 3-operand einsum and one eigh per half-step:
    the reference for the batched kernel (no early stop at the zero level).  A
    restart stops once a step gains at most 1e-15 times the largest entry of Q."""
    settled = 1e-15 * np.max(np.abs(Q))
    best = None
    for eta in eta_starts:
        prev = np.inf
        for _ in range(max_iter):
            A = np.einsum("a,iajb,b->ij", eta.conj(), Q, eta)
            xi = np.linalg.eigh(A)[1][:, 0]
            B = np.einsum("i,iajb,j->ab", xi.conj(), Q, xi)
            w, U = np.linalg.eigh(B)
            eta, val = U[:, 0], w[0]
            gain, prev = prev - val, val
            if gain <= settled:
                break
        if best is None or val < best[2]:
            best = (xi, eta, val)
    return best


def form_value(Q, xi, eta):
    v = np.kron(xi, eta)
    m, n = len(xi), len(eta)
    return float((v.conj() @ Q.reshape(m * n, m * n) @ v).real)


def random_complement(m, n, k, rng):
    """I - P for the projector P onto a random k-dimensional subspace: minimising
    it over product vectors maximises P."""
    A = rng.normal(size=(m * n, k)) + 1j * rng.normal(size=(m * n, k))
    D = np.linalg.qr(A)[0]
    return (np.eye(m * n) - D @ D.conj().T).reshape(m, n, m, n)


def generic_spec(rng):
    g = lambda: rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))  # noqa: E731
    return DecomposableSpec((g(),), (g(), g()))


def trace_2n_plus_v(rng):
    """trace_map_decomposition_2n(2) with one extra random V, so the 2 (x) 4
    form is no longer a multiple of the identity."""
    spec = trace_map_decomposition_2n(2)
    V = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    return DecomposableSpec(spec.Vs + (V,), spec.Ws)


def choi_form(phi):
    return phi.choi.data.reshape(phi.m, phi.n, phi.m, phi.n)


# (name, form builder from an rng)
CASES = [
    ("max projector 3x3", lambda rng: random_complement(3, 3, 4, rng)),
    ("max projector 2x4", lambda rng: random_complement(2, 4, 3, rng)),
    ("min witness 3x3", lambda rng: _pairing_form(generic_spec(rng))),
    ("min witness 2x4", lambda rng: _pairing_form(trace_2n_plus_v(rng))),
    ("min witness trace 2x4", lambda rng: _pairing_form(trace_map_decomposition_2n(2))),
    ("min Choi 3x3", lambda rng: choi_form(phi_theta_t(math.pi / 6, 1.0))),
    ("min Choi 2x4", lambda rng: -choi_form(decomposable_map(trace_2n_plus_v(rng)))),
]


class TestSeesawKernel:
    @pytest.mark.parametrize("restarts", [1, 7])
    @pytest.mark.parametrize("name,build", CASES, ids=[c[0] for c in CASES])
    def test_matches_oracle(self, name, build, restarts):
        rng = np.random.default_rng(17)
        Q = build(rng)
        m, n = Q.shape[:2]
        _, eta = _product_starts(restarts, m, n, seed=3)
        xi_k, eta_k, val_k = _seesaw(Q, eta)
        xi_o, eta_o, val_o = seesaw_oracle(Q, eta)
        assert val_k == pytest.approx(val_o, abs=1e-10)
        assert np.linalg.norm(xi_k) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(eta_k) == pytest.approx(1.0, abs=1e-12)
        assert form_value(Q, xi_k, eta_k) == pytest.approx(val_k, abs=1e-10)

    def test_restart_schedule(self, monkeypatch):
        sizes = []
        eigh = np.linalg.eigh

        def counting(A):
            sizes.append(len(A))
            return eigh(A)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        _, eta = _product_starts(50, 3, 3, seed=0)
        # the complement of a projector onto a space holding a product vector:
        # restart 0 reaches the zero level alone and the other 49 never run
        v = np.kron([1.0, 1j, 0.0], [0.0, 1.0, 1.0]) / 2
        Q = (np.eye(9) - np.outer(v, v.conj())).reshape(3, 3, 3, 3)
        assert _seesaw(Q, eta)[2] <= 1e-14
        assert set(sizes) == {1}
        # the kernel of rho(2, pi/6) holds no product vector, so restart 0
        # stops above the zero level and the other 49 follow as one stack,
        # which only shrinks as its restarts converge
        w, V = rho(2, math.pi / 6).spectrum
        K = V[:, ~range_mask(w)]
        Q = (np.eye(9) - K @ K.conj().T).reshape(3, 3, 3, 3)
        sizes.clear()
        assert _seesaw(Q, eta)[2] == pytest.approx(0.10, abs=5e-3)
        k = sizes.index(49)
        assert set(sizes[:k]) == {1}
        assert all(a >= b for a, b in zip(sizes[k:], sizes[k + 1:]))

    def test_target_judges_stopped_restarts(self):
        # a witness value is only accepted once its restart has converged, so
        # it lands far below the zero level instead of just under it, where
        # product_pairing's re-evaluation could round it back above
        rng = np.random.default_rng(2)
        for seed in range(5):
            spec = generic_spec(rng)
            _, eta = _product_starts(20, 3, 3, seed)
            xi, eta, val = _seesaw(_pairing_form(spec), eta)
            assert abs(val) <= 1e-14
            assert product_pairing(spec, xi, eta) <= 1e-14


def decomposable_oracle(spec):
    """choi_of applied to the action X -> sum V^dagger X V + sum W^dagger X^t W."""
    m, n = spec.shape
    return choi_of(lambda E: sum(V.conj().T @ E @ V for V in spec.Vs)
                   + sum(W.conj().T @ E.T @ W for W in spec.Ws), m, n).choi.data


def one_sided_spec(rng, side):
    g = lambda: rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))  # noqa: E731
    mats = (g(), g())
    return DecomposableSpec(mats, ()) if side == "V" else DecomposableSpec((), mats)


SPECS = {
    "generic 3x3": generic_spec(np.random.default_rng(5)),
    "trace 2x4": trace_map_decomposition_2n(2),
    "trace+V 2x4": trace_2n_plus_v(np.random.default_rng(6)),
    "V only 3x3": one_sided_spec(np.random.default_rng(7), "V"),
    "W only 3x3": one_sided_spec(np.random.default_rng(8), "W"),
}


class TestPairingForm:
    @pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
    def test_equals_conjugated_choi(self, spec):
        m, n = spec.shape
        Q = _pairing_form(spec).reshape(m * n, m * n)
        assert np.max(np.abs(Q - decomposable_oracle(spec).conj())) <= 1e-12

    @pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
    def test_decomposable_map_matches_action_oracle(self, spec):
        C = decomposable_map(spec).choi.data
        assert np.max(np.abs(C - decomposable_oracle(spec))) <= 1e-12
