"""The batched product-vector seesaw against a plain per-restart loop."""
import math
import tracemalloc

import numpy as np
import pytest

from oracles import choi_of
from pptgeo.maps import (
    DecomposableSpec,
    _pairing_form,
    block_positivity_sample,
    boundary_witness_search,
    decomposable_map,
    phi_theta_t,
    product_pairing,
    trace_map_decomposition_2n,
)
from pptgeo.linalg import CUTOFF, range_mask
import pptgeo.seesaw as seesaw
from pptgeo.seesaw import _newton_model, _newton_step, minimize, partial_minima, starts
from pptgeo.states import rho


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


def rho_kernel_complement():
    """I - P for the projector P onto the kernel of rho(2, pi/6), which holds
    no product vector: its minimum over product vectors is about 0.1024."""
    w, V = rho(2, math.pi / 6).spectrum
    K = V[:, ~range_mask(w)]
    return (np.eye(9) - K @ K.conj().T).reshape(3, 3, 3, 3)


def spec_of_form(Q):
    """A spec of V's alone whose pairing form is the PSD Q (m, n, m, n): one
    V per nonzero eigenpair (w, u) of Q, sqrt(w) u reshaped to (m, n)."""
    m, n = Q.shape[:2]
    w, U = np.linalg.eigh(Q.reshape(m * n, m * n))
    return DecomposableSpec(tuple(np.sqrt(w[k]) * U[:, k].reshape(m, n) for k in np.flatnonzero(w > 1e-9)))


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


def edge_spec(m, n):
    """A decomposable spec on C^m (x) C^n with m or n one: one tangent block
    of the Newton step is empty."""
    rng = np.random.default_rng(m + 10 * n)
    g = lambda: rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))  # noqa: E731
    return DecomposableSpec((g(), g()), (g(),))


# (name, form builder from an rng)
CASES = [
    ("max projector 3x3", lambda rng: random_complement(3, 3, 4, rng)),
    ("max projector 2x4", lambda rng: random_complement(2, 4, 3, rng)),
    ("min witness 3x3", lambda rng: _pairing_form(generic_spec(rng))),
    ("min witness 2x4", lambda rng: _pairing_form(trace_2n_plus_v(rng))),
    ("min witness trace 2x4", lambda rng: _pairing_form(trace_map_decomposition_2n(2))),
    ("min Choi 3x3", lambda rng: choi_form(phi_theta_t(math.pi / 6, 1.0))),
    ("min Choi 2x4", lambda rng: -choi_form(decomposable_map(trace_2n_plus_v(rng)))),
    ("min witness 1x3", lambda rng: _pairing_form(edge_spec(1, 3))),
    ("min witness 3x1", lambda rng: _pairing_form(edge_spec(3, 1))),
]


class TestSeesawKernel:
    @pytest.mark.parametrize("restarts", [1, 7])
    @pytest.mark.parametrize("name,build", CASES, ids=[c[0] for c in CASES])
    def test_matches_oracle(self, name, build, restarts):
        rng = np.random.default_rng(17)
        Q = build(rng)
        eta = starts(restarts, Q.shape[1], seed=3)
        xi_k, eta_k, val_k = minimize(Q, eta)
        xi_o, eta_o, val_o = seesaw_oracle(Q, eta)
        assert val_k == pytest.approx(val_o, abs=1e-10)
        assert np.linalg.norm(xi_k) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(eta_k) == pytest.approx(1.0, abs=1e-12)
        assert form_value(Q, xi_k, eta_k) == pytest.approx(val_k, abs=1e-10)

    def test_restart_schedule(self, monkeypatch):
        # the witness search runs restart 0 alone, then the rest as one stack
        sizes, values = [], []
        eigh = np.linalg.eigh

        def counting(A):
            sizes.append(len(A))
            return eigh(A)

        def recording(Q, eta):
            out = minimize(Q, eta)
            values.append(out[2] / np.max(np.abs(Q)))
            return out

        # the complement of a projector onto a space holding a product vector,
        # and that of the kernel of rho(2, pi/6), which holds none
        v = np.kron([1.0, 1j, 0.0], [0.0, 1.0, 1.0]) / 2
        hit = spec_of_form((np.eye(9) - np.outer(v, v.conj())).reshape(3, 3, 3, 3))
        Q = rho_kernel_complement()
        spec = spec_of_form(Q)
        monkeypatch.setattr(np.linalg, "eigh", counting)
        monkeypatch.setattr(seesaw, "minimize", recording)
        # the eta half of the (xi, eta) start pairs that seed 0 once drew, which
        # the counts below were taken on
        eta = np.random.default_rng(0).standard_normal((50, 6, 2)).view(complex)[:, 3:, 0]
        with monkeypatch.context() as patch:
            patch.setattr(seesaw, "starts", lambda restarts, n, seed: eta[:restarts])
            # restart 0 reaches the zero level alone and the other 49 never run
            assert boundary_witness_search(hit, restarts=50) is not None
            assert set(sizes) == {1}
            # restart 0 stops above the zero level and the other 49 follow as
            # one stack, which only shrinks as its restarts converge
            sizes.clear()
            values.clear()
            # a Newton step after every seesaw step from the second on: 46 eigh
            # calls where the seesaw alone made 441, for the same best value.
            # Holding Newton back until a restart's gain ratio passed 1/10 took 64,
            # and refusing steps across this form's indefinite region until mu
            # outgrew the negative curvature, instead of shifting past it, 142
            assert boundary_witness_search(spec, restarts=50) is None
            best = 0.10239322565748317 / np.max(np.abs(Q))
            assert min(values) == pytest.approx(best, abs=1e-12)
            assert len(sizes) <= 50
            k = sizes.index(49)
            assert set(sizes[:k]) == {1}
            assert all(a >= b for a, b in zip(sizes[k:], sizes[k + 1:]))
        # one draw pins one path; over the eta starts of seeds 0-9 the same
        # search took 52-82 eigh calls, 65.2 on average, when these bounds
        # were set, so they hold the Newton schedule rather than a draw
        calls = []
        for seed in range(10):
            sizes.clear()
            values.clear()
            assert boundary_witness_search(spec, restarts=50, seed=seed) is None
            assert min(values) == pytest.approx(best, abs=1e-12)
            calls.append(len(sizes))
        assert max(calls) <= 82
        assert sum(calls) <= 652  # a mean of 65.2 over the ten seeds

    def test_step_limit_stops_each_restart(self, monkeypatch):
        # eigh lowers each eta-form's eigenvalues by 1e-9 times its call count,
        # so no step's gain settles: the two restarts, one stack, run to their
        # 200th step, which stops them, and the search returns the lower of the
        # two 200th-step pairs and values, as that step produced them
        out = []
        eigh = np.linalg.eigh

        def unsettling(A):
            w, U = eigh(A)
            if len(out) % 2:  # the eta-forms': the step's values
                w = w - 1e-9 * len(out)
            out.append((w, U))
            return w, U

        Q = rho_kernel_complement()
        monkeypatch.setattr(np.linalg, "eigh", unsettling)
        xi, eta, val = minimize(Q, starts(2, 3, seed=0))
        assert len(out) == 400 and {len(w) for w, _ in out} == {2}
        ends = [(out[398][1][r, :, 0], out[399][1][r, :, 0], out[399][0][r, 0]) for r in (0, 1)]
        want = min(ends, key=lambda end: end[2])
        assert val == want[2] and np.array_equal(xi, want[0]) and np.array_equal(eta, want[1])
        assert val > 0.1  # far above the zero level: the step limit ended the search

    def test_mean_steps_per_search(self, monkeypatch):
        # seesaw steps (two eigh calls each) per minimize call, over the
        # refinements of 16 block-positivity samples of phi_theta_t and 16
        # witness searches on generic 1V + 2W specs: 5.09 with a Newton step
        # after every seesaw step from the second on (6.59 when block
        # positivity refined its lowest sample), 10.59 when only restarts
        # whose last gain was over a tenth of the one before took one
        steps, eigh = [], np.linalg.eigh

        def counting_eigh(A):
            steps[-1] += 0.5
            return eigh(A)

        def counting_minimize(Q, eta):
            steps.append(0)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigh", counting_eigh)
                return minimize(Q, eta)

        monkeypatch.setattr(seesaw, "minimize", counting_minimize)
        rng = np.random.default_rng(0)
        for k in range(16):
            theta, t = rng.uniform(-math.pi, math.pi), rng.uniform(0.5, 2.0)
            assert block_positivity_sample(phi_theta_t(theta, t), samples=600, seed=k) >= -1e-9
            assert boundary_witness_search(generic_spec(rng), restarts=100, seed=k) is not None
        assert len(steps) == 32 and np.mean(steps) <= 8
        # the block-positivity refinements alone: 4.44 (worst 5) when the
        # refine starts from the best partial minimum of all 600 samples,
        # 5.75 (worst 8) from the best of the 16 with the lowest form value,
        # 7.62 (worst 12) from the lowest sample
        assert np.mean(steps[0::2]) <= 5.2

    def test_target_judges_stopped_restarts(self):
        # a witness value is only accepted once its restart has converged, so
        # it lands far below the zero level instead of just under it, where
        # product_pairing's re-evaluation could round it back above
        rng = np.random.default_rng(2)
        for seed in range(5):
            spec = generic_spec(rng)
            eta = starts(20, 3, seed)
            xi, eta, val = minimize(_pairing_form(spec), eta)
            assert abs(val) <= 1e-14
            assert product_pairing(spec, xi, eta) <= 1e-14


def random_frame(k, rng):
    """A random unitary k x k, as a stack of one: its first column is a random
    unit vector, the others an orthonormal basis of its complement."""
    return np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))[0][None]


def tangent_value(Q, Ux, U, z):
    """The form value at (x + Bx a, e + Be c), normalised, for the real
    coordinates z = (Re s_0, Im s_0, ...) of s = (a, c)."""
    m = Ux.shape[-1]
    s = z.view(complex)
    xi, eta = Ux[0, :, 0] + Ux[0, :, 1:] @ s[:m - 1], U[0, :, 0] + U[0, :, 1:] @ s[m - 1:]
    return form_value(Q, xi / np.linalg.norm(xi), eta / np.linalg.norm(eta))


# forms on which the Newton model is checked, by name
MODEL_FORMS = {
    "projector complement 3x3": lambda rng: random_complement(3, 3, 4, rng),
    "projector complement 4x2": lambda rng: random_complement(4, 2, 3, rng),
    "witness 2x4": lambda rng: _pairing_form(trace_2n_plus_v(rng)),
    "Choi phi(pi/6, 1)": lambda rng: choi_form(phi_theta_t(math.pi / 6, 1.0)),
    "witness 1x3": lambda rng: _pairing_form(edge_spec(1, 3)),
    "witness 3x1": lambda rng: _pairing_form(edge_spec(3, 1)),
}


def xi_form(A):
    """The hermitian 3 x 3 matrix A as a form with n = 1, whose xi-form at
    eta = 1 is A itself."""
    return np.asarray(A, dtype=complex).reshape(3, 1, 3, 1)


def rotated(w, rng):
    """The hermitian matrix with eigenvalues w in a random unitary frame."""
    U = random_frame(len(w), rng)[0]
    A = U @ np.diag(w) @ U.conj().T
    return (A + A.conj().T) / 2


# 3 x 3 xi-forms at the edges of the closed form, by name
EDGE_FORMS = {
    "multiple of the identity": lambda rng: 0.7 * np.eye(3),
    "zero": lambda rng: np.zeros((3, 3)),
    "double bottom eigenvalue": lambda rng: rotated([0.3, 0.3, 0.9], rng),
    "near-double bottom eigenvalue": lambda rng: rotated([0.3, 0.3 + 1e-7, 0.9], rng),
    "double top eigenvalue": lambda rng: rotated([0.3, 0.9, 0.9], rng),
    "rank one": lambda rng: rotated([0.0, 0.0, 1.0], rng),
    "negative rank one": lambda rng: rotated([-1.0, 0.0, 0.0], rng),
    "PSD with a zero eigenvalue": lambda rng: rotated([0.0, 0.2, 0.7], rng),
    "diagonal double bottom": lambda rng: np.diag([-1.0, 2.0, -1.0]),
}


class TestContractions:
    @pytest.mark.parametrize("name", MODEL_FORMS)
    def test_values_match_form_value(self, name):
        # the Newton trial is judged on G, the form in the product basis
        # Ux (x) U: at the product row y = (1, a) (x) (1, c) the normalised
        # value y^dagger G y / y^dagger y is the dense value at the pair
        # (Ux (1, a), U (1, c)), normalised; a form scaled by 2^+-300 scales
        # G exactly, since no step of the contraction leaves the float range
        rng = np.random.default_rng(8)
        Q = MODEL_FORMS[name](rng)
        m, n = Q.shape[:2]
        Ux = np.concatenate([random_frame(m, rng) for _ in range(7)])
        U = np.concatenate([random_frame(n, rng) for _ in range(7)])
        a = rng.normal(size=(7, m)) + 1j * rng.normal(size=(7, m))
        c = rng.normal(size=(7, n)) + 1j * rng.normal(size=(7, n))
        a[:, 0], c[:, 0] = 1, 1
        G = _newton_model(Q, Ux, U)[0]
        y = (a[:, :, None] * c[:, None, :]).reshape(7, m * n)
        got = (np.einsum("ri,rij,rj->r", y.conj(), G, y) / np.einsum("ri,ri->r", y.conj(), y)).real
        xi, eta = (Ux @ a[..., None])[..., 0], (U @ c[..., None])[..., 0]
        want = [form_value(Q, x / np.linalg.norm(x), e / np.linalg.norm(e)) for x, e in zip(xi, eta)]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(Q))
        for k in (-300, 300):
            assert np.array_equal(_newton_model(Q * 2.0**k, Ux, U)[0], G * 2.0**k)

    @pytest.mark.parametrize("name", list(MODEL_FORMS) + list(EDGE_FORMS))
    def test_partial_minima_match_dense_xi_forms(self, name):
        # the minimum over xi at each eta row against the bottom eigenvalue
        # of the xi-form contracted densely, with eta normalised first; the
        # 3 x 3 xi-forms are read in closed form, which scales Q first, so
        # that a form scaled by 2^+-600, where the squared and cubed entries
        # of its unscaled xi-forms leave the float range, reads the same
        # values scaled; no edge form reads NaN
        rng = np.random.default_rng(9)
        if name in MODEL_FORMS:
            Q = MODEL_FORMS[name](rng)
            cases = [(Q, starts(7, Q.shape[1], seed=10))]
        else:  # seven frames of the edge form, each its own xi-form at eta = 1
            cases = [(xi_form(EDGE_FORMS[name](rng)), np.ones((1, 1))) for _ in range(7)]
        for Q, eta in cases:
            scale = np.max(np.abs(Q))
            got = partial_minima(Q, eta)
            assert not np.isnan(got).any()
            for e, value in zip(eta, got):
                e = e / np.linalg.norm(e)
                assert value == pytest.approx(np.linalg.eigvalsh(np.einsum("a,iajb,b->ij", e.conj(), Q, e))[0],
                                              abs=1e-14 * scale)
            for k in (-600, -300, 300, 600):
                assert np.max(np.abs(partial_minima(Q * 2.0**k, eta) / 2.0**k - got)) <= 1e-14 * scale

    @pytest.mark.parametrize("restarts,n", [(1, 3), (7, 1), (50, 4), (600, 3)])
    def test_starts_are_the_normal_stream(self, restarts, n):
        # standard_normal draws the stream of normal(size=...) at its default
        # loc and scale, so a seed gives the starts it always gave
        for seed in range(4):
            z = np.random.default_rng(seed).normal(size=(restarts, n, 2))
            assert np.array_equal(starts(restarts, n, seed), z[..., 0] + 1j * z[..., 1])


class TestNewtonStep:
    @pytest.mark.parametrize("name", MODEL_FORMS)
    def test_model_matches_central_differences(self, name):
        # the gradient and Hessian of the Newton model against central
        # differences of the form value in the real tangent coordinates, at
        # random unit pairs with random complements
        rng = np.random.default_rng(4)
        Q = MODEL_FORMS[name](rng)
        m, n = Q.shape[:2]
        t = 1e-4
        for _ in range(3):
            Ux, U = random_frame(m, rng), random_frame(n, rng)
            G, g, H = _newton_model(Q, Ux, U)
            assert G[0, 0, 0].real == pytest.approx(tangent_value(Q, Ux, U, np.zeros(g.shape[1])), abs=1e-14)
            E = t * np.eye(g.shape[1])
            val = lambda z: tangent_value(Q, Ux, U, z)  # noqa: E731
            grad = [(val(d) - val(-d)) / (2 * t) for d in E]
            hess = [[(val(d + b) - val(d - b) - val(b - d) + val(-d - b)) / (4 * t * t) for b in E]
                    for d in E]
            scale = np.max(np.abs(Q))
            assert np.max(np.abs(2 * g[0] - grad), initial=0) <= 1e-7 * scale
            assert np.max(np.abs(2 * H[0] - np.array(hess).reshape(H[0].shape)), initial=0) <= 1e-6 * scale

    @pytest.mark.parametrize("m,n", [(7, 7), (9, 9), (2, 30)], ids=["7x7", "9x9", "2x30"])
    def test_model_memory(self, m, n):
        # each entry of (g, H) is at most two entries of G, so the model map is
        # an index and a sign array of about 8 (m + n)^2 entries each and a
        # first call stays far below 4 MiB, where a dense real-linear map of
        # the entries read grows as (m + n)^4 (318 MiB at 2 (x) 30)
        rng = np.random.default_rng(5)
        Q = random_complement(m, n, 20, rng)
        Ux, U = random_frame(m, rng), random_frame(n, rng)
        seesaw._model_map.cache_clear()
        tracemalloc.start()
        try:
            _newton_model(Q, Ux, U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_damping_is_shifted_past_negative_curvature(self, monkeypatch):
        # the step solves with shift = max(mu, -2 lambda_min(H / scale)), so its
        # damped model is positive definite; it returns the trial value and
        # (a multiple of) the trial eta only below the seesaw value, else the
        # seesaw's value and eta bitwise, and mu becomes max(shift / 10, CUTOFF)
        # after a step that lowered the value and 10 shift after one that did
        # not.  On
        # seeded random frames every step lowers it; the frames the seesaw
        # itself steps from add steps that do not
        calls, step = [], seesaw._newton_step

        def recording(*args):
            out = step(*args)
            calls.append((args, out))
            return out

        monkeypatch.setattr(seesaw, "_newton_step", recording)
        rng = np.random.default_rng(6)
        for build in MODEL_FORMS.values():
            Q = build(rng)
            m, n = Q.shape[:2]
            for mu in (CUTOFF, 1e-3, 1e-1):
                Ux, U = random_frame(m, rng), random_frame(n, rng)
                seesaw._newton_step(Q, Ux, U, np.array([mu]), np.max(np.abs(Q)))
            minimize(Q, starts(20, n, seed=3))
        negative, lowered = [], []
        for (Q, Ux, U, mu, scale), (v, e_out, mu_out) in calls:
            G, g, H = _newton_model(Q, Ux, U)
            f = G[:, 0, 0].real
            for i in range(len(f)):
                lam = np.linalg.eigvalsh(H[i] / scale)[0]
                shift = max(mu[i], -2 * lam)
                z = np.linalg.solve(H[i] / scale + shift * np.eye(len(g[i])), -g[i] / scale)
                trial = tangent_value(Q, Ux[i:i + 1], U[i:i + 1], z)
                negative.append(lam < 0)
                lowered.append(v[i] < f[i])
                if lowered[-1]:
                    assert v[i] == pytest.approx(trial, abs=1e-13 * scale)
                    et = U[i, :, 0] + U[i, :, 1:] @ z.view(complex)[Ux.shape[1] - 1:]
                    assert abs(np.vdot(e_out[i], et)) == pytest.approx(
                        np.linalg.norm(e_out[i]) * np.linalg.norm(et), rel=1e-9)
                    assert mu_out[i] == pytest.approx(max(shift / 10, CUTOFF), rel=1e-12, abs=1e-14)
                else:
                    assert v[i] == f[i] and np.array_equal(e_out[i], U[i, :, 0])
                    assert trial >= f[i] - 1e-13 * scale
                    assert mu_out[i] == pytest.approx(10 * shift, rel=1e-12, abs=1e-13)
        assert any(negative) and any(lowered) and not all(lowered)

    @pytest.mark.parametrize("name", MODEL_FORMS)
    def test_step_is_exact_under_power_of_two_scaling(self, name):
        # G is linear in Q, the step divides g and H by scale, and the trial
        # value is read off G, so a form scaled by 2^+-300 takes the same step:
        # its value scaled exactly, and eta and mu bitwise, since no step of
        # the contraction leaves the float range
        rng = np.random.default_rng(8)
        Q = MODEL_FORMS[name](rng)
        m, n = Q.shape[:2]
        Ux = np.concatenate([random_frame(m, rng) for _ in range(7)])
        U = np.concatenate([random_frame(n, rng) for _ in range(7)])
        mu, scale = np.geomspace(CUTOFF, 1.0, 7), np.max(np.abs(Q))
        v, eta, mu_out = _newton_step(Q, Ux, U, mu, scale)
        for k in (-300, 300):
            vk, eta_k, mu_k = _newton_step(Q * 2.0**k, Ux, U, mu, scale * 2.0**k)
            assert np.array_equal(vk, v * 2.0**k)
            assert np.array_equal(eta_k, eta) and np.array_equal(mu_k, mu_out)

    @pytest.mark.parametrize("name,build", CASES, ids=[c[0] for c in CASES])
    def test_no_step_raises_the_value(self, name, build, monkeypatch):
        # one restart, so that every value it takes can be followed: each
        # seesaw step (the bottom eigenvalue of its eta-form) and each Newton
        # step leaves the form value unchanged or lower
        Q = build(np.random.default_rng(17))
        trail, _ = value_trail(Q, monkeypatch)
        slack = 1e-13 * np.max(np.abs(Q))
        assert all(b <= a + slack for a, b in zip(trail, trail[1:]))

    @pytest.mark.parametrize("name", ["max projector 3x3", "min witness 3x3", "min Choi 3x3"])
    def test_newton_steps_are_kept(self, name, monkeypatch):
        # the monotone trail above is not vacuous: here Newton steps are taken
        Q = dict(CASES)[name](np.random.default_rng(17))
        assert any(value_trail(Q, monkeypatch)[1])


def value_trail(Q, monkeypatch):
    """The values one restart of the seesaw takes on Q, in order, and for each
    Newton step whether it lowered the value."""
    trail, lowered = [], []
    eigh, step = np.linalg.eigh, seesaw._newton_step

    def recording_eigh(A):
        out = eigh(A)
        if recording_eigh.calls % 2:
            trail.append(out[0][0, 0])  # the eta-form's: the step's value
        recording_eigh.calls += 1
        return out

    def recording_step(*args):
        out = step(*args)
        lowered.append(out[0][0] < trail[-1])
        trail.append(out[0][0])
        return out

    recording_eigh.calls = 0
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(seesaw, "_newton_step", recording_step)
    minimize(Q, starts(1, Q.shape[1], seed=3))
    return trail, lowered


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
