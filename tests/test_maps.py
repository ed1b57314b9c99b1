import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pptgeo.seesaw
from oracles import apply_map, choi_of, identity_map, trace_map, transpose_map
from pptgeo.krawtchouk import krawtchouk_sum
from pptgeo.linalg import MAX_DENSE_ENTRIES, ROUNDOFF, NumericalError, spectrum_is_psd, zero_level
from pptgeo.maps import (
    ChoiMap,
    DecomposableSpec,
    antipodal_sum_choi,
    block_positivity_sample,
    boundary_witness_search,
    decomposable_map,
    pairing,
    phi_theta_coefficients,
    phi_theta_t,
    product_pairing,
    trace_map_decomposition_2n,
    trace_map_decomposition_33,
)
from pptgeo.states import (BipartiteMatrix, is_interior_of_S_sufficient, p_theta, partial_transpose,
                           rho, sigma)


def phi_theta_oracle(theta, t):
    """choi_of applied to the action of phi[a, b, c; theta] on matrix units:
    E_ii goes to a diagonal with (a, c, b) rotated cyclically, and E_ij with
    i != j goes to -e^{+-i theta} E_ij."""
    a, b, c = phi_theta_coefficients(theta, t)
    e = np.exp(1j * theta)
    ec = np.conj(e)
    diag_images = {0: np.diag([a, c, b]), 1: np.diag([b, a, c]), 2: np.diag([c, b, a])}
    phases = {(0, 1): -e, (1, 0): -ec, (0, 2): -ec, (2, 0): -e, (1, 2): -e, (2, 1): -ec}

    def action(E):
        i, j = map(int, np.argwhere(E)[0])
        if i == j:
            return diag_images[i].astype(complex)
        out = np.zeros((3, 3), dtype=complex)
        out[i, j] = phases[(i, j)]
        return out

    return choi_of(action, 3, 3)


def scaled(phi, factor):
    return ChoiMap(BipartiteMatrix(phi.m, phi.n, factor * phi.choi.data))


def random_density(m, rng):
    A = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    H = A @ A.conj().T
    return H / np.trace(H).real


class TestChoiBasics:
    def test_identity_choi_is_max_entangled(self):
        C = identity_map(3).choi.data
        v = sum(np.kron(np.eye(3)[i], np.eye(3)[i]) for i in range(3))
        assert_allclose(C, np.outer(v, v), atol=1e-14)

    def test_transpose_choi_is_swap(self):
        C = transpose_map(2).choi.data
        swap = np.array([
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ], dtype=float)
        assert_allclose(C, swap, atol=1e-14)

    def test_trace_map_choi_identity(self):
        assert_allclose(trace_map(3, 3).choi.data, np.eye(9), atol=1e-15)
        assert_allclose(trace_map(2, 4).choi.data, np.eye(8), atol=1e-15)

    def test_apply_round_trip(self):
        rng = np.random.default_rng(6)
        X = random_density(3, rng)
        assert_allclose(apply_map(identity_map(3), X), X, atol=1e-13)
        assert_allclose(apply_map(transpose_map(3), X), X.T, atol=1e-13)
        assert_allclose(apply_map(trace_map(3, 3), X), np.eye(3), atol=1e-13)

    def test_bad_image_shape(self):
        with pytest.raises(ValueError):
            choi_of(lambda E: np.zeros((2, 2)), 3, 3)


class TestPairing:
    def test_trace_map_pairs_to_trace(self):
        for b, th in [(2.0, math.pi / 6), (0.5, 2.2)]:
            X = rho(b, th)
            assert pairing(X, trace_map(3, 3)) == pytest.approx(
                np.trace(X.data).real, abs=1e-10
            )

    def test_transpose_map_pairs_via_partial_transpose(self):
        rng = np.random.default_rng(12)
        C_t = transpose_map(3)
        for _ in range(5):
            A = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
            X = BipartiteMatrix(3, 3, (A + A.conj().T) / 2)
            got = pairing(X, C_t)
            # pairing with the transpose map reads off a PT-related invariant
            want = np.trace(partial_transpose(X).data
                            @ identity_map(3).choi.data.T).real
            assert got == pytest.approx(want, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pairing(rho(1, 0), identity_map(2))

    @pytest.mark.parametrize("ka,kb", [(-8, -8), (-8, 8), (8, -8), (8, 8)])
    def test_near_zero_value_at_any_scale(self, ka, kb):
        # Tr(X C^t) = 0 up to rounding: C is projected off X^t, and the
        # imaginary rounding of the value is judged against ||X|| ||C||.
        rng = np.random.default_rng(17)
        for _ in range(20):
            A, B = (rng.normal(size=(9, 9, 2)) @ [1, 1j] for _ in range(2))
            X = (A + A.conj().T) / 2
            C = (B + B.conj().T) / 2
            C = C - np.trace(X @ C.T).real / np.trace(X @ X).real * X.T
            X, C = 10.0**ka * X, 10.0**kb * C
            val = pairing(BipartiteMatrix(3, 3, X), ChoiMap(BipartiteMatrix(3, 3, C)))
            assert abs(val) <= 1e-12 * np.linalg.norm(X) * np.linalg.norm(C)


class TestPhiTheta:
    def test_coefficient_sum(self):
        for th in np.linspace(-3, 3, 7):
            for t in (0.25, 1.0, 3.0):
                a, b, c = phi_theta_coefficients(th, t)
                assert a + b + c == pytest.approx(p_theta(th), abs=1e-12)

    @pytest.mark.parametrize("t", [1e-300, 1e-160, 1.0, 1.3e154, 1.4e154, 1e160, 1e300])
    def test_coefficients_finite_at_any_t(self, t):
        # t * t overflows between 1.3e154 and 1.4e154; b tends to p_theta - 1,
        # which is 0 at pi, so there the Choi diagonal rests on p_theta >= 1
        for th in (0.3, 1.0, 2.5, math.pi):
            a, b, c = phi_theta_coefficients(th, t)
            assert a + b + c == pytest.approx(p_theta(th), rel=ROUNDOFF)
            assert b * c == pytest.approx((1 - a) ** 2, abs=ROUNDOFF)
            assert np.diag(phi_theta_t(th, t).choi.data).real.min() >= 0

    def test_values_at_t1(self):
        a, b, c = phi_theta_coefficients(math.pi / 6, 1.0)
        assert a == pytest.approx(2 - math.sqrt(3), abs=1e-12)
        assert b == pytest.approx(math.sqrt(3) - 1, abs=1e-12)
        assert c == pytest.approx(math.sqrt(3) - 1, abs=1e-12)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            phi_theta_coefficients(0.0, 0.0)

    @pytest.mark.parametrize("call,name", [
        (lambda: phi_theta_coefficients(0.3, math.inf), "t"),
        (lambda: phi_theta_t(0.3, math.inf), "t"),
        (lambda: antipodal_sum_choi(0.3, math.inf, 1.0), "t"),
        (lambda: antipodal_sum_choi(0.3, 1.0, math.inf), "s"),
    ], ids=["coefficients", "phi", "antipodal t", "antipodal s"])
    def test_infinite_t_rejected(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            call()

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
    def test_matches_action_oracle(self, t):
        for k in range(-12, 13):
            theta = k * math.pi / 12
            got = phi_theta_t(theta, t).choi.data
            assert np.array_equal(got, phi_theta_oracle(theta, t).choi.data), (k, t)

    def test_choi_diagonal_structure(self):
        phi = phi_theta_t(math.pi / 6, 1.0)
        C = phi.choi.data
        a, b, c = phi_theta_coefficients(math.pi / 6, 1.0)
        assert_allclose(np.diag(C).real, [a, c, b, b, a, c, c, b, a], atol=1e-12)

    def test_pairs_nonnegative_with_product_states(self):
        # block positivity shows up as nonnegative pairing with every product
        # state, even though pairing with entangled PPT states may go negative
        from pptgeo.states import product_state

        rng = np.random.default_rng(31)
        for th_map, t in [(math.pi / 6, 1.0), (1.0, 0.5), (-2.0, 2.0)]:
            phi = phi_theta_t(th_map, t)
            for _ in range(25):
                xi = rng.normal(size=3) + 1j * rng.normal(size=3)
                eta = rng.normal(size=3) + 1j * rng.normal(size=3)
                assert pairing(product_state(xi, eta), phi) >= -1e-9

    def test_witnesses_entangled_ppt_state(self):
        # a negative pairing with a PPT state certifies both the state's
        # entanglement and the map's non-decomposability
        vals = [pairing(rho(b, th), phi_theta_t(math.pi / 6, 1.0))
                for b in (0.5, 1.0, 2.0) for th in
                [k * math.pi / 6 for k in range(12)]]
        assert min(vals) < -1e-3

    def test_block_positive_sampled(self):
        phi = phi_theta_t(math.pi / 6, 1.0)
        assert block_positivity_sample(phi, samples=2000, seed=1) >= -1e-9

    def test_not_completely_positive(self):
        # Choi matrix of the generic family member has a negative eigenvalue
        assert not spectrum_is_psd(phi_theta_t(math.pi / 6, 1.0).choi.spectrum[0])


class TestAntipodalSum:
    def test_diagonal_and_interior(self):
        for th, t, s in [(math.pi / 6, 1.0, 1.0), (0.9, 0.5, 2.0), (-1.3, 1.7, 0.3)]:
            phi = antipodal_sum_choi(th, t, s)
            C = phi.choi.data
            assert np.max(np.abs(C - np.diag(np.diag(C)))) == 0.0
            assert np.all(np.diag(C).real > 0)
            assert is_interior_of_S_sufficient(phi.choi)

    def test_single_member_not_certified(self):
        assert not is_interior_of_S_sufficient(phi_theta_t(1.0, 1.0).choi)

    def test_verdict_is_scale_invariant(self):
        C = np.eye(9)
        C[0, 1] = C[1, 0] = 0.5
        cases = [(antipodal_sum_choi(th, t, s), True)
                 for th, t, s in [(math.pi / 6, 1.0, 1.0), (0.9, 0.5, 2.0), (-1.3, 1.7, 0.3)]]
        cases += [(phi_theta_t(th, t), False) for th, t in [(1.0, 1.0), (math.pi / 6, 0.3)]]
        cases += [(ChoiMap(BipartiteMatrix(3, 3, C)), False)]
        for phi, verdict in cases:
            for k in range(-12, 13):
                assert is_interior_of_S_sufficient(scaled(phi, 10.0**k).choi) is verdict, k


class TestDecomposable:
    def test_trace_map_33(self):
        spec = trace_map_decomposition_33()
        assert len(spec.Vs) == 1 and len(spec.Ws) == 3
        C = decomposable_map(spec).choi.data
        assert np.max(np.abs(C - np.eye(9))) == 0.0

    @pytest.mark.parametrize("mu", [1, 2, 3, 4])
    def test_trace_map_2n(self, mu):
        spec = trace_map_decomposition_2n(mu)
        assert len(spec.Vs) == mu and len(spec.Ws) == mu
        C = decomposable_map(spec).choi.data
        assert np.max(np.abs(C - np.eye(4 * mu))) == 0.0

    def test_choi_action_consistency(self):
        rng = np.random.default_rng(3)
        V = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        W = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        spec = DecomposableSpec((V,), (W,))
        phi = decomposable_map(spec)
        X = random_density(3, rng)
        want = V.conj().T @ X @ V + W.conj().T @ X.T @ W
        assert_allclose(apply_map(phi, X), want, atol=1e-12)

    def test_trace_map_2n_needs_positive_mu(self):
        with pytest.raises(ValueError, match="mu must be a positive integer"):
            trace_map_decomposition_2n(0)

    def test_trace_map_2n_past_the_size_budget(self):
        # the Choi matrix has (4 mu)^2 entries, so mu = 362 is the last within
        # MAX_DENSE_ENTRIES; past it the check comes before any allocation,
        # so a huge mu fails at once instead of exhausting memory
        assert (4 * 362) ** 2 <= MAX_DENSE_ENTRIES < (4 * 363) ** 2
        assert len(trace_map_decomposition_2n(362).Vs) == 362
        for mu in (363, 10**5, 10**30):
            tracemalloc.start()
            try:
                with pytest.raises(NumericalError, match=f" has {(4 * mu) ** 2} entries, more than the dense-size"):
                    trace_map_decomposition_2n(mu)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**16

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            DecomposableSpec((), ())

    @pytest.mark.parametrize("shape", [(0, 0), (2, 0), (0, 3)])
    def test_zero_dimension_rejected(self, shape):
        with pytest.raises(ValueError, match="at least 1 x 1"):
            DecomposableSpec((np.zeros(shape),), ())

    def test_mixed_shapes_rejected(self):
        with pytest.raises(ValueError):
            DecomposableSpec((np.eye(2),), (np.eye(3),))


class TestProductPairing:
    def test_matches_choi_pairing(self):
        rng = np.random.default_rng(19)
        V = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        W = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        spec = DecomposableSpec((V,), (W,))
        phi = decomposable_map(spec)
        from pptgeo.states import product_state

        for _ in range(5):
            xi = rng.normal(size=3) + 1j * rng.normal(size=3)
            eta = rng.normal(size=3) + 1j * rng.normal(size=3)
            got = product_pairing(spec, xi, eta)
            want = pairing(product_state(xi, eta), phi) * (
                np.linalg.norm(xi) * np.linalg.norm(eta)) ** 2
            assert got == pytest.approx(want, rel=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(23)
        spec = trace_map_decomposition_33()
        for _ in range(10):
            xi = rng.normal(size=3) + 1j * rng.normal(size=3)
            eta = rng.normal(size=3) + 1j * rng.normal(size=3)
            assert product_pairing(spec, xi, eta) >= 0.0


def _generic_spec(seed):
    rng = np.random.default_rng(seed)
    g = lambda: rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))  # noqa: E731
    return DecomposableSpec((g(),), (g(), g()))


def _rank_one_dip(seed):
    """C = I - 2|a (x) b><a (x) b|, whose product-vector minimum is -1 at (a_bar, b)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    return ChoiMap(BipartiteMatrix(3, 3, np.eye(9) - 2 * np.outer(v, v.conj())))


# (name, spec, whether a witness exists)
WITNESS_SPECS = [
    ("trace 3x3", trace_map_decomposition_33(), False),
    ("trace 2x2", trace_map_decomposition_2n(1), False),
    ("trace 2x4", trace_map_decomposition_2n(2), False),
    ("generic 3x3", _generic_spec(0), True),
]

POSITIVITY_MAPS = [("phi(pi/6, 1)", phi_theta_t(math.pi / 6, 1.0)), ("rank-one dip", _rank_one_dip(3)),
                   ("phi(1.936, 0.998)", phi_theta_t(1.936, 0.998))]


class TestBoundaryWitness:
    def test_generic_3_generator_spec_has_witness(self):
        rng = np.random.default_rng(0)
        Vs = tuple(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                   for _ in range(1))
        Ws = tuple(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                   for _ in range(2))
        found = boundary_witness_search(DecomposableSpec(Vs, Ws), restarts=200)
        assert found is not None
        xi, eta, res = found
        assert res <= 1e-12
        assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(eta) == pytest.approx(1.0, abs=1e-9)

    def test_trace_maps_have_none(self):
        # the trace map pairs every product state to |xi|^2 |eta|^2, so it is
        # interior to the positive cone and the search must come back empty
        assert boundary_witness_search(trace_map_decomposition_33(),
                                       restarts=100) is None
        assert boundary_witness_search(trace_map_decomposition_2n(2),
                                       restarts=100) is None

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        spec = DecomposableSpec(
            (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),),
            (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),),
        )
        a = boundary_witness_search(spec, restarts=50, seed=5)
        b = boundary_witness_search(spec, restarts=50, seed=5)
        assert a is not None
        assert_allclose(a[0], b[0])
        assert_allclose(a[1], b[1])

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_nonpositive_restarts(self, restarts):
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            boundary_witness_search(trace_map_decomposition_33(), restarts=restarts)

    def test_positive_definite_form_is_proved_without_the_seesaw(self, monkeypatch):
        # the trace maps' pairing form is I: positive definite, so it has no
        # product zero, and the answer needs no search, nor its start pairs,
        # at any scale
        def no_seesaw(*args):
            raise AssertionError("the seesaw ran")

        monkeypatch.setattr(pptgeo.seesaw, "minimize", no_seesaw)
        monkeypatch.setattr(pptgeo.seesaw, "starts", no_seesaw)
        specs = [trace_map_decomposition_33()] + [trace_map_decomposition_2n(mu) for mu in (1, 2, 3, 4)]
        for spec, c in itertools.product(specs, (1e-300, 1.0, 1e300)):
            scaled_spec = DecomposableSpec(tuple(c * V for V in spec.Vs), tuple(c * W for W in spec.Ws))
            assert boundary_witness_search(scaled_spec, restarts=100) is None
        # an indefinite form still goes to the seesaw
        with pytest.raises(AssertionError, match="the seesaw ran"):
            boundary_witness_search(_generic_spec(0), restarts=100)
        monkeypatch.undo()
        assert boundary_witness_search(_generic_spec(0), restarts=100) is not None

    @pytest.mark.parametrize("k", [-320, -300, -200, -100, -7, 0, 3, 100, 200, 300])
    @pytest.mark.parametrize("name,spec,found", WITNESS_SPECS, ids=[c[0] for c in WITNESS_SPECS])
    def test_verdict_is_scale_free(self, name, spec, found, k):
        # the trace maps have identity Choi matrices at every scale, so no
        # scale may produce a witness; the generic spec has one at every scale
        # (at 1e-320 its entries are subnormal, but it is still generic)
        c = 10.0**k
        out = boundary_witness_search(
            DecomposableSpec(tuple(c * V for V in spec.Vs), tuple(c * W for W in spec.Ws)), restarts=100)
        assert (out is not None) == found
        if found:
            assert out[2] <= 1e-12

    @pytest.mark.parametrize("stream", [0, 1])
    def test_every_witness_forced_by_krawtchouk_is_found(self, stream):
        # m = 2, n in {3, 4, 5}, every split of k V's and l W's with k + l = n,
        # 20 complex gaussian specs per split: a nonzero signed count
        # krawtchouk_sum(k, l, 2) forces a common zero, so all 280 such specs
        # have a witness (the plain seesaw left 3 per stream inconclusive)
        rng = np.random.default_rng(stream)
        missed = []
        for n in (3, 4, 5):
            for k in range(n + 1):
                for i in range(20):
                    g = lambda: rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))  # noqa: E731
                    spec = DecomposableSpec(tuple(g() for _ in range(k)), tuple(g() for _ in range(n - k)))
                    if krawtchouk_sum(k, n - k, 2) and boundary_witness_search(spec, restarts=200) is None:
                        missed.append((n, k, i))
        assert missed == []

    def test_nothing_found_is_inconclusive(self, monkeypatch):
        # five generic V's on 3 (x) 3: the form has rank 5 of 9, so the
        # positive-definite proof does not apply, and the seesaw's best value
        # stays near 3e-3 max|Q|, far above the zero level
        rng = np.random.default_rng(0)
        spec = DecomposableSpec(tuple(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(5)))
        calls, minimize = [], pptgeo.seesaw.minimize
        monkeypatch.setattr(pptgeo.seesaw, "minimize", lambda *args: calls.append(args) or minimize(*args))
        assert boundary_witness_search(spec, restarts=50) is None
        # restart 0 alone misses, so the other 49 run as one stack
        assert [len(args[1]) for args in calls] == [1, 49]

    def test_restart_zero_decides_alone(self, monkeypatch):
        # restart 0 reaches the zero level on a generic spec, so the other 99
        # starts are never drawn
        calls, starts = [], pptgeo.seesaw.starts
        monkeypatch.setattr(pptgeo.seesaw, "starts", lambda *args: calls.append(args) or starts(*args))
        assert boundary_witness_search(_generic_spec(0), restarts=100, seed=3) is not None
        assert calls == [(1, 3, 3)]

    def test_restarts_past_the_size_budget(self, monkeypatch):
        # the later restarts' product-basis forms hold (restarts - 1) (mn)^2
        # entries, so 25891 restarts are the most within MAX_DENSE_ENTRIES on
        # 3 (x) 3; restart 0 decides this spec, so that count runs at once,
        # and one more is refused before any start is drawn
        assert 25890 * 81 <= MAX_DENSE_ENTRIES < 25891 * 81
        calls, starts = [], pptgeo.seesaw.starts
        monkeypatch.setattr(pptgeo.seesaw, "starts", lambda *args: calls.append(args) or starts(*args))
        assert boundary_witness_search(_generic_spec(0), restarts=25891) is not None
        assert calls == [(1, 3, 0)]
        calls.clear()
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match="^the form stack of 25891 later restarts has 2097171 entries, "
                                                     "more than the dense-size budget of 2097152$"):
                boundary_witness_search(_generic_spec(0), restarts=25892)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and calls == []

    def test_zero_spec_is_a_witness(self):
        xi, eta, res = boundary_witness_search(DecomposableSpec((np.zeros((2, 3)),)), restarts=5)
        assert res == 0.0
        assert np.linalg.norm(xi) == pytest.approx(1.0) and np.linalg.norm(eta) == pytest.approx(1.0)


class TestBlockPositivity:
    def test_identity_map(self):
        assert block_positivity_sample(identity_map(3), samples=500) >= -1e-12

    def test_negative_for_nonpositive_map(self):
        phi = choi_of(lambda E: -E, 3, 3)
        assert block_positivity_sample(phi, samples=500) < 0

    def test_refine_reaches_rank_one_dip(self):
        # C = I - 2|a (x) b><a (x) b| has product-vector minimum -1 at (a_bar, b);
        # the refine must descend one form, not alternate xi and xi_bar
        phi = _rank_one_dip(3)
        for seed in range(5):
            assert block_positivity_sample(phi, samples=500, seed=seed) == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("name,phi", POSITIVITY_MAPS, ids=[c[0] for c in POSITIVITY_MAPS])
    def test_scale_free(self, name, phi):
        # the map is unit-scaled before sampling and the refine stops relative
        # to the form, so the value scales with the map up to 1e307
        want = block_positivity_sample(phi, samples=500)
        for k in (-300, -200, -100, -7, 7, 100, 200, 300, 307):
            got = block_positivity_sample(scaled(phi, 10.0**k), samples=500) / 10.0**k
            assert got == pytest.approx(want, abs=1e-9 * np.max(np.abs(phi.choi.data)))

    @pytest.mark.parametrize("theta,t", [(math.pi / 6, 1.0), (2.159, 1.174), (1.936, 0.998)])
    def test_refine_reaches_the_zero_of_a_positive_map(self, theta, t):
        # positive maps with a product zero, the last two near-Choi maps with
        # a degenerate one (a about 0.03); the seesaw alone stopped at 8.2e-9,
        # 2.0e-4 and 2.9e-4
        phi = phi_theta_t(theta, t)
        value = block_positivity_sample(phi, samples=600, seed=0)
        assert abs(value) <= ROUNDOFF * np.max(np.abs(phi.choi.data))

    def test_positive_at_a_large_angle(self):
        # phi's coefficients read p_theta of theta reduced as its phases are
        phi = phi_theta_t(1e16 + 0.1, 1.0)
        value = block_positivity_sample(phi, samples=600, seed=0)
        assert value >= -ROUNDOFF * np.max(np.abs(phi.choi.data))

    def test_refine_does_not_crawl(self, monkeypatch):
        # maps drawn as the certify_search benchmark draws them, each refined
        # from 600 samples: no refinement takes more than 24 seesaw steps (two
        # eigh calls each), where refusing the Newton steps of an indefinite
        # model, instead of shifting the damping past it, took up to 36 here
        rng = np.random.default_rng(0)
        eigh, calls = np.linalg.eigh, []

        def counting(A):
            calls.append(len(A))
            return eigh(A)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        steps = []
        for _ in range(100):
            phi = phi_theta_t(rng.uniform(-math.pi, math.pi), rng.uniform(0.5, 2.0))
            calls.clear()
            value = block_positivity_sample(phi, samples=600, seed=int(rng.integers(2**31)))
            steps.append(len(calls) // 2)
            assert value >= -zero_level(phi.choi.data)
        assert max(steps) <= 24

    def test_positive_map_reads_zero_within_the_zero_level(self):
        # X -> v^dagger X v with v all ones is positive, but its all-ones Choi
        # matrix reads about -1e-15 from rounding: only a value below the zero
        # level -ROUNDOFF max|C| certifies non-positivity
        phi = decomposable_map(DecomposableSpec((np.ones((1, 4)),), ()))
        level = ROUNDOFF * np.max(np.abs(phi.choi.data))
        for samples, seed in itertools.product((5, 10000), range(3)):
            assert abs(block_positivity_sample(phi, samples=samples, seed=seed)) <= level

    def test_value_out_of_range_is_numerical(self):
        # the minimum -9e308 of the all -1e308 Choi matrix is past the float range
        phi = ChoiMap(BipartiteMatrix(3, 3, -1e308 * np.ones((9, 9))))
        with pytest.raises(NumericalError, match="floating-point range"):
            block_positivity_sample(phi, samples=50)

    def test_samples_past_the_size_budget(self):
        # scoring builds max(m, n)^2 entries per sample, so 233016 samples are
        # the most within MAX_DENSE_ENTRIES on 3 (x) 3; one more is refused
        # before anything is drawn
        assert 233016 * 9 <= MAX_DENSE_ENTRIES < 233017 * 9
        phi = phi_theta_t(math.pi / 6, 1.0)
        assert abs(block_positivity_sample(phi, samples=233016)) <= zero_level(phi.choi.data)
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match="^the form stack of 233017 samples has 2097153 entries, "
                                                     "more than the dense-size budget of 2097152$"):
                block_positivity_sample(phi, samples=233017)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_invalid_samples(self):
        for samples in (0, -3):
            with pytest.raises(ValueError, match="samples must be at least 1"):
                block_positivity_sample(identity_map(2), samples=samples)
