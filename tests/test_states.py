import itertools
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import eigh_oracle
from pptgeo.linalg import CUTOFF, ROUNDOFF, range_mask
from pptgeo.states import (
    Arc,
    BipartiteMatrix,
    StateType,
    _pt,
    arc_of,
    combine,
    conjugate_by_phase_unitary,
    is_interior_of_S_sufficient,
    is_interior_of_T,
    is_ppt,
    kernel_vectors_w,
    normalize,
    p_theta,
    partial_transpose,
    product_decomposition_rho_1_pi,
    product_state,
    rho,
    search_product_vector_in_subspace,
    sigma,
    state_type,
    verify_product_decomposition,
)

B_GRID = [0.25, 0.5, 1.0, 2.0, 4.0]
THETA_GRID = [k * math.pi / 12 for k in range(24)]


def random_bipartite(m, n, rng):
    d = m * n
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return BipartiteMatrix(m, n, (A + A.conj().T) / 2)


class TestPTheta:
    def test_values(self):
        assert p_theta(0.0) == pytest.approx(2.0)
        assert p_theta(math.pi) == pytest.approx(1.0)
        assert p_theta(math.pi / 6) == pytest.approx(math.sqrt(3.0))

    def test_range(self):
        for th in np.linspace(-7, 7, 200):
            assert 1.0 - 1e-12 <= p_theta(th) <= 2.0 + 1e-12

    def test_antipodal_sum_exceeds_two(self):
        for deg in range(360):
            th = math.radians(deg)
            assert p_theta(th) + p_theta(th + math.pi) > 2.0


class TestFamilies:
    def test_rho_1_pi_entries(self):
        R = rho(1, math.pi).data
        assert_allclose(np.diag(R).real, np.ones(9), atol=1e-15)
        for i, j in ((1, 5), (5, 9), (9, 1), (3, 7), (4, 2), (8, 6)):
            assert R[i - 1, j - 1] == pytest.approx(1.0, abs=1e-12)

    def test_rho_2_pi_diagonal(self):
        R = rho(2, math.pi).data
        assert_allclose(np.diag(R).real, [1, 0.5, 2, 2, 1, 0.5, 0.5, 2, 1], atol=1e-12)

    def test_periodicity(self):
        assert_allclose(rho(1.7, 0.3).data, rho(1.7, 0.3 + 2 * math.pi).data, atol=1e-12)

    def test_sigma_diag_at_theta_zero(self):
        assert_allclose(np.diag(sigma(1, 0.0).data).real, [2, 1, 1, 1, 2, 1, 1, 1, 2])

    def test_sigma_identity(self):
        for b, th in [(2.0, math.pi / 6), (0.5, -1.1), (3.0, 2.9)]:
            s = sigma(b, th)
            lhs = s.data + partial_transpose(s).data - np.diag(np.diag(s.data))
            assert np.max(np.abs(lhs - rho(b, th).data)) <= 1e-14

    def test_invalid_b(self):
        with pytest.raises(ValueError):
            rho(0.0, 1.0)
        with pytest.raises(ValueError):
            sigma(-2.0, 1.0)


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            X = random_bipartite(3, 3, rng)
            assert_allclose(partial_transpose(partial_transpose(X)).data, X.data, atol=1e-14)

    def test_rho_is_fixed(self):
        X = rho(2, 0.8)
        assert np.max(np.abs(partial_transpose(X).data - X.data)) == 0.0

    def test_product_diagonal_fixed(self):
        E = np.zeros((9, 9))
        E[0, 0] = 1.0
        X = BipartiteMatrix(3, 3, E)
        assert_allclose(partial_transpose(X).data, E)

    @pytest.mark.parametrize("m,n", [(3, 3), (2, 4), (1, 3), (4, 1)])
    def test_matches_entrywise_loop(self, m, n):
        # block (i, k) of the m x m grid of n x n blocks moves to (k, i)
        rng = np.random.default_rng(m * 10 + n)
        stack = [random_bipartite(m, n, rng).data for _ in range(3)]
        want = np.empty((3, m * n, m * n), dtype=complex)
        for s, X in enumerate(stack):
            for i, a, k, b in itertools.product(range(m), range(n), range(m), range(n)):
                want[s, i * n + a, k * n + b] = X[k * n + a, i * n + b]
        for X, W in zip(stack, want):
            assert np.array_equal(partial_transpose(BipartiteMatrix(m, n, X)).data, W)
        assert np.array_equal(_pt(np.array(stack), m, n), want)

    def test_trace_and_norm_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X = random_bipartite(2, 4, rng)
            Y = partial_transpose(X)
            assert np.trace(Y.data) == pytest.approx(np.trace(X.data).real)
            assert np.linalg.norm(Y.data) == pytest.approx(np.linalg.norm(X.data))


class TestTypesAndPpt:
    def test_type_examples(self):
        assert state_type(rho(2, math.pi / 6)) == StateType(5, 5)
        assert state_type(rho(2, math.pi)) == StateType(4, 4)
        assert state_type(normalize(identity_state())) == StateType(9, 9)

    def test_type_requires_psd(self):
        X = BipartiteMatrix(2, 2, np.diag([1.0, -1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            state_type(X)

    def test_type_table_on_grid(self):
        for b in B_GRID:
            for th in THETA_GRID:
                if arc_of(th) is Arc.BOUNDARY:
                    odd = round(th / (math.pi / 3)) % 2 == 1
                    expect_rho = StateType(4, 4) if odd else StateType(5, 5)
                    expect_sigma = StateType(7, 6) if odd else StateType(8, 6)
                else:
                    expect_rho = StateType(5, 5)
                    expect_sigma = StateType(8, 6)
                assert state_type(rho(b, th)) == expect_rho, (b, th)
                assert state_type(sigma(b, th)) == expect_sigma, (b, th)

    def test_ppt_grid(self):
        for b in B_GRID:
            for th in THETA_GRID:
                assert is_ppt(rho(b, th))
                assert is_ppt(sigma(b, th))

    def test_maximally_entangled_not_ppt(self):
        v = sum(np.kron(np.eye(3)[i], np.eye(3)[i]) for i in range(3))
        X = BipartiteMatrix(3, 3, np.outer(v, v) / 3.0)
        assert not is_ppt(X)
        assert eigh_oracle(partial_transpose(X).data)[0] == pytest.approx(-1 / 3, abs=1e-12)

    def test_identity_is_ppt(self):
        assert is_ppt(identity_state())


def identity_state():
    return BipartiteMatrix(3, 3, np.eye(9))


class TestKernelVectors:
    def test_counts_and_residuals(self):
        for b in B_GRID:
            for th in THETA_GRID:
                vecs = kernel_vectors_w(b, th)
                R = rho(b, th)
                expected = 3 if arc_of(th) is Arc.BOUNDARY else 4
                assert len(vecs) == expected
                for v in vecs:
                    assert (np.linalg.norm(R.data @ v)
                            <= 1e-9 * np.linalg.norm(R.data) * np.linalg.norm(v))

    def test_arc_dependent_vector(self):
        w0 = kernel_vectors_w(2, math.pi / 6)[3]
        assert_allclose(w0, [1, 0, 0, 0, 1, 0, 0, 0, 1])
        wm = kernel_vectors_w(2, -math.pi / 2)[3]
        assert wm[4] == pytest.approx(np.exp(2j * math.pi / 3))

    def test_boundary_has_no_extra(self):
        assert len(kernel_vectors_w(1, math.pi / 3)) == 3


class TestArcs:
    @pytest.mark.parametrize("theta,expected", [
        (math.pi / 6, Arc.ZERO),
        (math.pi, Arc.BOUNDARY),
        (2 * math.pi / 3, Arc.BOUNDARY),
        (0.5 * math.pi, Arc.PLUS),
        (-0.5 * math.pi, Arc.MINUS),
        (0.0, Arc.BOUNDARY),
        (math.pi / 12, Arc.ZERO),
        (2.5, Arc.PLUS),
        (math.pi / 6 + 2 * math.pi, Arc.ZERO),
        # theta reduced to -pi is an odd multiple of pi, a boundary angle
        (-math.pi, Arc.BOUNDARY),
        (3 * math.pi, Arc.BOUNDARY),
        (-math.pi + 0.1, Arc.MINUS),
        (math.pi - 0.1, Arc.PLUS),
    ])
    def test_examples(self, theta, expected):
        assert arc_of(theta) is expected

    def test_boundary_width_is_roundoff(self):
        assert arc_of(math.pi / 3 + 0.5 * ROUNDOFF) is Arc.BOUNDARY
        assert arc_of(math.pi / 3 + 2 * ROUNDOFF) is Arc.PLUS


class TestCombine:
    def test_single(self):
        X = rho(2, 1.0)
        assert_allclose(combine([X], [1.0]).data, X.data)

    def test_antipodal_is_diagonal(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            b, c = rng.uniform(0.3, 3.0, size=2)
            th = rng.uniform(-math.pi, math.pi)
            Y = combine([rho(b, th), rho(c, th + math.pi)], [0.5, 0.5]).data
            off = Y - np.diag(np.diag(Y))
            assert np.max(np.abs(off)) <= 1e-15
            assert np.all(np.diag(Y).real > 0)

    def test_scalar_identity_sum(self):
        th = 0.7
        target = p_theta(th) + p_theta(th + math.pi)
        b = (target + math.sqrt(target * target - 4)) / 2  # b + 1/b = target
        total = rho(b, th).data + rho(1 / b, th + math.pi).data
        assert np.max(np.abs(total - target * np.eye(9))) <= 1e-12

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            combine([rho(1, 0), rho(1, 1)], [0.6, 0.6])
        with pytest.raises(ValueError):
            combine([rho(1, 0)], [-1.0])


class TestNormalize:
    def test_subnormal_state(self):
        X = rho(2, math.pi / 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Y = normalize(BipartiteMatrix(3, 3, X.data * 1e-310))
        assert np.max(np.abs(Y.data - normalize(X).data)) <= 1e-12

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="trace must be positive"):
            normalize(BipartiteMatrix(3, 3, np.zeros((9, 9))))


class TestCovariance:
    def test_shifts_theta(self):
        for b, th in [(2.0, math.pi / 6), (0.5, 2.5), (1.0, -1.2)]:
            got = conjugate_by_phase_unitary(rho(b, th)).data
            assert np.max(np.abs(got - rho(b, th - 2 * math.pi / 3).data)) <= 1e-12
            got_s = conjugate_by_phase_unitary(sigma(b, th)).data
            assert np.max(np.abs(got_s - sigma(b, th - 2 * math.pi / 3).data)) <= 1e-12

    def test_three_applications_identity(self):
        X = rho(1.5, 0.4)
        Y = X
        for _ in range(3):
            Y = conjugate_by_phase_unitary(Y)
        assert_allclose(Y.data, X.data, atol=1e-12)

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            conjugate_by_phase_unitary(BipartiteMatrix(2, 2, np.eye(4)))


class TestInterior:
    def test_different_arcs_interior(self):
        X = combine([rho(2, math.pi / 6), rho(1, 5 * math.pi / 6)], [0.5, 0.5])
        assert is_interior_of_T(X)

    def test_same_arc_boundary(self):
        X = combine([rho(2, math.pi / 6), rho(1, math.pi / 12)], [0.5, 0.5])
        assert not is_interior_of_T(X)

    def test_identity_interior(self):
        assert is_interior_of_T(identity_state())

    def test_requires_ppt(self):
        v = sum(np.kron(np.eye(3)[i], np.eye(3)[i]) for i in range(3))
        X = BipartiteMatrix(3, 3, np.outer(v, v) / 3.0)
        with pytest.raises(ValueError):
            is_interior_of_T(X)

    def test_diagonal_sufficient_for_S(self):
        X = combine([rho(1.4, 0.9), rho(0.6, 0.9 + math.pi)], [0.5, 0.5])
        assert is_interior_of_S_sufficient(X)
        assert is_interior_of_S_sufficient(identity_state())
        assert not is_interior_of_S_sufficient(rho(2, math.pi / 6))

    @pytest.mark.parametrize("k", [-12, 0, 12])
    def test_diagonal_floor_is_cutoff(self, k):
        for floor, interior in ((1.01 * CUTOFF, True), (0.99 * CUTOFF, False)):
            X = BipartiteMatrix(3, 3, 10.0**k * np.diag([1.0] * 8 + [floor]))
            assert is_interior_of_S_sufficient(X) is interior

    def test_few_product_states_never_interior(self):
        rng = np.random.default_rng(21)
        k = 7
        parts = []
        for _ in range(k):
            xi = rng.normal(size=3) + 1j * rng.normal(size=3)
            eta = rng.normal(size=3) + 1j * rng.normal(size=3)
            parts.append(product_state(xi, eta))
        X = combine(parts, np.full(k, 1 / k))
        assert state_type(X).p <= k
        assert not is_interior_of_T(X)


class TestProductStates:
    def test_basis_product(self):
        X = product_state([1, 0, 0], [1, 0, 0])
        E = np.zeros((9, 9))
        E[0, 0] = 1.0
        assert_allclose(X.data, E)

    def test_always_ppt(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            xi = rng.normal(size=3) + 1j * rng.normal(size=3)
            eta = rng.normal(size=3) + 1j * rng.normal(size=3)
            assert is_ppt(product_state(xi, eta))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            product_state([0, 0, 0], [1, 0, 0])

    def test_four_vector_decomposition(self):
        parts = product_decomposition_rho_1_pi()
        assert verify_product_decomposition(rho(1, math.pi), parts)
        assert not verify_product_decomposition(rho(2, math.pi), parts)

    def test_single_state_own_decomposition(self):
        xi = np.array([1.0, 2.0, 0.5])
        eta = np.array([0.3, 1.0, -1.0])
        v = np.kron(xi, eta)
        X = BipartiteMatrix(3, 3, np.outer(v, v))
        assert verify_product_decomposition(X, [(xi, eta, 1.0)])


class TestInputErrors:
    @pytest.mark.parametrize("call,message", [
        (lambda: p_theta(math.inf), "theta must be finite"),
        (lambda: p_theta(math.nan), "theta must be finite"),
        (lambda: arc_of(-math.inf), "theta must be finite"),
        (lambda: arc_of(math.nan), "theta must be finite"),
        (lambda: kernel_vectors_w(0.0, 0.3), "b must be positive"),
        (lambda: combine([], []), "need at least one state"),
        (lambda: combine([rho(1, 0)], [0.5, 0.5]), "one weight per state required"),
        (lambda: combine([rho(1, 0), product_state([1, 0], [1, 0])], [0.5, 0.5]),
         "all states must share local dimensions"),
        (lambda: verify_product_decomposition(rho(1, math.pi), [([1, 0, 0], [1, 0, 0], 0.0)]),
         "weights must be positive"),
        (lambda: search_product_vector_in_subspace(np.eye(3), 2, 2), "D must have m"),
        (lambda: BipartiteMatrix(1, 2, np.diag([math.inf, 1.0])), "matrix entries must be finite"),
    ], ids=["p_theta inf", "p_theta nan", "arc_of -inf", "arc_of nan", "kernel b zero",
            "combine empty", "combine weight count", "combine mixed dims",
            "decomposition weight zero", "search D rows", "infinite entry"])
    def test_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestProductVectorSearch:
    def test_full_space(self):
        found = search_product_vector_in_subspace(np.eye(4), 2, 2, restarts=5)
        assert found is not None

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_nonpositive_restarts(self, restarts):
        with pytest.raises(ValueError):
            search_product_vector_in_subspace(np.eye(4), 2, 2, restarts=restarts)

    def test_antisymmetric_subspace_empty(self):
        v = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        found = search_product_vector_in_subspace(v[:, None], 2, 2, restarts=100)
        assert found is None

    def test_range_of_separable_rho(self):
        w, V = rho(1, math.pi).spectrum
        D = V[:, range_mask(w)]
        found = search_product_vector_in_subspace(D, 3, 3, restarts=100)
        assert found is not None
        xi, eta = found
        P = D @ D.conj().T
        z = np.kron(xi, eta)
        assert np.linalg.norm(z - P @ z) <= 1e-7
