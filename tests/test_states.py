import itertools
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pptgeo.states as states
from oracles import eigh_oracle, seesaw_product_vector_search
from pptgeo.linalg import CUTOFF, ROUNDOFF, NumericalError, as_hermitian, range_mask
from pptgeo.extremality import appendix_basis_X, appendix_basis_Y, verify_appendix, verify_combination_identity
from pptgeo.maps import antipodal_sum_choi, phi_theta_coefficients, phi_theta_t
from pptgeo.states import (
    Arc,
    BipartiteMatrix,
    StateType,
    _complement_vectors,
    _monomials,
    _product_vectors,
    _pt,
    _span_vectors,
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
        # exactly, also at the odd multiples of pi/3, where two of the three
        # cosines tie for the largest and p_theta is smallest
        for th in [*np.linspace(-7, 7, 200), *(k * math.pi / 3 for k in range(-300, 301))]:
            assert 1.0 <= p_theta(th) <= 2.0

    def test_antipodal_sum_exceeds_two(self):
        for deg in range(360):
            th = math.radians(deg)
            assert p_theta(th) + p_theta(th + math.pi) > 2.0

    def test_matches_the_max_of_three_cosines(self):
        rng = np.random.default_rng(3)
        for th in np.concatenate([rng.uniform(-20, 20, 2000), np.arange(-48, 49) * math.pi / 12]):
            three = max(2.0 * math.cos(th + 2.0 * math.pi * k / 3.0) for k in (-1, 0, 1))
            assert abs(p_theta(th) - three) <= 1e-14


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
        # rho's whole kernel, 9 - p of the type table: five vectors at the odd
        # multiples of pi/3, where two Fourier vectors tie, and four elsewhere
        for b in B_GRID:
            for th in THETA_GRID:
                vecs = kernel_vectors_w(b, th)
                R = rho(b, th)
                k = round(th / (math.pi / 3))
                odd = abs(th - k * math.pi / 3) <= ROUNDOFF and k % 2 == 1
                assert len(vecs) == (5 if odd else 4), (b, th)
                for v in vecs:
                    assert (np.linalg.norm(R.data @ v)
                            <= 1e-9 * np.linalg.norm(R.data) * np.linalg.norm(v))

    def test_span_the_kernel_at_the_multiples_of_pi_over_3(self):
        # the vectors lie in the oracle's kernel, are orthogonal (the w_i and
        # the f_k have disjoint supports, and the f_k are Fourier vectors) and
        # are as many as its dimension, so they span it
        for b in B_GRID:
            for k in range(-6, 7):
                th = k * math.pi / 3
                V = np.column_stack(kernel_vectors_w(b, th))
                _, _, p, _, K = eigh_oracle(rho(b, th).data)
                assert V.shape[1] == 9 - p == (5 if k % 2 else 4), (b, k)
                assert np.linalg.norm(K @ V - V) <= 1e-9 * np.linalg.norm(V)
                U = V / np.linalg.norm(V, axis=0)
                assert_allclose(U.conj().T @ U, np.eye(V.shape[1]), atol=1e-15)

    def test_arc_dependent_vector(self):
        w0 = kernel_vectors_w(2, math.pi / 6)[3]
        assert_allclose(w0, [1, 0, 0, 0, 1, 0, 0, 0, 1])
        wm = kernel_vectors_w(2, -math.pi / 2)[3]
        assert wm[4] == pytest.approx(np.exp(2j * math.pi / 3))

    def test_boundary_holds_both_tied_vectors(self):
        # at pi/3 the angles of f_0 and f_2 lie at +-pi/3, within arc_of's ROUNDOFF
        w = np.exp(2j * math.pi / 3)
        for th in (math.pi / 3, math.pi / 3 + 0.5 * ROUNDOFF):
            vecs = kernel_vectors_w(1, th)
            assert len(vecs) == 5
            assert_allclose(vecs[3][[0, 4, 8]], [1, 1, 1])
            assert_allclose(vecs[4][[0, 4, 8]], [1, np.conj(w), w])
        assert len(kernel_vectors_w(1, math.pi / 3 + 2 * ROUNDOFF)) == 4
        assert len(kernel_vectors_w(1, 0.0)) == 4

    def test_one_tie_rule_with_arc_of(self):
        # near an odd multiple of pi/3 the neighbouring Fourier vector is taken
        # exactly where arc_of reads BOUNDARY; near an even one it never is.
        # The listed angles lie one ulp inside k pi/3 +- ROUNDOFF, where
        # |r| >= pi/3 - ROUNDOFF, a tie rule of its own, rounds the other way.
        thetas = [1.0471975511955975, 1.0471975511975977, -1.0471975511955975, -1.0471975511975977,
                  5.235987755981989, 5.235987755983989, -5.235987755981989, -5.235987755983989]
        for k in range(-15, 16):
            for edge in (k * math.pi / 3 + ROUNDOFF, k * math.pi / 3 - ROUNDOFF):
                for direction in (math.inf, -math.inf):
                    th = edge
                    for _ in range(6):
                        thetas.append(th)
                        th = math.nextafter(th, direction)
        rng = np.random.default_rng(38)
        k = rng.integers(-15, 16, 3000)
        thetas += list(k * math.pi / 3 + rng.normal(0.0, ROUNDOFF, 3000))
        for th in thetas:
            n = len(kernel_vectors_w(2, th))
            if round(th / (math.pi / 3)) % 2:
                assert (n == 5) == (arc_of(th) is Arc.BOUNDARY), th
            else:
                assert n == 4, th


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


class TestLargeAngles:
    """Every reader of theta reduces it by an exact 2 pi, as the phases
    np.exp(1j * theta) do; a reduction by the float 2 pi/3 or tau drifts
    from theirs as |theta| grows."""

    THETAS = [10.0**e + offset for e in range(2, 17) for offset in (0.1, 0.3, 1.0, 2.0, 4.0)]

    def test_families_read_ppt_with_a_type_of_the_table(self):
        table = {(StateType(5, 5), StateType(8, 6)), (StateType(4, 4), StateType(7, 6))}
        for th in self.THETAS:
            R, S = rho(1, th), sigma(1, th)
            assert is_ppt(R) and is_ppt(S), th
            assert (state_type(R), state_type(S)) in table, th

    @pytest.mark.parametrize("th", [1e10 + 0.1, 1e13 + 0.1, 3e15])
    def test_kernel_vectors_span_the_kernel(self, th):
        V = np.column_stack(kernel_vectors_w(1, th))
        _, _, p, _, K = eigh_oracle(rho(1, th).data)
        assert V.shape[1] == 9 - p == 4
        assert np.linalg.norm(K @ V - V) <= 1e-9 * np.linalg.norm(V)

    def test_arc_reads_the_exactly_reduced_angle(self):
        rng = np.random.default_rng(13)
        thetas = [1e15 + 1, *(rng.choice([-1.0, 1.0], 3000) * 10.0 ** rng.uniform(3, 17, 3000))]
        for th in thetas:
            assert arc_of(th) is arc_of(math.atan2(math.sin(th), math.cos(th))), th


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1])
    def test_non_finite_weight_rejected(self, bad, position):
        # NaN passes both the sign and the sum test, so it is named up front
        weights = [0.5, 0.5]
        weights[position] = bad
        with pytest.raises(ValueError, match="weights must be finite"):
            combine([rho(1, 0), rho(1, 1)], weights)


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


def derived_states():
    """Every matrix the package wraps without a hermiticity check: rho and
    sigma on and off the grid, from b = 1e-8 to 1e8, with theta = +-0 and
    +-pi among the angles, and some of them rescaled by 2**+-300; the Choi
    matrices of phi_theta_t from t = 1e-8 to 1e200 (where t * t
    overflows); and the partial transpose and normalization of each."""
    thetas = THETA_GRID + [-0.0, math.pi, -math.pi, 0.1234, -2.9, 1e-9, 5 * math.pi / 3 + 1e-11]
    bases = [family(b, theta) for family in (rho, sigma)
             for b in B_GRID + [1e-8, 3.7e-5, 7.3, 1e8] for theta in thetas]
    bases += [BipartiteMatrix(3, 3, np.ldexp(X.data.view(float), s).view(complex))
              for X in bases[::7] for s in (300, -300)]
    bases += [phi_theta_t(theta, t).choi for theta in thetas[::3] + [math.pi / 3]
              for t in (1e-8, 0.3, 1.0, 2.5, 1e8, 1e200)]
    bases += [partial_transpose(X) for X in bases]
    return bases + [normalize(X) for X in bases]


class TestExactDerivations:
    def test_derived_data_is_its_own_symmetrization(self):
        # the constructor would store as_hermitian(data); the derivation
        # sites store data itself, so the two must agree bit for bit
        for Y in derived_states():
            assert not Y.data.flags.writeable
            assert as_hermitian(Y.data).tobytes() == Y.data.tobytes()

    # a subnormal b passes the parameter domain, but its 1/b overflows:
    # the family's range, decided before the pattern is built
    # (TestParameterDomain holds the rest)
    @pytest.mark.parametrize("family,b", [(rho, 1e-320), (rho, 5e-324), (sigma, 1e-320), (sigma, 5e-324)],
                             ids=["rho 1/b overflows", "rho 5e-324", "sigma 1e-320", "sigma 5e-324"])
    def test_non_finite_pattern_rejected(self, family, b):
        with pytest.raises(NumericalError, match=f"^state family out of floating-point range at b={b!r}$"):
            family(b, 1.0)

    def test_overflowing_normalization_rejected(self):
        # a non-PSD X can have a trace far below its largest entry; the
        # range is decided before dividing, so no warning is raised.  At
        # 8e-309 the largest entry over the trace is still finite, but 1/tr,
        # which NumPy multiplies the complex data by, is not
        for tr in (1e-310, 8e-309):
            X = BipartiteMatrix(1, 3, np.diag([1.0, -1.0, tr]))
            with pytest.raises(NumericalError, match="^normalized state out of floating-point range$"):
                normalize(X)


class TestParameterDomain:
    """Every public entry point that takes b, t or s names it, in one
    message, for each value outside 0 < x < inf."""

    ENTRIES = {
        ("rho", "b"): lambda x: rho(x, 1.0),
        ("sigma", "b"): lambda x: sigma(x, 1.0),
        ("kernel", "b"): lambda x: kernel_vectors_w(x, 1.0),
        ("appendix X", "b"): lambda x: appendix_basis_X(x, 0.3),
        ("appendix Y", "b"): lambda x: appendix_basis_Y(x, 0.3),
        ("combination", "b"): lambda x: verify_combination_identity(x, 0.3),
        ("verify_appendix", "b"): lambda x: verify_appendix(x, 0.3),
        ("coefficients", "t"): lambda x: phi_theta_coefficients(0.3, x),
        ("phi", "t"): lambda x: phi_theta_t(1.0, x),
        ("antipodal", "t"): lambda x: antipodal_sum_choi(0.3, x, 1.0),
        ("antipodal", "s"): lambda x: antipodal_sum_choi(0.3, 1.0, x),
    }
    BAD = {"0": 0.0, "-1": -1.0, "nan": math.nan, "inf": math.inf}

    @pytest.mark.parametrize("entry,value", list(itertools.product(ENTRIES, BAD)),
                             ids=[f"{name} {param} {value}"
                                  for (name, param), value in itertools.product(ENTRIES, BAD)])
    def test_rejected(self, entry, value):
        with pytest.raises(ValueError, match=f"^{entry[1]} must be positive and finite$"):
            self.ENTRIES[entry](self.BAD[value])


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
        # the rule reads unit-scaled entries: a rescaled diagonal keeps its
        # verdict, and entries whose moduli overflow are not read as inf <= inf
        for c in (2.0**-300, 2.0**300):
            assert is_interior_of_S_sufficient(BipartiteMatrix(3, 3, c * X.data))
            assert not is_interior_of_S_sufficient(BipartiteMatrix(3, 3, c * rho(2, math.pi / 6).data))
        big = 1.5e308
        Y = BipartiteMatrix(1, 2, [[big, big * (1 + 1j)], [big * (1 - 1j), big]])
        assert not is_ppt(Y) and not is_interior_of_S_sufficient(Y)

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
        (lambda: kernel_vectors_w(math.nan, 0.3), "b must be positive and finite"),
        (lambda: kernel_vectors_w(math.inf, 0.3), "b must be positive and finite"),
        (lambda: kernel_vectors_w(1.0, math.inf), "theta must be finite"),
        (lambda: combine([], []), "need at least one state"),
        (lambda: combine([rho(1, 0)], [0.5, 0.5]), "one weight per state required"),
        (lambda: combine([rho(1, 0), product_state([1, 0], [1, 0])], [0.5, 0.5]),
         "all states must share local dimensions"),
        (lambda: verify_product_decomposition(rho(1, math.pi), [([1, 0, 0], [1, 0, 0], 0.0)]),
         "weights must be positive"),
        (lambda: verify_product_decomposition(rho(1, math.pi), [([0, 0, 0], [1, 0, 0], 1.0)]),
         "product vectors must be nonzero"),
        (lambda: search_product_vector_in_subspace(np.eye(3), 2, 2), "D must have m"),
        (lambda: search_product_vector_in_subspace(2 * np.eye(4), 2, 2), "orthonormal columns"),
        (lambda: search_product_vector_in_subspace(np.full((4, 1), math.nan), 2, 2), "orthonormal columns"),
        (lambda: BipartiteMatrix(1, 2, np.diag([math.inf, 1.0])), "matrix entries must be finite"),
    ], ids=["p_theta inf", "p_theta nan", "arc_of -inf", "arc_of nan", "kernel b zero", "kernel b nan",
            "kernel b inf", "kernel theta inf",
            "combine empty", "combine weight count", "combine mixed dims",
            "decomposition weight zero", "decomposition zero vector", "search D rows",
            "search D not orthonormal", "search D not finite", "infinite entry"])
    def test_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


def _unitary(rng, n):
    Q, R = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _cgauss(rng, *shape):
    return rng.normal(size=shape + (2,)).view(complex)[..., 0]


def _in_span(D, xi, eta):
    """Distance of the unit product vector xi (x) eta from the span of D."""
    v = np.kron(xi, eta)
    v = v / np.linalg.norm(v)
    return np.linalg.norm(v - D @ (D.conj().T @ v))


def _grid_subspaces():
    """(name, basis) for the kernel and range of rho and sigma at every b of
    the grid and every theta off the boundary angles, each moved by a seeded
    random local unitary."""
    rng = np.random.default_rng(16)
    for b, k, family in itertools.product(B_GRID, range(24), (rho, sigma)):
        if k % 4:
            w, V = family(b, THETA_GRID[k]).spectrum
            for part, mask in (("range", range_mask(w)), ("kernel", ~range_mask(w))):
                yield (f"{family.__name__}({b}, {k}pi/12) {part}",
                       np.kron(_unitary(rng, 3), _unitary(rng, 3)) @ V[:, mask])


PLANTED = [(3, 3, 2), (3, 3, 3), (3, 3, 4), (2, 3, 2)]
# spans on which every 2x2 minor vanishes, or a family of product vectors
FAMILY_SPANS = [("x (x) span{y1, y2}", 2, 2), ("full 2x2", 2, 2),
                ("x (x) C^3", 3, 3), ("one product vector", 3, 3)]


def _family_span(name, m, n):
    rng = np.random.default_rng(4)
    x = _cgauss(rng, m)
    x /= np.linalg.norm(x)
    if name == "x (x) span{y1, y2}":
        return np.linalg.qr(np.array([np.kron(x, _cgauss(rng, n)) for _ in range(2)]).T)[0]
    if name == "full 2x2":
        return np.eye(4)
    if name == "x (x) C^3":
        return np.kron(x[:, None], _unitary(rng, 3))
    return np.kron(x, _unitary(rng, 3)[0])[:, None]


def _planted_spans(m, n, k):
    """Ten spans of k random product vectors each."""
    rng = np.random.default_rng(k)
    for _ in range(10):
        planted = np.array([np.kron(_cgauss(rng, m), _cgauss(rng, n)) for _ in range(k)])
        planted /= np.linalg.norm(planted, axis=1)[:, None]
        yield planted, np.linalg.qr(planted.T)[0]


class TestProductVectorSearch:
    def test_full_space(self):
        found = search_product_vector_in_subspace(np.eye(4), 2, 2, restarts=5)
        assert found is not None
        assert _in_span(np.eye(4), *found) <= 1e-12

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_nonpositive_restarts(self, restarts):
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            search_product_vector_in_subspace(np.eye(4), 2, 2, restarts=restarts)

    def test_empty_span_holds_none(self):
        assert search_product_vector_in_subspace(np.zeros((9, 0)), 3, 3) is None

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

    def test_range_of_separable_rho_holds_its_four_vectors(self):
        w, V = rho(1, math.pi).spectrum
        found = _product_vectors(V[:, range_mask(w)], 3, 3, np.random.default_rng(0))
        got = np.array([np.kron(xi, eta) for xi, eta in found])
        want = np.array([np.kron(xi, eta) / 3 for xi, eta, _ in product_decomposition_rho_1_pi()])
        assert len(found) == 4
        assert_allclose(np.abs(got @ want.conj().T).max(0), 1, atol=1e-12)

    @pytest.mark.parametrize("m,n,k", PLANTED)
    def test_planted_vectors_all_returned(self, m, n, k):
        for planted, D in _planted_spans(m, n, k):
            found = _product_vectors(D, m, n, np.random.default_rng(1))
            got = np.array([np.kron(xi, eta) for xi, eta in found])
            assert len(found) == k
            # each planted vector matches one found vector up to phase and scale
            overlap = np.abs(planted.conj() @ got.T)
            assert_allclose(overlap.max(1), 1, atol=1e-12)
            assert_allclose(overlap.max(0), 1, atol=1e-12)

    @pytest.mark.parametrize("name,m,n", FAMILY_SPANS)
    def test_family_returns_a_vector(self, name, m, n):
        D = _family_span(name, m, n)
        found = search_product_vector_in_subspace(D, m, n)
        assert found is not None
        assert _in_span(D, *found) <= 1e-12

    @pytest.mark.parametrize("m,n", [(1, 3), (3, 1)])
    def test_a_factor_of_dimension_one(self, m, n):
        # every vector is a product vector, and there is no 2x2 minor
        D = np.eye(3)[:, :2]
        found = search_product_vector_in_subspace(D, m, n)
        assert found is not None
        assert _in_span(D, *found) <= 1e-12

    def test_generic_subspaces_follow_the_dimension_count(self):
        # a generic span of dimension below (m-1)(n-1)+1 = 5 holds no product
        # vector, one of dimension 5 holds the Segre degree C(4, 2) = 6
        rng = np.random.default_rng(5)
        for d in (1, 2, 3, 4, 5):
            D = np.linalg.qr(_cgauss(rng, 9, d))[0]
            assert len(_product_vectors(D, 3, 3, rng)) == (6 if d == 5 else 0)

    def test_local_unitaries_and_column_phases_change_no_verdict(self):
        rng = np.random.default_rng(6)
        for name, D in itertools.islice(_grid_subspaces(), 0, None, 9):
            verdict = search_product_vector_in_subspace(D, 3, 3) is not None
            moved = np.kron(_unitary(rng, 3), _unitary(rng, 3)) @ D
            phased = D * np.exp(2j * math.pi * rng.random(D.shape[1]))
            for E in (moved, phased):
                assert (search_product_vector_in_subspace(E, 3, 3) is not None) == verdict, name

    def test_same_seed_is_bitwise_equal(self):
        D = next(D for name, D in _grid_subspaces() if name.endswith("range"))
        a, b = (search_product_vector_in_subspace(D, 3, 3, seed=9) for _ in range(2))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

    def test_too_large_a_system_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="Macaulay matrix has [0-9]+ entries, more than the dense-size budget"):
            search_product_vector_in_subspace(np.eye(36), 6, 6)

    def test_enumerated_vector_off_the_span_is_a_numerical_error(self, monkeypatch):
        # e0 (x) e0 is orthogonal to the antisymmetric span
        monkeypatch.setattr(states, "_product_vectors",
                            lambda D, m, n, rng: [(np.array([1, 0j]), np.array([1, 0j]))])
        D = np.array([[0], [1], [-1], [0]], dtype=complex) / math.sqrt(2)
        with pytest.raises(NumericalError, match="not in the subspace"):
            search_product_vector_in_subspace(D, 2, 2)

    @pytest.mark.parametrize("nulls", [[4], [3, 3], [5, 2]], ids=["one degree", "flat", "shrinking"])
    def test_span_side_null_space_that_stops_growing_is_a_numerical_error(self, nulls, monkeypatch):
        # only a null space still growing at the last degree is a family to slice
        monkeypatch.setattr(states, "_points", lambda *a: (None, nulls))
        with pytest.raises(NumericalError, match="did not settle"):
            _span_vectors(np.eye(4)[:, :2], 2, 2, np.random.default_rng(0))

    def test_cached_monomial_table_read_only(self):
        # the table is shared by every later call with the same (d, deg)
        table = _monomials(4, 3)
        with pytest.raises(TypeError):
            table[(3, 0, 0, 0)] = 1
        assert table[(3, 0, 0, 0)] == 0 and _monomials(4, 3) is table


def _slice_and_complement(D, m, n, rng):
    """(B, K): the slice of the span of D in random coordinates and its
    orthogonal complement, from one complete QR, as _product_vectors takes
    them."""
    d = D.shape[1]
    Q = np.linalg.qr(D @ _cgauss(rng, d, d), mode="complete")[0]
    k = min(d, (m - 1) * (n - 1) + 1)
    return Q[:, :k], Q[:, k:]


class TestSearchSides:
    """The two sides of the product-vector search, called directly on one
    slice: its own 2x2 minors, and the n x n minors over its complement."""

    @staticmethod
    def spans():
        yield from ((name, D, 3, 3) for name, D in _grid_subspaces())
        for m, n, k in PLANTED:
            yield from ((f"{k} planted in {m}x{n}", D, m, n) for _, D in _planted_spans(m, n, k))
        rng = np.random.default_rng(5)
        for d in (1, 2, 3, 4, 5):
            yield f"generic, dimension {d}", np.linalg.qr(_cgauss(rng, 9, d))[0], 3, 3

    def test_sides_agree(self, monkeypatch):
        # same verdict, count and points up to phase; a complement proof has
        # a Macaulay margin sigma_min / sigma_max (its first SVD) of at least 1e-2
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(svd(*a, **k)) or calls[-1])
        rng = np.random.default_rng(21)
        for name, D, m, n in self.spans():
            B, K = _slice_and_complement(D, m, n, rng)
            calls.clear()
            complement = _complement_vectors(K, m, n, rng)
            s = calls[0][1]
            span = _span_vectors(B, m, n, rng)
            assert complement is not None, name
            assert len(complement) == len(span), name
            if not span:
                assert s[-1] / s[0] >= 1e-2, name
                continue
            a, b = (np.array([np.kron(xi, eta) for xi, eta in found]) for found in (complement, span))
            overlap = np.abs(a.conj() @ b.T)
            assert_allclose(overlap.max(0), 1, atol=1e-9, err_msg=name)
            assert_allclose(overlap.max(1), 1, atol=1e-9, err_msg=name)

    def test_span_side_returns_no_point_off_the_span(self):
        # a generic 9-dimensional span of C^4 (x) C^4 holds no product vector;
        # its degree-3 Macaulay matrix has a one-dimensional null space, which
        # passes the rank test with a point 0.02-0.4 from the span, and degree
        # 4 has full column rank
        rng = np.random.default_rng(3)
        for _ in range(2):
            B, K = _slice_and_complement(np.linalg.qr(_cgauss(rng, 16, 9))[0], 4, 4, rng)
            assert _span_vectors(B, 4, 4, rng) == []
            assert _complement_vectors(K, 4, 4, rng) == []

    @pytest.mark.parametrize("name,m,n", FAMILY_SPANS)
    def test_family_spans_are_decided_on_the_span_side(self, name, m, n, monkeypatch):
        # the 3x3 spans are posed on the span side, being small; x (x)
        # span{y1, y2} is handed back, its point x leaving A(x) a 2-dimensional
        # kernel.  The full 2x2 is sliced to a generic 2-dimensional span with
        # two product vectors first, which the complement side decides.
        results = []
        complement = states._complement_vectors
        monkeypatch.setattr(states, "_complement_vectors",
                            lambda *a: results.append(complement(*a)) or results[-1])
        assert search_product_vector_in_subspace(_family_span(name, m, n), m, n) is not None
        want = {"x (x) span{y1, y2}": [None], "full 2x2": [2]}.get(name, [])
        assert [r if r is None else len(r) for r in results] == want


def test_search_agrees_with_the_seesaw_oracle_on_the_grid():
    """Found / not found as the seesaw finds it, and every vector found in its
    subspace, for the kernels and ranges of rho and sigma off the boundary
    angles."""
    for name, D in _grid_subspaces():
        found = search_product_vector_in_subspace(D, 3, 3)
        assert (found is None) == (seesaw_product_vector_search(D, 3, 3, restarts=6) is None), name
        if found is not None:
            assert _in_span(D, *found) <= 1e-12, name
