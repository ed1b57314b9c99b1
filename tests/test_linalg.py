import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pptgeo.linalg import (
    CUTOFF,
    as_hermitian,
    hermitian_basis,
    hermitian_to_real_vector,
    numerical_rank,
    range_mask,
    spectrum_is_psd,
    spectrum_rank,
    unit_scaled,
)
from pptgeo.states import BipartiteMatrix, p_theta, rho


def random_hermitian(dim, rng):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (A + A.conj().T) / 2


def spectrum(H):
    """The package's one route from a matrix to a spectrum: the cached
    (w, V) of a 1 x d BipartiteMatrix, validated by as_hermitian."""
    H = np.asarray(H)
    return BipartiteMatrix(1, H.shape[0], H).spectrum


def rank(H):
    return spectrum_rank(spectrum(H)[0])


def kernel(H):
    w, V = spectrum(H)
    return V[:, ~range_mask(w)]


def is_psd(H):
    return spectrum_is_psd(spectrum(H)[0])


def charpoly_roots(H):
    """Eigenvalues via the Faddeev-LeVerrier trace recursion and np.roots;
    independent of the eigh path under test."""
    H = np.asarray(H)
    d = H.shape[0]
    coeffs = [1.0]
    M = np.zeros_like(H)
    for k in range(1, d + 1):
        M = H @ M + coeffs[-1] * np.eye(d)
        coeffs.append(-np.trace(H @ M).real / k)
    return np.roots(coeffs)


class TestEig:
    def test_identity(self):
        w, V = spectrum(np.eye(3))
        assert_allclose(w, [1, 1, 1])
        assert_allclose(V.conj().T @ V, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        w, _ = spectrum(np.diag([2.0, 0.0, -1.0]))
        assert_allclose(w, [2, 0, -1], atol=1e-14)

    def test_residuals_random(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            H = random_hermitian(6, rng)
            w, V = spectrum(H)
            scale = np.max(np.abs(w))
            for i in range(6):
                assert np.linalg.norm(H @ V[:, i] - w[i] * V[:, i]) <= 1e-9 * scale
            assert np.max(np.abs(V.conj().T @ V - np.eye(6))) <= 1e-8

    def test_rho_spectrum_against_charpoly_oracle(self):
        H = rho(2, math.pi / 6).data
        H = H / np.trace(H).real
        w, _ = spectrum(H)
        oracle = np.sort(charpoly_roots(H).real)[::-1]
        # np.roots degrades to ~eps**(1/k) accuracy at a k-fold root, so the
        # comparison tolerance must be loose at the repeated eigenvalues
        assert_allclose(w, oracle, atol=1e-4)
        assert np.count_nonzero(np.abs(w) > 1e-9) == 5
        assert np.count_nonzero(np.abs(w) <= 1e-9) == 4

    def test_not_hermitian_rejected(self):
        with pytest.raises(ValueError):
            spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestAsHermitian:
    @pytest.mark.parametrize("k", [-13, 0, 13])
    def test_slack_is_relative(self, k):
        # the non-hermitian part is as large as the matrix at every scale
        with pytest.raises(ValueError, match="not hermitian"):
            as_hermitian(10.0**k * np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_entries_near_the_float_limit_stay_finite(self):
        A = np.array([[1e308, 5e307], [5e307, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H = as_hermitian(A)
        assert np.array_equal(H, A.astype(complex))


class TestUnitScaled:
    @pytest.mark.parametrize("k", [-320, -300, -100, -7, 0, 7, 100, 300, 308])
    def test_exponent_and_exact_inverse(self, k):
        A = 10.0**k * (np.random.default_rng(31).normal(size=(4, 3, 2)) @ [1, 1j])
        S, e = unit_scaled(A)
        top = np.max(np.abs(S.view(float)))
        assert 0.5 <= top < 1
        assert np.array_equal(np.ldexp(S.view(float), e).view(complex), A)

    def test_largest_imaginary_part_sets_the_exponent(self):
        S, e = unit_scaled([[1.0, 4j], [-4j, 1.0]])
        assert e == 3
        assert np.array_equal(S, np.array([[0.125, 0.5j], [-0.5j, 0.125]]))

    def test_subnormal_and_largest_floats(self):
        assert unit_scaled([5e-324])[1] == -1073
        S, e = unit_scaled([np.finfo(float).max, -5e-324])
        assert e == 1024 and 0.5 <= S[0].real < 1 and S[1] == 0

    def test_zero_comes_back_unchanged(self):
        S, e = unit_scaled(np.zeros((2, 2)))
        assert e == 0 and np.array_equal(S, np.zeros((2, 2)))

    def test_non_contiguous_input(self):
        A = np.arange(12.0).reshape(3, 4).T * (1 + 2j)
        S, e = unit_scaled(A)
        assert np.array_equal(np.ldexp(S.view(float), e).view(complex), A)


class TestStackedValidation:
    """as_hermitian and hermitian_to_real_vector on a (k, d, d) stack agree
    with one call per matrix, and hold each matrix to its own scale."""

    def stack(self):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(6, 5, 5)) + 1j * rng.normal(size=(6, 5, 5))
        # hermitian up to rounding, at scales far apart
        H = (A + np.swapaxes(A, -2, -1).conj()) / 2
        return H * 10.0 ** np.array([-13, -6, 0, 3, 8, 12])[:, None, None]

    def test_as_hermitian_bitwise_per_matrix(self):
        H = self.stack()
        assert np.array_equal(as_hermitian(H), np.array([as_hermitian(M) for M in H]))
        assert np.array_equal(as_hermitian(H.reshape(2, 3, 5, 5)),
                              as_hermitian(H).reshape(2, 3, 5, 5))

    def test_real_vector_row_by_row(self):
        H = self.stack()
        rows = hermitian_to_real_vector(H)
        assert rows.shape == (6, 25)
        for row, M in zip(rows, H):
            assert np.array_equal(row, hermitian_to_real_vector(M))

    def test_slack_is_per_matrix(self):
        big = 1e12 * random_hermitian(3, np.random.default_rng(29))
        small = 1e-13 * np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        # the small matrix's asymmetry is far below the big one's scale
        with pytest.raises(ValueError, match="not hermitian"):
            as_hermitian(np.array([big, small]))
        with pytest.raises(ValueError, match="not hermitian"):
            hermitian_to_real_vector(np.array([big, small]))
        as_hermitian(np.array([big, (small + small.T) / 2]))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            as_hermitian(np.zeros(shape))


class TestRankKernel:
    def test_zero_matrix(self):
        assert rank(np.zeros((4, 4))) == 0
        assert kernel(np.zeros((4, 4))).shape[1] == 4

    def test_rank_one_projector(self):
        P = np.zeros((9, 9))
        P[0, 0] = 1.0
        assert rank(P) == 1

    def test_rho_rank(self):
        assert rank(rho(2, math.pi / 6).data) == 5

    def test_rho_1_pi_kernel_dim(self):
        K = kernel(rho(1, math.pi).data)
        assert K.shape[1] == 5

    def test_identity_kernel_empty(self):
        assert kernel(np.eye(5)).shape[1] == 0

    def test_rank_plus_kernel_is_dim(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            H = random_hermitian(5, rng)
            # randomly squash some eigenvalues to zero
            w, V = spectrum(H)
            w = np.where(rng.random(5) < 0.4, 0.0, w)
            H = as_hermitian((V * w) @ V.conj().T)
            assert rank(H) + kernel(H).shape[1] == 5


def range_projection(H):
    """Orthogonal projection onto the numerical range, from the spectrum."""
    w, V = spectrum(H)
    R = V[:, range_mask(w)]
    return R @ R.conj().T


class TestRangeProjection:
    def test_identity(self):
        assert_allclose(range_projection(np.eye(4)), np.eye(4), atol=1e-12)

    def test_rank_one(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        P = np.outer(v, v.conj())
        assert_allclose(range_projection(P), P, atol=1e-12)

    def test_idempotent_hermitian(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            H = random_hermitian(6, rng)
            P = range_projection(H)
            assert np.max(np.abs(P @ P - P)) <= 1e-9
            assert np.max(np.abs(P - P.conj().T)) <= 1e-9
            assert np.max(np.abs(P @ H - H)) <= 1e-8 * np.linalg.norm(H)

    def test_rho_range_projection_explicit(self):
        # closed form for the family's range projection at generic parameters
        b, th = 2.0, math.pi / 6
        P = range_projection(rho(b, th).data)
        d = 1.0 + b * b
        z = b * np.exp(1j * th)
        expected = np.zeros((9, 9), dtype=complex)
        for i, j in ((0, 0), (4, 4), (8, 8)):
            expected[i, j] = 2 / 3
        for i, j in ((0, 4), (4, 0), (0, 8), (8, 0), (4, 8), (8, 4)):
            expected[i, j] = -1 / 3
        expected[1, 1] = expected[5, 5] = expected[6, 6] = 1 / d
        expected[2, 2] = expected[3, 3] = expected[7, 7] = b * b / d
        for i, j in ((1, 3), (5, 7)):
            expected[i, j] = -np.conj(z) / d
            expected[j, i] = -z / d
        expected[2, 6] = -z / d
        expected[6, 2] = -np.conj(z) / d
        assert_allclose(P, expected, atol=1e-10)


class TestVectorization:
    def test_e11_in_m2(self):
        E11 = np.diag([1.0, 0.0])
        assert_allclose(hermitian_to_real_vector(E11), [1, 0, 0, 0])

    @pytest.mark.parametrize("H,coords", [
        ([[0, 1], [1, 0]], [0, 0, math.sqrt(2), 0]),
        ([[0, -1j], [1j, 0]], [0, 0, 0, -math.sqrt(2)]),
        ([[1, 0], [0, -1]], [1, -1, 0, 0]),
    ], ids=["sigma_x", "sigma_y", "sigma_z"])
    def test_documented_order(self, H, coords):
        # diagonal units, then (E_ij + E_ji)/sqrt(2), then i(E_ij - E_ji)/sqrt(2)
        assert_allclose(hermitian_to_real_vector(np.array(H)), coords, atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            H = random_hermitian(4, rng)
            v = hermitian_to_real_vector(H)
            assert_allclose(np.tensordot(v, hermitian_basis(4), axes=1), H, atol=1e-13)

    def test_isometry(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            X = random_hermitian(5, rng)
            Y = random_hermitian(5, rng)
            dot = hermitian_to_real_vector(X) @ hermitian_to_real_vector(Y)
            tr = np.trace(X @ Y).real
            assert abs(tr - dot) <= 1e-10 * np.linalg.norm(X) * np.linalg.norm(Y)

    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_basis_stack(self, d):
        B = hermitian_basis(d)
        for k, e in enumerate(np.eye(d * d)):
            assert_allclose(hermitian_to_real_vector(B[k]), e, atol=1e-15)
        gram = np.einsum("jab,kba->jk", B, B)
        assert_allclose(gram, np.eye(d * d), atol=1e-15)


class TestCutoff:
    """An eigenvalue or singular value counts as zero exactly when it is at
    most CUTOFF times the largest, at every scale."""

    @pytest.mark.parametrize("k", [-12, 0, 12])
    def test_rank_switches_at_cutoff(self, k):
        s = 10.0**k
        assert spectrum_rank(s * np.array([1.0, 1.01 * CUTOFF])) == 2
        assert spectrum_rank(s * np.array([1.0, 0.99 * CUTOFF])) == 1

    @pytest.mark.parametrize("k", [-12, 0, 12])
    def test_psd_switches_at_cutoff(self, k):
        s = 10.0**k
        assert spectrum_is_psd(s * np.array([1.0, -0.99 * CUTOFF]))
        assert not spectrum_is_psd(s * np.array([1.0, -1.01 * CUTOFF]))

    @pytest.mark.parametrize("k", [-12, 0, 12])
    def test_numerical_rank_switches_at_cutoff(self, k):
        s = 10.0**k
        assert numerical_rank(s * np.diag([1.0, 1.01 * CUTOFF])) == 2
        assert numerical_rank(s * np.diag([1.0, 0.99 * CUTOFF])) == 1

    @pytest.mark.parametrize("shape", [(3, 4), (0, 4), (4, 0)])
    def test_numerical_rank_of_zero_or_empty(self, shape):
        assert numerical_rank(np.zeros(shape)) == 0


class TestIsPsd:
    def test_identity(self):
        assert is_psd(np.eye(3))

    def test_indefinite(self):
        assert not is_psd(np.diag([1.0, -1.0]))

    def test_circulant_at_p_theta(self):
        th = math.pi / 6
        a = p_theta(th)
        e = np.exp(1j * th)
        C = np.array([
            [a, -e, -np.conj(e)],
            [-np.conj(e), a, -e],
            [-e, -np.conj(e), a],
        ])
        assert is_psd(C)
        w, _ = spectrum(C)
        assert abs(w[-1]) <= 1e-9
