import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pptgeo.linalg import (
    CUTOFF,
    ROUNDOFF,
    NumericalError,
    as_hermitian,
    eigh_descending,
    has_orthonormal_columns,
    orthonormal_system_rank,
    range_mask,
    spectrum_is_pd,
    spectrum_is_psd,
    spectrum_rank,
    unit_scaled,
)
from oracles import _unit_hermitians, as_hermitian_oracle, hermitian_to_real_vector, numerical_rank
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

    def test_lapack_failure_is_a_numerical_error(self, monkeypatch):
        def fail(H):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="eigendecomposition failed: Eigenvalues did not converge"):
            eigh_descending(np.eye(2))


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


def herm_outcome(f, A):
    """(result bytes, shape) of f(A), or (exception type, message)."""
    try:
        H = f(A)
    except ValueError as exc:
        return type(exc), str(exc)
    return H.tobytes(), H.shape


class TestAsHermitianOracle:
    """On one matrix, as_hermitian makes the decision of its first version,
    raises its messages and returns its bits, signed zeros included."""

    def assert_same(self, A):
        # the oracle's message doubles the deviation in NumPy, which warns past the float range
        with np.errstate(over="ignore"):
            want = herm_outcome(as_hermitian_oracle, A)
        assert herm_outcome(as_hermitian, A) == want

    @staticmethod
    def near_hermitian(rng, shape):
        A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        H = (A + np.swapaxes(A, -2, -1).conj()) / 3
        # hermitian up to rounding: one side of each pair off by an ulp or so
        return H * (1 + 1e-16 * np.triu(rng.normal(size=shape[-2:])))

    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (9, 9)])
    def test_random_matrices_and_stacks(self, shape):
        rng = np.random.default_rng(41)
        for _ in range(20):
            self.assert_same(self.near_hermitian(rng, shape))
            # far from hermitian: the same message, deviation included
            self.assert_same(rng.normal(size=shape) + 1j * rng.normal(size=shape))

    @pytest.mark.parametrize("scale", [1e-300, 1e300, 1e-310, 5e-324])
    def test_extreme_scales_and_subnormals(self, scale):
        rng = np.random.default_rng(43)
        for _ in range(10):
            self.assert_same(scale * self.near_hermitian(rng, (4, 4)))

    def test_entries_near_the_float_limit(self):
        top = 1.7e308
        self.assert_same(np.array([[top, top * (0.5 + 0.5j)], [top * (0.5 - 0.5j), -top]]))
        self.assert_same(np.array([[top, top], [-top, top]]))
        assert herm_outcome(as_hermitian, np.array([[top, top], [-top, top]])) == (
            ValueError, "matrix is not hermitian (deviation inf)")
        self.assert_same(np.array([[top, 0.0], [0.0, np.finfo(float).max]]))

    def test_signed_zeros(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            signs = rng.choice([-0.0, 0.0], size=(2, 4, 4))
            A = signs[0] + 1j * signs[1]
            A[rng.integers(4), rng.integers(4)] = rng.choice([1.0, -1.0, 1j, -1j])
            self.assert_same(A)
            self.assert_same(A + np.swapaxes(A, -2, -1).conj())

    @pytest.mark.parametrize("bad", [complex(math.inf, 0), complex(-math.inf, 0), complex(math.nan, 0),
                                     complex(0, math.inf), complex(0, -math.inf), complex(0, math.nan)],
                             ids=["+inf real", "-inf real", "nan real", "+inf imag", "-inf imag", "nan imag"])
    def test_non_finite_real_or_imaginary_part(self, bad):
        A = np.eye(3, dtype=complex)
        A[0, 1] = bad
        assert herm_outcome(as_hermitian, A) == (ValueError, "matrix entries must be finite")
        self.assert_same(A)

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_deviation_at_the_roundoff_slack(self, scale):
        # max|A - A^dagger| / max|A| = t / (1 + t): rejected iff t / (1 + t) > ROUNDOFF
        for t, rejected in ((ROUNDOFF * 1.001, True), (ROUNDOFF * 0.999, False)):
            A = scale * np.array([[1.0, 1.0 + t], [1.0, 1.0]])
            assert (herm_outcome(as_hermitian_oracle, A)[0] is ValueError) == rejected
            self.assert_same(A)
            self.assert_same(1j * A - 1j * A.T + A.T)

    def test_shape_errors(self):
        # both reject these; the first version also took stacks, and said so
        for A in (np.zeros(3), np.zeros((2, 3)), np.zeros((4, 2, 3)), 1.0):
            assert herm_outcome(as_hermitian_oracle, A)[0] is ValueError
            assert herm_outcome(as_hermitian, A) == (
                ValueError, f"expected a square matrix, got shape {np.shape(A)}")


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
        # through the general path: frexp(0) has exponent 0, signed zeros kept
        A = np.array([[0.0, -0.0], [-0.0j, 0.0]])
        S, e = unit_scaled(A)
        assert e == 0 and S.tobytes() == A.tobytes() and S is not A

    def test_stack_is_scaled_per_matrix(self):
        # each matrix of a stack to its own scale, bitwise as one call per
        # matrix; a zero matrix keeps e = 0
        A = np.random.default_rng(37).normal(size=(2, 3, 4, 5, 2)) @ [1, 1j]
        A *= 10.0 ** np.array([[-320, -300, -7], [0, 100, 300]])[..., None, None]
        A[1, 0] = 0
        S, e = unit_scaled(A)
        assert e.shape == (2, 3) and e[1, 0] == 0
        for i, j in np.ndindex(2, 3):
            S1, e1 = unit_scaled(A[i, j])
            assert e[i, j] == e1 and S[i, j].tobytes() == S1.tobytes()

    def test_non_contiguous_input(self):
        A = np.arange(12.0).reshape(3, 4).T * (1 + 2j)
        S, e = unit_scaled(A)
        assert np.array_equal(np.ldexp(S.view(float), e).view(complex), A)


class TestStackedValidation:
    """as_hermitian validates one matrix and rejects a stack as it rejects
    any non-square input.  The tests' coordinate oracle
    hermitian_to_real_vector, which the span-rank tests apply to stacks,
    reads a stack row by row, each matrix held to its own scale."""

    def stack(self):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(6, 5, 5)) + 1j * rng.normal(size=(6, 5, 5))
        # hermitian up to rounding, at scales far apart
        H = (A + np.swapaxes(A, -2, -1).conj()) / 2
        return H * 10.0 ** np.array([-13, -6, 0, 3, 8, 12])[:, None, None]

    def test_real_vector_row_by_row(self):
        H = self.stack()
        rows = hermitian_to_real_vector(H)
        assert rows.shape == (6, 25)
        for row, M in zip(rows, H):
            assert np.array_equal(row, hermitian_to_real_vector(M))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3), (2, 3, 3)])
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
    """The order and isometry of the real coordinates X = Re H + Im H of the
    tests' oracle hermitian_to_real_vector, and the unit hermitians
    sym E_st + i antisym E_st that map them back."""

    def test_e11_in_m2(self):
        E11 = np.diag([1.0, 0.0])
        assert_allclose(hermitian_to_real_vector(E11), [1, 0, 0, 0])

    @pytest.mark.parametrize("H,coords", [
        ([[0, 1], [1, 0]], [0, 1, 1, 0]),
        ([[0, -1j], [1j, 0]], [0, -1, 1, 0]),
        ([[1, 0], [0, -1]], [1, 0, 0, -1]),
    ], ids=["sigma_x", "sigma_y", "sigma_z"])
    def test_documented_order(self, H, coords):
        # the entries of Re H + Im H, row by row
        assert_allclose(hermitian_to_real_vector(np.array(H)), coords, atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            H = random_hermitian(4, rng)
            v = hermitian_to_real_vector(H)
            assert_allclose(np.tensordot(v, _unit_hermitians(4), axes=1), H, atol=1e-13)

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
        B = _unit_hermitians(d)
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
    def test_pd_switches_at_cutoff(self, k):
        # in any order, and never for an all-zero spectrum
        s = 10.0**k
        assert spectrum_is_pd(s * np.array([1.01 * CUTOFF, 1.0]))
        assert not spectrum_is_pd(s * np.array([1.0, 0.99 * CUTOFF]))
        assert not spectrum_is_pd(s * np.array([1.0, -1.0]))
        assert not spectrum_is_pd(np.zeros(2))

    @pytest.mark.parametrize("w", [
        [], [0.0, 0.0, 0.0], [-1e-12, -0.5, -3.0], [2.5], [-2.5], [0.0], [-0.0], [0.0, -0.0],
        [5.0, 1.0, -0.5], [0.5, 1e-10, -5.0], [1.0, 0.0, -1.0],
        [1.0, 1.01 * CUTOFF, 0.99 * CUTOFF, 0.0, -0.99 * CUTOFF, -1.01 * CUTOFF],
        [1.01 * CUTOFF, 0.99 * CUTOFF, -0.99 * CUTOFF, -1.0],
    ])
    @pytest.mark.parametrize("scale", [1.0, 2.0**1000, 2.0**-1000])
    def test_descending_rules_read_the_ends(self, w, scale):
        # range_mask and spectrum_is_psd take max |w| of a descending w from
        # its two ends; they decide as the former pass over every |w| did
        w = np.array(w) * scale
        largest = np.max(np.abs(w)) if w.size else 0.0
        assert np.array_equal(range_mask(w), np.abs(w) > CUTOFF * largest)
        assert spectrum_is_psd(w) is bool(w.size == 0 or w[-1] >= -CUTOFF * largest)

    def test_orthonormal_system_rank_is_against_one(self):
        # the scale is max(1, s[0]), so a system that is zero up to rounding has rank 0
        assert orthonormal_system_rank(np.array([1e-3, 1.01 * CUTOFF])) == 2
        assert orthonormal_system_rank(np.array([0.99 * CUTOFF])) == 0
        assert orthonormal_system_rank(np.array([2.0, 1.5 * CUTOFF])) == 1
        assert orthonormal_system_rank(np.zeros(0)) == 0

    def test_orthonormal_columns_switch_at_roundoff(self):
        D = np.eye(9)[:, :3]
        assert has_orthonormal_columns(D * (1 + 0.25 * ROUNDOFF))
        assert not has_orthonormal_columns(D * (1 + 5 * ROUNDOFF))
        assert has_orthonormal_columns(np.zeros((9, 0)))
        assert not has_orthonormal_columns(np.full((9, 1), np.nan))

    # numerical_rank is the tests' oracle for ranks of rectangular matrices
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
