import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import eigh_oracle, kernel_intersection_dim_oracle, phi_D_operator, phi_E_operator
from pptgeo.extremality import (
    FaceSpec,
    appendix_basis_X,
    appendix_basis_Y,
    basis_span_rank,
    face_of,
    is_extreme_in_T,
    verify_combination_identity,
)
from pptgeo.linalg import (
    ROUNDOFF,
    hermitian_basis,
    hermitian_to_real_vector,
    numerical_rank,
)
from pptgeo.states import (
    BipartiteMatrix,
    StateType,
    combine,
    is_ppt,
    kernel_vectors_w,
    partial_transpose,
    product_state,
    rho,
    sigma,
    state_type,
)

GENERIC = [(2.0, math.pi / 6), (0.5, -1.1), (1.3, 2.0), (4.0, 5 * math.pi / 12)]
# the appendix bases are written for angles on the open arc (0, pi/3)
ZERO_ARC = [(2.0, math.pi / 6), (0.5, 0.3), (1.3, 1.0)]


def random_separable(rng, rank):
    """Sum of `rank` random product projectors on C^3 (x) C^3; for rank <= 8 it
    and its partial transpose both have rank `rank`, so the oracle applies."""
    X = np.zeros((9, 9), dtype=complex)
    for _ in range(rank):
        a, b = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        v = np.kron(a, b)
        X += np.outer(v, v.conj())
    return BipartiteMatrix(3, 3, X)


def oracle_states():
    """Fresh states for the oracle comparisons: both families at k*pi/12 for
    b in {0.25, 4}, seeded random separable states of rank 1-9 scaled by
    10^-6 and 10^6, and the entrywise conjugate of each."""
    rng = np.random.default_rng(11)
    states = [family(b, k * math.pi / 12)
              for family in (rho, sigma) for b in (0.25, 4.0) for k in range(24)]
    for rank in range(1, 10):
        X = random_separable(rng, rank)
        states += [BipartiteMatrix(3, 3, X.data * 10.0**e) for e in (-6, 6)]
    return states + [BipartiteMatrix(X.m, X.n, X.data.conj()) for X in states]


def pt_oracle(X):
    """Partial transpose on the first factor, entry by entry:
    <i j| X^Gamma |k l> = <k j| X |i l>."""
    m, n = X.m, X.n
    T = np.empty_like(X.data)
    for i, j, k, l in np.ndindex(m, n, m, n):
        T[i * n + j, k * n + l] = X.data[k * n + j, i * n + l]
    return T


class TestFace:
    def test_projection_ranks(self):
        for b, th in GENERIC:
            face = face_of(rho(b, th))
            assert np.trace(face.D @ face.D.conj().T).real == pytest.approx(5.0, abs=1e-9)
            assert np.trace(face.E @ face.E.conj().T).real == pytest.approx(5.0, abs=1e-9)

    def test_bases_orthonormal_to_roundoff(self):
        grid = [family(b, k * math.pi / 12) for family in (rho, sigma)
                for b in (0.25, 0.5, 1.0, 2.0, 4.0) for k in range(24)]
        for X in grid + oracle_states():
            face = face_of(X)
            for B in (face.D, face.E):
                assert np.max(np.abs(B.conj().T @ B - np.eye(B.shape[1]))) <= ROUNDOFF

    def test_facespec_rejects_beyond_roundoff(self):
        D = np.eye(9)[:, :3]
        FaceSpec(D * (1 + 0.25 * ROUNDOFF), D)
        with pytest.raises(ValueError, match="not orthonormal"):
            FaceSpec(D * (1 + 5 * ROUNDOFF), D)

    def test_p_d_annihilates_kernel(self):
        for b, th in GENERIC:
            face = face_of(rho(b, th))
            for w in kernel_vectors_w(b, th):
                assert np.linalg.norm(face.D @ face.D.conj().T @ w) <= 1e-9 * np.linalg.norm(w)


class TestPhiOperators:
    def test_phi_d_kills_state(self):
        for b, th in GENERIC:
            X = rho(b, th)
            op = phi_D_operator(face_of(X).D)
            v = hermitian_to_real_vector(X.data)
            assert np.linalg.norm(op @ v) <= 1e-9 * np.linalg.norm(v)

    def test_phi_e_kills_state(self):
        for b, th in GENERIC:
            X = rho(b, th)
            op = phi_E_operator(face_of(X).E, 3, 3)
            v = hermitian_to_real_vector(X.data)
            assert np.linalg.norm(op @ v) <= 1e-9 * np.linalg.norm(v)

    def test_kernel_dims_generic(self):
        for b, th in GENERIC:
            face = face_of(rho(b, th))
            opD = phi_D_operator(face.D)
            opE = phi_E_operator(face.E, 3, 3)
            sD = np.linalg.svd(opD, compute_uv=False)
            sE = np.linalg.svd(opE, compute_uv=False)
            assert np.sum(sD <= 1e-9 * sD[0]) == 25
            assert np.sum(sE <= 1e-9 * sE[0]) == 25

    def test_phi_d_is_compression_minus_identity(self):
        rng = np.random.default_rng(1)
        b, th = 2.0, math.pi / 6
        D = face_of(rho(b, th)).D
        P = D @ D.conj().T
        op = phi_D_operator(D)
        A = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        H = (A + A.conj().T) / 2
        lhs = op @ hermitian_to_real_vector(H)
        rhs = hermitian_to_real_vector(P @ H @ P - H)
        assert_allclose(lhs, rhs, atol=1e-10)


class TestExtremality:
    @pytest.mark.parametrize("b,theta", GENERIC)
    def test_rho_extreme(self, b, theta):
        rep = is_extreme_in_T(rho(b, theta))
        assert rep.is_extreme
        assert rep.dim_ker_D == 25
        assert rep.dim_ker_E == 25
        assert rep.dim_intersection == 1
        g = rep.generator.data
        target = rho(b, theta).data / np.trace(rho(b, theta).data).real
        assert np.max(np.abs(g - target)) <= 1e-8

    def test_matches_oracle(self):
        for X in [rho(b, th) for b, th in GENERIC] + oracle_states():
            face = face_of(X)
            rep = is_extreme_in_T(X)
            p, q = face.D.shape[1], face.E.shape[1]
            # The operator oracle needs proper kernels; a full-rank face's
            # intersection is all of Herm(9).
            oracle = 81 if p == q == 9 else kernel_intersection_dim_oracle(
                phi_D_operator(face.D), phi_E_operator(face.E, 3, 3)
            )
            assert (p * p, q * q, oracle) == (rep.dim_ker_D, rep.dim_ker_E, rep.dim_intersection)
            if rep.is_extreme:
                target = X.data / np.trace(X.data).real
                assert np.max(np.abs(rep.generator.data - target)) <= 1e-8

    def test_sigma_not_extreme(self):
        rep = is_extreme_in_T(sigma(2, math.pi / 6))
        assert not rep.is_extreme
        assert rep.dim_intersection > 1

    def test_identity_not_extreme(self):
        X = BipartiteMatrix(3, 3, np.eye(9) / 9)
        rep = is_extreme_in_T(X)
        assert not rep.is_extreme

    def test_mixture_not_extreme(self):
        X = combine([rho(2, math.pi / 6), rho(1, 5 * math.pi / 6)], [0.5, 0.5])
        assert not is_extreme_in_T(X).is_extreme

    def test_full_rank_and_product_faces(self):
        mixture = combine([rho(2, math.pi / 6), rho(1, 5 * math.pi / 6)], [0.5, 0.5])
        for X in (mixture, BipartiteMatrix(3, 3, np.eye(9) / 9)):
            rep = is_extreme_in_T(X)
            assert (rep.dim_ker_D, rep.dim_ker_E, rep.dim_intersection) == (81, 81, 81)
            assert not rep.is_extreme
        rep = is_extreme_in_T(product_state([1, 1j, 0.5], [2, -1, 1j]))
        assert (rep.dim_ker_D, rep.dim_ker_E, rep.dim_intersection) == (1, 1, 1)
        assert rep.is_extreme

    @pytest.mark.parametrize("family,eps,ty,dims", [
        (rho, 1e-9, (5, 5), (25, 25, 1)),
        (rho, 1e-11, (4, 4), (16, 16, 1)),
        (sigma, 1e-9, (8, 6), (64, 36, 19)),
        (sigma, 1e-11, (7, 6), (49, 36, 13)),
    ], ids=["rho 1e-9", "rho 1e-11", "sigma 1e-9", "sigma 1e-11"])
    def test_near_boundary_verdicts(self, family, eps, ty, dims):
        # The fifth eigenvalue of rho is about 1.15 * eps of the largest, so
        # at eps = 1e-11 it falls under CUTOFF and the type drops; the
        # intersection dimensions read from singular values follow it.
        X = family(2, math.pi / 3 + eps)
        assert state_type(X) == StateType(*ty)
        rep = is_extreme_in_T(X)
        assert (rep.dim_ker_D, rep.dim_ker_E, rep.dim_intersection) == dims
        assert rep.is_extreme == (family is rho)

    def test_one_by_one_state(self):
        # p = q = 1 leaves a 0 x 1 system, the only wide input of the kernel solve
        rep = is_extreme_in_T(BipartiteMatrix(1, 1, [[2.0]]))
        assert (rep.dim_ker_D, rep.dim_ker_E, rep.dim_intersection) == (1, 1, 1)
        assert rep.is_extreme and np.array_equal(rep.generator.data, [[1.0]])

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero matrix"):
            is_extreme_in_T(BipartiteMatrix(3, 3, np.zeros((9, 9))))

    def test_boundary_angle_rho_extreme(self):
        rep = is_extreme_in_T(rho(1, math.pi))
        assert not rep.is_extreme


class TestCachedSpectrum:
    """is_ppt, state_type, face_of and is_extreme_in_T read each state's
    cached spectra; eigh_oracle on the raw .data of X and of an entrywise
    X^Gamma is their oracle."""

    def test_decisions_match_uncached(self):
        for X in oracle_states():
            _, psd_x, rank_x, range_x, _ = eigh_oracle(X.data)
            _, psd_t, rank_t, range_t, _ = eigh_oracle(pt_oracle(X))
            assert is_ppt(X) == (psd_x and psd_t)
            assert state_type(X) == StateType(rank_x, rank_t)
            face = face_of(X)
            for B, P in ((face.D, range_x), (face.E, range_t)):
                assert_allclose(B @ B.conj().T, P, atol=1e-10)

    def test_two_eigensolves_per_state(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for X in oracle_states():
            calls.clear()
            is_ppt(X)
            state_type(X)
            face_of(X)
            is_extreme_in_T(X)
            assert len(calls) == 2
            assert partial_transpose(X) is partial_transpose(X)

    def test_singular_vectors_and_faces_per_grid_state(self, monkeypatch):
        """One SVD per grid state, with singular vectors only when the
        generator is needed: never for an off-boundary sigma (a 54 x 64
        system, whose singular values decide), one economy SVD for rho's tall
        system; and the face is built and checked once per state, by
        face_of, and reused by is_extreme_in_T."""
        with_vectors, faces = [], []
        svd, post_init = np.linalg.svd, FaceSpec.__post_init__

        def counted_svd(*args, **kwargs):
            with_vectors.append(kwargs.get("compute_uv", True))
            return svd(*args, **kwargs)

        def counted_face(face):
            faces.append(1)
            post_init(face)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(FaceSpec, "__post_init__", counted_face)
        for family in (rho, sigma):
            for b in (0.25, 0.5, 1.0, 2.0, 4.0):
                for k in range(24):
                    X = family(b, k * math.pi / 12)
                    with_vectors.clear()
                    faces.clear()
                    is_ppt(X)
                    state_type(X)
                    face = face_of(X)
                    rep = is_extreme_in_T(X)
                    assert face_of(X) is face
                    assert len(faces) == 1
                    assert len(with_vectors) == 1
                    if family is sigma and k % 4:
                        assert with_vectors == [False]
                        assert (rep.dim_ker_D, rep.dim_ker_E) == (64, 36)

    def test_cached_arrays_read_only(self):
        X = rho(2, math.pi / 6)
        w, V = X.spectrum
        face = face_of(X)
        for arr in (w, V, face.D, face.E, hermitian_basis(5)):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestAppendixBases:
    def test_counts(self):
        b, th = 2.0, math.pi / 6
        assert len(appendix_basis_X(b, th)) == 25
        assert len(appendix_basis_Y(b, th)) == 25

    @pytest.mark.parametrize("b,theta", ZERO_ARC)
    def test_x_in_ker_phi_d(self, b, theta):
        face = face_of(rho(b, theta))
        op = phi_D_operator(face.D)
        for k, X in enumerate(appendix_basis_X(b, theta)):
            v = hermitian_to_real_vector(X)
            r = np.linalg.norm(op @ v) / np.linalg.norm(v)
            assert r <= 1e-9, f"X{k + 1} residual {r:.3e}"

    @pytest.mark.parametrize("b,theta", ZERO_ARC)
    def test_y_in_ker_phi_e(self, b, theta):
        face = face_of(rho(b, theta))
        op = phi_E_operator(face.E, 3, 3)
        for k, Y in enumerate(appendix_basis_Y(b, theta)):
            v = hermitian_to_real_vector(Y)
            r = np.linalg.norm(op @ v) / np.linalg.norm(v)
            assert r <= 1e-9, f"Y{k + 1} residual {r:.3e}"

    def test_span_ranks(self):
        b, th = 2.0, math.pi / 6
        assert basis_span_rank(appendix_basis_X(b, th)) == 25
        assert basis_span_rank(appendix_basis_Y(b, th)) == 25

    @pytest.mark.parametrize("basis", [appendix_basis_X, appendix_basis_Y])
    @pytest.mark.parametrize("b", [0.0, -1.0])
    def test_nonpositive_b_rejected(self, basis, b):
        with pytest.raises(ValueError, match="b must be positive"):
            basis(b, 0.3)

    def test_x_spans_full_kernel(self):
        b, th = 0.5, 0.3
        op = phi_D_operator(face_of(rho(b, th)).D)
        cols = np.column_stack(
            [hermitian_to_real_vector(X) for X in appendix_basis_X(b, th)]
        )
        # every appendix vector already checked in-kernel; rank 25 = dim Ker
        assert numerical_rank(cols) == 25
        s = np.linalg.svd(op, compute_uv=False)
        assert np.sum(s <= 1e-9 * s[0]) == 25

    def test_hermitian(self):
        for M in appendix_basis_X(1.7, 0.9) + appendix_basis_Y(1.7, 0.9):
            assert np.max(np.abs(M - M.conj().T)) <= 1e-12


class TestCombinationIdentity:
    @pytest.mark.parametrize("b,theta", [(2.0, math.pi / 6), (0.7, -0.3), (1.0, 1.0)])
    def test_zero_arc(self, b, theta):
        rep = verify_combination_identity(b, theta)
        assert rep.ok
        assert rep.x_residual <= 1e-10
        assert rep.y_residual_last_y7 <= 1e-10
        assert rep.y_residual_last_x7 > 1e-2

    def test_fails_off_zero_arc(self):
        rep = verify_combination_identity(2.0, math.pi / 2)
        assert not rep.ok
