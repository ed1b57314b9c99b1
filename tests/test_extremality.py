import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pptgeo.cli as cli
import pptgeo.extremality as extremality
import pptgeo.linalg as linalg
import pptgeo.maps as maps
import pptgeo.serialize as serialize
import pptgeo.states as states_module
from oracles import (
    _eigh_split,
    appendix_basis_X_formula,
    appendix_basis_Y_formula,
    compression_coordinates,
    compression_membership,
    d_side_face_dim,
    eigh_oracle,
    hermitian_to_real_vector,
    kernel_intersection_dim_oracle,
    numerical_rank,
    phi_D_operator,
    phi_E_operator,
    z_stack_face_system,
)
from pptgeo.extremality import (
    FaceSpec,
    appendix_basis_X,
    appendix_basis_Y,
    basis_span_rank,
    face_of,
    is_extreme_in_T,
    verify_appendix,
    verify_combination_identity,
)
from pptgeo.linalg import (
    ROUNDOFF,
    NumericalError,
    unit_scaled,
)
from pptgeo.seesaw import _model_map
from pptgeo.states import (
    BipartiteMatrix,
    StateType,
    _macaulay_plan,
    _minor_plan,
    combine,
    is_interior_of_T,
    is_ppt,
    kernel_vectors_w,
    normalize,
    partial_transpose,
    product_decomposition_rho_1_pi,
    product_state,
    rho,
    sigma,
    state_type,
    verify_product_decomposition,
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


def non_square_separable_states():
    """Seeded separable states on 2x3, 3x2, 2x4, 4x2 and 3x4: sums of rank
    1 .. mn - 1 random product projectors, of type (rank, rank), and a 2x2
    block of four product projectors in a random local frame plus 0-2
    random ones, of type (4 + k, 3 + k): the block's product vectors a b,
    e0 e0, e1 e1, (e0 + e1)(e0 + e1) and (e0 + i e1)(e0 - i e1), span four
    dimensions, and the vectors conj(a) b of its partial transpose three."""
    rng = np.random.default_rng(24)

    def product_projectors(vectors):
        return sum(np.outer(v, v.conj()) for v in vectors)

    def random_vectors(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    block = [(np.array(a), np.array(b)) for a, b in (
        ((1, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 1), (1, 1)), ((1, 1j), (1, -1j)))]
    states = []
    for m, n in ((2, 3), (3, 2), (2, 4), (4, 2), (3, 4)):
        for rank in range(1, m * n):
            pairs = zip(random_vectors((rank, m)), random_vectors((rank, n)))
            states.append(BipartiteMatrix(m, n, product_projectors(np.kron(a, b) for a, b in pairs)))
        for extra in range(min(3, m * n - 3)):
            VA, VB = (np.linalg.qr(random_vectors((d, 2)))[0] for d in (m, n))
            pairs = [(VA @ a, VB @ b) for a, b in block]
            pairs += zip(random_vectors((extra, m)), random_vectors((extra, n)))
            states.append(BipartiteMatrix(m, n, product_projectors(np.kron(a, b) for a, b in pairs)))
    return states


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


def grid_states():
    """Both families on the paper's 5 x 24 (b, theta) grid."""
    return [family(b, k * math.pi / 12) for family in (rho, sigma)
            for b in (0.25, 0.5, 1.0, 2.0, 4.0) for k in range(24)]


def near_boundary_states():
    """Both families at b = 2 and theta = pi/3 +- g, where the type is a
    cutoff decision for the smallest g."""
    return [family(2, math.pi / 3 + sign * g) for family in (rho, sigma)
            for g in (1e-6, 1e-9, 1e-11, 1e-13) for sign in (1, -1)]


def pt_oracle(X):
    """Partial transpose on the first factor, entry by entry:
    <i j| X^Gamma |k l> = <k j| X |i l>."""
    m, n = X.m, X.n
    T = np.empty_like(X.data)
    for i, j, k, l in np.ndindex(m, n, m, n):
        T[i * n + j, k * n + l] = X.data[k * n + j, i * n + l]
    return T


def range_and_kernel(Y, YT):
    """(D, F): the range basis of Y and the kernel basis of YT, each picked
    off the cached spectrum by the range mask rather than sliced by rank."""
    (w, V), (wT, VT) = Y.spectrum, YT.spectrum
    return V[:, linalg.range_mask(w)], VT[:, ~linalg.range_mask(wT)]


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

    def test_zero_state_has_an_empty_face(self):
        face = face_of(BipartiteMatrix(3, 3, np.zeros((9, 9))))
        assert face.D.shape == face.E.shape == (9, 0)

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
                assert np.array_equal(rep.generator.data, normalize(X).data)
            else:
                assert rep.generator is None

    def test_smaller_range_matches_d_side_oracle(self):
        # is_extreme_in_T poses sigma's system, type (8, 6), on the range of
        # sigma^Gamma; sigma^Gamma, type (6, 8), runs the p < q side.  X and
        # X^Gamma have the same intersection with the kernel dims swapped.
        # The non-square states and their partial transposes check that the
        # assembly keeps the first factor's m and the second's n apart.
        states = grid_states() + near_boundary_states()
        types = [state_type(X) for X in states]
        states += [partial_transpose(X) for X, t in zip(states, types) if t.q < t.p]
        assert len(states) == 240 + 16 + 128
        non_square = non_square_separable_states()
        states += non_square + [partial_transpose(X) for X in non_square]
        uneven = {(X.m, X.n) for X in non_square if state_type(X).p == state_type(X).q + 1}
        assert uneven == {(2, 3), (3, 2), (2, 4), (4, 2), (3, 4)}
        for X in states:
            rep = is_extreme_in_T(X)
            assert rep.dim_intersection == d_side_face_dim(X)
            rep_t = is_extreme_in_T(partial_transpose(X))
            assert (rep_t.dim_ker_D, rep_t.dim_ker_E, rep_t.dim_intersection) == \
                (rep.dim_ker_E, rep.dim_ker_D, rep.dim_intersection)

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
        # p = q = 1 leaves an empty 0 x 1 face system: no singular value, dimension 1
        rep = is_extreme_in_T(BipartiteMatrix(1, 1, [[2.0]]))
        assert (rep.dim_ker_D, rep.dim_ker_E, rep.dim_intersection) == (1, 1, 1)
        assert rep.is_extreme and np.array_equal(rep.generator.data, [[1.0]])

    def test_corrupted_face_system_raises(self, monkeypatch):
        # Transposing the second factor instead of the first builds a face
        # system that X does not satisfy; the dimensions it gives (0 for the
        # first two states, 12 for sigma(2, pi/3)) must not be reported.
        # sigma's system is posed on the range of sigma^Gamma, and there the
        # corruption (the entrywise conjugate) reads conj(F) for the kernel F
        # of sigma.  F is real on the zero arc and at pi, where the corrupted
        # system is the true one and reports the true dimensions; on the
        # plus and minus arcs it raises.
        def pt_second_factor(Z, m, n):
            return Z.reshape(-1, m, n, m, n).transpose(0, 1, 4, 3, 2).reshape(Z.shape)

        def corrupted_face_system(D, F, m, n):
            return z_stack_face_system(D, F, m, n, pt=pt_second_factor)

        monkeypatch.setattr(extremality, "_face_system", corrupted_face_system)
        for X in (rho(1, math.pi / 3), product_state([1, 1j, 0.5], [2, -1, 1j]),
                  sigma(2, math.pi / 3), rho(2, math.pi / 6), sigma(2, 5 * math.pi / 6)):
            with pytest.raises(NumericalError, match="not in its own face system"):
                is_extreme_in_T(X)
        rep = is_extreme_in_T(sigma(2, math.pi / 6))
        assert (rep.dim_ker_D, rep.dim_ker_E, rep.dim_intersection) == (64, 36, 19)

    def test_non_ppt_state_rejected(self):
        v = np.array([1.0, 0, 0, 1.0])
        bell = BipartiteMatrix(2, 2, np.outer(v, v))  # its partial transpose has eigenvalue -1
        for decide in (face_of, is_extreme_in_T):
            with pytest.raises(ValueError, match=f"{decide.__name__} requires a PPT input"):
                decide(bell)

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
        """Two eigensolves per state, one when the partial transpose permutes
        the entries onto themselves bitwise: then X^Gamma is X."""
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
            self_pt = pt_oracle(X).tobytes() == X.data.tobytes()
            assert len(calls) == (1 if self_pt else 2)
            assert partial_transpose(X) is partial_transpose(X)
            assert (partial_transpose(X) is X) == self_pt

    @pytest.mark.parametrize("b", [0.25, 1.0, 4.0, 1e-150, 1e150])
    def test_rho_is_its_own_partial_transpose(self, b):
        for k in range(24):
            R, S = rho(b, k * math.pi / 12), sigma(b, k * math.pi / 12)
            assert partial_transpose(R) is R
            assert partial_transpose(S) is not S
            assert np.array_equal(partial_transpose(S).data, pt_oracle(S))

    def test_signed_zero_is_not_equal(self):
        # -0.0 and 0.0 compare equal but differ in their bytes
        A = np.zeros((4, 4), dtype=complex)
        A[1, 2] = A[2, 1] = complex(-0.0, -0.0)
        X = BipartiteMatrix(2, 2, A)
        assert np.array_equal(pt_oracle(X), X.data)
        assert pt_oracle(X).tobytes() != X.data.tobytes()
        assert partial_transpose(X) is not X
        assert np.array_equal(partial_transpose(X).data, X.data)

    def test_hermiticity_checks_per_grid_op(self, monkeypatch):
        """Hermiticity is checked where data enters: a paper_grid op builds
        rho (or sigma), sigma^Gamma and the generator of an extreme rho
        exactly hermitian and checks none of them, while each public
        constructor call checks its input once."""
        calls = []
        check = linalg.as_hermitian

        def counted(A):
            calls.append(1)
            return check(A)

        monkeypatch.setattr(linalg, "as_hermitian", counted)
        monkeypatch.setattr(states_module, "as_hermitian", counted)
        seen = set()
        for family in (rho, sigma):
            for k in range(24):
                calls.clear()
                X = family(2.0, k * math.pi / 12)
                is_ppt(X)
                state_type(X)
                face_of(X)
                rep = is_extreme_in_T(X)
                seen.add((family.__name__, rep.is_extreme, len(calls)))
        # rho is extreme except at theta = 0, 2pi/3 and 4pi/3; sigma never is
        assert seen == {("rho", True, 0), ("rho", False, 0), ("sigma", False, 0)}
        X = sigma(2.0, math.pi / 6)
        for build in (lambda: BipartiteMatrix(3, 3, X.data),
                      lambda: combine([X, rho(1.0, 0.5)], [0.5, 0.5]),
                      lambda: states_module.conjugate_by_phase_unitary(X),
                      lambda: product_state([1.0, 1j, 0.0], [0.5, 0.0, 2.0]),
                      lambda: maps.decomposable_map(maps.trace_map_decomposition_33()),
                      lambda: serialize.bipartite_from_json(serialize.bipartite_to_json(X))):
            calls.clear()
            build()
            assert len(calls) == 1

    def test_singular_vectors_and_faces_per_grid_state(self, monkeypatch):
        """One SVD per state, singular values only, of the system on the
        smaller range: every grid state and the near-boundary states read
        their dimension from the values, and the generator of an extreme
        state is the state itself.  The face is built once per op, by
        face_of; is_extreme_in_T reads the cached spectra and builds none."""
        with_vectors, shapes, faces = [], [], []
        svd, face_spec = np.linalg.svd, extremality.FaceSpec

        def counted_svd(*args, **kwargs):
            with_vectors.append(kwargs.get("compute_uv", True))
            shapes.append(args[0].shape)
            return svd(*args, **kwargs)

        def counted_face(*args):
            faces.append(1)
            return face_spec(*args)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(extremality, "FaceSpec", counted_face)
        for X in grid_states() + near_boundary_states():
            with_vectors.clear()
            shapes.clear()
            faces.clear()
            is_ppt(X)
            t = state_type(X)
            face = face_of(X)
            is_extreme_in_T(X)
            assert isinstance(face, FaceSpec)
            assert len(faces) == 1
            assert with_vectors == [False]
            # the system is posed on the smaller range
            assert shapes == [(2 * 9 * (9 - max(t.p, t.q)), min(t.p, t.q) ** 2)]

    def test_cached_arrays_read_only(self):
        X = rho(2, math.pi / 6)
        w, V = X.spectrum
        # the index plans of both sides of the product-vector search
        minors = [a for plan in (_minor_plan(3, 3, 2, 4), _minor_plan(4, 3, 3, 3))
                  for level in plan for a in level]
        macaulay = [a for plan in (_macaulay_plan(4, 3, 2), _macaulay_plan(3, 3, 3)) for a in plan]
        plans = (*minors, *macaulay, *_model_map(3, 3))
        zero = BipartiteMatrix(2, 2, np.zeros((4, 4))).spectrum
        for arr in (w, V, *zero, *plans):
            with pytest.raises(ValueError):
                arr[0] = 0

    @staticmethod
    def decided_states():
        """The grid, b = 1e-3 and 7.3 off it, and each of them rescaled by 2**300 and 2**-300."""
        states = grid_states() + [family(b, k * math.pi / 12) for family in (rho, sigma)
                                  for b in (1e-3, 7.3) for k in range(24)]
        return states + [BipartiteMatrix(3, 3, X.data * 2.0**e) for X in states for e in (300, -300)]

    def test_cached_decisions_follow_the_rules(self):
        """The range mask of the cached spectrum, the cached rank and the
        cached PSD verdict are the linalg rules on the oracle's spectra of X
        and of an entrywise X^Gamma, and agree with the oracle's own cut."""
        for X in self.decided_states():
            for Y, H in ((X, X.data), (partial_transpose(X), pt_oracle(X))):
                w = _eigh_split(H)[0][::-1]
                _, psd, rank, _, _ = eigh_oracle(H)
                assert np.array_equal(linalg.range_mask(Y.spectrum[0]), linalg.range_mask(w))
                assert Y._rank == linalg.spectrum_rank(w) == rank
                assert Y._is_psd == linalg.spectrum_is_psd(w) == psd

    def test_range_is_the_rank_prefix_of_a_psd_spectrum(self):
        # face_of and is_extreme_in_T slice their bases by rank on this
        near = near_boundary_states() + [family(2, math.pi / 3 + sign * 1e-10)
                                         for family in (rho, sigma) for sign in (1, -1)]
        near += [BipartiteMatrix(3, 3, X.data * 2.0**e) for X in near for e in (300, -300)]
        for X in self.decided_states() + near:
            for Y in (X, partial_transpose(X)):
                assert Y._is_psd
                assert np.array_equal(linalg.range_mask(Y.spectrum[0]), np.arange(Y.m * Y.n) < Y._rank)

    def test_face_bases_are_read_only_views_of_the_spectrum(self):
        for X in grid_states() + near_boundary_states():
            face = face_of(X)
            for B, Y in ((face.D, X), (face.E, partial_transpose(X))):
                w, V = Y.spectrum
                assert np.shares_memory(B, V)
                assert np.ascontiguousarray(B).tobytes() == V[:, linalg.range_mask(w)].tobytes()
                with pytest.raises(ValueError):
                    B[0, 0] = 0

    @staticmethod
    def membership_systems():
        """(Y, Y^Gamma, face system) as is_extreme_in_T poses them, for the
        decided states and for rho and sigma at (2, pi/3 +- g), where the
        dropped eigenvalues set the membership bound."""
        near = [family(2, math.pi / 3 + sign * g) for family in (rho, sigma)
                for g in (1e-6, 1e-9, 1e-10, 1e-11, 1e-13) for sign in (1, -1)]
        for X in TestCachedSpectrum.decided_states() + near:
            t, XT = state_type(X), partial_transpose(X)
            Y, YT = (X, XT) if t.p <= t.q else (XT, X)
            yield Y, YT, extremality._face_system(*range_and_kernel(Y, YT), X.m, X.n)

    def test_coordinates_are_the_scaled_range_eigenvalues(self):
        # Y's coordinates from its compression D^dagger U D onto its own
        # eigenvectors are its range eigenvalues on the diagonal, the
        # coordinates s r + s, and 0 on the rest
        for Y, _, _ in self.membership_systems():
            c_old, e = compression_coordinates(Y)
            c = np.zeros_like(c_old)
            w = Y.spectrum[0]
            c[::Y._rank + 1] = np.ldexp(w[linalg.range_mask(w)], -e)
            assert np.linalg.norm(c - c_old) <= ROUNDOFF * np.linalg.norm(c_old)

    def test_face_system_is_the_z_stack_system(self):
        # the contraction gives the oracle's system of explicit Z_k =
        # D H_k D^dagger entry by entry, with column s r + t for the
        # coordinate X[s, t]: the diagonal columns that _membership reads
        # are those of the diagonal units E_ss
        near = near_boundary_states()
        near += [BipartiteMatrix(3, 3, X.data * 2.0**e) for X in near for e in (300, -300)]
        eps = np.finfo(float).eps
        for X in self.decided_states() + near:
            t, XT = state_type(X), partial_transpose(X)
            Y, YT = (X, XT) if t.p <= t.q else (XT, X)
            D, F = range_and_kernel(Y, YT)
            M = extremality._face_system(D, F, X.m, X.n)
            oracle = z_stack_face_system(D, F, X.m, X.n)
            assert M.shape == oracle.shape
            assert np.abs(M - oracle).max() <= 8 * eps * np.linalg.norm(M, 2)

    def test_membership_reads_as_the_compression_form(self):
        # the two residuals differ by rounding; where the dropped eigenvalues
        # set the bound, far above rounding, the ratio agrees to 1e-5
        eps = np.finfo(float).eps
        for Y, YT, M in self.membership_systems():
            c_old, residual_old, bound_old = compression_membership(Y, YT, M)
            residual, bound = extremality._membership(Y, YT, M)
            assert residual <= bound
            assert abs(residual - residual_old) <= 8 * eps * np.linalg.norm(c_old)
            if bound_old > 1e-10 * np.linalg.norm(c_old):
                assert abs(residual / bound - residual_old / bound_old) <= 1e-5
        # sigma at pi/3 +- 1e-10 reads 0.987 of its bound under both forms
        for sign in (1, -1):
            X = sigma(2, math.pi / 3 + sign * 1e-10)
            Y, YT = partial_transpose(X), X
            M = extremality._face_system(*range_and_kernel(Y, YT), 3, 3)
            _, residual_old, bound_old = compression_membership(Y, YT, M)
            residual, bound = extremality._membership(Y, YT, M)
            assert 0.98 < residual / bound < 1 and 0.98 < residual_old / bound_old < 1
            assert is_extreme_in_T(X).dim_intersection > 1

    @staticmethod
    def count_rules(monkeypatch, names, modules):
        """Wrap the linalg rules names wherever modules hold them; the list
        returned collects (name, id of the argument) per call."""
        seen = []
        for name in names:
            rule = getattr(linalg, name)

            def counted(A, rule=rule, name=name):
                seen.append((name, id(A)))
                return rule(A)

            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        return seen

    def test_each_decision_once_per_state_in_a_grid_op(self, monkeypatch):
        """A paper_grid op makes each decision at most once per state: the
        rules see each spectrum once, and unit_scaled runs once on an extreme
        X, for its generator, and never on any other op."""
        seen = self.count_rules(monkeypatch, ("range_mask", "spectrum_is_psd", "unit_scaled"),
                                (linalg, states_module, extremality))
        for X in self.decided_states():
            seen.clear()
            is_ppt(X)
            state_type(X)
            face_of(X)
            report = is_extreme_in_T(X)
            assert len(seen) == len(set(seen))
            # a rho is its own partial transpose: one state, one decision each
            states = 1 if partial_transpose(X) is X else 2
            assert sum(name == "range_mask" for name, _ in seen) == states
            assert sum(name == "spectrum_is_psd" for name, _ in seen) == states
            scaled = [key for key in seen if key[0] == "unit_scaled"]
            assert scaled == ([("unit_scaled", id(X.data))] if report.is_extreme else [])

    def test_consumers_reuse_each_states_decisions(self, monkeypatch, capsys):
        """is_ppt, state_type, face_of, is_interior_of_T and is_extreme_in_T,
        each called twice on one state, apply range_mask and spectrum_is_psd
        once per state between them: they read the cached decisions.
        pairing, verify_product_decomposition, block_positivity_sample and
        state kernel keep nothing of a state: each call scales its data, or
        masks its spectrum, once."""
        seen = self.count_rules(monkeypatch, ("range_mask", "spectrum_is_psd", "unit_scaled"),
                                (linalg, states_module, extremality, maps, cli))
        for X in (rho(2, math.pi / 6), sigma(2, math.pi / 6), sigma(2, 2.0)):
            seen.clear()
            for decide in (is_ppt, state_type, face_of, is_interior_of_T, is_extreme_in_T):
                decide(X)
                decide(X)
            spectra = {id(Y.spectrum[0]) for Y in (X, partial_transpose(X))}
            assert sorted(key for key in seen if key[0] != "unit_scaled") == sorted(
                (name, i) for name in ("range_mask", "spectrum_is_psd") for i in spectra)
        X, phi = rho(1, math.pi), maps.phi_theta_t(1.0, 1.5)
        monkeypatch.setattr(cli, "_state_from_args", lambda args: (X, math.pi))
        # the watched arrays stay alive, so no other argument shares their ids
        data, choi, spectrum = (("unit_scaled", id(X.data)), ("unit_scaled", id(phi.choi.data)),
                                ("range_mask", id(X.spectrum[0])))
        calls = (
            (lambda: maps.pairing(X, phi), [data, choi]),
            (lambda: verify_product_decomposition(X, product_decomposition_rho_1_pi()), [data]),
            (lambda: maps.block_positivity_sample(phi, samples=20, seed=1), [choi]),
            (lambda: cli.main(["state", "kernel", "--family", "rho", "--b", "1", "--theta", "pi"]),
             [spectrum]),
        )
        for call, keys in calls:
            seen.clear()
            call()
            call()
            assert sorted(key for key in seen if key in (data, choi, spectrum)) == sorted(2 * keys)
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["dim"] == 5


class TestRecordEquality:
    """The records that hold arrays (a state, a face, a decomposable spec)
    compare and hash by identity, so the records that hold them compare and
    hash without raising."""

    def test_identity(self):
        X, Y = rho(2, math.pi / 6), rho(2, math.pi / 6)
        pairs = [(X, Y), (face_of(X), face_of(X)),
                 (maps.trace_map_decomposition_33(), maps.trace_map_decomposition_33()),
                 (is_extreme_in_T(X), is_extreme_in_T(X)), (maps.ChoiMap(X), maps.ChoiMap(Y))]
        for a, b in pairs:
            assert a == a and a != b
            assert a in {a} and b not in {a}
            assert hash(a) == hash(a)
        assert maps.ChoiMap(X) == maps.ChoiMap(X)


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

    @pytest.mark.parametrize("b", [1e-5, 1e5, 1e8])
    def test_verify_appendix_far_from_b_one(self, b):
        # the bases hold b^2 next to 1: the span ranks unit-scale each element
        # and each membership residual is relative to its element's norm
        # (the ranks read 14/14, 13/14 and 13/14 without, the residuals up to 9.5)
        rep = verify_appendix(b, 0.3)
        assert (rep.x_span_rank, rep.y_span_rank) == (25, 25)
        assert rep.x_membership_max_residual <= 1e-8
        assert rep.y_membership_max_residual <= 1e-8

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

    # Y_i = sign * X_j^Gamma bitwise, as (i, j, sign); rho equals rho^Gamma,
    # so the printed Y list re-lists the X list partially transposed.  Y23
    # and Y24 have no such partner.
    Y_FROM_X_GAMMA = [
        (0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, -1),
        (4, 6, 1), (5, 4, 1), (6, 5, 1),
        (7, 7, -1), (8, 12, -1), (9, 10, 1), (10, 11, -1), (11, 8, -1), (12, 9, 1),
        (13, 13, -1), (14, 14, -1), (15, 15, 1), (16, 16, -1), (17, 18, -1),
        (18, 17, 1), (19, 19, 1), (20, 21, 1), (21, 22, -1), (22, 23, -1),
    ]

    @pytest.mark.parametrize("b", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_y_is_x_partially_transposed(self, b):
        # span(Y) lies inside span(X^Gamma); both shrink at theta = 0 and pi,
        # and Y alone at theta = pi/2 and 3pi/2
        want = {0: (16, 16, 16), 12: (16, 16, 16), 6: (24, 25, 25), 18: (24, 25, 25)}
        for k in range(24):
            th = k * math.pi / 12
            xg = [pt_oracle(BipartiteMatrix(3, 3, X)) for X in appendix_basis_X(b, th)]
            ys = appendix_basis_Y(b, th)
            for i, j, sign in self.Y_FROM_X_GAMMA:
                assert np.array_equal(ys[i], sign * xg[j]), (k, i)
            ranks = (basis_span_rank(ys), basis_span_rank(xg), basis_span_rank(ys + xg))
            assert ranks == want.get(k, (25, 25, 25)), k

    def test_hermitian(self):
        for M in appendix_basis_X(1.7, 0.9) + appendix_basis_Y(1.7, 0.9):
            assert np.max(np.abs(M - M.conj().T)) <= 1e-12


def coordinate_span_rank(mats):
    """The span rank as first read: the spectrum rule on the singular values
    of the Herm(d) coordinates of the unit-scaled, hermiticity-checked stack."""
    return numerical_rank(hermitian_to_real_vector(unit_scaled(mats)[0]))


class TestBasisSpanRank:
    """basis_span_rank reads the span off the real entries of the unit-scaled
    stack, an isometric image of its Herm(d) coordinates."""

    def test_one_svd_and_no_hermiticity_check(self, monkeypatch):
        calls = []
        svd, check = np.linalg.svd, linalg.as_hermitian

        def counted_svd(*args, **kwargs):
            calls.append("svd")
            return svd(*args, **kwargs)

        def counted_check(A):
            calls.append("as_hermitian")
            return check(A)

        xs = appendix_basis_X(2.0, math.pi / 6)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(linalg, "as_hermitian", counted_check)
        assert basis_span_rank(xs) == 25
        assert calls == ["svd"]

    @pytest.mark.parametrize("b", [1e-8, 1e-3, 0.25, 1.0, 4.0, 1e3, 1e8])
    def test_matches_the_coordinate_rank_on_appendix_stacks(self, b):
        # the multiples of pi/12 include the angles where the spans shrink
        for k in range(-24, 25):
            xs, ys = appendix_basis_X(b, k * math.pi / 12), appendix_basis_Y(b, k * math.pi / 12)
            for mats in (xs, ys, xs + ys):
                assert basis_span_rank(mats) == coordinate_span_rank(mats), (b, k)

    def test_matches_the_coordinate_rank_with_a_planted_deficit(self):
        # real combinations of r random hermitian generators, elements of
        # sizes 2^-40 to 2^40, span r dimensions
        rng = np.random.default_rng(31)
        for d in (2, 3, 5, 9):
            for _ in range(8):
                k = int(rng.integers(1, d * d + 4))
                r = int(rng.integers(0, min(k, d * d) + 1))
                A = rng.normal(size=(r, d, d)) + 1j * rng.normal(size=(r, d, d))
                gens = (A + np.swapaxes(A, 1, 2).conj()) / 2
                mats = np.einsum("kr,rab->kab", rng.normal(size=(k, r)), gens)
                mats *= 2.0 ** rng.integers(-40, 41, size=k)[:, None, None]
                assert basis_span_rank(mats) == coordinate_span_rank(mats) == r, (d, k, r)

    @pytest.mark.parametrize("j", [-300, 300])
    def test_rescaling_each_element(self, j):
        # elements alternately rescaled by 2^j and 2^-j keep the rank
        for b, th in ((2.0, math.pi / 6), (0.5, 0.0), (4.0, math.pi / 2)):
            xs, ys = appendix_basis_X(b, th), appendix_basis_Y(b, th)
            for mats in (xs, ys, xs + ys):
                scaled = [M * 2.0 ** (j if i % 2 else -j) for i, M in enumerate(mats)]
                assert basis_span_rank(scaled) == basis_span_rank(mats), (b, th)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0, math.inf)])
    def test_non_finite_entry_rejected(self, bad):
        mats = np.array(appendix_basis_X(2.0, 0.3))
        mats[3, 1, 2] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            basis_span_rank(mats)

    @pytest.mark.parametrize("mats", [np.eye(3), [], np.zeros((2, 2, 3, 3))], ids=["matrix", "empty", "4-d"])
    def test_rejects_what_is_not_a_stack(self, mats):
        with pytest.raises(ValueError, match="expected a stack of matrices"):
            basis_span_rank(mats)

    def test_non_hermitian_stack_reads_its_real_span(self):
        E = np.zeros((2, 2), dtype=complex)
        E[0, 1] = 1.0
        assert basis_span_rank([E, 1j * E, (1 + 1j) * E]) == 2
        assert basis_span_rank([E, E.T, 1j * E]) == 3


FORMULAS = [(appendix_basis_X, appendix_basis_X_formula), (appendix_basis_Y, appendix_basis_Y_formula)]


def basis_outcome(f, b, theta):
    try:
        return np.array(f(b, theta))
    except (ValueError, NumericalError) as exc:
        return type(exc)


class TestAppendixTermTables:
    """The term tables against the appendix formulas, built one dense matrix
    unit at a time (tests/oracles.py)."""

    @pytest.mark.parametrize("b", [0.25, 0.5, 1.0, 2.0, 4.0, 1e-150, 1e150])
    def test_match_the_formulas(self, b):
        for k in range(24):
            th = k * math.pi / 12
            for table, formula in FORMULAS:
                got, want = np.array(table(b, th)), np.array(formula(b, th))
                top = np.abs(want).max(axis=(1, 2))
                assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 4 * np.spacing(top)), (b, k)
                assert np.array_equal(got, np.swapaxes(got, 1, 2).conj())

    def test_one_unit_term_per_entry(self):
        # at b = 1, theta = 0 every coefficient is a unit: 174 terms per basis
        for table, _ in FORMULAS:
            M = np.array(table(1.0, 0.0))
            assert np.count_nonzero(M) == 174
            assert set(M[M != 0].tolist()) <= {1, -1, 1j, -1j}

    @pytest.mark.parametrize("b,theta", [(0.0, 0.3), (-1.0, 0.3), (-math.inf, 0.3), (2.0, math.inf),
                                         (2.0, -math.inf), (2.0, math.nan), (1e155, 0.3),
                                         (1e-155, 0.3), (1e-160, 0.3), (1e-170, 0.3), (1e200, math.nan)])
    def test_same_errors(self, b, theta):
        for table, formula in FORMULAS:
            want = basis_outcome(formula, b, theta)
            assert want in (ValueError, NumericalError)
            assert basis_outcome(table, b, theta) is want

    @pytest.mark.parametrize("b,theta", ZERO_ARC + [(1e-60, 0.3), (1e60, 0.3), (1e-150, 0.3), (1e150, 0.3)])
    def test_verify_appendix_reports_the_same(self, b, theta, monkeypatch):
        got = verify_appendix(b, theta)
        monkeypatch.setattr(extremality, "appendix_basis_X", appendix_basis_X_formula)
        monkeypatch.setattr(extremality, "appendix_basis_Y", appendix_basis_Y_formula)
        want = verify_appendix(b, theta)
        assert (got.x_span_rank, got.y_span_rank) == (want.x_span_rank, want.y_span_rank)
        assert got.x_combination_residual == want.x_combination_residual
        assert got.y_combination_residual_last_x7 == want.y_combination_residual_last_x7
        assert got.y_combination_residual_last_y7 == want.y_combination_residual_last_y7
        for r, r0 in ((got.x_membership_max_residual, want.x_membership_max_residual),
                      (got.y_membership_max_residual, want.y_membership_max_residual)):
            assert abs(r - r0) <= 1e-14 * max(b * b, 1 / (b * b))

    @pytest.mark.parametrize("b", [1e-150, 1e100, 1e150])
    def test_verify_appendix_over_the_bases_range(self, b):
        # the residuals are taken on unit-scaled stacks, so every b whose
        # b^2 and 1/b^2 the bases hold reports; they read 1.0 here because
        # rho's circulant eigenvalues fall under CUTOFF against b + 1/b, a
        # misread rank of rho that this check does not correct (ROADMAP item 12)
        rep = verify_appendix(b, 0.3)
        assert all(map(math.isfinite, (rep.x_membership_max_residual, rep.y_membership_max_residual,
                                       rep.x_combination_residual, rep.y_combination_residual_last_x7,
                                       rep.y_combination_residual_last_y7)))
        assert rep.x_span_rank == basis_span_rank(appendix_basis_X(b, 0.3))
        assert rep.y_span_rank == basis_span_rank(appendix_basis_Y(b, 0.3))


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
