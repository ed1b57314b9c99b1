import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pptgeo.cli as cli
import pptgeo.extremality as extremality
import pptgeo.linalg as linalg
import pptgeo.maps as maps
import pptgeo.states as states_module
from oracles import (
    _eigh_split,
    appendix_basis_X_formula,
    appendix_basis_Y_formula,
    d_side_face_dim,
    eigh_oracle,
    kernel_intersection_dim_oracle,
    phi_D_operator,
    phi_E_operator,
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
    hermitian_basis,
    hermitian_to_real_vector,
    numerical_rank,
)
from pptgeo.seesaw import _model_map
from pptgeo.states import (
    BipartiteMatrix,
    StateType,
    _macaulay_plan,
    _minor_plan,
    combine,
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
        states = grid_states() + near_boundary_states()
        types = [state_type(X) for X in states]
        states += [partial_transpose(X) for X, t in zip(states, types) if t.q < t.p]
        assert len(states) == 240 + 16 + 128
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

        monkeypatch.setattr(extremality, "_pt", pt_second_factor)
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
        """A paper_grid op checks hermiticity once per state built: rho (or
        sigma), sigma^Gamma, and the generator of an extreme rho."""
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
        assert seen == {("rho", True, 2), ("rho", False, 1), ("sigma", False, 2)}

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
        minors = [a for plan in (_minor_plan(3, 3, 2), _minor_plan(4, 3, 3))
                  for level in plan for a in level]
        macaulay = [a for folds, *rest in (_macaulay_plan(4, 3, 2), _macaulay_plan(3, 3, 3))
                    for a in (*folds, *rest)]
        plans = (*minors, *macaulay, *_model_map(3, 3))
        cached = (X._range_mask, X._unit_scaled[0], BipartiteMatrix(2, 2, np.zeros((4, 4)))._unit_scaled[0])
        for arr in (w, V, hermitian_basis(5), *plans, *cached):
            with pytest.raises(ValueError):
                arr[0] = 0

    @staticmethod
    def decided_states():
        """The grid, b = 1e-3 and 7.3 off it, and each of them rescaled by 2**300 and 2**-300."""
        states = grid_states() + [family(b, k * math.pi / 12) for family in (rho, sigma)
                                  for b in (1e-3, 7.3) for k in range(24)]
        return states + [BipartiteMatrix(3, 3, X.data * 2.0**e) for X in states for e in (300, -300)]

    def test_cached_decisions_follow_the_rules(self):
        """The cached range mask and PSD verdict are the linalg rules on the
        oracle's spectra of X and of an entrywise X^Gamma, and agree with the
        oracle's own cut; the cached scaling is unit_scaled of the data."""
        for X in self.decided_states():
            for Y, H in ((X, X.data), (partial_transpose(X), pt_oracle(X))):
                w = _eigh_split(H)[0][::-1]
                _, psd, rank, _, _ = eigh_oracle(H)
                assert np.array_equal(Y._range_mask, linalg.range_mask(w))
                assert np.count_nonzero(Y._range_mask) == rank
                assert Y._is_psd == linalg.spectrum_is_psd(w) == psd
                U, e = linalg.unit_scaled(Y.data)
                assert Y._unit_scaled[1] == e
                assert Y._unit_scaled[0].tobytes() == U.tobytes()

    def test_each_decision_once_per_state_in_a_grid_op(self, monkeypatch):
        """A paper_grid op makes each decision at most once per state: the
        rules see each spectrum, and unit_scaled each data array, once."""
        seen = []
        for name in ("range_mask", "spectrum_is_psd", "unit_scaled"):
            rule = getattr(linalg, name)

            def counted(A, rule=rule, name=name):
                seen.append((name, id(A)))
                return rule(A)

            for module in (linalg, states_module, extremality):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        for X in self.decided_states():
            seen.clear()
            is_ppt(X)
            state_type(X)
            face_of(X)
            is_extreme_in_T(X)
            assert len(seen) == len(set(seen))
            # a rho is its own partial transpose: one state, one decision each
            states = 1 if partial_transpose(X) is X else 2
            assert sum(name == "range_mask" for name, _ in seen) == states
            assert sum(name == "spectrum_is_psd" for name, _ in seen) == states
            # the membership check scales Y, and normalize reuses that for an
            # extreme rho, whose Y is X itself
            assert sum(name == "unit_scaled" for name, _ in seen) == 1

    def test_consumers_reuse_each_states_decisions(self, monkeypatch, capsys):
        """pairing, verify_product_decomposition, block_positivity_sample and
        state kernel, each called twice on one state, scale its data and
        mask its spectrum once between them: they read the cached decisions."""
        seen = []
        for name in ("range_mask", "unit_scaled"):
            rule = getattr(linalg, name)

            def counted(A, rule=rule, name=name):
                seen.append((name, id(A)))
                return rule(A)

            for module in (linalg, states_module, extremality, maps, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        X, phi = rho(1, math.pi), maps.phi_theta_t(1.0, 1.5)
        monkeypatch.setattr(cli, "_state_from_args", lambda args: (X, math.pi))
        calls = (
            lambda: maps.pairing(X, phi),
            lambda: verify_product_decomposition(X, product_decomposition_rho_1_pi()),
            lambda: maps.block_positivity_sample(phi, samples=20, seed=1),
            lambda: cli.main(["state", "kernel", "--family", "rho", "--b", "1", "--theta", "pi"]),
        )
        for call in calls:
            call()
            call()
        # the watched arrays stay alive, so no other argument shares their ids
        watched = {("unit_scaled", id(X.data)), ("unit_scaled", id(phi.choi.data)),
                   ("range_mask", id(X.spectrum[0]))}
        assert sorted(key for key in seen if key in watched) == sorted(watched)
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["dim"] == 5


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
        def report():
            try:
                return verify_appendix(b, theta)
            except NumericalError as exc:
                return str(exc)

        got = report()
        monkeypatch.setattr(extremality, "appendix_basis_X", appendix_basis_X_formula)
        monkeypatch.setattr(extremality, "appendix_basis_Y", appendix_basis_Y_formula)
        want = report()
        if isinstance(want, str):
            # its norms square the entries: b^4 leaves the float range
            assert got == want and abs(math.log10(b)) > 77
            return
        assert (got.x_span_rank, got.y_span_rank) == (want.x_span_rank, want.y_span_rank)
        assert got.x_combination_residual == want.x_combination_residual
        assert got.y_combination_residual_last_x7 == want.y_combination_residual_last_x7
        assert got.y_combination_residual_last_y7 == want.y_combination_residual_last_y7
        for r, r0 in ((got.x_membership_max_residual, want.x_membership_max_residual),
                      (got.y_membership_max_residual, want.y_membership_max_residual)):
            assert abs(r - r0) <= 1e-14 * max(b * b, 1 / (b * b))


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
