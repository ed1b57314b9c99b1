"""End-to-end acceptance suite.

Each test evaluates one numbered criterion, prints a single pass/fail line,
and then asserts, so a full run (`pytest -s tests/test_acceptance.py`) reads
as a 12-line scorecard.
"""
import math

import numpy as np

from oracles import (
    eigh_oracle,
    hermitian_to_real_vector,
    kernel_intersection_dim_oracle,
    numerical_rank,
    phi_D_operator,
    phi_E_operator,
)
from pptgeo.extremality import (
    appendix_basis_X,
    appendix_basis_Y,
    basis_span_rank,
    face_of,
    is_extreme_in_T,
    verify_appendix,
    verify_combination_identity,
)
from pptgeo.krawtchouk import nu_summary, solve
from pptgeo.linalg import ROUNDOFF
from pptgeo.maps import (
    DecomposableSpec,
    antipodal_sum_choi,
    block_positivity_sample,
    decomposable_map,
    pairing,
    phi_theta_t,
    product_pairing,
    trace_map_decomposition_2n,
    trace_map_decomposition_33,
)
from pptgeo.states import (
    BipartiteMatrix,
    StateType,
    arc_of,
    Arc,
    combine,
    conjugate_by_phase_unitary,
    is_interior_of_T,
    kernel_vectors_w,
    p_theta,
    partial_transpose,
    product_decomposition_rho_1_pi,
    product_state,
    rho,
    sigma,
    state_type,
    verify_product_decomposition,
)

B_GRID = [0.25, 0.5, 1.0, 2.0, 4.0]
THETA_GRID = [k * math.pi / 12 for k in range(24)]


def report(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num} failed: {description}"


def min_eig(M: np.ndarray) -> float:
    return float(eigh_oracle(M)[0])


def test_criterion_01_ppt_grid():
    worst = math.inf
    for b in B_GRID:
        for th in THETA_GRID:
            for X in (rho(b, th), sigma(b, th)):
                worst = min(worst, min_eig(X.data), min_eig(partial_transpose(X).data))
    report(1, f"PPT grid 5x24, min eigenvalue {worst:.2e} >= -1e-9", worst >= -1e-9)


def test_criterion_02_type_table():
    ok = True
    for b in B_GRID:
        for th in THETA_GRID:
            k = round(th / (math.pi / 3))
            boundary = abs(th - k * math.pi / 3) <= 1e-12
            if boundary and k % 2 == 1:
                want_r, want_s = StateType(4, 4), StateType(7, 6)
            else:
                want_r, want_s = StateType(5, 5), StateType(8, 6)
            ok &= state_type(rho(b, th)) == want_r
            ok &= state_type(sigma(b, th)) == want_s
    report(2, "type table (5,5)/(4,4) and (8,6)/(7,6) exact on the grid", ok)


def test_criterion_03_extremality():
    ok = True
    thetas = [math.pi / 12, -math.pi / 12, math.pi / 4, -math.pi / 4,
              5 * math.pi / 12, 7 * math.pi / 12]
    for b in (0.5, 1.0, 2.0):
        for th in thetas:
            X = rho(b, th)
            rep = is_extreme_in_T(X)
            ok &= (rep.dim_ker_D, rep.dim_ker_E, rep.dim_intersection) == (25, 25, 1)
            ok &= rep.is_extreme and rep.generator is not None
            if rep.generator is not None:
                ref = X.data / np.trace(X.data).real
                ok &= bool(np.max(np.abs(rep.generator.data - ref)) <= 1e-7)
    report(3, "extremality dims (25,25,1) with proportional generator, 18 states", ok)


def test_criterion_04_appendix():
    b, th = 2.0, math.pi / 6
    face = face_of(rho(b, th))
    op_D = phi_D_operator(face.D)
    op_E = phi_E_operator(face.E, 3, 3)
    xs = appendix_basis_X(b, th)
    ys = appendix_basis_Y(b, th)
    x_res = max(np.linalg.norm(op_D @ hermitian_to_real_vector(M)) for M in xs)
    y_res = max(np.linalg.norm(op_E @ hermitian_to_real_vector(M)) for M in ys)
    x_rank = basis_span_rank(xs)
    y_rank = basis_span_rank(ys)
    ident = verify_combination_identity(b, th)
    # the direct residuals of verify_appendix agree with the operator oracle
    app = verify_appendix(b, th)
    ok = (x_res <= 1e-9 and y_res <= 1e-9 and x_rank == 25
          and ident.x_residual <= 1e-10
          and abs(app.x_membership_max_residual - x_res) <= 1e-12
          and abs(app.y_membership_max_residual - y_res) <= 1e-12
          and (app.x_span_rank, app.y_span_rank) == (x_rank, y_rank))
    report(4, f"appendix: memberships {x_res:.1e}/{y_res:.1e}, X-span {x_rank}, "
              f"Y-span {y_rank}, combination residual {ident.x_residual:.1e}; "
              f"Y variants (last term as 7th X / as 7th Y): "
              f"{ident.y_residual_last_x7:.3f} / {ident.y_residual_last_y7:.1e}", ok)


def test_criterion_05_interior_phenomenon():
    inner = combine([rho(2, math.pi / 6), rho(1, 5 * math.pi / 6)], [0.5, 0.5])
    edge = combine([rho(2, math.pi / 6), rho(1, math.pi / 12)], [0.5, 0.5])
    t_in = state_type(inner)
    t_edge = state_type(edge)
    ok = (t_in == StateType(9, 9) and is_interior_of_T(inner)
          and t_edge.p <= 8 and not is_interior_of_T(edge))
    report(5, f"two-state interior: cross-arc type {(t_in.p, t_in.q)}, "
              f"same-arc rank {t_edge.p} <= 8", ok)


def test_criterion_06_antipodal():
    rng = np.random.default_rng(0)
    worst_off = 0.0
    ok = True
    for _ in range(20):
        b, c = rng.uniform(0.3, 3.0, size=2)
        th = rng.uniform(-math.pi, math.pi)
        Y = 0.5 * (rho(b, th).data + rho(c, th + math.pi).data)
        off = np.max(np.abs(Y - np.diag(np.diag(Y))))
        worst_off = max(worst_off, off)
        ok &= off <= 1e-15 * np.max(np.abs(Y))
        ok &= bool(np.all(np.diag(Y).real > 0))
    th = 0.9
    target = p_theta(th) + p_theta(th + math.pi)
    b = (target + math.sqrt(target * target - 4)) / 2
    dev = np.max(np.abs(rho(b, th).data + rho(1 / b, th + math.pi).data
                        - target * np.eye(9)))
    ok &= dev <= 1e-12
    report(6, f"antipodal sums diagonal (max off {worst_off:.1e}); scalar "
              f"identity within {dev:.1e}", ok)


def test_criterion_07_product_decomposition():
    parts = product_decomposition_rho_1_pi()
    good = verify_product_decomposition(rho(1, math.pi), parts)
    total = sum(w * np.outer(np.kron(xi, eta), np.kron(xi, eta).conj())
                for xi, eta, w in parts)
    X = rho(2, math.pi).data
    scale = np.trace(X).real / np.trace(total).real
    residual = np.linalg.norm(scale * total - X) / np.linalg.norm(X)
    ok = good and residual > 0.1
    report(7, f"four-vector decomposition exact for b=1, residual {residual:.3f} "
              f"for b=2", ok)


def test_criterion_08_kernel_vectors():
    worst = 0.0
    for b in B_GRID:
        for th in THETA_GRID:
            R = rho(b, th)
            for w in kernel_vectors_w(b, th):
                worst = max(worst, np.linalg.norm(R.data @ w) / np.linalg.norm(w))
    report(8, f"kernel vectors over the grid, max residual {worst:.1e}", worst <= 1e-9)


def test_criterion_09_covariance():
    worst = 0.0
    for b in B_GRID:
        for th in THETA_GRID:
            got = conjugate_by_phase_unitary(rho(b, th)).data
            worst = max(worst, np.max(np.abs(got - rho(b, th - 2 * math.pi / 3).data)))
    report(9, f"phase-unitary covariance, max deviation {worst:.1e}", worst <= 1e-12)


def criterion_10_instances():
    """The 100 seeded (spec, xi, eta) draws on which criterion 10 compares
    the product pairing with the Choi pairing."""
    rng = np.random.default_rng(1)
    for _ in range(100):
        spec = DecomposableSpec(
            tuple(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                  for _ in range(rng.integers(1, 3))),
            tuple(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                  for _ in range(rng.integers(1, 3))),
        )
        xi = rng.normal(size=3) + 1j * rng.normal(size=3)
        eta = rng.normal(size=3) + 1j * rng.normal(size=3)
        yield spec, xi, eta


def test_criterion_10_maps():
    C33 = decomposable_map(trace_map_decomposition_33()).choi.data
    ok = np.array_equal(C33, np.eye(9).astype(complex))
    for mu in (1, 2, 3, 4):
        C = decomposable_map(trace_map_decomposition_2n(mu)).choi.data
        ok &= np.array_equal(C, np.eye(4 * mu).astype(complex))
    th = math.pi / 6
    phi = antipodal_sum_choi(th, 1.0, 1.0)
    Cd = phi.choi.data
    ok &= np.max(np.abs(Cd - np.diag(np.diag(Cd)))) == 0.0
    ok &= bool(np.all(np.diag(Cd).real > 0))
    # each summand reads a product zero and no certificate of non-positivity,
    # so it lies on the boundary of P (numerically; Cho, Kye & Lee 1992 prove it)
    positivity = []
    for summand in (phi_theta_t(th, 1.0), phi_theta_t(th + math.pi, 1.0)):
        v = block_positivity_sample(summand, samples=600, seed=0)
        positivity.append(v)
        ok &= abs(v) <= ROUNDOFF * np.max(np.abs(summand.choi.data))
    worst = 0.0
    for spec, xi, eta in criterion_10_instances():
        direct = product_pairing(spec, xi, eta)
        via_choi = pairing(product_state(xi, eta), decomposable_map(spec)) * (
            np.linalg.norm(xi) * np.linalg.norm(eta)) ** 2
        scale = max(1.0, abs(direct))
        worst = max(worst, abs(direct - via_choi) / scale)
    ok &= worst <= 1e-10
    report(10, f"trace-map Chois exact; antipodal Choi diagonal, summands' block "
               f"positivity {positivity[0]:.1e} / {positivity[1]:.1e}; pairing formula "
               f"max deviation {worst:.1e} over 100 instances", ok)


def test_criterion_11_krawtchouk():
    ok = True
    for n in range(2, 41):
        sols = [(s.k, s.l) for s in solve(2, n)]
        ok &= sols == ([(n // 2, n // 2)] if n % 2 == 0 else [])
    solvable = {n for n in range(2, 49) if solve(3, n)}
    ok &= solvable == {3, 8, 15, 24, 35, 48}
    s = nu_summary(3, 3)
    ok &= (s["S"], s["T"], s["P"], s["D"]["value"]) == (9, 2, 2, 4)
    report(11, "Krawtchouk parity for m=2, m=3 solvable set, nu(3,3) summary", ok)


def test_criterion_12_property_suites():
    rng = np.random.default_rng(5)
    ok = True
    # kernel dimension law for the two face operators; proper subspaces only,
    # since at d = 9 the operator degenerates to pure rounding noise and a
    # relative singular-value cutoff is meaningless
    for i in range(50):
        d = int(rng.integers(1, 9))
        A = rng.normal(size=(9, d)) + 1j * rng.normal(size=(9, d))
        Q, _ = np.linalg.qr(A)
        if i % 2 == 0:
            op = phi_D_operator(Q)
        else:
            op = phi_E_operator(Q, 3, 3)
        ok &= (81 - numerical_rank(op)) == d * d
    # partial transpose: hermitian trace-preserving involution
    for _ in range(100):
        m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        A = rng.normal(size=(m * n, m * n)) + 1j * rng.normal(size=(m * n, m * n))
        X = BipartiteMatrix(m, n, (A + A.conj().T) / 2)
        Y = partial_transpose(X)
        ok &= bool(np.max(np.abs(Y.data - Y.data.conj().T)) <= 1e-13)
        ok &= abs(np.trace(Y.data).real - np.trace(X.data).real) <= 1e-12
        ok &= bool(np.max(np.abs(partial_transpose(Y).data - X.data)) == 0.0)
    # face-coordinate solve vs. kernel-basis intersection oracle
    for b in (0.5, 1.0, 2.0):
        for th in (math.pi / 12, -math.pi / 4, 5 * math.pi / 12):
            X = rho(b, th)
            face = face_of(X)
            rep = is_extreme_in_T(X)
            oracle = kernel_intersection_dim_oracle(
                phi_D_operator(face.D), phi_E_operator(face.E, 3, 3))
            ok &= rep.dim_intersection == oracle
    report(12, "kernel dimension law, partial-transpose involution, "
               "intersection oracle agreement", ok)
