"""Values and verdicts that do not depend on the scale of the input.

Every norm and normalisation of input data goes through
``linalg.unit_scaled``, which scales by a power of two: results hold far from
unit scale, and scaling an input by 2**j scales a pairing by exactly 2**j and
leaves a product state bitwise unchanged.
"""
import json
import math
import warnings

import numpy as np
import pytest

from pptgeo.cli import main
from pptgeo.extremality import appendix_basis_X, appendix_basis_Y, verify_appendix, verify_combination_identity
from pptgeo.linalg import NumericalError, unit_scaled
from pptgeo.maps import ChoiMap, DecomposableSpec, decomposable_map, pairing, phi_theta_t
from pptgeo.seesaw import partial_minima, starts
from pptgeo.serialize import bipartite_to_json, choi_to_json
from pptgeo.states import (
    FAMILIES,
    BipartiteMatrix,
    normalize,
    product_decomposition_rho_1_pi,
    product_state,
    rho,
    verify_product_decomposition,
)
from test_acceptance import B_GRID, THETA_GRID, criterion_10_instances

SCALES = [-300, -200, -100, -7, 0, 7, 100, 200, 300]
E1 = np.array([1.0, 0.0, 0.0])


def scaled(X, factor):
    return BipartiteMatrix(X.m, X.n, factor * X.data)


@pytest.mark.parametrize("k", SCALES)
class TestAnyScale:
    def test_product_state_has_unit_trace(self, k):
        X = product_state(10.0**k * E1, [1, 1, 0])
        assert np.trace(X.data).real == pytest.approx(1.0, abs=1e-15)

    def test_product_decomposition(self, k):
        X = scaled(rho(1, math.pi), 10.0**k)
        parts = [(10.0**(k / 2) * xi, eta, w) for xi, eta, w in product_decomposition_rho_1_pi()]
        assert verify_product_decomposition(X, parts)
        assert not verify_product_decomposition(X, [(10.0**(k / 2) * E1, E1, 1.0)])

    def test_pairing(self, k):
        X, phi = rho(2, math.pi / 6), phi_theta_t(0.3, 1.0)
        want = pairing(X, phi)
        assert pairing(scaled(X, 10.0**k), phi) / 10.0**k == pytest.approx(want, rel=1e-15)


def test_normalize_near_the_range_limit():
    X = rho(1, 0.3)
    Y = normalize(scaled(X, 8e307))
    assert np.trace(Y.data).real == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(Y.data - normalize(X).data)) <= 1e-15


def test_pairing_of_far_apart_scales_is_finite():
    X = BipartiteMatrix(1, 2, np.diag([1e170, 0.0]))
    C = ChoiMap(BipartiteMatrix(1, 2, np.diag([0.0, 1e170])))
    assert pairing(X, C) == 0.0


def test_combination_identity_near_the_range_limit():
    rep = verify_combination_identity(1e154, 0.3)
    assert all(map(math.isfinite, (rep.x_residual, rep.y_residual_last_x7,
                                   rep.y_residual_last_y7)))
    assert rep.y_residual_last_x7 == pytest.approx(
        verify_combination_identity(1e100, 0.3).y_residual_last_x7, rel=1e-12)


@pytest.mark.parametrize("b", [1e154, 1e-154])
def test_combination_identity_at_the_range_edge(b):
    rep = verify_combination_identity(b, 0.3)
    assert (rep.x_residual, rep.y_residual_last_y7) == (0.0, 0.0)
    assert rep.y_residual_last_x7 == pytest.approx(0.816496580927726, rel=1e-12)


@pytest.mark.parametrize("b", [1e155, 1e-155, 1e-160, 1e200, 1e-320])
@pytest.mark.parametrize("call", [appendix_basis_X, appendix_basis_Y, verify_combination_identity,
                                  verify_appendix])
def test_appendix_beyond_the_range_edge(call, b):
    # The bases hold b^2 and 1/b^2; past 1e+-154 one of them leaves the range,
    # and at a subnormal b rho's 1/b does.  Either is decided before any
    # array overflows, so no warning is raised.
    with pytest.raises(NumericalError, match="floating-point range"):
        call(b, 0.3)


def test_product_state_rejects_non_finite_vectors():
    with pytest.raises(ValueError, match="product vectors must be finite"):
        product_state([math.inf, 0, 0], [1, 0, 0])


def test_product_decomposition_beyond_the_float_range():
    # One part's projector alone exceeds the float range; X is finite.
    assert not verify_product_decomposition(rho(1, math.pi), [(1e200 * E1, E1, 1.0)])


@pytest.mark.parametrize("state,choi,out", [
    (scaled(rho(2, math.pi / 6), 1e-200), phi_theta_t(0.3, 1.0),
     '{"pairing": 1.137171754984327e-199}'),
    (BipartiteMatrix(1, 2, np.diag([1e170, 0.0])),
     ChoiMap(BipartiteMatrix(1, 2, np.diag([0.0, 1e170]))), '{"pairing": 0.0}'),
], ids=["tiny state", "far-apart entries"])
def test_map_pair_far_from_unit_scale(capsys, tmp_path, state, choi, out):
    sp, mp_ = tmp_path / "state.json", tmp_path / "map.json"
    sp.write_text(json.dumps(bipartite_to_json(state)))
    mp_.write_text(json.dumps(choi_to_json(choi)))
    code = main(["map", "pair", "--state", str(sp), "--map", str(mp_)])
    assert code == 0
    assert capsys.readouterr().out.strip() == out


@pytest.mark.parametrize("j", [-600, 600])
class TestPowerOfTwoExactness:
    def test_grid_pairing(self, j):
        phi = phi_theta_t(0.3, 1.0)
        for family in FAMILIES.values():
            for b in B_GRID:
                for th in THETA_GRID:
                    X = family(b, th)
                    assert pairing(scaled(X, 2.0**j), phi) == math.ldexp(pairing(X, phi), j)

    def test_criterion_10_instances(self, j):
        for spec, xi, eta in criterion_10_instances():
            P = product_state(xi, eta)
            assert np.array_equal(product_state(2.0**j * xi, eta).data, P.data)
            phi = decomposable_map(spec)
            assert pairing(scaled(P, 2.0**j), phi) == math.ldexp(pairing(P, phi), j)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3)])
def test_partial_minima_scale_exactly(m, n):
    # the minima over xi of a decomposable map's unit-scaled form, for 600
    # sampled eta, scale by exactly 2^k for every m: the form is unit-scaled
    # before its xi-forms are contracted, so even 2^1023 leaves no step out
    # of the float range and raises no warning
    rng = np.random.default_rng(3)
    g = lambda: rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    C = decomposable_map(DecomposableSpec((g(),), (g(), g()))).choi.data
    Q, eta = unit_scaled(C)[0].reshape(m, n, m, n), starts(600, n, seed=0)
    want = partial_minima(Q, eta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (-600, 600, 1000, 1023):
            assert np.array_equal(partial_minima(Q * 2.0**k, eta), np.ldexp(want, k))
