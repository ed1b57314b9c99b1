import math

import numpy as np
import pytest

from pptgeo.krawtchouk import (
    KrawtchoukSolution,
    krawtchouk_sum,
    nu_lower_bound_D,
    nu_summary,
    solve,
)
from pptgeo.states import combine, is_interior_of_S_sufficient, is_interior_of_T, product_state, state_type


def brute_force_sum(k, l, m):
    total = 0
    for r in range(m):
        s = m - 1 - r
        if r <= k and s <= l:
            total += (-1) ** r * math.comb(k, r) * math.comb(l, s)
    return total


class TestSum:
    def test_matches_brute_force(self):
        for m in range(1, 7):
            for k in range(10):
                for l in range(10):
                    assert krawtchouk_sum(k, l, m) == brute_force_sum(k, l, m)

    def test_m1_always_one(self):
        for k in range(5):
            for l in range(5):
                assert krawtchouk_sum(k, l, 1) == 1

    def test_known_zero(self):
        assert krawtchouk_sum(1, 3, 3) == 0
        assert krawtchouk_sum(3, 1, 3) == 0
        assert krawtchouk_sum(2, 2, 3) != 0

    def test_symmetry_for_odd_m(self):
        # swapping (k, l) flips the sign by (-1)^(m-1)
        for m in (1, 3, 5):
            for k in range(8):
                for l in range(8):
                    assert krawtchouk_sum(k, l, m) == krawtchouk_sum(l, k, m)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            krawtchouk_sum(-1, 0, 2)
        with pytest.raises(ValueError):
            krawtchouk_sum(0, 0, 0)

    def test_matches_brute_force_at_random_orders(self):
        # the running binomials against every term of the definition, with
        # orders m past k + l + 1 (an empty sum) and past either of k, l
        rng = np.random.default_rng(5)
        for k, l, m in zip(rng.integers(0, 90, 500), rng.integers(0, 90, 500), rng.integers(1, 120, 500)):
            k, l, m = int(k), int(l), int(m)
            assert krawtchouk_sum(k, l, m) == brute_force_sum(k, l, m), (k, l, m)

    def test_exact_big_integers(self):
        # large arguments stay exact (no floats anywhere)
        v = krawtchouk_sum(60, 60, 5)
        assert isinstance(v, int)
        assert v == brute_force_sum(60, 60, 5)


class TestSolve:
    def test_3_3(self):
        sols = [(s.k, s.l) for s in solve(3, 3)]
        assert sols == [(1, 3), (3, 1)]

    def test_2_n_parity(self):
        for n in range(2, 20):
            sols = solve(2, n)
            if n % 2 == 0:
                assert [(s.k, s.l) for s in sols] == [(n // 2, n // 2)]
            else:
                assert sols == []

    def test_m3_solvable_iff_mu_mu_plus_2(self):
        targets = {mu * (mu + 2) for mu in range(1, 12)}
        for n in range(2, 100):
            assert bool(solve(3, n)) == (n in targets), n

    def test_recurrence_matches_brute_force_scan(self):
        # solve's three-term recurrence finds exactly the zeros of the
        # one-value definition along k + l = m + n - 2
        for m in range(2, 13):
            for n in range(2, 81):
                total = m + n - 2
                want = [(k, total - k) for k in range(total + 1) if krawtchouk_sum(k, total - k, m) == 0]
                assert [(s.k, s.l) for s in solve(m, n)] == want, (m, n)

    def test_large_symmetric_scan(self):
        # at m = n the zeros are exactly the odd k; each is checked by its
        # nonzero terms alone, so 499 checks of up to 500 terms stay well
        # under a second
        assert [(s.k, s.l) for s in solve(500, 500)] == [(k, 998 - k) for k in range(1, 998, 2)]

    def test_solution_validation(self):
        with pytest.raises(ValueError):
            KrawtchoukSolution(2, 2, 3, 3)  # nonzero sum
        with pytest.raises(ValueError):
            KrawtchoukSolution(1, 2, 3, 3)  # wrong total

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            solve(1, 5)


class TestNu:
    def test_lower_bound(self):
        assert nu_lower_bound_D(3, 3) == 4
        assert nu_lower_bound_D(2, 2) == 2
        assert nu_lower_bound_D(2, 3) == 4
        assert nu_lower_bound_D(3, 4) == 6  # 3x4 has no solution

    def test_2n_exact(self):
        assert [nu_summary(2, n)["D"]["value"] for n in (2, 3, 4, 5)] == [2, 4, 4, 6]

    def test_2n_consistent_with_bound(self):
        for n in range(2, 15):
            want = n + 1 if n % 2 else n
            assert nu_summary(2, n)["D"]["value"] == nu_lower_bound_D(2, n) == want

    def test_summary_symmetric_in_m_and_n(self):
        # swapping the tensor factors maps D(M_m, M_n) onto D(M_n, M_m)
        for m in range(2, 13):
            for n in range(2, 13):
                s, t = nu_summary(m, n), nu_summary(n, m)
                assert s["D"] == t["D"]
                assert (s["S"], s["T"], s["P"]) == (t["S"], t["T"], t["P"])
        assert nu_summary(3, 2)["D"] == {"value": 4, "lower_bound": 4, "status": "exact"}
        assert nu_summary(5, 2)["D"] == {"value": 6, "lower_bound": 6, "status": "exact"}

    def test_summary_3_3(self):
        s = nu_summary(3, 3)
        assert s["S"] == 9
        assert s["T"] == 2
        assert s["P"] == 2
        assert s["D"] == {"value": 4, "lower_bound": 4, "status": "exact"}

    @pytest.mark.parametrize("m,n,t,p", [(2, 2, 4, 2), (2, 3, 6, 4), (3, 2, 6, 4)])
    def test_summary_small_t_and_p(self, m, n, t, p):
        # PPT equals separable there, so T = S = mn; every positive map is
        # decomposable there, so P = D
        s = nu_summary(m, n)
        assert (s["S"], s["T"], s["P"]) == (m * n, t, p)
        assert s["D"] == {"value": p, "lower_bound": p, "status": "exact"}

    def test_summary_2_4(self):
        s = nu_summary(2, 4)
        assert s["S"] == 8
        assert s["T"] is None and s["P"] is None
        assert s["D"]["value"] == 4
        assert s["D"]["status"] == "exact"

    def test_summary_4_4_bound_only(self):
        s = nu_summary(4, 4)
        assert s["D"]["value"] is None
        assert s["D"]["status"] == "bound"
        assert s["D"]["lower_bound"] >= 6

    def test_invalid(self):
        with pytest.raises(ValueError):
            nu_summary(1, 3)
        with pytest.raises(ValueError):
            nu_summary(2, 1)


class TestSeparableNumber:
    """S = mn: the mn product states |ij><ij| sum to an interior point of the
    separable body, and no mn - 1 of them do."""

    SIZES = [(2, 2), (2, 3), (3, 3), (2, 4)]

    @staticmethod
    def basis_products(m, n):
        return [product_state(np.eye(m)[i], np.eye(n)[j]) for i in range(m) for j in range(n)]

    @pytest.mark.parametrize("m,n", SIZES)
    def test_all_mn_products_reach_the_interior(self, m, n):
        parts = self.basis_products(m, n)
        assert len(parts) == nu_summary(m, n)["S"] == m * n
        X = combine(parts, np.full(m * n, 1 / (m * n)))
        assert is_interior_of_S_sufficient(X)
        assert is_interior_of_T(X)

    @pytest.mark.parametrize("m,n", SIZES)
    def test_any_mn_minus_one_products_stay_on_the_boundary(self, m, n):
        parts = self.basis_products(m, n)
        for left_out in range(m * n):
            kept = parts[:left_out] + parts[left_out + 1:]
            X = combine(kept, np.full(m * n - 1, 1 / (m * n - 1)))
            assert state_type(X).p == m * n - 1
            assert not is_interior_of_T(X)
            assert not is_interior_of_S_sufficient(X)

    @pytest.mark.parametrize("m,n", SIZES)
    def test_summary_shape(self, m, n):
        s = nu_summary(m, n)
        assert list(s) == ["m", "n", "S", "T", "P", "D"]
        assert list(s["D"]) == ["value", "lower_bound", "status"]
        assert (s["m"], s["n"], s["S"]) == (m, n, m * n)
