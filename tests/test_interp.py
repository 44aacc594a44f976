import itertools
import random

import pytest

import dysonct.identities as identities
import dysonct.interp as interp
from dysonct.cli import RunConfig, run
from dysonct.combi import Permutation, all_pairs, all_pairsets, ell_stats
from dysonct.identities import c_w, rhs_sills, sills_lhs
from dysonct.interp import (
    Grid, _survivor_term, closed_eval, dyson_coeff_interpolated, dyson_grid,
    eval_factored, fs_factors, generic_coeff, scan_survivors,
    sills_coeff_interpolated, sills_factors, sills_grid,
)
from dysonct.mpoly import (
    MPoly, dyson_kernel, table_x, tkernel, tzero_kernel,
)
from dysonct.qpoly import IntPoly
from reference import (
    closed_eval_bookkeeping, default_grid, fs_degree_profile, fs_polynomial,
    pairset_to_perm, product, sampled_dyson_grid,
)


class TestGenericCoeff:
    def test_target_monomial_itself(self):
        t = table_x(3)
        d = (2, 0, 1)
        F = MPoly.monomial(t, {t.x_index(1): 2, t.x_index(3): 1})
        value = generic_coeff(F, d, default_grid(d))
        assert isinstance(value, IntPoly)
        assert value == IntPoly.const(1)

    def test_square_of_sum(self):
        t = table_x(2)
        s = MPoly.monomial(t, {1: 1}) + MPoly.monomial(t, {2: 1})
        F = s * s
        assert generic_coeff(F, (1, 1), default_grid((1, 1))) == IntPoly.const(2)

    def test_degree_violation(self):
        t = table_x(2)
        F = MPoly.monomial(t, {1: 3})
        with pytest.raises(ValueError):
            generic_coeff(F, (1, 1), default_grid((1, 1)))

    def test_laurent_rejected(self):
        t = table_x(1)
        F = MPoly.monomial(t, {1: -1})
        with pytest.raises(ValueError):
            generic_coeff(F, (0,), default_grid((0,)))

    def test_matches_coeff_x_on_random_instances(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randrange(1, 4)
            tab = table_x(n)
            d = tuple(rng.randrange(0, 4) for _ in range(n))
            terms = []
            for _ in range(rng.randrange(1, 7)):
                while True:
                    vec = [rng.randrange(0, 4) for _ in range(n)]
                    if sum(vec) <= sum(d):
                        break
                terms.append(((rng.randrange(0, 3),) + tuple(vec),
                              rng.randrange(-5, 6)))
            F = MPoly(tab, terms)
            want = F.coeff_x(d).to_intpoly()
            assert generic_coeff(F, d, default_grid(d)) == want

    def test_grid_choice_does_not_matter(self):
        t = table_x(2)
        s = MPoly.monomial(t, {1: 1}) + MPoly.monomial(t, {0: 1, 2: 1})
        F = s * s
        d = (1, 1)
        for grid in [default_grid(d), Grid(((0, 3), (1, 2))), Grid(((5, 2), (0, 7)))]:
            assert generic_coeff(F, d, grid) == F.coeff_x(d).to_intpoly()


class TestDysonGrid:
    def test_n2_empty_set(self):
        grid, pi = dyson_grid((1, 1), frozenset())
        assert pi == Permutation.identity(2)
        survivors = scan_survivors(*fs_factors((1, 1), frozenset()), grid)
        assert survivors == [(0, 1)]   # alpha = (0, a_1)
        assert dyson_coeff_interpolated((1, 1), frozenset()) == IntPoly.const(1)

    def test_grid_sizes_match_degree_profile(self):
        for a in [(1, 1, 1), (2, 1, 2)]:
            for S in all_pairsets(3):
                grid, _ = dyson_grid(a, S)
                d = fs_degree_profile(a, S)
                assert grid.sizes() == tuple(x + 1 for x in d)

    def test_exhaustive_n3_against_brute_force(self):
        for a in [(1, 1, 1), (2, 1, 1)]:
            ct = tkernel(a).ct_x()
            coeffs = ct.t_coefficients()
            pairs = sorted(ct.table.t_pairs)
            for S in all_pairsets(3):
                texp = tuple(1 if p in S else 0 for p in pairs)
                brute = coeffs.get(texp, IntPoly())
                value = dyson_coeff_interpolated(a, S)
                assert value == brute
                grid, pi = dyson_grid(a, S)
                survivors = scan_survivors(*fs_factors(a, S), grid)
                _, _, _, K = ell_stats(S, 3)
                if K == 3:
                    w = pairset_to_perm(S, 3)
                    assert pi == w
                    assert value == c_w(a, w)
                else:
                    assert pi is None and not survivors and value.is_zero

    def test_recording_set_value_is_closed_form(self):
        a = (2, 1, 1)
        for w in Permutation.all_perms(3):
            value = dyson_coeff_interpolated(a, w.recording_set())
            assert value == c_w(a, w)

    def test_free_choice_independence(self):
        rng = random.Random(99)
        a = (2, 1, 2)
        for S in all_pairsets(3):
            base = dyson_coeff_interpolated(a, S)
            _, pi = dyson_grid(a, S)
            for _ in range(3):
                grid = sampled_dyson_grid(a, S, rng)
                again = _survivor_term(a, *fs_factors(a, S), grid, pi)
                assert again == base

    def test_generic_lemma_on_expanded_fs(self):
        # the bespoke grid plugged into the fully generic extractor
        a = (1, 1, 1)
        for w in Permutation.all_perms(3):
            S = w.recording_set()
            grid, _ = dyson_grid(a, S)
            F = fs_polynomial(a, S)
            d = fs_degree_profile(a, S)
            assert generic_coeff(F, d, grid) == c_w(a, w)

    def test_coefficient_convention_n2(self):
        # the target-monomial coefficient of F_S is the t_S coefficient of
        # the deformed kernel, i.e. (-1)^{|S|} times the coefficient of
        # prod_S (x_i/x_j) in the t-free kernel
        from dysonct.mpoly import tzero_kernel
        a = (1, 1)
        coeffs = tkernel(a).ct_x().t_coefficients()
        for S in all_pairsets(2):
            F = fs_polynomial(a, S)
            d = fs_degree_profile(a, S)
            in_fs = F.coeff_x(d).to_intpoly()
            texp = (1,) if S else (0,)
            from_kernel = coeffs.get(texp, IntPoly())
            assert in_fs == from_kernel
            short = tzero_kernel(a)
            v = tuple((1 if any(p[0] == i for p in S) else 0)
                      - (1 if any(p[1] == i for p in S) else 0)
                      for i in (1, 2))
            assert in_fs == short.coeff_x(v).to_intpoly() * ((-1) ** len(S))

    def test_factored_evaluation_matches_expansion(self):
        rng = random.Random(3)
        a = (2, 1)
        for S in all_pairsets(2):
            sign, factors = fs_factors(a, S)
            F = fs_polynomial(a, S)
            for _ in range(5):
                alpha = (rng.randrange(0, 4), rng.randrange(0, 4))
                assert eval_factored(sign, factors, alpha) == \
                    F.subst_x_qpower(alpha).to_intpoly()


class TestClosedEval:
    def test_small_case(self):
        assert closed_eval((1, 1), Permutation((2, 1))) == IntPoly.const(1)

    def test_agrees_with_closed_form_s3(self):
        for w in Permutation.all_perms(3):
            for a in itertools.product((1, 2), repeat=3):
                assert closed_eval(a, w) == c_w(a, w)

    def test_bookkeeping_identities(self):
        # the sign and q-power exponents of the factorised evaluation
        # cancel, for all 5,967 (a, w) with n <= 4 and a in {1,2,3}^n or
        # n = 5 and a in {1,2}^5
        cases = 0
        for n, parts in [(1, (1, 2, 3)), (2, (1, 2, 3)), (3, (1, 2, 3)),
                         (4, (1, 2, 3)), (5, (1, 2))]:
            perms = list(Permutation.all_perms(n))
            for a in itertools.product(parts, repeat=n):
                for w in perms:
                    sign, power = closed_eval_bookkeeping(a, w)
                    assert sign[0] == sign[1] and power[0] == power[1], (a, w)
                    cases += 1
        assert cases == 5967

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            closed_eval((1, 0), Permutation.identity(2))

    def test_rejects_w_of_another_length(self):
        with pytest.raises(ValueError):
            closed_eval((1, 2), Permutation((2, 1, 3)))

    def test_wrong_closed_evaluation_fails_the_grid(self, monkeypatch):
        # closed_eval does not compare itself with c_w; the interp-closed
        # checker does, so a wrong value must end the grid with FAIL
        original = identities.closed_eval
        monkeypatch.setattr(identities, "closed_eval",
                            lambda a, w: original(a, w).shifted(1))
        code, records = run(RunConfig("interp-closed", n=3, a_max=2))
        assert code == 1
        assert records
        assert all(r["status"] == "ok" and not r["equal"] for r in records)


class TestSillsGrid:
    def test_n2_survivor(self):
        survivors = scan_survivors(*sills_factors((1, 1)), sills_grid((1, 1), 2))
        assert survivors == [(0, 1)]
        assert sills_coeff_interpolated((1, 1), 2) == rhs_sills((1, 1), 2, 1)

    def test_interpolation_reproduces_theorem(self):
        for a in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]:
            for r in (2, 3):
                value = sills_coeff_interpolated(a, r)
                assert value == rhs_sills(a, r, 1)
                assert value == sills_lhs(a, r, 1)

    def test_a_r_zero_allowed(self):
        assert (sills_coeff_interpolated((1, 0, 1), 2)
                == rhs_sills((1, 0, 1), 2, 1))

    def test_excluded_point_is_necessary(self):
        # readmitting the cut point of B_r lets the cyclically shifted
        # point (pi = (2,3,...,n,1)) survive as well
        a = (1, 1, 1)
        grid = _readmitting(sills_grid(a, 3), a, 3)
        sign, factors = sills_factors(a)
        survivors = scan_survivors(sign, factors, grid)
        assert survivors == [(0, 1, 2), (3, 0, 1)]
        # with the exclusion only the identity-ordered point remains
        grid = sills_grid(a, 3)
        assert scan_survivors(sign, factors, grid) == [(0, 1, 2)]


def _readmitting(grid, a, r):
    """``grid`` with the cut point a_2 + ... + a_{r-1} back in B_r."""
    points = list(grid.points)
    points[r - 1] = tuple(sorted(points[r - 1] + (sum(a[1:r - 1]),)))
    return Grid(tuple(points))


def _scan_every_point(sign, factors, grid):
    """The full-grid reference for ``scan_survivors``."""
    return [alpha for alpha in itertools.product(*grid.points)
            if not eval_factored(sign, factors, alpha).is_zero]


@pytest.fixture
def confirmed(monkeypatch):
    """The points ``scan_survivors`` hands to ``eval_factored``."""
    points = []

    def counting(sign, factors, alpha):
        points.append(alpha)
        return eval_factored(sign, factors, alpha)

    monkeypatch.setattr(interp, "eval_factored", counting)
    return points


def _check_scan(sign, factors, grid, confirmed):
    confirmed.clear()
    got = scan_survivors(sign, factors, grid)
    assert got == _scan_every_point(sign, factors, grid)
    # the search never reaches a point that a factor annihilates
    assert confirmed == got


class TestPrunedScan:
    """The pruned survivor search against a test of every grid point."""

    def test_every_dyson_grid_up_to_n3(self, confirmed):
        for n in (1, 2, 3):
            for a in itertools.product((1, 2), repeat=n):
                for S in all_pairsets(n):
                    grid, _ = dyson_grid(a, S)
                    _check_scan(*fs_factors(a, S), grid, confirmed)

    def test_sampled_dyson_grids_n4(self, confirmed):
        rng = random.Random(7)
        pairsets = sorted(all_pairsets(4), key=sorted)
        for a in itertools.product((1, 2), repeat=4):
            for S in rng.sample(pairsets, 4):
                grid = sampled_dyson_grid(a, S, rng)
                _check_scan(*fs_factors(a, S), grid, confirmed)

    def test_every_sills_grid_up_to_n4(self, confirmed):
        for n in (2, 3, 4):
            for r in range(2, n + 1):
                for a in itertools.product((0, 1, 2), repeat=n):
                    if any(x < 1 for i, x in enumerate(a, 1) if i != r):
                        continue
                    grid = sills_grid(a, r)
                    for g in (grid, _readmitting(grid, a, r)):
                        _check_scan(*sills_factors(a), g, confirmed)

    def test_unsorted_grid_keeps_product_order(self, confirmed):
        grid = Grid(((5, 2, 0), (3, 0, 6, 1)))
        _check_scan(1, [(2, 1, 0), (1, 2, 1)], grid, confirmed)
        assert len(confirmed) > 1

    def test_factor_in_one_variable(self):
        # x_u - x_u q^k prunes nothing; eval_factored alone rejects k = 0
        grid = Grid(((0, 1, 2), (0, 1)))
        assert scan_survivors(1, [(1, 1, 0)], grid) == []
        factors = [(1, 1, 2), (2, 1, 0)]
        assert scan_survivors(1, factors, grid) == \
            _scan_every_point(1, factors, grid)


def _factor_product(sign, factors, table):
    """prod (x_u - x_v q^k) over the factors, times sign, and the x^d it
    homogenises by, d_u the number of factors whose first index is u."""
    polys = [MPoly.monomial(table, {table.x_index(u): 1})
             - MPoly.monomial(table, {0: k, table.x_index(v): 1})
             for u, v, k in factors]
    d = {}
    for u, _, _ in factors:
        d[table.x_index(u)] = d.get(table.x_index(u), 0) + 1
    return product(polys, table) * sign, MPoly.monomial(table, d)


class TestFactorListsMatchKernels:
    """interp's homogenised reading of the mpoly.kernel_factors lists,
    each (u, v, k) as x_u - x_v q^k, against the kernels' expansions."""

    def test_fs_factors_are_the_tzero_kernel(self):
        for n in range(1, 5):
            table = table_x(n)
            for a in itertools.product((1, 2), repeat=n):
                kernel = tzero_kernel(a).expand()
                for S in (frozenset(), frozenset(all_pairs(n))):
                    got, x_d = _factor_product(*fs_factors(a, S), table)
                    assert got == x_d * kernel * (-1) ** len(S), (a, S)

    def test_sills_factors_are_the_dyson_kernel(self):
        for n in range(1, 5):
            table = table_x(n)
            for a in itertools.product((1, 2), repeat=n):
                got, x_d = _factor_product(*sills_factors(a), table)
                assert got == x_d * dyson_kernel(a).expand(), a
