import itertools
import random

import pytest

from dysonct.combi import Permutation, conjugate, partitions_upto, reverse, staircase
from dysonct.mpoly import MPoly, table_kernel, table_x
from dysonct.qpoly import IntPoly
from dysonct.symfun import (
    divided_difference, hook_content, isobaric_pi, isobaric_pihat, key_poly,
    keyhat_poly, scalar_product, schur_onevar_value, schur_principal,
)
from reference import product, qbinom


def x(table, i, e=1):
    return MPoly.monomial(table, {table.x_index(i): e})


def x_monomial(table, v):
    return MPoly.monomial(table, {table.x_index(i + 1): e
                                  for i, e in enumerate(v) if e})


def rand_xpoly(table, rng, nterms=5, span=3):
    terms = []
    for _ in range(nterms):
        vec = [0] * table.nvars
        vec[0] = rng.randrange(0, 2)
        for i in range(1, table.nx + 1):
            vec[i] = rng.randrange(0, span + 1)
        terms.append((tuple(vec), rng.randrange(-4, 5)))
    return MPoly(table, terms)


def ssyt_schur(lam, n, table):
    """Independent Schur oracle: sum of x^weight over semistandard tableaux."""
    lam = tuple(p for p in lam if p)
    if not lam:
        return MPoly.one(table)

    rows = []

    def fill_row(r, above, out):
        # weakly increasing row, strictly larger than the row above
        width = lam[r]

        def rec(c, prev, row):
            if c == width:
                out.append(tuple(row))
                return
            lo = max(prev, (above[c] + 1) if above and c < len(above) else 1)
            for v in range(lo, n + 1):
                rec(c + 1, v, row + [v])
        rec(0, 1, [])
        return out

    def build(r, tableau):
        if r == len(lam):
            rows.append([v for row in tableau for v in row])
            return
        for row in fill_row(r, tableau[-1] if tableau else None, []):
            build(r + 1, tableau + [row])

    build(0, [])
    out = MPoly.zero(table)
    for entries in rows:
        weight = [0] * n
        for v in entries:
            weight[v - 1] += 1
        out = out + x_monomial(table, weight)
    return out


def complete_h_list(top, a, table):
    """Reference [h_0, ..., h_top] of x^(a) by power-series convolution:
    each letter q^k x_i multiplies the series sum_d h_d by 1/(1 - letter)."""
    hs = [MPoly.one(table)] + [MPoly.zero(table)] * top
    for i, m in enumerate(a, start=1):
        for k in range(m):
            letter = x(table, i) * IntPoly({k: 1})
            for d in range(1, top + 1):
                hs[d] = hs[d] + letter * hs[d - 1]
    return hs


def complete_h(m, a, table):
    """Reference h_m of x^(a)."""
    return complete_h_list(m, a, table)[m]


def jacobi_trudi(lam, a, table):
    """Reference s_lambda(x^(a)) as the determinant det(h_{la_i - i + j})."""
    ell = len(lam)
    if not ell:
        return MPoly.one(table)
    hs = complete_h_list(lam[0] + ell - 1, a, table)
    out = MPoly.zero(table)
    for sigma in Permutation.all_perms(ell):
        term = MPoly.one(table)
        for i in range(1, ell + 1):
            m = lam[i - 1] - i + sigma(i)
            term = term * hs[m] if m >= 0 else MPoly.zero(table)
        out = out + term * sigma.sign()
    return out


def alternant(table, mu):
    """det(x_i ^ mu_j) expanded over permutations."""
    n = len(mu)
    out = MPoly.zero(table)
    for w in Permutation.all_perms(n):
        out = out + x_monomial(table, w.act(mu)) * w.sign()
    return out


class TestCompleteH:
    def test_h0(self):
        t = table_x(2)
        assert complete_h(0, (1, 1), t) == MPoly.one(t)

    def test_h1_geometric(self):
        t = table_x(1)
        h = complete_h(1, (2,), t)
        assert h == x(t, 1) + x(t, 1) * IntPoly({1: 1})

    def test_h2_two_letters(self):
        t = table_x(2)
        h = complete_h(2, (1, 1), t)
        assert h == x(t, 1, 2) + x(t, 1) * x(t, 2) + x(t, 2, 2)

    def test_oracle_monomial_enumeration(self):
        # h_m = sum over all degree-m monomials in the realized letters
        t = table_x(2)
        a = (2, 1)
        letters = [x(t, 1), x(t, 1) * IntPoly({1: 1}), x(t, 2)]
        for m in range(4):
            expected = MPoly.zero(t)
            for combo in itertools.combinations_with_replacement(letters, m):
                expected = expected + product(list(combo), t)
            assert complete_h(m, a, t) == expected


class TestSchur:
    def test_empty(self):
        t = table_x(2)
        assert schur_principal((), (1, 1), t) == MPoly.one(t)
        assert schur_principal((0, 0), (1, 1), t) == MPoly.one(t)

    def test_rejects_bad_input(self):
        t = table_x(2)
        with pytest.raises(ValueError):
            schur_principal((1, 2), (1, 1), t)
        with pytest.raises(ValueError):
            schur_principal((1,), (1, -1), t)
        with pytest.raises(ValueError):
            schur_principal((1,), (1, 1, 1), t)

    def test_strips_match_jacobi_trudi(self):
        # every lambda with |lambda| <= 6 and at most n rows, on both tables
        for n in (1, 2, 3):
            lams = [lam for lam in partitions_upto(6, n) if sum(lam) <= 6]
            for t in (table_x(n), table_kernel(n)):
                for a in itertools.product((0, 1, 2), repeat=n):
                    for lam in lams:
                        lam = tuple(p for p in lam if p)
                        assert schur_principal(lam, a, t) == jacobi_trudi(
                            lam, a, t), (lam, a, t)
        t = table_x(4)
        lam, a = (4, 3, 2, 1), (1, 2, 1, 2)
        assert schur_principal(lam, a, t) == jacobi_trudi(lam, a, t)

    def test_single_row_is_h(self):
        for n in (1, 2):
            t = table_x(n)
            for a in itertools.product((0, 1, 2), repeat=n):
                for m in range(4):
                    assert schur_principal((m,), a, t) == complete_h(
                        m, a, t)

    def test_against_ssyt_oracle(self):
        for n in (2, 3):
            t = table_x(n)
            ones = (1,) * n
            for lam in partitions_upto(3, n):
                assert schur_principal(lam, ones, t) == ssyt_schur(lam, n, t)

    def test_bialternant_identity(self):
        # det(x^(lambda+delta)) = s_lambda * det(x^delta), cross-multiplied
        n = 3
        t = table_x(n)
        delta = staircase(n)
        for lam in partitions_upto(3, n):
            mu = tuple(p + d for p, d in zip(lam + (0,) * n, delta))
            lhs = alternant(t, mu)
            rhs = schur_principal(lam, (1,) * n, t) * alternant(t, delta)
            assert lhs == rhs

    def test_symmetry_under_joint_permutation(self):
        # s_lambda(w(x)^(w(a))) = s_lambda(x^(a))
        for n, lam in [(2, (2, 1)), (3, (2, 1)), (3, (3, 1, 1))]:
            t = table_x(n)
            for a in itertools.product((1, 2), repeat=n):
                base = schur_principal(lam, a, t)
                for w in Permutation.all_perms(n):
                    # x_i -> x_{w(i)}: x_j takes the exponent of x_{w^-1(j)}
                    permuted = MPoly(t, [
                        ((v[0],) + w.inverse().act(v[1:]), c)
                        for v, c in schur_principal(lam, w.act(a), t).terms()])
                    assert permuted == base

    def test_dual_cauchy(self):
        # sum over la in (2,2): (-1)^|la| s_la(x1,x2) s_la'(x3,x4)
        #   = prod (1 - x_i x_j), i in {1,2}, j in {3,4}
        t = table_x(4)
        total = MPoly.zero(t)
        for lam in partitions_upto(2, 2):
            lam_stripped = tuple(p for p in lam if p)
            s_u = schur_principal(lam_stripped, (1, 1, 0, 0), t)
            s_v = schur_principal(conjugate(lam_stripped), (0, 0, 1, 1), t)
            sign = -1 if sum(lam) % 2 else 1
            total = total + s_u * s_v * sign
        rhs = product([MPoly.one(t) - x(t, i) * x(t, j)
                       for i in (1, 2) for j in (3, 4)], t)
        assert total == rhs


class TestHookContent:
    def test_empty(self):
        assert hook_content((), 3) == IntPoly.const(1)

    def test_single_row_telescopes(self):
        for a in range(5):
            for m in range(5):
                if a == m == 0:
                    continue  # qbinom(-1, 0) = 0 but s_() = 1
                assert hook_content((m,), a) == qbinom(a + m - 1, m)
        assert hook_content((0,), 0) == IntPoly.const(1)

    def test_column_example(self):
        assert hook_content((1, 1), 2) == IntPoly({1: 1})

    def test_rejects_non_partition(self):
        for lam in ((1, -1), (1, 2)):
            with pytest.raises(ValueError):
                hook_content(lam, 2)

    def test_matches_schur_at_one_variable(self):
        for a in range(5):
            for lam in partitions_upto(5, 3):
                if sum(lam) > 5:
                    continue
                assert schur_onevar_value(lam, a) == hook_content(lam, a)


class TestDividedDifferences:
    def test_symmetric_fixed_point(self):
        t = table_x(2)
        f = x(t, 1) * x(t, 2) + x(t, 1) + x(t, 2)
        assert isobaric_pi(1, f) == f
        assert divided_difference(1, f).is_zero

    def test_pi_on_x1(self):
        t = table_x(2)
        assert isobaric_pi(1, x(t, 1)) == x(t, 1) + x(t, 2)

    def test_pihat_on_x1(self):
        t = table_x(2)
        assert isobaric_pihat(1, x(t, 1)) == x(t, 2)

    def test_hecke_relations(self):
        t = table_x(3)
        rng = random.Random(31)
        for _ in range(8):
            f = rand_xpoly(t, rng)
            for i in (1, 2):
                assert isobaric_pi(i, isobaric_pi(i, f)) == isobaric_pi(i, f)
                assert isobaric_pihat(i, isobaric_pihat(i, f)) == -isobaric_pihat(i, f)

    def test_braid_relations(self):
        t = table_x(3)
        rng = random.Random(32)
        for _ in range(6):
            f = rand_xpoly(t, rng)
            lhs = isobaric_pi(1, isobaric_pi(2, isobaric_pi(1, f)))
            rhs = isobaric_pi(2, isobaric_pi(1, isobaric_pi(2, f)))
            assert lhs == rhs
            lhs = isobaric_pihat(1, isobaric_pihat(2, isobaric_pihat(1, f)))
            rhs = isobaric_pihat(2, isobaric_pihat(1, isobaric_pihat(2, f)))
            assert lhs == rhs


class TestKeyPolynomials:
    def test_dominant_initial_condition(self):
        t = table_x(3)
        for v in [(3, 1, 0), (2, 2, 1), (0, 0, 0)]:
            assert key_poly(v) == x_monomial(t, v)
            assert keyhat_poly(v) == x_monomial(t, v)

    def test_antidominant_is_schur(self):
        t = table_x(2)
        lam = (2, 1)
        assert key_poly(reverse(lam)) == schur_principal(lam, (1, 1), t)

    def test_antidominant_is_schur_n3(self):
        t = table_x(3)
        for lam in partitions_upto(2, 3):
            assert key_poly(reverse(lam)) == schur_principal(lam, (1, 1, 1), t)

    def test_small_values(self):
        t = table_x(2)
        assert key_poly((0, 1)) == x(t, 1) + x(t, 2)
        assert keyhat_poly((0, 1)) == x(t, 2)

    def test_reduced_word_independence(self):
        # braid relations make any sorting path equivalent; spot-check by
        # comparing against explicit alternative recursion orders
        t = table_x(3)
        v = (0, 2, 1)
        # path A: default
        fa = key_poly(v)
        # path B: apply pi_2 then pi_1 then pi_2 starting from (2,1,0)
        fb = isobaric_pi(1, isobaric_pi(2, x_monomial(t, (2, 1, 0))))
        # sort (0,2,1): swap1 -> (2,0,1), swap2 -> (2,1,0); replay reversed
        assert fa == fb


class TestScalarProduct:
    def test_key_duality_n2(self):
        comps = list(itertools.product(range(3), repeat=2))
        for v in comps:
            for w in comps:
                expected = 1 if v == reverse(w) else 0
                got = scalar_product(key_poly(v), keyhat_poly(w))
                assert got == IntPoly.const(expected), (v, w)

    def test_schur_monomial_delta(self):
        t = table_x(2)
        for lam in partitions_upto(3, 2):
            for mu in partitions_upto(3, 2):
                expected = 1 if lam == mu else 0
                got = scalar_product(schur_principal(lam, (1, 1), t),
                                     x_monomial(t, mu))
                assert got == IntPoly.const(expected)

    def test_signed_rule_examples(self):
        # <s_la, x^v> = (-1)^l(w) if v + delta = w(la + delta)
        t = table_x(2)
        lam = (2, 1)
        # v = (0, 3): v + delta = (1, 3) = w(la + delta) for w = (2, 1)
        got = scalar_product(schur_principal(lam, (1, 1), t), x_monomial(t, (0, 3)))
        assert got == IntPoly.const(-1)
        # v = (1, 2): v + delta = (2, 2) has a repeat -> no w, product is 0
        got = scalar_product(schur_principal(lam, (1, 1), t), x_monomial(t, (1, 2)))
        assert got == IntPoly.const(0)
