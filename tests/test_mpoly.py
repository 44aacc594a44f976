import itertools
import random

import pytest

import dysonct.mpoly as mpoly
from dysonct.mpoly import (
    MPoly, VarTable, bg_alternating_kernel, bg_kernel, dyson_kernel,
    mul_coeff_x, table_kernel, table_tau, table_u, table_x, tau_kernel,
    tkernel, tournament_kernel, tzero_kernel,
)
from dysonct.qpoly import IntPoly
from reference import (
    gamma_shift, gamma_shift_inv, natural_tournament, poch_factor, product,
    subst_t_qpowers, subst_t_zero,
)


def x(table, i, e=1):
    return MPoly.monomial(table, {table.x_index(i): e})


def _with_t_block(p, table):
    """p, a polynomial in q and x, rewritten on ``table``, which appends t
    variables to the same x block."""
    pad = (0,) * len(table.t_pairs)
    return MPoly(table, [(vec + pad, c) for vec, c in p.terms()])


def rand_poly(table, rng, nterms=6, span=3):
    terms = []
    for _ in range(nterms):
        vec = [rng.randrange(-span, span + 1) for _ in range(table.nvars)]
        terms.append((tuple(vec), rng.randrange(-5, 6)))
    return MPoly(table, terms)


class TestArith:
    def test_mul_identity(self):
        t = table_x(2)
        p = rand_poly(t, random.Random(1))
        assert p * MPoly.one(t) == p

    def test_difference_of_squares(self):
        t = table_x(2)
        p = (x(t, 1) - x(t, 2)) * (x(t, 1) + x(t, 2))
        assert p == x(t, 1, 2) - x(t, 2, 2)

    def test_mul_commutes(self):
        t = table_kernel(2)
        rng = random.Random(2)
        for _ in range(10):
            p, q = rand_poly(t, rng), rand_poly(t, rng)
            assert p * q == q * p

    def test_ring_axioms(self):
        t = table_x(3)
        rng = random.Random(3)
        for _ in range(10):
            p, q, r = (rand_poly(t, rng, 4) for _ in range(3))
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert (p + q) + r == p + (q + r)

    def test_exponent_bounds(self):
        t = table_x(2)
        with pytest.raises(ValueError):
            MPoly.monomial(t, {1: 2 ** 31})
        with pytest.raises(ValueError):
            MPoly.monomial(t, {2: -2 ** 31 - 1})
        with pytest.raises(ValueError):
            t.encode((0, 2 ** 32, 0))
        with pytest.raises(ValueError):
            MPoly.from_intpoly(t, IntPoly({2 ** 31: 1}))
        edge = MPoly.monomial(t, {1: 2 ** 31 - 1, 2: -2 ** 31})
        assert edge.terms() == [((0, 2 ** 31 - 1, -2 ** 31), 1)]
        k = dyson_kernel((1, 1))
        full = k.expand()
        for v in ((2 ** 32, -1), (2 ** 31, 0), (0, -2 ** 31 - 1)):
            with pytest.raises(ValueError):
                k.coeff_x(v)
            with pytest.raises(ValueError):
                mul_coeff_x(full, MPoly.one(t), v)
        tk = table_kernel(2)
        with pytest.raises(ValueError):
            tkernel((1, 1)).expand().coeff_aux("t", {(1, 2): 2 ** 31})
        # a substituted q exponent is range-checked too
        with pytest.raises(ValueError):
            MPoly.monomial(t, {1: 1}).subst_x_qpower((2 ** 40, 0))
        with pytest.raises(ValueError):
            subst_t_qpowers(MPoly.monomial(tk, {tk.t_index(1, 2): 1}),
                            {(1, 2): 2 ** 40})

    def test_table_mismatch(self):
        with pytest.raises(ValueError):
            MPoly.one(table_x(2)) * MPoly.one(table_x(3))

    def test_table_rejects_malformed_shape(self):
        for nx, kw in [(1, {"t_pairs": [(1, 2)]}), (2, {"t_pairs": [(1, 5)]}),
                       (2, {"t_pairs": [(0, 1)]}), (2, {"t_pairs": [(2, 1)]}),
                       (2, {"t_pairs": [(1, 2), (1, 2)]}), (-1, {}),
                       (2, {"u_size": -1})]:
            with pytest.raises(ValueError):
                VarTable(nx, **kw)
        with pytest.raises(ValueError):
            table_tau(2, -1)
        assert table_tau(2, 0) == table_kernel(2)
        assert VarTable(0, u_size=2).names == ("q", "u[1]", "u[2]")

    def test_intpoly_scaling(self):
        t = table_x(1)
        c = IntPoly({0: 1, 1: 2})
        assert x(t, 1) * c == MPoly(t, [((0, 1), 1), ((1, 1), 2)])


def _times_binomials_reference(p, monomials):
    """p times the product of the MPoly factors 1 - m, multiplied in turn."""
    table = p.table
    return p * product([MPoly.one(table) - MPoly.monomial(table, m)
                        for m in monomials], table)


class TestTimesBinomials:
    TABLES = [table_kernel(3), table_tau(2, 1), table_u(4)]
    IDS = ["kernel3", "tau2-1", "u4"]

    @pytest.mark.parametrize("table", TABLES, ids=IDS)
    def test_matches_the_product_of_factors(self, table):
        # random monomials over every variable of the table (q, x, t or u),
        # with negative exponents; index 0 is q
        rng = random.Random(repr(table))
        for _ in range(40):
            p = rand_poly(table, rng)
            monomials = [
                {k: rng.randrange(-3, 4)
                 for k in rng.sample(range(table.nvars),
                                     rng.randrange(1, table.nvars + 1))}
                for _ in range(rng.randrange(0, 5))]
            assert (p.times_binomials(monomials)
                    == _times_binomials_reference(p, monomials)), monomials

    @pytest.mark.parametrize("table", TABLES, ids=IDS)
    def test_edge_lists(self, table):
        p = rand_poly(table, random.Random(7))
        last = table.nvars - 1  # an x, t or u variable
        m = {0: 2, last: -1}
        assert p.times_binomials([]) == p
        binomial = MPoly.one(table) - MPoly.monomial(table, m)
        assert p.times_binomials([m, m]) == p * binomial * binomial
        for unit in ({}, {0: 0}, {last: 0}):
            assert p.times_binomials([m, unit]).is_zero
        assert p == rand_poly(table, random.Random(7))  # p is left as it is

    def test_exponent_outside_the_packed_range_raises(self):
        p = MPoly.one(table_u(2))
        for e in (1 << 31, -(1 << 31) - 1):
            with pytest.raises(ValueError, match="packed range"):
                p.times_binomials([{1: 1}, {2: e}])

    def test_runs_the_kernel_fold(self, monkeypatch):
        # one two-term loop: the kernels and times_binomials both run _fold
        calls = []
        fold = mpoly._fold
        monkeypatch.setattr(mpoly, "_fold",
                            lambda *args: calls.append(1) or fold(*args))
        MPoly.one(table_u(2)).times_binomials([{1: 1}, {2: 1}])
        assert len(calls) == 1
        dyson_kernel((1, 1))
        assert len(calls) == 3


class TestExtraction:
    def test_ct_of_pure_ratio(self):
        t = table_x(2)
        assert (x(t, 1) * x(t, 2, -1)).ct_x().is_zero

    def test_ct_selects(self):
        t = table_x(2)
        p = MPoly(t, [((0, 0, 0), 3), ((1, 1, -1), 1)])
        assert p.ct_x() == MPoly(t, [((0, 0, 0), 3)])

    def test_ct_dyson_11(self):
        k = dyson_kernel((1, 1))
        assert k.ct_x().to_intpoly() == IntPoly({0: 1, 1: 1})

    def test_coeff_of_own_monomial(self):
        t = table_x(3)
        v = (2, -1, 0)
        m = MPoly.monomial(t, {t.x_index(1): 2, t.x_index(2): -1})
        assert m.coeff_x(v) == MPoly.one(t)

    def test_coeff_x_vs_ct_shift(self):
        t = table_x(2)
        rng = random.Random(5)
        for _ in range(15):
            p = rand_poly(t, rng)
            v = (rng.randrange(-2, 3), rng.randrange(-2, 3))
            shift = MPoly.monomial(t, {t.x_index(1): -v[0], t.x_index(2): -v[1]})
            assert p.coeff_x(v) == (p * shift).ct_x()

    def test_coeff_x_zero_is_ct(self):
        k = dyson_kernel((2, 1))
        assert k.coeff_x((0, 0)) == k.ct_x()

    def test_coeff_aux(self):
        t = table_kernel(2)
        # 1 - t[1,2] * x2 / x1
        p = MPoly(t, [((0, 0, 0, 0), 1), ((0, -1, 1, 1), -1)])
        c = p.coeff_aux("t", {(1, 2): 1})
        assert c == MPoly(t, [((0, -1, 1, 0), -1)])
        assert p.coeff_aux("t", {}) == MPoly(t, [((0, 0, 0, 0), 1)])

    def test_coeff_aux_shape_check(self):
        t = table_kernel(2)
        with pytest.raises(ValueError):
            MPoly.one(t).coeff_aux("t", {(5, 5): 1})
        with pytest.raises(ValueError, match="unknown family"):
            MPoly.one(t).coeff_aux("s", {(1, 1): 1})

    def test_ct_commutes_with_x_free_factor(self):
        t = table_kernel(2)
        rng = random.Random(8)
        for _ in range(10):
            p = rand_poly(t, rng)
            free = MPoly(t, [((1, 0, 0, 0), 2), ((0, 0, 0, 1), -1)])
            assert (p * free).ct_x() == p.ct_x() * free

    def test_mul_coeff_x_matches_naive(self):
        t = table_kernel(2)
        rng = random.Random(9)
        for _ in range(15):
            p, q = rand_poly(t, rng), rand_poly(t, rng)
            v = (rng.randrange(-2, 3), rng.randrange(-2, 3))
            assert mul_coeff_x(p, q, v) == (p * q).coeff_x(v)


class TestSubstitutions:
    def test_subst_x_qpower_ratio(self):
        t = table_x(2)
        p = x(t, 1) * x(t, 2, -1)
        assert p.subst_x_qpower((2, 1)).to_intpoly() == IntPoly({1: 1})

    def test_subst_x_equal_points(self):
        t = table_x(2)
        p = x(t, 2) - x(t, 1)
        assert p.subst_x_qpower((0, 0)).is_zero

    def test_subst_t_qpowers_recovers_dyson(self):
        for a in [(1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 2), (2, 2, 2)]:
            n = len(a)
            powers = {(i, j): a[j - 1] for i in range(1, n)
                      for j in range(i + 1, n + 1)}
            lhs = subst_t_qpowers(tkernel(a).expand(), powers)
            assert lhs == _with_t_block(dyson_kernel(a).expand(), lhs.table)

    def test_subst_t_zero_recovers_short_kernel(self):
        for a in [(1, 1), (2, 2), (1, 2, 1)]:
            lhs = subst_t_zero(tkernel(a).expand())
            assert lhs == _with_t_block(tzero_kernel(a).expand(), lhs.table)
        # t -> 0 is undefined on a negative t power
        tab = table_kernel(2)
        with pytest.raises(ValueError):
            subst_t_zero(MPoly.monomial(tab, {tab.t_index(1, 2): -1}))


class TestGamma:
    def test_ct_invariant(self):
        t = table_x(3)
        rng = random.Random(13)
        for _ in range(10):
            p = rand_poly(t, rng)
            assert gamma_shift(p).ct_x() == p.ct_x()
            assert gamma_shift(gamma_shift_inv(p)) == p

    def test_kernel_covariance(self):
        # gamma^{-1}(D(a; x)) = D(gamma(a); x) with gamma(a) = (a2,...,an,a1)
        import itertools
        for n in (2, 3, 4):
            for a in itertools.product((1, 2), repeat=n):
                rotated = a[1:] + a[:1]
                assert (gamma_shift_inv(dyson_kernel(a).expand())
                        == dyson_kernel(rotated).expand())

    def test_gamma_power_identity(self):
        for a in [(1, 1), (2, 1), (1, 2, 1)]:
            k = dyson_kernel(a).expand()
            p = k
            for _ in range(len(a)):
                p = gamma_shift(p)
            assert p == k


class TestKernels:
    def test_dyson_11_expansion(self):
        t = table_x(2)
        k = dyson_kernel((1, 1)).expand()
        expected = (MPoly.one(t) + MPoly.from_intpoly(t, IntPoly({1: 1}))
                    - x(t, 1) * x(t, 2, -1)
                    - x(t, 2) * x(t, 1, -1) * IntPoly({1: 1}))
        assert k == expected

    def test_poch_factor(self):
        t = table_x(2)
        assert poch_factor(t, 1, 2, 0, 0) == MPoly.one(t)
        f = poch_factor(t, 1, 2, 1, 1)
        assert f == MPoly.one(t) - x(t, 1) * x(t, 2, -1) * IntPoly({1: 1})

    def test_kernel_positivity_precondition(self):
        with pytest.raises(ValueError):
            tkernel((1, 0))
        with pytest.raises(ValueError):
            tau_kernel((0, 1), 2)
        with pytest.raises(ValueError):
            bg_alternating_kernel((1, 0))

    def test_tau_factorization(self):
        # D(a 1^m; x,y) = D(a; x; t) * prod_{i<j<=m} (1 - y_i/y_j)
        #                 * prod_{i,j} (x_i/y_j)_{a_i}
        n = m = 2
        a = (1, 1)
        tab = table_tau(n, m)
        assert tab.names == ("q", "x1", "x2", "x3", "x4", "t[1,2]")
        lhs = tau_kernel(a, m).expand()
        factors = []
        # D(a; x; t) on the first n variables
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                factors.append(poch_factor(tab, i, j, 0, a[i - 1]))
                factors.append(poch_factor(tab, j, i, 1, a[j - 1] - 1))
                tvar = tab.t_index(i, j)
                factors.append(MPoly(tab, [
                    ((0,) * tab.nvars, 1),
                ]) - MPoly.monomial(tab, {tvar: 1, tab.x_index(j): 1,
                                          tab.x_index(i): -1}))
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                factors.append(MPoly.one(tab)
                               - x(tab, n + i) * x(tab, n + j, -1))
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                factors.append(poch_factor(tab, i, n + j, 0, a[i - 1]))
        assert lhs == product(factors, tab)

    def test_tournament_natural_matches_tzero(self):
        a = (2, 1, 2)
        t = natural_tournament(3)
        assert tournament_kernel(t, a).expand() == tzero_kernel(a).expand()

    def test_bg_kernel_empty_set_is_dyson(self):
        a = (2, 1)
        assert bg_kernel(a, set()).expand() == dyson_kernel(a).expand()


class TestTextForms:
    def test_render_examples(self):
        k = tkernel((1, 1)).ct_x()
        assert str(k) == "1 + t[1,2]"
        assert str(MPoly.zero(k.table)) == "0"

    def test_render_coefficients(self):
        t = table_x(2)
        p = x(t, 1, 2) * -3 + x(t, 2, -1)
        assert str(p) == "x2^-1 - 3*x1^2"

    def test_collapse_t_single(self):
        t = table_kernel(3)
        p = MPoly.monomial(t, {t.t_index(1, 2): 1}) + MPoly.monomial(
            t, {t.t_index(1, 3): 1, t.t_index(2, 3): 1})
        assert p.collapse_t_single() == IntPoly({1: 1, 2: 1})


def ref_t_coefficients(p):
    """The decode-and-sort t-split that ``MPoly.t_coefficients`` replaced:
    every term decoded to a full exponent vector, in graded-lex order."""
    table = p.table
    pair_positions = [table.t_index(i, j) for i, j in table.t_pairs]
    out = {}
    for vec, c in p.terms():
        texp = tuple(vec[k] for k in pair_positions)
        rest = list(vec)
        for k in pair_positions:
            rest[k] = 0
        qexp = rest[0]
        rest[0] = 0
        if any(rest):
            raise ValueError("term carries non-(q,t) exponents")
        out.setdefault(texp, {})[qexp] = c
    return {texp: IntPoly(d) for texp, d in out.items()}


class TestTCoefficients:
    def test_matches_decode_and_sort_on_t_kernels(self):
        for n in range(1, 5):
            for a in itertools.product((1, 2), repeat=n):
                p = tkernel(a).ct_x()
                assert p.t_coefficients() == ref_t_coefficients(p), a

    def test_matches_decode_and_sort_on_kadell_t_sides(self):
        from dysonct.identities import D_vlambda
        for a in itertools.product((1, 2), repeat=3):
            for k in (1, 2, 3):
                for m in (1, 2):
                    v = (0,) * (k - 1) + (m,) + (0,) * (3 - k)
                    p = D_vlambda(v, (m,), a, "t")
                    assert p.t_coefficients() == ref_t_coefficients(p)

    def test_keys_follow_the_table_pairs(self):
        tab = table_kernel(3)
        p = (MPoly.monomial(tab, {0: 2, tab.t_index(2, 3): 1}) * 5
             - MPoly.monomial(tab, {tab.t_index(1, 2): 2})
             + MPoly.monomial(tab, {0: -1, tab.t_index(2, 3): 1}))
        assert p.t_coefficients() == {(0, 0, 1): IntPoly({2: 5, -1: 1}),
                                      (2, 0, 0): IntPoly.const(-1)}
        assert MPoly.zero(tab).t_coefficients() == {}

    @pytest.mark.parametrize("var", ["x", "u"])
    def test_other_exponents_raise_on_both_routes(self, var):
        tab = (VarTable(2, t_pairs=[(1, 2)], u_size=1) if var == "u"
               else table_kernel(2))
        index = tab.u_index(1) if var == "u" else tab.x_index(2)
        p = (MPoly.monomial(tab, {tab.t_index(1, 2): 1})
             + MPoly.monomial(tab, {index: -1, 0: 3}))
        for split in (MPoly.t_coefficients, ref_t_coefficients):
            with pytest.raises(ValueError, match="non-\\(q,t\\)"):
                split(p)


class TestFromQCoefficients:
    def test_repeated_monomials_add(self):
        tab = table_kernel(2)
        t12 = {tab.t_index(1, 2): 1}
        p = MPoly.from_q_coefficients(tab, [
            (t12, IntPoly({0: 1, 1: 2})), ({}, IntPoly.const(3)),
            (t12, IntPoly({1: -2, 4: 1}))])
        assert p == (MPoly.monomial(tab, t12) * IntPoly({0: 1, 4: 1})
                     + MPoly.one(tab) * 3)

    def test_matches_the_checked_constructor(self):
        tab = table_kernel(3)
        rng = random.Random(7)
        items, terms = [], []
        for _ in range(20):
            texp = [rng.randrange(0, 2) for _ in tab.t_pairs]
            coeffs = {rng.randrange(-3, 4): rng.randrange(-2, 3)
                      for _ in range(3)}
            items.append(({tab.t_index(*pr): e
                           for pr, e in zip(tab.t_pairs, texp) if e},
                          IntPoly(coeffs)))
            terms += [((e,) + (0,) * tab.nx + tuple(texp), c)
                      for e, c in coeffs.items()]
        assert MPoly.from_q_coefficients(tab, items) == MPoly(tab, terms)

    def test_rejects_q_in_the_monomial_and_out_of_range_exponents(self):
        tab = table_kernel(2)
        with pytest.raises(ValueError):
            MPoly.from_q_coefficients(tab, [({0: 1}, IntPoly.const(1))])
        with pytest.raises(ValueError, match="packed range"):
            MPoly.from_q_coefficients(tab, [({}, IntPoly({2 ** 31: 1}))])
