import itertools
import json

import pytest

from dysonct.combi import (
    Permutation, Tournament, ZeroOneMatrix, all_compositions,
    all_zero_one_matrices, conjugate, is_partition,
    left_justified_from_rows, partial_sums, sort_desc, staircase,
)
from dysonct.identities import (
    D_vlambda, _c_weights, _poincare_sum, _render, c_w, rhs_poincare_qdyson,
    poincare_W, poincare_single_product, rhs_bg_alternating,
    rhs_bg_general, rhs_kadell, rhs_kadell_t, rhs_lxz,
    rhs_qdyson, rhs_sills, rhs_strict, rhs_tournament, solve_column_relation,
    usum_cleared_sides, usum_k_cleared_sides, verify_bg_general,
    verify_kadell, verify_kadell_t, verify_lxz, verify_poincare,
    verify_poincare_equal, verify_prop_kappa, verify_prop_vnu,
    verify_prop_zero, verify_q_dyson, verify_scalar_kkhat,
    verify_schur_monomial, verify_sills, verify_strict, verify_tournament,
    verify_usum, verify_usum_k, verify_wtd,
)
from dysonct.mpoly import MPoly, bg_kernel, table_kernel, table_u, tkernel
from dysonct.qpoly import Cyclo, IntPoly
from reference import (
    all_tournaments, contributing_perms, lemma_sym_check, longest,
    natural_tournament, product, qbinom, reduction_check, subst_t_qpowers,
    subst_t_zero, t_monomial, w_sigma,
)


def holds(sides):
    """Whether a checker's two rendered sides agree."""
    lhs, rhs = sides
    return lhs == rhs


class TestQDyson:
    def test_small_cases(self):
        assert holds(verify_q_dyson((1, 1)))
        assert holds(verify_q_dyson((2, 1)))
        assert holds(verify_q_dyson((0, 0, 0)))
        assert rhs_qdyson((0, 0)) == IntPoly.const(1)

    def test_three_factor_kernel(self):
        lhs, _ = verify_q_dyson((2, 1))
        assert lhs == str(Cyclo.qmultinom((2, 1)).expand())


class TestPoincare:
    def test_cw_identity_permutation(self):
        for a in [(1, 1), (2, 1, 1), (3, 2, 1)]:
            sigma = partial_sums(a)
            expected = IntPoly.const(1)
            for i, s in enumerate(sigma):
                expected = expected * qbinom(s - 1, a[i] - 1)
            assert c_w(a, Permutation.identity(len(a))) == expected

    def test_cw_transposition(self):
        assert c_w((1, 1), Permutation((2, 1))) == IntPoly.const(1)

    def test_cw_rejects_permutation_of_another_length(self):
        with pytest.raises(ValueError):
            c_w((1, 1), Permutation((1, 2, 3)))

    def test_cw_substitution_sums_to_qmultinom(self):
        # sum_w c_w(a) q^{sum of a_j over R(w)} telescopes back to q-Dyson
        for a in [(1, 1), (2, 1), (1, 2, 1), (2, 2, 1)]:
            n = len(a)
            total = IntPoly()
            for w in Permutation.all_perms(n):
                shift = sum(a[j - 1] for _, j in w.recording_set())
                total = total + c_w(a, w).shifted(shift)
            assert total == Cyclo.qmultinom(a).expand()

    def test_full_expansion_small(self):
        lhs, rhs = verify_poincare((1, 1))
        assert lhs == rhs
        assert json.loads(lhs) == {"1": "1", "t[1,2]": "1"}
        assert holds(verify_poincare((2, 1, 1)))

    def test_t_zero_reduces_to_bg(self):
        # substituting t = 0 into the expansion leaves prod qbinom(s_i-1, a_i-1)
        for a in [(1, 1), (2, 1, 2)]:
            ct = subst_t_zero(tkernel(a).ct_x())
            expected = c_w(a, Permutation.identity(len(a)))
            assert ct.to_intpoly() == expected

    def test_equal_parameter_collapse(self):
        assert holds(verify_poincare_equal(3, 1))
        assert holds(verify_poincare_equal(3, 2))

    def test_poincare_w_small(self):
        assert poincare_W(1).collapse_t_single() == IntPoly.const(1)
        t2 = poincare_W(2)
        assert str(t2) == "1 + t[1,2]"
        assert poincare_W(3).collapse_t_single() == IntPoly(
            {0: 1, 1: 2, 2: 2, 3: 1})
        assert poincare_single_product(3) == IntPoly({0: 1, 1: 2, 2: 2, 3: 1})
        geometric = IntPoly.const(1)  # prod_{i<=n} (1 + t + ... + t^{i-1})
        for n in range(1, 8):
            geometric = geometric * IntPoly({e: 1 for e in range(n)})
            assert poincare_single_product(n) == geometric

    def test_wtd(self):
        for n in (1, 2, 3, 4):
            assert holds(verify_wtd(n))


def _ref_c_w_cyclo(a, w):
    """c_w as the from-scratch Cyclo product that ``_c_weights`` replaced:
    the numerator and every 1 - q^s built anew for each w."""
    out = Cyclo.qmultinom(a)
    for x in a:
        out = out * Cyclo.one_minus_q(x)
    for i in range(1, len(a) + 1):
        out = out / Cyclo.one_minus_q(w_sigma(a, w, i))
    return out


def _ref_poincare_sum(table, perms, weight):
    """The per-w fold that ``_poincare_sum`` replaced: one t-monomial
    product and one fresh sum per w."""
    out = MPoly.zero(table)
    for w in perms:
        out = out + t_monomial(table, w.recording_set()) * weight(w)
    return out


class TestPoincareFastPaths:
    def test_c_weights_match_the_product_from_scratch(self):
        scale = Cyclo.qpoch(3, 2) / Cyclo.qpoch(2, 2)
        for n in range(1, 5):
            perms = list(Permutation.all_perms(n))
            for a in itertools.product((1, 2, 3), repeat=n):
                weights = _c_weights(a, Cyclo())
                scaled = _c_weights(a, scale)
                for w in perms:
                    want = _ref_c_w_cyclo(a, w)
                    assert weights(w) == want.expand(), (a, w)
                    assert scaled(w) == (scale * want).expand(), (a, w)

    def test_c_weights_expand_once_per_word(self, monkeypatch):
        # c_w depends on w only through the word (a_{w(1)}, ..., a_{w(n)}),
        # so rhs_poincare_qdyson expands one weight per distinct word
        expand = Cyclo.expand
        calls = []
        monkeypatch.setattr(Cyclo, "expand",
                            lambda self: calls.append(1) or expand(self))
        for a, words in (((2, 2, 2, 2), 1), ((1, 1, 2, 2), 6),
                         ((1, 2, 2, 2), 4), ((1, 2, 3, 4), 24)):
            calls.clear()
            rhs_poincare_qdyson(a)
            assert len(calls) == words, a

    def test_c_weights_check_their_input(self):
        with pytest.raises(ValueError):
            _c_weights((1, 0), Cyclo())
        with pytest.raises(ValueError):
            _c_weights((1, 1), Cyclo())(Permutation((1, 2, 3)))

    def test_poincare_w_matches_the_fold(self):
        one = IntPoly.const(1)
        for n in range(1, 6):
            table = table_kernel(n)
            assert poincare_W(n) == _ref_poincare_sum(
                table, Permutation.all_perms(n), lambda w: one)

    def test_rhs_poincare_qdyson_matches_the_fold(self):
        for n in range(1, 5):
            table = table_kernel(n)
            for a in itertools.product((1, 2), repeat=n):
                ref = _ref_poincare_sum(
                    table, Permutation.all_perms(n),
                    lambda w: _ref_c_w_cyclo(a, w).expand())
                assert rhs_poincare_qdyson(a) == ref, a

    def test_a_repeated_recording_set_adds(self):
        table = table_kernel(3)
        w = Permutation((2, 3, 1))
        weight = lambda _: IntPoly({0: 1, 2: -3})
        once = _poincare_sum(table, [w], weight)
        assert _poincare_sum(table, [w, w], weight) == once * 2
        assert once == _ref_poincare_sum(table, [w], weight)


class TestRender:
    def test_equal_sides_render_once(self):
        lhs, rhs = _render(IntPoly({0: 1, 2: 1}), IntPoly({2: 1, 0: 1}))
        assert lhs == "1 + q^2" and lhs is rhs

    def test_unequal_sides_render_each(self):
        p = poincare_W(2)
        lhs, rhs = _render(p, p * 2, lambda x: "<" + str(x) + ">")
        assert (lhs, rhs) == ("<1 + t[1,2]>", "<2 + 2*t[1,2]>")

    def test_checkers_share_the_text_of_equal_sides(self):
        for lhs, rhs in [verify_q_dyson((2, 1)), verify_poincare((2, 1, 1)),
                         verify_kadell_t(2, 2, (2, 1)), verify_usum(3),
                         verify_usum_k(3, 2), verify_sills((1, 2, 1), 1, 2)]:
            assert lhs is rhs


class TestBressoudGoulden:
    def test_empty_index_set_is_qdyson(self):
        a = (2, 1)
        assert rhs_bg_general(a, set()) == Cyclo.qmultinom(a).expand()
        assert holds(verify_bg_general(a, set()))

    def test_full_index_set_rebalances(self):
        for a in [(1, 1), (2, 1), (2, 3, 1)]:
            n = len(a)
            expected = c_w(a, Permutation.identity(n))
            assert rhs_bg_general(a, set(range(1, n + 1))) == expected

    def test_general_cases(self):
        for a in [(2, 1), (1, 2, 1)]:
            n = len(a)
            for size in range(n + 1):
                for I in itertools.combinations(range(1, n + 1), size):
                    assert holds(verify_bg_general(a, set(I)))

    def test_verify_rejects_index_below_one(self):
        with pytest.raises(ValueError):
            verify_bg_general(a=[1, 2], I=[-1])

    def test_rhs_rejects_index_zero(self):
        with pytest.raises(ValueError):
            rhs_bg_general((1, 2), {0})

    def test_kernel_rejects_index_above_n(self):
        with pytest.raises(ValueError):
            bg_kernel((1, 2), {3})

    def test_alternating_equal_parameters_vanish(self):
        r = rhs_bg_alternating((1, 1))
        assert r.is_zero

    def test_alternating_cases(self):
        for a in [(1, 1), (2, 1), (1, 2), (2, 1, 3)]:
            from dysonct.identities import verify_bg_alternating
            assert holds(verify_bg_alternating(a))


class TestTournaments:
    def test_three_cycle_vanishes(self):
        t = Tournament(3, {(1, 2), (2, 3), (3, 1)})
        assert rhs_tournament(t, (1, 1, 1)).is_zero
        assert holds(verify_tournament((1, 1, 1), t.serialize()))

    def test_natural_order(self):
        t = natural_tournament(3)
        a = (2, 1, 1)
        assert rhs_tournament(t, a) == c_w(a, Permutation.identity(3))

    def test_all_n3(self):
        transitive = 0
        for t in all_tournaments(3):
            assert holds(verify_tournament((1, 1, 1), t.serialize()))
            if t.is_transitive():
                transitive += 1
        assert transitive == 6


def _kadell_t_reference(k, m, a, table):
    """The symbolic-t Kadell closed form from one per-a product,
    (q^|a|)_m / (q^(|a|-a_k+1))_m * prod_i [sigma_i - 1; a_i - 1]_q (1 - q^sigma_i),
    divided by prod_i (1 - q^(a_w(1)+...+a_w(i))) for each w with w(n) = k."""
    n = len(a)
    sigma = partial_sums(a)
    total = sigma[-1]
    base = Cyclo.qpoch(total, m) / Cyclo.qpoch(total - a[k - 1] + 1, m)
    for i in range(1, n + 1):
        base = (base * Cyclo.qbinom(sigma[i - 1] - 1, a[i - 1] - 1)
                * Cyclo.one_minus_q(sigma[i - 1]))
    out = MPoly.zero(table)
    for w in Permutation.all_perms(n):
        if w(n) == k:
            coeff = base
            for i in range(1, n + 1):
                coeff = coeff / Cyclo.one_minus_q(w_sigma(a, w, i))
            out = out + t_monomial(table, w.recording_set()) * coeff.expand()
    return out


class TestKadell:
    def test_homogeneity_zero(self):
        assert D_vlambda((1, 0), (2,), (1, 1), "dyson").is_zero

    def test_zero_multiplicity_kills(self):
        # a_k = 0 and v_k != 0 forces the constant term to vanish
        assert D_vlambda((0, 1), (1,), (1, 0), "dyson").is_zero
        assert rhs_kadell((0, 1), (1, 0)).is_zero

    def test_one_variable_reduces_to_hook_content(self):
        for a in (1, 2, 3):
            for m in (1, 2, 3):
                lhs = D_vlambda((m,), (m,), (a,), "dyson").to_intpoly()
                assert lhs == qbinom(a + m - 1, m)
                assert rhs_kadell((m,), (a,)) == qbinom(a + m - 1, m)

    def test_spread_out_v_vanishes(self):
        assert rhs_kadell((1, 1), (1, 1)).is_zero
        assert holds(verify_kadell((1, 1), (1, 1)))

    def test_grid_n2(self):
        for a in itertools.product((0, 1, 2), repeat=2):
            for m in (1, 2, 3):
                for v in all_compositions(m, 2):
                    assert holds(verify_kadell(v, a)), (v, a)

    def test_v_shorter_than_a_rejected(self):
        with pytest.raises(ValueError):
            rhs_kadell((1,), (1, 1))

    def test_v_longer_than_a_rejected(self):
        with pytest.raises(ValueError):
            rhs_kadell((0, 1), (1,))

    def test_kadell_t_small(self):
        assert holds(verify_kadell_t(1, 1, (1, 1)))
        assert holds(verify_kadell_t(2, 1, (1, 1)))
        assert holds(verify_kadell_t(2, 2, (2, 1)))

    def test_kadell_t_qa_substitution_recovers_plain(self):
        # t[i,j] -> q^{a_j} in the symbolic closed form gives the plain one
        for a in [(1, 1), (2, 1), (1, 2, 1)]:
            n = len(a)
            powers = {(i, j): a[j - 1] for i in range(1, n)
                      for j in range(i + 1, n + 1)}
            for k in range(1, n + 1):
                for m in (1, 2):
                    v = (0,) * (k - 1) + (m,) + (0,) * (n - k)
                    sym = subst_t_qpowers(rhs_kadell_t(k, m, a), powers)
                    assert sym.to_intpoly() == rhs_kadell(v, a)

    def test_kadell_t_matches_per_a_product(self):
        # parts of 2 make the Pochhammer ratio differ from 1
        for n in range(1, 5):
            table = table_kernel(n)
            for a in itertools.product((1, 2), repeat=n):
                for k in range(1, n + 1):
                    for m in (1, 2, 3):
                        assert (rhs_kadell_t(k, m, a)
                                == _kadell_t_reference(k, m, a, table)), (k, m, a)

    def test_kadell_rejects_negative_v_summing_to_one(self):
        # a v with a negative part is no composition: it used to read as
        # the closed form 0 against the left side -1, a wrong FAIL
        with pytest.raises(ValueError, match="nonnegative v"):
            verify_kadell([2, -1], [1, 1])

    def test_kadell_rejects_negative_v_with_nonzero_lhs(self):
        assert not D_vlambda((3, -1), (2,), (2, 1), "dyson").is_zero
        with pytest.raises(ValueError, match="nonnegative v"):
            verify_kadell([3, -1], [2, 1])

    def test_D_vlambda_reads_only_the_dyson_and_t_kernels(self):
        for family in ("tzero", "tau", "bg", "qa", "symbolic", ""):
            with pytest.raises(ValueError, match="dyson or t kernel"):
                D_vlambda((1, 0), (1,), (1, 1), family)

    def test_D_vlambda_t_family_at_q_powers_is_the_dyson_family(self):
        for a in [(1, 1), (2, 1), (1, 2, 1)]:
            n = len(a)
            powers = {(i, j): a[j - 1] for i in range(1, n)
                      for j in range(i + 1, n + 1)}
            for v in all_compositions(2, n):
                sym = subst_t_qpowers(D_vlambda(v, (2,), a, "t"), powers)
                assert sym.to_intpoly() == D_vlambda(v, (2,), a, "dyson").to_intpoly()

    def test_kadell_t_k_above_n_names_k(self):
        with pytest.raises(ValueError, match="k = 3 is out of range 1..2"):
            verify_kadell_t(3, 1, [1, 1])

    def test_kadell_t_m_zero_rejected(self):
        with pytest.raises(ValueError):
            rhs_kadell_t(1, 0, (1, 1))

    def test_reduction_identity(self):
        for a in [(0, 1, 2), (2, 0, 1), (0, 0, 2)]:
            for m in (1, 2):
                for v in all_compositions(m, 3):
                    assert reduction_check(v, a, m)


class TestStrict:
    def test_identity_permutation(self):
        assert holds(verify_strict((1, 0), (1, 1), "1,2"))

    def test_longest_element_matches_strict_formula(self):
        lam, a = (2, 0), (2, 1)
        w0 = longest(2)
        assert holds(verify_strict(lam, a, w0.serialize()))
        # the explicit product of the longest-element case
        lam_t, a_t = lam, a
        expected = (qbinom(lam_t[0] + a_t[0] + a_t[1] - 1, a_t[0] - 1)
                    * qbinom(lam_t[1] + a_t[1] - 1, a_t[1] - 1)).shifted(a_t[1])
        assert rhs_strict(lam, a, w0) == expected

    def test_all_w_n2(self):
        for lam in [(1, 0), (2, 0), (2, 1), (3, 1)]:
            for a in itertools.product((1, 2), repeat=2):
                for w in Permutation.all_perms(2):
                    assert holds(verify_strict(lam, a, w.serialize()))

    def test_non_strict_rejected(self):
        with pytest.raises(ValueError):
            rhs_strict((2, 2), (1, 1), Permutation.identity(2))

    def test_w_of_another_length_rejected(self):
        with pytest.raises(ValueError):
            rhs_strict((3, 1, 0), (1, 2, 1), Permutation((1, 2, 3, 4)))


class TestScalarProductCheckers:
    def test_schur_monomial_rejects_v_shorter_than_lam(self):
        with pytest.raises(ValueError):
            verify_schur_monomial([1, 0], [1])

    def test_scalar_kkhat_rejects_w_longer_than_v(self):
        with pytest.raises(ValueError):
            verify_scalar_kkhat([1, 0], [0, 1, 0])

    def test_scalar_kkhat_checks_lengths_where_they_enter(self):
        # the key polynomials are built on tables of their own lengths, so
        # the check must come before the scalar product compares the tables
        for v, w in [([1, 0], [0, 1, 0]), ([0, 1, 0], [1, 0]), ([1], [])]:
            with pytest.raises(ValueError, match="v and w must share a length"):
                verify_scalar_kkhat(v, w)


def _u_binomial(table, subset):
    return MPoly.one(table) - MPoly.monomial(
        table, {table.u_index(i): 1 for i in subset})


def _usum_subsets(n):
    return [frozenset(s) for r in range(1, n + 1)
            for s in itertools.combinations(range(1, n + 1), r)]


def _usum_lhs_reference(n, perms):
    """The cleared u-sum LHS, one expanded term per permutation:
    prod_i (1 - u_{w(i)}) * u_{R(w)} times the (1 - u_A) of every nonempty
    A off the chain of prefix sets of w."""
    table = table_u(n)
    lhs = MPoly.zero(table)
    for w in perms:
        chain = {frozenset(w.word[:i]) for i in range(1, n + 1)}
        term = MPoly.one(table)
        for i in range(1, n + 1):
            term = term * _u_binomial(table, {w(i)})
        for _, j in w.recording_set():
            term = term * MPoly.monomial(table, {table.u_index(j): 1})
        for sub in _usum_subsets(n):
            if sub not in chain:
                term = term * _u_binomial(table, sub)
        lhs = lhs + term
    return lhs


class TestUSum:
    def test_trivial(self):
        lhs, rhs = usum_cleared_sides(1)
        assert lhs == rhs

    def test_small(self):
        for n in (1, 2, 3):
            assert holds(verify_usum(n))
            for k in range(1, n + 1):
                assert holds(verify_usum_k(n, k))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_path_sum_matches_per_permutation_reference(self, n):
        lhs, _ = usum_cleared_sides(n)
        assert lhs == _usum_lhs_reference(n, Permutation.all_perms(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_refined_path_sum_matches_reference(self, n):
        for k in range(1, n + 1):
            lhs, _ = usum_k_cleared_sides(n, k)
            assert lhs == _usum_lhs_reference(
                n, [w for w in Permutation.all_perms(n) if w(n) == k]), k

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_folded_rhs_matches_product(self, n):
        table = table_u(n)
        subsets = _usum_subsets(n)
        _, rhs = usum_cleared_sides(n)
        assert rhs == product([_u_binomial(table, s) for s in subsets], table)
        full = frozenset(range(1, n + 1))
        for k in range(1, n + 1):
            _, rhs = usum_k_cleared_sides(n, k)
            upper = MPoly.monomial(
                table, {table.u_index(i): 1 for i in range(k + 1, n + 1)})
            rest = [_u_binomial(table, s) for s in subsets if s != full]
            assert rhs == (upper * _u_binomial(table, {k})
                           * product(rest, table)), k

    def test_binomials_fold_by_the_two_term_step(self, monkeypatch):
        # every (1 - u_A) goes through MPoly.times_binomials: MPoly.__mul__
        # only multiplies by a monomial, and no binomial is built by "-"
        mul, sub = MPoly.__mul__, MPoly.__sub__
        operands, subs = [], []

        def counting_mul(self, other):
            operands.append((len(self), len(other)))
            return mul(self, other)

        monkeypatch.setattr(MPoly, "__mul__", counting_mul)
        monkeypatch.setattr(MPoly, "__rmul__", counting_mul)
        monkeypatch.setattr(MPoly, "__sub__",
                            lambda self, other: subs.append(1) or sub(self, other))
        sides = [usum_cleared_sides(4)] + [usum_k_cleared_sides(4, k)
                                           for k in range(1, 5)]
        assert all(lhs == rhs for lhs, rhs in sides)
        assert operands
        assert all(1 in pair for pair in operands), operands
        assert not subs

    @pytest.mark.parametrize("n", [0, -2])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            usum_cleared_sides(n)
        with pytest.raises(ValueError, match="n >= 1"):
            verify_usum(n)
        with pytest.raises(ValueError, match="n >= 1"):
            usum_k_cleared_sides(n, 1)
        with pytest.raises(ValueError, match="n >= 1"):
            verify_usum_k(n, 1)

    def test_k_out_of_range_rejected(self):
        for k in (0, 4):
            with pytest.raises(ValueError, match="k out of range"):
                usum_k_cleared_sides(3, k)


def _solve_column_relation_reference(kappa, m):
    """The search over all m! permutations w that solve_column_relation
    replaced."""
    delta = staircase(m)
    c = kappa.col_sums()
    out = []
    for w in Permutation.all_perms(m):
        u = tuple(x - d for x, d in zip(w.act(tuple(x + d for x, d in zip(c, delta))),
                                        delta))
        if any(x < 0 for x in u) or not is_partition(u):
            continue
        lam_conj = tuple(x for x in u if x)
        out.append((conjugate(lam_conj) if lam_conj else (), w))
    return out


class TestMatrixPropositions:
    def test_solve_column_relation(self):
        kappa = left_justified_from_rows((1, 0), 2)
        sols = solve_column_relation(kappa)
        assert ((1,), Permutation.identity(2)) in sols

    def test_solve_column_relation_reads_m_off_kappa(self):
        # c(kappa) + delta_2 = (2, 1) for both columns of 10/01, not the
        # first column alone: lam = (2) and w = 12
        kappa = ZeroOneMatrix.parse("10/01")
        assert solve_column_relation(kappa) == [((2,), Permutation((1, 2)))]

    def test_prop_kappa_instances(self):
        for a in itertools.product((1, 2), repeat=2):
            for kappa in [left_justified_from_rows((1, 0), 2),
                          left_justified_from_rows((2, 1), 2),
                          ZeroOneMatrix(((0, 1), (1, 0)))]:
                for lam, w in solve_column_relation(kappa):
                    assert holds(verify_prop_kappa(kappa.serialize(), lam, w.serialize(), a))

    def test_prop_zero_non_left_justified(self):
        kappa = ZeroOneMatrix(((0, 1), (1, 0)))
        assert not kappa.is_left_justified()
        for lam, w in solve_column_relation(kappa):
            assert holds(verify_prop_zero(kappa.serialize(), lam, (1, 1)))

    def test_prop_zero_rejects_lambda_with_a_leading_zero(self):
        with pytest.raises(ValueError):
            verify_prop_zero("10/01", [0, 1], [1, 1])

    def test_prop_zero_rejects_lambda_with_an_inner_zero(self):
        with pytest.raises(ValueError):
            verify_prop_zero("10/01", [1, 0, 1], [1, 1])

    def test_prop_kappa_rejects_w_of_the_wrong_length(self):
        # kappa has two columns, so w must permute two letters
        assert holds(verify_prop_kappa("10/01", [2], "1,2", [1, 1]))
        for w in ("1,2,3", "1"):
            with pytest.raises(ValueError, match="permutes"):
                verify_prop_kappa("10/01", [1, 1], w, [1, 1])

    def test_solve_column_relation_matches_the_search_over_all_perms(self):
        for n in (1, 2, 3):
            for m in (0, 1, 2, 3, 4):
                if n * m > 9:
                    continue
                for kappa in all_zero_one_matrices(n, m):
                    assert (solve_column_relation(kappa)
                            == _solve_column_relation_reference(kappa, m)), kappa

    def test_prop_vnu_cases_solve_the_column_relation(self):
        # prop-vnu reads the left-justified kappa with (sort(v), identity)
        count = 0
        for n in (1, 2, 3, 4):
            for m in (0, 1, 2, 3, 4):
                for v in itertools.product(range(m + 1), repeat=n):
                    kappa = left_justified_from_rows(v, m)
                    lam = tuple(x for x in sort_desc(v) if x)
                    assert solve_column_relation(kappa) == [
                        (lam, Permutation.identity(m))]
                    count += 1
        assert count == 1274

    def test_prop_kappa_rejects_a_pair_outside_the_column_relation(self):
        # c(kappa) + delta_2 = (2, 1): only lam = (2), w = 12 solves it
        assert holds(verify_prop_kappa("10/01", [2, 0], "1,2", [1, 1]))
        for lam, w in (([1, 1], "2,1"), ([1, 1], "1,2"), ([2], "2,1"),
                       ([0, 2], "1,2"), ([], "1,2")):
            with pytest.raises(ValueError, match="do not solve"):
                verify_prop_kappa("10/01", lam, w, [1, 1])
        # repeated entries in c(kappa) + delta_m: no pair solves it
        assert solve_column_relation(ZeroOneMatrix.parse("01/00")) == []
        for w in ("1,2", "2,1"):
            with pytest.raises(ValueError, match="do not solve"):
                verify_prop_kappa("01/00", [1], w, [1, 1])

    def test_prop_zero_rejects_a_left_justified_kappa(self):
        with pytest.raises(ValueError, match="left-justified"):
            verify_prop_zero("11/00", [2], [1, 1])

    def test_prop_zero_rejects_lambda_outside_the_column_relation(self):
        assert holds(verify_prop_zero("01/10", [2, 0], [1, 1]))
        with pytest.raises(ValueError, match="do not solve"):
            verify_prop_zero("01/10", [1, 1], [1, 1])

    def test_prop_vnu_instance(self):
        assert holds(verify_prop_vnu((1, 0), (1, 1), 2))
        assert holds(verify_prop_vnu((2, 1), (2, 1), 2))

    def test_kadell_null_derivation_instance(self):
        # c(kappa) = (1,1), r(kappa) = (1,1): max v < m forces zero
        kappa = ZeroOneMatrix(((1, 0), (0, 1)))
        sols = solve_column_relation(kappa)
        assert (((2,), Permutation.identity(2)) in sols)
        assert not kappa.is_left_justified()
        assert holds(verify_prop_zero(kappa.serialize(), (2,), (1, 1)))
        lhs = D_vlambda((1, 1), (2,), (1, 1), "t")
        assert lhs.is_zero

    def test_lemma_sym_covariance(self):
        for a in [(1, 1), (2, 1)]:
            for v in all_compositions(2, 2):
                lam = tuple(x for x in sort_desc(v) if x)
                for w in Permutation.all_perms(2):
                    assert lemma_sym_check(v, lam, a, w)

    def test_lemma_sym_covariance_n3(self):
        for a in [(1, 1, 1), (2, 1, 1)]:
            for v in all_compositions(2, 3):
                lam = tuple(x for x in sort_desc(v) if x)
                for w in Permutation.all_perms(3):
                    assert lemma_sym_check(v, lam, a, w)

    def test_contributing_permutations_worked_example(self):
        perms = contributing_perms((0, 1, 3, 3), 3)
        assert [p.word for p in perms] == [
            (1, 5, 2, 6, 7, 3, 4), (1, 5, 2, 6, 7, 4, 3)]


class TestSillsLXZ:
    def test_empty_J_term_vanishes(self):
        # J = {} contributes a factor 1 - q^0 = 0; the sum starts at |J| = 1
        assert rhs_lxz((1, -1), (0, 1)) == IntPoly()
        v, a = (1, -1), (2, 1)
        assert holds(verify_lxz(v, a))

    def test_sills_two_variables(self):
        assert holds(verify_sills((1, 1), 2, 1))
        assert rhs_sills((1, 1), 2, 1) == IntPoly.const(-1)

    def test_sills_cyclic_interval(self):
        # r < s wraps around and picks up chi(r < s)
        for a in [(1, 1, 1), (2, 1, 1), (1, 2, 3)]:
            for r, s in itertools.permutations((1, 2, 3), 2):
                assert holds(verify_sills(a, r, s)), (a, r, s)

    def test_sills_is_lxz_special_case(self):
        # s = 1: the LXZ sum with v = e_1 - e_r has a single J = {1} term
        for a in [(1, 1, 1), (2, 1, 2)]:
            for r in (2, 3):
                v = tuple(1 if i == 1 else (-1 if i == r else 0)
                          for i in range(1, 4))
                assert rhs_lxz(v, a) == rhs_sills(a, r, 1)

    def test_lxz_grid(self):
        for a in itertools.product((1, 2), repeat=3):
            for v in [(1, -1, 0), (1, 0, -1), (1, 1, -2)]:
                assert holds(verify_lxz(v, a))

    def test_lxz_precondition(self):
        with pytest.raises(ValueError):
            rhs_lxz((0, 1, -1), (1, 1, 1))
        with pytest.raises(ValueError):
            rhs_lxz((2, -2), (1, 1))
        with pytest.raises(ValueError):
            rhs_lxz((1, -1), (2, -1))

    @pytest.mark.parametrize("v, a", [((1, -1, 0), (1, 1)),
                                      ((1, -1), (1, 1, 1)),
                                      ((), ())])
    def test_lxz_length_mismatch(self, v, a):
        # a longer v used to drop its extra entries, a shorter one raised
        # IndexError, and two empty tuples failed inside max()
        with pytest.raises(ValueError, match=f"v has length {len(v)} and a "
                                             f"has length {len(a)}"):
            rhs_lxz(v, a)
