"""Differential tests of the cyclotomic closed-form route.

Every closed form is built as a ``Cyclo`` (a signed, q-shifted multiset of
cyclotomic polynomials) and expanded once.  The references below are the
slow route it replaced: the same formulas over IntPoly numerators and
denominators, reduced by ``QRat`` (polynomial gcd).  Inputs are seeded
stdlib ``random`` draws and small exhaustive grids.
"""

import itertools
import random

import pytest

from dysonct.cli import _lxz_vs
from dysonct.combi import (
    Permutation, all_pairsets, is_strict, partial_sums, reverse, weight,
)
from dysonct.identities import (
    _near_ct_basis, _near_ct_expanded, c_w, cyclic_interval,
    rhs_bg_alternating, rhs_bg_general, rhs_kadell, rhs_kadell_t, rhs_lxz,
    rhs_sills, rhs_strict,
)
from dysonct.interp import (
    _survivor_term, closed_eval, dyson_coeff_interpolated, dyson_grid,
    eval_factored, fs_factors, sills_coeff_interpolated, sills_factors,
    sills_grid,
)
from dysonct.mpoly import MPoly, table_kernel
from dysonct.qpoly import (
    ONE, Cyclo, CycloBasis, IntPoly, NonExactDivision, QRat, cyclotomic,
)
from dysonct.symfun import hook_content
from reference import (
    one_minus_q, q_power_diff, qbinom, qpoch, sampled_dyson_grid, t_monomial,
    w_sigma,
)


def cyclo_sum(terms):
    """The plain sum of Cyclo values: a basis combined with unit coefficients."""
    terms = list(terms)
    return CycloBasis(terms).combine([ONE] * len(terms))


# -- the QRat reference route -------------------------------------------------------

def ref_qbinom(n, m):
    if m < 0 or m > n:
        return IntPoly()
    return QRat(qpoch(1, n), qpoch(1, m) * qpoch(1, n - m)).expect_intpoly()


def ref_qmultinom(a):
    den = ONE
    for x in a:
        den = den * qpoch(1, x)
    return QRat(qpoch(1, sum(a)), den).expect_intpoly()


def ref_c_w(a, w):
    num = ref_qmultinom(a)
    for x in a:
        num = num * one_minus_q(x)
    den = ONE
    for i in range(1, len(a) + 1):
        den = den * one_minus_q(w_sigma(a, w, i))
    return QRat(num, den).expect_intpoly()


def ref_bg_general(a, index_set):
    sigma = partial_sums(a)
    num, den = ref_qmultinom(a), ONE
    for i in sorted(index_set):
        num = num * one_minus_q(a[i - 1])
        den = den * one_minus_q(sigma[i - 1])
    return QRat(num, den).expect_intpoly()


def ref_bg_alternating(a):
    num, den = ref_qmultinom(a), ONE
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            num = num * q_power_diff(a[i], a[j])
            den = den * one_minus_q(a[i] + a[j])
    return QRat(num, den).expect_intpoly()


def ref_kadell(v, a):
    m = weight(v)
    if sorted(v, reverse=True) != [m] + [0] * (len(v) - 1):
        return IntPoly()
    k = v.index(m) + 1
    total = sum(a)
    if total == 0 or a[k - 1] == 0:
        return IntPoly()
    sigma = partial_sums(a)
    num = (one_minus_q(a[k - 1]) * qpoch(total, m) * ref_qmultinom(a)).shifted(
        sigma[-1] - sigma[k - 1])
    den = one_minus_q(total) * qpoch(total - a[k - 1] + 1, m)
    return QRat(num, den).expect_intpoly()


def ref_kadell_t(k, m, a, table):
    n = len(a)
    sigma = partial_sums(a)
    total = sigma[-1]
    base_num = qpoch(total, m)
    for i in range(1, n + 1):
        base_num = base_num * ref_qbinom(sigma[i - 1] - 1, a[i - 1] - 1)
    base_den = qpoch(total - a[k - 1] + 1, m)
    out = MPoly.zero(table)
    for w in Permutation.all_perms(n):
        if w(n) != k:
            continue
        num, den = base_num, base_den
        for i in range(1, n + 1):
            num = num * one_minus_q(sigma[i - 1])
            den = den * one_minus_q(w_sigma(a, w, i))
        out = out + t_monomial(table, w.recording_set()) * QRat(num, den).expect_intpoly()
    return out


def ref_strict(lam, a, w):
    lam_bar = reverse(lam)
    out = ONE
    for i in range(1, len(a) + 1):
        out = out * ref_qbinom(lam_bar[i - 1] + w_sigma(a, w, i) - 1, a[w(i) - 1] - 1)
    return out.shifted(sum(a[j - 1] for _, j in w.recording_set()))


def ref_sills(a, r, s):
    n = len(a)
    e_rs = (1 if r < s else 0) + sum(a[i - 1] for i in cyclic_interval(s, r, n))
    num = -(one_minus_q(a[s - 1]) * ref_qmultinom(a)).shifted(e_rs)
    return QRat(num, one_minus_q(1 + sum(a) - a[s - 1])).expect_intpoly()


def ref_lxz(v, a):
    n = len(a)
    prefix = partial_sums(v)
    index_set = [i for i in range(1, n + 1) if v[i - 1] == 1]
    total = sum(a)
    acc = QRat(0)
    for size in range(len(index_set) + 1):
        for J in itertools.combinations(index_set, size):
            aJ = sum(a[j - 1] for j in J)
            if aJ == 0:
                continue
            eJ = sum(prefix[j - 1] * a[j - 1] for j in range(1, n + 1) if j not in J)
            sign = -1 if size % 2 else 1
            acc = acc + QRat(one_minus_q(aJ).shifted(eJ) * sign,
                             one_minus_q(1 + total - aJ))
    return (acc * ref_qmultinom(a)).expect_intpoly()


def ref_hook_content(lam, a):
    lam = tuple(x for x in lam if x)
    if not lam:
        return ONE
    conj = [sum(1 for part in lam if part > c) for c in range(lam[0])]
    shift = sum((r - 1) * lam[r - 1] for r in range(1, len(lam) + 1))
    num, den = ONE, ONE
    for r, part in enumerate(lam, start=1):
        for c in range(1, part + 1):
            num = num * one_minus_q(a + c - r)
            den = den * one_minus_q((part - c) + (conj[c - 1] - r) + 1)
    return QRat(num.shifted(shift), den).expect_intpoly()


def ref_closed_eval(a, w):
    n = len(a)
    s = [0] * (n + 2)
    for i in range(1, n + 1):
        s[i + 1] = s[i] + a[w(i) - 1]
    total = s[n + 1]
    num, den = ONE, ONE
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            num = num * qpoch(1, s[j + 1] - s[i])
            den = den * one_minus_q(s[j + 1] - s[i]) * qpoch(1, s[j] - s[i + 1])
    for i in range(1, n + 1):
        den = den * qpoch(1, s[i]) * qpoch(1, total - s[i + 1])
        for j in range(i + 1, n + 1):
            num = num * one_minus_q(s[j + 1] - s[i + 1])
    return QRat(num, den).expect_intpoly()


def ref_eval_factored(sign, factors, alpha):
    out = IntPoly.const(sign)
    for u, v, k in factors:
        out = out * q_power_diff(alpha[u - 1], alpha[v - 1] + k)
    return out


def ref_phi_prime(b_set, alpha):
    """phi'(q^alpha) = prod over the other grid exponents of (q^alpha - q^b)."""
    out = ONE
    for b in b_set:
        if b != alpha:
            out = out * q_power_diff(alpha, b)
    return out


def ref_interpolated(sign, factors, grid):
    acc = QRat(0)
    for alpha in grid.iter_points():
        val = ref_eval_factored(sign, factors, alpha)
        if val.is_zero:
            continue
        den = ONE
        for b_set, a_i in zip(grid.points, alpha):
            den = den * ref_phi_prime(b_set, a_i)
        acc = acc + QRat(val, den)
    return acc.expect_intpoly()


# -- the Cyclo primitives -----------------------------------------------------------

def _random_factor(rng):
    """A (1 - q^k) or q^a - q^b factor, as (IntPoly, Cyclo)."""
    if rng.random() < 0.5:
        k = rng.randrange(-6, 13)
        return one_minus_q(k), Cyclo.one_minus_q(k)
    e1, e2 = rng.randrange(-4, 9), rng.randrange(-4, 9)
    return q_power_diff(e1, e2), Cyclo.q_power_diff(e1, e2)


def _random_ratio(rng, zero_ok=False):
    """(num, den, Cyclo) of a random ratio of such factors, den nonzero."""
    num, den, cyc = ONE, ONE, Cyclo()
    for _ in range(rng.randrange(0, 7)):
        p, c = _random_factor(rng)
        if p.is_zero and not zero_ok:
            continue
        num, cyc = num * p, cyc * c
    for _ in range(rng.randrange(0, 5)):
        p, c = _random_factor(rng)
        if p.is_zero:
            continue
        den, cyc = den * p, cyc / c
    return num, den, cyc


class TestCyclotomic:
    def test_divisor_products_give_q_k_minus_one(self):
        for k in range(1, 31):
            prod = ONE
            for d in range(1, k + 1):
                if k % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == IntPoly({0: -1, k: 1})

    def test_one_minus_q_and_power_diff_expand(self):
        for k in range(-12, 13):
            assert Cyclo.one_minus_q(k).expand() == one_minus_q(k)
        for e1 in range(-5, 6):
            for e2 in range(-5, 6):
                assert Cyclo.q_power_diff(e1, e2).expand() == q_power_diff(e1, e2)

    def test_q_factorials(self):
        for m in range(1, 6):
            for k in range(6):
                assert Cyclo.qpoch(m, k).expand() == qpoch(m, k)
        for n in range(-1, 12):
            for m in range(-1, n + 2):
                assert qbinom(n, m) == ref_qbinom(n, m)

    def test_qmultinom_all_small_compositions(self):
        for n in range(1, 5):
            for a in itertools.product(range(5), repeat=n):
                if sum(a) <= 8:
                    assert Cyclo.qmultinom(a).expand() == ref_qmultinom(a)

    def test_random_ratios_match_qrat(self):
        rng = random.Random(2024)
        polynomial = 0
        for _ in range(400):
            num, den, cyc = _random_ratio(rng, zero_ok=True)
            want = QRat(num, den).as_intpoly()
            if want is None:
                with pytest.raises(NonExactDivision):
                    cyc.expand()
            else:
                polynomial += 1
                assert cyc.expand() == want
        assert 50 < polynomial < 350  # both outcomes are exercised

    def test_equality_is_value_equality(self):
        # (1 - q^2) / (1 - q) = 1 + q, reached two ways
        left = Cyclo.one_minus_q(2) / Cyclo.one_minus_q(1)
        assert left == Cyclo(1, 0, {2: 1})
        assert left.expand() == IntPoly({0: 1, 1: 1})
        assert Cyclo.one_minus_q(0) == Cyclo(0) == Cyclo(0, 5, {3: 1})
        with pytest.raises(ZeroDivisionError):
            Cyclo() / Cyclo.one_minus_q(0)

    def test_wrong_formula_raises(self):
        for a in [(1, 1), (2, 1), (2, 2, 1), (1, 0, 3)]:
            wrong = Cyclo.qmultinom(a) / Cyclo.one_minus_q(sum(a) + 1)
            with pytest.raises(NonExactDivision):
                wrong.expand()
            assert QRat(Cyclo.qmultinom(a).expand(),
                        one_minus_q(sum(a) + 1)).as_intpoly() is None


class TestCycloSum:
    def test_random_sums_match_qrat(self):
        rng = random.Random(77)
        polynomial = 0
        for _ in range(150):
            parts = [_random_ratio(rng) for _ in range(rng.randrange(0, 4))]
            want = QRat(0)
            for num, den, _ in parts:
                want = want + QRat(num, den)
            want = want.as_intpoly()
            terms = [cyc for _, _, cyc in parts]
            if want is None:
                with pytest.raises(NonExactDivision):
                    cyclo_sum(terms)
            else:
                polynomial += 1
                assert cyclo_sum(terms) == want
        assert 20 < polynomial < 130

    def test_non_polynomial_terms_cancel(self):
        # 1/(1 - q) - q/(1 - q) = 1, although neither term is a polynomial
        terms = [Cyclo() / Cyclo.one_minus_q(1),
                 -(Cyclo() / Cyclo.one_minus_q(1)).shifted(1)]
        assert cyclo_sum(terms) == ONE
        with pytest.raises(NonExactDivision):
            cyclo_sum(terms[:1])
        assert cyclo_sum([]) == IntPoly()


# -- every rerouted closed form against its QRat formula ----------------------------

class TestRerouted:
    def test_c_w_and_closed_eval(self):
        for n in (1, 2, 3):
            for a in itertools.product((1, 2, 3), repeat=n):
                for w in Permutation.all_perms(n):
                    assert c_w(a, w) == ref_c_w(a, w)
                    assert closed_eval(a, w) == ref_closed_eval(a, w)

    def test_bressoud_goulden(self):
        for n in (2, 3):
            for a in itertools.product((1, 2, 3), repeat=n):
                assert rhs_bg_alternating(a) == ref_bg_alternating(a)
                for size in range(n + 1):
                    for index_set in itertools.combinations(range(1, n + 1), size):
                        assert (rhs_bg_general(a, set(index_set))
                                == ref_bg_general(a, index_set))

    def test_kadell(self):
        for n in (1, 2, 3):
            for a in itertools.product(range(3), repeat=n):
                for v in itertools.product(range(3), repeat=n):
                    if weight(v) >= 1:
                        assert rhs_kadell(v, a) == ref_kadell(v, a)

    def test_kadell_t(self):
        for n in (2, 3):
            table = table_kernel(n)
            for a in itertools.product((1, 2), repeat=n):
                for k in range(1, n + 1):
                    for m in (1, 2):
                        assert (rhs_kadell_t(k, m, a)
                                == ref_kadell_t(k, m, a, table))

    def test_strict(self):
        for n in (2, 3):
            for lam in itertools.product(range(4), repeat=n):
                if not is_strict(lam) or list(lam) != sorted(lam, reverse=True):
                    continue
                for a in itertools.product((1, 2), repeat=n):
                    for w in Permutation.all_perms(n):
                        assert rhs_strict(lam, a, w) == ref_strict(lam, a, w)

    def test_sills_and_lxz(self):
        for n in (2, 3):
            for a in itertools.product(range(3), repeat=n):
                for r in range(1, n + 1):
                    for s in range(1, n + 1):
                        if r != s:
                            assert rhs_sills(a, r, s) == ref_sills(a, r, s)
                for tail in itertools.product((-1, 0, 1), repeat=n - 1):
                    v = (1,) + tail
                    if weight(v) == 0:
                        assert rhs_lxz(v, a) == ref_lxz(v, a)

    def test_hook_content(self):
        for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (3, 2, 1), (4,)]:
            for a in range(5):
                assert hook_content(lam, a) == ref_hook_content(lam, a)

    def test_eval_factored(self):
        a = (2, 1, 1)
        sign, factors = fs_factors(a, frozenset({(1, 2)}))
        for alpha in itertools.product(range(4), repeat=3):
            assert eval_factored(sign, factors, alpha) == \
                ref_eval_factored(sign, factors, alpha)

    def test_interpolation_accumulators(self):
        for a in [(1, 1, 1), (2, 1, 1), (1, 2, 2)]:
            for S in all_pairsets(3):
                grid, pi = dyson_grid(a, S)
                assert (dyson_coeff_interpolated(a, S)
                        == ref_interpolated(*fs_factors(a, S), grid))
                grid = sampled_dyson_grid(a, S, random.Random(0))
                value = _survivor_term(a, *fs_factors(a, S), grid, pi)
                assert value == ref_interpolated(*fs_factors(a, S), grid)
            for r in (2, 3):
                value = sills_coeff_interpolated(a, r)
                assert value == ref_interpolated(*sills_factors(a), sills_grid(a, r))


# -- the Kronecker expansion, the one-pass constructor and cyclo_sum ---------------
#
# The references are the routes they replaced: one Phi_d at a time through
# IntPoly multiplication, chained single-factor Cyclo products, and a
# cyclo_sum over the common denominator of all terms.

def ref_expand(c):
    if not c.sign:
        return IntPoly()
    if any(m < 0 for m in c.mult.values()):
        raise NonExactDivision("negative Phi_d exponent")
    out = IntPoly({c.shift: c.sign})
    for d, m in sorted(c.mult.items()):
        for _ in range(m):
            out = out * cyclotomic(d)
    return out


def ref_one_minus_q(k):
    if k == 0:
        return Cyclo(0)
    divisors = [d for d in range(1, abs(k) + 1) if k % d == 0]
    if k > 0:
        return Cyclo(-1, 0, dict.fromkeys(divisors, 1))
    return Cyclo(1, k, dict.fromkeys(divisors, 1))


def ref_power_diffs(sign, num, den):
    out = Cyclo(sign)
    for e1, e2 in num:
        out = out * ref_one_minus_q(e2 - e1).shifted(e1)
    for f1, f2 in den:
        out = out / ref_one_minus_q(f2 - f1).shifted(f1)
    return out


def ref_cyclo_sum(terms):
    terms = [t for t in terms if t.sign]
    den = {}
    for t in terms:
        for d, m in t.mult.items():
            if -m > den.get(d, 0):
                den[d] = -m
    common = Cyclo(1, 0, den)
    num = IntPoly()
    for t in terms:
        num = num + ref_expand(t * common)
    return num.exact_div(ref_expand(common)) if den else num


def _random_cyclo(rng):
    """A Cyclo with nonnegative exponents, some of them large."""
    sign = rng.choice((-1, -1, 0, 1, 1, 1))
    mult = {d: rng.randrange(0, 4) for d in rng.sample(range(1, 31), 6)}
    if rng.random() < 0.3:
        mult[rng.choice((1, 2))] = rng.randrange(60, 90)
    return Cyclo(sign, rng.randrange(-20, 21), mult)


class TestKroneckerExpand:
    def test_random_products_match_reference(self):
        rng = random.Random(4711)
        big = negative = zero = 0
        for _ in range(300):
            c = _random_cyclo(rng)
            got = c.expand()
            assert got == ref_expand(c), c
            big += any(abs(x) > 2 ** 64 for _, x in got.items())
            negative += c.sign != 0 and c.shift < 0
            zero += got.is_zero
        assert big > 20 and negative > 50 and zero > 20

    def test_tight_and_trivial_bounds(self):
        # an empty product has bound 1, and Phi_2^m has a coefficient close
        # to its bound ||Phi_2^m||_1 = 2^m
        for sign in (-1, 1):
            for shift in (-3, 0, 4):
                assert Cyclo(sign, shift).expand() == IntPoly({shift: sign})
        for m in range(1, 40):
            for mult in ({2: m}, {1: m}, {1: m, 2: m}, {3: 1, 6: m}):
                c = Cyclo(-1, -m, mult)
                assert c.expand() == ref_expand(c)

    def test_every_grid_value_matches_reference(self, monkeypatch):
        from dysonct.cli import RunConfig, run
        seen = []
        expand = Cyclo.expand

        def recording(self):
            seen.append(self)
            return expand(self)

        # values already kept by the per-a caches would not be expanded
        # again, so the count would depend on the tests run before this one
        _near_ct_basis.cache_clear()
        _near_ct_expanded.cache_clear()
        monkeypatch.setattr(Cyclo, "expand", recording)
        for identity in ("sills", "lxz"):
            for n in (2, 3, 4):
                run(RunConfig(identity, n=n, a_max=2, sum_max=8))
        run(RunConfig("interp-dyson", n=3, a_max=2))
        run(RunConfig("interp-closed", n=3, a_max=2))
        run(RunConfig("interp-sills", n=3, a_max=2))
        monkeypatch.undo()
        assert len(seen) > 500
        for c in seen:
            assert c.expand() == ref_expand(c), c


class TestPowerDiffs:
    def test_random_products_match_chained_factors(self):
        rng = random.Random(99)
        zeros = raised = 0
        for _ in range(400):
            sign = rng.choice((-1, 1))
            num = [(rng.randrange(-5, 9), rng.randrange(-5, 9))
                   for _ in range(rng.randrange(0, 7))]
            den = [(rng.randrange(-5, 9), rng.randrange(-5, 9))
                   for _ in range(rng.randrange(0, 4))]
            try:
                want = ref_power_diffs(sign, num, den)
            except ZeroDivisionError:
                raised += 1
                with pytest.raises(ZeroDivisionError):
                    Cyclo.power_diffs(sign, num, den)
                continue
            got = Cyclo.power_diffs(sign, iter(num), den)
            assert got == want, (sign, num, den)
            zeros += not got.sign
        assert zeros > 50 and raised > 20

    def test_zero_factors(self):
        assert Cyclo.power_diffs(1, [(1, 3), (2, 2)], [(0, 1)]) == Cyclo(0)
        with pytest.raises(ZeroDivisionError):
            Cyclo.power_diffs(1, [(1, 3)], [(4, 4)])
        # a zero denominator raises even when the numerator is zero, as
        # Cyclo(0) / Cyclo.q_power_diff(4, 4) does
        with pytest.raises(ZeroDivisionError):
            Cyclo.power_diffs(1, [(2, 2)], [(4, 4)])
        with pytest.raises(ZeroDivisionError):
            Cyclo(0) / Cyclo.q_power_diff(4, 4)


class TestCycloSumReference:
    def test_random_sums_match_old_route(self):
        rng = random.Random(5150)
        raised = 0
        for _ in range(200):
            terms = [_random_ratio(rng)[2] for _ in range(rng.randrange(0, 5))]
            terms = [t.shifted(rng.randrange(-4, 5)) for t in terms]
            try:
                want = ref_cyclo_sum(terms)
            except NonExactDivision:
                raised += 1
                with pytest.raises(NonExactDivision):
                    cyclo_sum(terms)
                continue
            assert cyclo_sum(terms) == want
        assert 20 < raised < 180


class TestQmultinomCache:
    def test_cached_value_is_shared_and_unchanged(self):
        a = (2, 1, 3)
        first = Cyclo.qmultinom(a)
        before = (first.sign, first.shift, dict(first.mult))
        other = Cyclo.one_minus_q(4) / Cyclo.one_minus_q(2)
        for value in (first * other, first / other, other * first,
                      other / first, -first, first.shifted(3)):
            if all(m >= 0 for m in value.mult.values()):
                value.expand()
        cyclo_sum([first, first / other, -first])
        first.expand()
        assert (first.sign, first.shift, first.mult) == before
        assert Cyclo.qmultinom(a) == Cyclo(*before)
        assert Cyclo.qmultinom(a).expand() == ref_qmultinom(a)

    def test_equals_telescoped_qbinomials(self):
        # Cyclo.qmultinom reads the Phi_d exponents off the q-factorials;
        # the telescoping product of q-binomials of the partial sums is an
        # independent route to the same value
        for n in range(5):
            for a in itertools.product(range(4), repeat=n):
                want, sigma = Cyclo(), 0
                for x in a:
                    sigma += x
                    want = want * Cyclo.qbinom(sigma, x)
                assert Cyclo.qmultinom(a) == want, a

    def test_rejects_negative_part(self):
        with pytest.raises(ValueError):
            Cyclo.qmultinom((2, -1, 3))


# -- the per-a basis of the Sills and LXZ right sides --------------------------------
#
# rhs_lxz groups its J-terms by a_J and combines them once over the
# common denominator of W_s = [|a|; a]_q (1 - q^s) / (1 - q^(|a|+1-s));
# rhs_sills shifts one expanded W_s.  The references are the per-term
# QRat formulas above.

def _near_ct_grid(n):
    """The a of the near-CT bench grids: entries <= 2, |a| <= 8."""
    return [a for a in itertools.product(range(3), repeat=n) if sum(a) <= 8]


def _lxz_terms(v, a):
    """(a_J, e_J, (-1)^|J|) for every J of the LXZ sum with a_J > 0."""
    n = len(a)
    prefix = partial_sums(v)
    index_set = [i for i in range(1, n + 1) if v[i - 1] == 1]
    out = []
    for size in range(len(index_set) + 1):
        for J in itertools.combinations(index_set, size):
            aJ = sum(a[j - 1] for j in J)
            if aJ:
                eJ = sum(prefix[j - 1] * a[j - 1]
                         for j in range(1, n + 1) if j not in J)
                out.append((aJ, eJ, -1 if size % 2 else 1))
    return out


class TestNearCtBasis:
    def test_whole_bench_grid_matches_qrat(self):
        counts = {"sills": 0, "lxz": 0}
        for n in (2, 3, 4):
            vs = _lxz_vs(n)
            for a in _near_ct_grid(n):
                for r, s in itertools.permutations(range(1, n + 1), 2):
                    assert rhs_sills(a, r, s) == ref_sills(a, r, s), (a, r, s)
                    counts["sills"] += 1
                for v in vs:
                    assert rhs_lxz(v, a) == ref_lxz(v, a), (v, a)
                    counts["lxz"] += 1
        assert counts == {"sills": 1152, "lxz": 1332}

    def test_five_variables(self):
        for a in [(1, 0, 2, 1, 1), (2, 2, 1, 2, 1), (0, 1, 1, 0, 2)]:
            for v in _lxz_vs(5)[::7]:
                assert rhs_lxz(v, a) == ref_lxz(v, a), (v, a)
            for r, s in [(1, 2), (2, 1), (5, 3), (3, 5)]:
                assert rhs_sills(a, r, s) == ref_sills(a, r, s), (a, r, s)

    def test_partial_sums_of_lxz_terms(self):
        # any subset of one case's J-terms, combined in the per-a basis,
        # equals its QRat sum
        checked = 0
        for v, a in [((1, 1, -2), (2, 1, 2)), ((1, 0, 1, -2), (1, 2, 1, 2)),
                     ((1, 1, 1, -3), (2, 1, 2, 1)), ((1, -1, 1, -1), (2, 2, 1, 1))]:
            basis = _near_ct_basis(a)
            terms = _lxz_terms(v, a)
            for size in range(1, len(terms) + 1):
                for subset in itertools.combinations(terms, size):
                    coeffs = [IntPoly() for _ in range(sum(a))]
                    want = QRat(0)
                    for aJ, eJ, sign in subset:
                        coeffs[aJ - 1] = coeffs[aJ - 1] + IntPoly({eJ: sign})
                        want = want + QRat(one_minus_q(aJ).shifted(eJ) * sign,
                                           one_minus_q(1 + sum(a) - aJ))
                    assert (basis.combine(coeffs)
                            == (want * ref_qmultinom(a)).expect_intpoly())
                    checked += 1
        assert checked > 100

    def test_non_polynomial_sums_raise(self):
        # every J-term is a polynomial ([N; k] (1 - q^k) / (1 - q^(N-k+1))
        # is [N; k-1]), but a W_s whose s is no sum of parts of a need not
        # be, and a sum of such terms must raise, not round
        raised = exact = 0
        for a in _near_ct_grid(3):
            total = sum(a)
            basis = _near_ct_basis(a)
            for s in range(1, total + 1):
                for other in range(s, total + 1):
                    coeffs = [IntPoly() for _ in range(total)]
                    coeffs[s - 1] = coeffs[s - 1] + ONE
                    coeffs[other - 1] = coeffs[other - 1] + IntPoly({1: -1})
                    want = QRat(0)
                    for k, c in ((s, ONE), (other, IntPoly({1: -1}))):
                        want = want + QRat(one_minus_q(k) * c,
                                           one_minus_q(1 + total - k))
                    want = (want * ref_qmultinom(a)).as_intpoly()
                    if want is None:
                        raised += 1
                        with pytest.raises(NonExactDivision):
                            basis.combine(coeffs)
                    else:
                        exact += 1
                        assert basis.combine(coeffs) == want
        assert raised > 30 and exact > 100

    def test_interleaved_a_values_past_the_cache_size(self):
        a_values = [(1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 2, 1), (1, 2, 2),
                    (2, 1, 2), (0, 2, 1)]
        vs = _lxz_vs(3)
        want = {a: ([ref_lxz(v, a) for v in vs],
                    [ref_sills(a, r, s)
                     for r, s in itertools.permutations((1, 2, 3), 2)])
                for a in a_values}
        for _ in range(3):
            for a in a_values:
                for i, v in enumerate(vs):
                    assert rhs_lxz(v, a) == want[a][0][i], (v, a)
            for a in reversed(a_values):
                got = [rhs_sills(a, r, s)
                       for r, s in itertools.permutations((1, 2, 3), 2)]
                assert got == want[a][1], a

    def test_random_coefficients_match_qrat(self):
        rng = random.Random(8128)
        raised = 0
        for _ in range(150):
            parts = [_random_ratio(rng) for _ in range(rng.randrange(0, 5))]
            coeffs = [IntPoly({rng.randrange(-3, 4): rng.randrange(-3, 4)
                               for _ in range(rng.randrange(0, 3))})
                      for _ in parts]
            want = QRat(0)
            for (num, den, _), c in zip(parts, coeffs):
                want = want + QRat(num * c, den)
            want = want.as_intpoly()
            basis = CycloBasis(cyc for _, _, cyc in parts)
            if want is None:
                raised += 1
                with pytest.raises(NonExactDivision):
                    basis.combine(coeffs)
            else:
                assert basis.combine(coeffs) == want
        assert 20 < raised < 130

    def test_coefficient_count_must_match(self):
        basis = CycloBasis([Cyclo.one_minus_q(2), Cyclo(0), Cyclo().shifted(3)])
        assert basis.combine([ONE, ONE, IntPoly({-3: 2})]) == IntPoly({0: 3, 2: -1})
        for coeffs in ([ONE, ONE], [ONE] * 4):
            with pytest.raises(ValueError, match="coefficients"):
                basis.combine(coeffs)
        assert CycloBasis([]).combine([]) == IntPoly()
