import random

import pytest

from dysonct.qpoly import (
    ONE, ZERO, Cyclo, IntPoly, NonExactDivision, QRat, poly_gcd,
)
from reference import qbinom, qpoch


def P(**kw):
    # P(e0=1, e2=-3) -> 1 - 3q^2
    return IntPoly({int(k[1:]): v for k, v in kw.items()})


class TestQPoch:
    def test_empty_product(self):
        assert qpoch(1, 0) == ONE

    def test_two_factor_expansion(self):
        # (1-q)(1-q^2) expanded by hand
        assert qpoch(1, 2) == IntPoly({0: 1, 1: -1, 2: -1, 3: 1})

    def test_zero_base_factor(self):
        assert qpoch(0, 1) == ZERO

    def test_negative_base_is_laurent(self):
        p = qpoch(-2, 1)
        assert p == IntPoly({0: 1, -2: -1})

    def test_degree_span(self):
        for m in range(1, 4):
            for k in range(5):
                p = qpoch(m, k)
                if k:
                    assert p.degree() - p.valuation() == k * m + k * (k - 1) // 2


class TestQBinom:
    def test_small_value(self):
        assert qbinom(2, 1) == IntPoly({0: 1, 1: 1})

    def test_m_zero(self):
        for n in range(7):
            assert qbinom(n, 0) == ONE

    def test_out_of_range_is_zero(self):
        assert qbinom(1, 2) == ZERO
        assert qbinom(3, -1) == ZERO

    def test_symmetry_and_positivity(self):
        for n in range(13):
            for m in range(n + 1):
                b = qbinom(n, m)
                assert b == qbinom(n, n - m)
                assert all(c > 0 for _, c in b.items())

    def test_pascal_recurrence(self):
        for n in range(1, 13):
            for m in range(1, n + 1):
                lhs = qbinom(n, m)
                rhs = qbinom(n - 1, m - 1) + qbinom(n - 1, m).shifted(m)
                assert lhs == rhs


def _compositions(total, length):
    if length == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, length - 1):
            yield (first,) + rest


class TestQMultinom:
    def test_single_part(self):
        for k in range(5):
            assert Cyclo.qmultinom((k,)).expand() == ONE

    def test_pair(self):
        assert Cyclo.qmultinom((1, 1)).expand() == qbinom(2, 1)

    def test_triple(self):
        assert Cyclo.qmultinom((1, 1, 1)).expand() == qbinom(2, 1) * qbinom(3, 1)

    def test_permutation_invariance(self):
        import itertools
        for length in (2, 3, 4):
            for total in range(0, 9):
                for a in _compositions(total, length):
                    if tuple(sorted(a)) != a:
                        continue  # one representative per multiset
                    vals = {str(Cyclo.qmultinom(p).expand())
                            for p in set(itertools.permutations(a))}
                    assert len(vals) == 1


class TestIntPolyArith:
    def test_laurent_mul(self):
        p = IntPoly({-1: 1, 1: 1})
        assert p * p == IntPoly({-2: 1, 0: 2, 2: 1})

    def test_exact_div(self):
        num = IntPoly({0: 1, 2: -1})
        den = IntPoly({0: 1, 1: -1})
        assert num.exact_div(den) == IntPoly({0: 1, 1: 1})
        # non-monic divisors and Laurent offsets
        assert P(e0=2, e1=2).exact_div(P(e0=2)) == P(e0=1, e1=1)
        assert P(e0=6, e1=-2, e2=-4).exact_div(P(e0=2, e1=-2)) == P(e0=3, e1=2)
        assert IntPoly({-3: 4, -1: -4}).exact_div(IntPoly({2: 2})) == \
            IntPoly({-5: 2, -3: -2})

    def test_exact_div_remainder_raises(self):
        for num, den in [(P(e0=1, e2=1), P(e0=1, e1=1)),
                         (P(e0=1, e1=1), P(e0=2)),
                         (P(e0=1, e2=1), P(e0=2, e1=2)),
                         (P(e0=1), P(e0=1, e1=1)),
                         (P(e0=3, e1=3), P(e0=2, e1=2))]:
            with pytest.raises(NonExactDivision):
                num.exact_div(den)

    def test_gcd(self):
        a = qpoch(1, 3)
        b = qpoch(1, 1)
        q_minus_1 = IntPoly({0: -1, 1: 1})  # positive leading coefficient
        assert poly_gcd(a, b) == q_minus_1
        assert poly_gcd(a * 6, b * 4) == q_minus_1 * 2

    def test_render_examples(self):
        assert str(qpoch(1, 2)) == "1 - q - q^2 + q^3"
        assert str(IntPoly({-1: -2, 0: 3})) == "-2*q^-1 + 3"
        assert str(ZERO) == "0"


class TestQRat:
    def test_exact_cancellation_to_poly(self):
        r = QRat(IntPoly({0: 1, 2: -1}), IntPoly({0: 1, 1: -1}))
        assert r.as_intpoly() == IntPoly({0: 1, 1: 1})

    def test_additive_inverse(self):
        r = QRat(qpoch(1, 2), qpoch(2, 2))
        assert (r + (-r)).is_zero

    def test_multiplicative_inverse_pair(self):
        a = QRat(qpoch(1, 1), qpoch(3, 1))
        b = QRat(qpoch(3, 1), qpoch(1, 1))
        assert a * b == QRat(1)

    def test_division(self):
        a = QRat(IntPoly({0: 1, 2: -1}))
        b = QRat(IntPoly({0: 1, 1: -1}))
        assert (a / b).as_intpoly() == IntPoly({0: 1, 1: 1})

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QRat(1) / QRat(0)
        with pytest.raises(ZeroDivisionError):
            QRat(ONE, ZERO)

    def test_normalization_idempotent(self):
        rng = random.Random(11)
        for _ in range(60):
            num = IntPoly({rng.randrange(-4, 6): rng.randrange(-8, 9)
                           for _ in range(rng.randrange(0, 5))})
            den = IntPoly({rng.randrange(0, 5): rng.randrange(-8, 9)
                           for _ in range(rng.randrange(1, 5))})
            if den.is_zero:
                continue
            r = QRat(num, den)
            again = QRat(r.num, r.den)
            assert again.num == r.num and again.den == r.den
            # canonical form invariants
            if not r.is_zero:
                assert r.den.valuation() == 0
                assert r.den.leading() > 0
                assert poly_gcd(r.num.shifted(-r.num.valuation()), r.den) == ONE

    def test_laurent_numerator(self):
        r = QRat(IntPoly({-2: 1}), IntPoly({0: 2}))
        assert r.num == IntPoly({-2: 1})
        assert r.den == IntPoly({0: 2})

    def test_roundtrip_to_intpoly(self):
        r = QRat(qpoch(1, 2))
        assert r.as_intpoly() == qpoch(1, 2)
        # (1-q)(1-q^2) shares no factor with 1+q+q^2+q^3+q^4
        fifth = IntPoly({e: 1 for e in range(5)})
        assert QRat(qpoch(1, 2), fifth).as_intpoly() is None
