"""Exact univariate arithmetic in q.

An IntPoly is a Laurent polynomial in q with arbitrary-precision integer
coefficients, stored sparsely as {exponent: coefficient}.  No zero
coefficient is ever stored and the zero polynomial is the empty map, so
equality is plain structural comparison.  Its exact division runs in
integers only and raises NonExactDivision unless the quotient lies in
Z[q, 1/q].

The closed forms are ratios of products of (1 - q^k), and a Cyclo holds
one as sign * q^shift * prod_d Phi_d(q)^m_d over the cyclotomic
polynomials Phi_d, so that multiplying and dividing add and subtract
exponents.  It is expanded once, at the end, and an exponent that stays
negative raises NonExactDivision: that is how a wrong formula shows.

The expansion is a Kronecker substitution.  Since ||fg||_1 <= ||f||_1
||g||_1, every coefficient of the product is at most
B = prod_d ||Phi_d||_1^m_d in absolute value.  With b = bitlen(B) + 1,
the integer sign * prod_d Phi_d(2^b)^m_d therefore holds the coefficients
as balanced base-2^b digits (a digit >= 2^(b-1) stands for itself minus
2^b, with a carry into the next one), and one big-integer product
replaces the polynomial multiplications.  A CycloBasis adds such ratios
with polynomial coefficients: it puts them over their common cyclotomic
denominator and expands the numerators once, so each sum costs one
exact division by that denominator.

QRat is the field of quotients by polynomial gcd: no route of the package
builds one, and the tests use it as the slow reference for the Cyclo
route.  Every QRat is kept in a canonical form:

  * the denominator is nonzero, has lowest exponent 0 (any q-power shift
    lives in the numerator, which may be Laurent) and positive leading
    coefficient;
  * numerator and denominator share no polynomial factor over the
    rationals and no integer content.

With that convention equality of quotients is again structural.

Every printed polynomial, an ``IntPoly``, an ``mpoly.MPoly`` or a report's
t-monomial key, is written by the text form below: ``render_terms`` owns
the signs and ``*``, and ``render_power`` each ``name^e``.
"""

from __future__ import annotations

import functools


class NonExactDivision(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


# -- text form -------------------------------------------------------------------

def render_power(name: str, e: int) -> str:
    """``name^e``, or the bare name when e is 1."""
    return name if e == 1 else f"{name}^{e}"


def render_monomial(powers) -> str:
    """The (name, e) pairs with e != 0 as powers joined by ``*``, or ""."""
    return "*".join([render_power(name, e) for name, e in powers if e])


def render_terms(terms) -> str:
    """(coefficient, monomial) terms as a sum in the given order; each
    monomial is one string, "" for 1.  A coefficient 1 or -1 is left off a
    monomial and any other joins it by ``*``; terms after the first are
    signed ``+ `` or ``- ``, and the empty sum is ``0``.
    """
    parts = []
    for c, mono in terms:
        mag = abs(c)
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        sign = ("+ " if c > 0 else "- ") if parts else ("" if c > 0 else "-")
        parts.append(sign + body)
    return " ".join(parts) or "0"


class IntPoly:
    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        if coeffs:
            self._c = {e: c for e, c in coeffs.items() if c}
        else:
            self._c = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "IntPoly":
        return cls({0: c})

    # -- inspection --------------------------------------------------------

    def items(self):
        """Term list as (exponent, coefficient) pairs, ascending exponent."""
        return sorted(self._c.items())

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    @property
    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def degree(self) -> int:
        """Highest exponent; raises on the zero polynomial."""
        return max(self._c)

    def valuation(self) -> int:
        """Lowest exponent; raises on the zero polynomial."""
        return min(self._c)

    def leading(self) -> int:
        return self._c[max(self._c)]

    def content(self) -> int:
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self._c.values():
            g = _gcd_int(g, c)
        return g

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __repr__(self):
        return f"IntPoly({self})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        out = dict(self._c)
        for e, c in other._c.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        r = IntPoly.__new__(IntPoly)
        r._c = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = IntPoly.__new__(IntPoly)
        r._c = {e: -c for e, c in self._c.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return IntPoly()
            r = IntPoly.__new__(IntPoly)
            r._c = {e: c * other for e, c in self._c.items()}
            return r
        out: dict[int, int] = {}
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        for e2, c2 in b.items():
            for e1, c1 in a.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        r = IntPoly.__new__(IntPoly)
        r._c = out
        return r

    __rmul__ = __mul__

    def shifted(self, k: int) -> "IntPoly":
        """Multiply by q**k."""
        r = IntPoly.__new__(IntPoly)
        r._c = {e + k: c for e, c in self._c.items()}
        return r

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Exact division in Z[q, 1/q]; raises NonExactDivision on any
        remainder or non-integer quotient coefficient."""
        if other.is_zero:
            raise ZeroDivisionError("IntPoly division by zero")
        if self.is_zero:
            return IntPoly()
        # Long division on ordinary polynomials; the quotient keeps the
        # offset.  A quotient in Z[q] makes every step an integer division.
        sv, ov = self.valuation(), other.valuation()
        num = [0] * (self.degree() - sv + 1)
        for e, c in self._c.items():
            num[e - sv] = c
        dn = other.degree() - ov
        lead = other._c[dn + ov]
        den = [(e - ov, c) for e, c in other._c.items() if e - ov != dn]
        out = {}
        for i in range(len(num) - 1, dn - 1, -1):
            c = num[i]
            if c:
                f, r = divmod(c, lead)
                if r:
                    raise NonExactDivision(
                        f"({self}) / ({other}) has non-integer coefficients")
                out[i - dn + sv - ov] = f
                for j, dc in den:
                    num[i - dn + j] -= f * dc
        if any(num[:dn]):
            raise NonExactDivision(f"({self}) / ({other}) leaves a remainder")
        r = IntPoly.__new__(IntPoly)
        r._c = out
        return r

    # -- text form ---------------------------------------------------------

    def __str__(self):
        return render_terms([(c, render_power("q", e) if e else "")
                             for e, c in self.items()])


ZERO = IntPoly()
ONE = IntPoly.const(1)


# -- integer gcd of polynomials (the slow reference route) ----------------------

def _gcd_int(a: int, b: int) -> int:
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def _pp_dense(u: list[int]) -> list[int]:
    """Primitive part, sign of the leading coefficient preserved."""
    g = 0
    for c in u:
        g = _gcd_int(g, c)
    if g in (0, 1):
        return list(u)
    return [c // g for c in u]


def _pseudo_rem(u: list[int], v: list[int]) -> list[int]:
    """Pseudo-remainder of u by v over the integers (both dense, v != 0)."""
    u = list(u)
    dv = len(v) - 1
    lv = v[dv]
    while len(u) - 1 >= dv and any(u):
        while u and u[-1] == 0:
            u.pop()
        if len(u) - 1 < dv or not u:
            break
        du = len(u) - 1
        c = u[du]
        u = [x * lv for x in u]
        for j in range(dv + 1):
            u[du - dv + j] -= c * v[j]
        while u and u[-1] == 0:
            u.pop()
    return u


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Gcd in Z[q] (inputs must have nonnegative exponents).

    Primitive-part Euclid with integer-content bookkeeping; the result is
    primitive up to the gcd of the contents and has positive leading
    coefficient.
    """
    if a.is_zero:
        return b if b.is_zero or b.leading() > 0 else -b
    if b.is_zero:
        return a if a.leading() > 0 else -a
    if a.valuation() < 0 or b.valuation() < 0:
        raise ValueError("poly_gcd needs ordinary (non-Laurent) polynomials")
    cont = _gcd_int(a.content(), b.content())
    u = _pp_dense([a.coeff(e) for e in range(a.degree() + 1)])
    v = _pp_dense([b.coeff(e) for e in range(b.degree() + 1)])
    if len(u) < len(v):
        u, v = v, u
    while any(v):
        r = _pseudo_rem(u, v)
        u, v = v, _pp_dense(r)
    if u[-1] < 0:
        u = [-c for c in u]
    g = IntPoly({e: c * cont for e, c in enumerate(u)})
    return g


class QRat:
    """Fraction of IntPoly values, always in the canonical form above."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = IntPoly.const(num)
        if den is None:
            den = ONE
        elif isinstance(den, int):
            den = IntPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("QRat with zero denominator")
        if num.is_zero:
            self.num, self.den = ZERO, ONE
            return
        # Shift any q-power of the denominator into the numerator.
        shift = den.valuation()
        if shift:
            num = num.shifted(-shift)
            den = den.shifted(-shift)
        nv = num.valuation()
        body = num.shifted(-nv) if nv else num
        g = poly_gcd(body, den)
        if g != ONE:
            body = body.exact_div(g)
            den = den.exact_div(g)
        c = _gcd_int(body.content(), den.content())
        if c > 1:
            body = IntPoly({e: x // c for e, x in body._c.items()})
            den = IntPoly({e: x // c for e, x in den._c.items()})
        if den.leading() < 0:
            body, den = -body, -den
        self.num = body.shifted(nv) if nv else body
        self.den = den

    @classmethod
    def _raw(cls, num: IntPoly, den: IntPoly) -> "QRat":
        """Internal: wrap already-canonical parts without renormalizing."""
        r = cls.__new__(cls)
        r.num, r.den = num, den
        return r

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, IntPoly)):
            other = QRat(other)
        if not isinstance(other, QRat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, (int, IntPoly)):
            other = QRat(other)
        return QRat(self.num * other.den + other.num * self.den,
                    self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return QRat._raw(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, IntPoly)):
            other = QRat(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, IntPoly)):
            other = QRat(other)
        return QRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, IntPoly)):
            other = QRat(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero QRat")
        return QRat(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return QRat(other) / self

    def inverse(self) -> "QRat":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero QRat")
        return QRat(self.den, self.num)

    def as_intpoly(self):
        """The numerator if the denominator is 1, else None."""
        if self.den == ONE:
            return self.num
        return None

    def expect_intpoly(self, context: str = "") -> IntPoly:
        """As as_intpoly but a failure is an arithmetic error."""
        p = self.as_intpoly()
        if p is None:
            raise NonExactDivision(
                f"expected a polynomial{' in ' + context if context else ''}:"
                f" ({self.num}) / ({self.den})")
        return p

    def __str__(self):
        if self.den == ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"QRat({self})"


# -- cyclotomic products -------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _divisors(k: int) -> tuple:
    return tuple(d for d in range(1, k + 1) if k % d == 0)


@functools.lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPoly:
    """The cyclotomic polynomial Phi_d, built on first use from
    q^d - 1 = prod_{e | d} Phi_e by exact division (every Phi_e is monic)."""
    if d < 1:
        raise ValueError("cyclotomic needs d >= 1")
    out = IntPoly({0: -1, d: 1})
    for e in _divisors(d)[:-1]:
        out = out.exact_div(cyclotomic(e))
    return out


@functools.lru_cache(maxsize=None)
def _cyclotomic_norm(d: int) -> int:
    """The l1 norm of Phi_d."""
    return sum(abs(c) for c in cyclotomic(d)._c.values())


def balanced_digits(value: int, b: int, low: int = 0) -> dict:
    """{low + i: d_i} over the nonzero balanced base-2^b digits d_i of value.

    value = sum_i d_i 2^(b i) with every -2^(b-1) <= d_i < 2^(b-1); a digit
    read as >= 2^(b-1) stands for itself minus 2^b, with a carry into the
    next one.  This inverts evaluation at q = 2^b, shifted by q^low, for
    every Laurent polynomial whose coefficients lie in that range.
    """
    if b < 2:  # digits in [-1, 1) cannot spell a positive value
        raise ValueError("balanced digits need b >= 2")
    mask, half, base = (1 << b) - 1, 1 << (b - 1), 1 << b
    out = {}
    e = low
    while value:
        digit = value & mask
        if digit >= half:
            digit -= base
        if digit:
            out[e] = digit
        value = (value - digit) >> b
        e += 1
    return out


class Cyclo:
    """sign * q^shift * prod_d Phi_d(q)^mult[d], the exponents in Z.

    Every closed form here is a ratio of products of (1 - q^k), and
    1 - q^k = -prod_{d | k} Phi_d for k > 0, so such a ratio is a Cyclo:
    multiplying and dividing add and subtract exponent multisets, and the
    representation is unique (the Phi_d are distinct irreducibles), so
    equality is structural.  ``expand`` multiplies out once, at the end,
    and raises NonExactDivision if some Phi_d keeps a negative exponent,
    which is how a wrong formula shows.  sign 0 is the zero value.  Values
    are immutable: every operation returns a new Cyclo.
    """

    __slots__ = ("sign", "shift", "mult")

    def __init__(self, sign: int = 1, shift: int = 0, mult=None):
        if sign not in (-1, 0, 1):
            raise ValueError("Cyclo sign must be -1, 0 or 1")
        self.sign = sign
        self.shift = shift if sign else 0
        self.mult = {d: m for d, m in mult.items() if m} if mult and sign else {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def power_diffs(cls, sign: int, num, den=()) -> "Cyclo":
        """sign * prod (q^e1 - q^e2) over the pairs of ``num``, divided by
        prod (q^f1 - q^f2) over the pairs of ``den``, in one pass.

        q^e1 - q^e2 is -q^e1 prod_{d | k} Phi_d for k = e2 - e1 > 0 and
        q^e2 prod_{d | -k} Phi_d for k < 0.  A zero factor (e1 = e2) makes
        the value zero in ``num`` and raises ZeroDivisionError in ``den``,
        which is read first.
        """
        shift, mult = 0, {}
        for pairs, k in ((den, -1), (num, 1)):
            for e1, e2 in pairs:
                if e1 == e2:
                    if k < 0:
                        raise ZeroDivisionError("division by a zero Cyclo")
                    return cls(0)
                if e1 < e2:
                    sign = -sign
                    shift += k * e1
                else:
                    shift += k * e2
                for d in _divisors(abs(e1 - e2)):
                    mult[d] = mult.get(d, 0) + k
        return cls(sign, shift, mult)

    @classmethod
    def one_minus_q(cls, k: int) -> "Cyclo":
        """1 - q^k, which is zero for k = 0."""
        return cls.power_diffs(1, [(0, k)])

    @classmethod
    def q_power_diff(cls, e1: int, e2: int) -> "Cyclo":
        """q^e1 - q^e2, which is zero for e1 = e2."""
        return cls.power_diffs(1, [(e1, e2)])

    @classmethod
    def qfactorial(cls, n: int) -> "Cyclo":
        """(q)_n = (-1)^n prod_d Phi_d^floor(n/d)."""
        if n < 0:
            raise ValueError("qfactorial needs n >= 0")
        return cls(-1 if n % 2 else 1, 0, {d: n // d for d in range(1, n + 1)})

    @classmethod
    def qpoch(cls, m: int, k: int) -> "Cyclo":
        """(q^m)_k = (q)_{m+k-1} / (q)_{m-1} for m >= 1."""
        if m < 1 or k < 0:
            raise ValueError("Cyclo.qpoch needs m >= 1 and k >= 0")
        return cls.qfactorial(m + k - 1) / cls.qfactorial(m - 1)

    @classmethod
    def qbinom(cls, n: int, m: int) -> "Cyclo":
        """The Gaussian binomial (q)_n / ((q)_m (q)_{n-m}); zero outside the
        range 0 <= m <= n."""
        return cls.qmultinom((m, n - m)) if 0 <= m <= n else cls(0)

    @classmethod
    def qmultinom(cls, a) -> "Cyclo":
        """q-multinomial coefficient (q)_{|a|} / prod (q)_{a_i} of a
        composition: the Phi_d exponent is floor(|a|/d) - sum floor(a_i/d),
        which is never negative.  A test checks it against the product of
        q-binomials of the partial sums."""
        a = tuple(a)
        if any(x < 0 for x in a):
            raise ValueError("qmultinom needs nonnegative parts")
        total = sum(a)
        return cls(1, 0, {d: total // d - sum(x // d for x in a)
                          for d in range(1, total + 1)})

    # -- arithmetic ----------------------------------------------------------

    def _combine(self, other: "Cyclo", k: int) -> "Cyclo":
        mult = dict(self.mult)
        for d, m in other.mult.items():
            mult[d] = mult.get(d, 0) + k * m
        return Cyclo(self.sign * other.sign, self.shift + k * other.shift, mult)

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        return self._combine(other, 1)

    def __truediv__(self, other: "Cyclo") -> "Cyclo":
        if not other.sign:
            raise ZeroDivisionError("division by a zero Cyclo")
        return self._combine(other, -1)

    def __neg__(self) -> "Cyclo":
        return Cyclo(-self.sign, self.shift, self.mult)

    def shifted(self, k: int) -> "Cyclo":
        """Multiply by q**k."""
        return Cyclo(self.sign, self.shift + k, self.mult)

    def __eq__(self, other):
        if not isinstance(other, Cyclo):
            return NotImplemented
        return (self.sign, self.shift, self.mult) == (other.sign, other.shift, other.mult)

    def expand(self) -> IntPoly:
        """The value as an IntPoly; NonExactDivision if it is not one.

        Multiplied out by Kronecker substitution at q = 2^b, with b one bit
        above the coefficient bound (see the module docstring).
        """
        if not self.sign:
            return IntPoly()
        left = sorted(d for d, m in self.mult.items() if m < 0)
        if left:
            raise NonExactDivision(
                f"not a polynomial: Phi_d stays in the denominator for d in {left}")
        bound = 1
        for d, m in self.mult.items():
            bound *= _cyclotomic_norm(d) ** m
        b = bound.bit_length() + 1
        # a balanced product tree keeps the two operands of each big-integer
        # multiply of similar size
        values = [self.sign] + [
            sum(c << (e * b) for e, c in cyclotomic(d)._c.items()) ** m
            for d, m in self.mult.items()]
        while len(values) > 1:
            values = [values[i] * values[i + 1] if i + 1 < len(values)
                      else values[i] for i in range(0, len(values), 2)]
        r = IntPoly.__new__(IntPoly)
        r._c = balanced_digits(values[0], b, self.shift)
        return r

    def __repr__(self):
        return f"Cyclo({self.sign}, {self.shift}, {dict(sorted(self.mult.items()))})"


class CycloBasis:
    """The sums sum_s C_s W_s of fixed Cyclo values W_s with IntPoly
    coefficients C_s.

    The common denominator D = prod_d Phi_d^D_d, with D_d the largest
    exponent -m of Phi_d^m over the W_s (0 if every m >= 0), and the
    smallest shift s come out once: every W_s D / q^s is a polynomial
    and is expanded once, and so is D.  Each ``combine`` then costs one
    exact division of sum_s C_s (W_s D / q^s) by D and a shift by q^s; a
    remainder (the sum is not a polynomial) raises NonExactDivision.
    """

    __slots__ = ("quotients", "den", "shift")

    def __init__(self, terms):
        terms = list(terms)
        nonzero = [t for t in terms if t.sign]
        den = {d: -min(t.mult.get(d, 0) for t in nonzero)
               for d in {d for t in nonzero for d in t.mult}}
        den = Cyclo(1, 0, {d: m for d, m in den.items() if m > 0})
        self.shift = min((t.shift for t in nonzero), default=0)
        self.quotients = [(t * den).shifted(-self.shift).expand() for t in terms]
        self.den = den.expand() if den.mult else None

    def combine(self, coeffs) -> IntPoly:
        """sum_s coeffs[s] * W_s, as an IntPoly."""
        coeffs = list(coeffs)
        if len(coeffs) != len(self.quotients):
            raise ValueError(f"{len(coeffs)} coefficients for a basis of "
                             f"{len(self.quotients)} values")
        acc: dict[int, int] = {}
        for c, quo in zip(coeffs, self.quotients):
            for e1, c1 in c._c.items():
                for e2, c2 in quo._c.items():
                    e = e1 + e2
                    acc[e] = acc.get(e, 0) + c1 * c2
        num = IntPoly(acc)
        if self.den is not None:
            num = num.exact_div(self.den)
        return num.shifted(self.shift)
