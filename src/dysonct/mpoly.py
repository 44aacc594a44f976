"""Sparse multivariate Laurent polynomials over the integers.

A polynomial is a map from monomials to nonzero integer coefficients.  The
variables live in a VarTable that fixes their order once and for all:

    q,  x1 .. xn,  t[i,j] (pairs i < j),  u[i]

Internally a monomial's exponent vector is packed into a single integer,
32 bits per variable with an offset of 2^31 so that negative (Laurent)
exponents are representable.  Multiplying two monomials is then a single
integer addition, which is what makes the brute-force kernel expansions
cheap enough for the verification grids.  Every exponent must lie in the
signed field range [-2^31, 2^31): ``VarTable.encode``, ``monomial_key``, the
``MPoly`` constructor, ``from_q_coefficients``, ``times_binomials``, the
coefficient shifts of ``coeff_x``, ``coeff_aux`` and ``mul_coeff_x`` and
``subst_x_qpower`` raise ValueError for anything outside it; ``Kernel`` takes
a binomial's q-power in [0, 2^31) only.  The multiply loops stay unchecked;
a kernel's exponents are bounded by its number of factors.

This module owns the packed format: other modules go through exponent
vectors and ``monomial_key`` and never shift or mask a packed key.

MPoly values are immutable once built; every operation returns a fresh
polynomial.  ``str`` writes one through ``qpoly.render_terms``.

A ``Kernel`` and ``mul_coeff_x`` multiply and join q-packed polynomials,
which fold each coefficient polynomial in q into one integer (a Kronecker
substitution, as in ``qpoly.Cyclo.expand``), so that their loops run over
the monomials in x and the auxiliary variables only.  The section on
q-packed polynomials below defines the format.  A kernel's binomials are
plain (u, v, k) and (i, j) entries (``kernel_factors``), never MPolys,
and its MPoly factors multiply into the start of their half.  One
two-term step multiplies by every binomial 1 - m: ``Kernel`` runs it on
q-packed terms and ``MPoly.times_binomials`` (the u-sum's) on plain ones.
"""

from __future__ import annotations

import functools
import itertools

from .qpoly import IntPoly, balanced_digits, render_monomial, render_terms

_W = 32
_B = 1 << (_W - 1)
_FIELD = (1 << _W) - 1


class VarTable:
    """Ordered variable table: q, an x-block, and the auxiliary t and u
    families."""

    __slots__ = ("nx", "t_pairs", "u_size", "names", "nvars", "off",
                 "_index", "_xmask", "_xoff", "_tmask", "_umask",
                 "_x_ratio", "_t_ratio")

    def __init__(self, nx: int, t_pairs=(), u_size: int = 0):
        t_pairs = tuple(sorted(t_pairs))
        if (nx < 0 or u_size < 0 or len(set(t_pairs)) < len(t_pairs)
                or not all(1 <= i < j <= nx for i, j in t_pairs)):
            raise ValueError(f"malformed table: nx={nx}, t_pairs={t_pairs} "
                             f"(distinct, 1 <= i < j <= nx), u_size={u_size}")
        self.nx = nx
        self.t_pairs = t_pairs
        self.u_size = u_size

        names = ["q"] + [f"x{i}" for i in range(1, nx + 1)]
        names += [f"t[{i},{j}]" for i, j in t_pairs]
        names += [f"u[{i}]" for i in range(1, u_size + 1)]
        self.names = tuple(names)
        self.nvars = len(names)
        self._index = {name: k for k, name in enumerate(names)}
        self.off = sum(_B << (_W * k) for k in range(self.nvars))
        self._xmask = self._group_mask(1, nx)
        self._xoff = self.off & self._xmask
        t0 = 1 + nx
        self._tmask = self._group_mask(t0, len(t_pairs))
        self._umask = self._group_mask(t0 + len(t_pairs), u_size)
        # packed offsets of x_v/x_u and of t[u,v] x_v/x_u, for Kernel
        self._x_ratio = {(u, v): (1 << (_W * v)) - (1 << (_W * u)) for u, v
                         in itertools.permutations(range(1, nx + 1), 2)}
        self._t_ratio = {p: self._x_ratio[p] + (1 << (_W * (t0 + k)))
                         for k, p in enumerate(t_pairs)}

    @staticmethod
    def _group_mask(start, count):
        return sum(_FIELD << (_W * k) for k in range(start, start + count))

    # -- variable indices ---------------------------------------------------

    def x_index(self, i: int) -> int:
        if not 1 <= i <= self.nx:
            raise IndexError(f"x{i} not in table")
        return i

    def t_index(self, i: int, j: int) -> int:
        return self._index[f"t[{i},{j}]"]

    def u_index(self, i: int) -> int:
        return self._index[f"u[{i}]"]

    def __eq__(self, other):
        return (isinstance(other, VarTable)
                and self.names == other.names)

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarTable({', '.join(self.names)})"

    # -- monomial packing ---------------------------------------------------

    def shift(self, exps) -> int:
        """Packed offset of (variable index, exponent) pairs.

        Adding it to a key moves each listed exponent by the given amount.
        Raises ValueError for an exponent outside the field range.
        """
        out = 0
        for k, e in exps:
            if not -_B <= e < _B:
                raise ValueError(f"exponent {e} outside the packed range "
                                 f"[-2^{_W - 1}, 2^{_W - 1})")
            out += e << (_W * k)
        return out

    def x_shift(self, v) -> int:
        """``shift`` for an exponent vector over the x-block."""
        v = tuple(v)
        if len(v) != self.nx:
            raise ValueError(f"coefficient vector length {len(v)} != {self.nx}")
        return self.shift(enumerate(v, start=1))

    def encode(self, vec) -> int:
        vec = tuple(vec)
        if len(vec) != self.nvars:
            raise ValueError(f"exponent vector length {len(vec)} != {self.nvars}")
        return self.off + self.shift(enumerate(vec))

    def decode(self, key: int) -> tuple:
        # from a list, so the tuple is allocated at its final size and
        # reuses the interpreter's tuple free list instead of growing it
        return tuple([((key >> (_W * k)) & _FIELD) - _B
                      for k in range(self.nvars)])

    def monomial_key(self, exps: dict) -> int:
        """Pack {variable index: exponent} (missing entries are 0)."""
        return self.off + self.shift(exps.items())


# -- table factories: one shared table per argument; no code mutates a table ---

@functools.lru_cache(maxsize=None)
def table_x(n: int) -> VarTable:
    """q and x1..xn only."""
    return VarTable(n)


@functools.lru_cache(maxsize=None)
def table_kernel(n: int) -> VarTable:
    """q, x1..xn and one t[i,j] per pair; carrier of the deformed kernels."""
    return VarTable(n, t_pairs=itertools.combinations(range(1, n + 1), 2))


@functools.lru_cache(maxsize=None)
def table_tau(n: int, m: int) -> VarTable:
    """Table for kernels on n + m variables whose t's are restricted: only
    the pairs within the first n carry a t[i,j]."""
    if m < 0:
        raise ValueError(f"m = {m}: the tau table needs m >= 0")
    return VarTable(n + m, t_pairs=table_kernel(n).t_pairs)


@functools.lru_cache(maxsize=None)
def table_u(n: int) -> VarTable:
    """q and u1..un (no x-block); carrier for the u-sum identities."""
    return VarTable(0, u_size=n)


class MPoly:
    __slots__ = ("table", "_terms")

    def __init__(self, table: VarTable, terms=None):
        self.table = table
        self._terms = {}
        if terms:
            for vec, c in terms:
                if not c:
                    continue
                key = table.encode(vec)
                s = self._terms.get(key, 0) + c
                if s:
                    self._terms[key] = s
                else:
                    del self._terms[key]

    # -- construction helpers ----------------------------------------------

    @classmethod
    def _make(cls, table, termdict) -> "MPoly":
        p = cls.__new__(cls)
        p.table = table
        p._terms = termdict
        return p

    @classmethod
    def zero(cls, table) -> "MPoly":
        return cls._make(table, {})

    @classmethod
    def one(cls, table) -> "MPoly":
        return cls._make(table, {table.off: 1})

    @classmethod
    def monomial(cls, table, exps: dict) -> "MPoly":
        return cls._make(table, {table.monomial_key(exps): 1})

    @classmethod
    def from_intpoly(cls, table, p: IntPoly) -> "MPoly":
        return cls.from_q_coefficients(table, [({}, p)])

    @classmethod
    def from_q_coefficients(cls, table, items) -> "MPoly":
        """The sum of p * m over (exps, p) pairs: m the monomial
        {variable index: exponent} ``exps``, which leaves q out, and p an
        IntPoly in q.  Written into one dict; a repeated monomial adds."""
        out: dict[int, int] = {}
        for exps, p in items:
            if 0 in exps:
                raise ValueError("the monomial must leave q to the coefficient")
            key = table.monomial_key(exps)
            for e, c in p.items():
                if not -_B <= e < _B:
                    raise ValueError(f"exponent {e} outside the packed range "
                                     f"[-2^{_W - 1}, 2^{_W - 1})")
                k = key + e
                s = out.get(k, 0) + c
                if s:
                    out[k] = s
                else:
                    del out[k]
        return cls._make(table, out)

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def _vectors(self):
        """(exponent vector, coefficient) pairs in storage order."""
        dec = self.table.decode
        return ((dec(k), c) for k, c in self._terms.items())

    def terms(self):
        """(exponent vector, coefficient) pairs in graded-lex order."""
        return sorted(self._vectors(), key=lambda vc: (sum(vc[0]), vc[0]))

    def t_coefficients(self) -> dict:
        """Split a polynomial in q and t into {t-exponent tuple: IntPoly in
        q}, the tuple in the order of ``table.t_pairs``.

        Terms are grouped by the t-part of their packed key, and each
        distinct t-monomial is decoded once.  Raises ValueError if a term
        carries an exponent of any other variable.
        """
        t = self.table
        tm = t._tmask
        rest = ~(tm | _FIELD)
        rest_off = t.off & rest
        groups: dict[int, dict] = {}
        for k, c in self._terms.items():
            if k & rest != rest_off:
                raise ValueError("term carries non-(q,t) exponents")
            g = groups.get(k & tm)
            if g is None:
                g = groups[k & tm] = {}
            g[(k & _FIELD) - _B] = c
        t0 = 1 + t.nx
        fields = range(t0, t0 + len(t.t_pairs))
        return {tuple([((tk >> (_W * i)) & _FIELD) - _B for i in fields]):
                IntPoly(g) for tk, g in groups.items()}

    def __eq__(self, other):
        if isinstance(other, (int, IntPoly)):
            other = self._coerce(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.table == other.table and self._terms == other._terms

    def __repr__(self):
        body = str(self)
        if len(body) > 120:
            body = f"<{len(self._terms)} terms>"
        return f"MPoly({body})"

    # -- ring operations ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        if isinstance(other, IntPoly):
            other = MPoly.from_intpoly(self.table, other)
        if not isinstance(other, MPoly):
            raise TypeError(f"cannot combine MPoly with {type(other).__name__}")
        if other.table != self.table:
            raise ValueError("variable tables differ")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return MPoly._make(self.table, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._make(self.table, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return MPoly.zero(self.table)
            return MPoly._make(self.table,
                               {k: c * other for k, c in self._terms.items()})
        other = self._coerce(other)
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        off = self.table.off
        out: dict[int, int] = {}
        for k2, c2 in b.items():
            k2o = k2 - off
            for k1, c1 in a.items():
                k = k1 + k2o
                c = out.get(k)
                if c is None:
                    out[k] = c1 * c2
                else:
                    c += c1 * c2
                    if c:
                        out[k] = c
                    else:
                        del out[k]
        return MPoly._make(self.table, out)

    __rmul__ = __mul__

    def times_binomials(self, monomials) -> "MPoly":
        """This polynomial times prod (1 - m) over ``monomials``, each m a
        {variable index: exponent}: ``_fold`` with steps (offset of m, 0)."""
        shift = self.table.shift
        return MPoly._make(self.table, _fold(
            [(shift(m.items()), 0) for m in monomials], 0, self._terms))

    # -- extraction -----------------------------------------------------------

    def ct_x(self) -> "MPoly":
        """Sub-polynomial of terms whose x-exponents all vanish."""
        t = self.table
        xm, xo = t._xmask, t._xoff
        return MPoly._make(t, {k: c for k, c in self._terms.items()
                               if k & xm == xo})

    def coeff_x(self, v) -> "MPoly":
        """Coefficient of x^v; x-exponents are projected back to zero."""
        t = self.table
        shift = t.x_shift(v)
        target = t._xoff + shift
        xm = t._xmask
        return MPoly._make(t, {k - shift: c for k, c in self._terms.items()
                               if k & xm == target})

    def coeff_aux(self, family: str, exponents) -> "MPoly":
        """Coefficient of a monomial in one auxiliary family.

        ``exponents`` maps the family's index tuples (pairs for t,
        integers for u) to exponents; omitted indices mean exponent 0.
        The matched variables are projected out (set back to exponent 0).
        """
        t = self.table
        if family == "t":
            valid = set(t.t_pairs)
            index = lambda ij: t.t_index(*ij)
            mask = t._tmask
        elif family == "u":
            valid = set(range(1, t.u_size + 1))
            index = t.u_index
            mask = t._umask
        else:
            raise ValueError(f"unknown family {family!r}")
        exps = dict(exponents)
        if not set(exps) <= valid:
            raise ValueError(f"indices {sorted(set(exps) - valid)} not in family {family}")
        shift = t.shift((index(ix), e) for ix, e in exps.items())
        target = (t.off & mask) + shift
        return MPoly._make(t, {k - shift: c for k, c in self._terms.items()
                               if k & mask == target})

    # -- substitutions ----------------------------------------------------------
    #
    # ``subst_x_qpower`` maps decoded exponent vectors and rebuilds through
    # the checked constructor, which merges equal monomials, drops zero
    # coefficients and rejects exponents outside the packed range.

    def subst_x_qpower(self, alpha) -> "MPoly":
        """Substitute x_i -> q^{alpha_i}; the x-block collapses into q."""
        n = self.table.nx
        alpha = tuple(alpha)
        if len(alpha) != n:
            raise ValueError("alpha length mismatch")
        zeros = (0,) * n
        return MPoly(self.table, (
            ((v[0] + sum(a * e for a, e in zip(alpha, v[1:])),) + zeros
             + v[n + 1:], c)
            for v, c in self._vectors()))

    def to_intpoly(self) -> IntPoly:
        """Convert when only q carries exponents; error otherwise."""
        t = self.table
        qonly_mask = ~_FIELD  # everything above the q field
        out = {}
        for k, c in self._terms.items():
            if k & qonly_mask != t.off & qonly_mask:
                raise ValueError(f"not a pure q-polynomial: {self}")
            out[(k & _FIELD) - _B] = c
        return IntPoly(out)

    def collapse_t_single(self) -> IntPoly:
        """Substitute every t[i,j] -> t and read off a univariate polynomial
        (returned as an IntPoly whose variable stands for t).  Only valid
        when nothing but t variables carry exponents."""
        t = self.table
        tix = {t.t_index(*p) for p in t.t_pairs}
        out: dict[int, int] = {}
        for v, c in self._vectors():
            if any(e for k, e in enumerate(v) if k not in tix):
                raise ValueError("non-t exponents present")
            deg = sum(v[k] for k in tix)
            out[deg] = out.get(deg, 0) + c
        return IntPoly(out)

    # -- structure checks ---------------------------------------------------------

    def x_degrees(self):
        """Set of total x-degrees over all terms."""
        n = self.table.nx
        return {sum(v[1:n + 1]) for v, _ in self._vectors()}

    def min_x_exponent(self) -> int:
        """The smallest x-exponent over all terms, or 0 if none is negative."""
        n = self.table.nx
        return min([0] + [e for v, _ in self._vectors() for e in v[1:n + 1]])

    # -- text form -------------------------------------------------------------------

    def __str__(self):
        names = self.table.names
        return render_terms([(c, render_monomial(zip(names, vec)))
                             for vec, c in self.terms()])


# -- products of many factors ----------------------------------------------------

def schur_letters(lam, letters, table: VarTable) -> MPoly:
    """s_lam of the monomials ``letters`` ({var index: exponent} each),
    summed over semistandard tableaux in one packed-term dict per
    partition mu inside lam.  Each letter adds a horizontal strip one row
    at a time, bottom row first, so row i grows at most to the length
    row i-1 had before the letter.  The update is in place and visits mu
    before mu + e_i (lex order), so one shift per state sums the letter's
    geometric series; for lam = (m,) it is the convolution that builds
    h_m.  Coefficients stay positive, so nothing cancels."""
    shapes = [mu for mu in itertools.product(*[range(p + 1) for p in lam])
              if all(x >= y for x, y in zip(mu, mu[1:]))]  # lex: lam last
    index = {mu: k for k, mu in enumerate(shapes)}
    moves = [[(index[mu], index[mu[:i] + (mu[i] + 1,) + mu[i + 1:]])
              for mu in shapes
              if mu[i] < lam[i] and (i == 0 or mu[i] < mu[i - 1])]
             for i in reversed(range(len(lam)))]
    states = [{} for _ in shapes]
    states[0][table.off] = 1
    for exps in letters:
        delta = table.shift(exps.items())
        for row in moves:
            for src, dst in row:  # state[dst] += letter * state[src]
                tgt = states[dst]
                for key, c in states[src].items():
                    nk = key + delta
                    tgt[nk] = tgt.get(nk, 0) + c
    return MPoly._make(table, states[-1])


def mul_coeff_x(p1: MPoly, p2: MPoly, v) -> MPoly:
    """coeff_x(p1 * p2, v) without materialising the full product: a read
    of the two-factor ``Kernel``."""
    return Kernel([p1, p2], p1.table).coeff_x(v)


# -- q-packed polynomials -----------------------------------------------------------
#
# A q-packed polynomial is a pair (terms, low).  Its terms map a packed key
# whose q field is cleared to one integer: that key's coefficient, a
# polynomial in q divided by q^low, evaluated at q = 2^b.  low is the
# lowest q power of the whole operand, so every such polynomial has
# nonnegative exponents, and multiplying two packed polynomials adds keys,
# multiplies integers and adds lows.  A product's coefficients are bounded
# by the product of its factors' l1 norms, and b is chosen one bit above
# that bound, so ``qpoly.balanced_digits`` reads every coefficient back.


def _fold(steps, b: int, acc: dict) -> dict:
    """``acc`` times ``steps`` in list order, into one accumulator (``acc``
    is left as it is).  A step (d, k) is the binomial 1 - q^k m, d the packed
    offset of m: the two-term step copies the accumulator and adds it back
    shifted by d, times -2^(bk)."""
    for d, k in steps:
        k *= b
        out = acc.copy()
        get = out.get
        for k1, c1 in acc.items():
            key = k1 + d
            s = get(key, 0) - (c1 << k)
            if s:
                out[key] = s
            else:
                del out[key]
        acc = out
    return acc


def _pack(p: MPoly, b: int) -> tuple:
    """The q-packed form (terms, low) of ``p``: the inverse of ``_unpack``.
    Every coefficient lies below 2^(b-1), so no packed value cancels."""
    terms = p._terms
    low = min([k & _FIELD for k in terms], default=_B) - _B
    out: dict[int, int] = {}
    for k, c in terms.items():
        e = (k & _FIELD) - _B
        out[k - e] = out.get(k - e, 0) + (c << (b * (e - low)))
    return out, low


def _unpack(terms: dict, low: int, b: int, table: VarTable) -> MPoly:
    out = {}
    for k, value in terms.items():
        for e, c in balanced_digits(value, b, low).items():
            out[k + e] = c
    return MPoly._make(table, out)


def _x_index(packed, table: VarTable) -> dict:
    """{x-part: [(key, value), ...]} over the terms of ``packed``."""
    xm = table._xmask
    index: dict[int, list] = {}
    for k, c in packed[0].items():
        index.setdefault(k & xm, []).append((k, c))
    return index


def _join(small, large, index, table: VarTable, v, b: int) -> MPoly:
    """coeff_x(v) of the product of two q-packed polynomials; ``index`` is
    ``_x_index`` of ``large``.  Each key of ``small`` meets only the keys of
    ``large`` whose x-part complements its own to x^v."""
    shift = table.x_shift(v)
    xm = table._xmask
    want = table._xoff + table._xoff + shift
    drop = table.off + shift
    acc: dict[int, int] = {}
    for k1, c1 in small[0].items():
        group = index.get(want - (k1 & xm))
        if group:
            base = k1 - drop
            for k2, c2 in group:
                k = base + k2
                acc[k] = acc.get(k, 0) + c1 * c2
    return _unpack(acc, small[1] + large[1], b, table)


# -- kernels ----------------------------------------------------------------------

KERNEL_FAMILIES = ("dyson", "t", "tzero", "tau", "tournament", "bg",
                   "bg-alternating")


def kernel_factors(family: str, a, *, m: int = 0, tournament=None,
                   index_set=()) -> list:
    """The factors whose product is the kernel of ``family``, as plain
    binomials: (u, v, k) is 1 - q^k x_v/x_u and (i, j) is 1 - t[i,j] x_j/x_i.
    With (x)_k = (1 - x)(1 - q x)...(1 - q^{k-1} x), pairs i < j and chi_I
    the indicator of ``index_set``:

      dyson           prod (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j};  a_i >= 0
      t               prod (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j - 1} (1 - t[i,j] x_j/x_i)
      tzero           the t kernel at t = 0
      tau             the t kernel of (a, 1^m) on n + m variables, with
                      t[i,j] for pairs inside the first n and no t-factor
                      for pairs with j > n
      tournament      the tzero factors over the directed edges (i, j) of
                      ``tournament`` instead of the pairs i < j
      bg              prod (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j - chi_I(j)}
      bg-alternating  prod (x_j/x_i - x_i/x_j) * prod_{i != j} (q x_i/x_j)_{a_i - 1},
                      each x_j/x_i - x_i/x_j an MPoly on ``table_x(n)``

    Every family but dyson needs positive a, and only tau takes an m,
    which must be nonnegative.  Every factor is homogeneous of x-degree 0
    by construction, and so is the product; a test pins this for every
    family.  ``interp`` reads the same lists, as x_u - q^k x_v.
    """
    a = tuple(a)
    n = len(a)
    if family not in KERNEL_FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}")
    low = 0 if family == "dyson" else 1
    if a and min(a) < low:
        raise ValueError(f"{family} kernel needs "
                         f"{'nonnegative' if low == 0 else 'positive'} a")
    if m < 0 or (m and family != "tau"):
        raise ValueError(f"m = {m}: only the tau kernel takes an m, "
                         f"and it must be >= 0")
    if not all(1 <= i <= n for i in index_set):
        raise ValueError(f"index set {sorted(index_set)} is not inside 1..{n}")
    if family == "bg-alternating":
        table = table_x(n)
        factors = [MPoly._make(table, {table.monomial_key({j: 1, i: -1}): 1,
                                       table.monomial_key({i: 1, j: -1}): -1})
                   for i, j in itertools.combinations(range(1, n + 1), 2)]
        return factors + [(j, i, k) for i, j in itertools.permutations(
            range(1, n + 1), 2) for k in range(1, a[i - 1])]
    if family == "tournament":
        if tournament is None or tournament.n != n:
            raise ValueError("length of a must match the tournament")
        edges = sorted(tournament.edges)
    else:
        edges = itertools.combinations(range(1, n + m + 1), 2)
    full = a + (1,) * m
    factors = []
    for i, j in edges:
        deficit = family != "dyson" and (family != "bg" or j in index_set)
        factors += [(j, i, k) for k in range(full[i - 1])]
        factors += [(i, j, k) for k in range(1, full[j - 1] - deficit + 1)]
        if family == "t" or (family == "tau" and j <= n):
            factors.append((i, j))
    return factors


class Kernel:
    """A product of factors, held as two q-packed halves.

    A factor is a plain binomial of ``kernel_factors`` or an MPoly on the
    kernel's table.  Each half takes its part of the list (the first half
    and the rest): it starts from the packed product of its MPoly factors,
    or from 1, and folds its binomials in list order, each 1 - m by the
    two-term step with the offset of m that the table packs once per
    (u, v).  A pair's binomials come together and share one x-key, so its
    Pochhammer symbols collapse onto a_i + a_j + 1 keys before the next
    pair multiplies in.  ``coeff_x`` joins the halves with one dict lookup
    per key of the smaller half, into an x-part index of the larger half
    kept on the kernel.  Only ``expand`` builds the full product.
    """

    __slots__ = ("table", "_b", "_small", "_large", "_index")

    def __init__(self, factors, table: VarTable):
        half = len(factors) // 2
        steps, polys, bound = ([], []), ([], []), 1  # (first half, rest)
        for i, f in enumerate(factors):
            if isinstance(f, MPoly):
                if f.table is not table and f.table != table:
                    raise ValueError("variable tables differ")
                # a zero factor empties its half; each half must still decode
                bound *= sum(map(abs, f._terms.values())) or 1
                polys[i >= half].append(f)
                continue
            bound <<= 1
            pair = len(f) == 2
            d = (table._t_ratio if pair else table._x_ratio).get(f[:2])
            k = f[2] if len(f) == 3 else 0
            if d is None or len(f) > 3 or not 0 <= k < _B:
                raise ValueError(f"binomial {f}: needs u != v in 1..{table.nx}"
                                 f", t[u,v] in the table, k in [0, 2^{_W - 1})")
            steps[i >= half].append((d, k))
        b = self._b = bound.bit_length() + 1
        halves = []
        for part, start in zip(steps, polys):
            acc, low = (_pack(functools.reduce(MPoly.__mul__, start), b)
                        if start else ({table.off: 1}, 0))
            halves.append((_fold(part, b, acc), low))
        self.table = table
        self._small, self._large = sorted(halves, key=lambda h: len(h[0]))
        self._index = _x_index(self._large, table)

    def coeff_x(self, v) -> MPoly:
        """Coefficient of x^v; x-exponents are projected back to zero."""
        return _join(self._small, self._large, self._index, self.table, v,
                     self._b)

    def ct_x(self) -> MPoly:
        """The constant term in x."""
        return self.coeff_x((0,) * self.table.nx)

    def expand(self) -> MPoly:
        """The full product of the factors."""
        small, large = (_unpack(*h, self._b, self.table)
                        for h in (self._small, self._large))
        return small * large


# The named builders each pick their table: ``table_kernel`` for tkernel,
# ``table_tau`` for tau_kernel and ``table_x`` for the rest.

def dyson_kernel(a) -> Kernel:
    """prod_{i<j} (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j}; a_i >= 0."""
    return Kernel(kernel_factors("dyson", a), table_x(len(a)))


def tkernel(a) -> Kernel:
    """prod_{i<j} (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j - 1} (1 - t[i,j] x_j/x_i)."""
    return Kernel(kernel_factors("t", a), table_kernel(len(a)))


def tzero_kernel(a) -> Kernel:
    """prod_{i<j} (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j - 1}: the t -> 0 kernel."""
    return Kernel(kernel_factors("tzero", a), table_x(len(a)))


def tau_kernel(a, m: int) -> Kernel:
    """The (n+m)-variable kernel for the sequence (a, 1^m) whose t's vanish
    beyond the first n indices (see ``kernel_factors``).  It carries no s
    variables: ``identities.tau_kappa_coeff`` reads each s-coefficient as
    an x-shift."""
    return Kernel(kernel_factors("tau", a, m=m), table_tau(len(a), m))


def tournament_kernel(t, a) -> Kernel:
    """prod over directed edges (i, j) of (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j-1}."""
    return Kernel(kernel_factors("tournament", a, tournament=t),
                  table_x(len(a)))


def bg_kernel(a, index_set) -> Kernel:
    """prod_{i<j} (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j - chi(j in I)}."""
    return Kernel(kernel_factors("bg", a, index_set=set(index_set)),
                  table_x(len(a)))


def bg_alternating_kernel(a) -> Kernel:
    """prod_{i<j} (x_j/x_i - x_i/x_j) * prod_{i != j} (q x_i/x_j)_{a_i - 1}."""
    return Kernel(kernel_factors("bg-alternating", a), table_x(len(a)))
