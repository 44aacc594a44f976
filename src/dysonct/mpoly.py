"""Sparse multivariate Laurent polynomials over the integers.

A polynomial is a map from monomials to nonzero integer coefficients.  The
variables live in a VarTable that fixes their order once and for all:

    q,  x1 .. xn,  t[i,j] (pairs i < j),  s[i,j] (an n x m grid),  u[i]

Internally a monomial's exponent vector is packed into a single integer,
32 bits per variable with an offset of 2^31 so that negative (Laurent)
exponents are representable.  Multiplying two monomials is then a single
integer addition, which is what makes the brute-force kernel expansions
cheap enough for the verification grids.  Every exponent must lie in the
signed field range [-2^31, 2^31): ``VarTable.encode``, ``monomial_key``,
the ``MPoly`` constructor, ``MPoly.from_intpoly``, the coefficient shifts
of ``coeff_x``, ``coeff_aux`` and ``mul_coeff_x``, and every substitution
(``subst_x_qpower``, ``subst_t_qpowers``, the permutations and the gamma
shifts, which rebuild through the constructor) raise ValueError for
anything outside it.  The multiply loops stay unchecked; a kernel's
exponents are bounded by its number of factors.

This module owns the packed format: other modules go through exponent
vectors and ``monomial_key`` and never shift or mask a packed key.

MPoly values are immutable once built; every operation returns a fresh
polynomial.
"""

from __future__ import annotations

import heapq
import json

from .qpoly import IntPoly

_W = 32
_B = 1 << (_W - 1)
_FIELD = (1 << _W) - 1


class VarTable:
    """Ordered variable table: q, an x-block, and auxiliary families."""

    __slots__ = ("nx", "t_pairs", "s_shape", "u_size", "names", "nvars",
                 "off", "_index", "_xmask", "_xoff", "_tmask", "_smask",
                 "_umask")

    def __init__(self, nx: int, t_pairs=(), s_shape=None, u_size: int = 0):
        t_pairs = tuple(sorted(t_pairs))
        for i, j in t_pairs:
            if not i < j:
                raise ValueError(f"t indices must satisfy i < j, got {(i, j)}")
        self.nx = nx
        self.t_pairs = t_pairs
        self.s_shape = tuple(s_shape) if s_shape else None
        self.u_size = u_size

        names = ["q"] + [f"x{i}" for i in range(1, nx + 1)]
        names += [f"t[{i},{j}]" for i, j in t_pairs]
        if self.s_shape:
            sn, sm = self.s_shape
            names += [f"s[{i},{j}]"
                      for i in range(1, sn + 1) for j in range(1, sm + 1)]
        names += [f"u[{i}]" for i in range(1, u_size + 1)]
        self.names = tuple(names)
        self.nvars = len(names)
        self._index = {name: k for k, name in enumerate(names)}
        self.off = sum(_B << (_W * k) for k in range(self.nvars))
        self._xmask = self._group_mask(1, nx)
        self._xoff = self.off & self._xmask
        t0 = 1 + nx
        self._tmask = self._group_mask(t0, len(t_pairs))
        s0 = t0 + len(t_pairs)
        ns = self.s_shape[0] * self.s_shape[1] if self.s_shape else 0
        self._smask = self._group_mask(s0, ns)
        self._umask = self._group_mask(s0 + ns, u_size)

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

    def s_index(self, i: int, j: int) -> int:
        return self._index[f"s[{i},{j}]"]

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


# -- table factories -----------------------------------------------------------

def table_x(n: int) -> VarTable:
    """q and x1..xn only."""
    return VarTable(n)


def table_kernel(n: int) -> VarTable:
    """q, x1..xn and one t[i,j] per pair; carrier of the deformed kernels."""
    return VarTable(n, t_pairs=[(i, j) for i in range(1, n)
                                for j in range(i + 1, n + 1)])


def table_tau(n: int, m: int) -> VarTable:
    """Table for kernels on n + m variables whose t's are restricted:
    pairs within the first n keep their t[i,j]; pairs (i, n+j) with i <= n
    become s[i,j]; pairs inside the last m variables carry no variable."""
    return VarTable(n + m,
                    t_pairs=[(i, j) for i in range(1, n)
                             for j in range(i + 1, n + 1)],
                    s_shape=(n, m))


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
    def monomial(cls, table, exps: dict, coeff: int = 1) -> "MPoly":
        if not coeff:
            return cls.zero(table)
        return cls._make(table, {table.monomial_key(exps): coeff})

    @classmethod
    def from_intpoly(cls, table, p: IntPoly) -> "MPoly":
        return cls._make(table, {table.off + table.shift([(0, e)]): c
                                 for e, c in p.items()})

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

    def coeff(self, vec) -> int:
        return self._terms.get(self.table.encode(vec), 0)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == MPoly.from_intpoly(self.table, IntPoly.const(other))
        if isinstance(other, IntPoly):
            return self == MPoly.from_intpoly(self.table, other)
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

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of an MPoly")
        result = MPoly.one(self.table)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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

        ``exponents`` maps the family's index tuples (pairs for t and s,
        integers for u) to exponents; omitted indices mean exponent 0.
        The matched variables are projected out (set back to exponent 0).
        """
        t = self.table
        if family == "t":
            valid = set(t.t_pairs)
            index = lambda ij: t.t_index(*ij)
            mask = t._tmask
        elif family == "s":
            if not t.s_shape:
                raise ValueError("table has no s family")
            sn, sm = t.s_shape
            valid = {(i, j) for i in range(1, sn + 1) for j in range(1, sm + 1)}
            index = lambda ij: t.s_index(*ij)
            mask = t._smask
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
    # Each rewrite maps decoded exponent vectors and rebuilds through the
    # checked constructor, which merges equal monomials, drops zero
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

    def subst_t_qpowers(self, powers) -> "MPoly":
        """Substitute t[i,j] -> q^{powers[(i,j)]} for every t variable."""
        t = self.table
        if set(powers) != set(t.t_pairs):
            raise ValueError("powers must cover exactly the t pairs")
        moves = [(t.t_index(*pair), powers[pair]) for pair in t.t_pairs]

        def rewrite(v):
            v = list(v)
            for ix, power in moves:
                v[0] += power * v[ix]
                v[ix] = 0
            return v

        return MPoly(t, ((rewrite(v), c) for v, c in self._vectors()))

    def subst_t_zero(self) -> "MPoly":
        """Substitute every t[i,j] -> 0 (keep only the t-free part)."""
        tix = [self.table.t_index(*p) for p in self.table.t_pairs]
        kept = []
        for v, c in self._vectors():
            if any(v[ix] < 0 for ix in tix):
                raise ValueError("negative t exponent under t -> 0")
            if not any(v[ix] for ix in tix):
                kept.append((v, c))
        return MPoly(self.table, kept)

    def subst_t_perm(self, w) -> "MPoly":
        """Relabel t[i,j] -> t[w(i),w(j)], inverting when w(i) > w(j).

        This is the t-alphabet action used alongside permuting x and a;
        reversed pairs pick up inverse variables, i.e. negated exponents.
        """
        t = self.table
        moves = [(t.t_index(i, j), t.t_index(*sorted((w(i), w(j)))),
                  1 if w(i) < w(j) else -1) for i, j in t.t_pairs]

        def rewrite(v):
            out = list(v)
            for ix, _, _ in moves:
                out[ix] = 0
            for ix, target, sign in moves:
                out[target] += sign * v[ix]
            return out

        return MPoly(t, ((rewrite(v), c) for v, c in self._vectors()))

    def permute_x(self, w) -> "MPoly":
        """Substitute x_i -> x_{w(i)} (q and auxiliaries untouched)."""
        n = self.table.nx

        def rewrite(v):
            out = list(v)
            for i in range(1, n + 1):
                out[w(i)] = v[i]
            return out

        return MPoly(self.table, ((rewrite(v), c) for v, c in self._vectors()))

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

    def gamma_shift(self) -> "MPoly":
        """The q-shifted cyclic action L(x1,...,xn) -> L(x2,...,xn,x1/q)."""
        n = self.table.nx
        return MPoly(self.table, (
            ((v[0] - v[n], v[n]) + v[1:n] + v[n + 1:], c)
            for v, c in self._vectors()))

    def gamma_shift_inv(self) -> "MPoly":
        """Inverse of gamma_shift: L(x1,...,xn) -> L(q*xn,x1,...,xn-1)."""
        n = self.table.nx
        return MPoly(self.table, (
            ((v[0] + v[1],) + v[2:n + 1] + (v[1],) + v[n + 1:], c)
            for v, c in self._vectors()))

    # -- structure checks ---------------------------------------------------------

    def x_degrees(self):
        """Set of total x-degrees over all terms."""
        n = self.table.nx
        return {sum(v[1:n + 1]) for v, _ in self._vectors()}

    def min_x_exponent(self) -> int:
        """The smallest x-exponent over all terms, or 0 if none is negative."""
        n = self.table.nx
        return min([0] + [e for v, _ in self._vectors() for e in v[1:n + 1]])

    # -- text and machine forms ------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        names = self.table.names
        parts = []
        for vec, c in self.terms():
            factors = []
            for name, e in zip(names, vec):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def serialize(self) -> str:
        """Machine-readable JSON: variable names plus term list."""
        return json.dumps({
            "vars": list(self.table.names),
            "terms": [[list(vec), str(c)] for vec, c in self.terms()],
        })

    @classmethod
    def deserialize(cls, text: str, table: VarTable) -> "MPoly":
        data = json.loads(text)
        if tuple(data["vars"]) != table.names:
            raise ValueError("serialized variable table does not match")
        return cls(table, [(tuple(vec), int(c)) for vec, c in data["terms"]])


# -- products of many factors ----------------------------------------------------

def product(factors, table: VarTable) -> MPoly:
    """Multiply a list of MPoly factors.

    Always combines the two currently-smallest operands (term count), which
    keeps intermediate supports small for the kernel products; ties break on
    insertion order so the result is reproducible (the value is of course
    schedule-independent).
    """
    factors = list(factors)
    if not factors:
        return MPoly.one(table)
    heap = [(len(f), idx, f) for idx, f in enumerate(factors)]
    heapq.heapify(heap)
    counter = len(factors)
    while len(heap) > 1:
        _, _, f1 = heapq.heappop(heap)
        _, _, f2 = heapq.heappop(heap)
        p = f1 * f2
        heapq.heappush(heap, (len(p), counter, p))
        counter += 1
    return heap[0][2]


def complete_homogeneous(top: int, letters, table: VarTable) -> list:
    """h_0..h_top of the monomials ``letters`` ({var index: exponent} each)."""
    hs = [{table.off: 1}] + [{} for _ in range(top)]
    for exps in letters:
        delta = table.shift(exps.items())
        for prev, tgt in zip(hs, hs[1:]):  # h_d += letter * h_{d-1}
            for key, c in prev.items():  # coefficients stay positive
                nk = key + delta
                tgt[nk] = tgt.get(nk, 0) + c
    return [MPoly._make(table, h) for h in hs]


def mul_coeff_x(p1: MPoly, p2: MPoly, v) -> MPoly:
    """coeff_x(p1 * p2, v) without materialising the full product.

    Terms of p2 are bucketed by their x-part; each term of p1 then only
    meets the single complementary bucket.
    """
    t = p1.table
    if p2.table != t:
        raise ValueError("variable tables differ")
    xm = t._xmask
    xoff = t._xoff
    vkey = xoff + t.x_shift(v)
    buckets: dict[int, list] = {}
    for k, c in p2._terms.items():
        buckets.setdefault(k & xm, []).append((k, c))
    out: dict[int, int] = {}
    off = t.off
    for k1, c1 in p1._terms.items():
        want = vkey - (k1 & xm) + xoff
        block = buckets.get(want)
        if not block:
            continue
        base = k1 - off
        for k2, c2 in block:
            nk = base + k2 - (vkey - xoff)
            s = out.get(nk, 0) + c1 * c2
            if s:
                out[nk] = s
            else:
                del out[nk]
    return MPoly._make(t, out)


# -- kernels ----------------------------------------------------------------------

KERNEL_FAMILIES = ("dyson", "t", "tzero", "tau", "tournament", "bg",
                   "bg-alternating")


def poch_factor(table: VarTable, i: int, j: int, shift: int, count: int) -> MPoly:
    """(q^shift * x_i / x_j)_count as an expanded polynomial."""
    if count < 0:
        raise ValueError("poch_factor needs count >= 0")
    return product(_poch_binomials(table, i, j, shift, count), table)


def _poch_binomials(table, i, j, shift, count):
    xi, xj = table.x_index(i), table.x_index(j)
    return [MPoly._make(table, {
        table.off: 1,
        table.monomial_key({0: shift + k, xi: 1, xj: -1}): -1,
    }) for k in range(count)]


def _t_binomial(table, var_index, i, j):
    """1 - t * x_j / x_i for the given auxiliary variable index."""
    xi, xj = table.x_index(i), table.x_index(j)
    return MPoly._make(table, {
        table.off: 1,
        table.monomial_key({var_index: 1, xj: 1, xi: -1}): -1,
    })


def kernel_factors(family: str, a, table: VarTable, *, m: int = 0,
                   tournament=None, index_set=()) -> list:
    """The binomial factors whose product is the kernel of ``family``.

    With (x)_k = (1 - x)(1 - q x)...(1 - q^{k-1} x), pairs i < j and
    chi_I the indicator of ``index_set``:

      dyson           prod (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j};  a_i >= 0
      t               prod (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j - 1} (1 - t[i,j] x_j/x_i)
      tzero           the t kernel at t = 0
      tau             the t kernel of (a, 1^m) on n + m variables, with
                      t[i,j] for pairs inside the first n, s[i,j-n] for
                      pairs crossing into the last m, and no t-factor for
                      pairs inside the last m
      tournament      the tzero factors over the directed edges (i, j) of
                      ``tournament`` instead of the pairs i < j
      bg              prod (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j - chi_I(j)}
      bg-alternating  prod (x_j/x_i - x_i/x_j) * prod_{i != j} (q x_i/x_j)_{a_i - 1}

    Every family but dyson needs positive a.  Each factor is checked to be
    homogeneous of x-degree 0, so the product is too.
    """
    a = tuple(a)
    n = len(a)
    if family not in KERNEL_FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}")
    low = 0 if family == "dyson" else 1
    if any(x < low for x in a):
        raise ValueError(f"{family} kernel needs "
                         f"{'nonnegative' if low == 0 else 'positive'} a")
    if family == "bg-alternating":
        factors = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                factors.append(MPoly._make(table, {
                    table.monomial_key({j: 1, i: -1}): 1,
                    table.monomial_key({i: 1, j: -1}): -1,
                }))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    factors += _poch_binomials(table, i, j, 1, a[i - 1] - 1)
    else:
        if family == "tournament":
            if tournament is None or tournament.n != n:
                raise ValueError("length of a must match the tournament")
            edges = sorted(tournament.edges)
        else:
            size = n + (m if family == "tau" else 0)
            edges = [(i, j) for i in range(1, size + 1)
                     for j in range(i + 1, size + 1)]
        full = a + (1,) * (m if family == "tau" else 0)
        factors = []
        for i, j in edges:
            if family == "dyson":
                deficit = 0
            elif family == "bg":
                deficit = 1 if j in index_set else 0
            else:
                deficit = 1
            factors += _poch_binomials(table, i, j, 0, full[i - 1])
            factors += _poch_binomials(table, j, i, 1, full[j - 1] - deficit)
            if family == "t" or (family == "tau" and j <= n):
                factors.append(_t_binomial(table, table.t_index(i, j), i, j))
            elif family == "tau" and i <= n:
                factors.append(_t_binomial(table, table.s_index(i, j - n), i, j))
    if any(f.x_degrees() != {0} for f in factors):
        raise AssertionError(f"{family} kernel factor is not homogeneous "
                             "of x-degree 0")
    return factors


class Kernel:
    """A product of binomial factors, held as its two halves expanded
    separately (``halves``).

    A coefficient is read by matching the halves through ``mul_coeff_x``,
    so the full product is built only by ``expand``.
    """

    __slots__ = ("table", "halves")

    def __init__(self, factors, table: VarTable):
        half = len(factors) // 2
        self.table = table
        self.halves = (product(factors[:half], table),
                       product(factors[half:], table))

    def coeff_x(self, v) -> MPoly:
        """Coefficient of x^v; x-exponents are projected back to zero."""
        return mul_coeff_x(*self.halves, v)

    def ct_x(self) -> MPoly:
        """The constant term in x."""
        return self.coeff_x((0,) * self.table.nx)

    def expand(self) -> MPoly:
        """The full product of the factors."""
        return self.halves[0] * self.halves[1]


def dyson_kernel(a, table: VarTable | None = None) -> Kernel:
    """prod_{i<j} (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j}; a_i >= 0."""
    table = table_x(len(a)) if table is None else table
    return Kernel(kernel_factors("dyson", a, table), table)


def tkernel(a, table: VarTable | None = None) -> Kernel:
    """prod_{i<j} (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j - 1} (1 - t[i,j] x_j/x_i)."""
    table = table_kernel(len(a)) if table is None else table
    return Kernel(kernel_factors("t", a, table), table)


def tzero_kernel(a, table: VarTable | None = None) -> Kernel:
    """prod_{i<j} (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j - 1}: the t -> 0 kernel."""
    table = table_x(len(a)) if table is None else table
    return Kernel(kernel_factors("tzero", a, table), table)


def tau_kernel(a, m: int, table: VarTable | None = None) -> Kernel:
    """The (n+m)-variable kernel for the sequence (a, 1^m) whose t's vanish
    beyond the first n indices (see ``kernel_factors``)."""
    table = table_tau(len(a), m) if table is None else table
    return Kernel(kernel_factors("tau", a, table, m=m), table)


def tournament_kernel(t, a, table: VarTable | None = None) -> Kernel:
    """prod over directed edges (i, j) of (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j-1}."""
    table = table_x(len(a)) if table is None else table
    return Kernel(kernel_factors("tournament", a, table, tournament=t), table)


def bg_kernel(a, index_set, table: VarTable | None = None) -> Kernel:
    """prod_{i<j} (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j - chi(j in I)}."""
    table = table_x(len(a)) if table is None else table
    return Kernel(kernel_factors("bg", a, table, index_set=set(index_set)), table)


def bg_alternating_kernel(a, table: VarTable | None = None) -> Kernel:
    """prod_{i<j} (x_j/x_i - x_i/x_j) * prod_{i != j} (q x_i/x_j)_{a_i - 1}."""
    table = table_x(len(a)) if table is None else table
    return Kernel(kernel_factors("bg-alternating", a, table), table)
