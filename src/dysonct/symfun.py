"""Schur and key polynomials over principally specialised alphabets.

The alphabet x^(a) replaces each x_i by the geometric progression
x_i, x_i q, ..., x_i q^(a_i - 1).  Complete homogeneous functions of that
alphabet are produced by power-series convolution, Schur functions by the
Jacobi-Trudi determinant, and key polynomials by isobaric divided
differences acting on dominant monomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .mpoly import MPoly, VarTable, complete_homogeneous, product, table_x
from .qpoly import Cyclo, IntPoly


@dataclass(frozen=True)
class Alphabet:
    """Multiplicities (a_1, ..., a_n); letter (i, k) stands for x_i q^k."""

    mults: tuple

    def __post_init__(self):
        if any(m < 0 for m in self.mults):
            raise ValueError("multiplicities must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.mults)

    def size(self) -> int:
        return sum(self.mults)

    def letters(self):
        for i, m in enumerate(self.mults, start=1):
            for k in range(m):
                yield (i, k)


def complete_h_list(top: int, alphabet: Alphabet, table: VarTable):
    """[h_0, h_1, ..., h_top] of the alphabet, one convolution pass."""
    if alphabet.n > table.nx:
        raise ValueError("alphabet does not fit the table's x block")
    letters = [{0: k, table.x_index(i): 1} for i, k in alphabet.letters()]
    return complete_homogeneous(top, letters, table)


def complete_h(m: int, alphabet: Alphabet, table: VarTable) -> MPoly:
    """h_m of the alphabet; h_0 = 1."""
    if m < 0:
        raise ValueError("complete_h needs m >= 0")
    return complete_h_list(m, alphabet, table)[m]


def schur_principal(lam, a, table: VarTable | None = None) -> MPoly:
    """s_lambda(x^(a)) via the Jacobi-Trudi determinant det(h_{la_i - i + j})."""
    lam = tuple(lam)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or any(
            x < 0 for x in lam):
        raise ValueError(f"not a partition: {lam}")
    a = tuple(a)
    if table is None:
        table = table_x(len(a))
    if not lam:
        return MPoly.one(table)
    ell = len(lam)
    alphabet = Alphabet(a)
    hs = complete_h_list(lam[0] + ell - 1, alphabet, table)

    def h(m):
        if m < 0:
            return MPoly.zero(table)
        return hs[m]

    out = MPoly.zero(table)
    for sigma in itertools.permutations(range(1, ell + 1)):
        sign = _perm_sign(sigma)
        term = MPoly.one(table)
        for i in range(1, ell + 1):
            term = term * h(lam[i - 1] - i + sigma[i - 1])
            if term.is_zero:
                break
        out = out + term * sign
    return out


def _perm_sign(sigma) -> int:
    inv = sum(1 for i in range(len(sigma)) for j in range(i + 1, len(sigma))
              if sigma[i] > sigma[j])
    return -1 if inv % 2 else 1


def hook_content(lam, a: int) -> IntPoly:
    """The one-variable principal specialisation of s_lambda:

        q^{sum_j (j-1) la_j} * prod_{cells} (1 - q^{a + content}) / (1 - q^{hook})

    computed as a cyclotomic product and expanded to a polynomial.
    """
    lam = tuple(lam)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    if a < 0:
        raise ValueError("hook_content needs a >= 0")
    if not lam:
        return IntPoly.const(1)
    conj = [sum(1 for part in lam if part > c) for c in range(lam[0])]
    shift = sum((r - 1) * lam[r - 1] for r in range(1, len(lam) + 1))
    value = Cyclo()
    for r, part in enumerate(lam, start=1):
        for c in range(1, part + 1):
            content = c - r
            hook = (part - c) + (conj[c - 1] - r) + 1
            value = value * Cyclo.one_minus_q(a + content) / Cyclo.one_minus_q(hook)
    return value.shifted(shift).expand()


# -- divided differences and key polynomials -------------------------------------

def divided_difference(i: int, f: MPoly) -> MPoly:
    """The Newton divided difference (f - s_i f) / (x_i - x_{i+1}).

    Exact by the closed geometric-sum action on each monomial; no
    polynomial division is performed.
    """
    t = f.table
    if not 1 <= i <= t.nx - 1:
        raise ValueError(f"divided_difference index {i} out of range")
    xa, xb = t.x_index(i), t.x_index(i + 1)

    def terms():
        for v, c in f._vectors():
            p, r = v[xa], v[xb]
            sign = c if p > r else -c
            for u in range(min(p, r), max(p, r)):
                out = list(v)
                out[xa], out[xb] = u, p + r - 1 - u
                yield out, sign

    return MPoly(t, terms())


def isobaric_pi(i: int, f: MPoly) -> MPoly:
    """pi_i f = divided difference of x_i * f."""
    t = f.table
    xi = MPoly.monomial(t, {t.x_index(i): 1})
    return divided_difference(i, xi * f)


def isobaric_pihat(i: int, f: MPoly) -> MPoly:
    """pihat_i = pi_i - id."""
    return isobaric_pi(i, f) - f


def _sorting_word(v):
    """Adjacent transpositions that sort v to weakly decreasing order."""
    u = list(v)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(u) - 1):
            if u[i] < u[i + 1]:
                u[i], u[i + 1] = u[i + 1], u[i]
                word.append(i + 1)
                changed = True
    return tuple(u), word


def key_poly(v, table: VarTable | None = None) -> MPoly:
    """Key polynomial (Demazure character) K_v."""
    return _key(v, table, isobaric_pi)


def keyhat_poly(v, table: VarTable | None = None) -> MPoly:
    """Opposite key polynomial K^hat_v."""
    return _key(v, table, isobaric_pihat)


def _key(v, table, op):
    v = tuple(v)
    if any(e < 0 for e in v):
        raise ValueError("key polynomials need a composition")
    if table is None:
        table = table_x(len(v))
    dominant, word = _sorting_word(v)
    f = MPoly.monomial(table, {table.x_index(i + 1): e
                               for i, e in enumerate(dominant) if e})
    for i in reversed(word):
        f = op(i, f)
    return f


# -- the Demazure scalar product ---------------------------------------------------

def reverse_invert_x(g: MPoly) -> MPoly:
    """g(x_n^{-1}, ..., x_1^{-1}): reverse the x-variables and invert them."""
    n = g.table.nx
    return MPoly(g.table, (
        (v[:1] + tuple(-e for e in reversed(v[1:n + 1])) + v[n + 1:], c)
        for v, c in g._vectors()))


def scalar_product(f: MPoly, g: MPoly) -> IntPoly:
    """CT[ f(x) g(x_n^{-1},...,x_1^{-1}) prod_{i<j} (1 - x_i/x_j) ]."""
    t = f.table
    if g.table != t:
        raise ValueError("variable tables differ")
    factors = [f, reverse_invert_x(g)]
    for i in range(1, t.nx + 1):
        for j in range(i + 1, t.nx + 1):
            factors.append(MPoly.one(t) - MPoly.monomial(
                t, {t.x_index(i): 1, t.x_index(j): -1}))
    return product(factors, t).ct_x().to_intpoly()


# -- hook-content cross-check oracle -----------------------------------------------

def schur_onevar_value(lam, a: int) -> IntPoly:
    """s_lambda(x^(a)) at n = 1 with x_1 = 1: a pure q-polynomial."""
    p = schur_principal(lam, (a,), table_x(1))
    return p.subst_x_qpower((0,)).to_intpoly()
