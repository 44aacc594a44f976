"""Schur and key polynomials over principally specialised alphabets.

The alphabet x^(a) replaces each x_i by the geometric progression
x_i, x_i q, ..., x_i q^(a_i - 1).  Schur functions of that alphabet are
sums over semistandard tableaux, built one horizontal strip per letter;
key polynomials come from isobaric divided differences acting on
dominant monomials.
"""

from __future__ import annotations

from .combi import conjugate, is_partition
from .mpoly import Kernel, MPoly, VarTable, schur_letters, table_x
from .qpoly import Cyclo, IntPoly


def schur_principal(lam, a, table: VarTable) -> MPoly:
    """s_lambda(x^(a)): ``schur_letters`` over the letters q^k x_i with
    0 <= k < a_i.  Raises ValueError unless lambda is a partition (up to
    trailing zeros), a >= 0, and a fits the table's x-block."""
    lam = tuple(lam)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    a = tuple(a)
    if any(m < 0 for m in a):
        raise ValueError("multiplicities must be nonnegative")
    if len(a) > table.nx:
        raise ValueError("alphabet does not fit the table's x block")
    letters = [{0: k, table.x_index(i): 1}
               for i, m in enumerate(a, start=1) for k in range(m)]
    return schur_letters(lam, letters, table)


def hook_content(lam, a: int) -> IntPoly:
    """The one-variable principal specialisation of s_lambda:

        q^{sum_j (j-1) la_j} * prod_{cells} (1 - q^{a + content}) / (1 - q^{hook})

    computed as a cyclotomic product and expanded to a polynomial.
    """
    lam = tuple(lam)
    if a < 0:
        raise ValueError("hook_content needs a >= 0")
    conj = conjugate(lam)  # raises unless lam is a partition
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


def key_poly(v) -> MPoly:
    """Key polynomial (Demazure character) K_v, on ``table_x(len(v))``."""
    return _key(v, isobaric_pi)


def keyhat_poly(v) -> MPoly:
    """Opposite key polynomial K^hat_v, on ``table_x(len(v))``."""
    return _key(v, isobaric_pihat)


def _key(v, op):
    v = tuple(v)
    if any(e < 0 for e in v):
        raise ValueError("key polynomials need a composition")
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
    pairs = [(j, i, 0) for i in range(1, t.nx + 1)
             for j in range(i + 1, t.nx + 1)]  # 1 - x_i/x_j
    return Kernel([f, reverse_invert_x(g)] + pairs, t).ct_x().to_intpoly()


# -- hook-content cross-check oracle -----------------------------------------------

def schur_onevar_value(lam, a: int) -> IntPoly:
    """s_lambda(x^(a)) at n = 1 with x_1 = 1: a pure q-polynomial."""
    p = schur_principal(lam, (a,), table_x(1))
    return p.subst_x_qpower((0,)).to_intpoly()
