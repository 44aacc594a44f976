"""Closed-form right-hand sides and brute-force verifiers.

Each identity gets two independent routes: a left-hand side computed by
brute-force expansion and constant-term extraction, and a right-hand side
assembled from q-factorial closed forms.  Every closed form is a ratio
of products of (1 - q^k), built as a cyclotomic product (qpoly.Cyclo) and
expanded once: a wrong formula leaves some Phi_d with a negative exponent,
which raises NonExactDivision rather than drifting silently.  The Sills
and LXZ right sides are sums of such ratios, W_s times a sign and a
q-power, whose W_s depend only on a: each a puts them over one common
cyclotomic denominator (qpoly.CycloBasis), and each case then costs one
exact division, which raises the same way when the sum is not a
polynomial.

The cleared u-sum left side is a path sum over the subset lattice, not
one expanded product per permutation (see the u-sum section); the tests
keep the per-permutation expansion as its reference.  Grids whose cases
share a kernel per a read it through one cache, ``cached_kernel``, and a
kernel is named by its ``mpoly.kernel_factors`` family throughout.

Each identity has one checker, ``verify_<identity>``: the identity's name
with ``-`` turned into ``_``.  It takes one case's params as keyword
arguments, exactly as the report line prints them (lists, integers, and
permutations, (0,1)-matrices and tournaments in their serialized form),
and returns the two rendered sides ``(lhs, rhs)``.  A checker whose two
sides are values of one kind compares them exactly and renders equal
sides once (``_render``), returning the same text twice.  The report
still compares the two strings: the case holds when they are equal, and
exact equality implies equal text.  Checkers neither time nor record a
case; ``cli._execute`` does both.
"""

from __future__ import annotations

import functools
import itertools
import json

from .combi import (
    Permutation, Tournament, ZeroOneMatrix, left_justified_from_rows,
    ell_stats, partial_sums, sort_desc, reverse, staircase,
    conjugate, is_strict, weight,
)
from .interp import (
    closed_eval, dyson_coeff_interpolated, sills_coeff_interpolated,
)
from .mpoly import (
    Kernel, MPoly, VarTable, bg_alternating_kernel, bg_kernel, dyson_kernel,
    kernel_factors, table_kernel, table_u, table_x, tau_kernel,
    tkernel, tournament_kernel, tzero_kernel,
)
from .qpoly import Cyclo, CycloBasis, IntPoly, render_monomial
from .symfun import (
    hook_content, key_poly, keyhat_poly, scalar_product, schur_onevar_value,
    schur_principal,
)


# -- small helpers -------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def cached_kernel(build, *args) -> Kernel:
    """``build(*args)``, kept for the coefficient reads of a grid that
    enumerates a, the first argument, outermost.  Callers pass a builder by
    its name in this module, so a wrapper installed over it sees each build."""
    return build(*args)


def _render(lhs, rhs, render=str):
    """``(render(lhs), render(rhs))``, rendering once when the two sides
    are equal as exact values: then both are the same string."""
    text = render(lhs)
    return text, (text if lhs == rhs else render(rhs))


def _t_report(p: MPoly, coeffs: dict | None = None) -> str:
    """The t-coefficients of p (``coeffs``, when the caller has them) as
    JSON {t-monomial: q-polynomial}, each t named as ``p.table`` names it
    and the empty monomial as ``1``."""
    table = p.table
    names = [table.names[table.t_index(i, j)] for i, j in table.t_pairs]
    return json.dumps({render_monomial(zip(names, texp)) or "1": str(poly)
                       for texp, poly in (coeffs or p.t_coefficients()).items()},
                      sort_keys=True)


def _poincare_sum(table: VarTable, perms, weight) -> MPoly:
    """sum over ``perms`` of weight(w) t_{R(w)}, each weight(w) an IntPoly:
    every right side with one t per pair is a weighted Poincare sum.  Each
    weight is written onto its t-monomial in one pass; were two R(w) equal,
    their weights would add."""
    return MPoly.from_q_coefficients(table, (
        ({table.t_index(i, j): 1 for i, j in w.recording_set()}, weight(w))
        for w in perms))


# -- closed forms ---------------------------------------------------------------

def rhs_qdyson(a) -> IntPoly:
    return Cyclo.qmultinom(a).expand()


def c_w(a, w: Permutation) -> IntPoly:
    """The weight of one permutation in the deformed Poincare sum:

        qmultinom(a) * prod_i (1 - q^{a_i}) / (1 - q^{a_{w(1)}+...+a_{w(i)}})

    reduced to a genuine polynomial: ``_c_weights(a, Cyclo())(w)``.
    """
    return _c_weights(a, Cyclo())(w)


def _c_weights(a, scale: Cyclo):
    """w -> scale * c_w(a) expanded, for the permutations w of one a.

    The numerator scale qmultinom(a) prod_i (1 - q^{a_i}) is built once.
    c_w depends on w only through the partial sums a_{w(1)} + ... +
    a_{w(i)} of the word (a_{w(1)}, ..., a_{w(n)}) (``partial_sums``), so
    each distinct word is divided out and expanded once.
    """
    a = tuple(a)
    n = len(a)
    if any(x < 1 for x in a):
        raise ValueError("c_w needs positive a")
    num = scale * Cyclo.qmultinom(a)
    for x in a:
        num = num * Cyclo.one_minus_q(x)
    done: dict[tuple, IntPoly] = {}

    def weight(w: Permutation) -> IntPoly:
        if w.n != n:
            raise ValueError(f"w permutes {w.n} letters and a has {n} parts")
        word = w.act(a)
        out = done.get(word)
        if out is None:
            out = num
            for s in partial_sums(word):
                out = out / Cyclo.one_minus_q(s)
            out = done[word] = out.expand()
        return out

    return weight


def rhs_poincare_qdyson(a) -> MPoly:
    """sum_w c_w(a) t_{R(w)}, on ``table_kernel``."""
    a = tuple(a)
    return _poincare_sum(table_kernel(len(a)), Permutation.all_perms(len(a)),
                         _c_weights(a, Cyclo()))


def poincare_W(n: int) -> MPoly:
    """The multivariable Poincare polynomial sum_w t_{R(w)}, on
    ``table_kernel``."""
    one = IntPoly.const(1)
    return _poincare_sum(table_kernel(n), Permutation.all_perms(n),
                         lambda w: one)


def poincare_single_product(n: int) -> IntPoly:
    """prod_{i=2}^{n} (1 - t^i)/(1 - t), as a Cyclo expanded once."""
    out = Cyclo()
    for i in range(2, n + 1):
        out = out * Cyclo.one_minus_q(i) / Cyclo.one_minus_q(1)
    return out.expand()


def rhs_bg_general(a, index_set) -> IntPoly:
    a = tuple(a)
    if any(x < 1 for x in a):
        raise ValueError("rhs_bg_general needs positive a")
    if not all(1 <= i <= len(a) for i in index_set):
        raise ValueError(f"index set {sorted(index_set)} is not inside 1..{len(a)}")
    sigma = partial_sums(a)
    out = Cyclo.qmultinom(a)
    for i in sorted(index_set):
        out = out * Cyclo.one_minus_q(a[i - 1]) / Cyclo.one_minus_q(sigma[i - 1])
    return out.expand()


def rhs_bg_alternating(a) -> IntPoly:
    a = tuple(a)
    if any(x < 1 for x in a):
        raise ValueError("rhs_bg_alternating needs positive a")
    out = Cyclo.qmultinom(a)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            out = (out * Cyclo.q_power_diff(a[i], a[j])
                   / Cyclo.one_minus_q(a[i] + a[j]))
    return out.expand()


def rhs_tournament(t: Tournament, a) -> IntPoly:
    w = t.winner()
    if w is None:
        return IntPoly()
    return c_w(a, w)


# -- Kadell-type coefficients ------------------------------------------------------

def D_vlambda(v, lam, a, family: str) -> MPoly:
    """Brute-force CT[ x^{-v} s_lambda(x^(a)) kernel ].

    ``family`` names the kernel as ``kernel_factors`` does: "t" keeps the
    t variables (on ``table_kernel``) and "dyson" is the plain product,
    the t kernel at t[i,j] = q^{a_j} (on ``table_x``).
    """
    v = tuple(v)
    a = tuple(a)
    n = len(a)
    if len(v) != n:
        raise ValueError("v and a must share a length")
    if family not in ("dyson", "t"):
        raise ValueError(f"D_vlambda reads the dyson or t kernel, not {family!r}")
    table = (table_x if family == "dyson" else table_kernel)(n)
    # the Schur factor is one more factor, so the full kernel is never built
    return Kernel(kernel_factors(family, a)
                  + [schur_principal(lam, a, table)], table).coeff_x(v)


def rhs_kadell(v, a) -> IntPoly:
    """Closed form for CT[x^{-v} h_m(x^(a)) * Dyson kernel], |v| = m >= 1."""
    v = tuple(v)
    a = tuple(a)
    if len(v) != len(a):
        raise ValueError("v and a must share a length")
    if any(x < 0 for x in v):
        raise ValueError(f"rhs_kadell needs nonnegative v, got {v}")
    m = weight(v)
    if m < 1:
        raise ValueError("rhs_kadell needs |v| >= 1")
    if sort_desc(v) != (m,) + (0,) * (len(v) - 1):
        return IntPoly()
    k = v.index(m) + 1
    total = sum(a)
    if total == 0 or a[k - 1] == 0:
        return IntPoly()
    sigma = partial_sums(a)
    num = Cyclo.one_minus_q(a[k - 1]) * Cyclo.qpoch(total, m) * Cyclo.qmultinom(a)
    den = Cyclo.one_minus_q(total) * Cyclo.qpoch(total - a[k - 1] + 1, m)
    return (num / den).shifted(sigma[-1] - sigma[k - 1]).expand()


def rhs_kadell_t(k: int, m: int, a) -> MPoly:
    """The symbolic-t closed form for v = (0^{k-1}, m, 0^{n-k}):

        (q^{|a|})_m / (q^{|a|-a_k+1})_m * sum over w with w(n) = k of c_w t_{R(w)}.

    Its per-w weight is often written prod_i [sigma_i - 1; a_i - 1]_q
    (1 - q^{sigma_i}) / (1 - q^{a_{w(1)}+...+a_{w(i)}}); the numerator
    telescopes to [|a|; a]_q prod_i (1 - q^{a_i}), which makes it c_w.
    """
    a = tuple(a)
    n = len(a)
    if any(x < 1 for x in a):
        raise ValueError("rhs_kadell_t needs positive a")
    if m < 1:
        raise ValueError("rhs_kadell_t needs m >= 1")
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    total = sum(a)
    ratio = Cyclo.qpoch(total, m) / Cyclo.qpoch(total - a[k - 1] + 1, m)
    return _poincare_sum(table_kernel(n),
                         (w for w in Permutation.all_perms(n) if w(n) == k),
                         _c_weights(a, ratio))


def rhs_strict(lam, a, w: Permutation) -> IntPoly:
    """Closed form for D_{w^{-1}(reversed lam)}(a), lam a strict partition."""
    lam = tuple(lam)
    a = tuple(a)
    n = len(a)
    if len(lam) != n:
        raise ValueError("lam must have the full length n (pad with zeros)")
    if w.n != n:
        raise ValueError(f"w permutes {w.n} letters and a has {n} parts")
    if not is_strict(lam):
        raise ValueError(f"not a strict partition: {lam}")
    if any(x < 1 for x in a):
        raise ValueError("rhs_strict needs positive a")
    word = w.act(a)
    out = Cyclo()
    for lb, s, x in zip(reverse(lam), partial_sums(word), word):
        out = out * Cyclo.qbinom(lb + s - 1, x - 1)
    shift = sum(a[j - 1] for _, j in w.recording_set())
    return out.shifted(shift).expand()


# -- u-sum identities ----------------------------------------------------------------
#
# Clearing the denominator prod over nonempty A of (1 - u_A) turns the
# u-sum identity into a polynomial one.  Its left side sums, over the
# permutations w of [n], prod_i (1 - u_{w(i)}) * u_{R(w)} times the
# (1 - u_A) of every nonempty A off the chain of prefix sets of w.  Each
# factor depends only on one step of that chain: appending x after the
# prefix set C - x contributes (1 - u_x), x's share prod_{c in C - x, c > x}
# u_c of u_{R(w)}, and the (1 - u_A) with x in A, A a proper subset of C
# (each off-chain A is charged to the first prefix set that contains it).
# So the left side is the path sum G([n]) over the subset lattice,
#
#     G(empty) = 1,   G(C) = sum_{x in C} G(C - x) * step(C, x),
#
# which takes n * 2^(n-1) steps instead of n! products.  Every step and
# both right sides multiply their binomials (1 - u_A) into one accumulator
# in turn, after the monomial u_{>x} of a step or u_{>k} of the refined
# right side, by the kernels' two-term step (``MPoly.times_binomials``):
# their products rarely collide, so a balanced schedule only makes the
# last merges large x large.

def _u_exponents(table, subset) -> dict:
    """u_A = prod over i in A = ``subset`` of u_i, as {variable index: 1}."""
    return {table.u_index(i): 1 for i in subset}


def _usum_step(table, acc, C, x):
    """``acc`` times the factors of appending x after the prefix set C - x."""
    rest = sorted(C - {x})
    acc = acc * MPoly.monomial(table,
                               _u_exponents(table, [c for c in rest if c > x]))
    return acc.times_binomials([_u_exponents(table, {x})] + [
        _u_exponents(table, (x,) + b) for r in range(len(rest))
        for b in itertools.combinations(rest, r)])


def _usum_path_sum(table, ground) -> MPoly:
    """G(ground): the sum over the orders w of ``ground`` of the cleared
    u-sum terms, built one level of the subset lattice at a time."""
    ground = sorted(ground)
    level = {frozenset(): MPoly.one(table)}
    for r in range(1, len(ground) + 1):
        nxt = {}
        for C in map(frozenset, itertools.combinations(ground, r)):
            total = MPoly.zero(table)
            for x in C:
                total = total + _usum_step(table, level[C - {x}], C, x)
            nxt[C] = total
        level = nxt
    return level[frozenset(ground)]


def _nonempty_subsets(n: int) -> list:
    return [frozenset(s) for r in range(1, n + 1)
            for s in itertools.combinations(range(1, n + 1), r)]


def _check_usum_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"the u-sum needs n >= 1, got {n}")


def usum_cleared_sides(n: int):
    """Numerators of both sides of the full u-sum identity after clearing
    the denominator prod over nonempty subsets A of (1 - u_A)."""
    _check_usum_n(n)
    table = table_u(n)
    lhs = _usum_path_sum(table, range(1, n + 1))
    rhs = MPoly.one(table).times_binomials(
        [_u_exponents(table, sub) for sub in _nonempty_subsets(n)])
    return lhs, rhs


def usum_k_cleared_sides(n: int, k: int):
    """Cleared numerators for the w(n) = k refinement of the u-sum: the
    path sum over the orders of [n] - k, then the step appending k last."""
    _check_usum_n(n)
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    table = table_u(n)
    full = frozenset(range(1, n + 1))
    lhs = _usum_step(table, _usum_path_sum(table, full - {k}), full, k)
    upper = MPoly.monomial(table, _u_exponents(table, range(k + 1, n + 1)))
    rhs = upper.times_binomials([_u_exponents(table, {k})] + [
        _u_exponents(table, sub) for sub in _nonempty_subsets(n) if sub != full])
    return lhs, rhs


# -- (0,1)-matrix propositions ---------------------------------------------------------

def solve_column_relation(kappa):
    """All (lam, w) with conj(lam) = w(c(kappa) + delta_m) - delta_m, m the
    column count of kappa: as conj(lam) + delta_m strictly decreases, w
    sorts c(kappa) + delta_m, so there is one when its entries are distinct
    and none otherwise."""
    m = kappa.shape[1]
    delta = staircase(m)
    shifted = [x + d for x, d in zip(kappa.col_sums(), delta)]
    if len(set(shifted)) < m:
        return []
    word = sorted(range(1, m + 1), key=lambda j: -shifted[j - 1])
    conj = [shifted[j - 1] - d for j, d in zip(word, delta)]
    return [(conjugate(conj), Permutation(word))]


def _check_column_relation(kappa, lam, w: Permutation | None = None):
    """Raise ValueError unless lam, up to trailing zeros, and w (any w, when
    None) solve the column relation of kappa."""
    lam = tuple(lam)
    for sol, sol_w in solve_column_relation(kappa):
        if lam == sol + (0,) * (len(lam) - len(sol)) and w in (None, sol_w):
            return
    raise ValueError(f"lam = {lam} and w = {w} do not solve the column "
                     f"relation of kappa = {kappa.serialize()}")


def tau_kappa_coeff(kappa, a) -> MPoly:
    """The coefficient of s^kappa in CT_x of the tau kernel of (a, 1^m)
    times one binomial (1 - s[i,j] x_{n+j}/x_i) per crossing pair.

    Each s[i,j] sits in that one factor, so this is (-1)^|kappa| times the
    coefficient of x^mu in the tau kernel itself, where mu is the row sums
    of kappa followed by its negated column sums.
    """
    rows = kappa.row_sums()
    mu = rows + tuple(-c for c in kappa.col_sums())
    kernel = cached_kernel(tau_kernel, tuple(a), kappa.shape[1])
    return kernel.coeff_x(mu) * (-1) ** sum(rows)


def prop_kappa_sides(kappa, lam, w: Permutation, a):
    """Both sides of the kappa-extraction identity, as polynomials in q and
    t; (lam, w) must solve the column relation of kappa."""
    a = tuple(a)
    n, m = kappa.shape
    if len(a) != n:
        raise ValueError("a must have one entry per row of kappa")
    if w.n != m:
        raise ValueError(f"w permutes {w.n} letters and kappa has {m} columns")
    _check_column_relation(kappa, lam, w)
    lhs = D_vlambda(kappa.row_sums(), lam, a, "t")
    return lhs, tau_kappa_coeff(kappa, a) * w.sign()


def prop_vnu_sides(v, a, m: int):
    """Both sides of the rectangle-composition extraction identity: the
    kappa identity for the left-justified kappa with row sums v, whose
    column relation holds with lam = v sorted and w the identity."""
    return prop_kappa_sides(left_justified_from_rows(v, m), sort_desc(v),
                            Permutation.identity(m), a)


# -- near-constant-term coefficients (Sills, Lv-Xin-Zhou) -------------------------------

def cyclic_interval(s: int, r: int, n: int):
    """Indices strictly between s and r, walking cyclically s+1, s+2, ..."""
    out = []
    i = s % n + 1
    while i != r:
        out.append(i)
        i = i % n + 1
    return out


# Both right sides are sums of terms +-q^e W_s, with
#
#     W_s = [|a|; a]_q (1 - q^s) / (1 - q^(|a|+1-s)),   s = 1..|a|,
#
# whose Cyclo part depends only on a and s; the rest of the case enters
# through a sign and a q-shift.  So the W_s of one a are expanded, or put
# over their common denominator, once, and each case only shifts or
# combines them.

def _near_ct_term(a: tuple, s: int) -> Cyclo:
    return (Cyclo.qmultinom(a) * Cyclo.one_minus_q(s)
            / Cyclo.one_minus_q(1 + sum(a) - s))


@functools.lru_cache(maxsize=8)
def _near_ct_expanded(a: tuple, s: int) -> IntPoly:
    """W_s expanded (zero for s = 0), kept for the cases of a grid
    enumerated by ``a``."""
    return _near_ct_term(a, s).expand()


@functools.lru_cache(maxsize=4)
def _near_ct_basis(a: tuple) -> CycloBasis:
    """The common-denominator basis of W_1, ..., W_|a|."""
    return CycloBasis(_near_ct_term(a, s) for s in range(1, sum(a) + 1))


def rhs_sills(a, r: int, s: int) -> IntPoly:
    a = tuple(a)
    n = len(a)
    if r == s or not (1 <= r <= n and 1 <= s <= n):
        raise ValueError("need distinct indices r, s in 1..n")
    e_rs = (1 if r < s else 0) + sum(a[i - 1] for i in cyclic_interval(s, r, n))
    return -_near_ct_expanded(a, a[s - 1]).shifted(e_rs)


def rhs_lxz(v, a) -> IntPoly:
    """sum over J in I = {i : v_i = 1} of (-1)^|J| q^(e_J) W_(a_J), where
    a_J = sum_{j in J} a_j and e_J = sum_{j not in J} (v_1+...+v_j) a_j."""
    v = tuple(v)
    a = tuple(a)
    n = len(a)
    if len(v) != n or not n:
        raise ValueError(f"v has length {len(v)} and a has length {n}; "
                         "need equal nonzero lengths")
    if weight(v) != 0 or max(v) > 1 or v[0] != 1:
        raise ValueError("need |v| = 0, max(v) <= 1 and v_1 = 1")
    if min(a) < 0:
        raise ValueError("rhs_lxz needs nonnegative a")
    prefix = partial_sums(v)
    weights = [p * x for p, x in zip(prefix, a)]
    # (a_J, e_J, (-1)^|J|) for every subset J of I, one i in I at a time
    subsets = [(0, sum(weights), 1)]
    for i in range(n):
        if v[i] == 1:
            subsets += [(aJ + a[i], eJ - weights[i], -sign)
                        for aJ, eJ, sign in subsets]
    # coeffs[s - 1] gathers the signed q^(e_J) of every J with a_J = s
    coeffs = [{} for _ in range(sum(a))]
    for aJ, eJ, sign in subsets:
        if aJ:  # else the factor 1 - q^0 kills the term (incl. J = {})
            c = coeffs[aJ - 1]
            c[eJ] = c.get(eJ, 0) + sign
    return _near_ct_basis(a).combine(map(IntPoly, coeffs))


def sills_lhs(a, r: int, s: int) -> IntPoly:
    """CT[(x_r/x_s) * Dyson kernel] by brute force."""
    return lxz_lhs(tuple((1 if i == s else 0) - (1 if i == r else 0)
                         for i in range(1, len(a) + 1)), a)


def lxz_lhs(v, a) -> IntPoly:
    """CT[x^{-v} * Dyson kernel] by brute force (v may have negatives)."""
    return cached_kernel(dyson_kernel, tuple(a)).coeff_x(v).to_intpoly()


# -- checkers -------------------------------------------------------------------------
# verify_<identity> takes one case's params as its report prints them and
# returns the two rendered sides (lhs, rhs), rendered once when they are
# equal values of one kind (``_render``).

def verify_q_dyson(a):
    a = tuple(a)
    return _render(dyson_kernel(a).ct_x().to_intpoly(), rhs_qdyson(a))


def verify_poincare(a):
    """Full t-expansion of the deformed kernel against sum_w c_w t_{R(w)},
    including the vanishing of every t_S coefficient with K(S) < n."""
    a = tuple(a)
    n = len(a)
    lhs = tkernel(a).ct_x()
    table = lhs.table
    coeffs = lhs.t_coefficients()
    lhs_str = report = _t_report(lhs, coeffs)
    # independent support check: only recording sets may appear
    for texp in coeffs:
        S = frozenset(p for p, e in zip(table.t_pairs, texp) if e)
        if ell_stats(S, n)[3] != n:
            lhs_str += f" [nonzero at K<{n}: {sorted(S)}]"
    rhs = rhs_poincare_qdyson(a)
    return lhs_str, (report if lhs == rhs else _t_report(rhs))


def verify_poincare_equal(n: int, k: int):
    lhs = tkernel((k,) * n).ct_x()
    scale = Cyclo()
    for i in range(1, n):
        scale = scale * Cyclo.qbinom((i + 1) * k - 1, k - 1)
    return _render(lhs, poincare_W(n) * scale.expand())


def verify_wtd(n: int):
    lhs = tkernel((1,) * n).ct_x().collapse_t_single()
    also = poincare_W(n).collapse_t_single()
    if lhs != also:
        return f"{lhs} != {also}", str(poincare_single_product(n))
    return _render(lhs, poincare_single_product(n))


def verify_bg_general(a, I):
    a, I = tuple(a), set(I)
    return _render(bg_kernel(a, I).ct_x().to_intpoly(), rhs_bg_general(a, I))


def verify_bg_alternating(a):
    a = tuple(a)
    return _render(bg_alternating_kernel(a).ct_x().to_intpoly(),
                   rhs_bg_alternating(a))


def verify_tournament(a, edges: str):
    a = tuple(a)
    t = Tournament.parse(len(a), edges)
    return _render(tournament_kernel(t, a).ct_x().to_intpoly(),
                   rhs_tournament(t, a))


def verify_kadell(v, a):
    lhs = D_vlambda(v, (weight(v),), a, "dyson").to_intpoly()
    return _render(lhs, rhs_kadell(v, a))


def verify_kadell_t(k: int, m: int, a):
    a = tuple(a)
    n = len(a)
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} is out of range 1..{n}")
    v = (0,) * (k - 1) + (m,) + (0,) * (n - k)
    return _render(D_vlambda(v, (m,), a, "t"), rhs_kadell_t(k, m, a),
                   _t_report)


def verify_strict(lam, a, w: str):
    lam, w = tuple(lam), Permutation.parse(w)
    v = w.inverse().act(reverse(lam))
    lhs = D_vlambda(v, tuple(x for x in lam if x), a, "dyson").to_intpoly()
    return _render(lhs, rhs_strict(lam, a, w))


def verify_usum(n: int):
    return _render(*usum_cleared_sides(n))


def verify_usum_k(n: int, k: int):
    return _render(*usum_k_cleared_sides(n, k))


def verify_prop_kappa(kappa: str, lam, w: str, a):
    return tuple(map(_t_report, prop_kappa_sides(
        ZeroOneMatrix.parse(kappa), lam, Permutation.parse(w), a)))


def verify_prop_zero(kappa: str, lam, a):
    """D_{r(kappa),lam} = 0 for a kappa that is not left-justified and a lam
    that solves its column relation."""
    kappa = ZeroOneMatrix.parse(kappa)
    if kappa.is_left_justified():
        raise ValueError(f"kappa = {kappa.serialize()} is left-justified")
    _check_column_relation(kappa, lam)
    return str(D_vlambda(kappa.row_sums(), lam, a, "t")), "0"


def verify_prop_vnu(v, a, m: int):
    return tuple(map(_t_report, prop_vnu_sides(v, a, m)))


def verify_sills(a, r: int, s: int):
    return _render(sills_lhs(a, r, s), rhs_sills(a, r, s))


def verify_lxz(v, a):
    return _render(lxz_lhs(tuple(v), a), rhs_lxz(v, a))


def verify_interp_dyson(a, S):
    """The interpolated t -> 0 coefficient of x^v(S) against its brute-force
    extraction; it must be nonzero exactly when K(S) = n."""
    a = tuple(a)
    S = frozenset(map(tuple, S))
    n = len(a)
    value = dyson_coeff_interpolated(a, S)
    d_in, e_out, _, K = ell_stats(S, n)
    v = tuple(e - d for e, d in zip(e_out, d_in))
    brute = (cached_kernel(tzero_kernel, a).coeff_x(v).to_intpoly()
             * (-1) ** len(S))
    lhs, rhs = _render(value, brute)
    if (K == n) != (not value.is_zero):
        lhs += " [K-dichotomy violated]"
    return lhs, rhs


def verify_interp_closed(a, w: str):
    a, w = tuple(a), Permutation.parse(w)
    return _render(closed_eval(a, w), c_w(a, w))


def verify_interp_sills(a, r: int):
    a = tuple(a)
    return _render(sills_coeff_interpolated(a, r), rhs_sills(a, r, 1))


def verify_scalar_kkhat(v, w):
    """<K_v, K^hat_w> is 1 when v is w reversed, else 0."""
    v, w = tuple(v), tuple(w)
    if len(v) != len(w):
        raise ValueError("v and w must share a length")
    got = scalar_product(key_poly(v), keyhat_poly(w))
    return _render(got, IntPoly.const(1 if v == reverse(w) else 0))


def verify_schur_monomial(lam, v):
    """<s_lam, x^v> is the sign of the permutation sorting v + delta to
    lam + delta, and 0 when there is none."""
    lam, v = tuple(lam), tuple(v)
    n = len(lam)
    if len(v) != n:
        raise ValueError("lam and v must share a length")
    t = table_x(n)
    got = scalar_product(
        schur_principal(lam, (1,) * n, t),
        MPoly.monomial(t, {t.x_index(i + 1): e for i, e in enumerate(v) if e}))
    delta = staircase(n)
    u = tuple(x + d for x, d in zip(v, delta))
    ref = tuple(x + d for x, d in zip(lam, delta))
    if sorted(u, reverse=True) == list(ref) and len(set(u)) == n:
        w = Permutation(tuple(ref.index(x) + 1 for x in u))
        want = IntPoly.const(w.sign())
    else:
        want = IntPoly()
    return _render(got, want)


def verify_hook_content(lam, a: int):
    lam = tuple(lam)
    return _render(schur_onevar_value(lam, a), hook_content(lam, a))
