"""Reference constructions that only the tests use.

No route of ``dysonct verify`` or ``dysonct ct`` runs these, so they live
here and not in the package (``test_reach.py`` keeps it that way).  Each
one is either the slow route that a test compares a route, or an object a
route builds, against, or it builds the golden and fixture data of a test.
They use only the package's public API; the polynomial rewrites read
``MPoly.terms`` and rebuild through the checked ``MPoly(table, terms)``
constructor, which merges equal monomials, drops zero coefficients and
range-checks every exponent.
"""

from dysonct.combi import Permutation, Tournament, all_pairsets, ell_stats
from dysonct.identities import D_vlambda
from dysonct.interp import Grid, dyson_grid, fs_factors
from dysonct.mpoly import MPoly, table_x
from dysonct.qpoly import ONE, ZERO, IntPoly


# -- q-factorials as expanded IntPoly products (references for Cyclo) ----------

def one_minus_q(e: int) -> IntPoly:
    """1 - q^e, which is identically zero when e = 0."""
    return ZERO if e == 0 else IntPoly({0: 1, e: -1})


def q_power_diff(e1: int, e2: int) -> IntPoly:
    """q^e1 - q^e2 (zero when the exponents coincide)."""
    return ZERO if e1 == e2 else IntPoly({e1: 1, e2: -1})


def qpoch(m: int, k: int) -> IntPoly:
    """The q-shifted factorial (q^m)_k = prod_{i=0}^{k-1} (1 - q^(m+i))."""
    if k < 0:
        raise ValueError("qpoch needs k >= 0")
    out = ONE
    for i in range(k):
        out = out * one_minus_q(m + i)
    return out


def qbinom(n: int, m: int) -> IntPoly:
    """The Gaussian binomial (q)_n / ((q)_m (q)_{n-m}) by exact division;
    zero outside the range 0 <= m <= n."""
    if not 0 <= m <= n:
        return ZERO
    return qpoch(1, n).exact_div(qpoch(1, m) * qpoch(1, n - m))


# -- polynomials multiplied out term by term and rewritten term by term --------

def product(factors, table) -> MPoly:
    """Multiply a list of MPoly factors into one accumulator in turn: the
    plain route that a ``Kernel`` read replaces."""
    out = MPoly.one(table)
    for f in factors:
        out = out * f
    return out


# -- kernel factors as one MPoly per binomial -------------------------------------

def _poch_binomials(table, i, j, shift, count):
    """1 - q^(shift + k) x_i/x_j for 0 <= k < count, one MPoly each."""
    xi, xj = table.x_index(i), table.x_index(j)
    return [MPoly.one(table)
            - MPoly.monomial(table, {0: shift + k, xi: 1, xj: -1})
            for k in range(count)]


def mpoly_kernel_factors(family, a, table, *, m=0, tournament=None,
                         index_set=()) -> list:
    """The factor list of ``mpoly.kernel_factors`` with every binomial
    built as its own MPoly on ``table``: the reference for the plain
    list.  It takes the inputs that ``kernel_factors`` accepts."""
    a = tuple(a)
    n = len(a)
    factors = []
    if family == "bg-alternating":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                factors.append(MPoly.monomial(table, {j: 1, i: -1})
                               - MPoly.monomial(table, {i: 1, j: -1}))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    factors += _poch_binomials(table, i, j, 1, a[i - 1] - 1)
        return factors
    if family == "tournament":
        edges = sorted(tournament.edges)
    else:
        edges = [(i, j) for i in range(1, n + m + 1)
                 for j in range(i + 1, n + m + 1)]
    full = a + (1,) * m
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
            factors.append(MPoly.one(table) - MPoly.monomial(table, {
                table.t_index(i, j): 1, j: 1, i: -1}))
    return factors


def binomial_poly(f, table) -> MPoly:
    """The MPoly of one plain binomial of ``mpoly.kernel_factors``:
    (u, v, k) is 1 - q^k x_v/x_u and (i, j) is 1 - t[i,j] x_j/x_i."""
    u, v, *k = f
    exps = {0: k[0]} if k else {table.t_index(u, v): 1}
    exps.update({table.x_index(v): 1, table.x_index(u): -1})
    return MPoly.one(table) - MPoly.monomial(table, exps)


def poch_factor(table, i: int, j: int, shift: int, count: int) -> MPoly:
    """(q^shift * x_i / x_j)_count as an expanded polynomial."""
    if count < 0:
        raise ValueError("poch_factor needs count >= 0")
    xi, xj = table.x_index(i), table.x_index(j)
    return product([MPoly.one(table)
                    - MPoly.monomial(table, {0: shift + k, xi: 1, xj: -1})
                    for k in range(count)], table)


def _rewrite(p: MPoly, rewrite) -> MPoly:
    return MPoly(p.table, [(rewrite(v), c) for v, c in p.terms()])


def subst_t_qpowers(p: MPoly, powers) -> MPoly:
    """Substitute t[i,j] -> q^{powers[(i,j)]} for every t variable."""
    t = p.table
    if set(powers) != set(t.t_pairs):
        raise ValueError("powers must cover exactly the t pairs")
    moves = [(t.t_index(*pair), powers[pair]) for pair in t.t_pairs]

    def rewrite(v):
        v = list(v)
        for ix, power in moves:
            v[0] += power * v[ix]
            v[ix] = 0
        return v

    return _rewrite(p, rewrite)


def subst_t_zero(p: MPoly) -> MPoly:
    """Substitute every t[i,j] -> 0 (keep only the t-free part)."""
    tix = [p.table.t_index(*pair) for pair in p.table.t_pairs]
    kept = []
    for v, c in p.terms():
        if any(v[ix] < 0 for ix in tix):
            raise ValueError("negative t exponent under t -> 0")
        if not any(v[ix] for ix in tix):
            kept.append((v, c))
    return MPoly(p.table, kept)


def subst_t_perm(p: MPoly, w: Permutation) -> MPoly:
    """Relabel t[i,j] -> t[w(i),w(j)], inverting when w(i) > w(j): the
    t-alphabet action that goes with permuting x and a."""
    t = p.table
    moves = [(t.t_index(i, j), t.t_index(*sorted((w(i), w(j)))),
              1 if w(i) < w(j) else -1) for i, j in t.t_pairs]

    def rewrite(v):
        out = list(v)
        for ix, _, _ in moves:
            out[ix] = 0
        for ix, target, sign in moves:
            out[target] += sign * v[ix]
        return out

    return _rewrite(p, rewrite)


def gamma_shift(p: MPoly) -> MPoly:
    """The q-shifted cyclic action L(x1,...,xn) -> L(x2,...,xn,x1/q)."""
    n = p.table.nx
    return _rewrite(p, lambda v: (v[0] - v[n], v[n]) + v[1:n] + v[n + 1:])


def gamma_shift_inv(p: MPoly) -> MPoly:
    """Inverse of gamma_shift: L(x1,...,xn) -> L(q*xn,x1,...,xn-1)."""
    n = p.table.nx
    return _rewrite(p, lambda v: ((v[0] + v[1],) + v[2:n + 1] + (v[1],)
                                  + v[n + 1:]))


def t_monomial(table, S) -> MPoly:
    """prod over the pairs of S of t[i,j]."""
    return MPoly.monomial(table, {table.t_index(i, j): 1 for i, j in S})


# -- the interpolation lemma on an expanded polynomial --------------------------

def default_grid(d) -> Grid:
    """B_i = {0, 1, ..., d_i}: the simplest admissible grid."""
    return Grid(tuple(tuple(range(di + 1)) for di in d))


def sampled_dyson_grid(a, S, rng) -> Grid:
    """``interp.dyson_grid(a, S)`` with each free choice drawn by ``rng``:
    for i off the tau chain, B_i is any |a| - a_i - ell_i + 1 exponents in
    0..|a| - a_i that avoid the K + 1 points |a| - a_i - a_{tau(1..k)},
    0 <= k <= K.  The chain sets have no free choice and are kept."""
    a = tuple(a)
    n = len(a)
    grid, _ = dyson_grid(a, S)
    _, _, ell, K = ell_stats(S, n)
    tau = [ell.index(k) + 1 for k in range(K)]
    chain_sums = [sum(a[j - 1] for j in tau[:k]) for k in range(K + 1)]
    points = list(grid.points)
    for i in range(1, n + 1):
        if i in tau:
            continue
        top = sum(a) - a[i - 1]
        excluded = {top - c for c in chain_sums}
        pool = [b for b in range(top + 1) if b not in excluded]
        points[i - 1] = tuple(sorted(rng.sample(pool, top - ell[i - 1] + 1)))
    return Grid(tuple(points))


def fs_polynomial(a, S, table=None) -> MPoly:
    """F_S of ``interp.fs_factors`` fully expanded."""
    a = tuple(a)
    if table is None:
        table = table_x(len(a))
    sign, factors = fs_factors(a, S)
    return product([MPoly.monomial(table, {table.x_index(u): 1})
                    - MPoly.monomial(table, {0: k, table.x_index(v): 1})
                    for u, v, k in factors], table) * sign


def fs_degree_profile(a, S) -> tuple:
    """Exponents of the target monomial of F_S."""
    a = tuple(a)
    n = len(a)
    total = sum(a)
    d_in, e_out, _, _ = ell_stats(S, n)
    return tuple(total - a[i - 1] - (n - i) - d_in[i - 1] + e_out[i - 1]
                 for i in range(1, n + 1))


# -- permutations, pair sets and tournaments -------------------------------------

def longest(n: int) -> Permutation:
    """The longest element w0 = (n, ..., 1)."""
    return Permutation(range(n, 0, -1))


def pairset_serialize(S) -> str:
    return "{" + ", ".join(f"({i},{j})" for i, j in sorted(S)) + "}"


def pairset_to_perm(S, n: int):
    """The w with S = R(w), if one exists (i.e. iff K(S) = n), else None.

    For S = R(w), ell_{w(j)} = n - j, so w(j) is the index whose ell is
    n - j.
    """
    _, _, ell, K = ell_stats(S, n)
    if K < n:
        return None
    return Permutation(ell.index(n - j) + 1 for j in range(1, n + 1))


def w_sigma(a, w: Permutation, i: int) -> int:
    """a_{w(1)} + ... + a_{w(i)}, summed on its own: the partial sum that
    the package reads from ``combi.partial_sums`` of the word w(a)."""
    return sum(a[w(j) - 1] for j in range(1, i + 1))


def is_transitive_pairwise(t: Tournament) -> bool:
    """The O(n^2) check that ``Tournament.is_transitive`` replaced: rank
    the players by out-degree, then ask whether each beats every later one."""
    outdeg = {v: 0 for v in range(1, t.n + 1)}
    for i, _ in t.edges:
        outdeg[i] += 1
    order = sorted(outdeg, key=lambda v: (-outdeg[v], v))
    return all((order[a], order[b]) in t.edges
               for a in range(t.n) for b in range(a + 1, t.n))


def natural_tournament(n: int) -> Tournament:
    """The transitive tournament 1 -> 2 -> ... -> n."""
    return Tournament.from_pairset(frozenset(), n)


def all_tournaments(n: int):
    for S in all_pairsets(n):
        yield Tournament.from_pairset(S, n)


# -- paper lemmas checked on D_{v,lam} ----------------------------------------------

def lemma_sym_check(v, lam, a, w: Permutation) -> bool:
    """D_{v,lam}(a; t) = t_{R(w)} * D_{w(v),lam}(w(a); w(t)), all symbolic."""
    lhs = D_vlambda(v, lam, a, "t")
    inner = D_vlambda(w.act(v), lam, w.act(a), "t")
    return lhs == subst_t_perm(inner, w) * t_monomial(lhs.table,
                                                      w.recording_set())


def reduction_check(v, a, m: int) -> bool:
    """D_{v,(m)}(a) = D_{v^I,(m)}(a^I) * prod(delta_{v_i,0}) over zero a_i."""
    v = tuple(v)
    a = tuple(a)
    zeros = [i for i, x in enumerate(a) if x == 0]
    lhs = D_vlambda(v, (m,), a, "dyson")
    if any(v[i] != 0 for i in zeros):
        return lhs.is_zero
    keep = [i for i in range(len(a)) if a[i] != 0]
    if not keep:
        return lhs.is_zero == (m != 0)
    sub_v = tuple(v[i] for i in keep)
    sub_a = tuple(a[i] for i in keep)
    rhs = D_vlambda(sub_v, (m,), sub_a, "dyson")
    return lhs.to_intpoly() == rhs.to_intpoly()


def closed_eval_bookkeeping(a, w: Permutation):
    """The two exponent identities of the factorised evaluation behind
    ``interp.closed_eval``, as (left, right) pairs; with s_i the partial
    sums a_{w(1)} + ... + a_{w(i-1)}:

      * the sign exponents cancel: l(w) + s_less + s_greater = sum_j s_j,
      * the q-power exponents cancel: t_less + t_greater = sum_i t_i.
    """
    n = len(a)
    s = [0] * (n + 2)  # s[1..n+1]
    for i in range(1, n + 1):
        s[i + 1] = s[i] + a[w(i) - 1]
    total = s[n + 1]
    t_phi = [si * (si - 1) // 2 + si * (total - s[i + 1]) - (n - i) * si
             for i, si in enumerate(s[1:n + 1], start=1)]
    s_less = s_greater = t_less = t_greater = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            contrib = (a[w(i) - 1] * (a[w(i) - 1] - 1) // 2
                       + (a[w(i) - 1] + a[w(j) - 1] - 1) * s[i])
            if w(i) < w(j):
                s_less += a[w(i) - 1]
                t_less += contrib
            else:
                s_greater += a[w(i) - 1] - 1
                t_greater += contrib
    return ((w.length() + s_less + s_greater, sum(s[1:n + 1])),
            (t_less + t_greater, sum(t_phi)))


def contributing_perms(lam_bar, m: int):
    """Permutations of n+m letters that survive both the restricted-t
    truncation and the read of the left-justified kappa with row sums
    v = lam_bar: their crossing pairs are exactly the ones of kappa."""
    n = len(lam_bar)
    want = frozenset((i, n + j) for i in range(1, n + 1)
                     for j in range(1, lam_bar[i - 1] + 1))
    out = []
    for w in Permutation.all_perms(n + m):
        r = w.recording_set()
        if any(i > n for i, j in r):
            continue
        crossing = frozenset(p for p in r if p[1] > n)
        if crossing == want:
            out.append(w)
    return out
