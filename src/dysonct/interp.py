"""Coefficient extraction through multivariate Lagrange interpolation.

The generic lemma: for a polynomial F in x_1..x_n of total degree at most
d_1 + ... + d_n and point sets A_i of size d_i + 1, the coefficient of
prod x_i^{d_i} is the sum of F(c) / prod phi_i'(c_i) over the grid, with
phi_i(z) = prod_{a in A_i} (z - a).  All grids here consist of integer
powers of q, so every term is a Cyclo and every sum stays inside exact
q-arithmetic.

On top of the generic extractor sit the two bespoke grids: one that makes
at most a single point of the Poincare-deformed Dyson coefficient survive
(and exactly one precisely when the pair set is a recording set), and one
for the near-constant-term coefficient of the plain Dyson product.  Their
factored polynomials are the t -> 0 and Dyson kernels' own factor lists,
``mpoly.kernel_factors``, with each (u, v, k) read as x_u - x_v q^k.  Both
find their survivors with ``scan_survivors``, a depth-first search that
visits only the points no factor (x_u - x_v q^k) annihilates, instead of
every point of the grid.  The closed evaluation reproduces the surviving
value as a product of q-factorials; the tests check its sign and q-power
bookkeeping identities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .combi import Permutation, ell_stats, partial_sums
from .mpoly import MPoly, kernel_factors
from .qpoly import Cyclo, CycloBasis, IntPoly


@dataclass(frozen=True)
class Grid:
    """Per-variable evaluation sets; entry b stands for the point q^b."""

    points: tuple  # tuple of sorted tuples of integer exponents

    def __post_init__(self):
        for b in self.points:
            if len(set(b)) != len(b):
                raise ValueError("grid exponents must be distinct")

    @property
    def n(self) -> int:
        return len(self.points)

    def sizes(self) -> tuple:
        return tuple(len(b) for b in self.points)

    def iter_points(self):
        yield from itertools.product(*self.points)


def generic_coeff(F: MPoly, d, grid: Grid) -> IntPoly:
    """Coefficient of prod x_i^{d_i} in F: the values F(q^alpha) on the
    grid, summed against the Cyclo terms 1 / prod_i phi_i'(q^alpha_i) in
    one CycloBasis, so a sum outside Z[q, 1/q] raises NonExactDivision."""
    d = tuple(d)
    table = F.table
    if len(d) != table.nx or grid.n != table.nx:
        raise ValueError("degree profile and grid must match the x block")
    if grid.sizes() != tuple(di + 1 for di in d):
        raise ValueError("grid sizes must be d_i + 1")
    if F.min_x_exponent() < 0:
        raise ValueError("F must be a polynomial in x")
    degs = F.x_degrees()
    if degs and max(degs) > sum(d):
        raise ValueError("total degree exceeds the interpolation bound")
    values, terms = [], []
    for alpha in grid.iter_points():
        val = F.subst_x_qpower(alpha).to_intpoly()
        if not val.is_zero:
            values.append(val)
            terms.append(_interpolation_term(1, (), grid, alpha))
    return CycloBasis(terms).combine(values)


# -- the deformed Dyson coefficient ------------------------------------------------

def fs_factors(a, S):
    """(sign, factors) of the homogenised coefficient polynomial F_S: the
    t -> 0 kernel's factors, each (u, v, k) read as x_u - x_v q^k, so F_S
    is x^d times that kernel, d_u the number of factors with first index
    u, with sign (-1)^{number of pairs in S}."""
    return (-1) ** len(S), kernel_factors("tzero", a)


def _factored(sign: int, factors, alpha, den=()) -> Cyclo:
    """F(q^alpha) for a factored F, divided by prod (q^f1 - q^f2) over the
    pairs ``den``; zero as soon as one factor vanishes."""
    return Cyclo.power_diffs(
        sign, ((alpha[u - 1], alpha[v - 1] + k) for u, v, k in factors), den)


def eval_factored(sign: int, factors, alpha) -> IntPoly:
    """Evaluate a factored polynomial at x_i = q^{alpha_i}."""
    return _factored(sign, factors, alpha).expand()


def _interpolation_term(sign, factors, grid: Grid, alpha) -> Cyclo:
    """F(q^alpha) / prod_i phi_i'(q^alpha_i) for a factored F."""
    return _factored(sign, factors, alpha,
                     [(a_i, b) for b_set, a_i in zip(grid.points, alpha)
                      for b in b_set if b != a_i])


def _survivor_term(a, sign, factors, grid: Grid, pi) -> IntPoly:
    """The interpolation over ``grid``: with pi the one survivor must be
    the point alpha_{pi(i)} = a_{pi(1)} + ... + a_{pi(i-1)}, the partial
    sums of pi(a) shifted one place and put back in place by pi^{-1}, and
    the value is its interpolation term; with pi None no point may survive
    and the value is zero.  Raises AssertionError for any other survivors."""
    survivors = scan_survivors(sign, factors, grid)
    expected = [] if pi is None else [
        pi.inverse().act((0,) + partial_sums(pi.act(a))[:-1])]
    if survivors != expected:
        raise AssertionError(f"surviving points {survivors}, expected the "
                             f"partial sums {expected}")
    return (_interpolation_term(sign, factors, grid, survivors[0]).expand()
            if survivors else IntPoly())


def dyson_grid(a, S):
    """The bespoke grid for the pair set S; returns (Grid, pi or None).

    pi is the permutation locating the unique surviving point when
    K(S) = n; for K(S) < n every grid point annihilates F_S.  Free choices
    (indices outside the tau chain) are filled with the smallest admissible
    exponents; any other admissible choice gives the same value.
    """
    a = tuple(a)
    n = len(a)
    if any(x < 1 for x in a):
        raise ValueError("dyson_grid needs positive a")
    total = sum(a)
    _, _, ell, K = ell_stats(S, n)
    tau = {}
    for k in range(1, K + 1):
        tau[k] = ell.index(k - 1) + 1
    chain = {tau[k]: k for k in tau}
    # chain_sums[k] = a_{tau(1)} + ... + a_{tau(k)}
    chain_sums = (0,) + partial_sums(a[tau[k] - 1] for k in range(1, K + 1))
    points = []
    for i in range(1, n + 1):
        top = total - a[i - 1]
        if i in chain:
            pos = chain[i]
            excluded = {top - chain_sums[k] for k in range(0, pos - 1)}
            b = [v for v in range(top + 1) if v not in excluded]
        else:
            size = total - a[i - 1] - ell[i - 1] + 1
            excluded = {top - chain_sums[k] for k in range(0, K + 1)}
            pool = [v for v in range(top + 1) if v not in excluded]
            if len(pool) < size:
                raise AssertionError("free grid pool too small")
            b = pool[:size]
        points.append(tuple(b))
    grid = Grid(tuple(points))
    if K < n:
        return grid, None
    pi = Permutation(tuple(tau[n - i + 1] for i in range(1, n + 1)))
    return grid, pi


def dyson_coeff_interpolated(a, S) -> IntPoly:
    """The t_S coefficient of the deformed Dyson constant term, by
    interpolation over the bespoke grid.

    Postconditions of the construction are enforced: at most one grid
    point with F_S nonzero, exactly one iff K(S) = n, located at the
    partial sums along the pi of ``dyson_grid``.
    """
    a = tuple(a)
    return _survivor_term(a, *fs_factors(a, S), *dyson_grid(a, S))


# -- the factorised closed evaluation ----------------------------------------------

def closed_eval(a, w: Permutation) -> IntPoly:
    """Evaluate the surviving interpolation term for S = R(w) as a product
    of q-factorials in the partial sums s_i = a_{w(1)} + ... + a_{w(i-1)}
    of w(a), i = 1..n+1 (``partial_sums``, shifted one place); the Cyclo
    product carries its own sign and power of q.

    The product is the weight of w in the deformed Poincare sum; comparing
    it with that closed form is the ``interp-closed`` checker's job.
    """
    a = tuple(a)
    n = len(a)
    if any(x < 1 for x in a):
        raise ValueError("closed_eval needs positive a")
    if w.n != n:
        raise ValueError(f"w permutes {w.n} letters and a has {n} parts")
    s = (0, 0) + partial_sums(w.act(a))  # s[1..n+1]; s[0] pads
    total = s[n + 1]
    value = Cyclo()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            value = (value * Cyclo.qfactorial(s[j + 1] - s[i])
                     / Cyclo.one_minus_q(s[j + 1] - s[i])
                     / Cyclo.qfactorial(s[j] - s[i + 1]))
    for i in range(1, n + 1):
        value = value / Cyclo.qfactorial(s[i]) / Cyclo.qfactorial(total - s[i + 1])
        for j in range(i + 1, n + 1):
            value = value * Cyclo.one_minus_q(s[j + 1] - s[i + 1])
    return value.expand()


# -- the near-constant-term grid of the plain Dyson product --------------------------

def sills_factors(a):
    """Factored form of the homogenised plain Dyson product, as in
    ``fs_factors``."""
    return 1, kernel_factors("dyson", a)


def sills_grid(a, r: int) -> Grid:
    """The grid of the direct interpolation proof of the near-constant-term
    formula, normalised to s = 1.  B_r leaves out the point
    a_2 + ... + a_{r-1}; readmitted, it lets a second point survive."""
    a = tuple(a)
    n = len(a)
    if not 2 <= r <= n:
        raise ValueError("need 2 <= r <= n after the s = 1 normalisation")
    if any(x < 1 for i, x in enumerate(a, start=1) if i != r):
        raise ValueError("a_i must be positive for i != r")
    if a[r - 1] < 0:
        raise ValueError("a_r must be nonnegative")
    total = sum(a)
    points = []
    for i in range(1, n + 1):
        if i == 1:
            b = list(range(total - a[0] + 2))
        elif i == r:
            cut = sum(a[1:r - 1])
            b = [v for v in range(total - a[r - 1] + 1) if v != cut]
        else:
            b = list(range(total - a[i - 1] + 1))
        points.append(tuple(b))
    return Grid(tuple(points))


def scan_survivors(sign, factors, grid: Grid):
    """Grid points where the factored polynomial does not vanish, in the
    order of ``grid.iter_points()``.

    A depth-first search over x_1..x_n: the factor (x_u - x_v q^k) kills
    every point with alpha_u = alpha_v + k, so once the earlier of u, v is
    fixed it forbids one value of the later one.  Each level tries only
    the grid values its fixed prefix leaves open, and every complete
    candidate is still confirmed by ``eval_factored`` (which alone sees a
    factor with u = v).
    """
    n = grid.n
    forbidden = [[] for _ in range(n)]  # i -> (j < i, k): alpha_i = alpha_j + k kills F
    for u, v, k in factors:
        if u > v:
            forbidden[u - 1].append((v - 1, k))
        elif u < v:
            forbidden[v - 1].append((u - 1, -k))
    out = []
    alpha = [0] * n

    def extend(i):
        if i == n:
            point = tuple(alpha)
            if not eval_factored(sign, factors, point).is_zero:
                out.append(point)
            return
        banned = {alpha[j] + k for j, k in forbidden[i]}
        for b in grid.points[i]:
            if b not in banned:
                alpha[i] = b
                extend(i + 1)

    extend(0)
    return out


def sills_coeff_interpolated(a, r: int) -> IntPoly:
    """Interpolated value of CT[(x_r/x_1) * plain Dyson product].

    Exactly one surviving point is expected (the identity permutation,
    alpha_i = a_1 + ... + a_{i-1}); any other survivors raise
    AssertionError.
    """
    a = tuple(a)
    return _survivor_term(a, *sills_factors(a), sills_grid(a, r),
                          Permutation.identity(len(a)))
