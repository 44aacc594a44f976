"""Differential test: meet-in-the-middle coefficients against full expansion.

A ``Kernel`` folds two halves of a factor list into q-packed polynomials
(each coefficient polynomial in q held as one integer) and joins them on
the x-block; ``kernel_factors`` hands it each binomial as plain data.  The
reference here builds every binomial as its own MPoly
(``reference.mpoly_kernel_factors``), multiplies the factors out term by
term with ``reference.product`` and then extracts with ``coeff_x``.
"""

import itertools
import random

import pytest

from dysonct.combi import all_zero_one_matrices, partitions_upto
from dysonct import mpoly
from dysonct.identities import D_vlambda, tau_kappa_coeff
from dysonct.mpoly import (
    KERNEL_FAMILIES, Kernel, MPoly, VarTable, bg_alternating_kernel,
    dyson_kernel, kernel_factors, mul_coeff_x, table_kernel, table_tau,
    table_x, tau_kernel, tkernel, tzero_kernel,
)
from dysonct.symfun import (
    key_poly, keyhat_poly, scalar_product, schur_principal,
)
from reference import (
    all_tournaments, binomial_poly, mpoly_kernel_factors, product,
)


def kernel_coeff(factors, table, v=None):
    kernel = Kernel(factors, table)
    return kernel.ct_x() if v is None else kernel.coeff_x(v)


def reference_coeff(factors, table, v):
    return product(factors, table).coeff_x(v)


def kernel_table(family, n, m=0):
    if family == "t":
        return table_kernel(n)
    if family == "tau":
        return table_tau(n, m)
    return table_x(n)


def near_ct_vectors(n):
    """v = 0 and every x_r/x_s shift, the Sills-type near-constant terms."""
    out = [(0,) * n]
    for r, s in itertools.permutations(range(n), 2):
        v = [0] * n
        v[r] += 1
        v[s] -= 1
        out.append(tuple(v))
    return out


def family_cases(family):
    """(a, params, table) on small grids: entries <= 2, and n <= 3, or
    n <= 4 for the dyson, t and tzero kernels."""
    low = 0 if family == "dyson" else 1
    top = 4 if family in ("dyson", "t", "tzero") else 3
    for n in range(1, top + 1):
        for a in itertools.product(range(low, 3), repeat=n):
            if family == "tau":
                for m in (1, 2):
                    if n + m <= 4 and sum(a) <= 4:
                        yield a, {"m": m}, kernel_table("tau", n, m)
            elif family == "tournament":
                for t in all_tournaments(n):
                    yield a, {"tournament": t}, kernel_table(family, n)
            elif family == "bg":
                for size in range(n + 1):
                    for index_set in itertools.combinations(range(1, n + 1), size):
                        yield a, {"index_set": set(index_set)}, kernel_table(family, n)
            else:
                yield a, {}, kernel_table(family, n)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_kernel_coeff_matches_full_expansion(family):
    checked = 0
    for a, params, table in family_cases(family):
        factors = kernel_factors(family, a, **params)
        full = product(mpoly_kernel_factors(family, a, table, **params), table)
        for v in near_ct_vectors(table.nx):
            assert kernel_coeff(factors, table, v) == full.coeff_x(v), (a, params, v)
            checked += 1
        assert kernel_coeff(factors, table) == full.ct_x()
    assert checked


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_every_factor_is_homogeneous_of_x_degree_zero(family):
    # kernel_factors does not check this at run time: each factor has it
    # by construction, and so does the kernel
    checked = 0
    for a, params, table in family_cases(family):
        for f in kernel_factors(family, a, **params):
            poly = f if isinstance(f, MPoly) else binomial_poly(f, table)
            assert poly.x_degrees() == {0}, (a, params, f)
            checked += 1
    assert checked


def differential_cases(family):
    """(a, params, table): n <= 3, a with parts 0..2 where the family
    allows them, m <= 2 for tau, every tournament and every index set."""
    low = 0 if family == "dyson" else 1
    for n in range(1, 4):
        for a in itertools.product(range(low, 3), repeat=n):
            if family == "tau":
                for m in range(3):
                    yield a, {"m": m}, kernel_table(family, n, m)
            elif family == "tournament":
                for t in all_tournaments(n):
                    yield a, {"tournament": t}, kernel_table(family, n)
            elif family == "bg":
                for size in range(n + 1):
                    for index_set in itertools.combinations(range(1, n + 1), size):
                        yield a, {"index_set": set(index_set)}, kernel_table(family, n)
            else:
                yield a, {}, kernel_table(family, n)


def x_coefficients(p: MPoly) -> dict:
    """{x-exponent vector: coefficient of that x-monomial} of p."""
    nx = p.table.nx
    groups = {}
    for vec, c in p.terms():
        x = vec[1:nx + 1]
        groups.setdefault(x, []).append((vec[:1] + (0,) * nx + vec[nx + 1:], c))
    return {x: MPoly(p.table, terms) for x, terms in groups.items()}


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_plain_list_matches_mpoly_binomials(family):
    # the plain list, read entry by entry, is the MPoly list in its order,
    # and a Kernel of it reads every coefficient of the MPoly product: the
    # CT and every x^v with v in {-2..2}^nx
    cases = reads = 0
    for a, params, table in differential_cases(family):
        plain = kernel_factors(family, a, **params)
        reference = mpoly_kernel_factors(family, a, table, **params)
        assert [f if isinstance(f, MPoly) else binomial_poly(f, table)
                for f in plain] == reference, (a, params)
        kernel = Kernel(plain, table)
        coeffs = x_coefficients(product(reference, table))
        zero = MPoly.zero(table)
        assert kernel.ct_x() == coeffs.get((0,) * table.nx, zero), (a, params)
        for v in itertools.product(range(-2, 3), repeat=table.nx):
            assert kernel.coeff_x(v) == coeffs.get(v, zero), (a, params, v)
            reads += 1
        cases += 1
    assert cases and reads


def test_named_builders_build_no_binomial_mpoly(monkeypatch):
    # a build of the dyson, tzero and t kernels constructs no MPoly at all;
    # bg-alternating's x_j/x_i - x_i/x_j factors show that the count sees
    # constructions through both the constructor and _make
    built = []
    make, init = MPoly._make.__func__, MPoly.__init__
    monkeypatch.setattr(MPoly, "_make", classmethod(
        lambda cls, *args: built.append("_make") or make(cls, *args)))
    monkeypatch.setattr(MPoly, "__init__", lambda self, *args: (
        built.append("__init__"), init(self, *args))[1])
    for a in ((2, 1, 2), (1, 2, 2, 1), (3, 1, 2)):
        for build in (dyson_kernel, tzero_kernel, tkernel):
            build(a)
            assert built == [], (build.__name__, a)
    bg_alternating_kernel((1, 2, 1))
    # three x_j/x_i - x_i/x_j factors, plus the product of the two that
    # start the first half of the five-factor list
    assert built.count("_make") == 4
    MPoly(table_x(1), [((0, 1), 1)])
    assert built[-1] == "__init__"


def test_fold_receives_only_two_term_steps(monkeypatch):
    # MPoly factors multiply into a half's start, never inside _fold: every
    # step it runs is a binomial (packed offset, q-power)
    steps = []
    fold = mpoly._fold
    monkeypatch.setattr(mpoly, "_fold", lambda part, b, acc: (
        steps.extend(part), fold(part, b, acc))[1])
    for family in ("dyson", "t"):
        D_vlambda((2, 0, 1), (2, 1), (1, 2, 1), family)
    scalar_product(key_poly((1, 0, 2)), keyhat_poly((2, 1, 0)))
    bg_alternating_kernel((1, 2, 1))
    rng = random.Random(5)
    table = table_kernel(2)
    p1, p2, p3 = (laurent_poly(table, rng) for _ in range(3))
    mul_coeff_x(p1, p2, (1, -1))
    Kernel([p1, p2, p3], table).ct_x()
    assert steps
    assert all(type(s) is tuple and len(s) == 2
               and all(type(e) is int for e in s) for s in steps), steps


@pytest.mark.parametrize("entry, table, why", [
    ((1, 1, 0), table_x(2), "u = v"),
    ((2, 2), table_kernel(2), "u = v"),
    ((0, 1, 0), table_x(2), "index 0"),
    ((1, 3, 0), table_x(2), "index above nx"),
    ((3, 1, 2), table_x(2), "index above nx"),
    ((1, 2, -1), table_x(2), "q-power below 0"),
    ((1, 2, 2 ** 31), table_x(2), "q-power at 2^31"),
    ((1, 2), table_x(2), "no t in the table"),
    ((2, 1), table_kernel(2), "t[2,1] is no t of the table"),
    ((1, 3), table_tau(2, 1), "t[1,3] is no t of the tau table"),
    ((1, 2, 0, 0), table_x(2), "four entries"),
    ((1,), table_x(2), "one entry"),
], ids=lambda x: x if isinstance(x, str) else None)
def test_malformed_binomial_raises_where_it_enters(entry, table, why):
    good = (1, 2, 0) if len(table.t_pairs) == 0 else (1, 2)
    Kernel([good], table)
    with pytest.raises(ValueError, match="binomial"):
        Kernel([good, entry], table)


def test_repeated_extraction_in_shuffled_order():
    # each kernel keeps its own packed halves; reads from the same kernel,
    # interleaved with other kernels on the same table, must each join
    # their own halves
    rng = random.Random(2024)
    table = kernel_table("dyson", 3)
    kernels, fulls = [], []
    for a in ((2, 1, 2), (1, 2, 0), (2, 2, 1)):
        kernels.append(Kernel(kernel_factors("dyson", a), table))
        fulls.append(product(mpoly_kernel_factors("dyson", a, table), table))
    reads = [(i, v) for i in range(len(kernels))
             for v in itertools.product(range(-3, 4), repeat=3) if sum(v) == 0]
    rng.shuffle(reads)
    nonzero = 0
    for i, v in reads:
        got = kernels[i].coeff_x(v)
        assert got == fulls[i].coeff_x(v), (i, v)
        nonzero += not got.is_zero
    assert nonzero > len(reads) // 2


@pytest.mark.parametrize("family", ["dyson", "t", "tzero"])
def test_schur_augmented_lists(family):
    # the factor lists of D_vlambda: kernel factors plus s_lambda(x^(a)),
    # for every lambda with 1 <= |lambda| <= 6 and at most n parts and every
    # v >= 0 with |v| <= |lambda| (only |v| = |lambda| can be nonzero).  A
    # zero part of a with lambda longer than the nonzero parts makes the
    # Schur factor's lowest q power positive
    reads = raised = 0
    for n in (2, 3):
        table = kernel_table(family, n)
        low = 0 if family == "dyson" else 1
        lams = sorted({tuple(p for p in lam if p)
                       for lam in partitions_upto(6, n) if 1 <= sum(lam) <= 6})
        for a in itertools.product(range(low, 3), repeat=n):
            for lam in lams:
                schur = schur_principal(lam, a, table)
                raised += min([vec[0] for vec, _ in schur.terms()],
                              default=0) > 0
                kernel = Kernel(kernel_factors(family, a) + [schur], table)
                full = product(mpoly_kernel_factors(family, a, table)
                               + [schur], table)
                m = sum(lam)
                for v in itertools.product(range(m + 1), repeat=n):
                    if sum(v) <= m:
                        assert kernel.coeff_x(v) == full.coeff_x(v), (a, lam, v)
                        reads += 1
    assert reads and (raised or family != "dyson")


@pytest.mark.parametrize("last", [-2, 2])
def test_digit_width_covers_the_l1_bound(last):
    # constant factors reach the bound prod ||f||_1 = 2^(F+1) exactly; with
    # last = 2 the product is the bound itself, which a digit width one bit
    # short reads back as its negative
    table = kernel_table("dyson", 2)
    two = MPoly.one(table) * 2
    for F in range(11):
        factors = [two] * F + [MPoly.one(table) * last]
        want = MPoly.one(table) * (last * 2 ** F)
        assert kernel_coeff(factors, table) == want, F
        assert Kernel(factors, table).expand() == want, F
        assert mul_coeff_x(product(factors[:-1], table), factors[-1],
                           (0, 0)) == want, F


def laurent_poly(table, rng, nterms=6):
    """A random polynomial whose q exponents run from -6 to 1."""
    terms = []
    for _ in range(nterms):
        vec = [rng.randrange(-2, 3) for _ in range(table.nvars)]
        vec[0] = rng.randrange(-6, 2)
        terms.append((tuple(vec), rng.randrange(-5, 6)))
    return MPoly(table, terms)


def test_negative_q_exponents():
    # each operand's lowest q power is factored out before packing, so
    # Laurent polynomials in q read back exactly
    rng = random.Random(31)
    negative = 0
    for table in (table_x(2), table_kernel(2),
                  VarTable(2, t_pairs=[(1, 2)], u_size=1)):
        for _ in range(15):
            p1, p2, p3 = (laurent_poly(table, rng) for _ in range(3))
            negative += min(vec[0] for vec, _ in p1.terms()) < 0
            full2, full3 = p1 * p2, p1 * p2 * p3
            kernel = Kernel([p1, p2, p3], table)
            for v in itertools.product(range(-3, 4), repeat=table.nx):
                assert mul_coeff_x(p1, p2, v) == full2.coeff_x(v), (table, v)
                assert kernel.coeff_x(v) == full3.coeff_x(v), (table, v)
            assert kernel.expand() == full3
    assert negative > 30


def s_expansion_ct(a, m):
    """CT_x of the tau kernel of (a, 1^m) times (1 - s[i,j] x_{n+j}/x_i)
    for every crossing pair, with s[i,j] carried by u[(i-1)m + j]: the
    full s-expansion that ``tau_kappa_coeff`` reads as an x-shift."""
    n = len(a)
    table = VarTable(n + m, t_pairs=table_kernel(n).t_pairs, u_size=n * m)
    s_binomials = [MPoly.one(table) - MPoly.monomial(table, {
        table.u_index((i - 1) * m + j): 1, table.x_index(n + j): 1,
        table.x_index(i): -1}) for i in range(1, n + 1) for j in range(1, m + 1)]
    factors = kernel_factors("tau", a, m=m) + s_binomials
    return Kernel(factors, table).ct_x()


@pytest.mark.parametrize("a", [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2),
                               (1, 1, 1), (2, 1, 2), (2, 2, 2)],
                         ids=lambda a: "".join(map(str, a)))
def test_kappa_read_matches_s_expansion(a):
    # every (0,1) matrix kappa with n rows and m <= 3 columns
    n = len(a)
    checked = nonzero = 0
    for m in range(4):
        ct = s_expansion_ct(a, m)
        for kappa in all_zero_one_matrices(n, m):
            ones = {i * m + j + 1: 1 for i in range(n) for j in range(m)
                    if kappa.rows[i][j]}
            want = ct.coeff_aux("u", ones)
            got = tau_kappa_coeff(kappa, a)
            assert got.t_coefficients() == want.t_coefficients(), (m, kappa)
            checked += 1
            nonzero += not got.is_zero
    assert checked == sum(2 ** (n * m) for m in range(4))
    assert nonzero


def test_degenerate_lists():
    table = kernel_table("dyson", 2)
    assert kernel_factors("dyson", (0, 0)) == []
    assert kernel_coeff([], table) == MPoly.one(table)
    assert kernel_coeff([], table, (1, -1)).is_zero
    one = kernel_factors("dyson", (1, 0))
    assert len(one) == 1
    reference = mpoly_kernel_factors("dyson", (1, 0), table)
    assert kernel_coeff(one, table, (1, -1)) == reference_coeff(reference, table, (1, -1))
    # a zero factor empties its half, so every read and the product are zero
    zero = [MPoly.zero(table)] + kernel_factors("dyson", (1, 1))
    assert kernel_coeff(zero, table).is_zero
    assert Kernel(zero, table).expand().is_zero
    assert mul_coeff_x(zero[0], binomial_poly(zero[1], table), (1, -1)).is_zero


def test_unknown_family_and_preconditions():
    with pytest.raises(ValueError):
        kernel_factors("no-such-kernel", (1, 1))
    with pytest.raises(ValueError):
        kernel_factors("dyson", (1, -1))
    with pytest.raises(ValueError):
        kernel_factors("tzero", (1, 0))


def test_only_tau_takes_an_m_and_it_is_nonnegative():
    with pytest.raises(ValueError, match="m = -1"):
        tau_kernel((1, 1), -1)
    # with m = 0 the tau kernel is the t kernel
    assert tau_kernel((1, 1), 0).ct_x() == tkernel((1, 1)).ct_x()
    for family in KERNEL_FAMILIES:
        if family != "tau":
            with pytest.raises(ValueError, match="only the tau kernel"):
                kernel_factors(family, (1, 1), m=1)
