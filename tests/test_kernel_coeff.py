"""Differential test: meet-in-the-middle coefficients against full expansion.

A ``Kernel`` expands two halves of a factor list and joins them on the
x-block.  The reference here multiplies every factor out with ``product``
and then extracts with ``coeff_x``; it is kept only in this test.
"""

import itertools
import random

import pytest

from dysonct.combi import all_tournaments
from dysonct.mpoly import (
    KERNEL_FAMILIES, Kernel, MPoly, kernel_factors, product, table_kernel,
    table_tau, table_x,
)
from dysonct.symfun import schur_principal


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
    """(a, params, table) on small grids: n <= 3 and entries <= 2."""
    low = 0 if family == "dyson" else 1
    for n in (1, 2, 3):
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
        factors = kernel_factors(family, a, table, **params)
        full = product(factors, table)
        for v in near_ct_vectors(table.nx):
            assert kernel_coeff(factors, table, v) == full.coeff_x(v), (a, params, v)
            checked += 1
        assert kernel_coeff(factors, table) == full.ct_x()
    assert checked


def test_repeated_extraction_in_shuffled_order():
    # each half memoises its x-bucket index on the first extraction; later
    # ones, from the same kernel or interleaved with other kernels on the
    # same table, must read the right index
    rng = random.Random(2024)
    table = kernel_table("dyson", 3)
    kernels, fulls = [], []
    for a in ((2, 1, 2), (1, 2, 0), (2, 2, 1)):
        factors = kernel_factors("dyson", a, table)
        kernels.append(Kernel(factors, table))
        fulls.append(product(factors, table))
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
    # the factor lists of D_vlambda: kernel factors plus s_lambda(x^(a))
    for n in (2, 3):
        table = kernel_table(family, n)
        low = 0 if family == "dyson" else 1
        for a in itertools.product(range(low, 3), repeat=n):
            for lam in ((1,), (2,), (1, 1), (2, 1)):
                factors = kernel_factors(family, a, table)
                factors.append(schur_principal(lam, a, table))
                for m in range(sum(lam) + 1):
                    for v in itertools.product(range(m + 1), repeat=n):
                        if sum(v) != m:
                            continue
                        assert (kernel_coeff(factors, table, v)
                                == reference_coeff(factors, table, v)), (a, lam, v)


def test_symbolic_s_family_is_kept():
    # the tau kernel's coefficient still carries its s variables
    table = kernel_table("tau", 2, 2)
    factors = kernel_factors("tau", (1, 1), table, m=2)
    got = kernel_coeff(factors, table)
    assert got == reference_coeff(factors, table, (0,) * 4)
    s_exps = [vec[table.s_index(1, 1)] for vec, _ in got.terms()]
    assert any(s_exps)


def test_degenerate_lists():
    table = kernel_table("dyson", 2)
    assert kernel_factors("dyson", (0, 0), table) == []
    assert kernel_coeff([], table) == MPoly.one(table)
    assert kernel_coeff([], table, (1, -1)).is_zero
    one = kernel_factors("dyson", (1, 0), table)
    assert len(one) == 1
    assert kernel_coeff(one, table, (1, -1)) == reference_coeff(one, table, (1, -1))


def test_unknown_family_and_preconditions():
    table = kernel_table("dyson", 2)
    with pytest.raises(ValueError):
        kernel_factors("no-such-kernel", (1, 1), table)
    with pytest.raises(ValueError):
        kernel_factors("dyson", (1, -1), table)
    with pytest.raises(ValueError):
        kernel_factors("tzero", (1, 0), table)
