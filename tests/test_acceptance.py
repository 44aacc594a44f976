"""Acceptance suite: one test per criterion, every comparison exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  All equalities are exact (integer polynomial
identity); there are no tolerances anywhere.
"""

import itertools
import json
import pathlib
import random
import time

from dysonct.cli import RunConfig, run, _lxz_vs
from dysonct.combi import (
    Permutation, ZeroOneMatrix, all_compositions, all_pairsets,
    all_zero_one_matrices, conjugate, ell_stats, is_strict,
    left_justified_from_rows, partitions_upto, reverse, sort_desc,
)
from dysonct.identities import (
    c_w, rhs_sills, rhs_strict, solve_column_relation, verify_kadell,
    verify_kadell_t, verify_lxz, verify_poincare, verify_poincare_equal,
    verify_prop_kappa, verify_prop_vnu, verify_prop_zero, verify_q_dyson,
    verify_sills, verify_strict, verify_tournament, verify_usum,
    verify_usum_k, verify_wtd,
)
from dysonct.interp import (
    closed_eval, dyson_coeff_interpolated, generic_coeff,
    sills_coeff_interpolated,
)
from dysonct.mpoly import MPoly, table_x, tzero_kernel
from dysonct.qpoly import IntPoly
from dysonct.symfun import (
    hook_content, key_poly, keyhat_poly, scalar_product, schur_onevar_value,
    schur_principal,
)
from reference import (
    all_tournaments, contributing_perms, default_grid, longest,
    pairset_serialize, pairset_to_perm, qbinom, reduction_check,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def holds(sides):
    """Whether a checker's two rendered sides agree."""
    lhs, rhs = sides
    return lhs == rhs


def _criterion(number, description, ok):
    line = f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {description}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_qdyson():
    start = time.monotonic()
    ok = True
    for n in range(1, 5):
        for total in range(9):
            for a in all_compositions(total, n):
                ok = ok and holds(verify_q_dyson(a))
    for a in itertools.product((0, 1), repeat=5):
        ok = ok and holds(verify_q_dyson(a))
    elapsed = time.monotonic() - start
    _criterion(1, f"q-Dyson, n<=4 sum<=8 and n=5 binary ({elapsed:.0f}s)",
               ok and elapsed < 120)


def test_criterion_02_poincare_t_expansion():
    start = time.monotonic()
    ok = True
    for a in itertools.product((1, 2, 3), repeat=3):
        ok = ok and holds(verify_poincare(a))
    for a in itertools.product((1, 2), repeat=4):
        ok = ok and holds(verify_poincare(a))
    elapsed = time.monotonic() - start
    _criterion(2, f"deformed kernel t-expansion incl. K<n vanishing ({elapsed:.0f}s)",
               ok and elapsed < 300)


def test_criterion_03_equal_parameter_collapse():
    ok = holds(verify_poincare_equal(3, 1)) and holds(verify_poincare_equal(3, 2))
    for n in range(1, 6):
        ok = ok and holds(verify_wtd(n))
    _criterion(3, "equal-parameter collapse and single-t Poincare product", ok)


def test_criterion_04_kadell():
    start = time.monotonic()
    ok = True
    for n in (2, 3):
        for a in itertools.product((0, 1, 2), repeat=n):
            for m in range(1, 5):
                for v in all_compositions(m, n):
                    ok = ok and holds(verify_kadell(v, a))
    # the zero-entry reduction identity backing those cases
    for a in [(0, 1, 2), (2, 0, 1), (1, 2, 0), (0, 0, 2)]:
        for m in range(1, 5):
            for v in all_compositions(m, 3):
                ok = ok and reduction_check(v, a, m)
    elapsed = time.monotonic() - start
    _criterion(4, f"Kadell orthogonality incl. zero multiplicities ({elapsed:.0f}s)",
               ok and elapsed < 300)


def test_criterion_05_kadell_t():
    ok = True
    for n in (2, 3):
        for a in itertools.product((1, 2), repeat=n):
            for m in (1, 2, 3):
                for k in range(1, n + 1):
                    ok = ok and holds(verify_kadell_t(k, m, a))
    _criterion(5, "symbolic-t Kadell refinement, per t-monomial", ok)


def test_criterion_06_strict_partitions():
    ok = True
    for n in (2, 3):
        lams = [lam for lam in itertools.product(range(5), repeat=n)
                if is_strict(lam)]
        for a in itertools.product((1, 2), repeat=n):
            for lam in lams:
                for w in Permutation.all_perms(n):
                    ok = ok and holds(verify_strict(lam, a, w.serialize()))
    # the longest element reproduces the explicit strict-partition product
    for n in (2, 3):
        w0 = longest(n)
        for a in itertools.product((1, 2), repeat=n):
            for lam in [lam for lam in itertools.product(range(5), repeat=n)
                        if is_strict(lam)]:
                tails = [sum(a[i:]) for i in range(n)]
                expected = IntPoly.const(1)
                for i in range(n):
                    expected = expected * qbinom(lam[i] + tails[i] - 1, a[i] - 1)
                shift = sum(a[j] for i in range(n) for j in range(i + 1, n))
                ok = ok and rhs_strict(lam, a, w0) == expected.shifted(shift)
    _criterion(6, "strict-partition coefficients, all w and longest element", ok)


def test_criterion_07_scalar_products():
    ok = True
    t = table_x(3)
    comps = list(itertools.product(range(3), repeat=3))
    keys = {v: key_poly(v) for v in comps}
    keyhats = {v: keyhat_poly(v) for v in comps}
    for v in comps:
        for w in comps:
            want = IntPoly.const(1 if v == reverse(w) else 0)
            ok = ok and scalar_product(keys[v], keyhats[w]) == want
    delta = (2, 1, 0)
    for lam in partitions_upto(4, 3):
        if sum(lam) > 4:
            continue
        s = schur_principal(lam, (1, 1, 1), t)
        for mu in partitions_upto(4, 3):
            if sum(mu) != sum(lam):
                continue
            want = IntPoly.const(1 if lam == mu else 0)
            got = scalar_product(s, MPoly.monomial(
                t, {t.x_index(i + 1): e for i, e in enumerate(mu) if e}))
            ok = ok and got == want
        for v in all_compositions(sum(lam), 3):
            got = scalar_product(s, MPoly.monomial(
                t, {t.x_index(i + 1): e for i, e in enumerate(v) if e}))
            u = tuple(x + d for x, d in zip(v, delta))
            ref = tuple(x + d for x, d in zip(lam, delta))
            if sorted(u, reverse=True) == list(ref) and len(set(u)) == 3:
                w = Permutation(tuple(ref.index(x) + 1 for x in u))
                want = IntPoly.const(w.sign())
            else:
                want = IntPoly()
            ok = ok and got == want
    _criterion(7, "key-polynomial duality and signed Schur-monomial rule", ok)


def test_criterion_08_interpolation():
    ok = True
    # 200 randomized generic-lemma instances
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randrange(1, 4)
        tab = table_x(n)
        d = tuple(rng.randrange(0, 4) for _ in range(n))
        terms = []
        for _ in range(rng.randrange(1, 7)):
            while True:
                vec = [rng.randrange(0, 4) for _ in range(n)]
                if sum(vec) <= sum(d):
                    break
            terms.append(((rng.randrange(0, 3),) + tuple(vec),
                          rng.randrange(-5, 6)))
        F = MPoly(tab, terms)
        ok = ok and generic_coeff(F, d, default_grid(d)) == F.coeff_x(
            d).to_intpoly()
    # bespoke grid vs brute force: n = 3 exhaustive
    for a in itertools.product((1, 2), repeat=3):
        kern = tzero_kernel(a)
        for S in all_pairsets(3):
            value = dyson_coeff_interpolated(a, S)
            d_in = [0] * 4
            e_out = [0] * 4
            for i, j in S:
                d_in[j] += 1
                e_out[i] += 1
            v = tuple(e_out[i] - d_in[i] for i in range(1, 4))
            brute = kern.coeff_x(v).to_intpoly() * ((-1) ** len(S))
            _, _, _, K = ell_stats(S, 3)
            ok = ok and value == brute and (K == 3) == (not value.is_zero)
    # n = 4: 30 sampled pair sets
    rng = random.Random(7)
    all_s = sorted(all_pairsets(4), key=sorted)
    for a in [(1, 2, 2, 1), (2, 1, 2, 2)]:
        kern = tzero_kernel(a)
        for S in sorted(rng.sample(all_s, 30), key=sorted):
            value = dyson_coeff_interpolated(a, S)
            d_in = [0] * 5
            e_out = [0] * 5
            for i, j in S:
                d_in[j] += 1
                e_out[i] += 1
            v = tuple(e_out[i] - d_in[i] for i in range(1, 5))
            brute = kern.coeff_x(v).to_intpoly() * ((-1) ** len(S))
            _, _, _, K = ell_stats(S, 4)
            ok = ok and value == brute and (K == 4) == (not value.is_zero)
    # closed evaluation identities on the full S_3 x {1,2,3}^3 grid
    for w in Permutation.all_perms(3):
        for a in itertools.product((1, 2, 3), repeat=3):
            ok = ok and closed_eval(a, w) == c_w(a, w)
    # the near-constant-term grid reproduces the closed form
    for n in (2, 3):
        for a in itertools.product((1, 2), repeat=n):
            for r in range(2, n + 1):
                value = sills_coeff_interpolated(a, r)
                ok = ok and value == rhs_sills(a, r, 1)
    _criterion(8, "interpolation: generic lemma, bespoke grids, closed eval", ok)


def test_criterion_09_tournaments():
    ok = True
    for n in (3, 4):
        for t in all_tournaments(n):
            for a in itertools.product((1, 2), repeat=n):
                lhs, rhs = verify_tournament(a, t.serialize())
                ok = ok and lhs == rhs
                if not t.is_transitive():
                    ok = ok and lhs == "0"
    _criterion(9, "tournament theorem: zero iff nontransitive", ok)


def test_criterion_10_matrix_propositions():
    start = time.monotonic()
    ok = True
    for a in itertools.product((1, 2), repeat=2):
        for kappa in all_zero_one_matrices(2, 2):
            for lam, w in solve_column_relation(kappa):
                ok = ok and holds(verify_prop_kappa(kappa.serialize(), lam, w.serialize(), a))
                if not kappa.is_left_justified():
                    ok = ok and holds(verify_prop_zero(kappa.serialize(), lam, a))
        for v in itertools.product((0, 1, 2), repeat=2):
            ok = ok and holds(verify_prop_vnu(v, a, 2))
    elapsed = time.monotonic() - start
    _criterion(10, f"(0,1)-matrix coefficient extractions ({elapsed:.0f}s)",
               ok and elapsed < 180)


def test_criterion_11_sills_lxz():
    ok = True
    for n in (2, 3, 4):
        for a in itertools.product(range(4), repeat=n):
            if sum(a) > 8:
                continue
            for r, s in itertools.permutations(range(1, n + 1), 2):
                ok = ok and holds(verify_sills(a, r, s))
            for v in _lxz_vs(n):
                ok = ok and holds(verify_lxz(v, a))
    _criterion(11, "near-constant-term coefficients (Sills and LXZ)", ok)


def test_criterion_12_usum():
    ok = True
    for n in range(1, 5):
        ok = ok and holds(verify_usum(n))
        for k in range(1, n + 1):
            ok = ok and holds(verify_usum_k(n, k))
    _criterion(12, "cleared-denominator u-sum identities, n <= 4", ok)


def test_criterion_13_combinatorial_lemmas():
    ok = True
    # ell-statistic lemma and the recording-set bijection, exhaustively
    for n in range(1, 5):
        recording = {w.recording_set(): w for w in Permutation.all_perms(n)}
        for S in all_pairsets(n):
            _, _, ell, K = ell_stats(S, n)
            ok = ok and K not in ell
            w = pairset_to_perm(S, n)
            ok = ok and (w == recording.get(S))
            ok = ok and ((w is not None) == (K == n))
            if w is not None:
                for j in range(1, n + 1):
                    ok = ok and ell[w(j) - 1] == n - j
    # golden worked examples, byte-exact
    w = Permutation((3, 4, 6, 1, 5, 7, 2))
    got = (f"w = {w.serialize()}\n"
           f"I(w) = {pairset_serialize(w.inversions())}\n"
           f"R(w) = {pairset_serialize(w.recording_set())}\n")
    ok = ok and got == (GOLDEN / "inversion_sets.txt").read_text()

    k1 = ZeroOneMatrix(((0, 1, 0, 0, 1), (1, 1, 0, 0, 0),
                        (1, 1, 0, 1, 1), (0, 0, 0, 1, 0)))
    k2 = left_justified_from_rows((2, 0, 3, 2), 5)
    conj = conjugate(sort_desc(k2.row_sums()))
    conj += (0,) * (5 - len(conj))
    got = (f"kappa = {k1.serialize()}\n"
           f"r(kappa) = {','.join(map(str, k1.row_sums()))}\n"
           f"c(kappa) = {','.join(map(str, k1.col_sums()))}\n"
           f"|kappa| = {sum(k1.row_sums())}\n"
           f"kappa = {k2.serialize()}\n"
           f"r(kappa) = {','.join(map(str, k2.row_sums()))}\n"
           f"c(kappa) = {','.join(map(str, k2.col_sums()))}\n"
           f"(r+)' = {','.join(map(str, conj))}\n")
    ok = ok and got == (GOLDEN / "matrices_42.txt").read_text()

    perms = contributing_perms((0, 1, 3, 3), 3)
    got = "lam_bar = 0,1,3,3\nm = 3\ncontributing = 2\n" + "".join(
        p.serialize() + "\n" for p in perms)
    ok = ok and got == (GOLDEN / "beyond_kadell.txt").read_text()
    _criterion(13, "K-statistic lemmas exhaustive; worked examples byte-exact", ok)


def test_criterion_14_hook_content():
    ok = True
    for a in range(5):
        for lam in partitions_upto(5, 5):
            if sum(lam) > 5:
                continue
            ok = ok and schur_onevar_value(lam, a) == hook_content(lam, a)
    _criterion(14, "one-variable Schur equals hook-content product", ok)


def test_criterion_15_harness_determinism():
    ok = True
    strip = lambda r: json.dumps({k: v for k, v in r.items() if k != "millis"},
                                 sort_keys=True)
    for n in range(1, 5):
        cfg1 = RunConfig("q-dyson", n=n, a_max=8, sum_max=8, jobs=1)
        cfg4 = RunConfig("q-dyson", n=n, a_max=8, sum_max=8, jobs=4)
        code1, seq = run(cfg1)
        code4, par = run(cfg4)
        ok = ok and code1 == code4 == 0
        ok = ok and list(map(strip, seq)) == list(map(strip, par))
    _criterion(15, "identical q-Dyson reports at parallelism 1 and 4", ok)
