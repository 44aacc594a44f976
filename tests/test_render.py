"""The shared text form against the renderers it replaced.

``IntPoly.__str__``, ``MPoly.__str__`` and the t-monomial keys of
``identities._t_report`` each wrote signs, magnitudes, ``*`` and
``name^e`` themselves.  Those three renderers are kept here, as they
were, as the reference for ``qpoly.render_terms``/``render_power``/
``render_monomial`` on random Laurent polynomials over every variable
family.
"""

import json
import random

import pytest

from dysonct.identities import _t_report
from dysonct.mpoly import MPoly, VarTable, table_kernel, table_u, table_x
from dysonct.qpoly import (
    IntPoly, render_monomial, render_power, render_terms,
)


# -- the reference renderers ------------------------------------------------------

def intpoly_reference(p: IntPoly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for e, c in p.items():
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "q" if e == 1 else f"q^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def mpoly_reference(p: MPoly) -> str:
    if p.is_zero:
        return "0"
    names = p.table.names
    parts = []
    for vec, c in p.terms():
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


def t_report_reference(p: MPoly) -> str:
    body = {}
    for texp, poly in sorted(p.t_coefficients().items()):
        name = "*".join(f"t[{i},{j}]^{e}" if e != 1 else f"t[{i},{j}]"
                        for (i, j), e in zip(p.table.t_pairs, texp) if e) or "1"
        body[name] = intpoly_reference(poly)
    return json.dumps(body, sort_keys=True)


# -- random Laurent polynomials ---------------------------------------------------------

BIG = 12345678901234567890


def _coefficient(rng):
    """Mostly +-1, often a small magnitude above 1, sometimes a bignum."""
    return rng.choice((1, -1, 1, -1, 2, -2, 3, -7, 10, -11, BIG, -BIG))


def _exponent(rng):
    """Mostly 0 or 1, also negative and larger exponents."""
    return rng.choice((0, 0, 0, 1, 1, -1, 2, -2, 3, 11, -10))


def _random_mpoly(rng, table, live):
    """Up to six terms over the variable indices ``live``."""
    terms = []
    for _ in range(rng.randrange(7)):
        vec = [0] * table.nvars
        for k in live:
            vec[k] = _exponent(rng)
        terms.append((tuple(vec), _coefficient(rng)))
    return MPoly(table, terms)


FAMILY_TABLES = {
    "q": VarTable(0),
    "x": table_x(3),
    "t": table_kernel(3),
    "u": table_u(3),
    "qxtu": VarTable(3, t_pairs=((1, 2), (2, 3)), u_size=2),
}


# -- the shared renderer matches them ---------------------------------------------------

class TestAgainstReferences:
    def test_intpoly_on_random_laurent_polynomials(self):
        rng = random.Random(20)
        for _ in range(2000):
            p = IntPoly({_exponent(rng) * rng.choice((1, 3)): _coefficient(rng)
                         for _ in range(rng.randrange(7))})
            assert str(p) == intpoly_reference(p), p.items()

    @pytest.mark.parametrize("family", sorted(FAMILY_TABLES))
    def test_mpoly_on_random_laurent_polynomials(self, family):
        rng = random.Random(family)
        table = FAMILY_TABLES[family]
        for _ in range(500):
            p = _random_mpoly(rng, table, range(table.nvars))
            assert str(p) == mpoly_reference(p), list(p.terms())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_t_report_on_random_q_t_polynomials(self, n):
        rng = random.Random(n)
        table = table_kernel(n)
        q_and_t = [0] + [table.t_index(i, j) for i, j in table.t_pairs]
        for _ in range(300):
            p = _random_mpoly(rng, table, q_and_t)
            assert _t_report(p) == t_report_reference(p), list(p.terms())

    def test_edge_cases(self):
        for coeffs in ({}, {0: 1}, {0: -1}, {0: 5}, {0: -BIG}, {1: 1},
                       {1: -1}, {-1: 1}, {-1: -2, 0: 3}, {2: 1, 0: -1},
                       {-3: BIG, 3: -BIG}):
            p = IntPoly(coeffs)
            assert str(p) == intpoly_reference(p)
        for table in FAMILY_TABLES.values():
            one = MPoly.one(table)
            for p in (MPoly.zero(table), one, -one, one * 7, one * -7):
                assert str(p) == mpoly_reference(p)
        # t-monomial keys with exponent 1, above 1, and the empty key "1"
        table = table_kernel(3)
        t12, t23 = table.t_index(1, 2), table.t_index(2, 3)
        p = (-MPoly.monomial(table, {0: 2}) + MPoly.one(table) * 3
             + MPoly.monomial(table, {t12: 1, 0: -1})
             - MPoly.monomial(table, {t12: 1, t23: 2}) * BIG)
        report = _t_report(p)
        assert report == t_report_reference(p)
        assert set(json.loads(report)) == {"1", "t[1,2]", "t[1,2]*t[2,3]^2"}
        assert _t_report(MPoly.zero(table)) == t_report_reference(
            MPoly.zero(table)) == "{}"


class TestHelpers:
    def test_render_power(self):
        assert render_power("x1", 1) == "x1"
        assert render_power("t[1,2]", 3) == "t[1,2]^3"
        assert render_power("q", -1) == "q^-1"

    def test_render_monomial_skips_exponent_zero(self):
        assert render_monomial([("x1", 0), ("x2", 0)]) == ""
        assert render_monomial([("q", 2), ("x1", 0), ("u[1]", 1)]) == "q^2*u[1]"

    def test_render_terms(self):
        assert render_terms([]) == "0"
        assert render_terms([(1, "")]) == "1"
        assert render_terms([(-1, "x1")]) == "-x1"
        assert render_terms([(1, "x1")]) == "x1"
        assert render_terms([(-3, ""), (1, "q"), (-2, "x1*x2^2")]) == (
            "-3 + q - 2*x1*x2^2")
