"""Output checks for the benchmark, written without importing dysonct.

Every record that ``dysonct.cli.run`` returns is checked twice: the
program's own verdict (``status == "ok"`` and ``equal``, with the two
rendered sides identical) and an independent value computed here from
``math`` and ``fractions`` only.  Each identity is specialised at q = 1,
where it reduces to a classical multinomial statement; the q-Dyson
records are also compared coefficient by coefficient with a q-multinomial
built by the q-Pascal recurrence on integer lists.

Polynomials are read back from the program's text rendering, e.g.
``1 - q - 2*q^3`` or ``-u[1]*u[2]^2 + t[1,2]``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction


class CheckError(ValueError):
    """An output disagrees with its independently computed value."""


# -- reading rendered polynomials --------------------------------------------

def parse_terms(text: str) -> list:
    """Rendered polynomial -> [(coefficient, {variable: exponent})]."""
    text = text.strip()
    if text == "0":
        return []
    tokens = text.split(" ")
    signs = [-1 if tokens[0].startswith("-") else 1]
    bodies = [tokens[0].lstrip("-")]
    if len(tokens) % 2 == 0:
        raise CheckError(f"malformed polynomial {text[:80]!r}")
    for op, body in zip(tokens[1::2], tokens[2::2]):
        if op not in ("+", "-"):
            raise CheckError(f"bad separator {op!r} in {text[:80]!r}")
        signs.append(1 if op == "+" else -1)
        bodies.append(body)
    out = []
    for sign, body in zip(signs, bodies):
        coeff = 1
        exps: dict[str, int] = {}
        for factor in body.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            name, _, exp = factor.partition("^")
            if not name:
                raise CheckError(f"bad factor {factor!r} in {text[:80]!r}")
            exps[name] = exps.get(name, 0) + (int(exp) if exp else 1)
        out.append((sign * coeff, exps))
    return out


def q_poly(text: str) -> dict:
    """Rendered polynomial in q alone -> {exponent: coefficient}."""
    out: dict[int, int] = {}
    for coeff, exps in parse_terms(text):
        if set(exps) - {"q"}:
            raise CheckError(f"not a polynomial in q: {text[:80]!r}")
        e = exps.get("q", 0)
        out[e] = out.get(e, 0) + coeff
    return {e: c for e, c in out.items() if c}


def value_at(text: str, point: dict) -> Fraction:
    """Evaluate a rendered polynomial; ``point`` maps variable names to
    values, and a name ending in ``[`` matches every variable of that
    family (``{"u[": 2}`` sets every u[i])."""
    total = Fraction(0)
    for coeff, exps in parse_terms(text):
        term = Fraction(coeff)
        for name, e in exps.items():
            family = name.split("[")[0] + "[" if "[" in name else None
            value = point.get(name, point.get(family))
            if value is None:
                raise CheckError(f"no value for {name} in {text[:80]!r}")
            term *= Fraction(value) ** e
        total += term
    return total


# -- independent values ---------------------------------------------------------

def multinomial(a) -> int:
    """M(a) = |a|! / prod a_i!."""
    out = math.factorial(sum(a))
    for x in a:
        out //= math.factorial(x)
    return out


@functools.cache
def _qbinom_list(n: int, k: int) -> tuple:
    """Coefficients of the Gaussian binomial [n, k]_q, by the q-Pascal
    recurrence [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k < 0 or k > n:
        return ()
    if k == 0 or k == n:
        return (1,)
    left = _qbinom_list(n - 1, k - 1)
    right = _qbinom_list(n - 1, k)
    out = [0] * max(len(left), len(right) + k)
    for e, c in enumerate(left):
        out[e] += c
    for e, c in enumerate(right):
        out[e + k] += c
    return tuple(out)


def qmultinomial(a) -> dict:
    """{exponent: coefficient} of the q-multinomial of a composition, as the
    product of Gaussian binomials of its partial sums."""
    prod = [1]
    sigma = 0
    for x in a:
        sigma += x
        factor = _qbinom_list(sigma, x)
        out = [0] * (len(prod) + len(factor) - 1)
        for i, c in enumerate(prod):
            for j, d in enumerate(factor):
                out[i + j] += c * d
        prod = out
    return {e: c for e, c in enumerate(prod) if c}


def recording_set(word) -> frozenset:
    """R(w): pairs of values i < j with j written before i in w."""
    return frozenset((word[q], word[p])
                     for p in range(len(word)) for q in range(p + 1, len(word))
                     if word[p] > word[q])


@functools.cache
def _recording_sets(n: int) -> dict:
    return {recording_set(w): w for w in itertools.permutations(range(1, n + 1))}


def closed_weight_at_1(a, word) -> Fraction:
    """c_w(a) at q = 1: M(a) * prod a_i / prod_i sigma_i(w)."""
    out = Fraction(multinomial(a) * math.prod(a))
    sigma = 0
    for v in word:
        sigma += a[v - 1]
        out /= sigma
    return out


def sills_at_1(a, s: int) -> Fraction:
    total = sum(a)
    return Fraction(-a[s - 1], 1 + total - a[s - 1]) * multinomial(a)


def lxz_at_1(a, v) -> Fraction:
    total = sum(a)
    index_set = [i for i, x in enumerate(v, start=1) if x == 1]
    acc = Fraction(0)
    for size in range(len(index_set) + 1):
        for J in itertools.combinations(index_set, size):
            aJ = sum(a[j - 1] for j in J)
            if aJ:
                acc += Fraction((-1) ** size * aJ, 1 + total - aJ)
    return acc * multinomial(a)


def kadell_t_at_1(a, k: int, m: int) -> Fraction:
    total = sum(a)
    out = Fraction(multinomial(a) * a[k - 1], total)
    for i in range(m):
        out *= Fraction(total + i, total - a[k - 1] + 1 + i)
    return out


def usum_at_2(n: int, k: int) -> int:
    """Both u-sum sides at every u_i = 2; k = 0 is the full identity."""
    sizes = [len(A) for r in range(1, n + 1)
             for A in itertools.combinations(range(n), r)]
    if k == 0:
        return math.prod(1 - 2 ** s for s in sizes)
    return -2 ** (n - k) * math.prod(1 - 2 ** s for s in sizes if s != n)


# -- the per-record check ---------------------------------------------------------

def _sum_t_coefficients_at_1(text: str) -> Fraction:
    return sum((value_at(poly, {"q": 1}) for poly in json.loads(text).values()),
               Fraction(0))


def expected_at_1(record) -> Fraction:
    """The identity's value at q = 1 (u_i = 2 for the u-sums)."""
    ident = record["identity"]
    p = record["params"]
    if ident in ("q-dyson", "poincare"):
        return Fraction(multinomial(p["a"]))
    if ident == "sills":
        return sills_at_1(p["a"], p["s"])
    if ident == "lxz":
        return lxz_at_1(p["a"], p["v"])
    if ident == "kadell-t":
        return kadell_t_at_1(p["a"], p["k"], p["m"])
    if ident == "interp-closed":
        word = tuple(int(x) for x in p["w"].split(","))
        return closed_weight_at_1(p["a"], word)
    if ident == "interp-dyson":
        S = frozenset(tuple(pair) for pair in p["S"])
        word = _recording_sets(len(p["a"])).get(S)
        return Fraction(0) if word is None else closed_weight_at_1(p["a"], word)
    if ident == "interp-sills":
        return sills_at_1(p["a"], 1)
    if ident in ("usum", "usum-k"):
        return Fraction(usum_at_2(p["n"], p.get("k", 0)))
    raise CheckError(f"no independent check for identity {ident!r}")


def observed_at_1(record) -> Fraction:
    ident = record["identity"]
    if ident in ("poincare", "kadell-t"):
        return _sum_t_coefficients_at_1(record["lhs"])
    if ident in ("usum", "usum-k"):
        return value_at(record["lhs"], {"q": 1, "u[": 2})
    return value_at(record["lhs"], {"q": 1})


def check_record(record) -> None:
    """Raise CheckError unless the record is an agreeing report whose value
    matches the independent computation."""
    if record.get("status") != "ok":
        raise CheckError(f"status {record.get('status')!r}")
    if record["equal"] is not True or record["lhs"] != record["rhs"]:
        raise CheckError("the two sides disagree")
    got = observed_at_1(record)
    want = expected_at_1(record)
    if got != want:
        raise CheckError(f"value at q = 1 is {got}, expected {want}")
    if record["identity"] == "q-dyson":
        if q_poly(record["lhs"]) != qmultinomial(record["params"]["a"]):
            raise CheckError("polynomial differs from the q-multinomial")


# -- grid sizes and the known fault -----------------------------------------------

def _tuple_count(n: int, lo: int, a_max: int, sum_max) -> int:
    return sum(1 for a in itertools.product(range(lo, a_max + 1), repeat=n)
               if sum_max is None or sum(a) <= sum_max)


def _lxz_count(n: int) -> int:
    """Vectors v with v_1 = 1, entries in -n..1 and |v| = 0."""
    return sum(1 for tail in itertools.product(range(-n, 2), repeat=n - 1)
               if 1 + sum(tail) == 0)


def expected_case_count(config: dict) -> int:
    """Number of cases ``run`` must report for a RunConfig keyword set."""
    ident = config["identity"]
    n = config.get("n", 3)
    a_max = config.get("a_max", 2)
    m_max = config.get("m_max", 2)
    sum_max = config.get("sum_max")
    nonneg = _tuple_count(n, 0, a_max, sum_max)
    positive = _tuple_count(n, 1, a_max, sum_max)
    pairsets = 2 ** (n * (n - 1) // 2)
    counts = {
        "q-dyson": lambda: nonneg,
        "sills": lambda: nonneg * n * (n - 1),
        "lxz": lambda: nonneg * _lxz_count(n),
        "poincare": lambda: positive,
        "kadell-t": lambda: positive * m_max * n,
        "interp-dyson": lambda: positive * (pairsets if n <= 3 else min(30, pairsets)),
        "interp-closed": lambda: positive * math.factorial(n),
        "interp-sills": lambda: positive * (n - 1),
        "usum": lambda: n + n * (n + 1) // 2,
    }
    return counts[ident]()


def known_fault(config: dict, record) -> bool:
    """The budget-mode pipe deadlock: ``_run_with_budget`` joins a worker
    before it reads the worker's result pipe, so a usum n = 4 report (up to
    80 KB, more than a pipe holds) blocks the worker until the budget kills
    it, and the case is reported as a timeout."""
    return (config.get("budget_ms") is not None
            and record.get("status") == "timeout"
            and record["identity"] == "usum" and record["params"]["n"] == 4)
