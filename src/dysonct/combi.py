"""Permutations, compositions, pair sets, tournaments and (0,1)-matrices.

Everything here is an immutable value.  Permutations use 1-based one-line
notation; compositions and partitions are plain integer tuples of a fixed
length (so (2, 1, 0) and (2, 1) are distinct values on purpose); a pair set
is a frozenset of strictly upper-triangular index pairs (i, j) with i < j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class Permutation:
    """A permutation of {1..n} in one-line notation."""

    __slots__ = ("word",)

    def __init__(self, word):
        word = tuple(word)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation of 1..{len(word)}: {word}")
        self.word = word

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def all_perms(cls, n: int):
        for word in itertools.permutations(range(1, n + 1)):
            yield cls(word)

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        return self.word[i - 1]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return f"Permutation({self.word})"

    def serialize(self) -> str:
        return ",".join(str(v) for v in self.word)

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """The inverse of ``serialize``; "" is the empty permutation."""
        return cls(int(v) for v in text.split(",")) if text else cls(())

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.word, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def inversions(self) -> frozenset:
        """I(w) = {(i, j) : i < j, w(i) > w(j)}."""
        w = self.word
        return frozenset((i + 1, j + 1)
                         for i in range(self.n) for j in range(i + 1, self.n)
                         if w[i] > w[j])

    def recording_set(self) -> frozenset:
        """R(w) = I(w^{-1}): the pairs of values out of natural order."""
        return self.inverse().inversions()

    def length(self) -> int:
        return len(self.inversions())

    def sign(self) -> int:
        return -1 if self.length() % 2 else 1

    def act(self, seq):
        """w(b) = (b_{w(1)}, ..., b_{w(n)})."""
        seq = tuple(seq)
        return tuple(seq[v - 1] for v in self.word)


# -- compositions and partitions ---------------------------------------------

def weight(v) -> int:
    return sum(v)


def partial_sums(v) -> tuple:
    """(sigma_1, ..., sigma_n) with sigma_i = v_1 + ... + v_i."""
    out = []
    s = 0
    for x in v:
        s += x
        out.append(s)
    return tuple(out)


def sort_desc(v) -> tuple:
    """v^+ : the weakly decreasing reordering."""
    return tuple(sorted(v, reverse=True))


def reverse(v) -> tuple:
    return tuple(reversed(v))


def is_partition(v) -> bool:
    v = tuple(v)
    return all(x >= 0 for x in v) and all(v[i] >= v[i + 1] for i in range(len(v) - 1))


def is_strict(v) -> bool:
    """Strictly decreasing partition (the last part may be 0)."""
    v = tuple(v)
    return is_partition(v) and all(v[i] > v[i + 1] for i in range(len(v) - 1))


def conjugate(lam) -> tuple:
    """Conjugate partition, read off the transposed diagram."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"conjugate needs a partition, got {lam}")
    width = lam[0] if lam else 0
    return tuple(sum(1 for part in lam if part > c) for c in range(width))


def staircase(m: int) -> tuple:
    """delta_m = (m-1, ..., 1, 0)."""
    return tuple(range(m - 1, -1, -1))


def all_compositions(total: int, length: int):
    """All length-`length` compositions of `total`, lexicographic."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in all_compositions(total - first, length - 1):
            yield (first,) + rest


def partitions_upto(max_part: int, length: int):
    """Partitions with at most `length` parts, parts <= max_part."""
    def rec(bound, left):
        if left == 0:
            yield ()
            return
        for first in range(bound, -1, -1):
            for rest in rec(first, left - 1):
                yield (first,) + rest
    yield from rec(max_part, length)


# -- pair sets and the K statistic -------------------------------------------

def all_pairs(n: int) -> frozenset:
    return frozenset((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


def all_pairsets(n: int):
    pairs = sorted(all_pairs(n))
    for bits in range(1 << len(pairs)):
        yield frozenset(p for k, p in enumerate(pairs) if bits >> k & 1)


def ell_stats(S, n: int):
    """Return (d, e, ell, K) for a pair set S on {1..n}.

    d_j counts pairs entering j, e_i pairs leaving i,
    ell_i = (n - i) + d_i - e_i, and K is the largest k such that each of
    0, ..., k-1 occurs exactly once among the ell_i.
    """
    if len(set(S)) != len(S):
        raise ValueError(f"repeated pair in {sorted(S)}")
    d = [0] * (n + 1)
    e = [0] * (n + 1)
    for i, j in S:
        if not (1 <= i < j <= n):
            raise ValueError(f"pair out of range: {(i, j)}")
        d[j] += 1
        e[i] += 1
    ell = tuple((n - i) + d[i] - e[i] for i in range(1, n + 1))
    counts = [0] * (n + 1)
    for v in ell:  # distinct pairs: d_i <= i - 1, e_i <= n - i, so 0 <= v < n
        counts[v] += 1
    K = 0
    while K < n and counts[K] == 1:
        K += 1
    return tuple(d[1:]), tuple(e[1:]), ell, K


# -- tournaments ---------------------------------------------------------------

class Tournament:
    """An orientation of the complete graph on {1..n}.

    (i, j) in edges means i beats j; exactly one of (i, j), (j, i) is
    present for every pair.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges):
        edges = frozenset(edges)
        for i, j in edges:
            if i == j or not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"bad edge {(i, j)}")
        for i, j in all_pairs(n):
            if ((i, j) in edges) == ((j, i) in edges):
                raise ValueError(f"pair {{{i},{j}}} needs exactly one orientation")
        self.n = n
        self.edges = edges

    @classmethod
    def from_pairset(cls, S, n: int) -> "Tournament":
        """Natural order 1->2->...->n with the pairs in S reversed."""
        edges = set()
        for i, j in all_pairs(n):
            edges.add((j, i) if (i, j) in S else (i, j))
        return cls(n, edges)

    def _out_degrees(self) -> dict:
        outdeg = {v: 0 for v in range(1, self.n + 1)}
        for i, _ in self.edges:
            outdeg[i] += 1
        return outdeg

    def is_transitive(self) -> bool:
        """Read off the score sequence: a tournament is transitive exactly
        when its out-degrees are 0, 1, ..., n - 1."""
        return sorted(self._out_degrees().values()) == list(range(self.n))

    def winner(self):
        """Ranking of players from best to worst, if transitive, else None."""
        if not self.is_transitive():
            return None
        outdeg = self._out_degrees()
        return Permutation(sorted(outdeg, key=lambda v: -outdeg[v]))

    def __eq__(self, other):
        return (isinstance(other, Tournament)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def serialize(self) -> str:
        """The edges as "i>j" words, sorted and space-separated."""
        return " ".join(f"{i}>{j}" for i, j in sorted(self.edges))

    @classmethod
    def parse(cls, n: int, text: str) -> "Tournament":
        """Inverse of ``serialize``; commas may also separate the words, and
        a word may not repeat an edge."""
        edges = set()
        for word in text.replace(",", " ").split():
            i, j = word.split(">")
            edge = (int(i), int(j))
            if edge in edges:
                raise ValueError(f"repeated edge {word}")
            edges.add(edge)
        return cls(n, edges)

    def __repr__(self):
        return f"Tournament({self.n}: {self.serialize()})"


# -- (0,1)-matrices -------------------------------------------------------------

@dataclass(frozen=True)
class ZeroOneMatrix:
    rows: tuple  # tuple of row tuples over {0, 1}

    def __post_init__(self):
        if any(x not in (0, 1) for row in self.rows for x in row):
            raise ValueError("entries must be 0 or 1")
        if len({len(row) for row in self.rows}) > 1:
            raise ValueError("ragged rows")

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def row_sums(self) -> tuple:
        return tuple(sum(row) for row in self.rows)

    def col_sums(self) -> tuple:
        n, m = self.shape
        return tuple(sum(self.rows[i][j] for i in range(n)) for j in range(m))

    def is_left_justified(self) -> bool:
        """In every row all ones precede all zeros."""
        for row in self.rows:
            seen_zero = False
            for x in row:
                if x == 0:
                    seen_zero = True
                elif seen_zero:
                    return False
        return True

    def serialize(self) -> str:
        return "/".join("".join(str(x) for x in row) for row in self.rows)

    @classmethod
    def parse(cls, text: str) -> "ZeroOneMatrix":
        return cls(tuple(tuple(int(ch) for ch in row) for row in text.split("/")))


def left_justified_from_rows(r, m: int) -> ZeroOneMatrix:
    if any(not 0 <= x <= m for x in r):
        raise ValueError(f"row sums must lie in 0..{m}")
    return ZeroOneMatrix(tuple(tuple(1 if j < x else 0 for j in range(m))
                               for x in r))


def all_zero_one_matrices(n: int, m: int):
    for bits in itertools.product((0, 1), repeat=n * m):
        yield ZeroOneMatrix(tuple(tuple(bits[i * m + j] for j in range(m))
                                  for i in range(n)))
