import itertools
import math
import random

import pytest

from dysonct.combi import (
    Permutation, Tournament, ZeroOneMatrix, all_compositions, all_pairs,
    all_pairsets, conjugate, ell_stats, is_partition, is_strict,
    left_justified_from_rows, partial_sums, reverse, sort_desc, staircase,
)
from reference import (
    all_tournaments, is_transitive_pairwise, natural_tournament, pairset_to_perm,
)


class TestPermutation:
    def test_worked_example(self):
        w = Permutation((3, 4, 6, 1, 5, 7, 2))
        assert w.inversions() == frozenset(
            {(1, 4), (1, 7), (2, 4), (2, 7), (3, 4), (3, 5), (3, 7), (5, 7), (6, 7)})
        assert w.recording_set() == frozenset(
            {(1, 3), (1, 4), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (5, 6)})

    def test_identity(self):
        w = Permutation.identity(5)
        assert w.inversions() == frozenset()
        assert w.recording_set() == frozenset()
        assert w.length() == 0

    def test_small_recording_set(self):
        # w = (2,3,1) has inverse (3,1,2), whose inversions are (1,2),(1,3)
        assert Permutation((2, 3, 1)).recording_set() == frozenset({(1, 2), (1, 3)})

    def test_lengths_agree(self):
        for n in range(1, 6):
            for w in Permutation.all_perms(n):
                assert len(w.recording_set()) == w.length() == len(w.inversions())

    def test_serialize_roundtrip(self):
        w = Permutation((3, 1, 2))
        assert Permutation.parse(w.serialize()) == w

    def test_serialize_roundtrip_every_small_n(self):
        # n = 0 serializes to "", the one column permutation of prop-kappa
        # at m = 0
        for n in range(4):
            for w in Permutation.all_perms(n):
                assert Permutation.parse(w.serialize()) == w
        assert Permutation.parse("") == Permutation(())

    def test_act(self):
        w = Permutation((2, 3, 1))
        assert w.act(("a", "b", "c")) == ("b", "c", "a")


class TestCompositions:
    def test_worked_example(self):
        v = (1, 0, 4, 1, 0, 3)
        assert sort_desc(v) == (4, 3, 1, 1, 0, 0)
        assert reverse(v) == (3, 0, 1, 4, 0, 1)
        assert partial_sums(v) == (1, 1, 5, 6, 6, 9)

    def test_conjugate(self):
        assert conjugate((3, 2, 2, 0)) == (3, 3, 1)
        assert conjugate(()) == ()
        # involution on partitions without trailing zeros
        for lam in [(4, 2, 1), (3, 3), (1, 1, 1, 1)]:
            assert conjugate(conjugate(lam)) == lam

    def test_dominant_is_fixed_by_sort(self):
        for v in all_compositions(5, 3):
            if is_partition(v):
                assert sort_desc(v) == v

    def test_strictness(self):
        assert is_strict((4, 2, 0))
        assert not is_strict((4, 2, 2))
        assert is_strict((3,))

    def test_staircase(self):
        assert staircase(4) == (3, 2, 1, 0)
        assert staircase(1) == (0,)


class TestEllStats:
    def test_n2_cases(self):
        d, e, ell, K = ell_stats(frozenset(), 2)
        assert ell == (1, 0) and K == 2
        d, e, ell, K = ell_stats(frozenset({(1, 2)}), 2)
        assert ell == (0, 1) and K == 2

    def test_n3_single_pair(self):
        # S = {(1,2)} = R((2,1,3)): each of 0,1,2 occurs once among ell
        d, e, ell, K = ell_stats(frozenset({(1, 2)}), 3)
        assert d == (0, 1, 0)
        assert e == (1, 0, 0)
        assert ell == (1, 2, 0)
        assert K == 3

    def test_rejects_repeated_and_out_of_range_pairs(self):
        # a repeated pair would put some ell_i outside 0..n-1
        with pytest.raises(ValueError, match="repeated pair"):
            ell_stats([(1, 2), (1, 2)], 2)
        with pytest.raises(ValueError, match="out of range"):
            ell_stats([(2, 1)], 2)

    def test_lemma_K_never_attained(self):
        # no index i has ell_i = K(S): exhaustive for n <= 4
        for n in range(1, 5):
            for S in all_pairsets(n):
                _, _, ell, K = ell_stats(S, n)
                assert K not in ell
                assert K <= n

    def test_lemma_K_never_attained_sampled_n5(self):
        rng = random.Random(17)
        pairs = sorted(all_pairs(5))
        for _ in range(200):
            S = frozenset(p for p in pairs if rng.random() < 0.5)
            _, _, ell, K = ell_stats(S, 5)
            assert K not in ell


class TestPairsetToPerm:
    def test_empty_is_identity(self):
        assert pairset_to_perm(frozenset(), 4) == Permutation.identity(4)

    def test_roundtrip_s4(self):
        for n in range(6):
            for w in Permutation.all_perms(n):
                assert pairset_to_perm(w.recording_set(), n) == w

    def test_exists_iff_K_equals_n(self):
        for n in range(6):
            for S in all_pairsets(n):
                _, _, _, K = ell_stats(S, n)
                w = pairset_to_perm(S, n)
                assert (w is not None) == (K == n)
                if w is not None:
                    assert w.recording_set() == S

    def test_ell_of_recording_set(self):
        # ell_{w(j)} = n - j when S = R(w)
        for n in range(1, 5):
            for w in Permutation.all_perms(n):
                _, _, ell, K = ell_stats(w.recording_set(), n)
                assert K == n
                for j in range(1, n + 1):
                    assert ell[w(j) - 1] == n - j

    def test_brute_force_oracle(self):
        # the read-off agrees with searching all of S_4
        by_recording = {w.recording_set(): w for w in Permutation.all_perms(4)}
        for S in all_pairsets(4):
            assert pairset_to_perm(S, 4) == by_recording.get(S)


class TestTournament:
    def test_natural_order(self):
        t = natural_tournament(4)
        assert t.is_transitive()
        assert t.winner() == Permutation.identity(4)

    def test_three_cycle(self):
        t = Tournament(3, {(1, 2), (2, 3), (3, 1)})
        assert not t.is_transitive()
        assert t.winner() is None

    def test_recording_sets_give_transitive(self):
        for w in Permutation.all_perms(4):
            t = Tournament.from_pairset(w.recording_set(), 4)
            assert t.is_transitive()
            assert t.winner() == w

    def test_transitive_count(self):
        # exactly n! of the 2^(n choose 2) tournaments are transitive
        for n in (3, 4):
            count = sum(1 for t in all_tournaments(n) if t.is_transitive())
            assert count == math.factorial(n)

    def test_score_sequence_matches_the_pairwise_check(self):
        # transitive exactly when the out-degrees are 0, 1, ..., n - 1
        seen = transitive = 0
        for n in range(1, 6):
            for t in all_tournaments(n):
                assert t.is_transitive() == is_transitive_pairwise(t), \
                    t.serialize()
                seen += 1
                transitive += t.is_transitive()
        assert (seen, transitive) == (1099, 153)

    def test_serialize_round_trip(self):
        for t in all_tournaments(3):
            assert Tournament.parse(3, t.serialize()) == t
        t = Tournament(3, {(1, 2), (2, 3), (3, 1)})
        assert t.serialize() == "1>2 2>3 3>1"
        assert Tournament.parse(3, "3>1,1>2 2>3") == t

    def test_parse_rejects_a_repeated_edge(self):
        # a repeated word would collapse into one edge of the set
        for text in ("1>2 1>2", "1>2,1>2", "1>2 01>2"):
            with pytest.raises(ValueError, match="repeated edge"):
                Tournament.parse(2, text)
        with pytest.raises(ValueError, match="repeated edge 2>3"):
            Tournament.parse(3, "1>2 2>3 3>1 2>3")


class TestZeroOneMatrix:
    def test_worked_example(self):
        k = ZeroOneMatrix(((0, 1, 0, 0, 1),
                           (1, 1, 0, 0, 0),
                           (1, 1, 0, 1, 1),
                           (0, 0, 0, 1, 0)))
        assert k.row_sums() == (2, 2, 4, 1)
        assert k.col_sums() == (2, 3, 0, 2, 2)
        assert sum(k.row_sums()) == 9

    def test_left_justified_worked_example(self):
        k = left_justified_from_rows((2, 0, 3, 2), 5)
        assert k.is_left_justified()
        assert k.col_sums() == (3, 3, 1, 0, 0)
        r_plus = sort_desc(k.row_sums())
        assert k.col_sums() == conjugate(r_plus) + (0,) * (5 - len(conjugate(r_plus)))

    def test_left_justified_detection(self):
        assert not ZeroOneMatrix(((0, 1),)).is_left_justified()
        assert ZeroOneMatrix(((1, 0),)).is_left_justified()

    def test_conjugate_relation_exhaustive(self):
        for n in range(1, 5):
            for m in range(1, 5):
                for r in itertools.product(range(m + 1), repeat=n):
                    k = left_justified_from_rows(r, m)
                    cols = conjugate(sort_desc(r))
                    cols += (0,) * (m - len(cols))
                    assert k.col_sums() == cols

    def test_serialize_roundtrip(self):
        k = left_justified_from_rows((2, 0, 1), 3)
        assert ZeroOneMatrix.parse(k.serialize()) == k
        assert k.serialize() == "110/000/100"
