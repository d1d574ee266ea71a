import pytest
from hypothesis import given, strategies as st

from oracles import merge
from slcob.partitions import (MAX_TRUNCATION, codes_of, decode, encode,
                              partition_count, partitions_of)


def brute_force_partitions(n):
    """Oracle: all weakly decreasing positive tuples summing to n, found
    by filtering compositions."""
    if n == 0:
        return {()}
    out = set()

    def rec(remaining, prefix):
        if remaining == 0:
            out.add(tuple(prefix))
            return
        for k in range(1, remaining + 1):
            rec(remaining - k, prefix + [k])

    rec(n, [])
    return {p for p in out if all(p[i] >= p[i + 1] for i in range(len(p) - 1))}


def test_empty_partition():
    assert partitions_of(0) == [()]
    assert partition_count(0) == 1


def test_counts_against_enumeration_oracle():
    assert len(partitions_of(4)) == 5
    assert len(partitions_of(9)) == 30
    assert partition_count(8) == 22
    for n in range(0, 13):
        assert set(partitions_of(n)) == brute_force_partitions(n)


def test_negative_degree_convention():
    assert partition_count(-1) == 0
    assert partitions_of(-3) == []


# p(0), ..., p(20): OEIS A000041
PUBLISHED_COUNTS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135,
                    176, 231, 297, 385, 490, 627)


def test_count_matches_length_up_to_20():
    for n in range(21):
        assert partition_count(n) == len(partitions_of(n)) == \
            PUBLISHED_COUNTS[n]


def test_reverse_lexicographic_order():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for n in range(10):
        parts = partitions_of(n)
        assert parts == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)


@given(st.integers(0, 15))
def test_all_entries_are_partitions(n):
    for p in partitions_of(n):
        assert all(part >= 1 for part in p)
        assert list(p) == sorted(p, reverse=True)
        assert sum(p) == n


def test_merge():
    assert merge((2, 1), (3, 1)) == (3, 2, 1, 1)
    assert merge((), (5,)) == (5,)


ALL_PARTITIONS = [p for n in range(17) for p in partitions_of(n)]


def test_codes_round_trip_on_every_partition_up_to_16():
    codes = [encode(p) for p in ALL_PARTITIONS]
    assert [decode(c) for c in codes] == ALL_PARTITIONS
    assert len(set(codes)) == len(codes)
    assert max(codes) == 2 ** 16  # (1, ..., 1); weight w stays <= 2^w
    for n in range(17):
        assert codes_of(n) == tuple(encode(p) for p in partitions_of(n))
        assert [decode(c) for c in codes_of(n)] == partitions_of(n)
        assert len(set(codes_of(n))) == partition_count(n)


def test_code_of_a_merge_is_the_product_of_codes():
    """Every pair of total weight <= 16, the products the chain makes."""
    by_weight = {n: partitions_of(n) for n in range(17)}
    pairs = 0
    for a in range(17):
        for b in range(17 - a):
            for p in by_weight[a]:
                for q in by_weight[b]:
                    assert encode(merge(p, q)) == encode(p) * encode(q)
                    pairs += 1
    assert pairs == sum(partition_count(a) * partition_count(s - a)
                        for s in range(17) for a in range(s + 1))


@given(st.sampled_from(ALL_PARTITIONS), st.sampled_from(ALL_PARTITIONS))
def test_code_of_a_merge_beyond_the_truncation(p, q):
    assert decode(encode(p) * encode(q)) == merge(p, q)


def test_codes_reject_what_they_cannot_hold():
    for bad in ((0,), (17,), (3, -1), (MAX_TRUNCATION + 1, 1)):
        with pytest.raises(ValueError, match="parts between 1 and 16"):
            encode(bad)
    for bad in (0, -2, 59, 2 * 59):
        with pytest.raises(ValueError, match="not the code of a partition"):
            decode(bad)
