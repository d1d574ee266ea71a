from hypothesis import given, strategies as st

from slcob.partitions import merge, partition_count, partitions_of


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


def test_count_matches_length_up_to_20():
    for n in range(21):
        assert partition_count(n) == len(partitions_of(n))


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
