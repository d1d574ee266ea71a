"""Partitions of nonnegative integers.

A partition is a weakly decreasing tuple of positive integers.  Every basis
in this package is indexed by partitions in reverse-lexicographic order
(largest part first, compared as tuples), fixed once and for all so that
matrices and golden files are reproducible.
"""

from functools import lru_cache


@lru_cache(maxsize=None)
def _partitions_bounded(n, max_part):
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_bounded(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(n):
    """All partitions of n in reverse-lexicographic order.

    >>> partitions_of(4)
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    >>> partitions_of(0)
    [()]
    """
    if n < 0:
        return []
    return list(_partitions_bounded(n, n))


@lru_cache(maxsize=None)
def _count_bounded(n, max_part):
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    total = 0
    for first in range(min(n, max_part), 0, -1):
        total += _count_bounded(n - first, first)
    return total


def partition_count(n):
    """The partition function p(n); zero for negative n.

    >>> [partition_count(n) for n in range(10)]
    [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    >>> partition_count(-1)
    0
    """
    if n < 0:
        return 0
    return _count_bounded(n, n)


@lru_cache(maxsize=None)
def merge(p, q):
    """The partition whose parts are the multiset union of p and q.

    It is the one key function of every `bpoly` product, which meets few
    distinct pairs many times over, so it is cached; the weights stay
    under the truncation, which bounds the cache (about 17,000 pairs at
    truncation 16), and equal products share their key tuples.

    >>> merge((2, 1), (3, 1))
    (3, 2, 1, 1)
    """
    return tuple(sorted(p + q, reverse=True))
