"""Partitions of nonnegative integers, and their integer codes.

A partition is a weakly decreasing tuple of positive integers.  Every basis
in this package is indexed by partitions in reverse-lexicographic order
(largest part first, compared as tuples), fixed once and for all so that
matrices and golden files are reproducible.

The polynomial engine keys its monomials by codes: `encode` maps the
partition omega to the product of the primes p_(omega_i), p_i the i-th
prime, and `decode` inverts it.  By unique factorisation the code of the
multiset union of two partitions is the product of their codes, so a
monomial product is one integer product.  Parts run from 1 to
MAX_TRUNCATION = 16, the largest truncation, and p_i <= 2^i keeps the
code of a partition of weight w at most 2^w, a small integer.
"""

from functools import lru_cache

MAX_TRUNCATION = 16
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


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


def label(p):
    """A partition as text, its parts joined by '+'; "()" if it is empty.

    >>> label((3, 1, 1)), label(())
    ('3+1+1', '()')
    """
    return "+".join(map(str, p)) or "()"


def partition_count(n):
    """The partition function p(n); zero for negative n.

    >>> [partition_count(n) for n in range(10)]
    [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    >>> partition_count(-1)
    0
    """
    return len(_partitions_bounded(n, n)) if n >= 0 else 0


def encode(p):
    """The code of a partition: the product of the primes p_(part).

    >>> encode(()), encode((1,)), encode((3, 1, 1))
    (1, 2, 20)
    """
    code = 1
    for part in p:
        if not 1 <= part <= MAX_TRUNCATION:
            raise ValueError("a coded monomial needs parts between 1 and %d, "
                             "not %r" % (MAX_TRUNCATION, part))
        code *= PRIMES[part - 1]
    return code


@lru_cache(maxsize=None)
def decode(code):
    """The partition with the given code."""
    parts = []
    for part in range(MAX_TRUNCATION, 0, -1):
        while code > 1 and code % PRIMES[part - 1] == 0:
            code //= PRIMES[part - 1]
            parts.append(part)
    if code != 1:
        raise ValueError("not the code of a partition with parts at most %d"
                         % MAX_TRUNCATION)
    return tuple(parts)


@lru_cache(maxsize=None)
def codes_of(n):
    """The codes of partitions_of(n), in that order."""
    return tuple(encode(p) for p in partitions_of(n))

