"""Finitely generated abelian groups in invariant-factor normal form.

A group is Z^free_rank + Z/d1 + ... + Z/dk with 2 <= d1 | d2 | ... | dk.
Groups carry the set of inverted primes of the ambient coefficient ring
Z[1/e]; torsion at an inverted prime is stripped eagerly so that equality
of normal forms is decidable.
"""

from .intmat import _divisor_chain, smith_normal_form
from .record import Record


def _factorint(n):
    """{prime: exponent} of n by trial division ({} for n < 2)."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# Miller-Rabin with the first 13 prime bases decides primality exactly below
# PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017); the first 12 bases are exact only below
# 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Whether n is prime, by deterministic Miller-Rabin; ValueError for
    n >= PRIME_BOUND, where these bases no longer decide it."""
    if n >= PRIME_BOUND:
        raise ValueError("cannot decide primality of %d: the limit is %d"
                         % (n, PRIME_BOUND))
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _strip_primes(n, primes):
    for p in primes:
        while n % p == 0:
            n //= p
    return n


class FGAbGroup(Record):
    __slots__ = ("free_rank", "invariant_factors", "inverted_primes")
    _defaults = {"free_rank": 0, "invariant_factors": (),
                 "inverted_primes": frozenset()}

    def _validate(self):
        fs, primes = self.invariant_factors, self.inverted_primes
        if self.free_rank < 0:
            raise ValueError("negative free rank %d" % self.free_rank)
        if any(f < 2 or f % d for d, f in zip((1,) + fs, fs)):
            raise ValueError("invariant factors %r are not a chain "
                             "2 <= d1 | d2 | ..." % (fs,))
        if any(f % p == 0 for f in fs for p in primes):
            raise ValueError("invariant factors %r have torsion at an "
                             "inverted prime %r" % (fs, sorted(primes)))

    @classmethod
    def from_divisors(cls, divisors, inverted_primes=()):
        """Normal form of a direct sum of cyclic groups Z/d (d = 0 means Z).

        >>> FGAbGroup.from_divisors([0, 4, 6])
        FGAbGroup(free_rank=1, invariant_factors=(2, 12), inverted_primes=frozenset())
        """
        inverted = frozenset(int(p) for p in inverted_primes)
        divisors = [abs(int(d)) for d in divisors]
        chain = _divisor_chain([_strip_primes(d, inverted)
                                for d in divisors if d])
        return cls(divisors.count(0), tuple(f for f in chain if f > 1),
                   inverted)

    @classmethod
    def trivial(cls, inverted_primes=()):
        return cls(0, (), frozenset(inverted_primes))

    @classmethod
    def free(cls, rank, inverted_primes=()):
        return cls(rank, (), frozenset(inverted_primes))

    @classmethod
    def cyclic(cls, n, inverted_primes=()):
        return cls.from_divisors([n], inverted_primes)

    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

    def _divisors(self):
        """The orders of the cyclic summands, 0 for each Z."""
        return [0] * self.free_rank + list(self.invariant_factors)

    def direct_sum(self, *others):
        groups = (self,) + others
        return FGAbGroup.from_divisors(
            [d for g in groups for d in g._divisors()],
            frozenset().union(*(g.inverted_primes for g in groups)))

    def power(self, k):
        """Direct sum of k copies."""
        assert k >= 0
        return FGAbGroup.from_divisors(self._divisors() * k,
                                       self.inverted_primes)

    def localize(self, primes):
        """Invert additional primes (strip their torsion)."""
        return FGAbGroup.from_divisors(
            self._divisors(), self.inverted_primes | frozenset(primes))

    def torsion_part(self):
        return FGAbGroup(0, self.invariant_factors, self.inverted_primes)

    def primary_part(self, p):
        """The p-primary torsion subgroup."""
        divisors = []
        for f in self.invariant_factors:
            q = 1
            while f % p == 0:
                f //= p
                q *= p
            if q > 1:
                divisors.append(q)
        return FGAbGroup.from_divisors(divisors, self.inverted_primes)

    def to_json(self):
        return {
            "free_rank": self.free_rank,
            "invariant_factors": list(self.invariant_factors),
            "inverted_primes": sorted(self.inverted_primes),
        }

    def __str__(self):
        terms = []
        if self.free_rank == 1:
            terms.append("Z")
        elif self.free_rank > 1:
            terms.append("Z^%d" % self.free_rank)
        seen = {}
        for f in self.invariant_factors:
            seen[f] = seen.get(f, 0) + 1
        for f in sorted(seen):
            terms.append("Z/%d" % f if seen[f] == 1 else "(Z/%d)^%d" % (f, seen[f]))
        return " + ".join(terms) if terms else "0"


def cokernel(mat):
    """Normal form of Z^rows / column span of mat."""
    d = smith_normal_form(mat)
    return FGAbGroup.from_divisors(d + [0] * (mat.rows - len(d)))
