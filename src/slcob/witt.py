"""Grothendieck-Witt and Witt ring data for the supported base fields.

The catalog covers exactly the field kinds whose Witt groups are finitely
generated: quadratically closed fields, real closed fields, and finite
fields of odd characteristic split by q mod 4.  Stored data per kind:

  kind              W(k)         GW(k)      I(k)    I^2
  quadratically cl. Z/2          Z          0       0
  real closed       Z (signat.)  Z^2        Z (=2Z) Z (=4Z), I^m = 2^m Z
  finite, q=1(4)    Z/2 + Z/2    Z + Z/2    Z/2     0
  finite, q=3(4)    Z/4          Z + Z/2    Z/2     0

GW elements are coordinates (a, b) over the diagonal generators <1>, <u>
(u a non-square; for real closed u = -1; for quadratically closed b = 0),
with multiplication <u>^2 = <1>.  The fundamental ideal is the kernel of
the rank map on GW; rank mod 2 identifies W/I.

The finite-field tables are verified against a brute-force classification
of diagonal forms in wittforms.py; that oracle is part of the test and
verification surface, not of this table module.
"""

from functools import lru_cache

from .abelian import FGAbGroup, _is_prime
from .record import Record

QUADRATICALLY_CLOSED = "quadratically_closed"
REAL_CLOSED = "real_closed"
FINITE_Q1 = "finite_q1"
FINITE_Q3 = "finite_q3"


class _Kind(Record):
    """One row of the catalog: the short name, the default field size q
    (None for the kinds without a size; otherwise q mod 4 is the kind's),
    the divisors (0 for each Z) of GW, W, I and I^m for m >= 2, and the
    hyperbolic form <1> + <-1> over <1>, <u> (<1> + <u> where -1 is a
    non-square)."""
    __slots__ = ("name", "size", "gw", "w", "ideal", "ideal_power",
                 "hyperbolic")


KINDS = {
    QUADRATICALLY_CLOSED: _Kind("c", None, (0,), (2,), (), (), (2, 0)),
    REAL_CLOSED: _Kind("r", None, (0, 0), (0,), (0,), (0,), (1, 1)),
    FINITE_Q1: _Kind("fq1", 5, (0, 2), (2, 2), (2,), (), (2, 0)),
    FINITE_Q3: _Kind("fq3", 3, (0, 2), (4,), (2,), (), (1, 1)),
}
SHORT_NAMES = tuple(row.name for row in KINDS.values())
KIND_ALIASES = dict({row.name: kind for kind, row in KINDS.items()},
                    **{kind: kind for kind in KINDS})


class FieldDescriptor(Record):
    __slots__ = ("kind", "exponential_characteristic")
    _defaults = {"exponential_characteristic": 1}

    def _validate(self):
        if self.kind not in KINDS:
            raise ValueError("unknown field kind %r" % (self.kind,))
        e = self.exponential_characteristic
        if KINDS[self.kind].size is None:
            if e != 1:
                raise ValueError("%s fields have exponential characteristic "
                                 "1, not %r" % (self.kind, e))
        elif e == 2 or not _is_prime(e):
            raise ValueError("%s fields need an odd prime characteristic "
                             "(the theory requires 1/2 in the base), not %r"
                             % (self.kind, e))

    @property
    def inverted_primes(self):
        e = self.exponential_characteristic
        return frozenset() if e == 1 else frozenset([e])


def field_descriptor(kind, q=None):
    """Build a descriptor from a kind alias; only the finite kinds take
    the field size q, a power of an odd prime with q = 1 resp. 3 mod 4
    (default 5 resp. 3)."""
    if kind not in KIND_ALIASES:
        raise ValueError("unknown field kind %r: expected c, r, fq1 or fq3"
                         % (kind,))
    full = KIND_ALIASES[kind]
    size = KINDS[full].size
    if size is None:
        if q is not None:
            raise ValueError("field %s takes no field size q (only fq1 and "
                             "fq3 do)" % kind)
        return FieldDescriptor(full, 1)
    q = size if q is None else q
    p = _char_of(q) if q % 4 == size % 4 else None
    if p is None:
        raise ValueError("%s needs a field size q = %d mod 4 that is a power "
                         "of an odd prime, not %r" % (kind, size % 4, q))
    return FieldDescriptor(full, p)


def _char_of(q):
    """The prime p with q = p^k, or None when q is not a prime power.
    Tries the integer k-th root for every k <= log2 q, so the time is
    polynomial in the digits of q; ValueError for q >= PRIME_BOUND."""
    if q < 2:
        return None
    for k in range(1, q.bit_length()):
        p = _iroot(q, k)
        if p ** k == q and _is_prime(p):
            return p
    return None


def _iroot(n, k):
    """floor(n ** (1/k)) for n >= 1, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


class WittRing(Record):
    """Normal forms and structure maps of GW/W/I for one catalog field."""
    __slots__ = ("field", "gw", "w")  # a FieldDescriptor and two FGAbGroups

    # -- GW element calculus: coordinates (a, b) over <1>, <u> ------------

    def gw_normalize(self, elt):
        """Canonical coordinates of a GW element.  I is cyclic on <u> - <1>,
        of order 1, 0 (free) or 2 by the kind's divisor of I, so b is
        reduced mod that order and the rank a + b is kept."""
        a, b = elt
        order = (KINDS[self.field.kind].ideal or (1,))[0]
        r = b % order if order else b
        return (a + b - r, r)

    def gw_mul(self, x, y):
        # <1>, <u> multiply with <u>^2 = <1>
        a = x[0] * y[0] + x[1] * y[1]
        b = x[0] * y[1] + x[1] * y[0]
        return self.gw_normalize((a, b))

    def gw_rank(self, elt):
        return elt[0] + elt[1]

    def hyperbolic(self):
        """The hyperbolic form <1> + <-1> as a GW element."""
        return KINDS[self.field.kind].hyperbolic

    # -- groups -----------------------------------------------------------

    def fundamental_ideal_power(self, m):
        """I(k)^m as an abstract group (I^0 = W)."""
        if m < 0:
            raise ValueError("the ideal power I^m needs m >= 0, not %r" % m)
        if m == 0:
            return self.w
        row = KINDS[self.field.kind]
        divisors = row.ideal if m == 1 else row.ideal_power
        return FGAbGroup.from_divisors(divisors, self.field.inverted_primes)

    def two_primary_torsion_of_ideal(self, m):
        """The 2-primary torsion subgroup of I^m (m >= 1)."""
        if m < 1:
            raise ValueError("the torsion of I^m needs m >= 1, not %r" % m)
        return self.fundamental_ideal_power(m).primary_part(2)


@lru_cache(maxsize=None)
def witt_data(field):
    """The WittRing record of a catalog field, one per descriptor."""
    row, inv = KINDS[field.kind], field.inverted_primes
    return WittRing(field, FGAbGroup.from_divisors(row.gw, inv),
                    FGAbGroup.from_divisors(row.w, inv))
