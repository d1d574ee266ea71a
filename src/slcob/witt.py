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

from .abelian import FGAbGroup, _is_prime
from .record import Record

QUADRATICALLY_CLOSED = "quadratically_closed"
REAL_CLOSED = "real_closed"
FINITE_Q1 = "finite_q1"
FINITE_Q3 = "finite_q3"

KINDS = (QUADRATICALLY_CLOSED, REAL_CLOSED, FINITE_Q1, FINITE_Q3)

KIND_ALIASES = {
    "c": QUADRATICALLY_CLOSED,
    "r": REAL_CLOSED,
    "fq1": FINITE_Q1,
    "fq3": FINITE_Q3,
    QUADRATICALLY_CLOSED: QUADRATICALLY_CLOSED,
    REAL_CLOSED: REAL_CLOSED,
    FINITE_Q1: FINITE_Q1,
    FINITE_Q3: FINITE_Q3,
}


class FieldDescriptor(Record):
    __slots__ = ("kind", "exponential_characteristic")
    _defaults = {"exponential_characteristic": 1}

    def _validate(self):
        if self.kind not in KINDS:
            raise ValueError("unknown field kind %r" % (self.kind,))
        e = self.exponential_characteristic
        if self.kind in (QUADRATICALLY_CLOSED, REAL_CLOSED):
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
    if full not in (FINITE_Q1, FINITE_Q3):
        if q is not None:
            raise ValueError("field %s takes no field size q (only fq1 and "
                             "fq3 do)" % kind)
        return FieldDescriptor(full, 1)
    residue = 1 if full == FINITE_Q1 else 3
    q = (5 if residue == 1 else 3) if q is None else q
    p = _char_of(q) if q % 4 == residue else None
    if p is None:
        raise ValueError("%s needs a field size q = %d mod 4 that is a power "
                         "of an odd prime, not %r" % (kind, residue, q))
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
        """Canonical coordinates of a GW element.  For finite kinds the
        relation 2<1> = 2<u> (hyperbolic comparison) gives the normal form
        (a + b - (b mod 2), b mod 2); the infinite kinds are free."""
        a, b = elt
        if self.field.kind in (FINITE_Q1, FINITE_Q3):
            return (a + b - (b % 2), b % 2)
        if self.field.kind == QUADRATICALLY_CLOSED:
            return (a + b, 0)  # <u> = <1>
        return (a, b)

    def gw_mul(self, x, y):
        # <1>, <u> multiply with <u>^2 = <1>
        a = x[0] * y[0] + x[1] * y[1]
        b = x[0] * y[1] + x[1] * y[0]
        return self.gw_normalize((a, b))

    def gw_rank(self, elt):
        return elt[0] + elt[1]

    def gw_is_zero(self, elt):
        return self.gw_normalize(elt) == (0, 0)

    def hyperbolic(self):
        """The hyperbolic form <1> + <-1> as a GW element."""
        if self.field.kind == QUADRATICALLY_CLOSED:
            return self.gw_normalize((2, 0))
        if self.field.kind == REAL_CLOSED:
            return (1, 1)  # <-1> is the non-square generator
        if self.field.kind == FINITE_Q3:
            return (1, 1)  # -1 is a non-square
        return self.gw_normalize((2, 0))  # q = 1 mod 4: -1 is a square

    # -- groups -----------------------------------------------------------

    def fundamental_ideal_power(self, m):
        """I(k)^m as an abstract group (I^0 = W)."""
        assert m >= 0
        inv = self.field.inverted_primes
        if m == 0:
            return self.w
        kind = self.field.kind
        if kind == QUADRATICALLY_CLOSED:
            return FGAbGroup.trivial(inv)
        if kind == REAL_CLOSED:
            return FGAbGroup.free(1, inv)  # 2^m Z inside W = Z
        return FGAbGroup.cyclic(2, inv) if m == 1 else FGAbGroup.trivial(inv)

    def two_primary_torsion_of_ideal(self, m):
        """The 2-primary torsion subgroup of I^m (m >= 1)."""
        assert m >= 1
        return self.fundamental_ideal_power(m).primary_part(2)


def witt_data(field):
    """The WittRing record of a catalog field."""
    inv = field.inverted_primes
    kind = field.kind
    if kind == QUADRATICALLY_CLOSED:
        return WittRing(field, gw=FGAbGroup.free(1, inv),
                        w=FGAbGroup.cyclic(2, inv))
    if kind == REAL_CLOSED:
        return WittRing(field, gw=FGAbGroup.free(2, inv),
                        w=FGAbGroup.free(1, inv))
    if kind == FINITE_Q1:
        return WittRing(field, gw=FGAbGroup.from_divisors([0, 2], inv),
                        w=FGAbGroup.from_divisors([2, 2], inv))
    if kind == FINITE_Q3:
        return WittRing(field, gw=FGAbGroup.from_divisors([0, 2], inv),
                        w=FGAbGroup.cyclic(4, inv))
    raise ValueError(kind)
