"""The geometric diagonal of Hermitian K-theory as a presented ring.

Per catalog field, the diagonal is the GW(k)-algebra on three generators

    t  (degree 1, the product of the two Hopf elements),
    H  (degree 2, the standard skew-symmetric form),
    B  (degree 4, the Bott class, invertible),

modulo  2t = 0,  t^2 = 0,  I(k)t = 0,  tH = 0,  I(k)H = 0,  H^2 = 2hB
(h the hyperbolic form).  Degree n is cyclic on one generator g_r, r = n
mod 4, so it is the quotient GW(k)/ann_r:

    r = 0: GW(k) * B^(n/4)          ann_0 = 0
        1: Z/2   * t B^((n-1)/4)    ann_1 = I + 2GW  (GW acts by rank mod 2)
        2: Z     * H B^((n-2)/4)    ann_2 = I        (GW acts by rank)
        3: 0                        ann_3 = GW

An element is a degree and one GW coordinate pair, its coefficient, in the
normal form of GW/ann_r: `WittRing.gw_normalize` for r = 0, and (rank mod
2, 0), (rank, 0) and (0, 0) for r = 1, 2 and 3.  A product is the product
of the coefficients times the structure constant of g_r * g_s.
"""

from .abelian import FGAbGroup
from .record import Record
from .witt import (FINITE_Q1, FINITE_Q3, QUADRATICALLY_CLOSED, REAL_CLOSED,
                   witt_data)

# GW/ann_r for r = 1, 2, 3 is Z/m by the rank, m = 2, 0 (Z) and 1.
_RANK_MODULUS = (None, 2, 0, 1)

# The degree table the relations predict, as divisors (0 for Z) per kind
# and r = n mod 4; `relation_check` compares it with the witt table.
_EXPECTED_DIVISORS = {
    QUADRATICALLY_CLOSED: ((0,), (2,), (0,), ()),
    REAL_CLOSED: ((0, 0), (2,), (0,), ()),
    FINITE_Q1: ((0, 2), (2,), (0,), ()),
    FINITE_Q3: ((0, 2), (2,), (0,), ()),
}


class KQElement(Record):
    """coeff * g_(degree mod 4): coeff is a GW coordinate pair over <1>,
    <u> in the normal form of the degree's quotient of GW."""
    __slots__ = ("degree", "coeff")


class KQPresentation:
    def __init__(self, field):
        self.field = field
        self.witt = witt_data(field)

    # -- the degree table ---------------------------------------------------

    def kq_diagonal(self, n):
        """The degree-n diagonal group, GW/ann_(n mod 4)."""
        m = _RANK_MODULUS[n % 4]
        return self.witt.gw if m is None else FGAbGroup.from_divisors(
            [m], self.field.inverted_primes)

    def kw_diagonal(self, n):
        """The degree-n diagonal of the Witt-theory localization."""
        if n % 4 == 0:
            return self.witt.w
        return FGAbGroup.trivial(self.field.inverted_primes)

    # -- element calculus ----------------------------------------------------

    def element(self, n, coeff):
        """coeff * g_(n mod 4) in normal form; coeff is a GW pair, or an
        int k standing for k<1>.

        >>> from slcob.witt import field_descriptor
        >>> pres = KQPresentation(field_descriptor("r"))
        >>> pres.element(5, 3).coeff, pres.element(6, (2, 1)).coeff
        ((1, 0), (3, 0))
        """
        w = self.witt
        g = (coeff, 0) if isinstance(coeff, int) else coeff
        m = _RANK_MODULUS[n % 4]
        if m is None:
            return KQElement(n, w.gw_normalize(g))
        rank = w.gw_rank(g)
        return KQElement(n, (rank % m if m else rank, 0))

    def is_zero(self, x):
        return x.coeff == (0, 0)

    def gw_action(self, g, x):
        """Multiply by a coefficient g in GW (a pair, or an int for g<1>):
        the product with g in degree 0."""
        return self.multiply(self.element(0, g), x)

    def multiply(self, x, y):
        """Product in the presented ring."""
        w = self.witt
        rx, ry = x.degree % 4, y.degree % 4
        if rx == 0 or ry == 0:
            const = (1, 0)  # a Bott power
        elif rx == ry == 2:
            const = tuple(2 * c for c in w.hyperbolic())  # H^2 = 2h * Bott
        else:
            const = (0, 0)  # t^2 = 0, t*H = 0, and degree 3 mod 4 is 0
        return self.element(x.degree + y.degree,
                            w.gw_mul(w.gw_mul(x.coeff, y.coeff), const))

    def generator(self, n):
        """The canonical generator of degree n (None in degree 3 mod 4)."""
        return None if n % 4 == 3 else self.element(n, 1)

    # -- verification ---------------------------------------------------------

    def relation_check(self):
        """Check every defining relation and the degree table up to degree
        16, the largest truncation.  Returns a list of (name, ok, detail)
        entries."""
        max_degree = 16
        out = []

        def check(name, ok, detail=""):
            out.append((name, bool(ok), detail))

        t, H, bott = (self.generator(n) for n in (1, 2, 4))
        check("2*t = 0", self.is_zero(self.gw_action((2, 0), t)))
        check("t^2 = 0", self.is_zero(self.multiply(t, t)))
        check("t*H = 0", self.is_zero(self.multiply(t, H)))
        # I(k) annihilates t and H: the ideal is generated by <u> - <1>
        iu = (-1, 1)
        check("I*t = 0", self.is_zero(self.gw_action(iu, t)))
        check("I*H = 0", self.is_zero(self.gw_action(iu, H)))
        h = self.witt.hyperbolic()
        hh = self.multiply(H, H)
        expect = self.element(4, (2 * h[0], 2 * h[1]))
        check("H^2 = 2h*Bott", hh == expect,
              "got %s expected %s" % (hh.coeff, expect.coeff))
        # Bott invertibility: multiplication by Bott is degree-shift identity
        for n in range(-4, max_degree - 3):
            g = self.generator(n)
            if g is not None:
                check("Bott shift deg %d" % n,
                      self.multiply(g, bott) == self.element(n + 4, g.coeff))
        # degree table
        divisors = _EXPECTED_DIVISORS[self.field.kind]
        for n in range(0, max_degree + 1):
            got = self.kq_diagonal(n)
            expected = FGAbGroup.from_divisors(divisors[n % 4],
                                               self.field.inverted_primes)
            check("degree %d table" % n, got == expected,
                  "got %s expected %s" % (got, expected))
        # periodicity
        for n in range(-8, max_degree - 3):
            check("periodicity %d" % n,
                  self.kq_diagonal(n) == self.kq_diagonal(n + 4))
        # order-2 pattern: t*Bott^m is nonzero of order exactly 2
        for m in range(0, (max_degree - 1) // 4 + 1):
            el = self.element(1 + 4 * m, 1)
            check("t*Bott^%d order 2" % m,
                  not self.is_zero(el) and self.is_zero(self.gw_action((2, 0), el)))
        return out

    def eta_top_square_check(self):
        """The map from the Witt-valued slot one step off the diagonal into
        the diagonal Z/2 slot is rank mod 2: surjective, kernel the
        fundamental ideal, bijective exactly for quadratically closed
        fields.  Returns (surjective, kernel_is_ideal, iso)."""
        kind = self.field.kind
        if kind == QUADRATICALLY_CLOSED:
            elements = [0, 1]  # W = Z/2
            ideal = {0}
        elif kind == REAL_CLOSED:
            elements = list(range(-6, 7))  # window into W = Z
            ideal = {x for x in elements if x % 2 == 0}
        elif kind == FINITE_Q3:
            elements = [0, 1, 2, 3]  # W = Z/4
            ideal = {0, 2}
        else:
            elements = [(a, b) for a in (0, 1) for b in (0, 1)]  # Z/2 + Z/2
            ideal = {(0, 0), (1, 1)}
        # rank mod 2 is the action on t (an int x stands for x<1>)
        t = self.generator(1)
        image = {x: self.gw_action(x, t) for x in elements}
        kernel = {x for x in elements if self.is_zero(image[x])}
        surjective = set(image.values()) == {self.element(1, 0), t}
        return surjective, kernel == ideal, surjective and len(kernel) == 1
