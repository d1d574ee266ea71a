"""The geometric diagonal of Hermitian K-theory as a presented ring.

Per catalog field, the diagonal is the GW(k)-algebra on three generators

    t  (degree 1, the product of the two Hopf elements),
    H  (degree 2, the standard skew-symmetric form),
    B  (degree 4, the Bott class, invertible),

modulo  2t = 0,  t^2 = 0,  I(k)t = 0,  tH = 0,  I(k)H = 0,  H^2 = 2hB
(h the hyperbolic form).  In each degree the presented module is cyclic:

    degree n = 0 (4): GW(k) * B^(n/4)
             = 1 (4): Z/2    * t B^((n-1)/4)      (GW acts by rank mod 2)
             = 2 (4): Z      * H B^((n-2)/4)      (GW acts by rank)
             = 3 (4): 0

so elements are (degree, coefficient) pairs with the coefficient reduced
modulo the annihilator of the degree's generator.
"""

from .abelian import FGAbGroup
from .record import Record
from .witt import (FINITE_Q1, FINITE_Q3, QUADRATICALLY_CLOSED, REAL_CLOSED,
                   witt_data)


class KQElement(Record):
    """Element of one diagonal degree in normalized coordinates.

    coeff is a GW coordinate pair for degree 0 mod 4, an integer mod 2 for
    degree 1 mod 4, an integer for degree 2 mod 4, and must be None for
    degree 3 mod 4."""
    __slots__ = ("degree", "coeff")


class KQPresentation:
    def __init__(self, field):
        self.field = field
        self.witt = witt_data(field)

    # -- the degree table ---------------------------------------------------

    def kq_diagonal(self, n):
        """The degree-n diagonal group."""
        inv = self.field.inverted_primes
        r = n % 4
        if r == 0:
            return self.witt.gw
        if r == 1:
            return FGAbGroup.cyclic(2, inv)
        if r == 2:
            return FGAbGroup.free(1, inv)
        return FGAbGroup.trivial(inv)

    def kw_diagonal(self, n):
        """The degree-n diagonal of the Witt-theory localization."""
        inv = self.field.inverted_primes
        if n % 4 == 0:
            return self.witt.w
        return FGAbGroup.trivial(inv)

    # -- element calculus ----------------------------------------------------

    def element(self, n, coeff):
        """Normalized element: coefficient reduced mod the annihilator of
        the degree-n generator."""
        r = n % 4
        w = self.witt
        if r == 0:
            return KQElement(n, w.gw_normalize(coeff))
        if r == 1:
            return KQElement(n, int(coeff) % 2)
        if r == 2:
            return KQElement(n, int(coeff))
        return KQElement(n, None)

    def zero(self, n):
        r = n % 4
        return self.element(n, (0, 0) if r == 0 else 0 if r < 3 else None)

    def is_zero(self, x):
        r = x.degree % 4
        if r == 0:
            return self.witt.gw_is_zero(x.coeff)
        if r == 3:
            return True
        return x.coeff == 0

    def gw_action(self, g, x):
        """Multiply by a coefficient g in GW (coordinate pair)."""
        w = self.witt
        r = x.degree % 4
        if r == 0:
            return self.element(x.degree, w.gw_mul(g, x.coeff))
        if r in (1, 2):
            return self.element(x.degree, w.gw_rank(g) * x.coeff)
        return self.zero(x.degree)

    def multiply(self, x, y):
        """Product in the presented ring."""
        n = x.degree + y.degree
        rx, ry = x.degree % 4, y.degree % 4
        if rx > ry:
            x, y = y, x
            rx, ry = ry, rx
        w = self.witt
        if rx == 3 or ry == 3:
            return self.zero(n)
        if rx == 0 and ry == 0:
            return self.element(n, w.gw_mul(x.coeff, y.coeff))
        if rx == 0:
            return self.gw_action(x.coeff, self.element(n, y.coeff))
        if rx == 1:
            # t*t = 0 and t*H = 0
            return self.zero(n)
        # rx == ry == 2: H^2 = 2h * Bott
        h = w.hyperbolic()
        scale = 2 * x.coeff * y.coeff
        return self.element(n, w.gw_normalize((scale * h[0], scale * h[1])))

    def generator(self, n):
        """The canonical generator of degree n (None in degree 3 mod 4)."""
        r = n % 4
        if r == 0:
            return self.element(n, (1, 0))
        if r in (1, 2):
            return self.element(n, 1)
        return None

    # -- verification ---------------------------------------------------------

    def relation_check(self):
        """Check every defining relation and the degree table up to degree
        16, the largest truncation.  Returns a list of (name, ok, detail)
        entries."""
        max_degree = 16
        w = self.witt
        out = []

        def check(name, ok, detail=""):
            out.append((name, bool(ok), detail))

        t = self.generator(1)
        H = self.generator(2)
        bott = self.generator(4)
        check("2*t = 0", self.is_zero(self.gw_action((2, 0), t)))
        check("t^2 = 0", self.is_zero(self.multiply(t, t)))
        check("t*H = 0", self.is_zero(self.multiply(t, H)))
        # I(k) annihilates t and H: the ideal is generated by <u> - <1>
        iu = (-1, 1)
        check("I*t = 0", self.is_zero(self.gw_action(iu, t)))
        check("I*H = 0", self.is_zero(self.gw_action(iu, H)))
        h = w.hyperbolic()
        hh = self.multiply(H, H)
        expect = self.element(4, w.gw_normalize((2 * h[0], 2 * h[1])))
        check("H^2 = 2h*Bott", hh == expect,
              "got %s expected %s" % (hh.coeff, expect.coeff))
        # Bott invertibility: multiplication by Bott is degree-shift identity
        for n in range(-4, max_degree - 3):
            g = self.generator(n)
            if g is None:
                continue
            check("Bott shift deg %d" % n,
                  self.multiply(g, bott).coeff == self.element(n + 4, g.coeff).coeff)
        # degree table
        for n in range(0, max_degree + 1):
            got = self.kq_diagonal(n)
            expected = self._expected_diagonal(n)
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

    def _expected_diagonal(self, n):
        inv = self.field.inverted_primes
        kind = self.field.kind
        r = n % 4
        if r == 0:
            return {QUADRATICALLY_CLOSED: FGAbGroup.free(1, inv),
                    REAL_CLOSED: FGAbGroup.free(2, inv),
                    FINITE_Q1: FGAbGroup.from_divisors([0, 2], inv),
                    FINITE_Q3: FGAbGroup.from_divisors([0, 2], inv)}[kind]
        if r == 1:
            return FGAbGroup.cyclic(2, inv)
        if r == 2:
            return FGAbGroup.free(1, inv)
        return FGAbGroup.trivial(inv)

    def eta_top_square_check(self):
        """The map from the Witt-valued slot one step off the diagonal into
        the diagonal Z/2 slot is rank mod 2: surjective, kernel the
        fundamental ideal, bijective exactly for quadratically closed
        fields.  Returns (surjective, kernel_is_ideal, iso)."""
        w = self.witt
        kind = self.field.kind
        if kind == QUADRATICALLY_CLOSED:
            elements = [0, 1]  # W = Z/2
            rank2 = lambda x: x % 2
            ideal = {0}
        elif kind == REAL_CLOSED:
            elements = list(range(-6, 7))  # window into W = Z
            rank2 = lambda x: x % 2
            ideal = {x for x in elements if x % 2 == 0}
        elif kind == FINITE_Q3:
            elements = [0, 1, 2, 3]  # W = Z/4
            rank2 = lambda x: x % 2
            ideal = {0, 2}
        else:
            elements = [(a, b) for a in (0, 1) for b in (0, 1)]  # Z/2 + Z/2
            rank2 = lambda x: (x[0] + x[1]) % 2
            ideal = {(0, 0), (1, 1)}
        image = {rank2(x) for x in elements}
        kernel = {x for x in elements if rank2(x) == 0}
        surjective = image == {0, 1}
        kernel_is_ideal = kernel == ideal
        iso = surjective and len(kernel) == 1
        return surjective, kernel_is_ideal, iso
