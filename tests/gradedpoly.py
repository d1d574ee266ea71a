"""Sparse multivariate polynomials with weighted degrees and truncation.

The test suite's reference engine: named generators, rational
coefficients, and the textbook algorithms (substitution, the geometric
series for a reciprocal, the triangular rewrite of a symmetric polynomial
in elementary symmetric functions), against which the integer `bpoly`
pipeline of the package is checked.

A GradedPoly lives in a fixed ambient: a weight for every generator name and
a hard truncation bound N.  Monomials of weighted degree beyond N are dropped
by every operation, so a GradedPoly is really a jet of a power series.
Monomials are tuples of (generator, exponent) pairs sorted by generator name.
"""

from fractions import Fraction
from itertools import combinations


class GradedPolyError(ValueError):
    pass


def _mon_mul(m1, m2):
    d = dict(m1)
    for g, e in m2:
        d[g] = d.get(g, 0) + e
    return tuple(sorted(d.items()))


class GradedPoly:
    __slots__ = ("weights", "bound", "coeffs")

    def __init__(self, weights, bound, coeffs=None):
        self.weights = weights  # dict name -> positive int, shared by ambient
        self.bound = bound
        self.coeffs = {}
        if coeffs:
            for mon, c in coeffs.items():
                c = Fraction(c)
                if c == 0:
                    continue
                if self.mon_weight(mon) > bound:
                    continue
                self.coeffs[mon] = c

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, weights, bound, value):
        return cls(weights, bound, {(): Fraction(value)})

    @classmethod
    def gen(cls, weights, bound, name, power=1):
        if name not in weights:
            raise GradedPolyError("unknown generator %r" % name)
        return cls(weights, bound, {((name, power),): Fraction(1)})

    # -- structure ------------------------------------------------------

    def mon_weight(self, mon):
        return sum(self.weights[g] * e for g, e in mon)

    def _check_compatible(self, other):
        if self.weights is not other.weights and self.weights != other.weights:
            raise GradedPolyError("mismatched generator weights")
        if self.bound != other.bound:
            raise GradedPolyError("mismatched truncation bounds")

    def __eq__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return (self.weights == other.weights and self.bound == other.bound
                and self.coeffs == other.coeffs)

    def is_zero(self):
        return not self.coeffs

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coeffs.values())

    def constant_term(self):
        return self.coeffs.get((), Fraction(0))

    def coefficient(self, mon):
        return self.coeffs.get(tuple(sorted(mon)), Fraction(0))

    def homogeneous_part(self, w):
        return GradedPoly(self.weights, self.bound,
                          {m: c for m, c in self.coeffs.items()
                           if self.mon_weight(m) == w})

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.const(self.weights, self.bound, other)
        self._check_compatible(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return GradedPoly(self.weights, self.bound, out)

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly(self.weights, self.bound,
                          {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.const(self.weights, self.bound, other)
        return self + (-other)

    def scale(self, value):
        value = Fraction(value)
        if value == 0:
            return GradedPoly(self.weights, self.bound)
        return GradedPoly(self.weights, self.bound,
                          {m: c * value for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        out = {}
        bound = self.bound
        for m1, c1 in self.coeffs.items():
            w1 = self.mon_weight(m1)
            for m2, c2 in other.coeffs.items():
                if w1 + other.mon_weight(m2) > bound:
                    continue
                m = _mon_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return GradedPoly(self.weights, self.bound, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        assert k >= 0
        result = GradedPoly.const(self.weights, self.bound, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def substitute(self, name, value):
        """Replace a generator by a polynomial (truncating)."""
        out = GradedPoly(self.weights, self.bound)
        powers = {0: GradedPoly.const(self.weights, self.bound, 1)}

        def power(e):
            if e not in powers:
                powers[e] = power(e - 1) * value
            return powers[e]

        for mon, c in self.coeffs.items():
            rest = tuple((g, e) for g, e in mon if g != name)
            e = dict(mon).get(name, 0)
            term = GradedPoly(self.weights, self.bound, {rest: c})
            out = out + term * power(e)
        return out

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for mon in sorted(self.coeffs, key=lambda m: (self.mon_weight(m), m)):
            c = self.coeffs[mon]
            factors = "*".join(g if e == 1 else "%s^%d" % (g, e) for g, e in mon)
            parts.append("%s%s" % (c, "*" + factors if factors else ""))
        return " + ".join(parts)

    __repr__ = __str__


def reciprocal(f):
    """Multiplicative inverse of f with unit constant term, truncated."""
    c0 = f.constant_term()
    if c0 == 0:
        raise GradedPolyError("reciprocal requires a unit constant term")
    one = GradedPoly.const(f.weights, f.bound, 1)
    h = f.scale(Fraction(1, 1) / c0) - one  # positive weight only
    # geometric series 1/(1+h) = 1 - h + h^2 - ...
    min_w = min((f.mon_weight(m) for m in h.coeffs), default=f.bound + 1)
    steps = f.bound // max(min_w, 1) + 1
    inv = one
    term = one
    sign = 1
    for _ in range(steps):
        term = term * h
        if term.is_zero():
            break
        sign = -sign
        inv = inv + term.scale(sign)
    return inv.scale(Fraction(1, 1) / c0)


# -- symmetric functions ----------------------------------------------


def is_symmetric(f, xvars):
    """Check symmetry under adjacent transpositions (hence all), up to
    truncation."""
    for i in range(len(xvars) - 1):
        a, b = xvars[i], xvars[i + 1]
        swapped = {}
        for mon, c in f.coeffs.items():
            d = dict(mon)
            d[a], d[b] = d.get(b, 0), d.get(a, 0)
            m2 = tuple(sorted((g, e) for g, e in d.items() if e))
            swapped[m2] = swapped.get(m2, Fraction(0)) + c
        if {m: c for m, c in swapped.items() if c} != f.coeffs:
            return False
    return True


def elementary_symmetric(weights, bound, xvars, i):
    """e_i(xvars) expanded in the x variables."""
    out = {}
    for combo in combinations(xvars, i):
        mon = tuple(sorted((g, 1) for g in combo))
        out[mon] = Fraction(1)
    return GradedPoly(weights, bound, out)


def elementary_symmetric_rewrite(f, xvars, cvars):
    """Rewrite a symmetric polynomial in xvars as a polynomial in cvars,
    where cvars[i-1] stands for e_i(xvars).  Substituting e_i back
    recovers the input.

    Standard triangular algorithm: repeatedly strip the reverse-lex
    leading term c * x^a (a weakly decreasing) by subtracting
    c * prod e_i^(a_i - a_{i+1})."""
    if not is_symmetric(f, xvars):
        raise GradedPolyError("input is not symmetric")
    k = len(xvars)
    assert len(cvars) == k
    weights, bound = f.weights, f.bound
    es = {i: elementary_symmetric(weights, bound, xvars, i) for i in range(1, k + 1)}
    out = GradedPoly(weights, bound)
    rest = f
    idx = {x: i for i, x in enumerate(xvars)}

    while not rest.is_zero():
        # reverse-lex leading exponent vector among x-monomials
        def expvec(mon):
            v = [0] * k
            for g, e in mon:
                if g in idx:
                    v[idx[g]] = e
                else:
                    raise GradedPolyError("non-x generator %r in input" % g)
            return tuple(v)

        lead = max(rest.coeffs, key=lambda m: expvec(m))
        a = expvec(lead)
        if any(a[i] < a[i + 1] for i in range(k - 1)):
            raise GradedPolyError("leading exponent not dominant; input not symmetric")
        c = rest.coeffs[lead]
        e_term = GradedPoly.const(weights, bound, 1)
        c_mon = {}
        for i in range(k):
            exp = a[i] - (a[i + 1] if i + 1 < k else 0)
            if exp:
                e_term = e_term * (es[i + 1] ** exp)
                c_mon[cvars[i]] = exp
        rest = rest - e_term.scale(c)
        out = out + GradedPoly(weights, bound, {tuple(sorted(c_mon.items())): c})
    return out
