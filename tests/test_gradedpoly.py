"""The GradedPoly reference engine of the test suite, and the series
composition and inversion over `bpoly` of the test oracles against the
same closed forms, among them Lagrange inversion.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedpoly import (GradedPoly, GradedPolyError, elementary_symmetric,
                        elementary_symmetric_rewrite, is_symmetric,
                        reciprocal)
from oracles import ser_compose, ser_inverse
from slcob import bpoly

W1 = {"x": 1}


def poly(coeffs, weights=None, bound=6):
    return GradedPoly(weights or W1, bound, coeffs)


def x_power(k, bound=6):
    return poly({(("x", k),): 1}, bound=bound) if k else poly({(): 1}, bound=bound)


def lagrange_inverse(coeffs, order):
    """Oracle: compositional inverse by Lagrange inversion,
    g_n = (1/n) [x^(n-1)] (x / f(x))^n, for f = x + a2 x^2 + ...
    (coeffs[k] = coefficient of x^k)."""
    out = {1: Fraction(1)}
    for n in range(2, order + 1):
        # (x / f)^n = (1 + a2 x + a3 x^2 + ...)^(-n); expand by powers
        base = {0: Fraction(1)}
        h = {k - 1: Fraction(coeffs.get(k, 0)) for k in range(2, order + 1)}
        # (1 + h)^(-n) via binomial series in h
        acc = {0: Fraction(1)}
        hp = {0: Fraction(1)}
        coef = Fraction(1)
        for k in range(1, n):
            coef = coef * Fraction(-n - k + 1, k)
            nhp = {}
            for d1, c1 in hp.items():
                for d2, c2 in h.items():
                    if d1 + d2 <= order:
                        nhp[d1 + d2] = nhp.get(d1 + d2, Fraction(0)) + c1 * c2
            hp = nhp
            for d, c in hp.items():
                acc[d] = acc.get(d, Fraction(0)) + coef * c
        out[n] = acc.get(n - 1, Fraction(0)) / n
    return out


def test_mul_by_one_and_truncation():
    p = poly({(("x", 1),): 2, (): 3})
    one = poly({(): 1})
    assert p * one == p
    x = poly({(("x", 1),): 1}, bound=1)
    assert (x * x).is_zero()


def test_difference_of_squares():
    a = poly({(): 1, (("x", 1),): 1})
    b = poly({(): 1, (("x", 1),): -1})
    assert a * b == poly({(): 1, (("x", 2),): -1})


def test_mismatched_ambients_rejected():
    p = poly({(): 1})
    q = GradedPoly({"x": 1}, 9, {(): 1})
    with pytest.raises(GradedPolyError):
        p * q
    r = GradedPoly({"x": 2}, 6, {(): 1})
    with pytest.raises(GradedPolyError):
        p + r


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    weights = {"x": 1, "y": 2}

    def rand_poly():
        coeffs = {}
        for _ in range(rng.randint(0, 4)):
            ex, ey = rng.randint(0, 3), rng.randint(0, 2)
            mon = tuple(m for m in (("x", ex), ("y", ey)) if m[1])
            coeffs[mon] = rng.randint(-4, 4)
        return GradedPoly(weights, 5, coeffs)

    a, b, c = rand_poly(), rand_poly(), rand_poly()
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a


def int_series(coeffs):
    """An integer series as a bpoly series: coeffs[d] is the coefficient
    of x^d."""
    return [bpoly.scale(bpoly.ONE, c) for c in coeffs]


def test_compose_examples():
    x = int_series([0, 1, 0, 0, 0])
    f = int_series([0, 0, 1, 0, 0])
    g = int_series([0, 1, 1, 0, 0])
    assert ser_compose(x, g, 4) == g
    assert ser_compose(f, g, 4) == int_series([0, 0, 1, 2, 1])
    assert ser_compose(g, x, 4) == g


def test_inverse_against_lagrange_oracle():
    g = ser_inverse(int_series([0, 1, 1, 0, 0]), 4)
    oracle = lagrange_inverse({2: 1}, 4)
    assert [oracle[k] for k in (2, 3, 4)] == [-1, 2, -5]
    assert g == int_series([0, 1, -1, 2, -5])
    g2 = ser_inverse(int_series([0, 1, -1, 0, 0]), 4)
    assert g2 == int_series([0, 1, 1, 2, 5])
    f = int_series([0, 1, 3, 0, -2, 1])
    oracle = lagrange_inverse({2: 3, 4: -2, 5: 1}, 5)
    assert ser_inverse(f, 5) == int_series(
        [0] + [oracle[k] for k in range(1, 6)])


def test_inverse_identity_and_involution():
    x = int_series([0, 1, 0, 0, 0, 0])
    assert ser_inverse(x, 5) == x
    f = int_series([0, 1, 3, 0, -2, 0])
    assert ser_inverse(ser_inverse(f, 5), 5) == f


def test_reciprocal_examples():
    w = {"h": 1}
    one = GradedPoly(w, 3, {(): 1})
    assert reciprocal(one) == one
    f = GradedPoly(w, 3, {(): 1, (("h", 1),): 1})
    r = reciprocal(f)
    assert [r.coefficient((("h", k),)) for k in (1, 2, 3)] == [-1, 1, -1]
    g = GradedPoly(w, 3, {(): 1, (("h", 1),): 4})
    r = reciprocal(g)
    assert [r.coefficient((("h", k),)) for k in (1, 2, 3)] == [-4, 16, -64]
    assert (g * r) == one
    with pytest.raises(GradedPolyError):
        reciprocal(GradedPoly(w, 3, {(("h", 1),): 1}))


def sym_weights(k, bound):
    w = {"x%d" % i: 1 for i in range(1, k + 1)}
    w.update({"c%d" % i: i for i in range(1, k + 1)})
    return w


def test_elementary_symmetric_examples():
    w = sym_weights(2, 4)
    e1 = GradedPoly(w, 4, {(("x1", 1),): 1, (("x2", 1),): 1})
    out = elementary_symmetric_rewrite(e1, ["x1", "x2"], ["c1", "c2"])
    assert out == GradedPoly(w, 4, {(("c1", 1),): 1})
    e2 = GradedPoly(w, 4, {(("x1", 1), ("x2", 1)): 1})
    out = elementary_symmetric_rewrite(e2, ["x1", "x2"], ["c1", "c2"])
    assert out == GradedPoly(w, 4, {(("c2", 1),): 1})
    p2 = GradedPoly(w, 4, {(("x1", 2),): 1, (("x2", 2),): 1})
    out = elementary_symmetric_rewrite(p2, ["x1", "x2"], ["c1", "c2"])
    assert out == GradedPoly(w, 4, {(("c1", 2),): 1, (("c2", 1),): -2})


def test_elementary_symmetric_rejects_asymmetric():
    w = sym_weights(2, 4)
    f = GradedPoly(w, 4, {(("x1", 1),): 1})
    with pytest.raises(GradedPolyError):
        elementary_symmetric_rewrite(f, ["x1", "x2"], ["c1", "c2"])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_rewrite_round_trip(seed):
    """Rewrite then substitute e_i back recovers the input."""
    rng = random.Random(seed)
    k = rng.choice([2, 3])
    w = sym_weights(k, 5)
    xs = ["x%d" % i for i in range(1, k + 1)]
    cs = ["c%d" % i for i in range(1, k + 1)]
    # random symmetric input: polynomial in the e_i
    f = GradedPoly(w, 5, {(): rng.randint(-3, 3)})
    for i in range(1, k + 1):
        e = elementary_symmetric(w, 5, xs, i)
        f = f + e.scale(rng.randint(-3, 3)) + (e * e).scale(rng.randint(-1, 1))
    assert is_symmetric(f, xs)
    rewritten = elementary_symmetric_rewrite(f, xs, cs)
    back = rewritten
    for i, c in enumerate(cs, start=1):
        back = back.substitute(c, elementary_symmetric(w, 5, xs, i))
    assert back == f
