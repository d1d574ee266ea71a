"""Fast arithmetic in Z[b1, b2, ...] with monomials keyed by integer codes.

The Hurewicz model stores everything as integer polynomials in the homology
generators b_i (weight i).  A monomial b_{i1} b_{i2} ... is the partition
(i1 >= i2 >= ...), keyed by its code `partitions.encode`, the product of
the primes p_(i1) p_(i2) ...; a polynomial is a dict {code: int} with no
zero values.  Codes rather than partition tuples because the product of
two monomials is then the product of their codes (unique factorisation),
one integer multiplication where tuples need a merge and a sort.  This
bare representation is the hot path of the whole package and its only
polynomial arithmetic.  Chern monomials c^omega are coded the same way,
and the reciprocal Chern class is computed here with c_i in the role of
b_i.

Products keep every term; the weight bound truncates series, at the
power `top` of the series variable, and never their coefficients.
"""

from .partitions import codes_of, encode

ONE = {1: 1}


def add(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def scale(a, c):
    if c == 0:
        return {}
    return {k: c * v for k, v in a.items()}


def mul(a, b):
    return mul_into({}, a, b)


def mul_into(out, a, b, c=1):
    """out += c * a * b in place, for an integer c; returns out."""
    for k1, v1 in a.items():
        v1 *= c
        for k2, v2 in b.items():
            k = k1 * k2
            s = out.get(k, 0) + v1 * v2
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    return out


def gen(i):
    return {encode((i,)): 1}


def vector(a, n):
    """The weight-n polynomial a as a vector in partition order."""
    return [a.get(c, 0) for c in codes_of(n)]


# -- univariate series with bpoly coefficients ---------------------------
# A series is a list s[d] = bpoly coefficient of x^d, d = 0 .. top.


def ser_zero(top):
    return [{} for _ in range(top + 1)]


def ser_mul(f, g, top):
    out = ser_zero(top)
    for i, fi in enumerate(f):
        if i > top or not fi:
            continue
        for j, gj in enumerate(g):
            if i + j > top or not gj:
                continue
            mul_into(out[i + j], fi, gj)
    return out


def ser_powers(f, top, count):
    """[f^1, f^2, ..., f^count] truncated at degree top."""
    out = [f]
    cur = f
    for _ in range(count - 1):
        cur = ser_mul(cur, f, top)
        out.append(cur)
    return out
