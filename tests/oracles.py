"""Independent oracles for the integer basis layer and the Wall kernel.

The library computes its transition matrices and lattice coordinates with
integer counting and back-substitution.  These helpers recompute the same
objects the slow, obviously-correct way, over the rationals: Newton's
identity for e in terms of p, dense Gauss-Jordan inversion, and the
reciprocal Chern class through GradedPoly.  The integer kernel is checked
against the one-shot echelon pass over an identity block, whose entries
grow far beyond the answer's but whose result is the same canonical form.
"""

from fractions import Fraction
from functools import lru_cache

from slcob.gradedpoly import GradedPoly, reciprocal
from slcob.intmat import IntMatrix, _column_echelon, _hermite_columns
from slcob.partitions import merge, partitions_of
from slcob.symfun import p_vec_to_m_vec


@lru_cache(maxsize=None)
def e_in_p(k):
    """e_k as a p-basis vector with Fraction coefficients, from Newton's
    identity k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i."""
    if k == 0:
        return {(): Fraction(1)}
    out = {}
    for i in range(1, k + 1):
        sign = Fraction((-1) ** (i - 1), k)
        for lam, c in e_in_p(k - i).items():
            key = merge(lam, (i,))
            out[key] = out.get(key, Fraction(0)) + sign * c
    return {k2: v for k2, v in out.items() if v}


@lru_cache(maxsize=None)
def e_monomial_in_p(mu):
    """e_mu = prod e_{mu_i} as a p-basis vector (Fractions)."""
    out = {(): Fraction(1)}
    for part in mu:
        nxt = {}
        for l1, c1 in out.items():
            for l2, c2 in e_in_p(part).items():
                key = merge(l1, l2)
                nxt[key] = nxt.get(key, Fraction(0)) + c1 * c2
        out = {k: v for k, v in nxt.items() if v}
    return out


def newton_e_to_m_matrix(w):
    """E[(mu, nu)] = coefficient of m_nu in e_mu, through the p basis."""
    mat = {}
    for mu in partitions_of(w):
        for nu, c in p_vec_to_m_vec(e_monomial_in_p(mu)).items():
            assert c.denominator == 1
            mat[(mu, nu)] = int(c)
    return mat


def gauss_jordan_inverse(rows):
    """Inverse of a square integer matrix (list of rows) over Q."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        sel = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[sel] = a[sel], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def graded_reciprocal_class_matrix(n):
    """R[(omega, omega2)]: the Chern monomial c^omega of 1/c(E) in Chern
    monomials of E, computed with GradedPoly over the variables c_i."""
    weights = {"c%d" % i: i for i in range(1, n + 1)}
    total = GradedPoly.const(weights, n, 1)
    for i in range(1, n + 1):
        total = total + GradedPoly.gen(weights, n, "c%d" % i)
    recip = reciprocal(total)
    pieces = {w: recip.homogeneous_part(w) for w in range(1, n + 1)}
    mat = {}
    for omega in partitions_of(n):
        prod = GradedPoly.const(weights, n, 1)
        for part in omega:
            prod = prod * pieces[part]
        for omega2 in partitions_of(n):
            mon = {}
            for i in omega2:
                mon["c%d" % i] = mon.get("c%d" % i, 0) + 1
            c = prod.coefficient(tuple(sorted(mon.items())))
            assert c.denominator == 1
            if c:
                mat[(omega, omega2)] = int(c)
    return mat


def kernel_basis_one_shot(mat):
    """Z-basis of {v : mat*v = 0} in reduced column Hermite form, by one
    column echelon pass over mat stacked on an identity block: the columns
    whose top part vanishes span the kernel, and a Hermite pass on their
    identity parts makes the basis canonical."""
    n = mat.cols
    columns = [list(mat.column(j)) + [int(i == j) for i in range(n)]
               for j in range(n)]
    _column_echelon(mat.rows, n, columns)
    kernel_cols = [c[mat.rows:] for c in columns if not any(c[: mat.rows])]
    return IntMatrix.from_columns(n, _hermite_columns(n, kernel_cols))
