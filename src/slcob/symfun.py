"""Transition matrices between symmetric-function bases, per weight.

Bases indexed by partitions of w in the global reverse-lexicographic order:
  m (monomial), e (elementary, = Chern monomials), p (power sums).
Both transitions kept here are integer counts:

  * p_lambda expanded in the m basis has the coefficients "number of ways
    to distribute the parts of lambda onto the parts of mu", built one
    part at a time by the Pieri rule for p_k m_mu;
  * e_mu expanded in the m basis has the coefficients "number of 0/1
    matrices with row sums mu and column sums nu" (Macdonald, Symmetric
    Functions and Hall Polynomials, I.6); `mu.hurewicz_to_chern_numbers`
    pairs it with the monomial numbers of a class.

Vectors over a weight are dicts {partition: coefficient}; matrices are
dicts {(row_partition, col_partition): coefficient}.
"""

from functools import lru_cache
from math import comb

from .partitions import partitions_of


@lru_cache(maxsize=None)
def _p_in_m(lam):
    """p_lam in the m basis, {mu: distribute_count(lam, mu)} without its
    zeros, as p_lam = p_k p_rest with k = lam[0] and the Pieri rule
    p_k m_mu = sum_nu mult_nu(v + k) m_nu, where nu is mu with one part
    v raised by k (v = 0 appends a part k)."""
    if not lam:
        return {(): 1}
    k = lam[0]
    out = {}
    for mu, c in _p_in_m(lam[1:]).items():
        for v in set(mu) | {0}:
            nu = list(mu)
            if v:
                nu.remove(v)
            nu = tuple(sorted(nu + [v + k], reverse=True))
            out[nu] = out.get(nu, 0) + c * nu.count(v + k)
    return out


@lru_cache(maxsize=None)
def distribute_count(lam, mu):
    """Coefficient of the monomial x^mu in p_lam = prod_i (sum_j x_j^{lam_i}):
    the number of maps from the parts of lam onto the slots of mu filling
    each slot exactly.  p_1^2 = m_2 + 2 m_11:

    >>> distribute_count((1, 1), (2,)), distribute_count((1, 1), (1, 1))
    (1, 2)
    """
    slots = tuple(sorted((s for s in mu if s), reverse=True))
    return _p_in_m(tuple(lam)).get(slots, 0)


def _zero_one_count(rows, cols, memo):
    """Number of 0/1 matrices with row sums `rows` and column sums `cols`
    (both partitions).  The first row takes one unit from each of rows[0]
    distinct columns; columns of equal remaining sum are interchangeable,
    so the choice is how many to take from each such group."""
    if not rows:
        return 0 if cols else 1
    key = (rows, cols)
    hit = memo.get(key)
    if hit is not None:
        return hit
    total = 0
    if rows[0] <= len(cols):
        groups = []
        for c in cols:
            if groups and groups[-1][0] == c:
                groups[-1][1] += 1
            else:
                groups.append([c, 1])
        # (ways, units still to take, new column sums); groups go in
        # decreasing order, so the new column sums stay sorted
        partial = [(1, rows[0], ())]
        for value, mult in groups:
            nxt = []
            for ways, need, new in partial:
                for k in range(min(mult, need) + 1):
                    nxt.append((ways * comb(mult, k), need - k,
                                new + (value,) * (mult - k) + (value - 1,) * k))
            partial = nxt
        rest = rows[1:]
        for ways, need, new in partial:
            if need == 0:
                while new and new[-1] == 0:
                    new = new[:-1]
                total += ways * _zero_one_count(rest, new, memo)
    memo[key] = total
    return total


@lru_cache(maxsize=None)
def e_to_m_matrix(w):
    """Matrix E with E[mu][nu] = coefficient of m_nu in e_mu: the number of
    0/1 matrices with row sums mu and column sums nu."""
    memo = {}
    parts = partitions_of(w)
    mat = {}
    for mu in parts:
        for nu in parts:
            c = _zero_one_count(mu, nu, memo)
            if c:
                mat[(mu, nu)] = c
    return mat
