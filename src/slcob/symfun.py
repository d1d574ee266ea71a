"""Transition matrices between symmetric-function bases, per weight.

Bases indexed by partitions of w in the global reverse-lexicographic order:
  m (monomial), e (elementary, = Chern monomials), p (power sums).
Both transitions kept here are integer counts:

  * p_lambda expanded in the m basis has the coefficients "number of ways
    to distribute the parts of lambda onto the parts of mu", built one
    part at a time by the Pieri rule for p_k m_mu;
  * e_mu expanded in the m basis has the coefficients "number of 0/1
    matrices with row sums mu and column sums nu" (Macdonald, Symmetric
    Functions and Hall Polynomials, I.6), built one part at a time by the
    Pieri rule for e_k m_nu; `mu.hurewicz_to_chern_numbers` pairs it with
    the monomial numbers of a class.

The e-to-m matrix is an `intmat.IntMatrix`, rows and columns in
partition order.
"""

from functools import lru_cache
from math import comb

from .intmat import IntMatrix
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


@lru_cache(maxsize=None)
def _e_in_m(mu):
    """e_mu in the m basis without its zeros, as e_mu = e_k e_rest with
    k = mu[0] and the Pieri rule: e_k m_nu sums the monomials made from
    x^nu by raising k distinct entries (zeros included) by one, and the
    coefficient of m_lam counts the choices of entries of x^lam that
    lower back to x^nu, prod_u C(mult_lam(u), number lowered at u)."""
    if not mu:
        return {(): 1}
    k = mu[0]
    out = {}
    for nu, c in _e_in_m(mu[1:]).items():
        # (parts of lam so far, entries left to raise, ways, entries of the
        # last value kept), over the values of nu in decreasing order, so
        # that lam comes out sorted
        states, last = [((), k, c, 0)], 0
        for v in sorted(set(nu), reverse=True):
            m, adjacent = nu.count(v), last == v + 1
            states = [(lam + (v + 1,) * r + (v,) * (m - r), left - r,
                       ways * comb(r + kept * adjacent, r), m - r)
                      for lam, left, ways, kept in states
                      for r in range(min(m, left) + 1)]
            last = v
        for lam, left, ways, kept in states:  # zeros raise the rest to 1
            lam += (1,) * left
            ways *= comb(left + kept * (last == 1), left)
            out[lam] = out.get(lam, 0) + ways
    return out


@lru_cache(maxsize=None)
def e_to_m_matrix(w):
    """Matrix E with E[mu][nu] = coefficient of m_nu in e_mu: the number of
    0/1 matrices with row sums mu and column sums nu."""
    parts = partitions_of(w)
    return IntMatrix.from_rows([[_e_in_m(mu).get(nu, 0) for nu in parts]
                                for mu in parts])
