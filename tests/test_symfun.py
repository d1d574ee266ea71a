from fractions import Fraction

import oracles
from oracles import (e_monomial_in_p, newton_e_to_m_matrix, p_vec_to_m_vec,
                     pair_keyed)
from slcob.partitions import partitions_of
from slcob.symfun import distribute_count, e_to_m_matrix


def expand_in_variables(term, k):
    """Oracle: expand a p- or m-monomial in k explicit variables as a dict
    {exponent tuple: coefficient}."""
    kind, lam = term
    if kind == "p":
        out = {tuple([0] * k): 1}
        for part in lam:
            nxt = {}
            for e, c in out.items():
                for i in range(k):
                    e2 = list(e)
                    e2[i] += part
                    key = tuple(e2)
                    nxt[key] = nxt.get(key, 0) + c
            out = nxt
        return out
    raise ValueError


def test_distribute_count_against_expansion():
    for w in range(1, 6):
        for lam in partitions_of(w):
            exp = expand_in_variables(("p", lam), w)
            for mu in partitions_of(w):
                canonical = tuple(list(mu) + [0] * (w - len(mu)))
                assert distribute_count(lam, mu) == exp.get(canonical, 0)


def test_newton_small_cases():
    assert e_monomial_in_p((1,)) == {(1,): Fraction(1)}
    assert e_monomial_in_p((2,)) == {(1, 1): Fraction(1, 2),
                                     (2,): Fraction(-1, 2)}
    # e2 = m_(1,1): check via the e-to-m matrix
    E = pair_keyed(e_to_m_matrix(2), 2)
    assert E[((2,), (1, 1))] == 1
    assert ((2,), (2,)) not in E


def test_e_to_m_matches_newton():
    """The 0/1-matrix count equals the expansion through Newton's identity
    and the p basis."""
    for w in range(0, 11):
        assert pair_keyed(e_to_m_matrix(w), w) == newton_e_to_m_matrix(w)


def test_m_to_e_inverse():
    """The Gauss-Jordan inverse of the e-to-m matrix that the operation
    oracles use to write classes in Chern variables."""
    for w in range(1, 13):
        E = pair_keyed(e_to_m_matrix(w), w)
        M = oracles.m_to_e_matrix(w)
        parts = partitions_of(w)
        for a in parts:
            row = [(mu, c) for mu in parts for c in [M.get((a, mu), 0)] if c]
            for b in parts:
                s = sum(c * E.get((mu, b), 0) for mu, c in row)
                assert s == (1 if a == b else 0)


def test_m_monomial_in_e_examples():
    """Rows of the m-to-e matrix: m_(2) = e1^2 - 2 e2 (Newton),
    m_(1,1) = e2, m_(1) = e1."""
    M = oracles.m_to_e_matrix(2)
    assert {mu: M[((2,), mu)] for mu in ((1, 1), (2,))} == {(1, 1): 1, (2,): -2}
    assert M[((1, 1), (2,))] == 1 and ((1, 1), (1, 1)) not in M
    assert oracles.m_to_e_matrix(1) == {((1,), (1,)): 1}


def test_p_vec_to_m_vec():
    # p_(1,1) = m_(2) + 2 m_(1,1)
    out = p_vec_to_m_vec({(1, 1): 1})
    assert out == {(2,): 1, (1, 1): 2}


def test_p_vec_to_m_vec_against_distribute_count():
    """The Pieri expansion keeps exactly the nonzero distribution counts,
    counted slot by slot, one partition at a time and for a combination
    of all of a weight."""
    for w in range(0, 11):
        parts = partitions_of(w)
        for lam in parts:
            exp = {mu: oracles.distribute_count(lam, mu) for mu in parts}
            assert {mu: distribute_count(lam, mu) for mu in parts} == exp
            assert p_vec_to_m_vec({lam: 1}) == \
                {mu: c for mu, c in exp.items() if c}
        vec = {lam: k - 3 for k, lam in enumerate(parts)}
        exp = {mu: sum(c * oracles.distribute_count(lam, mu)
                       for lam, c in vec.items())
               for mu in parts}
        assert p_vec_to_m_vec(vec) == {mu: c for mu, c in exp.items() if c}


def test_e_to_m_by_pieri_against_zero_one_matrices():
    """Rows built by the Pieri rule e_k m_nu equal the 0/1-matrix counts,
    entry for entry and in the same order."""
    for w in range(0, 14):
        got = pair_keyed(e_to_m_matrix(w), w)
        expected = oracles.zero_one_e_to_m_matrix(w)
        assert list(got.items()) == list(expected.items()), w
