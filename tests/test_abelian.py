import random

from hypothesis import given, settings, strategies as st

from oracles import group_from_json, invariant_factors_by_prime
from slcob.abelian import FGAbGroup, cokernel
from slcob.intmat import IntMatrix


def test_cokernel_examples():
    assert cokernel(IntMatrix.from_rows([[2]])) == FGAbGroup.cyclic(2)
    assert cokernel(IntMatrix.from_rows([[2]])).localize([2]).is_trivial()
    m = IntMatrix.from_rows([[1, 0], [0, 4]])
    assert cokernel(m) == FGAbGroup.cyclic(4)


def test_normal_form_rules():
    g = FGAbGroup.from_divisors([0, 4, 6])
    assert g.free_rank == 1
    assert g.invariant_factors == (2, 12)
    assert FGAbGroup.from_divisors([1, 1]).is_trivial()


def test_localization_strips_torsion():
    g = FGAbGroup.from_divisors([12, 0], [3])
    assert g.invariant_factors == (4,)
    assert g.free_rank == 1
    assert g.localize([2]).invariant_factors == ()


def test_no_factor_divisible_by_inverted_prime():
    g = FGAbGroup.from_divisors([10, 15], [5])
    assert all(f % 5 != 0 for f in g.invariant_factors)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=6), st.integers(0, 10 ** 6))
def test_representation_idempotent(divisors, seed):
    """Re-presenting a normal form recomputes the identical normal form."""
    g = FGAbGroup.from_divisors(divisors)
    again = FGAbGroup.from_divisors(
        [0] * g.free_rank + list(g.invariant_factors))
    assert g == again
    # presenting through a diagonal relation matrix gives the same group
    rng = random.Random(seed)
    factors = list(g.invariant_factors)
    if factors:
        rows = len(factors)
        m = IntMatrix.from_rows(
            [[factors[i] if i == j else 0 for j in range(rows)]
             for i in range(rows)])
        assert cokernel(m) == g.torsion_part()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-72, 72), st.integers(0, 10 ** 6)),
                max_size=8),
       st.lists(st.sampled_from([2, 3, 5, 7]), max_size=2))
def test_from_divisors_matches_prime_power_bucketing(divisors, inverted):
    """The (gcd, lcm) normal form is the one read off the prime powers of
    the summands, with the inverted primes stripped."""
    g = FGAbGroup.from_divisors(divisors, inverted)
    assert (g.free_rank, g.invariant_factors) == \
        invariant_factors_by_prime(divisors, inverted)
    assert g.inverted_primes == frozenset(inverted)


def test_direct_sum_and_power():
    a = FGAbGroup.from_divisors([2])
    b = FGAbGroup.from_divisors([0, 3])
    s = a.direct_sum(b)
    assert s == FGAbGroup.from_divisors([0, 6])
    assert a.power(3) == FGAbGroup.from_divisors([2, 2, 2])
    assert a.power(0).is_trivial()


def test_primary_part():
    g = FGAbGroup.from_divisors([4, 12])
    assert g.primary_part(2) == FGAbGroup.from_divisors([4, 4])
    assert g.primary_part(3) == FGAbGroup.from_divisors([3])


def test_json_round_trip():
    g = FGAbGroup.from_divisors([0, 0, 2, 8], [3])
    assert group_from_json(g.to_json()) == g


def test_str():
    assert str(FGAbGroup.from_divisors([0, 2, 2])) == "Z + (Z/2)^2"
    assert str(FGAbGroup.trivial()) == "0"
