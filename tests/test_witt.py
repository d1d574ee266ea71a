import os
import subprocess
import sys
from itertools import product

import pytest

from oracles import gl_canonical
from slcob.abelian import FGAbGroup
from slcob.witt import (FieldDescriptor, field_descriptor, witt_data,
                        FINITE_Q1, FINITE_Q3, QUADRATICALLY_CLOSED,
                        REAL_CLOSED)
from slcob.wittforms import FormCalculus


def test_descriptor_validation():
    with pytest.raises(ValueError, match="characteristic 1"):
        FieldDescriptor(QUADRATICALLY_CLOSED, 3)
    with pytest.raises(ValueError, match="odd prime"):
        FieldDescriptor(FINITE_Q1, 2)
    with pytest.raises(ValueError, match="odd prime"):
        FieldDescriptor(FINITE_Q3, 9)  # exponential characteristic is 3
    with pytest.raises(ValueError, match="unknown field kind"):
        FieldDescriptor("p_adic")
    assert field_descriptor("fq1", 9).exponential_characteristic == 3
    assert field_descriptor("r").inverted_primes == frozenset()
    assert field_descriptor("fq3", 7).inverted_primes == frozenset([7])


@pytest.mark.parametrize("kind,q,char", [
    ("fq1", 5, 5), ("fq1", 13, 13), ("fq1", 25, 5), ("fq1", 9, 3),
    ("fq1", None, 5), ("fq3", 3, 3), ("fq3", 7, 7), ("fq3", 27, 3),
    ("fq3", None, 3), ("c", None, 1), ("r", None, 1)])
def test_field_descriptor_accepts(kind, q, char):
    assert field_descriptor(kind, q).exponential_characteristic == char


@pytest.mark.parametrize("kind,q", [
    ("fq1", 7), ("fq3", 5), ("fq1", 4), ("fq3", 15), ("fq1", 45),
    ("fq1", 1), ("fq1", -3), ("fq3", -1), ("zz", None), ("fq", 5),
    ("c", 5), ("r", 7)])
def test_field_descriptor_rejects(kind, q):
    with pytest.raises(ValueError) as err:
        field_descriptor(kind, q)
    assert str(err.value)


def test_trial_division_helpers():
    from slcob.abelian import _factorint, _is_prime
    from slcob.witt import _char_of
    assert _char_of(25) == 5 and _char_of(27) == 3 and _char_of(7) == 7
    assert _char_of(15) is None and _char_of(1) is None
    assert [n for n in range(-2, 30) if _is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert _factorint(360) == {2: 3, 3: 2, 5: 1}
    assert _factorint(1) == {} and _factorint(0) == {}


def test_prime_power_check_matches_trial_division():
    from slcob.abelian import _factorint, _is_prime
    from slcob.witt import _char_of
    for q in range(-3, 10 ** 5):
        f = _factorint(q)
        assert _is_prime(q) == (f == {q: 1})
        assert _char_of(q) == (next(iter(f)) if len(f) == 1 else None)


def test_prime_power_check_large():
    from slcob.abelian import PRIME_BOUND, _is_prime
    from slcob.witt import _char_of
    p = 10 ** 18 + 9  # prime
    assert _is_prime(p) and _char_of(p) == p
    r = 10 ** 9 + 7  # prime
    assert _char_of(r ** 2) == r and _char_of(r * (r + 2)) is None
    assert _char_of(3 ** 50) == 3 and _char_of(2 ** 80) == 2
    # strong pseudoprimes to the first 4, 7, 9 and 12 prime bases
    for n in (3215031751, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(2 ** 61 - 1) and not _is_prime(2 ** 67 - 1)
    for bad in (PRIME_BOUND, 10 ** 30):
        with pytest.raises(ValueError, match=str(PRIME_BOUND)):
            _char_of(bad)
        with pytest.raises(ValueError, match=str(PRIME_BOUND)):
            field_descriptor("fq1", bad - bad % 4 + 1)


def test_tables():
    wc = witt_data(field_descriptor("c"))
    assert wc.w == FGAbGroup.cyclic(2)
    assert wc.gw == FGAbGroup.free(1)
    assert wc.fundamental_ideal_power(1).is_trivial()

    wr = witt_data(field_descriptor("r"))
    assert wr.w == FGAbGroup.free(1)
    assert wr.gw == FGAbGroup.free(2)
    assert wr.fundamental_ideal_power(3) == FGAbGroup.free(1)

    for kind, wgroup in ((FINITE_Q1, FGAbGroup.from_divisors([2, 2], [5])),
                         (FINITE_Q3, FGAbGroup.cyclic(4, [3]))):
        fd = field_descriptor("fq1" if kind == FINITE_Q1 else "fq3")
        wd = witt_data(fd)
        assert wd.w == wgroup
        assert wd.gw == FGAbGroup.from_divisors([0, 2], fd.inverted_primes)
        assert wd.fundamental_ideal_power(1) == FGAbGroup.cyclic(
            2, fd.inverted_primes)
        assert wd.fundamental_ideal_power(2).is_trivial()


def test_witt_data_is_built_once_per_field():
    """Equal descriptors, built apart, give the one record."""
    for kind in ("c", "r", "fq1", "fq3"):
        fd = field_descriptor(kind)
        twin = FieldDescriptor(fd.kind, fd.exponential_characteristic)
        assert twin is not fd and witt_data(twin) is witt_data(fd)


def test_ideal_power_examples():
    assert witt_data(field_descriptor("c")).fundamental_ideal_power(1).is_trivial()
    r = witt_data(field_descriptor("r"))
    assert r.fundamental_ideal_power(0) == r.w
    q1 = witt_data(field_descriptor("fq1"))
    assert q1.fundamental_ideal_power(2).is_trivial()


def test_two_primary_torsion():
    assert witt_data(field_descriptor("r")).two_primary_torsion_of_ideal(2).is_trivial()
    assert witt_data(field_descriptor("c")).two_primary_torsion_of_ideal(1).is_trivial()
    q3 = witt_data(field_descriptor("fq3"))
    assert q3.two_primary_torsion_of_ideal(1) == FGAbGroup.cyclic(2, [3])


def test_gw_is_ideal_plus_rank_section():
    for kind in ("c", "r", "fq1", "fq3"):
        fd = field_descriptor(kind)
        wd = witt_data(fd)
        ideal = wd.fundamental_ideal_power(1)
        assert wd.gw == ideal.direct_sum(FGAbGroup.free(1, fd.inverted_primes))


def test_rank_mod2_and_w_mod_i():
    for kind in ("c", "r", "fq1", "fq3"):
        wd = witt_data(field_descriptor(kind))
        # I is the rank kernel in GW
        assert wd.gw_rank((-1, 1)) == 0
        assert wd.gw_rank((1, 0)) != 0


def test_gw_calculus():
    wd = witt_data(field_descriptor("fq3"))
    one, u = (1, 0), (0, 1)
    assert wd.gw_mul(u, u) == wd.gw_normalize(one)
    h = wd.hyperbolic()
    assert wd.gw_rank(h) == 2
    # 2<1> = 2<u> under the hyperbolic relation
    assert wd.gw_normalize((2, 0)) == wd.gw_normalize((0, 2))


@pytest.mark.parametrize("kind,normal,hyperbolic", [
    ("c", (5, 0), (2, 0)), ("r", (2, 3), (1, 1)), ("fq1", (4, 1), (2, 0)),
    ("fq3", (4, 1), (1, 1))])
def test_gw_normal_form_and_hyperbolic_form_per_kind(kind, normal,
                                                     hyperbolic):
    """2<1> + 3<u>: <u> = <1> over C, free over R, 2<u> = 2<1> over F_q.
    The hyperbolic form is 2<1> where -1 is a square, else <1> + <u>."""
    wd = witt_data(field_descriptor(kind))
    assert wd.gw_normalize((2, 3)) == normal
    assert wd.hyperbolic() == hyperbolic


def witt_group_from_oracle(q):
    return FormCalculus(q).group_structure()


@pytest.mark.parametrize("q,expected", [(3, (4,)), (5, (2, 2)), (7, (4,)),
                                        (9, (2, 2))])
def test_brute_force_oracle_group(q, expected):
    assert witt_group_from_oracle(q) == expected


@pytest.mark.parametrize("q", [3, 5, 7])
def test_brute_force_oracle_ideal(q):
    fc = FormCalculus(q)
    assert len(fc.fundamental_ideal()) == 2  # I = Z/2 inside W
    assert fc.ideal_square_elements() == [()]  # I^2 = 0
    assert fc.rank_disc_classifies()


def test_oracle_agrees_with_tables():
    for q in (3, 5, 7, 9):
        fc = FormCalculus(q)
        fd = field_descriptor("fq3" if q % 4 == 3 else "fq1", q)
        wd = witt_data(fd)
        oracle = FGAbGroup.from_divisors(fc.group_structure(),
                                         fd.inverted_primes)
        assert oracle == wd.w


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_canonical_form_is_least_over_gl_n(q):
    """The least sorted diagonal over the orthogonal bases of a unit
    diagonal form of rank 1 or 2 is the least over all of GL_n."""
    fc = FormCalculus(q)
    for r in (1, 2):
        for diag in product(fc.F.units(), repeat=r):
            assert fc.isometry_canonical(diag) == gl_canonical(fc.F, diag)


def test_real_closed_signature_oracle():
    """Signatures multiply, so the m-th ideal power is generated by forms
    of signature +-2^m: on diagonals, and on the package's GW pairs (a, b)
    over <1>, <-1>, of signature a - b, multiplied by `gw_mul`."""
    sig = {(): 0, (1,): 1, (-1,): -1}

    def signature(diag):
        return sum(1 if x > 0 else -1 for x in diag)

    binary_even = [(1, 1), (1, -1), (-1, -1)]
    sigs = {signature(d) for d in binary_even}
    assert sigs == {2, 0, -2}
    # products of m binary forms have signature divisible by 2^m
    from itertools import product as iproduct
    for m in (2, 3):
        values = set()
        for combo in iproduct(binary_even, repeat=m):
            s = 1
            for d in combo:
                s *= signature(d)
            values.add(s)
        assert {abs(v) for v in values} <= {0, 2 ** m}
    wr = witt_data(field_descriptor("r"))
    binary = [(2, 0), (1, 1), (0, 2)]
    assert [a - b for a, b in binary] == [signature(d) for d in binary_even]
    for m in (1, 2, 3):
        values = set()
        for combo in iproduct(binary, repeat=m):
            x = (1, 0)
            for y in combo:
                x = wr.gw_mul(x, y)
            values.add(x[0] - x[1])
        assert values == {0, 2 ** m, -2 ** m}
    a, b = wr.hyperbolic()
    assert a - b == 0
    for m in range(4):  # I^0 = W
        assert wr.fundamental_ideal_power(m) == FGAbGroup.free(1)


ORACLE_FAILURES = """
from slcob.wittforms import GF, FormCalculus
fc, stuck = FormCalculus(5), FormCalculus(3)
stuck.witt_add = lambda a, b: a  # no element ever returns to 0
for case in (lambda: GF(4), lambda: GF(1), lambda: fc.F.inv(0),
             lambda: fc.diagonalize([[0]]),
             lambda: fc.anisotropic_kernel((0,)),
             lambda: fc.isometry_canonical((1, 2, 3)),
             stuck.group_structure):
    try:
        case()
        print("none")
    except (ValueError, AssertionError) as exc:
        print(type(exc).__name__)
"""


def test_oracle_checks_survive_optimize(capsys):
    """A q that is neither prime nor 9 is a ValueError; 1/0, a degenerate
    form in `diagonalize` and in `anisotropic_kernel`, an anisotropic
    kernel of rank 3 and an element order above the group order are
    AssertionErrors, in-process and under python -O."""
    expected = ["ValueError"] * 2 + ["AssertionError"] * 5
    exec(ORACLE_FAILURES, {})
    assert capsys.readouterr().out.split() == expected
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run([sys.executable, "-O", "-c", ORACLE_FAILURES],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.split() == expected


def test_quadratically_closed_oracle():
    """Where -1 is a square (as in any quadratically closed field, and in
    F_5), the rank-2 form of squares is hyperbolic; forms with square
    entries reduce by rank mod 2."""
    fc = FormCalculus(5)
    assert fc.anisotropic_kernel((1, 1)) == ()
    assert fc.anisotropic_kernel((1, 4)) == ()  # 4 is a square
    assert fc.anisotropic_kernel((1, 1, 1)) == (1,)
