import pytest

import oracles
from slcob.abelian import FGAbGroup
from slcob.kq import KQElement, KQPresentation
from slcob.witt import field_descriptor

ALL_KINDS = ("c", "r", "fq1", "fq3")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_diagonal_table(kind):
    pres = KQPresentation(field_descriptor(kind))
    assert pres.kq_diagonal(1) == FGAbGroup.cyclic(
        2, pres.field.inverted_primes)
    assert pres.kq_diagonal(3).is_trivial()
    assert pres.kq_diagonal(2) == FGAbGroup.free(1, pres.field.inverted_primes)
    assert pres.kq_diagonal(0) == pres.witt.gw


def test_finite_field_degree_eight():
    pres = KQPresentation(field_descriptor("fq1"))
    assert pres.kq_diagonal(8) == FGAbGroup.from_divisors([0, 2], [5])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_relations_to_degree_sixteen(kind):
    pres = KQPresentation(field_descriptor(kind))
    failures = [(n, d) for n, ok, d in pres.relation_check() if not ok]
    assert failures == []


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_periodicity_including_negative_degrees(kind):
    pres = KQPresentation(field_descriptor(kind))
    for n in range(-8, 13):
        assert pres.kq_diagonal(n) == pres.kq_diagonal(n + 4)
        assert pres.kw_diagonal(n) == pres.kw_diagonal(n + 4)


def test_kw_diagonal():
    assert KQPresentation(field_descriptor("r")).kw_diagonal(0) == \
        FGAbGroup.free(1)
    assert KQPresentation(field_descriptor("c")).kw_diagonal(2).is_trivial()
    assert KQPresentation(field_descriptor("fq3")).kw_diagonal(4) == \
        FGAbGroup.cyclic(4, [3])


def test_h_squared_relation_in_degree_four():
    pres = KQPresentation(field_descriptor("r"))
    H = pres.generator(2)
    hh = pres.multiply(H, H)
    assert hh.degree == 4
    h = pres.witt.hyperbolic()
    assert hh == pres.element(4, (2 * h[0], 2 * h[1]))


def test_eta_eta_top_order_two():
    pres = KQPresentation(field_descriptor("fq3"))
    for m in range(3):
        el = pres.element(1 + 4 * m, 1)
        assert not pres.is_zero(el)
        assert pres.is_zero(pres.gw_action((2, 0), el))


@pytest.mark.parametrize("kind,expect_iso", [("c", True), ("r", False),
                                             ("fq1", False), ("fq3", False)])
def test_eta_top_factorization(kind, expect_iso):
    pres = KQPresentation(field_descriptor(kind))
    surjective, kernel_is_ideal, iso = pres.eta_top_square_check()
    assert surjective and kernel_is_ideal
    assert iso == expect_iso


def test_generators_per_degree():
    pres = KQPresentation(field_descriptor("r"))
    assert pres.generator(3) is None
    for n in (0, 1, 2, 4, 5, 6, 8):
        g = pres.generator(n)
        assert not pres.is_zero(g)


COEFFS = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]


def as_pair(x):
    """A reference element as a KQElement: its int coefficient k is the GW
    pair (k, 0), and None is (0, 0)."""
    n, c = x
    c = (0, 0) if c is None else (c, 0) if isinstance(c, int) else c
    return KQElement(n, c)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_element_calculus_matches_per_residue_reference(kind):
    """element, is_zero, gw_action, multiply and generator on one GW pair
    per element, against the rules per residue mod 4, in degrees -8..16
    with GW coefficients (a, b), -3 <= a, b <= 3."""
    pres = KQPresentation(field_descriptor(kind))
    ref = oracles.KQByResidue(pres.witt)
    degrees = range(-8, 17)
    # each coefficient (a, b) of one factor with (b, -a) of the other
    partner = [COEFFS.index((b, -a)) for a, b in COEFFS]
    elements, reference = {}, {}
    for n in degrees:
        g = ref.generator(n)
        assert pres.generator(n) == (None if g is None else as_pair(g))
        for k in range(-3, 4):
            assert pres.element(n, k) == as_pair(
                ref.element(n, k if n % 4 else (k, 0)))
        # c * g_r; the reference reaches it as the action of c on g_r
        elements[n] = [pres.element(n, c) for c in COEFFS]
        reference[n] = [ref.zero(n) if g is None else ref.gw_action(c, g)
                        for c in COEFFS]
        for x, y, j in zip(elements[n], reference[n], partner):
            assert x == as_pair(y)
            assert pres.is_zero(x) == ref.is_zero(y)
            c = COEFFS[j]
            assert pres.gw_action(c, x) == as_pair(ref.gw_action(c, y))
    for n in degrees:
        for m in degrees:
            for i, j in enumerate(partner):
                assert pres.multiply(elements[n][i], elements[m][j]) == \
                    as_pair(ref.multiply(reference[n][i], reference[m][j]))
