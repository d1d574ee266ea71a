from fractions import Fraction

import pytest

import oracles
from oracles import chern_number, cpn_tangent_numbers
from slcob import charnum, mu


def test_quartic_surface(ctx, cf):
    q = charnum.hypersurface_class(ctx, 3, 4)
    assert q.dimension == 2
    numbers = q.tangent()
    assert numbers[(2,)] == 24
    assert numbers[(1, 1)] == 0
    assert q.calabi_yau
    assert mu.s_number(q.mu_class) == -48
    assert charnum.generator_check_msu(q.mu_class, cf)


def test_quartic_normal_numbers_oracle(ctx):
    """Expand (1+4h)/(1+h)^4 to order 2 independently and pair."""
    # (1+4h) * (1 - 4h + 10h^2 - ...) = 1 + 0h - 6h^2 + O(h^3)
    c = [Fraction(1), Fraction(0), Fraction(-6)]
    q = charnum.hypersurface_class(ctx, 3, 4)
    # c2(normal)-number = 4 * coefficient of h^2; c1^2(normal)-number = 0
    assert chern_number(q.mu_class, (2,)) == 4 * c[2] == -24
    assert chern_number(q.mu_class, (1, 1)) == 4 * c[1] ** 2 == 0
    # m-type normal numbers: m_(2) = c1^2 - 2c2 evaluated at (0, -6)
    assert q.mu_class.coefficient((2,)) == 4 * (c[1] ** 2 - 2 * c[2]) == 48


def test_degree_one_hypersurface_recovers_projective_space(ctx):
    for ambient in range(2, 7):
        h = charnum.hypersurface_class(ctx, ambient, 1)
        assert h.mu_class == mu.cpn_class(ctx, ambient - 1)
        assert h.tangent() == cpn_tangent_numbers(ambient - 1)


def test_calabi_yau_flag_iff_degree_matches(ctx):
    """The flag is set exactly when the degree-1 tangent class, computed
    by adjunction in the ambient cohomology, vanishes on a variety of
    positive dimension: for degree = ambient + 1."""
    for ambient in range(1, 10):
        for degree in range(1, 8):
            v = charnum.hypersurface_class(ctx, ambient, degree)
            total = oracles.tangent_numbers((ambient,), ((degree,),))[1]
            assert v.calabi_yau == (ambient >= 2 and not total[1])
            assert v.calabi_yau == (ambient >= 2 and degree == ambient + 1)


def test_tangent_numbers_against_oracle(ctx):
    """The tangent numbers read off the class equal those computed by
    adjunction in the ambient cohomology."""
    for ambient in range(1, 10):
        for degree in range(1, 8):
            v = charnum.hypersurface_class(ctx, ambient, degree)
            assert v.tangent() == \
                oracles.tangent_numbers((ambient,), ((degree,),))[0], \
                (ambient, degree)


def test_chern_number_examples(ctx):
    cp1 = mu.cpn_class(ctx, 1)
    assert chern_number(cp1, (1,)) == -2
    assert chern_number(mu.MUClass.unit(), ()) == 1
    with pytest.raises(ValueError):
        chern_number(cp1, (2,))


def test_product_classes(ctx):
    """The tangent numbers of a product of projective spaces give the
    product of their classes."""
    cp1 = mu.cpn_class(ctx, 1)

    def product_class(dims):
        numbers = oracles.tangent_numbers(dims)[0]
        return oracles.chern_numbers_to_hurewicz(numbers, sum(dims))

    assert product_class((1, 1)) == cp1 * cp1
    assert product_class((2,)) == mu.cpn_class(ctx, 2)
    assert product_class((1, 2, 3)) == \
        cp1 * mu.cpn_class(ctx, 2) * mu.cpn_class(ctx, 3)


def test_kunneth_expansion(ctx):
    """Chern numbers of a product expand over splittings of each part."""
    from slcob.partitions import partitions_of

    def splittings(omega):
        out = [((), ())]
        for part in omega:
            nxt = []
            for left, right in out:
                for i in range(0, part + 1):
                    l2 = left + ((i,) if i else ())
                    r2 = right + ((part - i,) if part - i else ())
                    nxt.append((l2, r2))
            out = nxt
        return out

    pairs = [(mu.cpn_class(ctx, 1), mu.cpn_class(ctx, 2)),
             (mu.cpn_class(ctx, 2), mu.cpn_class(ctx, 2)),
             (mu.cpn_class(ctx, 1), mu.milnor_hypersurface_class(ctx, 2, 2))]
    for x, y in pairs:
        prod = x * y
        for omega in partitions_of(prod.degree):
            expected = 0
            for left, right in splittings(omega):
                if sum(left) == x.degree and sum(right) == y.degree:
                    expected += (chern_number(
                        x, tuple(sorted(left, reverse=True)))
                        * chern_number(
                            y, tuple(sorted(right, reverse=True))))
            assert chern_number(prod, omega) == expected


def test_generator_check_failure_modes(ctx, cf):
    cp1 = mu.cpn_class(ctx, 1)
    assert charnum.generator_check_msu(cp1 * cp1, cf) is False  # s = 0
    with pytest.raises(charnum.NotACycle):
        charnum.generator_check_msu(mu.cpn_class(ctx, 2), cf)


def test_generator_check_higher_degrees(ctx, cf, basis):
    """Cycle-lattice generators away from 2 in a couple of degrees."""
    # x3 cycle: degree 3 cycle lattice has rank 1; its s-number must have
    # odd part 1 (n+1 = 4 is a 2-power)
    z3 = cf.basis.from_coordinates(3, cf.cycles_in_lattice(3).column(0))
    s = mu.s_number(z3)
    odd = abs(s)
    while odd and odd % 2 == 0:
        odd //= 2
    assert charnum.generator_check_msu(z3, cf) == (odd == 1 and s != 0)


def test_point_count_of_zero_dimensional_hypersurface(ctx):
    v = charnum.hypersurface_class(ctx, 1, 5)
    assert v.dimension == 0
    assert v.tangent() == {(): 5}
