import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (catalog_span_matches, cpn_tangent_numbers,
                     gauss_jordan_inverse, graded_reciprocal_class_matrix,
                     hermite_column_form, pair_keyed)
from slcob import mu, symfun
from slcob.fgl import FGLContext
from slcob.partitions import decode, partition_count, partitions_of


def test_cpn_examples(ctx):
    assert mu.cpn_class(ctx, 0) == mu.MUClass.unit()
    cp1 = mu.cpn_class(ctx, 1)
    assert cp1.coeffs() == {(1,): -2}
    with pytest.raises(ValueError):
        mu.cpn_class(ctx, ctx.bound + 1)


def test_s_number_examples(ctx):
    assert mu.s_number(mu.cpn_class(ctx, 1)) == 2
    for n in range(1, 9):
        assert mu.s_number(mu.cpn_class(ctx, n)) == n + 1
    cp1 = mu.cpn_class(ctx, 1)
    assert mu.s_number(cp1 * cp1) == 0  # decomposables are s-primitive


def test_s_number_vanishes_on_products(ctx, basis):
    rng = random.Random(5)
    for _ in range(20):
        na = rng.randint(1, 5)
        nb = rng.randint(1, 5)
        a = rng.choice(basis.basis(na))[1]
        b = rng.choice(basis.basis(nb))[1]
        assert mu.s_number(a * b) == 0


def test_chern_transform_examples(ctx):
    # the point class
    assert mu.hurewicz_to_chern_numbers(mu.MUClass.unit()) == {(): 1}
    assert oracles.chern_numbers_to_hurewicz({(): 1}, 0).coeffs() == {(): 1}
    # [CP1]: tangent c1-number 2
    assert mu.hurewicz_to_chern_numbers(mu.cpn_class(ctx, 1)) == {(1,): 2}
    out = oracles.chern_numbers_to_hurewicz({(1,): 2}, 1)
    assert out == mu.cpn_class(ctx, 1)
    with pytest.raises(KeyError):
        oracles.chern_numbers_to_hurewicz({(2,): 3}, 2)  # missing (1,1)


def test_chern_transform_round_trip(ctx, basis):
    for n in range(1, 7):
        for _, cls in basis.basis(n):
            numbers = mu.hurewicz_to_chern_numbers(cls)
            back = oracles.chern_numbers_to_hurewicz(numbers, n)
            assert back == cls


def test_cpn_tangent_numbers_against_class(ctx):
    for n in range(1, 7):
        assert mu.hurewicz_to_chern_numbers(mu.cpn_class(ctx, n)) == \
            cpn_tangent_numbers(n)
    for n in range(0, 13):
        assert oracles.tangent_numbers((n,))[0] == cpn_tangent_numbers(n)


def test_milnor_h11_is_projective_line(ctx):
    h11 = mu.milnor_hypersurface_class(ctx, 1, 1)
    assert h11 == mu.cpn_class(ctx, 1)
    assert mu.s_number(h11) == 2


def test_milnor_degree(ctx):
    h22 = mu.milnor_hypersurface_class(ctx, 2, 2)
    assert h22.degree == 3


def test_milnor_h12_numbers_against_sympy_oracle(ctx):
    """Tangent numbers of the (1,1)-divisor in P^1 x P^2, recomputed with
    an independent symbolic engine."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def reduce(expr):
        p = sympy.expand(expr)
        p = p.subs(x ** 3, 0).subs(x ** 2, 0)
        for k in range(3, 7):
            p = p.subs(y ** k, 0)
        return sympy.expand(p)

    total = reduce((1 + x) ** 2 * (1 + y) ** 3 *
                   (1 - (x + y) + (x + y) ** 2 - (x + y) ** 3))
    c1 = sum(t for t in total.as_ordered_terms()
             if sympy.Poly(t, x, y).total_degree() == 1)
    c2 = sum(t for t in total.as_ordered_terms()
             if sympy.Poly(t, x, y).total_degree() == 2)

    def integrate(expr):
        p = sympy.expand(expr * (x + y))
        return p.coeff(x, 1).coeff(y, 2)

    oracle = {(2,): integrate(c2), (1, 1): integrate(c1 * c1)}
    assert oracles.tangent_numbers((1, 2), ((1, 1),))[0] == oracle


def test_milnor_table_against_tangent_oracle(ctx):
    """Buchstaber's formula gives every H_{i,j} of degree <= 12 exactly as
    its tangent Chern numbers do."""
    count = 0
    for n in range(1, 13):
        for i in range(1, (n + 1) // 2 + 1):
            j = n + 1 - i
            assert mu.milnor_hypersurface_class(ctx, i, j) == \
                oracles.milnor_hypersurface_class(ctx, i, j), (i, j)
            count += 1
    assert count == 42


def test_hypersurface_class_against_tangent_oracle(ctx):
    """Quillen's formula gives every hypersurface of degree d <= 7 in P^n,
    n <= 13, exactly as its tangent Chern numbers do."""
    for n in range(1, 14):
        for d in range(1, 8):
            assert mu.hypersurface_class(ctx, n, d) == \
                oracles.hypersurface_class(n, d), (n, d)


def test_complete_intersection_class_against_tangent_oracle(ctx):
    """Quillen's formula with two divisors gives the complete
    intersections of bidegree (d1, d2) in P^N, dimension N - 2 <= 10,
    exactly as their tangent Chern numbers do; the Calabi-Yau ones among
    them (d1 + d2 = N + 1) included."""
    for big_n in range(3, 13):
        for d1 in range(1, 4):
            for d2 in range(d1, big_n + 2 - d1):
                assert mu.complete_intersection_class(ctx, big_n, (d1, d2)) \
                    == oracles.complete_intersection_class(big_n, (d1, d2)), \
                    (big_n, d1, d2)


def test_calabi_yau_complete_intersection_s_numbers(ctx):
    """s_n = d1 d2 (n + 3 - d1^n - d2^n) for the complete intersection of
    bidegree (d1, d2 = n + 3 - d1) in P^(n+2), for every n <= 12."""
    for n in range(1, 13):
        for d1 in range(1, (n + 3) // 2 + 1):
            d2 = n + 3 - d1
            x = mu.complete_intersection_class(ctx, n + 2, (d1, d2))
            assert x.degree == n
            assert mu.s_number(x) == d1 * d2 * (n + 3 - d1 ** n - d2 ** n)


def test_hypersurface_range_errors(ctx):
    for n, d in ((0, 2), (3, 0), (ctx.bound + 2, 2)):
        with pytest.raises(ValueError):
            mu.hypersurface_class(ctx, n, d)
    assert mu.hypersurface_class(ctx, ctx.bound + 1, 2).degree == ctx.bound


def test_generators_avoid_symmetric_function_tables(monkeypatch):
    """The generator path uses the formal group law alone: neither the
    e-to-m matrix nor the reciprocal Chern class is consulted."""
    def refuse(*args):
        raise AssertionError("symmetric-function table on the generator path")

    monkeypatch.setattr(symfun, "e_to_m_matrix", refuse)
    monkeypatch.setattr(mu, "reciprocal_class_matrix", refuse)
    fresh = mu.MUBasis(FGLContext(12))
    for n in range(1, 13):
        assert abs(mu.s_number(fresh.generators[n])) == mu.generator_target(n)


def test_generators_are_selected_on_demand(monkeypatch):
    selected = []
    real = mu.select_generator

    def counting(ctx, n):
        selected.append(n)
        return real(ctx, n)

    monkeypatch.setattr(mu, "select_generator", counting)
    fresh = mu.MUBasis(FGLContext(6))
    assert selected == [] and not fresh.generators
    fresh.to_coordinates(mu.cpn_class(fresh.ctx, 3))
    assert sorted(selected) == [1, 2, 3]
    fresh.generators[2]
    assert sorted(selected) == [1, 2, 3]
    for n in (0, 7):
        with pytest.raises(KeyError):
            fresh.generators[n]


def test_milnor_range_errors(ctx):
    with pytest.raises(ValueError):
        mu.milnor_hypersurface_class(ctx, 2, 1)
    with pytest.raises(ValueError):
        mu.milnor_hypersurface_class(ctx, 7, 7)


def test_generator_targets():
    assert [mu.generator_target(n) for n in range(0, 17)] == \
        [1, 2, 3, 2, 5, 1, 7, 2, 3, 1, 11, 1, 13, 1, 1, 2, 17]


def test_build_basis_criterion(ctx, basis):
    for n in range(1, ctx.bound + 1):
        s = mu.s_number(basis.generators[n])
        assert abs(s) == mu.generator_target(n)
    assert abs(mu.s_number(basis.generators[1])) == 2
    assert abs(mu.s_number(basis.generators[2])) == 3


def test_cp2_qualifies_in_degree_two(ctx):
    # s2[CP2] = c1^2 - 2 c2 = 9 - 6 = 3 in tangent numbers
    numbers = cpn_tangent_numbers(2)
    assert numbers[(1, 1)] - 2 * numbers[(2,)] == 3
    assert mu.s_number(mu.cpn_class(ctx, 2)) == 3


def test_degree_four_rank(basis):
    assert len(basis.basis(4)) == 5 == partition_count(4)
    m = basis.matrix(4)
    assert m.rows == m.cols == 5


def test_full_rank_all_degrees(basis):
    """The monomial basis spans a full-rank lattice in every degree."""
    for n in range(1, 13):
        assert len(basis.basis(n)) == partition_count(n)
        for idx, (_, cls) in enumerate(basis.basis(n)):
            if idx > 2:
                break
            coords = basis.to_coordinates(cls)
            assert coords[idx] == 1 and sum(map(abs, coords)) == 1


def test_basis_matrix_is_echelon_and_solved_without_reduction(basis):
    """B_n is lower triangular with a nonzero diagonal in partition order,
    so its solver takes the columns as they stand, and each x^omega built
    from its memoized tail is the product of its generators."""
    assert basis.ctx.bound == 12
    for n in range(13):
        m = basis.matrix(n)
        p = partition_count(n)
        assert m.rows == m.cols == p
        for j in range(p):
            assert m.entries[j][j] != 0
            assert all(m.entries[i][j] == 0 for i in range(j))
        assert basis.solver(n).pivot_rows == list(range(p))
        for omega, cls in basis.basis(n):
            expected = mu.MUClass.unit()
            for part in omega:
                expected = expected * basis.generators[part]
            assert cls == expected


def test_multiply_and_commutativity(ctx, basis):
    cp1 = mu.cpn_class(ctx, 1)
    assert cp1 * mu.MUClass.unit() == cp1
    assert (cp1 * cp1).coeffs() == {(1, 1): 4}
    rng = random.Random(11)
    for _ in range(10):
        a = rng.choice(basis.basis(rng.randint(1, 5)))[1]
        b = rng.choice(basis.basis(rng.randint(1, 5)))[1]
        assert a * b == b * a


def test_lattice_membership(ctx, basis):
    cp2 = mu.cpn_class(ctx, 2)
    coords = basis.to_coordinates(cp2 * cp2)
    assert basis.from_coordinates(4, coords) == cp2 * cp2
    half = mu.MUClass.from_dict(1, {(1,): -1})  # (1/2)[CP1]
    with pytest.raises(mu.NotInLattice):
        basis.to_coordinates(half)


def test_catalog_span_equals_monomial_span(basis):
    for n in range(1, 7):
        assert catalog_span_matches(basis, n)


def test_basis_change_unimodular(basis):
    """The monomial basis and the Hermite reduction of the catalog span
    generate the same lattice, so the change of basis is unimodular."""
    from slcob.intmat import smith_normal_form
    for n in range(1, 6):
        m = basis.matrix(n)
        h = hermite_column_form(m)
        assert h.cols == m.cols  # full rank
        # the coordinate matrix of h in the monomial basis is unimodular
        coords = []
        for j in range(h.cols):
            cls = mu.MUClass.from_dict(
                n, {p: h.column(j)[i]
                    for i, p in enumerate(partitions_of(n))})
            coords.append(basis.to_coordinates(cls))
        from slcob.intmat import IntMatrix
        cm = IntMatrix.from_rows([[c[i] for c in coords]
                                  for i in range(len(coords))])
        assert smith_normal_form(cm) == [1] * cm.rows


def test_reciprocal_class_matrix_against_graded_oracle():
    for n in range(0, 11):
        R = pair_keyed(mu.reciprocal_class_matrix(n), n)
        assert R == graded_reciprocal_class_matrix(n)
        parts = partitions_of(n)
        for a in parts:
            for b in parts:
                s = sum(R.get((a, c), 0) * R.get((c, b), 0) for c in parts)
                assert s == (1 if a == b else 0)


def test_coordinates_against_gauss_jordan(basis):
    rng = random.Random(17)
    for n in range(1, 8):
        m = basis.matrix(n)
        inv = gauss_jordan_inverse([list(row) for row in m.entries])
        parts = partitions_of(n)
        for k in range(6):
            target = [rng.randint(-50, 50) for _ in parts]
            if k % 2:  # a lattice point
                target = m.apply(target)
            x = mu.MUClass.from_dict(n, dict(zip(parts, target)))
            exact = [sum(r * t for r, t in zip(row, target)) for row in inv]
            if all(c.denominator == 1 for c in exact):
                assert basis.to_coordinates(x) == exact
            else:
                with pytest.raises(mu.NotInLattice):
                    basis.to_coordinates(x)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_coordinates_round_trip(basis, data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    coords = data.draw(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                                min_size=partition_count(n),
                                max_size=partition_count(n)))
    assert basis.to_coordinates(basis.from_coordinates(n, coords)) == coords


def test_b1_squared_not_in_lattice(basis):
    x = mu.MUClass.from_dict(2, {(1, 1): 1})
    with pytest.raises(mu.NotInLattice):
        basis.to_coordinates(x)


def test_broken_basis_raises():
    """A degree-2 generator without a b_2 term leaves the degree-2 basis
    matrix short of full rank, which the coordinate solver refuses."""
    broken = mu.MUBasis(FGLContext(3))
    broken.generators[2] = broken.generators[1] * broken.generators[1]
    x = broken.basis(2)[1][1]
    with pytest.raises(mu.BasisConstructionError):
        broken.to_coordinates(x)


@lru_cache(maxsize=None)
def bare_context(bound):
    return FGLContext(bound)


@pytest.mark.parametrize("bound", [6, 12, 16])
def test_milnor_table_against_three_convolutions(bound):
    """The table from C = log' equals the one from F, F C(u) and G C(v)
    with C built from the projective spaces, key for key."""
    ctx = bare_context(bound)
    table = mu._milnor_table(ctx)
    assert table == oracles.milnor_table_fgh(ctx)
    assert len(table) == sum(1 for i in range(1, bound + 1)
                             for j in range(i, bound + 2 - i))


@pytest.mark.parametrize("bound", [12, 16])
def test_complete_intersections_against_per_class_gysin_series(bound):
    """The closed form, read off the context's table of log-derivative
    powers, gives every Calabi-Yau candidate of the Wall generators and
    every hypersurface and pair of divisors of degree <= 4 exactly as
    Quillen's formula with each Gysin series built afresh does."""
    ctx = bare_context(bound)
    cases = [(n + 2, (d, n + 3 - d)) for n in range(3, bound + 1)
             for d in range(1, (n + 3) // 2 + 1)]
    cases += [(n, (d,)) for n in range(1, bound + 2) for d in range(1, 5)]
    cases += [(n, (d, e)) for n in range(2, bound + 3)
              for d in range(1, 5) for e in range(d, 5)]
    for n, degrees in cases:
        assert mu.complete_intersection_class(ctx, n, degrees) == \
            oracles.complete_intersection_per_class(ctx, n, degrees), \
            (n, degrees)


def test_classes_keep_codes_and_read_partitions(ctx):
    """A class stores code-sorted (code, int) terms; hb, coeffs,
    coefficient and vector read them by partition."""
    x = mu.cpn_class(ctx, 3)
    codes = [code for code, _ in x.terms]
    assert codes == sorted(codes)
    assert x.hb == tuple(sorted((decode(k), v) for k, v in x.terms))
    assert x.coeffs() == dict(x.hb) == oracles.by_partition(x.poly())
    assert x.vector() == [x.coefficient(p) for p in partitions_of(3)]
    assert mu.MUClass.from_dict(3, x.coeffs()) == x
    with pytest.raises(ValueError, match="another weight"):
        mu.MUClass.from_dict(3, {(1, 1): 1})


def test_degree_checks_raise_value_errors(ctx):
    with pytest.raises(ValueError, match="degree 1"):
        mu.degree_catalog(ctx, 0)
    with pytest.raises(ValueError, match="degree >= 1"):
        mu.s_number(mu.MUClass.unit())
