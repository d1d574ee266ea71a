import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import by_partition, c1_determinant_class, char_class
from slcob import bpoly, mu, operations
from slcob.conner_floyd import ConnerFloyd
from slcob.fgl import FGLContext
from slcob.operations import (CohOperation, apply_operation, boundary_partial,
                              delta_op, landweber_novikov)
from slcob.partitions import partitions_of


def mon(*pairs):
    return tuple(sorted(pairs))


def test_landweber_novikov_classes(ctx):
    s1 = landweber_novikov((1,))
    cls = char_class(ctx, s1, 3, 6)
    assert cls.coeffs == {mon(("c1", 1)): 1}
    s11 = landweber_novikov((1, 1))
    assert char_class(ctx, s11, 3, 6).coeffs == {mon(("c2", 1)): 1}
    s2 = landweber_novikov((2,))
    # Newton: m_(2) = c1^2 - 2 c2
    assert char_class(ctx, s2, 3, 6).coeffs == {mon(("c1", 2)): 1, mon(("c2", 1)): -2}


def test_identity_operation(ctx, basis):
    """s_(), of class m_() = 1, is the identity."""
    op = landweber_novikov(())
    for n in range(0, 5):
        for _, cls in basis.basis(n):
            assert apply_operation(ctx, op, cls) == cls


def test_additivity(ctx):
    op = boundary_partial(ctx)
    a = mu.cpn_class(ctx, 3)
    b = mu.milnor_hypersurface_class(ctx, 2, 2)
    lhs = apply_operation(ctx, op, a + b)
    assert lhs == apply_operation(ctx, op, a) + apply_operation(ctx, op, b)


def test_top_landweber_novikov_is_normal_s_number(ctx):
    """In top degree the dual-basis operation reads off the b_n coordinate
    (the normal-bundle s-number); the reported s-number carries the
    opposite global sign, normalized so projective spaces are positive."""
    for n in range(1, 7):
        cpn = mu.cpn_class(ctx, n)
        out = apply_operation(ctx, landweber_novikov((n,)), cpn)
        assert out.coeffs() == {(): -(n + 1)}
        assert mu.s_number(cpn) == n + 1


def test_boundary_anchor_values(ctx):
    pd = boundary_partial(ctx)
    cp1 = mu.cpn_class(ctx, 1)
    assert apply_operation(ctx, pd, cp1).coeffs() == {(): 2}
    assert apply_operation(ctx, pd, mu.MUClass.unit()).is_zero()
    assert apply_operation(ctx, pd, cp1 * cp1).is_zero()


def test_delta_anchor_values(ctx):
    dl = delta_op(ctx)
    cp1 = mu.cpn_class(ctx, 1)
    assert apply_operation(ctx, dl, cp1 * cp1).coeffs() == {(): -8}
    assert apply_operation(ctx, dl, cp1).is_zero()  # lands in degree -1
    cp2 = mu.cpn_class(ctx, 2)
    assert apply_operation(ctx, dl, cp2).coeffs() == {(): -9}
    for n in range(2, 6):
        out = apply_operation(ctx, dl, mu.cpn_class(ctx, n))
        assert out.is_zero() or out.degree == n - 2


def test_operations_preserve_lattice(ctx, basis):
    rng = random.Random(3)
    pd, dl = boundary_partial(ctx), delta_op(ctx)
    for _ in range(25):
        n = rng.randint(1, 8)
        cls = rng.choice(basis.basis(n))[1]
        for op in (pd, dl):
            out = apply_operation(ctx, op, cls)
            if not out.is_zero():
                basis.to_coordinates(out)  # raises if fractional


@pytest.mark.parametrize("bound", [12, 16])
def test_log_power_operations_lower_the_index(bound):
    """O_k(b_p) = b_(p-k), b_0 = 1, for every p <= T: the powers D^k of the
    derivation, through which the boundary and shift-2 operations act,
    equal the sums sum_j [x^j] log^k [x^(p+1)] exp^(j+1) that define the
    operations O_k with class L^k, and D^(p+1) b_p = 0."""
    ctx = FGLContext(bound)
    for p in range(bound + 1):
        expected = oracles.log_power_operations(ctx, p)
        assert expected == [bpoly.gen(p - k) if k < p else bpoly.ONE
                            for k in range(p + 1)], p
        powers = [bpoly.gen(p) if p else dict(bpoly.ONE)]
        while powers[-1]:
            powers.append(operations._derive(powers[-1]))
        assert powers == expected + [{}], p


def test_char_class_stability(ctx):
    for op in (boundary_partial(ctx), delta_op(ctx), landweber_novikov((2, 1))):
        big = char_class(ctx, op, 4, 5)
        small = char_class(ctx, op, 3, 5)
        assert small.coeffs
        restricted = {m: c for m, c in big.coeffs.items()
                      if not any(g == "c4" for g, _ in m)}
        assert restricted == small.coeffs


def test_boundary_class_weights(ctx):
    """The class of the boundary operation is homogeneous of shift 1:
    Chern weight minus coefficient weight is 1 in every term."""
    cls = char_class(ctx, boundary_partial(ctx), 3, 5)
    assert cls.coeffs
    for m, _ in cls.coeffs.items():
        cw = sum(int(g[1:]) * e for g, e in m if g.startswith("c"))
        bw = sum(int(g[1:]) * e for g, e in m if g.startswith("b"))
        assert cw - bw == 1


def test_boundary_class_matches_determinant_class(ctx):
    """The power series in L of the boundary operation, expanded into
    m-coefficients, agrees with the explicit determinant class computed
    through symmetric rewriting."""
    explicit = c1_determinant_class(ctx, 3, dual=True)
    pipeline = char_class(ctx, boundary_partial(ctx), 3, ctx.bound)
    assert pipeline.coeffs
    explicit_low = {m: c for m, c in explicit.coeffs.items()}
    pipeline_low = {m: c for m, c in pipeline.coeffs.items()
                    if explicit.mon_weight(m) <= explicit.bound}
    assert pipeline_low == explicit_low


def test_log_series_classes_match_determinant_pipeline(ctx):
    """The coefficients g_k of the boundary and Wall-kernel classes, expanded
    through power sums, give the m-classes of the determinant classes
    exp(-L) and exp(L) exp(-L) built power by power."""
    for op, expected in ((boundary_partial(ctx), oracles.boundary_class_m(ctx)),
                         (delta_op(ctx), oracles.delta_class_m(ctx))):
        got = oracles.coefficients(ctx, op)
        assert got and expected
        assert got == expected


def test_coaction_counit(ctx):
    cp2 = mu.cpn_class(ctx, 2)
    co = oracles.coaction(ctx, cp2)
    assert by_partition(co[()]) == cp2.coeffs()  # counit: the t-free part is the class


@lru_cache(maxsize=None)
def small_fixtures():
    """A truncation-8 context and basis shared by the examples below, so
    the column tables fill up across examples."""
    ctx = FGLContext(8)
    return ctx, mu.MUBasis(ctx)


def small_operation(ctx, name):
    if name == "partial":
        return boundary_partial(ctx)
    if name == "delta":
        return delta_op(ctx)
    return landweber_novikov(name)


SMALL_OPERATIONS = ("partial", "delta", (1,), (2,), (1, 1), (2, 1), (3,))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_columns_match_per_class_oracle(data):
    """Column by column on b-monomials equals the pairing against the
    coaction of the whole class, on random integer combinations of basis
    classes."""
    ctx, basis = small_fixtures()
    op = small_operation(ctx, data.draw(st.sampled_from(SMALL_OPERATIONS)))
    n = data.draw(st.integers(0, 8))
    classes = [cls for _, cls in basis.basis(n)]
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(classes),
                                max_size=len(classes)))
    x = mu.MUClass.zero(n)
    for c, cls in zip(coeffs, classes):
        x = x + cls.scale(c)
    assert oracles.coefficients(ctx, op)
    assert apply_operation(ctx, op, x) == oracles.apply_operation(ctx, op, x)


def test_log_series_columns_match_oracle_on_every_monomial():
    """Every b-monomial of degree <= 8: the boundary and Wall-kernel columns
    from the table of L-powers equal the pairing of the m-class against
    the whole coaction."""
    ctx, _ = small_fixtures()
    for op in (boundary_partial(ctx), delta_op(ctx)):
        nonzero = 0
        for n in range(ctx.bound + 1):
            for part in partitions_of(n):
                x = mu.MUClass.from_dict(n, {part: 1})
                got = apply_operation(ctx, op, x)
                assert got == oracles.apply_operation(ctx, op, x)
                nonzero += not got.is_zero()
        assert nonzero > 0


def test_apply_operations_matches_oracle_together_and_alone(ctx):
    """The boundary, shift-2 and s_(2,1) operations applied in one call
    and one at a time, against the pairing with the coaction, on every
    b-monomial of degree <= 12, on zero classes and where the target
    degree is negative (then the zero class of degree 0)."""
    ops = (boundary_partial(ctx), delta_op(ctx), landweber_novikov((2, 1)))
    nonzero = [0, 0, 0]
    for n in range(ctx.bound + 1):
        classes = [mu.MUClass.from_dict(n, {part: 1})
                   for part in partitions_of(n)] + [mu.MUClass.zero(n)]
        for x in classes:
            together = operations.apply_operations(ctx, ops, x)
            alone = [apply_operation(ctx, op, x) for op in ops]
            expected = [oracles.apply_operation(ctx, op, x) for op in ops]
            assert together == alone == expected, (n, x)
            for i, (op, y) in enumerate(zip(ops, together)):
                assert y.degree == max(n - op.shift, 0)
                nonzero[i] += not y.is_zero()
    assert all(nonzero)
    for x in (mu.MUClass.unit(), mu.cpn_class(ctx, 1), mu.cpn_class(ctx, 2)):
        assert operations.apply_operations(ctx, ops, x) == [
            oracles.apply_operation(ctx, op, x) for op in ops]
    assert operations.apply_operations(ctx, (), mu.cpn_class(ctx, 2)) == []


def test_columns_match_oracle_on_zero_and_negative_target():
    ctx, _ = small_fixtures()
    for name in SMALL_OPERATIONS:
        op = small_operation(ctx, name)
        for n in (0, 3, 8):
            zero = mu.MUClass.zero(n)
            assert apply_operation(ctx, op, zero) == \
                oracles.apply_operation(ctx, op, zero)
    dl, cp1 = delta_op(ctx), mu.cpn_class(ctx, 1)
    assert apply_operation(ctx, dl, cp1) == oracles.apply_operation(ctx, dl, cp1)
    assert apply_operation(ctx, dl, cp1) == mu.MUClass.zero(0)


def test_column_tables_are_keyed_by_value(ctx):
    """Two operations with one name and different classes (L and 2L) keep
    separate columns in one context; equal operations hash alike."""
    cp1 = mu.cpn_class(ctx, 1)
    once = CohOperation.from_log_series("s", 1, [{}, {1: 1}])
    twice = CohOperation.from_log_series("s", 1, [{}, {1: 2}])
    assert apply_operation(ctx, once, cp1).coeffs() == {(): -2}
    assert apply_operation(ctx, twice, cp1).coeffs() == {(): -4}
    again = CohOperation.from_log_series("s", 1, [{}, {1: 1}])
    assert again == once and hash(again) == hash(once)
    assert apply_operation(ctx, again, cp1).coeffs() == {(): -2}


EDGES = [s * (2 ** k + e) for k in (31, 32, 63, 64, 95, 96) for e in (1, -1)
         for s in (1, -1)]


def test_operations_on_word_edge_coefficients():
    """Coefficients +-(2^k +- 1) next to the 32-bit word edges, in mixed
    signs, against the per-class oracle: first unit classes, then the edge
    coefficients on one b-monomial, then on every b-monomial of a degree,
    then unit classes again after the large ones.  Target degree 0 (a
    single b-monomial) and images that vanish (the shift-2 operation on
    the Wall lattice) are among them."""
    cf = ConnerFloyd(6)  # a fresh chain, so no column is cached yet
    ctx, rng = cf.ctx, random.Random(20)
    ops = [boundary_partial(ctx), delta_op(ctx), landweber_novikov((2, 1))]

    def check(x):
        for op in ops:
            assert apply_operation(ctx, op, x) == \
                oracles.apply_operation(ctx, op, x), (op.name, x)

    def units(n):
        return mu.MUClass.from_dict(n, {p: 1 for p in partitions_of(n)})

    for n in range(1, 7):
        check(units(n))
    for n in range(1, 7):
        for edge in EDGES:
            check(mu.MUClass.from_dict(n, {partitions_of(n)[-1]: edge}))
        for _ in range(4):
            check(mu.MUClass.from_dict(n, {p: rng.choice(EDGES)
                                           for p in partitions_of(n)}))
    for n in range(1, 7):
        check(units(n))
    dl = delta_op(ctx)
    for n in range(2, 7):
        for w in cf.wall_classes(n):
            x = w.scale(rng.choice(EDGES))
            check(x)
            assert apply_operation(ctx, dl, x).is_zero()
    assert apply_operation(ctx, dl, units(2)).degree == 0


def test_slot_width_counts_the_sum_of_coefficients():
    """A sum past the bits of any one term: every column with an entry at
    one b-monomial, times a coefficient of j bits whose sign makes that
    entry positive, with j chosen so that bits(largest entry) + j + 1 is
    64.  The entry of the sum then needs more than 63 bits, so a bound
    from the largest term alone would lose it."""
    ctx = FGLContext(6)
    for op in (boundary_partial(ctx), delta_op(ctx)):
        n = 6
        cols = {p: oracles.apply_operation(
            ctx, op, mu.MUClass.from_dict(n, {p: 1})).coeffs()
            for p in partitions_of(n)}
        slot = max(partitions_of(n - op.shift), key=lambda q: sum(
            abs(c.get(q, 0)) for c in cols.values()))
        used = {p: c[slot] for p, c in cols.items() if c.get(slot)}
        bits = max(abs(v) for p in used for v in cols[p].values()).bit_length()
        j = 64 - 1 - bits
        x = mu.MUClass.from_dict(n, {p: (2 ** j - 1) * (1 if v > 0 else -1)
                                     for p, v in used.items()})
        total = (2 ** j - 1) * sum(abs(v) for v in used.values())
        assert total.bit_length() > 63  # past the per-term bound
        assert apply_operation(ctx, op, x) == oracles.apply_operation(ctx, op, x)
        assert apply_operation(ctx, op, x).coefficient(slot) == total
