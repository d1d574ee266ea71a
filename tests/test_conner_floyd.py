from oracles import b_monomial_cycle_solver
from slcob import mu
from slcob.abelian import FGAbGroup
from slcob.conner_floyd import ConnerFloyd
from slcob.intmat import HNFSolver
from slcob.operations import apply_operation, landweber_novikov
from slcob.partitions import partition_count as p


def test_wall_ranks(cf):
    assert cf.w_rank(1) == 1
    assert cf.w_rank(2) == 1
    assert cf.w_rank(4) == 3
    for n in range(0, 13):
        assert cf.w_rank(n) == p(n) - p(n - 2)


def test_wall_lattice_is_kernel(ctx, cf, basis):
    from slcob.operations import delta_op
    dl = delta_op(ctx)
    for n in range(2, 8):
        for cls in cf.wall_classes(n):
            assert apply_operation(ctx, dl, cls).is_zero()


def test_delta_matrix_degree_one(ctx, cf):
    # the differential sends [CP1] to -2 [point]
    assert cf.delta_matrix(1).entries == ((-2,),)


def test_differential_against_boundary_of_each_wall_class(ctx, cf, basis):
    """Column j of the differential, written back in b-monomials, is minus
    the boundary operation applied to the j-th Wall basis class."""
    from slcob.operations import boundary_partial
    op = boundary_partial(ctx)
    for n in range(1, 13):
        image = basis.matrix(n - 1) * cf.w_lattice(n - 1) * cf.delta_matrix(n)
        expected = [apply_operation(ctx, op, cls).scale(-1).vector()
                    for cls in cf.wall_classes(n)]
        assert [list(image.column(j)) for j in range(image.cols)] == expected


def test_delta_matrix_matches_operation_route(cf):
    """The differential read off the twisted Leibniz law equals, entry for
    entry, the one solved from the boundary operation on the lattice."""
    from oracles import delta_matrix_by_operation
    for n in range(1, 13):
        assert cf.delta_matrix(n) == delta_matrix_by_operation(cf, n), n


def test_calabi_yau_classes_are_su(ctx):
    """The boundary operation kills every Calabi-Yau complete intersection
    of bidegree (d, n + 3 - d) in P^(n+2), n <= 12: c_1 = 0, so the
    generator step needs no differential of its starting class."""
    from slcob.operations import boundary_partial
    op = boundary_partial(ctx)
    for n in range(1, 13):
        for d in range(1, (n + 3) // 2 + 1):
            cls = mu.complete_intersection_class(ctx, n + 2, (d, n + 3 - d))
            assert apply_operation(ctx, op, cls).is_zero(), (n, d)


def test_differential_squares_to_zero(cf):
    for n in range(2, 13):
        m = cf.delta_matrix(n - 1) * cf.delta_matrix(n)
        assert all(x == 0 for row in m.entries for x in row)


def test_cycle_ranks(cf):
    for n in range(0, 12):
        assert cf.cycles_in_lattice(n).cols == p(n) - p(n - 1)


def test_homology_pattern(cf):
    expected = ["Z/2", "0", "Z/2", "0", "Z/2", "0",
                "Z/2", "0", "(Z/2)^2", "0", "(Z/2)^2", "0"]
    for n in range(0, 12):
        h = cf.homology(n)
        assert str(h) == expected[n]
        assert h == cf.expected_homology(n)


def test_homology_is_two_primary(cf):
    for n in range(0, 12):
        h = cf.homology(n)
        assert h.free_rank == 0
        assert all(f == 2 for f in h.invariant_factors)


def test_boundaries_inside_cycles_with_index(cf):
    for n in range(0, 11):
        z = cf.cycles_in_lattice(n)
        b = cf.boundaries_in_lattice(n)
        solver = HNFSolver(z)
        for j in range(b.cols):
            assert solver.solve(list(b.column(j))) is not None
        h = cf.homology(n)
        # the quotient is finite 2-torsion, so the boundary lattice has
        # full rank in the cycles and index 2^(number of summands)
        assert h.free_rank == 0
        from slcob.intmat import smith_normal_form
        assert len(smith_normal_form(b)) == z.cols
        index = 1
        for f in h.invariant_factors:
            index *= f
        assert index == 2 ** len(h.invariant_factors)


def test_delta_surjective_on_full_lattice(cf):
    for n in range(2, 13):
        assert cf.delta_cokernel(n).is_trivial()


def test_sign_insensitivity(ctx, cf, basis):
    """Negating the differential changes neither cycles, boundaries nor
    homology."""
    from slcob.intmat import IntMatrix, kernel_basis
    from slcob.abelian import cokernel
    for n in range(1, 8):
        m = cf.delta_matrix(n)
        neg = IntMatrix.from_rows([[-x for x in row] for row in m.entries])
        assert kernel_basis(m).entries == kernel_basis(neg).entries
    for n in range(0, 7):
        z = cf.cycles(n)
        b = cf.delta_matrix(n + 1)
        solver = HNFSolver(z)
        cols = [solver.solve([-x for x in b.column(j)]) for j in range(b.cols)]
        mat = (IntMatrix.from_rows([[c[i] for c in cols]
                                    for i in range(z.cols)])
               if cols else IntMatrix.zero(z.cols, 0))
        assert cokernel(mat) == cf.homology(n)


def test_cycles_match_row_by_row_kernel():
    """The one-pass kernel of every differential through T = 14 is the
    row-by-row Hermite kernel, entry for entry, and is the cycle basis."""
    from oracles import kernel_basis_by_rows
    from slcob.intmat import kernel_basis
    cf = ConnerFloyd(14)
    for n in range(1, 15):
        m = cf.delta_matrix(n)
        assert kernel_basis(m) == kernel_basis_by_rows(m) == cf.cycles(n), n


def test_msu_additive_examples():
    """The diagonal modulo the ideal is the special unitary group."""
    from slcob.msl import quotient_by_ideal
    from slcob.witt import field_descriptor
    fd = field_descriptor("c")
    assert quotient_by_ideal(fd, 5) == FGAbGroup.from_divisors([0, 0, 2])
    assert quotient_by_ideal(fd, 9) == FGAbGroup.from_divisors([0] * 8 + [2, 2])
    assert quotient_by_ideal(fd, 3) == FGAbGroup.free(1)
    assert quotient_by_ideal(fd, 0) == FGAbGroup.free(1)


def test_msl_image_examples(cf):
    # degree 2 image = boundaries
    assert cf.msl_image_in_mgl(2).entries == cf.boundaries_in_lattice(2).entries
    # degree 3 image = cycles, rank p(3) - p(2) = 1
    img3 = cf.msl_image_in_mgl(3)
    assert img3.entries == cf.cycles_in_lattice(3).entries
    assert img3.cols == 1
    # degree 0: all of the lattice
    img0 = cf.msl_image_in_mgl(0)
    assert img0.cols == 1 and abs(img0.entries[0][0]) == 1


def test_boundary_escape_detection():
    """A deliberately wrong lattice triggers the convention guard."""
    cf2 = ConnerFloyd(12)
    # degree-2 Wall lattice is spanned by 9[CP1]^2 - 8[CP2]; a class with
    # nonzero shift-2 image is not in it
    cp2 = mu.cpn_class(cf2.ctx, 2)
    solver = HNFSolver(cf2.w_lattice(2))
    assert solver.solve(cf2.basis.to_coordinates(cp2)) is None


def test_chain_owns_its_context_and_basis():
    """One truncation builds the whole chain: the context, the basis over
    that context, and the complex all stop at the same degree, the
    context's bound, which is the one name of the truncation."""
    import pytest
    for truncation in (2, 6, 12):
        cf = ConnerFloyd(truncation)
        assert cf.ctx.bound == truncation
        assert cf.basis.ctx is cf.ctx
        with pytest.raises(ValueError, match="above the truncation %d$"
                           % truncation):
            cf.homology(truncation)


def test_small_truncation_consistency():
    """The same pattern computed in a smaller ambient truncation."""
    cf = ConnerFloyd(6)
    assert [str(cf.homology(n)) for n in range(6)] == \
        ["Z/2", "0", "Z/2", "0", "Z/2", "0"]


def test_wall_lattice_matches_one_shot_kernel(cf):
    """The *-monomials span the kernel of the shift-2 operation: the same
    lattice as its one-shot Hermite kernel for n <= 12, and that kernel is
    the row-by-row Hermite kernel, entry for entry (both are canonical)."""
    from oracles import kernel_basis_by_rows, operation_matrix, \
        same_column_span, wall_lattice_kernel
    from slcob.operations import delta_op
    for n in range(0, 13):
        kernel = wall_lattice_kernel(cf, n)
        assert same_column_span(cf.w_lattice(n), kernel), n
        if n < 12:
            assert kernel == kernel_basis_by_rows(
                operation_matrix(cf, delta_op(cf.ctx), n)), n


def test_star_product_and_twisted_law_on_every_pair(ctx, cf):
    """On every unordered pair of *-monomials a, b of positive degree with
    deg a + deg b <= 12, with a * b = ab + 2V da db, V = [CP^1]^2 - [CP^2]
    and d the boundary operation: a * b is the *-monomial of the merged
    partition (so * closes on the Wall lattice and the basis is a
    polynomial ring), and d(a * b) = da * b + a * db - x_1 * da * db, the
    twisted law with x_1 = [CP^1]."""
    from oracles import merge
    from slcob.operations import boundary_partial, delta_op
    dl = delta_op(ctx)
    x1, cp2 = mu.cpn_class(ctx, 1), mu.cpn_class(ctx, 2)
    two_v = (x1 * x1 - cp2).scale(2)
    boundaries = {}

    def d(cls):
        if cls not in boundaries:
            boundaries[cls] = apply_operation(ctx, boundary_partial(ctx), cls)
        return boundaries[cls]

    def star(a, b):
        return a * b + two_v * d(a) * d(b)

    wall = {omega: cls for n in range(1, 13)
            for omega, cls in zip(cf.wall_labels(n), cf.wall_classes(n))}
    monomials = [(omega, cls) for omega, cls in wall.items()
                 if cls.degree < 12]
    pairs = 0
    for i, (alpha, a) in enumerate(monomials):
        for beta, b in monomials[i:]:
            n = a.degree + b.degree
            if n > 12:
                continue
            pairs += 1
            ab = star(a, b)
            assert ab == wall[merge(alpha, beta)]
            assert apply_operation(ctx, dl, ab).is_zero()
            law = star(d(a), b) + star(a, d(b)) - star(x1, star(d(a), d(b)))
            assert d(ab) == law, (alpha, beta)
    assert pairs == 444


def test_generators_are_calabi_yau_combinations_of_the_right_size(cf):
    """x_1 = [CP^1]; for n >= 3, s_n(x_n) = m_n m_(n-1) and the
    *-monomials have invariant factors 1 in the lattice basis."""
    from slcob.intmat import smith_normal_form
    assert cf.wall_classes(1) == [mu.cpn_class(cf.ctx, 1)]
    for n in range(3, 13):
        x = cf.wall_classes(n)[0]
        assert mu.s_number(x) == \
            mu.generator_target(n) * mu.generator_target(n - 1), n
    for n in range(0, 13):
        assert set(smith_normal_form(cf.w_lattice(n))) <= {1}, n


def test_cf_homology_builds_no_wall_kernel(monkeypatch, capsys):
    """`cf homology` runs with the integer kernel patched to raise while
    the Wall lattice is built, and with the shift-2 operation patched to
    raise."""
    from slcob import cli, conner_floyd, intmat

    class Forbidden(Exception):
        pass

    building = []
    real_w, real_kernel = ConnerFloyd.w_lattice, conner_floyd.kernel_basis

    def w_lattice(self, n):
        building.append(n)
        try:
            return real_w(self, n)
        finally:
            building.pop()

    def kernel_basis(mat):
        if building:
            raise Forbidden("a kernel while building the Wall lattice")
        return real_kernel(mat)

    def delta_op(ctx):
        raise Forbidden("the shift-2 operation")

    monkeypatch.setattr(ConnerFloyd, "w_lattice", w_lattice)
    monkeypatch.setattr(conner_floyd, "delta_op", delta_op)
    monkeypatch.setattr(conner_floyd, "kernel_basis", kernel_basis)
    monkeypatch.setattr(intmat, "kernel_basis", kernel_basis)
    monkeypatch.setattr(cli, "fixtures", ConnerFloyd)
    assert cli.main(["--truncation", "10", "--format", "csv",
                     "cf", "homology"]) == 0
    rows = capsys.readouterr().out.split()
    assert [row.split(",")[3] for row in rows[1:]] == \
        ["Z/2", "0", "Z/2", "0", "Z/2", "0", "Z/2", "0", "(Z/2)^2", "0"]


def test_generator_builds_only_the_combined_classes(monkeypatch):
    """Up to degree 12 the generator step builds 23 of the 50 Calabi-Yau
    classes, and in each degree their s-numbers have the gcd of all of
    them; a class whose s-number is not the closed form is an error."""
    import pytest
    from functools import reduce
    from math import gcd
    from slcob import conner_floyd
    real = conner_floyd.complete_intersection_class
    built = {}

    def counting(ctx, ambient, degrees):
        cls = real(ctx, ambient, degrees)
        built.setdefault(cls.degree, []).append(mu.s_number(cls))
        return cls

    monkeypatch.setattr(conner_floyd, "complete_intersection_class", counting)
    ConnerFloyd(12).w_lattice(12)
    assert sum(map(len, built.values())) == 23
    for n in range(3, 13):
        every = [d * (n + 3 - d) * (n + 3 - d ** n - (n + 3 - d) ** n)
                 for d in range(1, (n + 3) // 2 + 1)]
        assert reduce(gcd, built[n]) == reduce(gcd, every), n
    monkeypatch.setattr(conner_floyd, "complete_intersection_class",
                        lambda *args: real(*args).scale(2))
    with pytest.raises(mu.BasisConstructionError, match="s-number"):
        ConnerFloyd(4).w_lattice(3)


def test_cf_homology_builds_no_operation_matrix(monkeypatch, capsys):
    """`cf homology` runs with the shift-2 operation, the one the chain
    builds a matrix of (for `delta_cokernel`), patched to raise, and
    applies an operation once, to [CP^1]: the differential comes from the
    twisted Leibniz law."""
    from slcob import cli, conner_floyd

    def delta_op(ctx):
        raise AssertionError("the shift-2 operation")

    applied = []
    real_apply = conner_floyd.apply_operation

    def apply_operation(ctx, op, cls):
        applied.append(cls)
        return real_apply(ctx, op, cls)

    monkeypatch.setattr(conner_floyd, "delta_op", delta_op)
    monkeypatch.setattr(conner_floyd, "apply_operation", apply_operation)
    monkeypatch.setattr(cli, "fixtures", ConnerFloyd)
    assert cli.main(["--truncation", "12", "--format", "csv",
                     "cf", "homology"]) == 0
    rows = capsys.readouterr().out.split()
    cf = ConnerFloyd(12)
    assert [row.split(",")[3] for row in rows[1:]] == \
        [str(cf.expected_homology(n)) for n in range(12)]
    assert len(applied) <= 1


def test_construction_errors_are_not_assertions():
    """Out-of-range degrees raise ValueError with a sentence, also under
    python -O."""
    import pytest
    cf = ConnerFloyd(4)
    for call in (lambda: cf.homology(4), lambda: cf.boundaries_in_lattice(4),
                 lambda: cf.delta_matrix(0), lambda: cf.delta_cokernel(1)):
        with pytest.raises(ValueError, match=" "):
            call()


def test_deleted_instance_is_collected():
    """The caches live on the instances (the complex, its context and its
    basis), so nothing keeps any of them alive."""
    import gc
    import weakref
    cf = ConnerFloyd(4)
    ctx = cf.ctx
    assert str(cf.homology(2)) == "Z/2"
    assert ctx._memo["boundary_partial"]  # the operations live here
    apply_operation(ctx, landweber_novikov((1,)), mu.cpn_class(ctx, 2))
    assert ctx._memo["_psi_monomial"]  # and the coaction the columns read
    refs = [weakref.ref(cf), weakref.ref(ctx), weakref.ref(cf.basis)]
    del cf, ctx
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_cycles_out_of_echelon_form_are_an_internal_error(monkeypatch,
                                                           capsys):
    """A cycle basis whose columns leave echelon form breaks an invariant
    of the chain, not the user's input: `cf homology` exits 1 (internal
    failure) with the solver's message, not 2 (usage)."""
    from slcob import cli, conner_floyd
    real_kernel = conner_floyd.kernel_basis

    def reversed_kernel(mat):
        k = real_kernel(mat)
        return k.from_columns(k.rows, [k.column(j)
                                       for j in reversed(range(k.cols))])

    monkeypatch.setattr(conner_floyd, "kernel_basis", reversed_kernel)
    monkeypatch.setattr(cli, "fixtures", ConnerFloyd)
    assert cli.main(["--truncation", "6", "cf", "homology"]) == 1
    assert "not in echelon form" in capsys.readouterr().err


def test_cycle_membership_in_mu_coordinates_matches_b_monomials():
    """At truncation 10 a class is a cycle by `cycle_solver` on its MUBasis
    coordinates exactly when it is one by the oracle on its b-monomial
    vector, for every product of two cycle-basis classes, every boundary
    column, every Wall basis class (some are not cycles) and three classes
    that are not cycles: CP^2, CP^1 CP^3 and b_1^2, which is not even in
    the lattice (a NotInLattice counts as no solution)."""
    cf = ConnerFloyd(10)

    def classes(mat, n):
        return [cf.basis.from_coordinates(n, mat.column(j))
                for j in range(mat.cols)]

    cycles = {n: classes(cf.cycles_in_lattice(n), n) for n in range(1, 10)}
    xs = [a * b for na in range(1, 10) for nb in range(na, 11 - na)
          for a in cycles[na] for b in cycles[nb]]
    xs += [x for n in range(10)
           for x in classes(cf.boundaries_in_lattice(n), n)]
    xs += [x for n in range(1, 11) for x in cf.wall_classes(n)]
    cp = [mu.cpn_class(cf.ctx, n) for n in range(4)]
    xs += [cp[2], cp[1] * cp[3], mu.MUClass.from_dict(2, {(1, 1): 1})]
    oracle = {n: b_monomial_cycle_solver(cf, n) for n in range(11)}
    verdicts = []
    for x in xs:
        try:
            coords = cf.basis.to_coordinates(x)
        except mu.NotInLattice:
            ours = False
        else:
            ours = cf.cycle_solver(x.degree).solve(coords) is not None
        assert ours == (oracle[x.degree].solve(x.vector()) is not None), x
        verdicts.append(ours)
    assert verdicts[-3:] == [False] * 3 and False in verdicts[:-3]
    assert verdicts.count(True) > 100
