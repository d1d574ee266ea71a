"""Verification suites: each returns a list of (name, ok, detail) checks.

These are the executable forms of the headline identities: the twisted
Leibniz laws on the Wall lattice, the homology pattern, the introduction
table, the Hermitian K-theory relations, and the brute-force Witt oracle.
"""

from functools import partial

from . import bpoly, msl, mu
from .conner_floyd import ConventionError
from .abelian import FGAbGroup
from .intmat import IntMatrix, smith_normal_form
from .mu import BasisConstructionError, NotInLattice
from .operations import (apply_operation, apply_operations, boundary_partial,
                         delta_op)
from .partitions import codes_of, partition_count
from .witt import SHORT_NAMES, field_descriptor, witt_data
from .wittforms import FormCalculus


def suite_leibniz(cf, max_degree):
    """Both product laws on all ordered pairs of Wall-lattice basis
    classes with total degree within the truncation.  The boundary
    operation's correction term is multiplication by minus the class of
    the projective line (the xy-coefficient of the group law).

    Each equation is checked once.  Multiplication of classes is
    commutative and both laws are symmetric in a and b, so the equation
    at (b, a) is the one at (a, b), term for term: the loop runs over
    unordered pairs and counts each as its ordered pairs (two, or one
    when a = b), and a failure is reported at the degree pair with the
    smaller first entry, which the ordered loop would meet first.  The
    boundary operation runs once per Wall class, and one
    `apply_operations` call per distinct product a*b gives both
    operations' images from one walk of the derivation's powers; da*db
    once per pair serves both laws."""
    ctx = cf.ctx
    ops = boundary_partial(ctx), delta_op(ctx)
    a11 = mu.cpn_class(ctx, 1).scale(-1).poly()
    images = {}
    wall = {n: [(cls, cls.poly(), apply_operation(ctx, ops[0], cls).poly())
                for cls in cf.wall_classes(n)] for n in range(1, max_degree)}
    pairs = 0
    first_bad = {}
    for na in range(1, max_degree):
        for nb in range(na, max_degree - na + 1):
            for i, (a, pa, da) in enumerate(wall[na]):
                for j, (b, pb, db) in enumerate(wall[nb]):
                    if na == nb and j < i:
                        continue
                    pairs += 1 if na == nb and i == j else 2
                    ab = a * b
                    if ab not in images:
                        images[ab] = [y.poly() for y in
                                      apply_operations(ctx, ops, ab)]
                    dab, deltaab = images[ab]
                    dadb = bpoly.mul(da, db)
                    # da * b + a * db + a11 * da * db in one sum
                    law = bpoly.mul_into(bpoly.mul_into(
                        bpoly.mul(da, pb), pa, db), a11, dadb)
                    if dab != law:
                        first_bad.setdefault(
                            "partial", "partial law at (%d,%d)" % (na, nb))
                    if deltaab != bpoly.scale(dadb, -2):
                        first_bad.setdefault(
                            "product", "product law at (%d,%d)" % (na, nb))
    return [("twisted Leibniz for the boundary operation (%d Wall pairs)"
             % pairs, "partial" not in first_bad, first_bad.get("partial", "")),
            ("product law for the shift-2 operation (%d Wall pairs)"
             % pairs, "product" not in first_bad, first_bad.get("product", ""))]


def suite_cf_pattern(cf, max_degree):
    """The Wall basis certificate, the differential against the boundary
    operation, the homology pattern, rank bookkeeping and surjectivity,
    each a property of every degree in a range.  A chain that cannot be
    built fails the checks that need it."""
    top, p = min(max_degree + 1, cf.ctx.bound), partition_count
    tests = [
        ("Wall basis: the shift-2 operation vanishes on every *-monomial "
         "(degrees <= %d)" % top, range(2, top + 1), lambda n: all(
             apply_operation(cf.ctx, delta_op(cf.ctx), c).is_zero()
             for c in cf.wall_classes(n))),
        ("Wall basis: s_n(x_n) = +-m_n m_(n-1) (3 <= n <= %d)" % top,
         range(3, top + 1), lambda n: abs(mu.s_number(cf.wall_classes(n)[0]))
         == mu.generator_target(n) * mu.generator_target(n - 1)),
        ("Wall basis: a saturated sublattice, all invariant factors 1 "
         "(degrees <= %d)" % top, range(top + 1),
         lambda n: set(smith_normal_form(cf.w_lattice(n))) <= {1}),
        ("Differential: the boundary operation on every Wall class equals "
         "the twisted-law column (degrees <= %d)" % top, range(1, top + 1),
         lambda n: cf.boundaries_in_lattice(n - 1)
         == IntMatrix.from_columns(p(n - 1), [cf.basis.to_coordinates(
             apply_operation(cf.ctx, boundary_partial(cf.ctx), c).scale(-1))
             for c in cf.wall_classes(n)])),
    ] + [("H_%d = %s" % (n, cf.expected_homology(n)), [n],
          lambda n: cf.homology(n) == cf.expected_homology(n))
         for n in range(max_degree + 1)] + [
        ("Wall ranks p(n) - p(n-2)", range(max_degree + 2),
         lambda n: cf.w_rank(n) == p(n) - p(n - 2)),
        ("cycle ranks p(n) - p(n-1)", range(max_degree + 1),
         lambda n: cf.cycles(n).cols == p(n) - p(n - 1)),
        ("shift-2 operation surjective on the full lattice",
         range(2, min(max_degree + 2, cf.ctx.bound) + 1),
         lambda n: cf.delta_cokernel(n).is_trivial()),
    ]
    checks = []
    for name, degrees, holds in tests:
        try:
            bad = next((n for n in degrees if not holds(n)), None)
            detail = "fails in degree %s" % bad
        except (BasisConstructionError, ConventionError, NotInLattice) as exc:
            bad, detail = "", str(exc)
        checks.append((name, bad is None, detail))
    return checks


def suite_subring(cf, max_degree):
    """Products of cycles are cycles; boundaries sit inside cycles with
    the 2-torsion quotient.  Both read the cycle solvers, whose columns
    are the cycle bases in MUBasis coordinates, so the product of two
    cycles is the product of their columns as polynomials in the
    generators, taken once per unordered pair of degrees."""
    solvers = [cf.cycle_solver(n) for n in range(max_degree + 1)]
    cycles = [[{k: a for k, a in zip(codes_of(n), z) if a}
               for z in solver.columns] for n, solver in enumerate(solvers)]
    ok = all(solvers[na + nb].solve(bpoly.vector(bpoly.mul(a, b), na + nb))
             is not None for na in range(1, max_degree)
             for nb in range(na, max_degree - na + 1)
             for a in cycles[na] for b in cycles[nb])
    ok_b = all(solvers[n].solve(z) is not None
               for n in range(max_degree - 1)
               for z in zip(*cf.boundaries_in_lattice(n).entries))
    return [("products of cycles are cycles (degrees <= %d)" % max_degree,
             ok, ""),
            ("boundaries lie inside cycles", ok_b, "")]


def chain_decomposition(fd, cf, n):
    """The views of the diagonal in degree n, built from the computed
    chain and the Witt data of the field.  The special unitary free rank
    is the rank of the cycles Z_n; its torsion in degrees 1 mod 4 is
    (Z/2)^(rank H_(n-1)); in degrees 0 mod 4 the ideal part is
    I(k)^(rank H_n) and the first off-diagonal group W(k)^(rank H_n).

    Only those three ranks come from the chain.  The remaining entries
    assemble groups from them with the Witt data as `msl` does, so they
    check msl's assembly of the views, not the chain itself."""
    wr, inv = witt_data(fd), fd.inverted_primes
    ideal = len(cf.homology(n).invariant_factors) if n % 4 == 0 else 0
    torsion = FGAbGroup.cyclic(2, inv).power(
        len(cf.homology(n - 1).invariant_factors) if n % 4 == 1 else 0)
    free = FGAbGroup.free(cf.cycles(n).cols, inv)
    witt = wr.w.power(ideal)
    return {
        "msu_free": free,
        "msu_torsion": torsion,
        "ideal_part": wr.fundamental_ideal_power(1).power(ideal),
        "off_diagonal": witt,
        "away_from_two": free.direct_sum(witt).localize([2]),
        "msl_torsion": wr.two_primary_torsion_of_ideal(1).power(ideal)
        .direct_sum(torsion),
    }


def suite_table(kind, q, cf, max_degree):
    """The published introduction table, then each degree n <= 11 below
    the truncation against `chain_decomposition`: the tabulated
    decomposition, the first off-diagonal group, the diagonal with 2
    inverted and its 2-primary torsion."""
    fd = field_descriptor(kind, q)
    checks = []
    rows = msl.intro_table_rows(fd)
    expected = _expected_intro(fd)
    for row, exp in zip(rows, expected):
        checks.append(("degree %d: %s" % (row["n"], exp),
                       str(row["group"]) == exp, "got %s" % row["group"]))
    for n in range(min(11, max_degree - 1) + 1):
        ans = msl.msl_diagonal(fd, n)
        got = {"msu_free": ans.msu_free, "msu_torsion": ans.msu_torsion,
               "ideal_part": ans.ideal_part,
               "off_diagonal": msl.msl_off_diagonal(fd, n, 1),
               "away_from_two": msl.away_from_two(fd, n),
               "msl_torsion": msl.msl_torsion(fd, n)}
        want = chain_decomposition(fd, cf, n)
        bad = ["%s %s, chain %s" % (k, got[k], want[k])
               for k in want if got[k] != want[k]]
        checks.append(("degree %d agrees with the chain at truncation %d"
                       % (n, max_degree), not bad, "; ".join(bad)))
    return checks


def _expected_intro(fd):
    """The published table rows with GW(k) instantiated per kind."""
    wr = witt_data(fd)
    gw = wr.gw

    def render(gw_copies, free, tors2):
        g = FGAbGroup.free(free, fd.inverted_primes)
        for _ in range(gw_copies):
            g = g.direct_sum(gw)
        if tors2:
            g = g.direct_sum(FGAbGroup.cyclic(2, fd.inverted_primes).power(tors2))
        return str(g)

    return [
        render(1, 0, 0),   # GW(k)
        render(0, 0, 1),   # Z/2
        render(0, 1, 0),   # Z
        render(0, 1, 0),   # Z
        render(1, 1, 0),   # GW(k) + Z
        render(0, 2, 1),   # Z^2 + Z/2
        render(0, 4, 0),   # Z^4
        render(0, 4, 0),   # Z^4
        render(2, 5, 0),   # GW(k)^2 + Z^5
        render(0, 8, 2),   # Z^8 + (Z/2)^2
    ]


def suite_kq(kind, q=None):
    from .kq import KQPresentation
    fd = field_descriptor(kind, q)
    pres = KQPresentation(fd)
    checks = pres.relation_check()
    surj, ker, iso = pres.eta_top_square_check()
    checks.append(("rank-mod-2 factorization surjective", surj, ""))
    checks.append(("kernel is the fundamental ideal", ker, ""))
    checks.append(("isomorphism iff quadratically closed",
                   iso == (fd.kind == "quadratically_closed"), ""))
    return checks


def suite_witt_oracle():
    """Brute-force classification over F_3, F_5 and F_7 against the
    stored tables."""
    checks = []
    for q in (3, 5, 7):
        fc = FormCalculus(q)
        struct = fc.group_structure()
        expected = (4,) if q % 4 == 3 else (2, 2)
        checks.append(("W(F_%d) invariant factors %s" % (q, (expected,)),
                       struct == expected, "got %s" % (struct,)))
        checks.append(("|I(F_%d)| = 2" % q, len(fc.fundamental_ideal()) == 2, ""))
        sq = fc.ideal_square_elements()
        checks.append(("I(F_%d)^2 = 0" % q, sq == [()], "got %s" % (sq,)))
        checks.append(("rank and discriminant classify forms over F_%d" % q,
                       fc.rank_disc_classifies(), ""))
    return checks


# The suites that read the chain.
CHAIN_SUITES = ("leibniz", "cf-pattern", "subring", "table", "all")


def run_suite(name, cf, kind=None, q=None, max_degree=12):
    """Run a named suite, or all of them in the order listed below.  The
    suites in CHAIN_SUITES read `cf`, the chain at truncation max_degree;
    the others ignore it.  A check's name gets the prefix "label: " or
    "label[kind]: " in `all`, and "[kind] " in a suite run per kind."""
    t = max_degree
    runs = [("leibniz", "leibniz", None, partial(suite_leibniz, cf, t)),
            ("cf-pattern", "cf", None, partial(suite_cf_pattern, cf, t - 1)),
            ("subring", "subring", None, partial(suite_subring, cf, t))]
    for k in [kind] if kind else SHORT_NAMES:
        runs += [("table", "table", k, partial(suite_table, k, q, cf, t)),
                 ("kq", "kq", k, partial(suite_kq, k, q))]
    runs.append(("witt-oracle", "witt", None, suite_witt_oracle))
    if name != "all" and name not in [run[0] for run in runs]:
        raise ValueError("unknown suite %r" % name)
    out = []
    for suite, label, k, call in runs:
        if name == "all":
            prefix = "%s%s: " % (label, "[%s]" % k if k else "")
        elif name == suite:
            prefix = "[%s] " % k if k else ""
        else:
            continue
        out += [(prefix + n, ok, d) for n, ok, d in call()]
    return out
