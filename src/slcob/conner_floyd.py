"""The Conner-Floyd complex on the Wall lattice.

The Wall lattice in degree n is the kernel of the shift-2 operation inside
the degree-n coefficient lattice; the differential is minus the boundary
operation restricted there.  Cycles, boundaries and homology are computed
with exact integer linear algebra; homology is always an elementary abelian
2-group whose rank follows the partition-counted pattern

    H_n = (Z/2)^p(n/4)      for n = 0 mod 4,
          (Z/2)^p((n-2)/4)  for n = 2 mod 4,
          0                 otherwise,

and the free ranks satisfy rank Ker(shift-2 op) = p(n) - p(n-2) and
rank(cycles) = p(n) - p(n-1).  The module also carries the image lattices
of the special linear theory inside the general one.

The Wall lattice is a polynomial ring under a * b = ab + 2V da db, with
V = [CP^1]^2 - [CP^2] and d the differential, on x_1 = [CP^1] and x_k for
k >= 3 (Conner-Floyd, Torsion in SU-bordism, 1966; Chernykh-Panov,
Izv. Math., 2023), so its basis is the *-monomials and no kernel is
computed.  The differential follows from d x_k by the twisted Leibniz law
d(a * b) = da * b + a * db + x_1 * da * db, so no operation matrix is
built for it.  One memoized recursion gives each *-monomial with its
differential; the Wall lattice, the differential matrices and the
generator step all read it.
"""

from . import bpoly
from .abelian import FGAbGroup, _factorint, cokernel
from .fgl import FGLContext, _memoized
from .intmat import HNFSolver, IntMatrix, ModSolver, kernel_basis
from .mu import (BasisConstructionError, MUBasis, complete_intersection_class,
                 cpn_class, generator_target, min_s_combination, s_number)
from .operations import apply_operation, boundary_partial, delta_op
from .partitions import (codes_of, decode, encode, partition_count,
                         partitions_of)


def homology_rank(n):
    """The rank of the 2-group H_n of the pattern: p(n/4) for n = 0 mod 4,
    p((n-2)/4) for n = 2 mod 4 (both p(n // 4)), 0 for odd n."""
    return partition_count(n // 4) if n % 2 == 0 else 0


class ConventionError(RuntimeError):
    """An operation left the lattice it must preserve."""


def _solve_columns(solver, targets, message):
    """The matrix whose columns x solve solver.mat * x = target, one per
    target; ConventionError(message) if a target has no integral
    solution."""
    cols = []
    for target in targets:
        sol = solver.solve(target)
        if sol is None:
            raise ConventionError(message)
        cols.append(sol)
    return IntMatrix.from_columns(solver.mat.cols, cols)


class ConnerFloyd:
    """The chain at truncation T.  It builds and owns its formal group law
    context `ctx` and its lattice basis `basis`, so all three stop at the
    same degree, `ctx.bound`."""

    def __init__(self, truncation):
        self.ctx = FGLContext(truncation)
        self.basis = MUBasis(self.ctx)
        self._memo = {}

    # -- the full lattice ---------------------------------------------------

    def delta_cokernel(self, n):
        """Cokernel of the shift-2 operation from degree n to n-2 on the
        full lattice (trivial for every n: the operation is split onto)."""
        if n < 2:
            raise ValueError("shift-2 cokernels start in degree 2, not %d" % n)
        op = delta_op(self.ctx)
        return cokernel(_solve_columns(
            self.basis.solver(n - 2),
            [apply_operation(self.ctx, op, cls).vector()
             for _, cls in self.basis.basis(n)],
            "shift-2 image escapes the lattice in degree %d" % (n - 2)))

    # -- the Wall lattice ---------------------------------------------------

    @staticmethod
    def wall_labels(n):
        """The partitions of n with no part 2: the Wall basis labels."""
        return [omega for omega in partitions_of(n) if 2 not in omega]

    @_memoized
    def w_lattice(self, n):
        """Columns: the Wall basis in degree-n MUBasis coordinates, the
        *-monomials of `wall_labels`."""
        return IntMatrix.from_columns(partition_count(n), [
            bpoly.vector(self._wall(omega)[0], n)
            for omega in self.wall_labels(n)])

    @_memoized
    def _wall(self, omega):
        """The *-monomial x_(omega_1) * (the rest) as (its MUBasis
        coordinates, a polynomial in the MUBasis generators in the role of
        the b_k; its differential, a polynomial in the *-monomials, x_k in
        the role of b_k).  x_1 = [CP^1] with d x_1 = -2 by one boundary
        operation, x_n for n >= 3 is `_generator`'s, and a * b =
        ab + 2V da db (the sign of d cancels) with d(a * b) = da * b +
        a * db + x_1 * da * db, d = -boundary.  As d d = 0, da db is the
        *-product da * db, read back in MUBasis coordinates."""
        if not omega:
            return dict(bpoly.ONE), {}
        if omega == (1,):  # [CP^1] is also the first MUBasis generator
            return bpoly.gen(1), apply_operation(
                self.ctx, boundary_partial(self.ctx),
                cpn_class(self.ctx, 1)).scale(-1).poly()
        if len(omega) == 1:
            return self._generator(omega[0])
        a, b = omega[:1], omega[1:]
        (x, dx), (y, dy) = self._wall(a), self._wall(b)
        dxdy, lifted = bpoly.mul(dx, dy), {}
        for k, c in dxdy.items():
            bpoly.mul_into(lifted, {1: c}, self._wall(decode(k))[0])
        d = bpoly.mul_into(bpoly.mul_into(bpoly.mul(dx, {encode(b): 1}),
                                          {encode(a): 1}, dy),
                           bpoly.gen(1), dxdy)
        return bpoly.mul_into(bpoly.mul(x, y), self._two_v(), lifted), d

    @_memoized
    def _two_v(self):
        """2V = 2([CP^1]^2 - [CP^2]) in degree-2 MUBasis coordinates."""
        cp1, cp2 = cpn_class(self.ctx, 1), cpn_class(self.ctx, 2)
        return dict(zip(codes_of(2), self.basis.to_coordinates(
            (cp1 * cp1 - cp2).scale(2))))

    def _generator(self, n):
        """(x_n, d x_n) for n >= 3 as in `_wall`, s_n(x_n) = m_n m_(n-1)
        (m_k as in `mu.generator_target`): the least s-number combination
        x of the Calabi-Yau complete intersections of bidegree
        (d1, d2) = (d, n+3-d) in P^(n+2), s_n = d1 d2 (n + 3 - d1^n - d2^n),
        made primitive one prime p of the surplus at a time by
        x -> (x - D c) / p, D c = x mod p for D the decomposables; so
        x_n = (x - D C) / P.  c_1 = 0 on x, so d x = 0 and
        d x_n = -(sum_j C_j d D_j) / P."""
        target = generator_target(n) * generator_target(n - 1)
        cy = [(d, n + 3 - d) for d in range(1, (n + 3) // 2 + 1)]
        x, s = min_s_combination(
            [a * b * (n + 3 - a ** n - b ** n) for a, b in cy],
            lambda i: complete_intersection_class(self.ctx, n + 2, cy[i]))
        x = self.basis.to_coordinates(x)
        decomposables = list(map(self._wall, self.wall_labels(n)[1:]))
        dmat = IntMatrix.from_columns(len(x), [
            bpoly.vector(poly, n) for poly, _ in decomposables])
        combo, scale = [0] * dmat.cols, 1
        for p, e in _factorint(s // target).items():
            solver = ModSolver(dmat, p)
            for _ in range(e):
                c = solver.solve(x)
                if c is None:
                    raise BasisConstructionError("degree %d: no decomposable "
                                                 "is x mod %d" % (n, p))
                x = [(a - b) // p for a, b in zip(x, dmat.apply(c))]
                combo = [a + scale * b for a, b in zip(combo, c)]
                scale *= p
        # Of the basis classes, only the MUBasis generator x^(n), first in
        # partition order, has a b_n term (B_n is lower triangular).
        s = x[0] * s_number(self.basis.generators[n])
        if s != target:
            raise BasisConstructionError(
                "degree %d: x_n has s-number %d, not %d" % (n, s, target))
        dx = {}
        for c, (_, d) in zip(combo, decomposables):
            bpoly.mul_into(dx, {1: -c}, d)
        if any(a % scale for a in dx.values()):
            raise BasisConstructionError("degree %d: d x_n not integral" % n)
        return ({k: a for k, a in zip(codes_of(n), x) if a},
                {k: a // scale for k, a in dx.items()})

    def w_rank(self, n):
        return self.w_lattice(n).cols

    @_memoized
    def wall_classes(self, n):
        """The Wall-lattice basis as actual coefficient-ring classes (one
        list per degree, shared by every caller: do not mutate it)."""
        w = self.w_lattice(n)
        return [self.basis.from_coordinates(n, w.column(j))
                for j in range(w.cols)]

    @_memoized
    def delta_matrix(self, n):
        """The differential (minus the boundary operation) from the Wall
        lattice in degree n to degree n-1, in the Wall bases: column omega
        holds the differential of the *-monomial omega."""
        if n < 1:
            raise ValueError("the differential starts in degree 1, not %d" % n)
        rows = [encode(r) for r in self.wall_labels(n - 1)]
        diffs = [self._wall(omega)[1] for omega in self.wall_labels(n)]
        return IntMatrix.from_columns(len(rows), [
            [d.get(r, 0) for r in rows] for d in diffs])

    # -- cycles, boundaries, homology ---------------------------------------

    @_memoized
    def cycles(self, n):
        """Columns: basis of Ker(differential) in Wall coordinates."""
        if n == 0:
            return IntMatrix.identity(self.w_rank(0))
        return kernel_basis(self.delta_matrix(n))

    def cycles_in_lattice(self, n):
        """Cycle basis in MUBasis coordinates (columns)."""
        w = self.w_lattice(n)
        return w * self.cycles(n)

    @_memoized
    def cycle_solver(self, n):
        """The solver of MUBasis coordinates against the degree-n cycle
        basis; its columns are `cycles_in_lattice(n)`."""
        return HNFSolver(self.cycles_in_lattice(n))

    @_memoized
    def boundaries_in_lattice(self, n):
        """Boundary basis in MUBasis coordinates (columns)."""
        self._check_below_top(n)
        w = self.w_lattice(n)
        return w * self.delta_matrix(n + 1)

    def _check_below_top(self, n):
        if n + 1 > self.ctx.bound:
            raise ValueError("degree %d needs degree %d, above the "
                             "truncation %d" % (n, n + 1, self.ctx.bound))

    @_memoized
    def homology(self, n):
        """Cycles mod boundaries in degree n as a normal-form group.
        Boundaries are expressed in a basis of the (saturated) cycle
        lattice first, so no spurious torsion appears."""
        self._check_below_top(n)
        b = self.delta_matrix(n + 1)
        return cokernel(_solve_columns(
            HNFSolver(self.cycles(n)),
            [list(b.column(j)) for j in range(b.cols)],
            "boundary is not a cycle in degree %d (differential squared "
            "nonzero)" % n))

    @staticmethod
    def expected_homology(n):
        """The partition-counted pattern for the homology groups."""
        return FGAbGroup.cyclic(2).power(homology_rank(n))

    # -- downstream groups ---------------------------------------------------

    def msl_image_in_mgl(self, n):
        """The image lattice of the special linear theory in degree n:
        cycles if n != 2 mod 4, boundaries if n = 2 mod 4 (columns in
        MUBasis coordinates)."""
        if n % 4 == 2:
            return self.boundaries_in_lattice(n)
        return self.cycles_in_lattice(n)
