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
built for it.
"""

from . import bpoly
from .abelian import FGAbGroup, _factorint, cokernel
from .fgl import FGLContext, _memoized
from .intmat import HNFSolver, IntMatrix, ModSolver, kernel_basis
from .mu import (BasisConstructionError, MUBasis, complete_intersection_class,
                 cpn_class, generator_target, min_s_combination, s_number)
from .operations import apply_operation, boundary_partial, delta_op
from .partitions import codes_of, encode, partition_count, partitions_of


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
    same degree."""

    def __init__(self, truncation):
        self.ctx = FGLContext(truncation)
        self.basis = MUBasis(self.ctx)
        self.max_n = truncation
        self._memo = {}
        self._d = {}

    # -- full-lattice matrices -------------------------------------------

    @_memoized
    def operation_matrix(self, name, n):
        """H B_n: the operation from degree n to degree n - shift, columns
        indexed by the degree-n basis, rows by the b-monomials of degree
        n - shift."""
        op = {"partial": boundary_partial, "delta": delta_op}[name](self.ctx)
        cols = [apply_operation(self.ctx, op, cls).vector()
                if n >= op.shift else [] for _, cls in self.basis.basis(n)]
        return IntMatrix.from_columns(partition_count(n - op.shift), cols)

    def delta_cokernel(self, n):
        """Cokernel of the shift-2 operation from degree n to n-2 on the
        full lattice (trivial for every n: the operation is split onto)."""
        if n < 2:
            raise ValueError("shift-2 cokernels start in degree 2, not %d" % n)
        image = self.operation_matrix("delta", n)
        return cokernel(_solve_columns(
            self.basis.solver(n - 2),
            [list(image.column(j)) for j in range(image.cols)],
            "shift-2 image escapes the lattice in degree %d" % (n - 2)))

    # -- the Wall lattice ---------------------------------------------------

    @staticmethod
    def wall_labels(n):
        """The partitions of n with no part 2: the Wall basis labels."""
        return [omega for omega in partitions_of(n) if 2 not in omega]

    @_memoized
    def w_lattice(self, n):
        """Columns: the Wall basis in degree-n MUBasis coordinates, the
        *-monomial x_(omega_1) * (the rest) for each omega of `wall_labels`;
        x_1 = [CP^1], x_k for k >= 3 is `_generator`'s."""
        dim = partition_count(n)
        if n < 2:
            return IntMatrix.identity(dim)
        cp1, cp2 = cpn_class(self.ctx, 1), cpn_class(self.ctx, 2)
        two_v = dict(zip(codes_of(2), self.basis.to_coordinates(
            (cp1 * cp1 - cp2).scale(2))))
        cols = []
        for omega in self.wall_labels(n):
            if len(omega) > 1:  # x * y = xy + 2V dx dy, the sign of d cancels
                (x, dx), (y, dy) = self._wall_poly(omega[:1]), \
                    self._wall_poly(omega[1:])
                xy = bpoly.mul_into(bpoly.mul(x, y), two_v, bpoly.mul(dx, dy))
                cols.append([xy.get(c, 0) for c in codes_of(n)])
        if n > 2:
            cols.insert(0, self._generator(n, cols))
        return IntMatrix.from_columns(dim, cols)

    def _wall_poly(self, omega):
        """The Wall class labeled omega and its differential, as
        polynomials in the MUBasis generators (x_k in the role of b_k)."""
        m = sum(omega)
        j = self.wall_labels(m).index(omega)
        return [{p: c for p, c in zip(codes_of(k), mat.column(j)) if c}
                for k, mat in ((m, self.w_lattice(m)),
                               (m - 1, self.boundaries_in_lattice(m - 1)))]

    def _generator(self, n, decomposables):
        """x_n for n >= 3 in MUBasis coordinates, s_n = m_n m_(n-1) (m_k as
        in `mu.generator_target`): the least s-number combination x of the
        Calabi-Yau complete intersections of bidegree (d1, d2) = (d, n+3-d)
        in P^(n+2), s_n = d1 d2 (n + 3 - d1^n - d2^n), made primitive one
        prime p of the surplus at a time by x -> (x - D c) / p, D c = x mod p
        for D the decomposables; so x_n = (x - D C) / P.  c_1 = 0 on x, so
        d x = 0 and d x_n = -(sum_j C_j d D_j) / P, which goes to `_d`."""
        target = generator_target(n) * generator_target(n - 1)
        cy = [(d, n + 3 - d) for d in range(1, (n + 3) // 2 + 1)]
        x, s = min_s_combination(
            [a * b * (n + 3 - a ** n - b ** n) for a, b in cy],
            lambda i: complete_intersection_class(self.ctx, n + 2, cy[i]))
        x = self.basis.to_coordinates(x)
        dmat = IntMatrix.from_columns(len(x), decomposables)
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
        s = s_number(self.basis.from_coordinates(n, x))
        if s != target:
            raise BasisConstructionError(
                "degree %d: x_n has s-number %d, not %d" % (n, s, target))
        dx = {}
        for c, omega in zip(combo, self.wall_labels(n)[1:]):
            bpoly.mul_into(dx, {1: -c}, self._wall_d(omega))
        if any(a % scale for a in dx.values()):
            raise BasisConstructionError("degree %d: d x_n not integral" % n)
        self._d[(n,)] = {k: a // scale for k, a in dx.items()}
        return x

    def _wall_d(self, omega):
        """d of the *-monomial omega in *-monomials (x_k for b_k), memoized in
        `_d`: d x_1 = -2 by one boundary operation, d x_n from `_generator`,
        and d(a * b) = da * b + a * db + x_1 * da * db (d = -boundary)."""
        if omega not in self._d:
            a, b = omega[:1], omega[1:]
            if b:
                da, db = self._wall_d(a), self._wall_d(b)
                tail = bpoly.mul_into({encode(b): 1}, bpoly.gen(1), db)
                self._d[omega] = bpoly.mul_into(bpoly.mul(da, tail),
                                                {encode(a): 1}, db)
            elif a == (1,):
                self._d[a] = apply_operation(
                    self.ctx, boundary_partial(self.ctx),
                    cpn_class(self.ctx, 1)).scale(-1).poly()
            else:
                self.w_lattice(a[0])
        return self._d[omega]

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
        holds the coefficients of `_wall_d(omega)`."""
        if n < 1:
            raise ValueError("the differential starts in degree 1, not %d" % n)
        rows = [encode(r) for r in self.wall_labels(n - 1)]
        return IntMatrix.from_columns(len(rows), [
            [self._wall_d(omega).get(r, 0) for r in rows]
            for omega in self.wall_labels(n)])

    # -- cycles, boundaries, homology ---------------------------------------

    @_memoized
    def cycles(self, n):
        """Columns: basis of Ker(differential) in Wall coordinates."""
        if n == 0:
            return IntMatrix.identity(self.w_rank(0))
        return kernel_basis(self.delta_matrix(n))

    def cycle_classes(self, n):
        z = self.cycles_in_lattice(n)
        return [self.basis.from_coordinates(n, z.column(j))
                for j in range(z.cols)]

    def cycles_in_lattice(self, n):
        """Cycle basis in full monomial coordinates (columns)."""
        w = self.w_lattice(n)
        return w * self.cycles(n)

    @_memoized
    def cycle_solver(self, n):
        """Solver for b-monomial vectors against the degree-n cycles, so
        B_n times the cycle basis."""
        return HNFSolver(self.basis.matrix(n) * self.cycles_in_lattice(n))

    @_memoized
    def boundaries_in_lattice(self, n):
        """Boundary basis in full monomial coordinates (columns)."""
        self._check_below_top(n)
        w = self.w_lattice(n)
        return w * self.delta_matrix(n + 1)

    def _check_below_top(self, n):
        if n + 1 > self.max_n:
            raise ValueError("degree %d needs degree %d, above the "
                             "truncation %d" % (n, n + 1, self.max_n))

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
        monomial coordinates)."""
        if n % 4 == 2:
            return self.boundaries_in_lattice(n)
        return self.cycles_in_lattice(n)
