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

The chain runs on b-monomial (Hurewicz) coordinates.  With B_n the basis
matrix and H the b-monomial matrix of an operation, the operation on the
lattice is H B_n.  The Wall basis W_n is the kernel of H_delta B_n: the
same lattice as in basis coordinates, since B_(n-2) is injective, and the
same basis, since the reduced column Hermite form of a lattice is unique.
The differential solves B_(n-1) W_(n-1) X = -H_partial B_n W_n, one
integral solver per degree.
"""

from .abelian import FGAbGroup, cokernel
from .fgl import FGLContext, _memoized
from .intmat import HNFSolver, IntMatrix, kernel_basis
from .mu import MUBasis
from .operations import apply_operation, boundary_partial, delta_op
from .partitions import partition_count


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
        assert n >= 2
        image = self.operation_matrix("delta", n)
        return cokernel(_solve_columns(
            self.basis.solver(n - 2),
            [list(image.column(j)) for j in range(image.cols)],
            "shift-2 image escapes the lattice in degree %d" % (n - 2)))

    # -- the Wall lattice ---------------------------------------------------

    @_memoized
    def w_lattice(self, n):
        """Columns: a basis of Ker(shift-2 op) in degree-n monomial
        coordinates.  Degrees 0 and 1 are the full lattice."""
        dim = partition_count(n)
        if n < 2:
            return IntMatrix.identity(dim)
        return kernel_basis(self.operation_matrix("delta", n))

    def w_rank(self, n):
        return self.w_lattice(n).cols

    def wall_classes(self, n):
        """The Wall-lattice basis as actual coefficient-ring classes."""
        w = self.w_lattice(n)
        out = []
        for j in range(w.cols):
            out.append(self.basis.from_coordinates(n, list(w.column(j))))
        return out

    @_memoized
    def delta_matrix(self, n):
        """The differential (minus the boundary operation) from the Wall
        lattice in degree n to degree n-1, in the Wall bases."""
        assert n >= 1
        image = self.operation_matrix("partial", n) * self.w_lattice(n)
        wall = self.basis.matrix(n - 1) * self.w_lattice(n - 1)
        return _solve_columns(
            HNFSolver(wall),
            [[-a for a in image.column(j)] for j in range(image.cols)],
            "boundary image escapes the Wall lattice in degree %d" % n)

    # -- cycles, boundaries, homology ---------------------------------------

    @_memoized
    def cycles(self, n):
        """Columns: basis of Ker(differential) in Wall coordinates."""
        if n == 0:
            return IntMatrix.identity(self.w_rank(0))
        return kernel_basis(self.delta_matrix(n))

    def cycle_classes(self, n):
        w = self.w_lattice(n)
        z = self.cycles(n)
        out = []
        for j in range(z.cols):
            coords = w.apply(list(z.column(j)))
            out.append(self.basis.from_coordinates(n, coords))
        return out

    def cycles_in_lattice(self, n):
        """Cycle basis in full monomial coordinates (columns)."""
        w = self.w_lattice(n)
        return w * self.cycles(n)

    @_memoized
    def cycle_solver(self, n):
        """Solver for b-monomial vectors against the degree-n cycles, so
        B_n times the cycle basis."""
        return HNFSolver(self.basis.matrix(n) * self.cycles_in_lattice(n))

    def boundaries_in_lattice(self, n):
        """Boundary basis in full monomial coordinates (columns)."""
        assert n + 1 <= self.max_n
        w = self.w_lattice(n)
        return w * self.delta_matrix(n + 1)

    def homology(self, n):
        """Cycles mod boundaries in degree n as a normal-form group.
        Boundaries are expressed in a basis of the (saturated) cycle
        lattice first, so no spurious torsion appears."""
        assert n + 1 <= self.max_n
        b = self.delta_matrix(n + 1)
        return cokernel(_solve_columns(
            HNFSolver(self.cycles(n)),
            [list(b.column(j)) for j in range(b.cols)],
            "boundary is not a cycle in degree %d (differential squared "
            "nonzero)" % n))

    def expected_homology(self, n):
        """The partition-counted pattern for the homology groups."""
        if n % 4 == 0:
            rank = partition_count(n // 4)
        elif n % 4 == 2:
            rank = partition_count((n - 2) // 4)
        else:
            rank = 0
        return FGAbGroup.cyclic(2).power(rank)

    # -- downstream groups ---------------------------------------------------

    def msl_image_in_mgl(self, n):
        """The image lattice of the special linear theory in degree n:
        cycles if n != 2 mod 4, boundaries if n = 2 mod 4 (columns in
        monomial coordinates)."""
        if n % 4 == 2:
            return self.boundaries_in_lattice(n)
        return self.cycles_in_lattice(n)
