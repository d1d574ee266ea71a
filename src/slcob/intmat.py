"""Exact integer matrices: one column echelon routine and what it serves.

Matrices are dense lists of rows of Python ints (arbitrary precision), small
enough here that correctness beats asymptotics: nothing in the pipeline
exceeds a few hundred rows.  All integer elimination goes through
`_column_echelon`, the reduced column Hermite form with a minimal pivot,
which keeps coefficient growth tame in practice (Cohen, GTM 138, 2.4):

  kernel_basis         one pass over the columns stacked on an identity
                       block, whose columns with a vanishing top part
                       span the kernel, then a Hermite pass on their
                       identity part; it serves the cycles of the
                       differential, while the Wall lattice is built
                       from *-monomials with no kernel;
  smith_normal_form    passes on the columns and on the transpose until
                       diagonal, then (gcd, lcm) on diagonal pairs, the
                       pass that `abelian` also normalizes groups with.

`HNFSolver`, the one integral solver, needs no elimination: it takes
columns already in echelon form (leading rows strictly increasing, as the
lower triangular basis matrices B_n, the Hermite kernels and the cycle
bases of the chain are) and solves by forward substitution.  `ModSolver`
is its counterpart over F_p, for the Wall generators: one reduction per
matrix and prime, then any number of targets.

Internal invariants (shapes, echelon form) are checked with explicit
AssertionErrors, so `python -O` keeps them; the CLI reports them as
internal failures.
"""

from math import gcd
from operator import lt, mul

from .record import Record, _set


class IntMatrix(Record):
    __slots__ = ("rows", "cols", "entries")  # entries: tuple of row tuples

    def __init__(self, rows, cols, entries):  # hot, so no generic methods
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise AssertionError("entries that are not %d x %d" % (rows, cols))
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", entries)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.rows, self.cols, self.entries) \
                == (other.rows, other.cols, other.entries)
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    @classmethod
    def from_rows(cls, rows_list):
        rows_list = [tuple(int(x) for x in r) for r in rows_list]
        ncols = len(rows_list[0]) if rows_list else 0
        return cls(len(rows_list), ncols, tuple(rows_list))

    @classmethod
    def from_columns(cls, rows, columns):
        """The rows x len(columns) matrix with the given columns."""
        if not rows or not columns:
            return cls.zero(rows, len(columns))
        return cls(rows, len(columns), tuple(zip(*columns)))

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def __mul__(self, other):
        # Only nonzero entries are multiplied: differentials are mostly 0.
        if self.cols != other.rows:
            raise AssertionError("a product of %d columns by %d rows"
                                 % (self.cols, other.rows))
        b = [[(j, x) for j, x in enumerate(row) if x] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [0] * other.cols
            for a, b_row in zip(row, b):
                if a:
                    for j, x in b_row:
                        acc[j] += a * x
            out.append(acc)
        return IntMatrix(len(out), other.cols, tuple(map(tuple, out)))

    def apply(self, vec):
        if len(vec) != self.cols:
            raise AssertionError("a vector of length %d for %d columns"
                                 % (len(vec), self.cols))
        return [sum(map(mul, row, vec)) for row in self.entries]


def _column_echelon(rows, ncols, columns):
    """In-place column reduction to echelon form with fully reduced
    off-pivot entries (column Hermite form).  `columns` is a list of
    column lists that may be longer than `rows`; only the first `rows`
    entries steer pivoting, the rest ride along (used for kernels).
    Returns the list of pivot rows per finalized column; the columns
    after the last pivot column are zero in the first `rows` entries."""
    nc = ncols
    k = 0
    pivot_rows = []
    for r in range(rows):
        while True:
            nz = [j for j in range(k, nc) if columns[j][r]]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(columns[j][r]))
            for j in nz:
                if j != j0:
                    q = columns[j][r] // columns[j0][r]
                    if q:
                        columns[j] = [a - q * b
                                      for a, b in zip(columns[j], columns[j0])]
        nz = [j for j in range(k, nc) if columns[j][r]]
        if not nz:
            continue
        j0 = nz[0]
        columns[k], columns[j0] = columns[j0], columns[k]
        if columns[k][r] < 0:
            columns[k] = [-a for a in columns[k]]
        piv = columns[k][r]
        for j in range(k):  # reduce earlier pivot columns at this row
            if columns[j][r]:
                q = columns[j][r] // piv
                if q:
                    columns[j] = [a - q * b
                                  for a, b in zip(columns[j], columns[k])]
        pivot_rows.append(r)
        k += 1
    return pivot_rows


def _hermite_columns(rows, columns):
    """Reduce `columns` in place and return its nonzero columns: the
    reduced column Hermite form of their span."""
    return columns[:len(_column_echelon(rows, len(columns), columns))]


def smith_normal_form(mat):
    """The nonzero invariant factors [d1 | d2 | ... | dr] of mat, r its
    rank.

    Alternates column echelon passes on the matrix and on its transpose
    until it is diagonal (naive single-pivot elimination explodes
    coefficients already on 12x26 inputs), then replaces diagonal pairs
    (a, b) by (gcd, lcm) until each entry divides the next.

    >>> smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3], [0, 0]]))
    [1, 6]
    """
    rows = mat.rows
    columns = _columns(mat)
    for _ in range(200):
        columns = _hermite_columns(rows, columns)
        if all(x == 0 for k, c in enumerate(columns)
               for i, x in enumerate(c) if i != k):
            break
        rows = len(columns)
        columns = [list(r) for r in zip(*columns)]
    else:
        raise RuntimeError("Smith normal form did not converge")
    return _divisor_chain([c[k] for k, c in enumerate(columns)])


def _divisor_chain(d):
    """Replace pairs (a, b) of the positive integers d by (gcd, lcm) until
    each entry divides the next, in place: the invariant factors of the
    diagonal matrix with entries d, with units kept.  Returns d."""
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return d


def kernel_basis(mat):
    """A Z-basis of {v : mat*v = 0}: the columns of a cols x k IntMatrix in
    reduced column Hermite form.  An echelon pass over mat stacked on the
    identity leaves the columns past the pivot columns zero in mat's rows;
    their identity parts span the kernel, and a Hermite pass makes that
    basis canonical (the reduced form is unique)."""
    n, rows = mat.cols, mat.rows
    columns = [c + [int(i == j) for i in range(n)]
               for j, c in enumerate(_columns(mat))]
    rank = len(_column_echelon(rows, n, columns))
    return IntMatrix.from_columns(
        n, _hermite_columns(n, [c[rows:] for c in columns[rank:]]))


class HNFSolver:
    """Integral solver for columns in echelon form: M x = b for many
    right-hand sides by forward substitution.  The columns are
    independent, so the solution is unique, and the multiple of column k
    taken off the target is x_k itself.  Columns not in echelon form (a
    zero column included) raise AssertionError."""

    def __init__(self, mat):
        self.mat = mat
        self.columns = _columns(mat)
        leads = self.pivot_rows = [
            next((i for i, a in enumerate(c) if a), mat.rows)
            for c in self.columns]
        if not all(map(lt, leads, leads[1:] + [mat.rows])):
            raise AssertionError("columns with leading rows %s are not in "
                                 "echelon form" % leads)

    def solve(self, target):
        """The integral x with M x = target, or None."""
        if len(target) != self.mat.rows:
            raise AssertionError("a target of length %d for %d rows"
                                 % (len(target), self.mat.rows))
        resid = list(target)
        x = [0] * self.mat.cols
        for k, (r, col) in enumerate(zip(self.pivot_rows, self.columns)):
            q, rem = divmod(resid[r], col[r])  # col is zero above row r
            if rem:
                return None
            if q:
                resid[r:] = [a - q * b for a, b in zip(resid[r:], col[r:])]
                x[k] = q
        if any(resid):
            return None
        return x


class ModSolver:
    """x with entries in 0..p-1 and M x = target mod the prime p, or None,
    for many targets: the columns mod p over an identity are reduced once,
    each by the pivots before it and each new pivot scaled to 1; a target
    is then reduced by the pivots in turn."""

    def __init__(self, mat, p):
        self.mat, self.p = mat, p
        self.pivots = []  # (row, column)
        for j, c in enumerate(_columns(mat)):
            col = self._reduce([a % p for a in c]
                               + [int(i == j) for i in range(mat.cols)])
            r = next((i for i in range(mat.rows) if col[i]), None)
            if r is not None:
                inv = pow(col[r], -1, p)
                self.pivots.append((r, [a * inv % p for a in col]))

    def _reduce(self, col):
        p = self.p
        for r, piv in self.pivots:
            f = col[r]
            if f:
                col = [(a - f * b) % p for a, b in zip(col, piv)]
        return col

    def solve(self, target):
        rows, p = self.mat.rows, self.p
        col = self._reduce([a % p for a in target] + [0] * self.mat.cols)
        if any(col[:rows]):
            return None
        return [-a % p for a in col[rows:]]


def _columns(mat):
    """The columns of mat as lists."""
    if not mat.rows:
        return [[] for _ in range(mat.cols)]
    return [list(c) for c in zip(*mat.entries)]
