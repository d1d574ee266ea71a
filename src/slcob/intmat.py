"""Exact integer matrices: one column echelon routine and what it serves.

Matrices are dense lists of rows of Python ints (arbitrary precision), small
enough here that correctness beats asymptotics: nothing in the pipeline
exceeds a few hundred rows.  All integer elimination goes through
`_column_echelon`, the reduced column Hermite form with a minimal pivot,
which keeps coefficient growth tame in practice (Cohen, GTM 138, 2.4):

  kernel_basis         row by row: a one-row pass cuts the kernel so far,
                       kept in Hermite form so entries stay near the
                       answer's size (Kannan-Bachem 1979); it serves the
                       cycles of the differential, while the Wall lattice
                       is built from *-monomials with no kernel;
  HNFSolver            the one integral solver: one pass on the columns
                       stacked over an identity, then forward
                       substitution per target; columns already in
                       echelon form (leading rows strictly increasing,
                       as the lower triangular basis matrices B_n and
                       Hermite kernels are) skip the pass, since
                       substitution needs echelon form, not reduction;
  smith_normal_form    passes on the columns and on the transpose until
                       diagonal, then (gcd, lcm) on diagonal pairs, the
                       pass that `abelian` also normalizes groups with.

`solve_mod` is the same layout over F_p, for the Wall generators.
"""

from math import gcd

from .record import Record, _set


class IntMatrix(Record):
    __slots__ = ("rows", "cols", "entries")  # entries: tuple of row tuples

    def __init__(self, rows, cols, entries):  # hot, so no generic methods
        assert len(entries) == rows
        assert all(len(r) == cols for r in entries)
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
        return cls.from_rows(zip(*columns))

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def __mul__(self, other):
        # Only nonzero entries are multiplied: differentials are mostly 0.
        assert self.cols == other.rows
        b = [[(j, x) for j, x in enumerate(row) if x] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [0] * other.cols
            for a, b_row in zip(row, b):
                if a:
                    for j, x in b_row:
                        acc[j] += a * x
            out.append(acc)
        if not out:
            return IntMatrix.zero(0, other.cols)
        return IntMatrix.from_rows(out)

    def apply(self, vec):
        assert len(vec) == self.cols
        return [sum(self.entries[i][k] * vec[k] for k in range(self.cols))
                for i in range(self.rows)]


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
    columns = [list(mat.column(j)) for j in range(mat.cols)]
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
    reduced column Hermite form, built row by row so entries stay small."""
    n = mat.cols
    basis = [[int(i == j) for i in range(n)] for j in range(n)]
    for a in mat.entries:
        columns = [[sum(x * y for x, y in zip(a, c))] + c for c in basis]
        _column_echelon(1, len(columns), columns)
        basis = _hermite_columns(n, [c[1:] for c in columns if not c[0]])
    return IntMatrix.from_columns(n, basis)


class HNFSolver:
    """Factored integral solver: bring the columns of M to echelon form
    once, then solve M x = b for many right-hand sides by forward
    substitution.  Columns whose leading rows already strictly increase
    are taken as they stand: they are independent, so the solution is
    the unique one the reduction would also find."""

    def __init__(self, mat):
        self.mat = mat
        columns = [list(mat.column(j)) + [int(i == j) for i in range(mat.cols)]
                   for j in range(mat.cols)]
        leads = [next((i for i in range(mat.rows) if c[i]), mat.rows)
                 for c in columns]
        if all(a < b for a, b in zip(leads, leads[1:] + [mat.rows])):
            self.pivot_rows = leads
        else:
            self.pivot_rows = _column_echelon(mat.rows, mat.cols, columns)
        self.columns = columns

    def solve(self, target):
        """An integral x with M x = target, or None."""
        rows = self.mat.rows
        assert len(target) == rows
        resid = list(target)
        x = [0] * self.mat.cols
        for k, r in enumerate(self.pivot_rows):
            piv = self.columns[k][r]
            if resid[r] % piv != 0:
                return None
            q = resid[r] // piv
            if q:
                col = self.columns[k]
                for i in range(rows):
                    resid[i] -= q * col[i]
                for i in range(self.mat.cols):
                    x[i] += q * col[rows + i]
        if any(resid):
            return None
        return x


def solve_mod(mat, target, p):
    """x with entries in 0..p-1 and M x = target mod the prime p, or None:
    the columns mod p over an identity, then the target, are reduced in
    turn by the pivots before them, each new pivot scaled to 1."""
    pivots = []  # (row, column)
    for j in range(mat.cols + 1):
        top = mat.column(j) if j < mat.cols else target
        col = [a % p for a in top] + [int(i == j) for i in range(mat.cols)]
        for r, piv in pivots:
            f = col[r]
            if f:
                col = [(a - f * b) % p for a, b in zip(col, piv)]
        r = next((i for i in range(mat.rows) if col[i]), None)
        if j == mat.cols:
            return None if r is not None else [-a % p for a in col[mat.rows:]]
        if r is not None:
            inv = pow(col[r], -1, p)
            pivots.append((r, [a * inv % p for a in col]))
