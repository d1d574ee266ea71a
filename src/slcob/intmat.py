"""Exact integer matrices: Smith and Hermite normal forms, kernels, solving.

Matrices are dense lists of rows of Python ints (arbitrary precision), small
enough here that correctness beats asymptotics: nothing in the pipeline
exceeds a few hundred rows.  Pivoting always selects a minimal nonzero entry,
which keeps coefficient growth tame in practice.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        assert len(self.entries) == self.rows
        assert all(len(r) == self.cols for r in self.entries)

    @classmethod
    def from_rows(cls, rows_list):
        rows_list = [tuple(int(x) for x in r) for r in rows_list]
        ncols = len(rows_list[0]) if rows_list else 0
        return cls(len(rows_list), ncols, tuple(rows_list))

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def tolists(self):
        return [list(r) for r in self.entries]

    def transpose(self):
        return IntMatrix.from_rows([self.column(j) for j in range(self.cols)]) \
            if self.cols else IntMatrix.zero(0, self.rows)

    def __mul__(self, other):
        assert self.cols == other.rows
        a, b = self.entries, other.entries
        out = []
        for i in range(self.rows):
            row = [sum(a[i][k] * b[k][j] for k in range(self.cols))
                   for j in range(other.cols)]
            out.append(row)
        if not out:
            return IntMatrix.zero(0, other.cols)
        return IntMatrix.from_rows(out)

    def apply(self, vec):
        assert len(vec) == self.cols
        return [sum(self.entries[i][k] * vec[k] for k in range(self.cols))
                for i in range(self.rows)]


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _is_diag(m, rows, cols):
    return all(m[i][j] == 0
               for i in range(rows) for j in range(cols) if i != j)


def smith_normal_form(mat):
    """Return (U, D, V) with U*mat*V = D, U and V unimodular, D diagonal
    with d1 | d2 | ... and nonnegative diagonal entries.

    Alternates entry-reduced column and row echelon passes until the
    matrix is diagonal (naive single-pivot elimination explodes
    coefficients already on 12x26 inputs), then enforces the divisibility
    chain with explicit 2x2 Bezout transforms."""
    rows, cols = mat.rows, mat.cols
    m = mat.tolists()
    u = IntMatrix.identity(rows).tolists()
    v = IntMatrix.identity(cols).tolists()

    for _ in range(200):
        if _is_diag(m, rows, cols):
            break
        # column pass: m <- m * V_pass (ride the transform along)
        columns = [[m[i][j] for i in range(rows)]
                   + [1 if t == j else 0 for t in range(cols)]
                   for j in range(cols)]
        _column_echelon(rows, cols, columns)
        for j in range(cols):
            for i in range(rows):
                m[i][j] = columns[j][i]
        vpass = [[columns[j][rows + t] for j in range(cols)] for t in range(cols)]
        v = [[sum(v[i][k] * vpass[k][j] for k in range(cols))
              for j in range(cols)] for i in range(cols)]
        if _is_diag(m, rows, cols):
            break
        # row pass: m <- U_pass * m via the same routine on the transpose
        rowcols = [[m[i][j] for j in range(cols)]
                   + [1 if t == i else 0 for t in range(rows)]
                   for i in range(rows)]
        _column_echelon(cols, rows, rowcols)
        for i in range(rows):
            for j in range(cols):
                m[i][j] = rowcols[i][j]
        upass = [[rowcols[i][cols + t] for t in range(rows)] for i in range(rows)]
        u = [[sum(upass[i][k] * u[k][j] for k in range(rows))
              for j in range(rows)] for i in range(rows)]
    else:
        raise RuntimeError("Smith normal form did not converge")

    # bubble nonzero diagonal entries to the front
    diag_len = min(rows, cols)
    for i in range(diag_len):
        if m[i][i] == 0:
            j = next((k for k in range(i + 1, diag_len) if m[k][k] != 0), None)
            if j is not None:
                _swap_diag(m, u, v, i, j, rows, cols)

    # divisibility chain via 2x2 transforms on diag entries
    changed = True
    while changed:
        changed = False
        for i in range(diag_len):
            for j in range(i + 1, diag_len):
                a, b = m[i][i], m[j][j]
                if a == 0 or b % a == 0:
                    continue
                g, s, t = _ext_gcd(a, b)
                # row_i += row_j ; then col mixing sends diag(a,b) to
                # diag(g, a*b/g); the Bezout 2x2 blocks below are unimodular
                for col in range(cols):
                    m[i][col] += m[j][col]
                for col in range(rows):
                    u[i][col] += u[j][col]
                # columns: (ci, cj) <- (s*ci + t*cj, -(b/g)*ci + (a/g)*cj)
                bg, ag = b // g, a // g
                for r in range(rows):
                    ci, cj = m[r][i], m[r][j]
                    m[r][i] = s * ci + t * cj
                    m[r][j] = -bg * ci + ag * cj
                for r in range(cols):
                    ci, cj = v[r][i], v[r][j]
                    v[r][i] = s * ci + t * cj
                    v[r][j] = -bg * ci + ag * cj
                # clear the (j, i) entry left by the row addition
                q = m[j][i] // m[i][i]
                if q:
                    for col in range(cols):
                        m[j][col] -= q * m[i][col]
                    for col in range(rows):
                        u[j][col] -= q * u[i][col]
                assert m[i][j] == 0 and m[j][i] == 0
                changed = True

    # make diagonal nonnegative (sign absorbed into V)
    for k in range(diag_len):
        if m[k][k] < 0:
            for r in m:
                r[k] = -r[k]
            for r in v:
                r[k] = -r[k]

    return (IntMatrix.from_rows(u) if rows else IntMatrix.zero(0, 0),
            IntMatrix.from_rows(m) if rows else IntMatrix.zero(0, cols),
            IntMatrix.from_rows(v) if cols else IntMatrix.zero(0, 0))


def _swap_diag(m, u, v, i, j, rows, cols):
    m[i], m[j] = m[j], m[i]
    u[i], u[j] = u[j], u[i]
    for r in range(rows):
        m[r][i], m[r][j] = m[r][j], m[r][i]
    for r in range(cols):
        v[r][i], v[r][j] = v[r][j], v[r][i]


def diagonal_of(d):
    return [d.entries[k][k] for k in range(min(d.rows, d.cols))]


def rank(mat):
    return sum(1 for x in diagonal_of(smith_normal_form(mat)[1]) if x != 0)


def _column_echelon(rows, ncols, columns):
    """In-place column reduction to echelon form with fully reduced
    off-pivot entries (column Hermite form).  `columns` is a list of
    column lists that may be longer than `rows`; only the first `rows`
    entries steer pivoting, the rest ride along (used for kernels).
    Returns the list of pivot rows per finalized column."""
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


def kernel_basis(mat):
    """Columns forming a Z-basis of {v : mat*v = 0}, as an IntMatrix
    (cols x k), in reduced column Hermite form.  The kernel of an integer
    matrix is saturated.  Computed by column-reducing mat stacked over an
    identity block, which keeps entries small."""
    n = mat.cols
    if n == 0:
        return IntMatrix.zero(0, 0)
    columns = [list(mat.column(j)) + [1 if i == j else 0 for i in range(n)]
               for j in range(n)]
    _column_echelon(mat.rows, n, columns)
    kernel_cols = [c[mat.rows:] for c in columns if not any(c[: mat.rows])]
    if not kernel_cols:
        return IntMatrix.zero(n, 0)
    # canonicalize the kernel basis itself
    _column_echelon(n, len(kernel_cols), kernel_cols)
    kernel_cols = [c for c in kernel_cols if any(c)]
    return IntMatrix.from_rows([list(r) for r in zip(*kernel_cols)])


class HNFSolver:
    """Factored integral solver: column-reduce M once, then solve
    M x = b for many right-hand sides by forward substitution."""

    def __init__(self, mat):
        self.mat = mat
        n = mat.cols
        columns = [list(mat.column(j)) + [1 if i == j else 0 for i in range(n)]
                   for j in range(n)]
        self.pivot_rows = _column_echelon(mat.rows, n, columns)
        self.columns = columns
        self.npiv = len(self.pivot_rows)

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

    def contains(self, target):
        return self.solve(target) is not None


def solve_int(mat, target):
    """An integer solution x of mat*x = target, or None."""
    u, d, v = smith_normal_form(mat)
    ub = u.apply(list(target))
    diag = diagonal_of(d)
    y = [0] * mat.cols
    for i in range(mat.rows):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
    return v.apply(y)


def hermite_column_form(mat):
    """Column-style Hermite normal form: returns H with the same column
    span over Z as mat, columns in echelon form with positive pivots and
    entries to the right of a pivot reduced modulo it.  Zero columns are
    dropped."""
    rows, cols = mat.rows, mat.cols
    m = [list(mat.column(j)) for j in range(cols)]  # work on columns

    def col_reduce(cj, ck, q):
        m[cj] = [a - q * b for a, b in zip(m[cj], m[ck])]

    h = []
    pivot_row = 0
    work = [c[:] for c in m]
    while pivot_row < rows and work:
        nz = [c for c in work if any(c[pivot_row:])]
        if not nz:
            break
        # gcd out the current pivot row among all columns with support here
        while True:
            cands = [c for c in work if c[pivot_row] != 0]
            if len(cands) <= 1:
                break
            cands.sort(key=lambda c: abs(c[pivot_row]))
            base = cands[0]
            changed = False
            for c in cands[1:]:
                q = c[pivot_row] // base[pivot_row]
                for i in range(rows):
                    c[i] -= q * base[i]
                changed = changed or c[pivot_row] != 0
            if not changed:
                break
        cands = [c for c in work if c[pivot_row] != 0]
        if cands:
            piv = cands[0]
            work.remove(piv)
            if piv[pivot_row] < 0:
                piv = [-x for x in piv]
            # reduce previously found pivots' rows? keep simple echelon:
            h.append(piv)
        pivot_row += 1
    # reduce entries above each pivot across columns of h
    # (columns ordered by pivot row ascending)
    pivots = []
    for c in h:
        pr = next(i for i in range(rows) if c[i] != 0)
        pivots.append(pr)
    for idx in range(len(h)):
        for jdx in range(idx):
            pr = pivots[idx]
            if h[jdx][pr] != 0:
                q = h[jdx][pr] // h[idx][pr]
                h[jdx] = [a - q * b for a, b in zip(h[jdx], h[idx])]
    if not h:
        return IntMatrix.zero(rows, 0)
    return IntMatrix.from_rows([list(r) for r in zip(*h)])


def same_column_span(a, b):
    """Whether two integer matrices with the same row count span the same
    Z-lattice with their columns."""
    assert a.rows == b.rows
    ha = hermite_column_form(a)
    hb = hermite_column_form(b)
    return ha.entries == hb.entries
