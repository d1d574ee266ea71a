"""Independent oracles for the integer pipeline of the package.

The library computes its transition matrices, lattice coordinates,
operation classes and geometric classes with integer counting, bpoly
arithmetic, the formal group law and column Hermite forms.  These helpers
recompute the same objects the slow, obviously-correct way, over the
rationals: Newton's identity for e in terms of p, distribution counts part
by part for p in terms of m, dense Gauss-Jordan inversion (of the e-to-m
matrix, and of the map from monomial numbers to tangent Chern numbers),
the binomial closed form for projective spaces, and, with the GradedPoly
engine of `gradedpoly.py`, the formal group law, its inverse, the
determinant classes written in Chern variables and the reciprocal Chern
class.  An operation is applied by its definition, pairing the
m-coefficients of its class against the coaction of the whole class, where
the package walks the powers of a derivation or sums cached columns; a
class the package keeps as a power series in the sum L of the logs of the
Chern roots is expanded into m-coefficients through power sums, and the
determinant classes are built the same way from the exponential series,
to pin those power series.
Milnor hypersurfaces and complete intersections in P^n come from their
tangent Chern numbers, computed in the cohomology of the ambient product
of projective spaces by adjunction, where the package reads them off the
formal group law (Buchstaber's and Quillen's formulas).  The integer
kernel is checked against the row-by-row one, where each one-row pass
cuts the kernel so far and a Hermite pass keeps it canonical
(Kannan-Bachem 1979): the same canonical form, reached by another route.
The operation matrices are built column by column from the package's
operations: the Wall lattice, which the package builds
from *-monomials, is checked against the kernel of the shift-2
operation, and the differential, which the package reads off the twisted
Leibniz law, is solved from the boundary operation on the whole lattice.
Two lattices are compared by their reduced column Hermite forms, which
are unique; so the monomial basis is checked against all products of
catalog classes.  The invariant factors of a direct sum of cyclic groups,
which the package gets by a (gcd, lcm) pass, are read off the prime
powers of the summands, and a group is read back from its JSON form.
Where the package found a cheaper exact form, the form it replaced is
kept: the log by compositional inversion of exp, the truncated powers
of log, the operation with class L^k on b_p as sum_j [x^j] log^k
[x^(p+1)] exp^(j+1), log^a log' as the derivative of log^(a+1) divided
by a+1, the Milnor table by three convolutions, every Gysin series built
afresh, and the e-to-m matrix by counting 0/1 matrices row by row.
The Hermitian K-theory diagonal, whose elements the package keeps as one
GW pair in the normal form of a quotient of GW, is recomputed by the rules
per residue of the degree mod 4 that the pair replaced.
The canonical form of a small diagonal quadratic form over GF(q), which
the package reads off the form's orthogonal bases, is recomputed over
every change of basis in GL_n.
`pair_keyed` reads a symmetric-function matrix as a dict keyed by (row,
column) partitions, `by_partition` and `by_code` turn bpoly keys (codes)
into partitions and back, and `merge` forms the multiset union of two
partitions.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

from gradedpoly import GradedPoly, elementary_symmetric_rewrite, reciprocal
from slcob import bpoly, operations
from slcob.abelian import FGAbGroup, _factorint
from slcob.fgl import _memoized
from slcob.intmat import (HNFSolver, IntMatrix, _column_echelon,
                          _hermite_columns, kernel_basis)
from slcob.mu import (MUClass, cpn_class, generator_target,
                      min_s_combination, reciprocal_class_matrix, s_number)
from slcob.partitions import decode, encode, partition_count, partitions_of
from slcob.symfun import _p_in_m, e_to_m_matrix


def merge(p, q):
    """The partition whose parts are the multiset union of p and q.

    >>> merge((2, 1), (3, 1))
    (3, 2, 1, 1)
    """
    return tuple(sorted(p + q, reverse=True))


def by_partition(poly):
    """A bpoly {code: int} keyed by partitions instead."""
    return {decode(k): v for k, v in poly.items()}


def by_code(poly):
    """A polynomial {partition: int} as a bpoly, keyed by codes."""
    return {encode(k): v for k, v in poly.items()}


@lru_cache(maxsize=None)
def distribute_count(lam, mu):
    """Maps of the parts of lam onto the slots of mu that fill every slot
    exactly, by trying each part in every slot it fits (slots of equal
    capacity once, weighted by their number)."""
    def count(i, slots):
        if i == len(lam):
            return 0 if slots else 1
        total = 0
        for s, cap in enumerate(slots):
            if cap >= lam[i] and (s == 0 or slots[s - 1] != cap):
                nxt = sorted(slots[:s] + (cap - lam[i],) + slots[s + 1:],
                             reverse=True)
                total += slots.count(cap) * count(
                    i + 1, tuple(x for x in nxt if x))
        return total
    return count(0, tuple(sorted((s for s in mu if s), reverse=True)))


@lru_cache(maxsize=None)
def e_in_p(k):
    """e_k as a p-basis vector with Fraction coefficients, from Newton's
    identity k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i."""
    if k == 0:
        return {(): Fraction(1)}
    out = {}
    for i in range(1, k + 1):
        sign = Fraction((-1) ** (i - 1), k)
        for lam, c in e_in_p(k - i).items():
            key = merge(lam, (i,))
            out[key] = out.get(key, Fraction(0)) + sign * c
    return {k2: v for k2, v in out.items() if v}


@lru_cache(maxsize=None)
def e_monomial_in_p(mu):
    """e_mu = prod e_{mu_i} as a p-basis vector (Fractions)."""
    out = {(): Fraction(1)}
    for part in mu:
        nxt = {}
        for l1, c1 in out.items():
            for l2, c2 in e_in_p(part).items():
                key = merge(l1, l2)
                nxt[key] = nxt.get(key, Fraction(0)) + c1 * c2
        out = {k: v for k, v in nxt.items() if v}
    return out


def p_vec_to_m_vec(vec, combine=None):
    """Convert a vector of p-basis coefficients to m-basis coefficients.
    Coefficient addition/scaling is generic: `combine` provides
    (add, scale, zero) for coefficient values; defaults to numbers."""
    if combine is None:
        addc = lambda a, b: a + b
        scalec = lambda a, c: a * c
        zero_like = 0
    else:
        addc, scalec, zero_like = combine
    out = {}
    for lam, coeff in vec.items():
        for mu, c in _p_in_m(tuple(lam)).items():
            cur = out.get(mu, zero_like)
            out[mu] = addc(cur, scalec(coeff, c))
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def newton_e_to_m_matrix(w):
    """E[(mu, nu)] = coefficient of m_nu in e_mu, through the p basis."""
    mat = {}
    for mu in partitions_of(w):
        for nu, c in p_vec_to_m_vec(e_monomial_in_p(mu)).items():
            assert c.denominator == 1
            mat[(mu, nu)] = int(c)
    return mat


def zero_one_count(rows, cols, memo):
    """Number of 0/1 matrices with row sums `rows` and column sums `cols`
    (both partitions).  The first row takes one unit from each of rows[0]
    distinct columns; columns of equal remaining sum are interchangeable,
    so the choice is how many to take from each such group."""
    if not rows:
        return 0 if cols else 1
    key = (rows, cols)
    hit = memo.get(key)
    if hit is not None:
        return hit
    total = 0
    if rows[0] <= len(cols):
        groups = []
        for c in cols:
            if groups and groups[-1][0] == c:
                groups[-1][1] += 1
            else:
                groups.append([c, 1])
        # (ways, units still to take, new column sums); groups go in
        # decreasing order, so the new column sums stay sorted
        partial = [(1, rows[0], ())]
        for value, mult in groups:
            nxt = []
            for ways, need, new in partial:
                for k in range(min(mult, need) + 1):
                    nxt.append((ways * comb(mult, k), need - k,
                                new + (value,) * (mult - k) + (value - 1,) * k))
            partial = nxt
        rest = rows[1:]
        for ways, need, new in partial:
            if need == 0:
                while new and new[-1] == 0:
                    new = new[:-1]
                total += ways * zero_one_count(rest, new, memo)
    memo[key] = total
    return total


def zero_one_e_to_m_matrix(w):
    """E[(mu, nu)] = the number of 0/1 matrices with row sums mu and
    column sums nu, counted row by row."""
    memo = {}
    parts = partitions_of(w)
    return {(mu, nu): c for mu in parts for nu in parts
            if (c := zero_one_count(mu, nu, memo))}


def pair_keyed(mat, w):
    """A weight-w matrix, rows and columns in partition order, as the dict
    {(row partition, column partition): entry} of its nonzero entries,
    row by row."""
    parts = partitions_of(w)
    return {(a, b): x for a, row in zip(parts, mat.entries)
            for b, x in zip(parts, row) if x}


def gauss_jordan_inverse(rows):
    """Inverse of a square integer matrix (list of rows) over Q."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        sel = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[sel] = a[sel], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


@lru_cache(maxsize=None)
def m_to_e_matrix(w):
    """M[(nu, mu)] = coefficient of e_mu in m_nu: the inverse of the
    e-to-m matrix, by Gauss-Jordan over Q."""
    parts = partitions_of(w)
    E = pair_keyed(e_to_m_matrix(w), w)
    inv = gauss_jordan_inverse([[E.get((mu, nu), 0) for mu in parts]
                                for nu in parts])
    assert all(c.denominator == 1 for row in inv for c in row)
    return {(nu, mu): int(inv[i][j]) for i, mu in enumerate(parts)
            for j, nu in enumerate(parts) if inv[i][j]}


def chern_number(x, omega):
    """The Chern number c_omega of the stable normal bundle (the negative
    of the tangent bundle) of a class: its monomial numbers paired with
    the row omega of the e-to-m matrix computed through power sums."""
    omega = tuple(sorted(omega, reverse=True))
    if sum(omega) != x.degree:
        raise ValueError("partition weight %d does not match degree %d"
                         % (sum(omega), x.degree))
    E = newton_e_to_m_matrix(x.degree)
    return sum(c * x.coefficient(nu) for (mu, nu), c in E.items()
               if mu == omega)


def graded_reciprocal_class_matrix(n):
    """R[(omega, omega2)]: the Chern monomial c^omega of 1/c(E) in Chern
    monomials of E, computed with GradedPoly over the variables c_i."""
    weights = {"c%d" % i: i for i in range(1, n + 1)}
    total = GradedPoly.const(weights, n, 1)
    for i in range(1, n + 1):
        total = total + GradedPoly.gen(weights, n, "c%d" % i)
    recip = reciprocal(total)
    pieces = {w: recip.homogeneous_part(w) for w in range(1, n + 1)}
    mat = {}
    for omega in partitions_of(n):
        prod = GradedPoly.const(weights, n, 1)
        for part in omega:
            prod = prod * pieces[part]
        for omega2 in partitions_of(n):
            mon = {}
            for i in omega2:
                mon["c%d" % i] = mon.get("c%d" % i, 0) + 1
            c = prod.coefficient(tuple(sorted(mon.items())))
            assert c.denominator == 1
            if c:
                mat[(omega, omega2)] = int(c)
    return mat


def kernel_basis_by_rows(mat):
    """Z-basis of {v : mat*v = 0} in reduced column Hermite form, row by
    row: a one-row echelon pass cuts the kernel so far, which a Hermite
    pass keeps canonical, so entries stay near the answer's size."""
    n = mat.cols
    basis = [[int(i == j) for i in range(n)] for j in range(n)]
    for a in mat.entries:
        columns = [[sum(x * y for x, y in zip(a, c))] + c for c in basis]
        _column_echelon(1, len(columns), columns)
        basis = _hermite_columns(n, [c[1:] for c in columns if not c[0]])
    return IntMatrix.from_columns(n, basis)


def operation_matrix(cf, op, n):
    """The b-monomial matrix of the operation op from degree n to degree
    n - op.shift: column j is op applied to the j-th degree-n basis
    class."""
    return IntMatrix.from_columns(partition_count(n - op.shift), [
        operations.apply_operation(cf.ctx, op, cls).vector()
        if n >= op.shift else [] for _, cls in cf.basis.basis(n)])


def wall_lattice_kernel(cf, n):
    """The Wall lattice in degree n as the kernel of the shift-2 operation
    on the degree-n basis, in reduced column Hermite form: no *-product
    and no choice of generators."""
    return kernel_basis(operation_matrix(cf, operations.delta_op(cf.ctx), n))


def delta_matrix_by_operation(cf, n):
    """The differential from the Wall lattice in degree n to degree n - 1,
    in the Wall bases, by the dense route: minus the boundary operation's
    b-monomial matrix times B_n W_n, solved against B_(n-1) W_(n-1).  No
    Leibniz law and no generator step."""
    image = operation_matrix(
        cf, operations.boundary_partial(cf.ctx), n) * cf.w_lattice(n)
    solver = HNFSolver(cf.basis.matrix(n - 1) * cf.w_lattice(n - 1))
    cols = [solver.solve([-a for a in image.column(j)])
            for j in range(image.cols)]
    assert None not in cols, "boundary image escapes the Wall lattice"
    return IntMatrix.from_columns(solver.mat.cols, cols)


def b_monomial_cycle_solver(cf, n):
    """The solver of b-monomial vectors against the degree-n cycles: the
    basis matrix B_n times the cycle basis, so membership is decided with
    no `MUBasis.to_coordinates`."""
    return HNFSolver(cf.basis.matrix(n) * cf.cycles_in_lattice(n))


def hermite_column_form(mat):
    """The reduced column Hermite form of mat, zero columns dropped."""
    columns = [list(mat.column(j)) for j in range(mat.cols)]
    return IntMatrix.from_columns(mat.rows, _hermite_columns(mat.rows, columns))


def same_column_span(a, b):
    """Whether two integer matrices with the same row count span the same
    Z-lattice with their columns (the Hermite form is unique)."""
    assert a.rows == b.rows
    return hermite_column_form(a).entries == hermite_column_form(b).entries


def catalog_classes(ctx, n):
    """The degree-n catalog, every class built: CP^n, then the Milnor
    hypersurfaces H_(i, n+1-i) with i <= n+1-i, from `milnor_table_fgh`."""
    table = milnor_table_fgh(ctx)
    return [cpn_class(ctx, n)] + [table[(i, n + 1 - i)]
                                  for i in range(1, (n + 1) // 2 + 1)]


def select_generator_from_catalog(ctx, n):
    """The degree-n generator chosen from the s-numbers of the built
    catalog classes: the least positive s-number combination, which must
    reach the Milnor target."""
    classes = catalog_classes(ctx, n)
    combo, g = min_s_combination([s_number(cls) for cls in classes],
                                 classes.__getitem__)
    assert g == generator_target(n)
    return combo


def catalog_span_matches(basis, n):
    """Whether the Z-span of all products of catalog classes, one per part
    of a partition of n, equals the span of the degree-n monomial basis."""
    cols = []
    for omega in partitions_of(n):
        for factors in product(*(catalog_classes(basis.ctx, part)
                                 for part in omega)):
            cls = MUClass.unit()
            for factor in factors:
                cls = cls * factor
            cols.append(cls.vector())
    return same_column_span(IntMatrix.from_columns(len(partitions_of(n)), cols),
                            basis.matrix(n))


def cpn_tangent_numbers(n):
    """Tangent Chern numbers of CP^n from (1+h)^{n+1} mod h^{n+1}: the
    product of the binomial coefficients C(n+1, part)."""
    out = {}
    for omega in partitions_of(n):
        prod = 1
        for part in omega:
            prod *= comb(n + 1, part)
        out[omega] = prod
    return out


@lru_cache(maxsize=None)
def _tangent_to_hurewicz(n):
    """The inverse of R E over Q, as rows: the tangent numbers are R E
    times the monomial numbers, R the reciprocal-class matrix."""
    parts = partitions_of(n)
    R = pair_keyed(reciprocal_class_matrix(n), n)
    E = pair_keyed(e_to_m_matrix(n), n)
    return gauss_jordan_inverse(
        [[sum(R.get((omega, mu), 0) * E.get((mu, nu), 0) for mu in parts)
          for nu in parts] for omega in parts])


def chern_numbers_to_hurewicz(numbers, n):
    """The class with the given tangent Chern numbers {partition of n:
    int}; KeyError if one is missing."""
    parts = partitions_of(n)
    vec = [numbers[omega] for omega in parts]
    out = {}
    for nu, row in zip(parts, _tangent_to_hurewicz(n)):
        c = sum(r * v for r, v in zip(row, vec))
        assert c.denominator == 1
        out[nu] = int(c)
    return MUClass.from_dict(n, out)


@lru_cache(maxsize=None)
def tangent_numbers(dims, divisors=()):
    """Tangent Chern numbers and total tangent class of the product X of
    projective spaces P^dims[0] x P^dims[1] x ..., or, given `divisors`
    (a tuple of multidegrees), of the smooth complete intersection of
    divisors of those multidegrees in X.

    The cohomology of X is Z[x_1, x_2, ...]/(x_k^(dims[k]+1)) and its total
    tangent class is prod (1 + x_k)^(dims[k]+1); each divisor D divides it
    by 1 + [D] with [D] = sum divisor[k] x_k (adjunction).  A Chern number
    c_omega is the coefficient of the top monomial in c_omega times the
    product of the [D] (Stong, Notes on Cobordism Theory, 1968, for the
    Milnor hypersurfaces).

    A monomial x^e is the integer sum e_k R^k with R = sum(dims) + 1:
    exponents of total degree below R multiply by adding their integers
    without carries, and a product survives the relations exactly when its
    integer is one of the in-range monomials.

    Returns (numbers, total): numbers is {partition of d: int} for the
    dimension d of the variety, and total[w] is the degree-w part of its
    total tangent class, {monomial integer: int}, for w = 0..d."""
    radix = sum(dims) + 1
    place = [radix ** k for k in range(len(dims))]
    d = sum(dims) - len(divisors)
    total = [{} for _ in range(max(d, len(divisors)) + 1)]
    for e in product(*(range(m + 1) for m in dims)):
        if sum(e) < len(total):
            c = 1
            for m, a in zip(dims, e):
                c *= comb(m + 1, a)
            total[sum(e)][sum(a * p for a, p in zip(e, place))] = c
    in_range = set().union(*total)

    def mul(u, v):
        out = {}
        for k1, c1 in u.items():
            for k2, c2 in v.items():
                k = k1 + k2
                if k in in_range:
                    out[k] = out.get(k, 0) + c1 * c2
        return out

    top = sum(m * p for m, p in zip(dims, place))
    cut = {0: 1}  # the product of the divisor classes
    for divisor in divisors:
        cls = {p: a for p, a in zip(place, divisor) if a}
        for w in range(1, d + 1):  # total_w -= [D] * total_{w-1}
            for k, c in mul(cls, total[w - 1]).items():
                total[w][k] -= c
            total[w] = {k: c for k, c in total[w].items() if c}
        cut = mul(cut, cls)
    # the coefficient of x^top in c_omega [D_1]...[D_r] is read off
    # x^top / x^e for the monomials x^e of the product
    dual = {top - k: a for k, a in cut.items() if a}
    total = total[: d + 1]
    chern = {(): {0: 1}}  # c_omega, built on the tails of the partitions

    def chern_monomial(omega):
        if omega not in chern:
            chern[omega] = mul(total[omega[0]], chern_monomial(omega[1:]))
        return chern[omega]

    numbers = {}
    for omega in partitions_of(d):
        c_omega = chern_monomial(omega)
        numbers[omega] = sum(a * c_omega.get(k, 0) for k, a in dual.items())
    return numbers, total


def milnor_hypersurface_class(ctx, i, j):
    """[H_{i,j}], the (1,1)-divisor in P^i x P^j, from its tangent Chern
    numbers."""
    assert 1 <= i <= j and i + j - 1 <= ctx.bound
    return chern_numbers_to_hurewicz(
        tangent_numbers((i, j), ((1, 1),))[0], i + j - 1)


def complete_intersection_class(ambient_n, degrees):
    """A smooth complete intersection of hypersurfaces of the given
    degrees in P^ambient_n, from its tangent Chern numbers."""
    return chern_numbers_to_hurewicz(
        tangent_numbers((ambient_n,), tuple((d,) for d in degrees))[0],
        ambient_n - len(degrees))


def hypersurface_class(ambient_n, degree):
    """A smooth hypersurface of the given degree in P^ambient_n, from its
    tangent Chern numbers."""
    return complete_intersection_class(ambient_n, (degree,))


# -- the catalog and the L-power operations by the formulas they replaced ---


@lru_cache(maxsize=None)
def log_powers(ctx):
    """[log^0, ..., log^(top+2)] to u^(top+2): the u^d coefficient of
    log^k has weight d - k, kept up to weight `bound` and left 0 above.
    Cached per context; do not mutate."""
    deg = ctx.top + 2
    powers = [[dict(bpoly.ONE)] + [{}] * deg]
    for k in range(1, deg + 1):
        full = bpoly.ser_mul(powers[-1], ctx.log_series, deg)
        powers.append([c if d - k <= ctx.bound else {}
                       for d, c in enumerate(full)])
    return powers


def log_derivative_powers(ctx):
    """Q[a][i] = [u^i] log^a log' = (i+1) [u^(i+1)] log^(a+1) / (a+1) for
    0 <= a, i <= top + 1, each division checked exact."""
    table = []
    for a, power in enumerate(log_powers(ctx)[1:]):
        row = [bpoly.scale(power[i + 1], i + 1) for i in range(len(power) - 1)]
        assert not any(v % (a + 1) for c in row for v in c.values()), a
        table.append([{k: v // (a + 1) for k, v in c.items()} for c in row])
    return table


def log_power_operations(ctx, p):
    """[O_0(b_p), ..., O_p(b_p)], O_k the operation with class L^k, as
    O_k(b_p) = sum_j [x^j] log^k [x^(p+1)] exp^(j+1)."""
    lpow = log_powers(ctx)
    out = []
    for k in range(p + 1):
        ok = {}
        for j in range(k, p + 1):
            bpoly.mul_into(ok, lpow[k][j], ctx.exp_powers[j][p + 1])
        out.append(ok)
    return out


@_memoized
def milnor_table_fgh(ctx):
    """{(i, j): [H_{i,j}]} as three convolutions: F(u,v) = exp(l(u) + l(v))
    written as sum_a l(u)^a E_a(v), E_a(v) = sum_m e_(a+m) C(a+m, a)
    l(v)^m, then G = F C(u) and H = G C(v), C(u) = sum [CP^k] u^k built
    from the classes of projective spaces rather than from log'.  Cached
    per context; do not mutate."""
    top = ctx.top
    rows = top // 2 + 1
    lpow = log_powers(ctx)
    F = {}
    for a in range(rows):
        E = [{} for _ in range(top + 1 - a)]
        for m in range(top + 1 - a):
            e = bpoly.scale(ctx.exp_series[a + m], comb(a + m, a))
            for j in range(m, top + 1 - a):
                bpoly.mul_into(E[j], lpow[m][j], e)
        for i in range(a, rows):
            for j in range(top + 1 - i):
                bpoly.mul_into(F.setdefault((i, j), {}), lpow[a][i], E[j])
    C = [cpn_class(ctx, k).poly() for k in range(top)]
    G = {}
    for (i, j), f in F.items():
        for k in range(min(rows - i, top + 1 - i - j)):
            bpoly.mul_into(G.setdefault((i + k, j), {}), f, C[k])
    H = {}
    for (i, j), g in G.items():
        for k in range(max(i - j, 0), top + 1 - i - j if i else 0):
            bpoly.mul_into(H.setdefault((i, j + k), {}), g, C[k])
    return {(i, j): MUClass.from_poly(i + j - 1, h) for (i, j), h in H.items()}


def complete_intersection_per_class(ctx, n, degrees):
    """Quillen's formula with each Gysin series [d]_F(u) built afresh as
    sum_k (d^k e_k) log(u)^k, the products taken for every divisor."""
    top, lpow = n - len(degrees) + 1, log_powers(ctx)
    product = [dict(bpoly.ONE)]
    for d in degrees:
        series = bpoly.ser_zero(top)
        for k in range(1, top + 1):
            ek = bpoly.scale(ctx.exp_series[k], d ** k)
            for j in range(k, top + 1):
                bpoly.mul_into(series[j], ek, lpow[k][j])
        product = bpoly.ser_mul(product, series, n)
    out = {}
    for k in range(len(degrees), n + 1):
        bpoly.mul_into(out, product[k], cpn_class(ctx, n - k).poly())
    return MUClass.from_poly(n - len(degrees), out)


# -- the formal group law of a context, written out with GradedPoly ---------


def b_weights(ctx, extra=()):
    """Weights of b1..b_bound plus the (name, weight) pairs of `extra`."""
    w = {"b%d" % i: i for i in range(1, ctx.bound + 1)}
    w.update(extra)
    return w


def poly_from_bpoly(ctx, bp, weights, extra_mon=()):
    """A bpoly (times the monomial extra_mon) as a GradedPoly."""
    coeffs = {}
    for code, c in bp.items():
        mon = dict(extra_mon)
        for i in decode(code):
            key = "b%d" % i
            mon[key] = mon.get(key, 0) + 1
        coeffs[tuple(sorted(mon.items()))] = Fraction(c)
    return GradedPoly(weights, ctx.bound, coeffs)


def series_poly(ctx, series, var, weights):
    """A univariate series (bpoly coefficients) as a GradedPoly in var."""
    out = GradedPoly(weights, ctx.bound)
    for d, coeff in enumerate(series):
        if coeff and d <= ctx.bound:
            out = out + poly_from_bpoly(ctx, coeff, weights, ((var, d),))
    return out


def ser_compose(f, g, top):
    """f(g(x)) for bpoly series with g[0] = 0."""
    assert not g[0]
    out = bpoly.ser_zero(top)
    gp = bpoly.ser_zero(top)
    gp[0] = dict(bpoly.ONE)
    for k in range(len(f)):
        if k > top:
            break
        if k > 0:
            gp = bpoly.ser_mul(gp, g, top)
        if f[k]:
            for d in range(top + 1):
                if gp[d]:
                    bpoly.mul_into(out[d], f[k], gp[d])
    return out


def ser_inverse(f, top):
    """Compositional inverse of f = x + higher, solved degree by degree
    from f(g(x)) = x; integral whenever f is."""
    assert not f[0] and f[1] == bpoly.ONE
    g = bpoly.ser_zero(top)
    g[1] = dict(bpoly.ONE)
    for d in range(2, top + 1):
        err = ser_compose(f[: d + 1], g, d)[d]
        if err:
            g[d] = bpoly.scale(err, -1)
    return g


def chi_series(ctx):
    """chi(x) = exp(-log x) as a bpoly series."""
    neg_log = [bpoly.scale(c, -1) for c in ctx.log_series]
    return ser_compose(ctx.exp_series, neg_log, ctx.top)


def formal_group(ctx):
    """F(x, y) = exp(log x + log y) as a GradedPoly in x, y over Z[b]."""
    weights = b_weights(ctx, (("x", 1), ("y", 1)))
    logx = series_poly(ctx, ctx.log_series, "x", weights)
    logy = series_poly(ctx, ctx.log_series, "y", weights)
    expp = series_poly(ctx, ctx.exp_series, "x", weights)
    return expp.substitute("x", logx + logy)


def formal_inverse(ctx):
    """chi(x) as a GradedPoly in x over Z[b]."""
    return series_poly(ctx, chi_series(ctx), "x", b_weights(ctx, (("x", 1),)))


def _compose(ctx, series, f):
    """sum_d series[d] f^d for a bpoly series and a GradedPoly f."""
    out = GradedPoly(f.weights, ctx.bound)
    power = GradedPoly.const(f.weights, ctx.bound, 1)
    for d in range(0, ctx.top + 1):
        if d > 0:
            power = power * f
            if power.is_zero():
                break
        if d < len(series) and series[d]:
            out = out + poly_from_bpoly(ctx, series[d], f.weights) * power
    return out


def formal_sum(ctx, k):
    """F(x1, F(x2, ...)) = exp(log x1 + ... + log xk) as a symmetric
    GradedPoly in x1..xk."""
    xs = ["x%d" % i for i in range(1, k + 1)]
    weights = b_weights(ctx, tuple((x, 1) for x in xs))
    total = GradedPoly(weights, ctx.bound)
    for x in xs:
        total = total + series_poly(ctx, ctx.log_series, x, weights)
    return _compose(ctx, ctx.exp_series, total)


def c1_determinant_class(ctx, k, dual=False):
    """c1 of the (dual) determinant of a rank-k bundle, written in the
    Chern variables c1..ck over Z[b]: the formal sum of the Chern roots
    (dual: its formal inverse), rewritten via elementary symmetric
    functions."""
    xs = ["x%d" % i for i in range(1, k + 1)]
    fs = formal_sum(ctx, k)
    if dual:
        fs = _compose(ctx, chi_series(ctx), fs)
    cs = ["c%d" % i for i in range(1, k + 1)]
    weights = b_weights(ctx, tuple((c, i + 1) for i, c in enumerate(cs)))
    # rewrite each pure-x slice; the b-part of a monomial rides along
    slices = {}
    for mon, c in fs.coeffs.items():
        bpart = tuple((g, e) for g, e in mon if not g.startswith("x"))
        xpart = tuple((g, e) for g, e in mon if g.startswith("x"))
        slices.setdefault(bpart, {})[xpart] = c
    xweights = {x: 1 for x in xs}
    xweights.update({c: i + 1 for i, c in enumerate(cs)})
    out = {}
    for bpart, coeffs in slices.items():
        rewritten = elementary_symmetric_rewrite(
            GradedPoly(xweights, ctx.bound, coeffs), xs, cs)
        for cmon, c in rewritten.coeffs.items():
            key = tuple(sorted(cmon + bpart))
            out[key] = out.get(key, 0) + c
    return GradedPoly(weights, ctx.bound, out)


# -- operation classes in power-sum and monomial coordinates ---------------


def _pp_mul(a, b, bound):
    """Multiply polynomials in power-sum variables with bpoly coefficients:
    {p-partition: bpoly}, dropping terms of weight above `bound`."""
    out = {}
    for k1, v1 in a.items():
        w1 = sum(k1)
        for k2, v2 in b.items():
            if w1 + sum(k2) > bound:
                continue
            k = tuple(sorted(k1 + k2, reverse=True))
            bpoly.mul_into(out.setdefault(k, {}), v1, v2)
    return {k: v for k, v in out.items() if v}


def _p_class_to_m(cls_p):
    """Group a p-coordinate class by weight and convert to m-coordinates."""
    by_weight = {}
    for lam, coeff in cls_p.items():
        by_weight.setdefault(sum(lam), {})[lam] = coeff
    combine = (bpoly.add, bpoly.scale, {})
    return {w: p_vec_to_m_vec(vec, combine) for w, vec in by_weight.items()}


def log_class(ctx, sign=1):
    """sign * L with L = sum_j mu_j p_j, as {p-partition: bpoly}: mu_j is
    the j-th log coefficient, p_j the power sums of the Chern roots."""
    return {(j,): bpoly.scale(ctx.log_series[j], sign)
            for j in range(1, ctx.bound + 1) if ctx.log_series[j]}


def det_class_p(ctx, sign):
    """exp(sign * L) in power-sum coordinates, exp the exponential series
    of the formal group law, summed power by power of L; sign=-1 is the
    class of c1(det gamma-dual)."""
    L = log_class(ctx, sign)
    out = {}
    power = {(): dict(bpoly.ONE)}
    for k in range(1, ctx.top + 1):
        power = _pp_mul(power, L, ctx.bound)
        if not power:
            break
        coeff = ctx.exp_series[k] if k < len(ctx.exp_series) else {}
        if coeff:
            for mon, val in power.items():
                bpoly.mul_into(out.setdefault(mon, {}), val, coeff)
    return {k2: v for k2, v in out.items() if v}


def boundary_class_m(ctx):
    """m-basis coefficients of the boundary operation's class, by weight:
    {w: {partition: bpoly}}."""
    return _p_class_to_m(det_class_p(ctx, -1))


def delta_class_m(ctx):
    """m-basis coefficients of c1(det) * c1(det dual)."""
    return _p_class_to_m(_pp_mul(det_class_p(ctx, +1), det_class_p(ctx, -1),
                                 ctx.bound))


@_memoized
def coefficients(ctx, op):
    """The m-coefficients of an operation's class as {weight: {partition:
    bpoly}}; a class sum_k g_k L^k is expanded through power sums, up to
    the context's truncation.  Cached per context and operation in the
    context's memo, as the expansion is the oracle's slowest step; callers
    share the result and only read it."""
    if not op.log_coeffs:
        return {sum(op.omega): {op.omega: dict(bpoly.ONE)}}
    L = log_class(ctx)
    out = {}
    power = {(): dict(bpoly.ONE)}
    for k, g in enumerate(op.log_coeffs):
        if k:
            power = _pp_mul(power, L, ctx.bound)
        for mon, val in power.items():
            bpoly.mul_into(out.setdefault(mon, {}), val, dict(g))
    return _p_class_to_m({k: v for k, v in out.items() if v})


def char_class(ctx, op, k, max_weight):
    """The class of an operation as a GradedPoly in c1..ck over Z[b],
    keeping terms of Chern weight <= max_weight (e_i = 0 for i > k)."""
    weights = {"c%d" % i: i for i in range(1, k + 1)}
    weights.update({"b%d" % i: i for i in range(1, max_weight + 1)})
    out = {}
    for w, vec in coefficients(ctx, op).items():
        if w > max_weight:
            continue
        M = m_to_e_matrix(w)
        for nu, coeff in vec.items():
            for mu in partitions_of(w):
                c_e = M.get((nu, mu), 0)
                if not c_e or any(part > k for part in mu):
                    continue
                cmon = {}
                for part in mu:
                    cmon["c%d" % part] = cmon.get("c%d" % part, 0) + 1
                for bcode, c in coeff.items():
                    mon = dict(cmon)
                    for i in decode(bcode):
                        mon["b%d" % i] = mon.get("b%d" % i, 0) + 1
                    key = tuple(sorted(mon.items()))
                    out[key] = out.get(key, 0) + c * c_e
    return GradedPoly(weights, 2 * max_weight + 1, out)


# -- operations, one whole class at a time ----------------------------------


def psi_monomial(ctx, part):
    """psi(b^part) as {t-partition: bpoly}: the product over the parts n of
    psi(b_n) = sum_j t_j [x^{n+1}] exp^{j+1}, multiplied out afresh."""
    out = {(): dict(bpoly.ONE)}
    for n in part:
        psi_n = {((j,) if j else ()): ctx.exp_powers[j][n + 1]
                 for j in range(n + 1) if ctx.exp_powers[j][n + 1]}
        nxt = {}
        for t1, c1 in out.items():
            for t2, c2 in psi_n.items():
                key = merge(t1, t2)
                nxt[key] = bpoly.add(nxt.get(key, {}), bpoly.mul(c1, c2))
        out = {key: val for key, val in nxt.items() if val}
    return out


def coaction(ctx, x):
    """psi(h(x)) as {t-partition: bpoly}, summed over the b-monomials of
    the class."""
    out = {}
    for part, c in x.hb:
        for key, val in psi_monomial(ctx, part).items():
            out[key] = bpoly.add(out.get(key, {}), bpoly.scale(val, c))
    return {key: val for key, val in out.items() if val}


def apply_operation(ctx, op, x):
    """The operation on x by definition: the coaction of the whole class,
    its t^omega coefficient paired with the m_omega coefficient of the
    operation's class."""
    target = x.degree - op.shift
    if target < 0 or x.is_zero():
        return MUClass.zero(max(target, 0))
    co = coaction(ctx, x)
    out = {}
    for vec in coefficients(ctx, op).values():
        for omega, coeff in vec.items():
            if omega in co:
                out = bpoly.add(out, bpoly.mul(coeff, co[omega]))
    return MUClass.from_poly(target, out)


# -- abelian groups ---------------------------------------------------------


def invariant_factors_by_prime(divisors, inverted_primes):
    """(free rank, invariant factors) of the direct sum of the Z/d, d = 0
    standing for Z, with the inverted primes stripped.  The prime powers of
    every d are sorted per prime; the last factor multiplies the largest
    power of each prime, the one before it the next largest, and so on."""
    rank = 0
    by_prime = {}
    for d in divisors:
        if d == 0:
            rank += 1
            continue
        for p, e in _factorint(abs(d)).items():
            if p not in inverted_primes:
                by_prime.setdefault(p, []).append(e)
    for exps in by_prime.values():
        exps.sort(reverse=True)
    factors = []
    for slot in range(max(map(len, by_prime.values()), default=0)):
        f = 1
        for p, exps in by_prime.items():
            if slot < len(exps):
                f *= p ** exps[slot]
        factors.append(f)
    return rank, tuple(reversed(factors))


def group_from_json(data):
    """The FGAbGroup whose `to_json` is data."""
    return FGAbGroup(data["free_rank"], tuple(data["invariant_factors"]),
                     frozenset(data["inverted_primes"]))


# -- the Hermitian K-theory diagonal ----------------------------------------


class KQByResidue:
    """The element calculus of the diagonal, rule by rule for each residue
    r = n mod 4.  An element is a pair (degree, coefficient), and the
    coefficient is a normalized GW pair for r = 0, an int mod 2 for r = 1,
    an int for r = 2 and None for r = 3."""

    def __init__(self, witt):
        self.witt = witt

    def element(self, n, coeff):
        r = n % 4
        if r == 0:
            return (n, self.witt.gw_normalize(coeff))
        if r == 1:
            return (n, int(coeff) % 2)
        if r == 2:
            return (n, int(coeff))
        return (n, None)

    def zero(self, n):
        r = n % 4
        return self.element(n, (0, 0) if r == 0 else 0 if r < 3 else None)

    def is_zero(self, x):
        n, c = x
        r = n % 4
        if r == 0:
            return self.witt.gw_normalize(c) == (0, 0)
        if r == 3:
            return True
        return c == 0

    def gw_action(self, g, x):
        """Multiply by a coefficient g in GW (coordinate pair)."""
        w = self.witt
        n, c = x
        r = n % 4
        if r == 0:
            return self.element(n, w.gw_mul(g, c))
        if r in (1, 2):
            return self.element(n, w.gw_rank(g) * c)
        return self.zero(n)

    def multiply(self, x, y):
        n = x[0] + y[0]
        rx, ry = x[0] % 4, y[0] % 4
        if rx > ry:
            x, y, rx, ry = y, x, ry, rx
        w = self.witt
        if rx == 3 or ry == 3:
            return self.zero(n)
        if rx == 0 and ry == 0:
            return self.element(n, w.gw_mul(x[1], y[1]))
        if rx == 0:
            return self.gw_action(x[1], self.element(n, y[1]))
        if rx == 1:
            # t*t = 0 and t*H = 0
            return self.zero(n)
        # rx == ry == 2: H^2 = 2h * Bott
        h = w.hyperbolic()
        scale = 2 * x[1] * y[1]
        return self.element(n, w.gw_normalize((scale * h[0], scale * h[1])))

    def generator(self, n):
        """The canonical generator of degree n (None in degree 3 mod 4)."""
        r = n % 4
        if r == 0:
            return self.element(n, (1, 0))
        if r in (1, 2):
            return self.element(n, 1)
        return None


def gl_canonical(F, diag):
    """The least sorted diagonal of G^T A G over every G in GL_n(F), n <= 2,
    that makes it diagonal, where A is the diagonal form `diag` over the
    field F (a `wittforms.GF`)."""
    n = len(diag)

    def pairing(u, v):
        total = 0
        for a, x, y in zip(diag, u, v):
            total = F.add(total, F.mul(a, F.mul(x, y)))
        return total

    best = None
    for entries in product(range(F.q), repeat=n * n):
        cols = [entries[k * n:(k + 1) * n] for k in range(n)]
        if n == 1:
            det = cols[0][0]
        else:
            det = F.add(F.mul(cols[0][0], cols[1][1]),
                        F.neg(F.mul(cols[0][1], cols[1][0])))
        if det == 0 or (n == 2 and pairing(cols[0], cols[1]) != 0):
            continue
        cand = tuple(sorted(pairing(g, g) for g in cols))
        if best is None or cand < best:
            best = cand
    return best
