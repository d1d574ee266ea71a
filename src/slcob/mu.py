"""The complex-cobordism coefficient ring in its Hurewicz model.

A class of degree n is a homogeneous weight-n integer polynomial in
Z[b1, b2, ...]; the coordinate of the monomial b^omega is the
monomial-symmetric characteristic number of the stable normal bundle.
The geometric catalog (projective spaces and Milnor hypersurfaces) feeds
a generator search using the classical s-number criterion: degree n admits
a polynomial generator with s_n = p exactly when n+1 is a power of the
prime p, and s_n = 1 otherwise.  Monomials in the chosen generators give
an integral basis of every degree; a generator is selected the first
time its degree is asked for.

Every geometric class comes from the formal group law: [CP^n] is (n+1)
times the n-th log coefficient, the Milnor hypersurfaces follow from
Buchstaber's formula F(u,v) C(u) C(v) = sum [H_{i,j}] u^i v^j, where
C(u) = sum [CP^i] u^i = log'(u) (Mischenko; Buchstaber-Panov, Toric
Topology, 2015, 9.1); the binomial theorem on F = exp(log u + log v),
exp(x) = sum e_k x^k, turns it into

    H_(i,j) = sum_(a,c) e_(a+c) C(a+c, a) P_a[i] P_c[j],
    P_a[i] = [u^i] log^a log',

and a complete intersection in P^n (a hypersurface is the one-divisor
case) from Quillen's Gysin formula (Elementary proofs of some results of
cobordism theory using Steenrod operations, 1971).  The divisor of a
section of O(d) has Gysin class [d]_F(u) = exp(d log u) =
sum_(k>=1) d^k b_(k-1) log(u)^k (b_0 = 1), and u^j pushes forward to
[CP^(n-j)] = [u^(n-j)] log', so the class is [u^n] prod_i [d_i]_F(u) log',
in closed form

    sum over k_i >= 1 of  prod_i d_i^(k_i) b_(k_i - 1)  Q_K(n),
    K = sum k_i,  Q_K(n) = [u^n] log^K log' = P_K[n].

One table of these log-derivative powers, P_a[i] = Q_a(i), serves both
formulas; its rows are log' and then, one at a time, the row before
times log, so no power of log is built and nothing is divided.  The one
map from classes to numbers is `hurewicz_to_chern_numbers`, which serves
`charnum` and the reports.

Everything is integer arithmetic.  A class is kept as its b-monomial
vector, the lattices of the Conner-Floyd chain in the coordinates of the
basis x^omega; the two meet only in `MUBasis.from_coordinates` and in
`MUBasis.solver`, which `to_coordinates` reads: one `intmat.HNFSolver`
per degree against the basis matrix B_n, whose columns are the vectors
of the x^omega, so B_n must have full rank.  That solver takes only
columns in echelon form, and B_n is in that form as built: x^omega has
b-monomials only at refinements of omega, which come later in partition
order, and its b^omega coefficient is plus or minus the product of the
generators' s-numbers, so B_n is lower triangular with a nonzero
diagonal.  Chern monomials are partitions too, so the reciprocal-class
matrix is computed in bpoly.
"""

from functools import lru_cache
from math import comb

from . import bpoly
from .abelian import _factorint
from .fgl import _memoized
from .intmat import HNFSolver, IntMatrix
from .partitions import decode, encode, partitions_of
from .record import Record, _set


class NotInLattice(ValueError):
    pass


class BasisConstructionError(RuntimeError):
    pass


class MUClass(Record):
    """Element of the degree-n coefficient group, as its Hurewicz image:
    (code, int) terms sorted by code, which the arithmetic runs on; `hb`,
    `coeffs`, `coefficient` and `vector` read them by partition."""
    __slots__ = ("degree", "terms")

    def __init__(self, degree, terms):  # hot, so no generic methods
        _set(self, "degree", degree)
        _set(self, "terms", terms)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.degree, self.terms) == (other.degree, other.terms)
        return NotImplemented

    def __hash__(self):
        return hash((self.degree, self.terms))

    @classmethod
    def from_poly(cls, degree, poly):
        """The class of a code-keyed bpoly, trusted to have weight degree."""
        return cls(degree, tuple(sorted((k, v) for k, v in poly.items() if v)))

    @classmethod
    def from_dict(cls, degree, coeffs):
        if any(sum(part) != degree for part in coeffs):
            raise ValueError("a class of degree %d has a monomial of "
                             "another weight" % degree)
        return cls.from_poly(degree, {encode(p): int(v)
                                      for p, v in coeffs.items()})

    @classmethod
    def zero(cls, degree):
        return cls(degree, ())

    @classmethod
    def unit(cls):
        return cls(0, ((1, 1),))

    @property
    def hb(self):
        return tuple(sorted((decode(k), v) for k, v in self.terms))

    def poly(self):
        return dict(self.terms)

    def coeffs(self):
        return dict(self.hb)

    def is_zero(self):
        return not self.terms

    def coefficient(self, part):
        return dict(self.terms).get(encode(part), 0)

    def vector(self):
        """The b-monomial coordinates in the global partition order."""
        return bpoly.vector(dict(self.terms), self.degree)

    def __add__(self, other):
        deg = other.degree if self.is_zero() else self.degree
        if deg != other.degree and other.terms:
            raise ValueError("unequal degrees %d and %d" % (deg, other.degree))
        return MUClass.from_poly(deg, bpoly.add(self.poly(), other.poly()))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return MUClass.from_poly(self.degree, bpoly.scale(self.poly(), c))

    def __mul__(self, other):
        return MUClass.from_poly(self.degree + other.degree,
                                 bpoly.mul(self.poly(), other.poly()))

    def __str__(self):
        if not self.terms:
            return "0"
        terms = []
        for part, c in self.hb:
            terms.append("%+d*%s" % (c, monomial_label(part)))
        return " ".join(terms)


def monomial_label(part):
    """The b-monomial of a partition as text, as in b2*b1; "1" for ()."""
    return "*".join("b%d" % i for i in part) or "1"


def s_number(x):
    """The reported s-number: the b_n coordinate normalized so that
    s_n[CP^n] = n+1 (raw normal-bundle coordinate times the global sign)."""
    if x.degree < 1:
        raise ValueError("an s-number needs degree >= 1, not %d" % x.degree)
    return -x.coefficient((x.degree,))


# -- characteristic-number dictionary ------------------------------------


@lru_cache(maxsize=None)
def reciprocal_class_matrix(n):
    """Matrix R, rows and columns in partition order: row omega holds the
    Chern monomial c^omega of the reciprocal total Chern class, expanded
    in Chern monomials of the original bundle.  Involutive: R R = 1.

    Chern monomials are partitions, so the computation runs in bpoly with
    c_i in the role of b_i: the weight-w piece of 1/(1 + c1 + c2 + ...)
    is r_w = -(c1 r_{w-1} + c2 r_{w-2} + ... + c_w)."""
    pieces = [dict(bpoly.ONE)]
    for w in range(1, n + 1):
        pieces.append({})
        for i in range(1, w + 1):
            bpoly.mul_into(pieces[w], bpoly.gen(i), pieces[w - i], -1)
    rows = []
    for omega in partitions_of(n):
        prod = dict(bpoly.ONE)
        for part in omega:
            prod = bpoly.mul(prod, pieces[part])
        rows.append(bpoly.vector(prod, n))
    return IntMatrix.from_rows(rows)


def hurewicz_to_chern_numbers(x):
    """Tangent Chern numbers c_omega(T)[X] of a class from its Hurewicz
    coordinates: the normal Chern numbers are E times the monomial numbers,
    and the reciprocal-class matrix turns them into tangent ones."""
    n = x.degree
    if n == 0:
        return {(): x.coefficient(())}
    from .symfun import e_to_m_matrix
    normal = e_to_m_matrix(n).apply(x.vector())
    tangent = reciprocal_class_matrix(n).apply(normal)
    return dict(zip(partitions_of(n), tangent))


# -- the geometric catalog ------------------------------------------------


def cpn_class(ctx, n):
    """The class of complex projective n-space: (n+1) times the n-th
    logarithm coefficient."""
    if n == 0:
        return MUClass.unit()
    if n > ctx.bound:
        raise ValueError("degree %d exceeds truncation %d" % (n, ctx.bound))
    return MUClass.from_poly(n, bpoly.scale(ctx.log_coefficient(n), n + 1))


def milnor_hypersurface_class(ctx, i, j):
    """The Milnor hypersurface H_{i,j} in P^i x P^j (a smooth (1,1)
    divisor)."""
    if not (1 <= i <= j):
        raise ValueError("need 1 <= i <= j")
    n = i + j - 1
    if n > ctx.bound:
        raise ValueError("degree %d exceeds truncation %d" % (n, ctx.bound))
    return _milnor_table(ctx)[(i, j)]


def hypersurface_class(ctx, n, d):
    """A smooth hypersurface of degree d in P^n, of dimension n - 1."""
    if n < 1 or d < 1:
        raise ValueError("a hypersurface needs an ambient dimension and a "
                         "degree of at least 1 (got P^%d, degree %d)" % (n, d))
    return complete_intersection_class(ctx, n, (d,))


def complete_intersection_class(ctx, n, degrees):
    """A smooth complete intersection of r hypersurfaces of the given
    degrees in P^n, of dimension n - r, by the closed form of the module
    docstring: the sum over k_i >= 1 of prod_i d_i^(k_i) b_(k_i - 1)
    Q_K(n), K = sum k_i.  The terms have weight n - r, so the b's are
    summed one divisor at a time as the u^K coefficients of
    prod_i sum_k d_i^k b_(k-1) u^k, keeping only weights up to n - r."""
    dim = n - len(degrees)
    if dim > ctx.bound:
        raise ValueError("degree %d exceeds truncation %d" % (dim, ctx.bound))
    if n > ctx.top + 1:
        raise ValueError("the ambient P^%d is above P^%d, two past the "
                         "truncation %d" % (n, ctx.top + 1, ctx.bound))
    series = [dict(bpoly.ONE)]  # series[K] has weight K - (divisors so far)
    for i, d in enumerate(degrees):
        grown = [{} for _ in range(n + 1)]
        for K, a in enumerate(series):
            if a:
                for k in range(1, dim + 2 - (K - i)):
                    bpoly.mul_into(grown[K + k], a, ctx.exp_series[k], d ** k)
        series = grown
    q = _log_derivative_powers(ctx)
    out = {}
    for K, a in enumerate(series):
        if a:
            bpoly.mul_into(out, a, q[K][n])
    return MUClass.from_poly(dim, out)


@_memoized
def _log_derivative_powers(ctx):
    """Q[a][i] = [u^i] log^a log' for 0 <= a, i <= top + 1, kept once per
    context: the P_a[i] of the Milnor hypersurfaces and the Q_K(N) of the
    complete intersections.  Row 0 is log' = sum_i (i+1) m_i u^i and row a
    is row a-1 times log.  Q[a][i] has weight i - a; it is kept up to
    weight `bound`, the truncation of every series here, and left 0
    above.  The u-degree past `top` serves the complete intersections of
    two divisors in P^(bound+2)."""
    deg, log = ctx.top + 1, ctx.log_series
    row = [bpoly.scale(log[i + 1], i + 1) if i < ctx.top else {}
           for i in range(deg + 1)]
    table = [row]
    for a in range(1, deg + 1):
        prev, row = row, [{} for _ in range(deg + 1)]
        for i, p in enumerate(prev):
            if p:  # i >= a - 1, so j <= bound + 1 = top
                for j in range(1, min(deg - i, ctx.bound + a - i) + 1):
                    bpoly.mul_into(row[i + j], p, log[j])
        table.append(row)
    return table


@_memoized
def _milnor_table(ctx):
    """{(i, j): [H_{i,j}]} for 1 <= i <= j, i + j - 1 <= bound, by the
    module's formula, summed as sum_a P_a[i] R_a[j] with
    R_a[j] = sum_c e_(a+c) C(a+c, a) P_c[j], P from
    `_log_derivative_powers`.  The coefficient of u^i v^j has weight
    i + j - 1, so nothing is truncated inside the table."""
    top = ctx.top
    rows = top // 2 + 1  # i <= j and i + j <= top leave i <= top // 2
    P = _log_derivative_powers(ctx)
    H = {}
    for a in range(rows):
        jmax = top - max(a, 1)  # j <= top - i, i >= max(a, 1)
        R = [{} for _ in range(jmax + 1)]
        for c in range(jmax + 1):
            for j in range(c, jmax + 1):
                bpoly.mul_into(R[j], P[c][j], ctx.exp_series[a + c],
                               comb(a + c, a))
        for i in range(max(a, 1), rows):
            for j in range(i, top + 1 - i):
                bpoly.mul_into(H.setdefault((i, j), {}), P[a][i], R[j])
    return {(i, j): MUClass.from_poly(i + j - 1, h) for (i, j), h in H.items()}


def degree_catalog(ctx, n):
    """Ordered catalog of geometric classes in degree n."""
    if n < 1:
        raise ValueError("the catalog starts in degree 1, not %d" % n)
    entries = [("cp%d" % n, cpn_class(ctx, n))]
    for i in range(1, n // 2 + 2):
        j = n + 1 - i
        if i <= j:
            entries.append(("h%d_%d" % (i, j), milnor_hypersurface_class(ctx, i, j)))
    return entries


def generator_target(n):
    """|s_n| required of a polynomial generator in degree n: p if n+1 is a
    power of the prime p, else 1."""
    primes = _factorint(n + 1)
    return next(iter(primes)) if len(primes) == 1 else 1


def _ext_gcd(a, b):
    """(g, s, t) with g = s*a + t*b, g = +-gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def min_s_combination(s_numbers, build):
    """(x, g): the combination x of the classes build(i) with the least
    positive s-number g, by sequential extended gcd on their s-numbers in
    order.  Only the classes that x combines are built, and each must have
    the s-number it was chosen by."""
    coeffs, g = [0] * len(s_numbers), 0
    for i, s in enumerate(s_numbers):
        gg, u, v = _ext_gcd(g, s)
        if abs(gg) < abs(g) or not g:
            coeffs = [u * c for c in coeffs]
            coeffs[i], g = v, gg
    if g == 0:
        raise BasisConstructionError("no class with nonzero s-number")
    x = MUClass.zero(0)
    for i, (c, s) in enumerate(zip(coeffs, s_numbers)):
        if c:
            cls = build(i)
            if s_number(cls) != s:
                raise BasisConstructionError("degree %d: s-number %d, not %d"
                                             % (cls.degree, s_number(cls), s))
            x += cls.scale(c)
    return (x, g) if g > 0 else (x.scale(-1), -g)


def select_generator(ctx, n):
    """The combination of the degree-n catalog with the least positive
    s-number, which must be the Milnor target."""
    classes = [cls for _, cls in degree_catalog(ctx, n)]
    combo, g = min_s_combination([s_number(cls) for cls in classes],
                                 classes.__getitem__)
    target = generator_target(n)
    if g != target:
        raise BasisConstructionError(
            "degree %d: achieved |s| = %d, Milnor criterion requires %d "
            "(convention bug or catalog too small)" % (n, g, target))
    return combo


class _Generators(dict):
    """{n: x_n} for 1 <= n <= ctx.bound; x_n is selected on first lookup."""

    def __init__(self, ctx):
        super().__init__()
        self.ctx = ctx

    def __missing__(self, n):
        if not 1 <= n <= self.ctx.bound:
            raise KeyError(n)
        self[n] = select_generator(self.ctx, n)
        return self[n]


class MUBasis:
    """Monomial basis x^omega of every degree <= ctx.bound, with coordinate
    matrices in the b-monomial coordinates and exact solving.  Generators,
    monomials, matrices and solvers are built per degree, when first
    asked for."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.generators = _Generators(ctx)
        self._memo = {}

    @_memoized
    def basis(self, n):
        """List of (partition label, MUClass) for degree n, in the global
        partition order.  x^omega is x_(omega_1) times the memoized tail
        x^(omega[1:]) of degree n - omega_1."""
        if n == 0:
            return [((), MUClass.unit())]
        tails = {m: dict(self.basis(m)) for m in range(n)}
        return [(omega, self.generators[omega[0]] * tails[n - omega[0]][omega[1:]])
                for omega in partitions_of(n)]

    @_memoized
    def matrix(self, n):
        """Columns = b-monomial coordinates of the basis classes."""
        return IntMatrix.from_columns(
            len(partitions_of(n)), [cls.vector() for _, cls in self.basis(n)])

    @_memoized
    def solver(self, n):
        """The integral solver of the degree-n basis matrix; raises
        BasisConstructionError if the matrix is not in echelon form, which
        for the square B_n is lower triangular of full rank."""
        try:
            return HNFSolver(self.matrix(n))
        except AssertionError as exc:
            raise BasisConstructionError(
                "degree %d: the monomial basis matrix is not lower "
                "triangular of full rank" % n) from exc

    def to_coordinates(self, x):
        """Coordinates of a class in the degree-n monomial basis; raises
        NotInLattice if the class is not an integer combination."""
        coords = self.solver(x.degree).solve(x.vector())
        if coords is None:
            raise NotInLattice("%s is not an integer combination of the "
                               "degree-%d basis" % (x, x.degree))
        return coords

    def from_coordinates(self, n, coords):
        out = {}
        for (_, cls), c in zip(self.basis(n), coords):
            if c:
                for code, v in cls.terms:
                    out[code] = out.get(code, 0) + c * v
        return MUClass.from_poly(n, out)
