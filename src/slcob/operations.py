"""Cohomological operations acting on the cobordism coefficient ring.

An operation is determined by its characteristic class and acts through
the coaction, defined on a b-monomial (Hurewicz basis element) as the
product over its parts of

    psi(b_n) = sum_{j >= 0} t_j * [x^{n+1}] exp(x)^{j+1},

paired so that op(b^omega) collects the m_lambda coefficient of the class
against the t^lambda coefficient of psi(b^omega).  The substitution
direction is pinned by the anchors boundary[CP1] = 2, the twisted Leibniz
law on the Wall lattice, and delta([CP1]^2) = -8; the reversed composition
fails all three.

There are two kinds of operation, applied in two ways:

  * Landweber-Novikov.  An operation s_omega has the single monomial
    symmetric function m_omega as its class, so s_omega(b^part) is the
    t^omega coefficient of psi(b^part), and the operation is kept as omega
    alone.  It is linear, so it is applied as columns on the b-monomial
    basis: column part is s_omega(b^part), and a class is the sum of its
    coefficients times these columns.  A command applies one operation to
    one class, so each column is built when it is read and not kept; the
    coaction psi(b^part) it reads is kept in the context's memo.
  * Powers of one derivation.  The boundary operation (class c1 of the
    dual determinant, shift 1) and the Wall-kernel operation
    (c1(det) c1(det dual), shift 2) have classes sum_k g_k L^k in
    L = sum_j mu_j p_j, the sum of the logs of the Chern roots (mu_j the
    log coefficients).  The power sums p_j are primitive for the coproduct
    of symmetric functions (Macdonald, Symmetric Functions and Hall
    Polynomials, I.5 ex. 25), hence so is L, and the coaction is
    multiplicative (Landweber, Cobordism operations and Hopf algebras,
    1967).  So the operations O_k with class L^k obey
        O_k(x y) = sum_i C(k, i) O_i(x) O_{k-i}(y),
    and O_k(b_p) = b_(p-k) (b_0 = 1): O_k(b_p) = sum_j [y^j] log(y)^k
    [x^(p+1)] exp(x)^(j+1), and sum_j [y^j] log(y)^k exp(x)^(j+1) =
    log(exp x)^k exp(x) = x^k exp(x).  So O_1 is the derivation
    D: b_p -> b_(p-1) of Z[b] and the product law is its Leibniz rule.
    D^k obeys the same law and agrees with O_k on every b_p, so O_k = D^k,
    and the operation acts on x as sum_k g_k D^k(x).  For the boundary
    operation each g_k = (-1)^k b_(k-1) is one monomial.  D(b^lambda) is
    the sum over the distinct parts p of lambda of the multiplicity of p
    times lambda with one p lowered to p - 1, a table keyed by code alone;
    `apply_operations` walks x, D(x), D^2(x), ... once for every such
    operation it is given.

The test suite keeps, as its oracle, the m-coefficients of every class and
the pairing against the coaction of a whole class.
"""

from functools import cached_property, lru_cache

from . import bpoly
from .fgl import _memoized
from .mu import MUClass
from .partitions import PRIMES, decode, encode
from .record import Record


class CohOperation(Record):
    """Degree shift and the class: for a class sum_k g_k L^k its bpoly
    coefficients g_0, g_1, ... (log_coeffs), else the Landweber-Novikov
    operation of the partition omega, whose class is m_omega."""
    __slots__ = ("name", "shift", "omega", "log_coeffs", "__dict__")
    _defaults = {"omega": (), "log_coeffs": ()}

    @classmethod
    def from_log_series(cls, name, shift, g):
        return cls(name, shift,
                   log_coeffs=tuple(tuple(sorted(c.items())) for c in g))

    @cached_property
    def series(self):
        """The coefficients g_k of the class as bpolys."""
        return [dict(c) for c in self.log_coeffs]


def landweber_novikov(omega):
    """The operation dual to the b-monomial of omega: its class is the
    monomial symmetric function of the Chern roots."""
    if any(part < 1 for part in omega):
        raise ValueError("the partition %r of a Landweber-Novikov "
                         "operation needs positive parts" % (omega,))
    omega = tuple(sorted(omega, reverse=True))
    return CohOperation("s%s" % (omega,), sum(omega), omega)


@_memoized
def boundary_partial(ctx):
    """Class c1(det gamma-dual) = exp(-L) = sum_{k >= 1} (-1)^k b_{k-1} L^k,
    reading b_{k-1} (b_0 = 1) off the exp series."""
    b = ctx.exp_series
    g = [{}] + [bpoly.scale(b[k], (-1) ** k) for k in range(1, ctx.top)]
    return CohOperation.from_log_series("partial", 1, g)


@_memoized
def delta_op(ctx):
    """Class c1(det) c1(det dual) = exp(L) exp(-L), so
    g_k = sum_{a+c=k} (-1)^c b_{a-1} b_{c-1}."""
    b = ctx.exp_series
    g = [{} for _ in range(ctx.top)]
    for a in range(1, ctx.top):
        for c in range(1, ctx.top - a):
            bpoly.mul_into(g[a + c], b[a], b[c], (-1) ** c)
    return CohOperation.from_log_series("delta", 2, g)


# -- the coaction and the Landweber-Novikov columns ----------------------


@_memoized
def _psi_monomial(ctx, part):
    """psi(b^part) = product of psi(b_i), as {code of a t-partition: bpoly},
    where psi(b_n) = sum_j t_j [x^{n+1}] exp^{j+1}.  Kept in the context's
    memo, so it dies with the context."""
    if not part:
        out = {1: dict(bpoly.ONE)}
    elif len(part) == 1:
        n = part[0]
        out = {}
        for j in range(0, n + 1):
            coeff = ctx.exp_powers[j][n + 1]  # [x^{n+1}] exp^{j+1}
            if coeff:
                out[encode((j,) if j else ())] = coeff
    else:
        head = _psi_monomial(ctx, part[:1])
        tail = _psi_monomial(ctx, part[1:])
        out = {}
        for t1, c1 in head.items():
            for t2, c2 in tail.items():
                bpoly.mul_into(out.setdefault(t1 * t2, {}), c1, c2)
        out = {key: val for key, val in out.items() if val}
    return out


def _column(ctx, code, part):
    """s_omega(b^part) as a bpoly, given the code of omega: the t^omega
    coefficient of psi(b^part[:1]) * psi(b^part[1:]), a product that is
    never built, as psi(b^part[1:]) is read at code / t for each term t
    of psi(b^part[:1])."""
    if not part:
        return dict(bpoly.ONE) if code == 1 else {}
    out = {}
    rest = _psi_monomial(ctx, part[1:])
    for t, c in _psi_monomial(ctx, part[:1]).items():
        if not code % t and code // t in rest:
            bpoly.mul_into(out, c, rest[code // t])
    return out


@lru_cache(maxsize=None)
def _lowerings(code):
    """D(b^part) for the part with this code, as (code, multiplicity)
    pairs: for each distinct part p of part, part with one p lowered to
    p - 1 (dropped when p = 1), times the multiplicity of p.

    >>> [(decode(low), m) for low, m in _lowerings(encode((2, 1, 1)))]
    [((1, 1, 1), 1), ((2, 1), 2)]
    """
    part = decode(code)
    return tuple((code // PRIMES[p - 1] * (PRIMES[p - 2] if p > 1 else 1),
                  part.count(p)) for p in sorted(set(part), reverse=True))


def _derive(poly):
    """D(poly), D the derivation b_p -> b_(p-1) with b_0 = 1.

    >>> powers = [bpoly.gen(3)]
    >>> for _ in range(3):
    ...     powers.append(_derive(powers[-1]))
    >>> [str(MUClass.from_poly(3 - k, dk)) for k, dk in enumerate(powers)]
    ['+1*b3', '+1*b2', '+1*b1', '+1*1']
    >>> _derive(powers[-1])
    {}
    """
    out = {}
    get = out.get
    for code, c in poly.items():
        for low, m in _lowerings(code):
            out[low] = get(low, 0) + m * c
    return {k: v for k, v in out.items() if v}


def apply_operations(ctx, ops, x):
    """[op(x) for op in ops], each in degree x.degree - op.shift, zero when
    that is negative.  The operations with a class sum_k g_k L^k share one
    walk x, D(x), D^2(x), ..., adding g_k D^k(x) to each, which stops at
    the first zero power or at the end of the longest class.  A
    Landweber-Novikov operation sums its columns, one per b-monomial of
    x."""
    polys = [{} for _ in ops]
    series = [(out, op.series) for out, op in zip(polys, ops) if op.log_coeffs]
    power = x.poly()
    for k in range(max((len(g) for _, g in series), default=0)):
        if k:
            power = _derive(power)
        if not power:
            break
        for out, g in series:
            if k < len(g) and g[k]:
                bpoly.mul_into(out, g[k], power)
    for out, op in zip(polys, ops):
        if not op.log_coeffs and x.degree >= op.shift:
            omega = encode(op.omega)
            for code, c in x.terms:
                bpoly.mul_into(out, _column(ctx, omega, decode(code)),
                               bpoly.ONE, c)
    return [MUClass.from_poly(max(x.degree - op.shift, 0), out)
            for op, out in zip(ops, polys)]


def apply_operation(ctx, op, x):
    """The action of one operation on a coefficient-ring class, landing in
    degree x.degree - op.shift; negative degree gives zero."""
    return apply_operations(ctx, (op,), x)[0]
