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

An operation is linear, so it is applied as an integer matrix on the
b-monomial basis: column omega is op(b^omega), built on first use and kept
per context and operation in the context's memo under the code of omega,
as its dense vector in partition order (most entries are nonzero); a class
is the sum of its coefficients times these columns.  There are two routes
to a column, chosen by the form of the class:

  * m-pairing.  A Landweber-Novikov operation s_omega has the single
    monomial symmetric function m_omega as its class, so pairing its
    m-coefficients against psi(b^omega) is cheap.
  * L-powers.  The boundary operation (class c1 of the dual determinant,
    shift 1) and the Wall-kernel operation (c1(det) c1(det dual), shift 2)
    have classes sum_k g_k L^k in L = sum_j mu_j p_j, the sum of the logs
    of the Chern roots (mu_j the log coefficients).  The power sums p_j
    are primitive for the coproduct of symmetric functions (Macdonald,
    Symmetric Functions and Hall Polynomials, I.5 ex. 25), hence so is L,
    and the coaction is multiplicative (Landweber, Cobordism operations and
    Hopf algebras, 1967).  So the operations O_k with class L^k obey
        O_k(x y) = sum_i C(k, i) O_i(x) O_{k-i}(y),
    with O_k(b_p) = sum_j [x^j] log^k * [x^{p+1}] exp^{j+1}, and a column
    is sum_k g_k O_k(b^omega), read off one shared table of the O_k.

The test suite keeps, as its oracle, the m-coefficients of every class and
the pairing against the coaction of a whole class.
"""

from functools import cached_property
from math import comb

from . import bpoly
from .fgl import _memoized
from .mu import MUClass
from .partitions import codes_of, decode, encode
from .record import Record


class CohOperation(Record):
    """Degree shift and the class: its m-basis coefficients by weight
    (m_coeffs: (weight, ((partition, bpoly-items), ...)) pairs), or for a
    class sum_k g_k L^k its bpoly coefficients g_0, g_1, ... (log_coeffs)."""
    __slots__ = ("name", "shift", "m_coeffs", "log_coeffs", "__dict__")
    _defaults = {"m_coeffs": (), "log_coeffs": ()}

    @classmethod
    def from_dict(cls, name, shift, by_weight):
        packed = []
        for w in sorted(by_weight):
            vec = by_weight[w]
            packed.append((w, tuple(sorted(
                (omega, tuple(sorted(coeff.items())))
                for omega, coeff in vec.items() if coeff))))
        return cls(name, shift, tuple(packed))

    @classmethod
    def from_log_series(cls, name, shift, g):
        return cls(name, shift,
                   log_coeffs=tuple(tuple(sorted(c.items())) for c in g))

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        # Operations key the column tables; tuples do not cache hashes.
        return hash((self.name, self.shift, self.m_coeffs, self.log_coeffs))


def landweber_novikov(omega):
    """The operation dual to the b-monomial of omega: its class is the
    monomial symmetric function of the Chern roots."""
    if any(part < 1 for part in omega):
        raise ValueError("the partition %r of a Landweber-Novikov "
                         "operation needs positive parts" % (omega,))
    omega = tuple(sorted(omega, reverse=True))
    w = sum(omega)
    return CohOperation.from_dict("s%s" % (omega,), w, {w: {omega: dict(bpoly.ONE)}})


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
            bpoly.mul_into(g[a + c], b[a], bpoly.scale(b[c], (-1) ** c))
    return CohOperation.from_log_series("delta", 2, g)


# -- the coaction and the column tables ------------------------------------


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


def _column(ctx, coeffs, part):
    """op(b^part) as a bpoly, given the operation's m-coefficients as
    {code of a partition: bpoly}: the pairing against psi(b^part) is taken
    inside the product psi(b^part[:1]) * psi(b^part[1:]), which is never
    built."""
    if not part:
        return dict(coeffs.get(1, {}))
    out = {}
    rest = _psi_monomial(ctx, part[1:])
    for t1, c1 in _psi_monomial(ctx, part[:1]).items():
        inner = {}
        for t2, c2 in rest.items():
            coeff = coeffs.get(t1 * t2)
            if coeff:
                bpoly.mul_into(inner, coeff, c2)
        bpoly.mul_into(out, c1, inner)
    return out


@_memoized
def _log_ops(ctx, part):
    """[O_0(b^part), ..., O_n(b^part)] with n = |part|, where O_k is the
    operation with class L^k (it vanishes in degrees below k).  Built by
    the binomial product law and kept in the context's memo."""
    if len(part) <= 1:
        p = sum(part)  # b^() = b_0 = [x^1] exp
        out = []
        for k in range(p + 1):
            ok = {}
            for j in range(k, p + 1):
                coeff = ctx.log_powers[k][j]  # [x^j] log^k
                if coeff:
                    bpoly.mul_into(ok, coeff, ctx.exp_powers[j][p + 1])
            out.append(ok)
    else:
        head = _log_ops(ctx, part[:1])
        rest = _log_ops(ctx, part[1:])
        out = [{} for _ in range(len(head) + len(rest) - 1)]
        for i, h in enumerate(head):
            for j, r in enumerate(rest):
                if h and r:
                    bpoly.mul_into(out[i + j], bpoly.scale(h, comb(i + j, i)), r)
    return out


def _log_column(ctx, g, part):
    """op(b^part) = sum_k g_k O_k(b^part) for the class sum_k g_k L^k."""
    out = {}
    for gk, ok in zip(g, _log_ops(ctx, part)):
        bpoly.mul_into(out, gk, ok)
    return out


def apply_operation(ctx, op, x):
    """The action of an operation on a coefficient-ring class: the sum of
    its b-monomial coefficients times the operation's columns.

    Lands in degree x.degree - op.shift; negative degree gives zero."""
    target = x.degree - op.shift
    if target < 0 or x.is_zero():
        return MUClass.zero(max(target, 0))
    tables = ctx._memo.setdefault("operations.columns", {})
    entry = tables.get(op)
    if entry is None:
        if op.log_coeffs:
            entry = (_log_column, [dict(c) for c in op.log_coeffs], {})
        else:
            entry = (_column, {encode(omega): dict(coeff) for _, vec in
                               op.m_coeffs for omega, coeff in vec}, {})
        tables[op] = entry
    build, data, columns = entry
    codes = codes_of(target)
    out = [0] * len(codes)
    for code, c in x.terms:
        column = columns.get(code)
        if column is None:
            poly = build(ctx, data, decode(code))
            column = columns[code] = [poly.get(k, 0) for k in codes]
        out = [a + c * v for a, v in zip(out, column)]
    return MUClass.from_poly(target, dict(zip(codes, out)))
