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
and a class is the sum of its coefficients times these columns.  The
columns are kept packed (`PackedColumns`): the entry at the k-th
b-monomial of the target degree, in increasing order of codes, times
2^(w k), negative entries allowed, so the sum is one big-integer
multiply-add per term of the class, unpacked once into the class's
code-sorted terms.  The slot width w = bits(largest column entry) +
bits(sum of |c| over the class) + 1, rounded up to a multiple of 32,
bounds every entry of the sum, so no slot carries into the next; each
column is kept once, at the widest w asked for so far.  There are two
routes to a column, chosen by the form of the class:

  * The partition.  A Landweber-Novikov operation s_omega has the single
    monomial symmetric function m_omega as its class, so s_omega(b^part)
    is the t^omega coefficient of psi(b^part), and the operation is kept
    as omega alone.
  * L-powers.  The boundary operation (class c1 of the dual determinant,
    shift 1) and the Wall-kernel operation (c1(det) c1(det dual), shift 2)
    have classes sum_k g_k L^k in L = sum_j mu_j p_j, the sum of the logs
    of the Chern roots (mu_j the log coefficients).  The power sums p_j
    are primitive for the coproduct of symmetric functions (Macdonald,
    Symmetric Functions and Hall Polynomials, I.5 ex. 25), hence so is L,
    and the coaction is multiplicative (Landweber, Cobordism operations and
    Hopf algebras, 1967).  So the operations O_k with class L^k obey
        O_k(x y) = sum_i C(k, i) O_i(x) O_{k-i}(y),
    and O_k(b_p) = b_(p-k) (b_0 = 1): O_k(b_p) = sum_j [y^j] log(y)^k
    [x^(p+1)] exp(x)^(j+1), and sum_j [y^j] log(y)^k exp(x)^(j+1) =
    log(exp x)^k exp(x) = x^k exp(x).  So O_1 is the derivation
    b_p -> b_(p-1) of Z[b], the product law is its Leibniz rule, and a
    column is sum_k g_k O_k(b^omega), read off one shared table of the
    O_k.

The test suite keeps, as its oracle, the m-coefficients of every class and
the pairing against the coaction of a whole class.
"""

from functools import cached_property
from math import comb
from operator import mul

from . import bpoly
from .fgl import _memoized
from .mu import MUClass
from .partitions import decode, encode, sorted_codes
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

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        # Operations key the column tables; tuples do not cache hashes.
        return hash((self.name, self.shift, self.omega, self.log_coeffs))


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


@_memoized
def _log_ops(ctx, part):
    """[O_0(b^part), ..., O_n(b^part)] with n = |part|, where O_k is the
    operation with class L^k (it vanishes in degrees below k): O_k(b_p) =
    b_(p-k), and products by the binomial product law.  Kept in the
    context's memo.

    >>> from slcob.fgl import FGLContext
    >>> [str(MUClass.from_poly(3 - k, ok))
    ...  for k, ok in enumerate(_log_ops(FGLContext(4), (3,)))]
    ['+1*b3', '+1*b2', '+1*b1', '+1*1']
    """
    if len(part) <= 1:
        p = sum(part)  # b_(p-k) = [x^(p-k+1)] exp, b_0 = b^() = 1
        out = [ctx.exp_series[p - k + 1] for k in range(p + 1)]
    else:
        head = _log_ops(ctx, part[:1])
        rest = _log_ops(ctx, part[1:])
        out = [{} for _ in range(len(head) + len(rest) - 1)]
        for i, h in enumerate(head):
            for j, r in enumerate(rest):
                if h and r:
                    bpoly.mul_into(out[i + j], h, r, comb(i + j, i))
    return out


def _log_column(ctx, g, part):
    """op(b^part) = sum_k g_k O_k(b^part) for the class sum_k g_k L^k."""
    out = {}
    for gk, ok in zip(g, _log_ops(ctx, part)):
        bpoly.mul_into(out, gk, ok)
    return out


class PackedColumns(dict):
    """{code: [bits of the largest entry, slot width w, packed integer]}:
    the columns of one operation, each built on first use and packed as in
    the module docstring."""

    def combine(self, terms, count, build):
        """The count entries of sum c * column(code) over the (code, c) of
        terms, c nonzero; build(code) gives the entries of a column not
        kept yet, which is kept unpacked (width 0) until packed here."""
        used = [self.get(code) or self.setdefault(code, _unpacked(build(code)))
                for code, _ in terms]
        coeffs = [c for _, c in terms]
        need = max(column[0] for column in used) + 1 \
            + sum(map(abs, coeffs)).bit_length()
        width = max(-(-need // 32) * 32, max(column[1] for column in used))
        for column in used:
            if column[1] != width:
                values = column[2] if not column[1] else \
                    _unpack(column[2], count, column[1])
                column[1:] = width, _pack(values, width)
        return _unpack(sum(map(mul, coeffs, [column[2] for column in used])),
                       count, width)


def _unpacked(values):
    """A column not packed yet: width 0 and its entries."""
    return [max(map(abs, values)).bit_length(), 0, values]


def _bias(count, width):
    """2^(width-1) in each of count slots of the given width."""
    return int.from_bytes((1 << width - 1).to_bytes(width // 8, "little")
                          * count, "little")


def _pack(values, width):
    """sum_k values[k] 2^(width k), every |values[k]| < 2^(width-1)."""
    half, size = 1 << width - 1, width // 8
    return int.from_bytes(b"".join([(v + half).to_bytes(size, "little")
                                    for v in values]), "little") \
        - _bias(len(values), width)


def _unpack(packed, count, width):
    """The count slot values of a packed integer: with the bias added,
    every slot holds its value plus 2^(width-1), which lies in
    [0, 2^width)."""
    half, size, read = 1 << width - 1, width // 8, int.from_bytes
    buf = (packed + _bias(count, width)).to_bytes(count * size, "little")
    return [read(buf[i:i + size], "little") - half
            for i in range(0, count * size, size)]


def apply_operation(ctx, op, x):
    """The action of an operation on a coefficient-ring class: the sum of
    its b-monomial coefficients times the operation's packed columns.

    Lands in degree x.degree - op.shift; negative degree gives zero."""
    target = x.degree - op.shift
    if target < 0 or x.is_zero():
        return MUClass.zero(max(target, 0))
    tables = ctx._memo.setdefault("operations.columns", {})
    entry = tables.get(op)
    if entry is None:
        if op.log_coeffs:
            build, data = _log_column, [dict(c) for c in op.log_coeffs]
        else:
            build, data = _column, encode(op.omega)
        entry = tables[op] = (build, data, PackedColumns())
    build, data, columns = entry
    codes = sorted_codes(target)

    def column(code):
        poly = build(ctx, data, decode(code))
        return [poly.get(k, 0) for k in codes]

    return MUClass(target, tuple((k, v) for k, v in zip(
        codes, columns.combine(x.terms, len(codes), column)) if v))
