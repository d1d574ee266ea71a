"""Cohomological operations acting on the cobordism coefficient ring.

An operation is determined by its characteristic class, stored as
monomial-symmetric coefficients {weight: {partition: Z[b]-coefficient}}.
It acts through the coaction, defined on a b-monomial (Hurewicz basis
element) as the product over its parts of

    psi(b_n) = sum_{j >= 0} t_j * [x^{n+1}] exp(x)^{j+1},

paired so that op(b^omega) collects the m_lambda coefficient of the class
against the t^lambda coefficient of psi(b^omega).  The substitution
direction is pinned by the anchors boundary[CP1] = 2, the twisted Leibniz
law on the Wall lattice, and delta([CP1]^2) = -8; the reversed composition
fails all three.

An operation is linear, so it is applied as an integer matrix on the
b-monomial basis: column omega is op(b^omega), built once per context and
operation on first use and kept in the context's memo.  A class is the
sparse sum of its coefficients times these columns.  The test suite keeps
the pairing against the coaction of a whole class as its oracle.

The two distinguished operations: the boundary operation (class: first
Chern class of the dual determinant, degree shift 1) and the Wall-kernel
operation (product of both determinant classes, shift 2).
"""

from dataclasses import dataclass
from functools import cached_property

from . import bpoly
from .fgl import _memoized
from .mu import MUClass
from .partitions import merge


@dataclass(frozen=True)
class CohOperation:
    """Degree shift and the m-basis coefficients of the class, by weight."""
    name: str
    shift: int
    m_coeffs: tuple  # tuple of (weight, tuple of (partition, bpoly-items))

    @classmethod
    def from_dict(cls, name, shift, by_weight):
        packed = []
        for w in sorted(by_weight):
            vec = by_weight[w]
            packed.append((w, tuple(sorted(
                (omega, tuple(sorted(coeff.items())))
                for omega, coeff in vec.items() if coeff))))
        return cls(name, shift, tuple(packed))

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        # Operations key the column tables; tuples do not cache hashes.
        return hash((self.name, self.shift, self.m_coeffs))


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
    return CohOperation.from_dict("partial", 1, ctx.boundary_class_m())


@_memoized
def delta_op(ctx):
    return CohOperation.from_dict("delta", 2, ctx.delta_class_m())


# -- the coaction and the column tables ------------------------------------


def _psi_monomial(ctx, part):
    """psi(b^part) = product of psi(b_i), as {t-partition: bpoly}, where
    psi(b_n) = sum_j t_j [x^{n+1}] exp^{j+1}.  Filled on demand and kept
    in the context's memo, so it dies with the context."""
    table = ctx._memo.setdefault("operations.psi", {})
    hit = table.get(part)
    if hit is not None:
        return hit
    if not part:
        out = {(): dict(bpoly.ONE)}
    elif len(part) == 1:
        n = part[0]
        out = {}
        for j in range(0, n + 1):
            coeff = ctx.exp_powers[j][n + 1]  # [x^{n+1}] exp^{j+1}
            if coeff:
                out[(j,) if j else ()] = coeff
    else:
        head = _psi_monomial(ctx, part[:1])
        tail = _psi_monomial(ctx, part[1:])
        out = {}
        for t1, c1 in head.items():
            for t2, c2 in tail.items():
                bpoly.mul_into(out.setdefault(merge(t1, t2), {}), c1, c2)
        out = {key: val for key, val in out.items() if val}
    table[part] = out
    return out


def _column(ctx, coeffs, part):
    """op(b^part) as a bpoly, given the operation's m-coefficients as
    {partition: bpoly}: the pairing against psi(b^part) is taken inside
    the product psi(b^part[:1]) * psi(b^part[1:]), which is never built."""
    if not part:
        return dict(coeffs.get((), {}))
    out = {}
    rest = _psi_monomial(ctx, part[1:])
    for t1, c1 in _psi_monomial(ctx, part[:1]).items():
        inner = {}
        for t2, c2 in rest.items():
            coeff = coeffs.get(merge(t1, t2))
            if coeff:
                bpoly.mul_into(inner, coeff, c2)
        bpoly.mul_into(out, c1, inner)
    return out


def apply_operation(ctx, op, x):
    """The action of an operation on a coefficient-ring class: the sum of
    its b-monomial coefficients times the operation's columns.

    Lands in degree x.degree - op.shift; negative degree gives zero."""
    target = x.degree - op.shift
    if target < 0 or x.is_zero():
        return MUClass.zero(max(target, 0))
    tables = ctx._memo.setdefault("operations.columns", {})
    if op not in tables:
        tables[op] = ({omega: dict(coeff) for _, vec in op.m_coeffs
                       for omega, coeff in vec}, {})
    coeffs, columns = tables[op]
    out = {}
    for part, c in x.hb:
        column = columns.get(part)
        if column is None:
            column = columns[part] = _column(ctx, coeffs, part)
        for mon, v in column.items():
            out[mon] = out.get(mon, 0) + c * v
    return MUClass.from_dict(target, out)
