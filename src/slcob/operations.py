"""Cohomological operations acting on the cobordism coefficient ring.

An operation is determined by its characteristic class, stored as
monomial-symmetric coefficients {weight: {partition: Z[b]-coefficient}}.
The action on a class x is the Kronecker pairing against the coaction

    psi(b_n) = sum_{j >= 0} t_j * [x^{n+1}] exp(x)^{j+1},

extended multiplicatively, paired so that apply(op, x) collects the m_omega
coefficient of the class against the t^omega coefficient of psi applied to
the Hurewicz image of x.  The substitution direction is pinned by the
anchors boundary[CP1] = 2, the twisted Leibniz law on the Wall lattice, and
delta([CP1]^2) = -8; the reversed composition fails all three.

The two distinguished operations: the boundary operation (class: first
Chern class of the dual determinant, degree shift 1) and the Wall-kernel
operation (product of both determinant classes, shift 2).
"""

from dataclasses import dataclass

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

    def coefficients(self):
        return {w: {omega: dict(coeff) for omega, coeff in vec}
                for w, vec in self.m_coeffs}


def identity_op():
    return CohOperation.from_dict("id", 0, {0: {(): dict(bpoly.ONE)}})


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


# -- the coaction ---------------------------------------------------------


def _psi_table(ctx):
    """psi(b^part) by partition, filled on demand; kept in the context's
    memo, so it dies with the context."""
    return ctx._memo.setdefault("operations.psi", {})


def _psi_monomial(ctx, part):
    """psi(b^part) = product of psi(b_i), as {t-partition: bpoly}, where
    psi(b_n) = sum_j t_j [x^{n+1}] exp^{j+1}."""
    table = _psi_table(ctx)
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
                key = merge(t1, t2)
                val = bpoly.mul(c1, c2)
                if val:
                    cur = bpoly.add(out.get(key, {}), val)
                    if cur:
                        out[key] = cur
                    elif key in out:
                        del out[key]
    table[part] = out
    return out


def coaction(ctx, x):
    """psi(h(x)) as {t-partition: bpoly}."""
    table = _psi_table(ctx)
    out = {}
    for part, c in x.hb:
        psi = table.get(part)
        if psi is None:
            psi = _psi_monomial(ctx, part)
        for key, val in psi.items():
            cur = bpoly.add(out.get(key, {}), bpoly.scale(val, c))
            if cur:
                out[key] = cur
            elif key in out:
                del out[key]
    return out


def apply_operation(ctx, op, x):
    """The action of an operation on a coefficient-ring class.

    Lands in degree x.degree - op.shift; negative degree gives zero."""
    target = x.degree - op.shift
    if target < 0 or x.is_zero():
        return MUClass.zero(max(target, 0))
    co = coaction(ctx, x)
    out = {}
    for w, vec in op.coefficients().items():
        for omega, coeff in vec.items():
            part = co.get(omega)
            if part:
                out = bpoly.add(out, bpoly.mul(coeff, part))
    result = MUClass.from_dict(target, out)
    return result
