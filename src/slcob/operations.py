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
from functools import lru_cache

from . import bpoly
from .gradedpoly import GradedPoly
from .mu import MUClass
from .partitions import merge
from .symfun import m_vec_to_e_vec


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

    def char_class(self, k, max_weight):
        """The class as a GradedPoly in c1..ck over Z[b], keeping terms of
        Chern weight <= max_weight (variables beyond ck restricted away)."""
        weights = {"c%d" % i: i for i in range(1, k + 1)}
        weights.update({"b%d" % i: i for i in range(1, max_weight + 1)})
        bound = 2 * max_weight + 1
        out = GradedPoly(weights, bound)
        combine = (bpoly.add, bpoly.scale, {})
        for w, vec in self.coefficients().items():
            if w > max_weight:
                continue
            evec = m_vec_to_e_vec(vec, w, combine)
            for mu, coeff in evec.items():
                if any(part > k for part in mu):
                    continue  # e_i = 0 beyond the variable count
                cmon = {}
                for part in mu:
                    cmon["c%d" % part] = cmon.get("c%d" % part, 0) + 1
                for bpart, c in coeff.items():
                    mon = dict(cmon)
                    for i in bpart:
                        mon["b%d" % i] = mon.get("b%d" % i, 0) + 1
                    key = tuple(sorted(mon.items()))
                    out = out + GradedPoly(weights, bound, {key: c})
        return out


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


@lru_cache(maxsize=None)
def boundary_partial(ctx):
    return CohOperation.from_dict("partial", 1, ctx.boundary_class_m())


@lru_cache(maxsize=None)
def delta_op(ctx):
    return CohOperation.from_dict("delta", 2, ctx.delta_class_m())


# -- the coaction ---------------------------------------------------------


@lru_cache(maxsize=None)
def _psi_generator(ctx, n):
    """psi(b_n) as {t-partition: bpoly}."""
    out = {}
    for j in range(0, n + 1):
        coeff = ctx.exp_powers[j][n + 1]  # [x^{n+1}] exp^{j+1}
        if coeff:
            key = (j,) if j else ()
            out[key] = bpoly.add(out.get(key, {}), coeff)
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _psi_monomial(ctx, part):
    """psi(b^part) = product of psi(b_i), as {t-partition: bpoly}."""
    if not part:
        return {(): dict(bpoly.ONE)}
    head = _psi_generator(ctx, part[0])
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
    return out


def coaction(ctx, x):
    """psi(h(x)) as {t-partition: bpoly}."""
    out = {}
    for part, c in x.hb:
        for key, val in _psi_monomial(ctx, part).items():
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
