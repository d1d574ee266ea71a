"""Chern characteristic numbers of explicit varieties.

A smooth hypersurface of degree d in projective N-space takes its class
from the formal group law (`mu.hypersurface_class`) and its tangent Chern
numbers from that class (`mu.hurewicz_to_chern_numbers`).  The
Calabi-Yau certificate is symbolic: the tangent class is
(1+h)^(N+1)/(1+dh), so c1 = (N+1-d)h vanishes in the ambient model exactly
when d = N+1 (a necessary condition for an actual trivialization of the
determinant; the honest limit of what coefficients can certify).

The generator verdict for the plus part: a class of degree n >= 2 in the
cycle lattice generates a polynomial slot away from 2 exactly when its
s-number is +-(odd prime p) * 2^j for n+1 a power of p, and +-2^j
otherwise.
"""

from . import mu
from .record import Record


class VarietyClass(Record):
    __slots__ = ("description", "dimension", "tangent_numbers", "mu_class",
                 "calabi_yau")  # tangent_numbers: sorted (omega, int) pairs
    _defaults = {"calabi_yau": False}

    def tangent(self):
        return dict(self.tangent_numbers)

    def to_json(self):
        return {
            "description": self.description,
            "dimension": self.dimension,
            "tangent_chern_numbers": {
                "+".join(map(str, omega)) if omega else "()": v
                for omega, v in self.tangent_numbers},
            "hurewicz": {"+".join(map(str, p)) if p else "()": c
                         for p, c in self.mu_class.hb},
            "calabi_yau_symbolic": self.calabi_yau,
        }


def hypersurface_class(ctx, ambient_n, degree):
    """A smooth hypersurface of the given degree in projective
    ambient_n-space (dimension ambient_n - 1)."""
    cls = mu.hypersurface_class(ctx, ambient_n, degree)
    n = ambient_n - 1
    return VarietyClass(
        description="hypersurface of degree %d in P^%d" % (degree, ambient_n),
        dimension=n,
        tangent_numbers=tuple(sorted(mu.hurewicz_to_chern_numbers(cls).items())),
        mu_class=cls,
        calabi_yau=n >= 1 and degree == ambient_n + 1,  # c1 = (n + 2 - d) h
    )


class NotACycle(ValueError):
    pass


def generator_check_msu(x, cf):
    """Whether a cycle-lattice class has the s-number of a polynomial
    generator of the plus part: odd part exactly p when n+1 is a power of
    the odd prime p, trivial odd part otherwise (powers of 2 are units
    away from 2).  A vanishing s-number fails outright; otherwise the
    class must lie in the cycle lattice (NotACycle if it does not)."""
    n = x.degree
    assert n >= 2
    s = mu.s_number(x)
    if s == 0:
        return False
    if cf.cycle_solver(n).solve(x.vector()) is None:
        raise NotACycle("class is not a cycle (not in the image of the "
                        "special linear theory)")
    odd = abs(s)
    while odd % 2 == 0:
        odd //= 2
    target = mu.generator_target(n)
    if target != 1 and target % 2 == 1:
        return odd == target
    # n+1 a power of 2 (target 2, absorbed away from 2) or no prime power
    return odd == 1
