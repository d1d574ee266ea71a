"""Chern characteristic numbers of explicit varieties.

The tangent Chern numbers of hypersurfaces of degree d in projective
n-space (total tangent class (1+h)^(n+1)/(1+dh), integration = d times
the coefficient of h^(n-1)) and of products of projective spaces come from
the one routine `mu.tangent_numbers`.  The Calabi-Yau certificate is
symbolic: the degree-1 part of the tangent class vanishes identically in
the ambient model (a necessary condition for an actual trivialization of
the determinant; the honest limit of what coefficients can certify).

The generator verdict for the plus part: a class of degree n >= 2 in the
cycle lattice generates a polynomial slot away from 2 exactly when its
s-number is +-(odd prime p) * 2^j for n+1 a power of p, and +-2^j
otherwise.
"""

from dataclasses import dataclass

from . import mu
from .partitions import partitions_of


@dataclass(frozen=True)
class VarietyClass:
    description: str
    dimension: int
    tangent_numbers: tuple  # sorted ((partition, int), ...)
    mu_class: mu.MUClass
    calabi_yau: bool = False

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


def hypersurface_class(ambient_n, degree):
    """A smooth hypersurface of the given degree in projective
    ambient_n-space (dimension ambient_n - 1)."""
    if ambient_n < 1 or degree < 1:
        raise ValueError("a hypersurface needs an ambient dimension and a "
                         "degree of at least 1 (got P^%d, degree %d)"
                         % (ambient_n, degree))
    n = ambient_n - 1
    numbers, total = mu.tangent_numbers((ambient_n,), (degree,))
    return VarietyClass(
        description="hypersurface of degree %d in P^%d" % (degree, ambient_n),
        dimension=n,
        tangent_numbers=tuple(sorted(numbers.items())),
        mu_class=mu.chern_numbers_to_hurewicz(numbers, n),
        calabi_yau=n >= 1 and not total[1],  # c1 vanishes symbolically
    )


def product_projective_class(dims):
    """A product of projective spaces."""
    dims = tuple(dims)
    if any(d < 0 for d in dims):
        raise ValueError("projective spaces need dimensions of at least 0 "
                         "(got %s)" % (dims,))
    numbers, _ = mu.tangent_numbers(dims)
    n = sum(dims)
    # c1 of a product of projective spaces never vanishes
    return VarietyClass(
        description="product of projective spaces %s" % (dims,),
        dimension=n,
        tangent_numbers=tuple(sorted(numbers.items())),
        mu_class=mu.chern_numbers_to_hurewicz(numbers, n),
        calabi_yau=False,
    )


def chern_number(x, omega):
    """The Chern number of the stable normal bundle (the negative of the
    tangent bundle) of a coefficient-ring class."""
    omega = tuple(sorted(omega, reverse=True))
    if sum(omega) != x.degree:
        raise ValueError("partition weight %d does not match degree %d"
                         % (sum(omega), x.degree))
    n = x.degree
    if n == 0:
        return x.coefficient(())
    from .symfun import e_to_m_matrix
    E = e_to_m_matrix(n)
    total = 0
    for nu in partitions_of(n):
        c = E.get((omega, nu), 0)
        if c:
            total += c * x.coefficient(nu)
    return total


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
