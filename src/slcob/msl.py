"""Degree-wise assembly of the geometric diagonal of special linear
cobordism over a catalog field.

The answer in diagonal degree n over k (coefficients in Z[1/e]):

    n = 0 (4):  I(k)^p(n/4)  +  (the special unitary group in degree n)
    otherwise:  the special unitary group in degree n

evaluated additively through the splitting of the pullback square: the
quotient by the graded ideal I_MSL (the eta-multiples, concentrated in
degrees 0 mod 4 where they form I(k)^p(n/4)) is the special unitary
cobordism ring, and the pullback over the rank-mod-2 corner contributes
the fundamental-ideal summands.  The quotient by the annihilator of eta
is the Witt polynomial ring on generators y_4, y_8, ... (degree |y_i| = i),
which also gives every off-diagonal group.
"""

from .abelian import FGAbGroup
from .conner_floyd import homology_rank
from .partitions import partition_count, partitions_of
from .record import Record
from .witt import witt_data


class MSLAnswer(Record):
    __slots__ = ("field", "n", "group", "ideal_part", "msu_free",
                 "msu_torsion", "provenance")

    def decomposition_json(self):
        return {
            "ideal_part": self.ideal_part.to_json(),
            "msu_free": self.msu_free.to_json(),
            "msu_torsion": self.msu_torsion.to_json(),
        }

    def to_json(self):
        return {
            "field": self.field.kind,
            "exponential_characteristic": self.field.exponential_characteristic,
            "n": self.n,
            "group": self.group.to_json(),
            "decomposition": self.decomposition_json(),
            "provenance": list(self.provenance),
        }


def _counts(n):
    """The three partition counts of the diagonal in degree n: the free
    rank p(n) - p(n-1) of the special unitary part, the exponent
    p((n-1)/4) = rank H_(n-1) of its torsion (Z/2)^p((n-1)/4) in degrees
    1 mod 4, and the multiplicity p(n/4) = rank H_n of the ideal part
    I(k)^p(n/4) in degrees 0 mod 4, H the Conner-Floyd homology.  Every
    view reads them here; `verify.suite_table` checks them on the chain."""
    if n < 0:
        raise ValueError("the diagonal starts in degree 0, not %d" % n)
    return (partition_count(n) - partition_count(n - 1),
            homology_rank(n - 1) if n % 4 == 1 else 0,
            homology_rank(n) if n % 4 == 0 else 0)


def msl_diagonal(field, n):
    """The diagonal group with its labeled decomposition."""
    free, torsion, ideal = _counts(n)
    inv = field.inverted_primes
    ideal_part = witt_data(field).fundamental_ideal_power(1).power(ideal)
    msu_free = FGAbGroup.free(free, inv)
    msu_torsion = FGAbGroup.cyclic(2, inv).power(torsion)
    prov = ["msu free part: polynomial count p(n) - p(n-1)"]
    if n % 4 == 1:
        prov.append("msu torsion: (Z/2)^p((n-1)/4) in degrees 1 mod 4")
    if n % 4 == 0:
        prov.append("ideal part: I(k)^p(n/4) from the pullback splitting")
    group = ideal_part.direct_sum(msu_free).direct_sum(msu_torsion)
    return MSLAnswer(field, n, group, ideal_part, msu_free, msu_torsion,
                     tuple(prov))


def msl_off_diagonal(field, n, m):
    """The group m steps above the diagonal (m > 0): Witt-valued in
    degrees divisible by 4, zero otherwise."""
    if m <= 0:
        raise ValueError("off-diagonal needs m > 0 (m = 0 is the diagonal)")
    return witt_data(field).w.power(_counts(n)[2])


def msl_torsion(field, n):
    """The 2-primary torsion subgroup of the diagonal group."""
    return msl_diagonal(field, n).group.torsion_part().primary_part(2)


def eta_quotient_degrees(field, max_n):
    """Rows (n, monomial labels, coefficient group) of the mod-eta
    quotient ring: the Witt polynomial ring on y_4, y_8, ...; degree n
    carries the monomials y^omega over partitions of n/4."""
    wr = witt_data(field)
    rows = []
    for n in range(0, max_n + 1):
        if n % 4 == 0:
            labels = []
            for omega in partitions_of(n // 4):
                labels.append("*".join("y%d" % (4 * part) for part in omega) or "1")
            rows.append((n, labels, wr.w))
        else:
            rows.append((n, [], FGAbGroup.trivial(field.inverted_primes)))
    return rows


def quotient_by_ideal(field, n):
    """The diagonal modulo the eta-multiple ideal, which is the special
    unitary answer (computed from the decomposition bookkeeping)."""
    ans = msl_diagonal(field, n)
    return ans.msu_free.direct_sum(ans.msu_torsion)


def away_from_two(field, n):
    """The diagonal with 2 inverted: free part times the Witt part."""
    ans = msl_diagonal(field, n)
    return ans.group.localize([2])


# -- the introduction table -------------------------------------------------


def intro_table_rows(field):
    """Rows n = 0..9 with the symbolic decomposition (ideal summands
    grouped with rank sections into GW-labels) and the instantiated
    normal form."""
    return [{"n": n, "symbolic": symbolic_row(n),
             "group": msl_diagonal(field, n).group} for n in range(10)]


def symbolic_row(n):
    """The k-generic description of the diagonal degree n (GW-labeled
    summands preserved symbolically).

    >>> symbolic_row(8)
    'GW(k)^2 + Z^5'
    >>> symbolic_row(9)
    'Z^8 + (Z/2)^2'
    """
    free, torsion, gw = _counts(n)
    parts = []
    if gw:
        parts.append("GW(k)" if gw == 1 else "GW(k)^%d" % gw)
        free -= gw  # rank sections absorbed into the GW labels
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append("Z^%d" % free)
    if torsion == 1:
        parts.append("Z/2")
    elif torsion > 1:
        parts.append("(Z/2)^%d" % torsion)
    return " + ".join(parts) if parts else "0"
