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

from dataclasses import dataclass

from .abelian import FGAbGroup
from .partitions import partition_count, partitions_of
from .witt import witt_data


@dataclass(frozen=True)
class MSLAnswer:
    field: object
    n: int
    group: FGAbGroup
    ideal_part: FGAbGroup
    msu_free: FGAbGroup
    msu_torsion: FGAbGroup
    provenance: tuple

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


def msu_additive(n, inverted_primes=()):
    """Additive special unitary cobordism in diagonal degree n."""
    assert n >= 0
    free = partition_count(n) - partition_count(n - 1)
    out = FGAbGroup.free(free, inverted_primes)
    if n % 4 == 1:
        out = out.direct_sum(
            FGAbGroup.cyclic(2, inverted_primes).power(partition_count((n - 1) // 4)))
    return out


def i_msl(field, n):
    """The degree-n piece of the eta-multiple ideal."""
    wr = witt_data(field)
    if n % 4 == 0 and n >= 0:
        return wr.fundamental_ideal_power(1).power(partition_count(n // 4))
    return FGAbGroup.trivial(field.inverted_primes)


def msl_diagonal(field, n):
    """The diagonal group with its labeled decomposition."""
    assert n >= 0
    inv = field.inverted_primes
    ideal = i_msl(field, n)
    free = FGAbGroup.free(partition_count(n) - partition_count(n - 1), inv)
    torsion = FGAbGroup.trivial(inv)
    prov = ["msu free part: polynomial count p(n) - p(n-1)"]
    if n % 4 == 1:
        torsion = FGAbGroup.cyclic(2, inv).power(partition_count((n - 1) // 4))
        prov.append("msu torsion: (Z/2)^p((n-1)/4) in degrees 1 mod 4")
    if n % 4 == 0:
        prov.append("ideal part: I(k)^p(n/4) from the pullback splitting")
    group = ideal.direct_sum(free).direct_sum(torsion)
    return MSLAnswer(field, n, group, ideal, free, torsion, tuple(prov))


def msl_off_diagonal(field, n, m):
    """The group m steps above the diagonal (m > 0): Witt-valued in
    degrees divisible by 4, zero otherwise."""
    if m <= 0:
        raise ValueError("off-diagonal needs m > 0 (m = 0 is the diagonal)")
    wr = witt_data(field)
    if n % 4 == 0 and n >= 0:
        return wr.w.power(partition_count(n // 4))
    return FGAbGroup.trivial(field.inverted_primes)


def msl_torsion(field, n):
    """The 2-primary torsion subgroup of the diagonal group."""
    wr = witt_data(field)
    inv = field.inverted_primes
    if n % 4 == 0 and n >= 0:
        return wr.two_primary_torsion_of_ideal(1).power(partition_count(n // 4))
    if n % 4 == 1 and n >= 0:
        return FGAbGroup.cyclic(2, inv).power(partition_count((n - 1) // 4))
    return FGAbGroup.trivial(inv)


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


def away_from_two_expected(field, n):
    wr = witt_data(field)
    free = FGAbGroup.free(partition_count(n) - partition_count(n - 1),
                          field.inverted_primes).localize([2])
    if n % 4 == 0:
        wpart = wr.w.localize([2]).power(partition_count(n // 4))
        return free.direct_sum(wpart)
    return free


# -- the introduction table -------------------------------------------------


def intro_table_rows(field):
    """Rows n = 0..9 with the symbolic decomposition (ideal summands
    grouped with rank sections into GW-labels) and the instantiated
    normal form."""
    rows = []
    for n in range(0, 10):
        ans = msl_diagonal(field, n)
        rows.append({
            "n": n,
            "symbolic": symbolic_row(n),
            "group": ans.group,
            "answer": ans,
        })
    return rows


def symbolic_row(n):
    """The k-generic description of the diagonal degree n (GW-labeled
    summands preserved symbolically)."""
    free = partition_count(n) - partition_count(n - 1)
    parts = []
    if n % 4 == 0:
        gw = partition_count(n // 4)
        if gw:
            parts.append("GW(k)" if gw == 1 else "GW(k)^%d" % gw)
            free -= gw  # rank sections absorbed into the GW labels
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append("Z^%d" % free)
    if n % 4 == 1:
        t = partition_count((n - 1) // 4)
        if t == 1:
            parts.append("Z/2")
        elif t > 1:
            parts.append("(Z/2)^%d" % t)
    return " + ".join(parts) if parts else "0"


def eta_epi_check(field, n):
    """The diagonal surjects onto the first off-diagonal group: the ideal
    summand includes, and rank sections cover the rank-mod-2 quotient.
    Verified as cokernel bookkeeping on the known normal forms."""
    target = msl_off_diagonal(field, n, 1)
    if target.is_trivial():
        return True
    # target is W(k)^p; the ideal part I^p includes with quotient (Z/2)^p,
    # covered by p of the free-rank generators via rank sections
    p = partition_count(n // 4)
    ans = msl_diagonal(field, n)
    return ans.msu_free.free_rank >= p
