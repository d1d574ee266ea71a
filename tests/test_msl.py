import pytest

from slcob import msl
from slcob.abelian import FGAbGroup
from slcob.verify import chain_decomposition
from slcob.witt import field_descriptor, witt_data

ALL_KINDS = ("c", "r", "fq1", "fq3")


def test_degree_zero_is_grothendieck_witt():
    for kind in ALL_KINDS:
        fd = field_descriptor(kind)
        assert msl.msl_diagonal(fd, 0).group == witt_data(fd).gw


def test_real_closed_degree_eight():
    fd = field_descriptor("r")
    ans = msl.msl_diagonal(fd, 8)
    assert ans.group == FGAbGroup.free(9)  # GW(R)^2 + Z^5 = Z^9
    assert ans.ideal_part == FGAbGroup.free(2)
    assert ans.msu_free == FGAbGroup.free(7)


def test_finite_degree_four():
    fd = field_descriptor("fq1")
    ans = msl.msl_diagonal(fd, 4)
    assert ans.group == FGAbGroup.from_divisors([0, 0, 2], [5])


def test_off_diagonal_examples():
    assert msl.msl_off_diagonal(field_descriptor("r"), 4, 1) == FGAbGroup.free(1)
    for kind in ALL_KINDS:
        assert msl.msl_off_diagonal(field_descriptor(kind), 3, 2).is_trivial()
    q3 = field_descriptor("fq3")
    assert msl.msl_off_diagonal(q3, 8, 5) == FGAbGroup.cyclic(4, [3]).power(2)
    with pytest.raises(ValueError):
        msl.msl_off_diagonal(q3, 4, 0)


def ideal(kind, n):
    return msl.msl_diagonal(field_descriptor(kind), n).ideal_part


def test_ideal_examples():
    assert ideal("r", 8) == FGAbGroup.free(2)
    for n in range(0, 12):
        assert ideal("c", n).is_trivial()
    for kind in ALL_KINDS:
        assert ideal(kind, 6).is_trivial()


def test_negative_degree_raises():
    for kind in ALL_KINDS:
        with pytest.raises(ValueError, match="starts in degree 0"):
            msl.msl_diagonal(field_descriptor(kind), -1)


def test_torsion_examples():
    assert msl.msl_torsion(field_descriptor("fq3"), 4) == FGAbGroup.cyclic(2, [3])
    for kind in ALL_KINDS:
        fd = field_descriptor(kind)
        assert msl.msl_torsion(fd, 9) == FGAbGroup.cyclic(
            2, fd.inverted_primes).power(2)
    assert msl.msl_torsion(field_descriptor("r"), 8).is_trivial()


def test_torsion_matches_diagonal():
    for kind in ALL_KINDS:
        fd = field_descriptor(kind)
        for n in range(0, 12):
            tor = msl.msl_torsion(fd, n)
            assert tor == msl.msl_diagonal(fd, n).group.torsion_part().primary_part(2)


def test_eta_quotient_degrees():
    fd = field_descriptor("r")
    rows = msl.eta_quotient_degrees(fd, 12)
    by_n = {n: labels for n, labels, _ in rows}
    # labels follow the global reverse-lexicographic partition order
    assert by_n[8] == ["y8", "y4*y4"]
    assert by_n[6] == []
    assert by_n[0] == ["1"]
    assert by_n[12] == ["y12", "y8*y4", "y4*y4*y4"]
    for n, labels, group in rows:
        if n % 4 == 0:
            assert group == witt_data(fd).w
        else:
            assert labels == []


def test_intro_table_rows():
    fd = field_descriptor("c")
    rows = msl.intro_table_rows(fd)
    assert str(rows[1]["group"]) == "Z/2"
    assert str(rows[6]["group"]) == "Z^4"
    assert str(rows[7]["group"]) == "Z^4"
    assert [r["symbolic"] for r in rows] == [
        "GW(k)", "Z/2", "Z", "Z", "GW(k) + Z", "Z^2 + Z/2",
        "Z^4", "Z^4", "GW(k)^2 + Z^5", "Z^8 + (Z/2)^2"]


def test_quotient_and_localization_consistency(cf):
    """Against the groups built from the computed chain; the diagonal
    surjects onto the first off-diagonal group W(k)^p because p rank
    sections cover the rank-mod-2 quotient of the ideal part I(k)^p."""
    for kind in ALL_KINDS:
        fd = field_descriptor(kind)
        for n in range(0, 12):
            chain = chain_decomposition(fd, cf, n)
            assert msl.quotient_by_ideal(fd, n) == chain["msu_free"].direct_sum(
                chain["msu_torsion"])
            assert msl.away_from_two(fd, n) == chain["away_from_two"]
            p = len(cf.homology(n).invariant_factors) if n % 4 == 0 else 0
            assert msl.msl_off_diagonal(fd, n, 1).is_trivial() or \
                msl.msl_diagonal(fd, n).msu_free.free_rank >= p


def test_quadratically_closed_equals_msu(cf):
    fd = field_descriptor("c")
    for n in range(0, 12):
        chain = chain_decomposition(fd, cf, n)
        assert msl.msl_diagonal(fd, n).group == chain["msu_free"].direct_sum(
            chain["msu_torsion"])


def test_inverted_primes_do_not_touch_stated_torsion():
    """Finite kinds invert an odd prime; the 2-torsion answers survive."""
    fd = field_descriptor("fq3", 3)
    for n in range(0, 12):
        tor = msl.msl_torsion(fd, n)
        assert all(f % 2 == 0 for f in tor.invariant_factors)
        assert 3 in tor.inverted_primes
