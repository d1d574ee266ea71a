"""Acceptance criteria, one test per criterion, exact tolerances (all
arithmetic is exact; every comparison is equality on normal forms or
integers).  Each test prints a single PASS line on success."""

import time

from slcob import charnum, msl, mu
from slcob.intmat import HNFSolver
from slcob.kq import KQPresentation
from slcob.partitions import partition_count as p
from slcob.verify import (_expected_intro, chain_decomposition, suite_leibniz,
                          suite_subring, suite_witt_oracle)
from slcob.witt import field_descriptor
from slcob.wittforms import FormCalculus

ALL_KINDS = ("c", "r", "fq1", "fq3")


def report(num, text):
    print("PASS criterion %d: %s" % (num, text))


def test_criterion_01_intro_table_reproduction():
    """Intro table rows n = 0..9 for every catalog kind, under 10 s."""
    t0 = time.time()
    expected_c = ["Z", "Z/2", "Z", "Z", "Z^2", "Z^2 + Z/2", "Z^4", "Z^4",
                  "Z^7", "Z^8 + (Z/2)^2"]
    for kind in ALL_KINDS:
        fd = field_descriptor(kind)
        rows = msl.intro_table_rows(fd)
        got = [str(r["group"]) for r in rows]
        want = _expected_intro(fd)
        assert got == want, (kind, got, want)
        if kind == "c":
            assert got == expected_c
    elapsed = time.time() - t0
    assert elapsed < 10.0, "runtime %.1fs exceeds 10s" % elapsed
    report(1, "intro table matches for c, r, fq1, fq3 (%.2fs)" % elapsed)


def test_criterion_02_conner_floyd_pattern():
    """H_n for n = 0..11 equals the published 2-group pattern, under 60 s
    from a cold start (context, basis and complex built inside the timer)."""
    from slcob.conner_floyd import ConnerFloyd
    t0 = time.time()
    cold = ConnerFloyd(12)
    expected = ["Z/2", "0", "Z/2", "0", "Z/2", "0",
                "Z/2", "0", "(Z/2)^2", "0", "(Z/2)^2", "0"]
    got = [str(cold.homology(n)) for n in range(12)]
    assert got == expected, got
    elapsed = time.time() - t0
    assert elapsed < 60.0, "runtime %.1fs exceeds 60s" % elapsed
    report(2, "H_0..H_11 = %s (%.1fs cold)" % (", ".join(expected), elapsed))


def test_criterion_03_twisted_leibniz(cf):
    """Both product laws hold exactly on all ordered pairs of Wall-lattice
    basis classes with total degree <= 12 (the lemma's hypothesis puts
    both factors in the Wall lattice)."""
    checks = suite_leibniz(cf, 12)
    for name, ok, detail in checks:
        assert ok, (name, detail)
    report(3, "; ".join(name for name, _, _ in checks))


def test_criterion_04_delta_surjectivity(cf):
    """The shift-2 operation is onto in every degree 2..12."""
    for n in range(2, 13):
        coker = cf.delta_cokernel(n)
        assert coker.is_trivial(), (n, coker)
    report(4, "cokernel trivial for n = 2..12")


def test_criterion_05_rank_bookkeeping(cf):
    """Wall ranks p(n) - p(n-2) and cycle ranks p(n) - p(n-1), n <= 11."""
    for n in range(0, 12):
        assert cf.w_rank(n) == p(n) - p(n - 2), n
        assert cf.cycles_in_lattice(n).cols == p(n) - p(n - 1), n
    report(5, "Wall ranks and cycle ranks match partition counts, n <= 11")


def test_criterion_06_milnor_generators(basis):
    """Generator selection succeeds for all n <= 12 with the prescribed
    s-numbers; in particular |s_1| = 2 and |s_2| = 3."""
    for n in range(1, 13):
        s = mu.s_number(basis.generators[n])
        assert abs(s) == mu.generator_target(n), (n, s)
    assert abs(mu.s_number(basis.generators[1])) == 2
    assert abs(mu.s_number(basis.generators[2])) == 3
    values = [mu.s_number(basis.generators[n]) for n in range(1, 13)]
    report(6, "generator s-numbers %s" % values)


def test_criterion_07_kq_tables_and_relations():
    """Relation check to degree 16 for all four kinds; exact
    (8,4)-periodicity including negative degrees."""
    for kind in ALL_KINDS:
        pres = KQPresentation(field_descriptor(kind))
        failures = [(n, d) for n, ok, d in pres.relation_check() if not ok]
        assert failures == [], (kind, failures)
        for n in range(-8, 13):
            assert pres.kq_diagonal(n) == pres.kq_diagonal(n + 4), (kind, n)
    report(7, "relations to degree 16 and periodicity hold for all kinds")


def test_criterion_08_witt_oracle():
    """Brute-force diagonal-form classification over F_3, F_5, F_7."""
    checks = suite_witt_oracle()
    for name, ok, detail in checks:
        assert ok, (name, detail)
    assert FormCalculus(3).group_structure() == (4,)
    assert FormCalculus(5).group_structure() == (2, 2)
    assert FormCalculus(7).group_structure() == (4,)
    report(8, "W(F_3) = Z/4, W(F_5) = (Z/2)^2, W(F_7) = Z/4, I^2 = 0")


def test_criterion_09_image_lattices_and_subring(cf):
    """Cycle products stay cycles through total degree 12; boundaries sit
    inside cycles with the published quotient."""
    checks = suite_subring(cf, 12)
    for name, ok, detail in checks:
        assert ok, (name, detail)
    for n in range(0, 11):
        assert cf.homology(n) == cf.expected_homology(n), n
    # the image lattice switches to boundaries exactly in degrees 2 mod 4
    for n in range(0, 11):
        img = cf.msl_image_in_mgl(n)
        target = (cf.boundaries_in_lattice(n) if n % 4 == 2
                  else cf.cycles_in_lattice(n))
        assert img.entries == target.entries, n
    report(9, "cycle subring, boundary inclusion and image lattices verified")


def test_criterion_10_quartic_surface(ctx, cf):
    """The quartic surface: c2-number 24, symbolic Calabi-Yau, lies in the
    degree-2 cycle lattice, passes the generator check with s = -3 * 2^4."""
    q = charnum.hypersurface_class(ctx, 3, 4)
    assert q.tangent()[(2,)] == 24
    assert q.calabi_yau
    solver = HNFSolver(cf.cycles_in_lattice(2))
    assert solver.solve(cf.basis.to_coordinates(q.mu_class)) is not None
    assert charnum.generator_check_msu(q.mu_class, cf)
    s = mu.s_number(q.mu_class)
    assert s == -48 and abs(s) == 3 * 2 ** 4
    report(10, "quartic surface: c2 = 24, Calabi-Yau flag, cycle, s = %d" % s)


def test_criterion_11_mod_eta_quotient():
    """Monomial counts p(n/4) per degree and Witt-valued off-diagonal
    groups for every kind."""
    for kind in ALL_KINDS:
        fd = field_descriptor(kind)
        rows = msl.eta_quotient_degrees(fd, 12)
        for n, labels, group in rows:
            expected = p(n // 4) if n % 4 == 0 else 0
            assert len(labels) == expected, (kind, n)
        from slcob.witt import witt_data
        w = witt_data(fd).w
        for n in range(0, 12):
            off = msl.msl_off_diagonal(fd, n, 1)
            if n % 4 == 0:
                assert off == w.power(p(n // 4)), (kind, n)
            else:
                assert off.is_trivial(), (kind, n)
    report(11, "monomial counts and off-diagonal groups match for all kinds")


def test_criterion_12_quotient_and_localization(cf):
    """Quotient by the ideal gives the special unitary answer; inverting 2
    splits off the Witt part; both for all kinds and n <= 11, against the
    groups built from the computed chain."""
    for kind in ALL_KINDS:
        fd = field_descriptor(kind)
        for n in range(0, 12):
            chain = chain_decomposition(fd, cf, n)
            assert msl.quotient_by_ideal(fd, n) == chain["msu_free"].direct_sum(
                chain["msu_torsion"]), (kind, n)
            assert msl.away_from_two(fd, n) == chain["away_from_two"], (kind, n)
    report(12, "quotient and away-from-2 identities hold for all kinds, n <= 11")
