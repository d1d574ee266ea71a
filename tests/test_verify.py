import pytest

from slcob import msl, verify


def test_cf_pattern_runs_to_the_truncation(monkeypatch):
    """`run_suite` asks the homology-pattern suite for every degree below
    the truncation, also above 11."""
    asked = []
    monkeypatch.setattr(verify, "suite_cf_pattern",
                        lambda cf, max_degree: asked.append(max_degree) or [])
    for name in ("suite_leibniz", "suite_subring", "suite_table", "suite_kq",
                 "suite_witt_oracle"):
        monkeypatch.setattr(verify, name, lambda *args: [])
    for max_degree in (6, 12, 14, 16):
        for suite in ("cf-pattern", "all"):
            verify.run_suite(suite, cf=object(), max_degree=max_degree)
    assert asked == [5, 5, 11, 11, 13, 13, 15, 15]


def test_table_suite_checks_every_degree_against_the_chain(cf):
    checks = verify.run_suite("table", cf=cf, max_degree=12)
    assert [name for name, ok, _ in checks if not ok] == []
    chained = [name for name, _, _ in checks if "agrees with the chain" in name]
    assert len(chained) == 4 * 12
    assert chained[:12] == ["[c] degree %d agrees with the chain at truncation "
                            "12" % n for n in range(12)]


@pytest.mark.parametrize("degree, slot", [(5, 1), (8, 2), (10, 0)])
def test_table_suite_fails_on_a_miscounted_degree(monkeypatch, cf, degree,
                                                  slot):
    """One count off by one in one degree (the torsion at 5, the ideal
    multiplicity at 8, the free rank at 10): the cross-check fails in that
    degree and nowhere else."""
    counts = msl._counts

    def miscounted(n):
        out = list(counts(n))
        out[slot] += n == degree
        return tuple(out)

    monkeypatch.setattr(msl, "_counts", miscounted)
    for kind in ("c", "r", "fq1", "fq3"):
        failed = [name for name, ok, _ in verify.suite_table(kind, None, cf, 12)
                  if not ok]
        chained = [name for name in failed if "agrees with the chain" in name]
        assert chained == ["degree %d agrees with the chain at truncation 12"
                           % degree], (kind, failed)
        assert all(name.startswith("degree %d" % degree) for name in failed)
