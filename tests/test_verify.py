from slcob import verify


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
