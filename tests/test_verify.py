import pytest

from slcob import bpoly, msl, operations, verify
from slcob.conner_floyd import ConnerFloyd
from slcob.operations import CohOperation, apply_operation, apply_operations
from slcob.partitions import encode, partition_count


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


def wall_products(cf, max_degree):
    """Every product a*b of Wall classes of positive degrees with total
    degree at most max_degree, ordered pairs included."""
    wall = {n: cf.wall_classes(n) for n in range(1, max_degree)}
    return [a * b for na in wall for nb in wall if na + nb <= max_degree
            for a in wall[na] for b in wall[nb]]


@pytest.mark.parametrize("truncation", [6, 9, 12])
def test_leibniz_suite_counts_every_ordered_pair(cf, truncation):
    """The suite reports sum r(na) r(nb) over na + nb <= T, where
    r(n) = p(n) - p(n-2) is the rank of the Wall lattice in degree n."""
    def r(n):
        return partition_count(n) - partition_count(n - 2)

    pairs = sum(r(na) * r(nb) for na in range(1, truncation)
                for nb in range(1, truncation - na + 1))
    assert [name for name, _, _ in verify.suite_leibniz(cf, truncation)] == [
        "twisted Leibniz for the boundary operation (%d Wall pairs)" % pairs,
        "product law for the shift-2 operation (%d Wall pairs)" % pairs]
    if truncation == 12:
        assert pairs == 871


def test_leibniz_suite_passes_at_the_advertised_truncation(monkeypatch,
                                                           capsys):
    """`verify --suite leibniz` at T = 16 passes both laws on the
    sum r(na) r(nb) over na + nb <= 16 Wall pairs, r(n) = p(n) - p(n-2)."""
    from slcob import cli

    def r(n):
        return partition_count(n) - partition_count(n - 2)

    pairs = sum(r(na) * r(nb) for na in range(1, 16)
                for nb in range(1, 16 - na + 1))
    monkeypatch.setattr(cli, "fixtures", ConnerFloyd)  # not kept afterwards
    assert cli.main(["--truncation", "16", "verify", "--suite",
                     "leibniz"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS twisted Leibniz for the boundary operation (%d Wall pairs)"
        % pairs,
        "PASS product law for the shift-2 operation (%d Wall pairs)" % pairs,
        "2 checks, 0 failures"]


def test_leibniz_suite_applies_each_operation_once_per_class(monkeypatch, cf):
    """One `apply_operations` call per distinct product a*b (194 at
    T = 12, against one per ordered pair) gives the images of both
    operations, and the boundary operation runs alone once per distinct
    Wall class."""
    together, alone = [], []

    def counting_together(ctx, ops, x):
        together.append(([op.name for op in ops], x))
        return apply_operations(ctx, ops, x)

    def counting_alone(ctx, op, x):
        alone.append((op.name, x))
        return apply_operation(ctx, op, x)

    monkeypatch.setattr(verify, "apply_operations", counting_together)
    monkeypatch.setattr(verify, "apply_operation", counting_alone)
    assert all(ok for _, ok, _ in verify.suite_leibniz(cf, 12))
    products = set(wall_products(cf, 12))
    wall = [c for n in range(1, 12) for c in cf.wall_classes(n)]
    assert len(products) == 194
    assert [names for names, _ in together] == [["partial", "delta"]] * 194
    assert {x for _, x in together} == products
    assert len(set(wall)) == len(wall)
    assert alone == [("partial", c) for c in wall]


@pytest.mark.parametrize("corrupted", [("lowering",), ("partial",),
                                       ("delta",)])
def test_leibniz_suite_memo_does_not_hide_a_corrupt_column(monkeypatch,
                                                           corrupted):
    """A fault that only products of Wall classes reach, behind the
    suite's memo of one image pair per product, fails exactly the laws
    that read it, and each failing law names itself.  The faults: one
    multiplicity off by one in the derivation's lowering table at a
    b-monomial that products reach and no Wall class has, which both
    operations read; or the coefficient g_2 of one operation's class
    doubled, which leaves that operation unchanged on every Wall class
    (checked below) and changes it on products.  A fresh chain keeps the
    fault out of the session's fixtures."""
    cf = ConnerFloyd(8)
    reached = {part for cls in wall_products(cf, 8) for part, _ in cls.hb}
    walls = {part for n in range(1, 8) for cls in cf.wall_classes(n)
             for part, _ in cls.hb}
    (kind,) = corrupted
    if kind == "lowering":
        code, real = encode(max(reached - walls)), operations._lowerings

        def lowerings(c):
            if c != code:
                return real(c)
            (low, m), *rest = real(c)
            return ((low, m + 1),) + tuple(rest)

        monkeypatch.setattr(operations, "_lowerings", lowerings)
        failing = {"partial", "delta"}
    else:
        factory = {"partial": "boundary_partial", "delta": "delta_op"}[kind]
        op = getattr(verify, factory)(cf.ctx)
        g = [bpoly.scale(gk, 2 if k == 2 else 1)
             for k, gk in enumerate(op.series)]
        perturbed = CohOperation.from_log_series(op.name, op.shift, g)
        assert perturbed != op
        assert all(apply_operation(cf.ctx, perturbed, cls)
                   == apply_operation(cf.ctx, op, cls)
                   for n in range(1, 8) for cls in cf.wall_classes(n))
        monkeypatch.setattr(verify, factory, lambda ctx: perturbed)
        failing = {kind}
    (boundary, ok_b, detail_b), (product, ok_p, detail_p) = \
        verify.suite_leibniz(cf, 8)
    assert boundary.startswith("twisted Leibniz")
    assert product.startswith("product law")
    assert ok_b == ("partial" not in failing)
    assert ok_p == ("delta" not in failing)
    assert detail_b.startswith("partial law at (") or ok_b and not detail_b
    assert detail_p.startswith("product law at (") or ok_p and not detail_p
