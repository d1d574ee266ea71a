import os
import subprocess
import sys
from itertools import permutations

import pytest

from gradedpoly import GradedPoly
from oracles import (by_partition, c1_determinant_class, chi_series,
                     formal_group, formal_inverse, formal_sum,
                     log_derivative_powers, ser_compose, ser_inverse)
from slcob import bpoly, mu
from slcob.fgl import FGLContext


def mon(*pairs):
    return tuple(sorted(pairs))


def test_exp_log_are_mutually_inverse(ctx):
    comp = ser_compose(ctx.exp_series, ctx.log_series, ctx.top)
    assert comp[1] == bpoly.ONE
    assert all(not comp[d] for d in range(2, ctx.top + 1))


def test_log_coefficients():
    ctx = FGLContext(6)
    assert by_partition(ctx.log_coefficient(1)) == {(1,): -1}
    assert by_partition(ctx.log_coefficient(2)) == {(1, 1): 2, (2,): -1}


def test_log_powers_are_lazy_and_shared():
    """The table Q[a][i] = [u^i] log^a log' of the catalog is built on first
    catalog use, once per context, and the Milnor classes and complete
    intersections read that one copy.  Its rows a = 0 .. top+1 run to
    u^(top+1), with the coefficients above weight `bound` left 0, and each
    equals the derivative of log^(a+1) divided by a+1."""
    for bound in (6, 12, 16):
        ctx = FGLContext(bound)
        assert "_log_derivative_powers" not in ctx._memo
        mu.milnor_hypersurface_class(ctx, 2, 3)
        memo = ctx._memo["_log_derivative_powers"]
        table = mu._log_derivative_powers(ctx)
        assert list(memo.values()) == [table]
        deg = ctx.top + 1
        assert len(table) == deg + 1
        assert table[0] == [bpoly.scale(m, i + 1) for i, m in
                            enumerate(ctx.log_series[1:])] + [{}, {}]
        expected = log_derivative_powers(ctx)
        for a, row in enumerate(table):
            assert len(row) == deg + 1
            assert row == expected[a], (bound, a)
            assert all(not c for i, c in enumerate(row) if i - a > bound)
        mu.complete_intersection_class(ctx, deg, (2, 3))
        assert mu._log_derivative_powers(ctx) is table


def test_formal_group_unit_and_commutativity():
    ctx = FGLContext(6)
    F = formal_group(ctx)
    # F(x, 0) = x: no monomials in x alone except x itself
    pure_x = {m: c for m, c in F.coeffs.items()
              if all(g == "x" or g.startswith("b") for g, _ in m)}
    assert pure_x == {mon(("x", 1)): 1}
    # symmetry in x and y
    swapped = {}
    for m, c in F.coeffs.items():
        d = dict(m)
        d["x"], d["y"] = d.get("y", 0), d.get("x", 0)
        swapped[tuple(sorted((g, e) for g, e in d.items() if e))] = c
    assert swapped == F.coeffs


def test_formal_group_cross_coefficient_is_minus_cp1():
    """The xy-coefficient of the group law equals -[CP1] = 2 b1.

    (The series expansion of exp(log x + log y) fixes the sign; the
    twisted Leibniz anchors in the operations tests depend on it.)"""
    ctx = FGLContext(6)
    F = formal_group(ctx)
    assert F.coefficient(mon(("b1", 1), ("x", 1), ("y", 1))) == 2
    cp1 = bpoly.scale(ctx.log_coefficient(1), 2)
    assert by_partition(bpoly.scale(cp1, -1)) == {(1,): 2}


def test_associativity_via_formal_sum():
    ctx = FGLContext(5)
    fs = formal_sum(ctx, 3)
    xs = ["x1", "x2", "x3"]
    for perm in permutations(range(3)):
        permuted = {}
        for m, c in fs.coeffs.items():
            d = dict(m)
            vals = [d.get(x, 0) for x in xs]
            out = {xs[i]: vals[perm[i]] for i in range(3)}
            for g, e in d.items():
                if g.startswith("b"):
                    out[g] = e
            permuted[tuple(sorted((g, e) for g, e in out.items() if e))] = c
        assert permuted == fs.coeffs


def test_associativity_directly():
    ctx = FGLContext(5)
    F = formal_group(ctx)
    w = dict(F.weights)
    w["z"] = 1
    lift = GradedPoly(w, F.bound, dict(F.coeffs))
    inner_xy = GradedPoly(w, F.bound, dict(F.coeffs))
    # F(F(x,y), z): rename y -> z first, so that the second substitution
    # x -> F(x,y) does not also rewrite the y inside F(x,y)
    z = GradedPoly.gen(w, F.bound, "z")
    left = lift.substitute("y", z).substitute("x", inner_xy)
    inner_yz = {}
    for m, c in F.coeffs.items():
        d = dict(m)
        d2 = {}
        for g, e in d.items():
            d2["y" if g == "x" else "z" if g == "y" else g] = e
        inner_yz[tuple(sorted(d2.items()))] = c
    right = lift.substitute("y", GradedPoly(w, F.bound, inner_yz))
    assert left == right


def test_formal_sum_specialization():
    ctx = FGLContext(5)
    assert formal_sum(ctx, 1).coeffs == {mon(("x1", 1)): 1}
    fs2 = formal_sum(ctx, 2)
    # setting x2 = 0 leaves x1
    specialized = {m: c for m, c in fs2.coeffs.items()
                   if not any(g == "x2" for g, _ in m)}
    assert specialized == {mon(("x1", 1)): 1}


def test_formal_inverse():
    ctx = FGLContext(6)
    chi = formal_inverse(ctx)
    assert chi.coefficient(mon(("x", 1))) == -1
    assert chi.coefficient(mon(("b1", 1), ("x", 2))) == 2
    # chi(chi(x)) = x
    x = GradedPoly.gen(chi.weights, chi.bound, "x")
    assert chi.substitute("x", chi) == x
    # F(x, chi(x)) = 0: solve order by order independently
    comp = ser_compose(ctx.log_series, chi_series(ctx), ctx.top)
    neg_log = [bpoly.scale(c, -1) for c in ctx.log_series]
    assert comp == neg_log  # log(chi(x)) = -log x is equivalent to F(x,chi)=0


def test_chi_by_order_solving_oracle():
    """Solve F(x, chi(x)) = 0 order by order from the group law alone."""
    ctx = FGLContext(4)
    F = formal_group(ctx)
    w = F.weights
    chi = GradedPoly(w, 4, {(("x", 1),): -1})
    for d in range(2, 5):
        trial = F.substitute("y", chi).substitute("x", GradedPoly.gen(w, 4, "x"))
        err = {m: c for m, c in trial.coeffs.items()}
        # pick out the x^d error term (coefficients may involve b's)
        correction = {}
        for m, c in err.items():
            dd = dict(m)
            if dd.get("x", 0) == d:
                rest = tuple((g, e) for g, e in m if g != "x")
                correction[rest] = c
        fix = GradedPoly(w, 4, {tuple(sorted(dict(r + (("x", d),)).items())): -c
                                for r, c in correction.items()})
        chi = chi + fix
    assert chi.coefficient((("b1", 1), ("x", 2))) == 2
    assert chi.coeffs == formal_inverse(ctx).coeffs


def test_c1_determinant_classes():
    ctx = FGLContext(6)
    c1 = c1_determinant_class(ctx, 1, dual=False)
    assert c1.coeffs == {mon(("c1", 1)): 1}
    c2 = c1_determinant_class(ctx, 2, dual=False)
    assert c2.coefficient(mon(("c1", 1))) == 1
    assert c2.coefficient(mon(("b1", 1), ("c2", 1))) == 2
    dual = c1_determinant_class(ctx, 2, dual=True)
    assert dual.coefficient(mon(("c1", 1))) == -1
    # product class begins -c1^2
    prod = c2 * dual
    assert prod.coefficient(mon(("c1", 2))) == -1
    assert prod.coefficient(mon(("c1", 1))) == 0


def test_determinant_class_stability():
    ctx = FGLContext(5)
    big = c1_determinant_class(ctx, 3, dual=False)
    # restrict c3 = 0
    restricted = {m: c for m, c in big.coeffs.items()
                  if not any(g == "c3" for g, _ in m)}
    small = c1_determinant_class(ctx, 2, dual=False)
    assert restricted == small.coeffs
    bigd = c1_determinant_class(ctx, 3, dual=True)
    restricted = {m: c for m, c in bigd.coeffs.items()
                  if not any(g == "c3" for g, _ in m)}
    assert restricted == c1_determinant_class(ctx, 2, dual=True).coeffs


def test_integrality_of_all_series():
    ctx = FGLContext(8)
    assert formal_group(ctx).is_integral()
    assert formal_inverse(ctx).is_integral()
    assert formal_sum(ctx, 2).is_integral()
    assert c1_determinant_class(ctx, 2).is_integral()
    assert c1_determinant_class(ctx, 2, dual=True).is_integral()



@pytest.mark.parametrize("bound", [2, 6, 12, 16])
def test_log_recurrence_against_series_inversion(bound):
    """The log read off the exp powers is the compositional inverse of
    exp found degree by degree."""
    ctx = FGLContext(bound)
    assert ctx.log_series == ser_inverse(ctx.exp_series, ctx.top)


def test_context_bound_is_checked():
    for bad in (1, 0, 17):
        with pytest.raises(ValueError, match="between 2 and 16"):
            FGLContext(bad)


def test_input_checks_survive_optimized_mode():
    """The checks are exceptions, not asserts, so `python -O` keeps them."""
    code = (
        "from slcob import mu, partitions\n"
        "from slcob.fgl import FGLContext\n"
        "def raises(f, *a):\n"
        "    try:\n"
        "        f(*a)\n"
        "    except ValueError:\n"
        "        return True\n"
        "    return False\n"
        "ctx = FGLContext(4)\n"
        "print(raises(FGLContext, 17), raises(partitions.encode, (17,)),\n"
        "      raises(mu.degree_catalog, ctx, 0),\n"
        "      raises(mu.s_number, mu.MUClass.unit()),\n"
        "      raises(mu.MUClass.from_dict, 2, {(1,): 1}))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.split() == ["True"] * 5
