import os
import random
import subprocess
import sys
from math import prod

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from oracles import hermite_column_form, kernel_basis_by_rows, same_column_span
from slcob.intmat import (HNFSolver, IntMatrix, ModSolver, kernel_basis,
                          smith_normal_form)


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    if rows == 0:
        return IntMatrix.zero(0, cols)
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def assert_reduced_hermite(h):
    """h is in reduced column echelon form: pivot rows strictly increase,
    pivots are positive, and entries left of a pivot lie in [0, pivot)."""
    pivots = [next(i for i, x in enumerate(h.column(j)) if x)
              for j in range(h.cols)]
    assert pivots == sorted(set(pivots))
    for j, r in enumerate(pivots):
        piv = h.entries[r][j]
        assert piv > 0
        assert all(0 <= h.entries[r][i] < piv for i in range(j))


def sympy_factors(m):
    """Nonzero invariant factors by sympy, an independent oracle."""
    if m.rows == 0 or m.cols == 0:
        return []
    sm = Matrix(m.rows, m.cols, [x for row in m.entries for x in row])
    return [int(x) for x in invariant_factors(sm, domain=ZZ) if x]


def in_span(m, target):
    """target lies in the column span of m iff appending it keeps the rank
    and the product of the nonzero invariant factors."""
    aug = IntMatrix.from_rows([list(row) + [t]
                               for row, t in zip(m.entries, target)])
    d, e = sympy_factors(m), sympy_factors(aug)
    return len(d) == len(e) and prod(d) == prod(e)


def test_snf_zero_matrix():
    assert smith_normal_form(IntMatrix.zero(3, 2)) == []
    assert smith_normal_form(IntMatrix.zero(0, 2)) == []
    assert smith_normal_form(IntMatrix.zero(2, 0)) == []


def test_snf_hand_example():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert smith_normal_form(m) == [1, 6]
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert smith_normal_form(m) == [2, 2, 156]


def test_snf_identity():
    assert smith_normal_form(IntMatrix.identity(4)) == [1, 1, 1, 1]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 10 ** 6))
def test_snf_properties(rows, cols, seed):
    """The invariant factors equal sympy's, are positive and form a
    divisibility chain whose length is the rank."""
    rng = random.Random(seed)
    m = random_matrix(rng, rows, cols, *rng.choice([(-1, 1), (-9, 9)]))
    d = smith_normal_form(m)
    assert d == sympy_factors(m)
    assert all(x > 0 for x in d)
    assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))


def test_kernel_examples():
    assert kernel_basis(IntMatrix.identity(3)).cols == 0
    k = kernel_basis(IntMatrix.zero(1, 3))
    assert k.cols == 3
    k = kernel_basis(IntMatrix.from_rows([[1, 1]]))
    assert k.cols == 1
    col = [k.entries[0][0], k.entries[1][0]]
    assert sorted(col) == [-1, 1]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 10 ** 6))
def test_kernel_properties(rows, cols, seed):
    """The kernel basis is annihilated by M, has the right rank, is
    saturated (its invariant factors are all 1), is in reduced column
    Hermite form and equals the row-by-row Hermite oracle."""
    rng = random.Random(seed)
    m = random_matrix(rng, rows, cols, *rng.choice([(-1, 1), (-9, 9)]))
    k = kernel_basis(m)
    assert k.rows == cols
    for j in range(k.cols):
        assert all(x == 0 for x in m.apply(list(k.column(j))))
    assert k.cols == cols - len(smith_normal_form(m))
    assert smith_normal_form(k) == [1] * k.cols
    assert_reduced_hermite(k)
    assert k == kernel_basis_by_rows(m)


def test_hnf_solver_hand_example():
    solver = HNFSolver(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert solver.solve([4, 9]) == [2, 3]
    assert solver.solve([1, 0]) is None


def random_echelon(rng, rows, cols):
    """A rows x cols matrix in column echelon form, not reduced: leading
    rows strictly increase, pivots are nonzero and may be negative or
    other than 1, and the entries below a pivot are arbitrary."""
    leads = sorted(rng.sample(range(rows), cols))
    columns = []
    for r in leads:
        col = [0] * rows
        col[r] = rng.choice([-7, -3, -2, -1, 1, 2, 3, 5])
        for i in range(r + 1, rows):
            col[i] = rng.randint(-9, 9)
        columns.append(col)
    return IntMatrix.from_columns(rows, columns), leads


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10 ** 6))
def test_hnf_solver_echelon_fast_path(rows, seed):
    """Columns in echelon form are taken as they stand, and every solve
    agrees on solvability with the solver of the reduced Hermite form of
    a column-permuted copy; the copy itself is not in echelon form and is
    refused, and the permuted solution solves it."""
    rng = random.Random(seed)
    cols = rng.randint(2, rows)
    m, leads = random_echelon(rng, rows, cols)
    solver = HNFSolver(m)
    assert solver.pivot_rows == leads
    assert solver.columns == [list(m.column(j)) for j in range(cols)]
    perm = list(range(cols))[::-1]
    permuted = IntMatrix.from_columns(rows, [m.column(j) for j in perm])
    with pytest.raises(AssertionError, match="not in echelon form"):
        HNFSolver(permuted)
    hermite = hermite_column_form(permuted)
    assert_reduced_hermite(hermite)
    reduced = HNFSolver(hermite)
    targets = [m.apply([rng.randint(-5, 5) for _ in range(cols)])
               for _ in range(4)]
    targets += [[rng.randint(-20, 20) for _ in range(rows)] for _ in range(4)]
    for target in targets:
        sol, psol = solver.solve(target), reduced.solve(target)
        assert (sol is None) == (psol is None) == (not in_span(m, target))
        if sol is not None:
            assert m.apply(sol) == target
            assert permuted.apply([sol[j] for j in perm]) == target


def run_optimized(code):
    """The lines `code` prints when run under python -O."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return subprocess.run([sys.executable, "-O", "-c", code], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src)).stdout.split()


RAISES = ("def raises(f, *a):\n"
          "    try:\n"
          "        f(*a)\n"
          "    except AssertionError:\n"
          "        return True\n"
          "    return False\n")


def test_hnf_solver_rejects_columns_not_in_echelon_form():
    """Leading rows that increase but end on a zero column (its lead lies
    below the matrix), that repeat or that fall are not echelon form: the
    solver refuses them with an AssertionError, also under python -O,
    which the CLI reports as an internal failure."""
    for rows in ([[-2, 0, 0], [1, 3, 0], [0, 1, 0]], [[1, 2], [0, 1]],
                 [[0, 1], [1, 0]]):
        with pytest.raises(AssertionError, match="not in echelon form"):
            HNFSolver(IntMatrix.from_rows(rows))
    # a square matrix whose last lead lies inside is taken as it stands
    solver = HNFSolver(IntMatrix.from_rows([[-2, 0], [1, 3]]))
    assert solver.pivot_rows == [0, 1]
    assert solver.solve([4, 1]) == [-2, 1]
    assert solver.solve([1, 0]) is None
    assert run_optimized(
        RAISES + "from slcob.intmat import HNFSolver, IntMatrix\n"
        "print(raises(HNFSolver, IntMatrix.from_rows("
        "[[-2, 0, 0], [1, 3, 0], [0, 1, 0]])))\n") == ["True"]


def test_matrix_invariants_survive_optimized_mode():
    """Shapes that do not fit raise AssertionError, not an assert
    statement, so `python -O` keeps the checks: rows and entries of a
    matrix, a product, a vector applied and a solver's target."""
    m = IntMatrix.from_rows([[1, 0], [0, 1]])
    cases = [(IntMatrix, 3, 2, ((1, 2), (3, 4))),
             (IntMatrix, 2, 2, ((1, 2), (3,))),
             (m.__mul__, IntMatrix.identity(3)), (m.apply, [1, 2, 3]),
             (HNFSolver(m).solve, [1])]
    for f, *args in cases:
        with pytest.raises(AssertionError, match=" "):
            f(*args)
    assert run_optimized(
        RAISES + "from slcob.intmat import HNFSolver, IntMatrix\n"
        "m = IntMatrix.from_rows([[1, 0], [0, 1]])\n"
        "print(raises(IntMatrix, 3, 2, ((1, 2), (3, 4))),\n"
        "      raises(IntMatrix, 2, 2, ((1, 2), (3,))),\n"
        "      raises(m.__mul__, IntMatrix.identity(3)),\n"
        "      raises(m.apply, [1, 2, 3]), raises(HNFSolver(m).solve, [1]))\n"
    ) == ["True"] * 5


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_hnf_solver_matches_span_oracle(rows, cols, seed):
    rng = random.Random(seed)
    cols = min(cols, rows)
    m, _ = random_echelon(rng, rows, cols)
    solver = HNFSolver(m)
    for _ in range(4):
        x = [rng.randint(-5, 5) for _ in range(cols)]
        target = m.apply(x)
        sol = solver.solve(target)
        assert sol is not None
        assert m.apply(sol) == target
    # an arbitrary target is solved exactly when it lies in the span
    for _ in range(4):
        target = [rng.randint(-20, 20) for _ in range(rows)]
        sol = solver.solve(target)
        assert (sol is not None) == in_span(m, target)
        assert sol is None or m.apply(sol) == target


def test_hermite_form_canonical():
    a = IntMatrix.from_rows([[2, 4], [0, 2]])
    b = IntMatrix.from_rows([[4, 2], [2, 0]])  # same column span
    assert same_column_span(a, b)
    c = IntMatrix.from_rows([[2, 4], [0, 4]])
    assert not same_column_span(a, c)
    h = hermite_column_form(IntMatrix.from_rows([[6, 4]]))
    assert h.entries == ((2,),)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 10 ** 6))
def test_hermite_form_properties(rows, cols, seed):
    """H is a reduced column echelon form, has the rank of M as its width
    and does not change under unimodular column operations on M."""
    rng = random.Random(seed)
    m = random_matrix(rng, rows, cols)
    h = hermite_column_form(m)
    assert h.rows == rows and h.cols == len(smith_normal_form(m))
    assert_reduced_hermite(h)
    columns = [list(m.column(j)) for j in range(cols)]
    for _ in range(3 * cols if cols > 1 else 0):
        i, j = rng.sample(range(cols), 2)
        q = rng.randint(-3, 3)
        columns[i] = [a + q * b for a, b in zip(columns[i], columns[j])]
        columns[i], columns[j] = columns[j], [-x for x in columns[i]]
    assert hermite_column_form(IntMatrix.from_columns(rows, columns)) == h


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 4), st.sampled_from([2, 3, 5, 7]),
       st.integers(0, 10 ** 6))
def test_solve_mod_against_brute_force(rows, cols, p, seed):
    """ModSolver finds x with M x = b mod p exactly when some x in
    (Z/p)^cols does, checked by trying them all, for several targets
    against one factorization."""
    from itertools import product
    rng = random.Random(seed)
    m = random_matrix(rng, rows, cols, -30, 30)
    solver = ModSolver(m, p)
    for _ in range(4):
        b = [rng.randint(-30, 30) for _ in range(rows)]
        if rng.random() < 0.5 and cols:  # a target in the span mod p
            b = m.apply([rng.randint(-30, 30) for _ in range(cols)])
        solvable = any(
            all((u - v) % p == 0 for u, v in zip(m.apply(list(x)), b))
            for x in product(range(p), repeat=cols))
        x = solver.solve(b)
        assert (x is not None) == solvable
        if x is not None:
            assert all(0 <= a < p for a in x)
            assert all((u - v) % p == 0 for u, v in zip(m.apply(x), b))
        assert x == ModSolver(m, p).solve(b)  # a fresh factorization agrees


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
       st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_product_skipping_zeros_against_sympy(rows, inner, cols, seed):
    """The product that multiplies only nonzero entries, on matrices that
    are mostly zeros, equals sympy's dense product."""
    rng = random.Random(seed)

    def sparse(r, c):
        if r == 0:
            return IntMatrix.zero(0, c)
        return IntMatrix.from_rows(
            [[rng.choice([0, 0, 0, rng.randint(-9, 9)]) for _ in range(c)]
             for _ in range(r)])

    a, b = sparse(rows, inner), sparse(inner, cols)
    ab = a * b
    assert (ab.rows, ab.cols) == (rows, cols)
    expected = Matrix(rows, inner, [x for r in a.entries for x in r]) * \
        Matrix(inner, cols, [x for r in b.entries for x in r])
    assert [list(r) for r in ab.entries] == expected.tolist()
