"""Brute-force quadratic form calculus over small finite fields.

Independent oracle for the Witt tables: diagonal forms over GF(q) are
reduced honestly (find an isotropic vector by enumeration, split off a
hyperbolic plane through it, re-diagonalize the orthogonal complement)
until anisotropic.  No classification theory is assumed; the group and
ring structure of the Witt classes is computed from the reductions alone.

GF(q) is its sum and product tables on the ints 0..q-1, built once.  The
diagonals of a form are read off its orthogonal bases, each a vector of
nonzero value followed by an orthogonal basis of that vector's complement:
the first one diagonalizes, and the least sorted one is the canonical form
of an anisotropic kernel.  One cache, keyed by square classes, holds the
kernels.

Supports prime q and q = 9 (the one prime-square case the catalog needs);
any other q is a ValueError.  Internal invariants are checked with
explicit AssertionErrors, so `python -O` keeps them.
"""

from itertools import product

from .abelian import _is_prime


class GF:
    """GF(q) for prime q, or GF(9) = GF(3)[i] with i^2 = -1.  Elements are
    the ints 0..q-1; in GF(9), a + b i is the int a + 3b."""

    def __init__(self, q):
        if q != 9 and not _is_prime(q):
            raise ValueError("GF(q) needs a prime q or q = 9, not %r" % (q,))
        self.q = q
        p = 3 if q == 9 else q
        pairs = [(x % p, x // p) for x in range(q)]  # b = 0 for prime q

        def code(a, b):
            return a % p + p * (b % p)

        self.sums = [[code(a + c, b + d) for c, d in pairs] for a, b in pairs]
        self.products = [[code(a * c - b * d, a * d + b * c) for c, d in pairs]
                         for a, b in pairs]

    def add(self, x, y):
        return self.sums[x][y]

    def neg(self, x):
        return self.sums[x].index(0)

    def mul(self, x, y):
        return self.products[x][y]

    def inv(self, x):
        if x == 0:
            raise AssertionError("0 has no inverse")
        return self.products[x].index(1)

    def units(self):
        return list(range(1, self.q))

    def is_square(self, x):
        return any(self.mul(y, y) == x for y in range(self.q))


class FormCalculus:
    def __init__(self, q):
        self.F = GF(q)
        self._kernels = {}

    # -- linear algebra over GF(q) ----------------------------------------

    def bilinear(self, gram, v, w):
        F = self.F
        total = 0
        for i, row in enumerate(gram):
            for j, entry in enumerate(row):
                total = F.add(total, F.mul(F.mul(entry, v[i]), w[j]))
        return total

    def gram_of_diagonal(self, diag):
        n = len(diag)
        return [[diag[i] if i == j else 0 for j in range(n)]
                for i in range(n)]

    def _vectors(self, n, holds):
        """The nonzero vectors of F^n in enumeration order for which
        holds(vector) is true, as lists."""
        vectors = (list(v) for v in product(range(self.F.q), repeat=n)
                   if any(v))
        return (v for v in vectors if holds(v))

    def restrict(self, gram, basis):
        return [[self.bilinear(gram, v, w) for w in basis] for v in basis]

    def orthogonal_complement(self, gram, vectors):
        """Basis of the subspace orthogonal (w.r.t. the polar form) to the
        given vectors."""
        F = self.F
        n = len(gram)
        basis = self.gram_of_diagonal([1] * n)  # the unit vectors e_j
        rows = [[self.bilinear(gram, v, e) for e in basis] for v in vectors]
        # kernel of the small matrix over GF(q) by Gauss-Jordan elimination;
        # row r ends with its pivot in column pivots[r]
        pivots = []
        for c in range(n):
            r = len(pivots)
            sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if sel is None:
                continue
            rows[r], rows[sel] = rows[sel], rows[r]
            inv = F.inv(rows[r][c])
            rows[r] = [F.mul(inv, x) for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [F.add(x, F.neg(F.mul(f, y)))
                               for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
        kernel = []
        for c in range(n):
            if c in pivots:
                continue
            vec = basis[c]  # e_c; basis is not read again
            for r, c2 in enumerate(pivots):
                vec[c2] = F.neg(rows[r][c])
            kernel.append(vec)
        return kernel

    def _diagonals(self, gram):
        """The diagonal of the form in each of its orthogonal bases: a
        vector of nonzero value, then an orthogonal basis of its orthogonal
        complement.  A degenerate form has none."""
        if not gram:
            yield []
            return
        for vec in self._vectors(
                len(gram), lambda v: self.bilinear(gram, v, v) != 0):
            value = self.bilinear(gram, vec, vec)
            comp = self.orthogonal_complement(gram, [vec])
            for rest in self._diagonals(self.restrict(gram, comp)):
                yield [value] + rest

    def diagonalize(self, gram):
        """Diagonal entries of a nondegenerate symmetric form (odd q):
        repeatedly pick a vector of nonzero value, split off its line."""
        diag = next(self._diagonals(gram), None)
        if diag is None:
            raise AssertionError("degenerate form: it represents no unit")
        return diag

    # -- Witt reduction ----------------------------------------------------

    def anisotropic_kernel(self, diag):
        """Isometry-canonical diagonal of the anisotropic kernel of a
        diagonal form."""
        key = self._square_class_key(diag)
        if key in self._kernels:
            return self._kernels[key]
        diag = list(diag)
        while diag:
            gram = self.gram_of_diagonal(diag)
            v = next(self._vectors(
                len(diag), lambda x: self.bilinear(gram, x, x) == 0), None)
            if v is None:
                break
            # hyperbolic pair through v: any w with b(v, w) != 0
            w = next(self._vectors(
                len(diag), lambda x: self.bilinear(gram, v, x) != 0), None)
            if w is None:
                raise AssertionError("degenerate form")
            comp = self.orthogonal_complement(gram, [v, w])
            diag = self.diagonalize(self.restrict(gram, comp))
        result = self.isometry_canonical(tuple(diag))
        self._kernels[key] = result
        return result

    def _square_class_key(self, diag):
        """Invariant under permutation and square scaling of the entries
        (both are isometries); used only as a cache key."""
        F = self.F
        squares = [F.mul(y, y) for y in F.units()]
        return tuple(sorted(min(F.mul(a, s) for s in squares) for a in diag))

    def isometry_canonical(self, diag):
        """The least sorted diagonal of the given (anisotropic) diagonal
        form over all its orthogonal bases.  These bases are the columns of
        the changes of basis G with G^T A G diagonal, so this is also the
        least diagonal over GL_n.  Anisotropic kernels over a finite field
        have rank <= 2, and a larger rank raises AssertionError."""
        n = len(diag)
        if n > 2:
            raise AssertionError("anisotropic kernel of rank %d > 2" % n)
        return min(tuple(sorted(d))
                   for d in self._diagonals(self.gram_of_diagonal(diag)))

    # -- Witt group and ring ------------------------------------------------

    def witt_elements(self):
        """All Witt classes as canonical anisotropic diagonals, found by
        reducing the zero form and all diagonal forms of rank 1 to 3 (the
        kernel of any form shows up there; larger ranks are checked
        isotropic in tests)."""
        seen = {self.anisotropic_kernel(())}
        units = self.F.units()
        for r in (1, 2, 3):
            for diag in product(units, repeat=r):
                seen.add(self.anisotropic_kernel(diag))
        return sorted(seen)

    def witt_add(self, a, b):
        return self.anisotropic_kernel(tuple(a) + tuple(b))

    def witt_mul(self, a, b):
        prod = tuple(self.F.mul(x, y) for x in a for y in b)
        return self.anisotropic_kernel(prod)

    def group_structure(self):
        """Invariant factors of the Witt group, computed from element
        orders of the honest addition table."""
        elems = self.witt_elements()
        zero = self.anisotropic_kernel(())
        orders = {}
        for e in elems:
            k = 1
            acc = e
            while acc != zero:
                acc = self.witt_add(acc, e)
                k += 1
                if k > len(elems) + 1:
                    raise AssertionError("element order above %d" % len(elems))
            orders[e] = k
        n = len(elems)
        max_order = max(orders.values())
        # abelian group of order 4: Z/4 iff an element has order 4
        if n == 4:
            return (4,) if max_order == 4 else (2, 2)
        if n == 2:
            return (2,)
        if n == 1:
            return ()
        raise AssertionError("unexpected Witt group order %d" % n)

    def fundamental_ideal(self):
        """Witt classes of even-rank forms (= even-rank anisotropics
        together with 0)."""
        return [e for e in self.witt_elements() if len(e) % 2 == 0]

    def ideal_square_elements(self):
        """All products of two fundamental-ideal elements."""
        ideal = self.fundamental_ideal()
        out = set()
        for a in ideal:
            for b in ideal:
                out.add(self.witt_mul(a, b))
        return sorted(out)

    def discriminant_class(self, diag):
        F = self.F
        d = 1
        for a in diag:
            d = F.mul(d, a)
        return "square" if F.is_square(d) else "nonsquare"

    def rank_disc_classifies(self, max_rank=4):
        """Whether (rank, discriminant) separates isometry classes of
        nondegenerate diagonal forms up to the given rank.  Isometry is
        decided by rank plus anisotropic kernel (Witt decomposition)."""
        units = self.F.units()
        for r in range(1, max_rank + 1):
            buckets = {}
            for diag in product(units, repeat=r):
                key = self.discriminant_class(diag)
                val = self.anisotropic_kernel(diag)
                buckets.setdefault(key, set()).add(val)
            for vals in buckets.values():
                if len(vals) > 1:
                    return False
        return True
