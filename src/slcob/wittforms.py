"""Brute-force quadratic form calculus over small finite fields.

Independent oracle for the Witt tables: diagonal forms over GF(q) are
reduced honestly (find an isotropic vector by enumeration, split off a
hyperbolic plane through it, re-diagonalize the orthogonal complement)
until anisotropic.  No classification theory is assumed; the group and
ring structure of the Witt classes is computed from the reductions alone.

Supports prime q and q = 9 (the one prime-square case the catalog needs);
any other q is a ValueError.  Internal invariants are checked with
explicit AssertionErrors, so `python -O` keeps them.
"""

from itertools import product

from .abelian import _is_prime


class GF:
    """GF(q) for prime q, or GF(9) = GF(3)[i] with i^2 = -1."""

    def __init__(self, q):
        self.q = q
        if q == 9:
            self.p = 3
            self.elements = [(a, b) for a in range(3) for b in range(3)]
            self.zero, self.one = (0, 0), (1, 0)
        elif _is_prime(q):
            self.p = q
            self.elements = list(range(q))
            self.zero, self.one = 0, 1
        else:
            raise ValueError("GF(q) needs a prime q or q = 9, not %r" % (q,))

    def add(self, x, y):
        if self.q == 9:
            return ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3)
        return (x + y) % self.q

    def neg(self, x):
        if self.q == 9:
            return ((-x[0]) % 3, (-x[1]) % 3)
        return (-x) % self.q

    def mul(self, x, y):
        if self.q == 9:
            # (a + b i)(c + d i) with i^2 = -1
            a, b = x
            c, d = y
            return ((a * c - b * d) % 3, (a * d + b * c) % 3)
        return (x * y) % self.q

    def inv(self, x):
        if x == self.zero:
            raise AssertionError("0 has no inverse")
        for y in self.elements:
            if self.mul(x, y) == self.one:
                return y
        raise ArithmeticError

    def units(self):
        return [x for x in self.elements if x != self.zero]

    def is_square(self, x):
        return any(self.mul(y, y) == x for y in self.elements)


class FormCalculus:
    def __init__(self, q):
        self.F = GF(q)
        self._kernel_cache = {}
        self._canon_cache = {}
        self._gl_cache = {}

    # -- linear algebra over GF(q) ----------------------------------------

    def bilinear(self, gram, v, w):
        F = self.F
        total = F.zero
        n = len(gram)
        for i in range(n):
            for j in range(n):
                total = F.add(total, F.mul(F.mul(gram[i][j], v[i]), w[j]))
        return total

    def gram_of_diagonal(self, diag):
        n = len(diag)
        return [[diag[i] if i == j else self.F.zero for j in range(n)]
                for i in range(n)]

    def _first_vector(self, n, holds):
        """The first nonzero vector of F^n in enumeration order for which
        holds(vector) is true, as a list; None if there is none."""
        F = self.F
        return next((list(v) for v in product(F.elements, repeat=n)
                     if any(x != F.zero for x in v) and holds(list(v))), None)

    def restrict(self, gram, basis):
        return [[self.bilinear(gram, v, w) for w in basis] for v in basis]

    def orthogonal_complement(self, gram, vectors):
        """Basis of the subspace orthogonal (w.r.t. the polar form) to the
        given vectors."""
        F = self.F
        n = len(gram)
        rows = [[self.bilinear(gram, v, [F.one if k == j else F.zero
                                         for k in range(n)])
                 for j in range(n)] for v in vectors]
        # kernel of the small matrix over GF(q) by elimination
        pivots = {}
        r = 0
        for c in range(n):
            sel = next((i for i in range(r, len(rows)) if rows[i][c] != F.zero),
                       None)
            if sel is None:
                continue
            rows[r], rows[sel] = rows[sel], rows[r]
            inv = F.inv(rows[r][c])
            rows[r] = [F.mul(inv, x) for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c] != F.zero:
                    f = rows[i][c]
                    rows[i] = [F.add(x, F.neg(F.mul(f, y)))
                               for x, y in zip(rows[i], rows[r])]
            pivots[c] = r
            r += 1
        kernel = []
        for c in range(n):
            if c in pivots:
                continue
            vec = [F.zero] * n
            vec[c] = F.one
            for c2, r2 in pivots.items():
                vec[c2] = F.neg(rows[r2][c])
            kernel.append(vec)
        return kernel

    def diagonalize(self, gram):
        """Diagonal entries of a nondegenerate symmetric form (odd q):
        repeatedly pick a vector of nonzero value, split off its line."""
        F = self.F
        n = len(gram)
        if n == 0:
            return []
        vec = self._first_vector(
            n, lambda v: self.bilinear(gram, v, v) != F.zero)
        if vec is None:
            raise AssertionError("degenerate form: it represents no unit")
        value = self.bilinear(gram, vec, vec)
        comp = self.orthogonal_complement(gram, [vec])
        rest = self.restrict(gram, comp)
        return [value] + self.diagonalize(rest)

    # -- Witt reduction ----------------------------------------------------

    def anisotropic_kernel(self, diag):
        """Isometry-canonical diagonal of the anisotropic kernel of a
        diagonal form."""
        key = self._square_class_key(diag)
        if key in self._kernel_cache:
            return self._kernel_cache[key]
        F = self.F
        diag = list(diag)
        while diag:
            gram = self.gram_of_diagonal(diag)
            v = self._first_vector(
                len(diag), lambda x: self.bilinear(gram, x, x) == F.zero)
            if v is None:
                break
            # hyperbolic pair through v: any w with b(v, w) != 0
            w = self._first_vector(
                len(diag), lambda x: self.bilinear(gram, v, x) != F.zero)
            if w is None:
                raise AssertionError("degenerate form")
            comp = self.orthogonal_complement(gram, [v, w])
            diag = self.diagonalize(self.restrict(gram, comp))
        result = self.isometry_canonical(tuple(diag))
        self._kernel_cache[key] = result
        return result

    def _square_class_key(self, diag):
        """Invariant under permutation and square scaling of the entries
        (both are isometries); used only as a cache key."""
        out = []
        for a in diag:
            out.append(min(self.F.mul(a, self.F.mul(y, y))
                           for y in self.F.units()))
        return tuple(sorted(out, key=repr))

    def _gl(self, n):
        """All invertible n x n matrices over the field (n <= 2)."""
        if n not in self._gl_cache:
            F = self.F
            mats = []
            for entries in product(F.elements, repeat=n * n):
                m = [list(entries[i * n:(i + 1) * n]) for i in range(n)]
                if n == 1:
                    det = m[0][0]
                else:
                    det = F.add(F.mul(m[0][0], m[1][1]),
                                F.neg(F.mul(m[0][1], m[1][0])))
                if det != F.zero:
                    mats.append(m)
            self._gl_cache[n] = mats
        return self._gl_cache[n]

    def isometry_canonical(self, diag):
        """The least diagonal form isometric to the given (anisotropic)
        one, by enumerating all changes of basis.  Anisotropic kernels
        over a finite field have rank <= 2, and a larger rank raises
        AssertionError."""
        key = self._square_class_key(diag)
        if key in self._canon_cache:
            return self._canon_cache[key]
        n = len(diag)
        if n > 2:
            raise AssertionError("anisotropic kernel of rank %d > 2" % n)
        if n == 0:
            result = ()
        else:
            F = self.F
            gram = self.gram_of_diagonal(diag)
            best = None
            for g in self._gl(n):
                gt_g = self.restrict(gram, list(zip(*g)))  # G^T A G
                if any(gt_g[i][j] != F.zero
                       for i in range(n) for j in range(n) if i != j):
                    continue
                cand = tuple(sorted((gt_g[i][i] for i in range(n)), key=repr))
                if best is None or repr(cand) < repr(best):
                    best = cand
            result = best
        self._canon_cache[key] = result
        return result

    # -- Witt group and ring ------------------------------------------------

    def witt_elements(self):
        """All Witt classes as canonical anisotropic diagonals,
        found by reducing all diagonal forms of rank <= 2 (the kernel of
        any form shows up there; larger ranks are checked isotropic in
        tests)."""
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
        d = F.one
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
