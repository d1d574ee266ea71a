"""The universal formal group law in the Hurewicz model Z[b1, b2, ...].

Conventions, pinned by the anchors s_n[CP^n] = n+1 and boundary[CP1] = 2:

  exp(x) = x + b1 x^2 + b2 x^3 + ...          (weight of b_i is i)
  log    = compositional inverse of exp        (integral over Z[b])
  F(x,y) = exp(log x + log y)                  (integral; F(x,0) = x)
  chi(x) = exp(-log x)                         (F(x, chi(x)) = 0)

The class of CP^n is (n+1) times the n-th log coefficient; its b_n
coefficient is -(n+1), i.e. coordinates in Z[b] are monomial-symmetric
characteristic numbers of the stable normal bundle.

The operations need only exp, its powers, log and the determinant classes
below; F and chi are written out as polynomials only by the test suite.
"""

from functools import wraps

from . import bpoly
from .symfun import p_vec_to_m_vec


def _memoized(method):
    """Cache method(owner, *args) in the dict `owner._memo`, so that the
    results are freed with the owner (a method-level lru_cache would keep
    every owner alive for the life of the process).  `owner` is the first
    argument: self for a method, the context for a function of one."""
    key = method.__qualname__

    @wraps(method)
    def cached(owner, *args):
        memo = owner._memo.setdefault(key, {})
        if args not in memo:
            memo[args] = method(owner, *args)
        return memo[args]
    return cached


class FGLContext:
    """Truncated universal formal group law with cached series.

    Series are lists indexed by the exponent of the series variable with
    coefficients in Z[b]; everything is truncated at weight `bound`.  What
    is derived from the context later (determinant classes, operations,
    coaction tables) is cached in `_memo` and dies with the context.
    """

    def __init__(self, bound=12):
        assert bound >= 2
        self.bound = bound
        top = bound + 1
        self.top = top
        exp = bpoly.ser_zero(top)
        exp[1] = dict(bpoly.ONE)
        for i in range(1, top):
            exp[i + 1] = bpoly.gen(i)
        self.exp_series = exp
        self.log_series = bpoly.ser_inverse(exp, top)
        # exp powers B^k for k = 1..top+1 (used by the coaction)
        self.exp_powers = bpoly.ser_powers(exp, top, top + 1)
        self._memo = {}

    def log_coefficient(self, n):
        """m_n, the coefficient of x^{n+1} in the log series."""
        return self.log_series[n + 1] if n + 1 <= self.top else {}

    # -- abstract characteristic classes (power-sum coordinates) ----------

    @_memoized
    def det_class_p(self, sign):
        """exp(sign * L) with L = sum_j mu_j p_j, as {p-partition: bpoly};
        mu_j = j-th log coefficient, p_j the power sums of the Chern roots.
        sign=-1 is the class of c1(det gamma-dual)."""
        L = {}
        for j in range(1, self.bound + 1):
            c = self.log_series[j]
            if c:
                L[(j,)] = bpoly.scale(c, sign)
        out = {}
        power = {(): dict(bpoly.ONE)}
        for k in range(1, self.top + 1):
            power = _pp_mul(power, L, self.bound)
            if not power:
                break
            coeff = self.exp_series[k] if k < len(self.exp_series) else {}
            if coeff:
                for mon, val in power.items():
                    bpoly.mul_into(out.setdefault(mon, {}), val, coeff)
        return {k2: v for k2, v in out.items() if v}

    @_memoized
    def boundary_class_m(self):
        """m-basis coefficients of the boundary operation's class, by
        weight: {w: {partition: bpoly}}."""
        return _p_class_to_m(self.det_class_p(-1))

    @_memoized
    def delta_class_m(self):
        """m-basis coefficients of c1(det) * c1(det dual)."""
        prod = _pp_mul(self.det_class_p(+1), self.det_class_p(-1), self.bound)
        return _p_class_to_m(prod)


def _pp_mul(a, b, bound):
    """Multiply polynomials in power-sum variables with bpoly coefficients:
    {p-partition: bpoly}."""
    out = {}
    for k1, v1 in a.items():
        w1 = sum(k1)
        for k2, v2 in b.items():
            if w1 + sum(k2) > bound:
                continue
            k = tuple(sorted(k1 + k2, reverse=True))
            bpoly.mul_into(out.setdefault(k, {}), v1, v2)
    return {k: v for k, v in out.items() if v}


def _p_class_to_m(cls_p):
    """Group a p-coordinate class by weight and convert to m-coordinates."""
    by_weight = {}
    for lam, coeff in cls_p.items():
        by_weight.setdefault(sum(lam), {})[lam] = coeff
    combine = (bpoly.add, bpoly.scale, {})
    out = {}
    for w, vec in by_weight.items():
        out[w] = p_vec_to_m_vec(vec, combine)
    return out
