"""The universal formal group law in the Hurewicz model Z[b1, b2, ...].

Conventions, pinned by the anchors s_n[CP^n] = n+1 and boundary[CP1] = 2:

  exp(x) = x + b1 x^2 + b2 x^3 + ...          (weight of b_i is i)
  log    = compositional inverse of exp        (integral over Z[b])
  F(x,y) = exp(log x + log y)                  (integral; F(x,0) = x)
  chi(x) = exp(-log x)                         (F(x, chi(x)) = 0)

The class of CP^n is (n+1) times the n-th log coefficient; its b_n
coefficient is -(n+1), i.e. coordinates in Z[b] are monomial-symmetric
characteristic numbers of the stable normal bundle.

The log x + m_1 x^2 + m_2 x^3 + ... is read off the powers of exp: the
x^d coefficient of log(exp(x)) = sum_k m_k exp(x)^(k+1) = x vanishes for
d >= 2, and [x^d] exp^d = 1, so m_(d-1) = -sum_(k<d-1) m_k [x^d] exp^(k+1).
The operations need only exp, log and their powers; F and chi are
written out as polynomials only by the test suite.
"""

from functools import cached_property, wraps

from . import bpoly
from .partitions import MAX_TRUNCATION


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
    is derived from the context later (operations, coaction and log-power
    tables) is cached in `_memo` and dies with the context.
    """

    def __init__(self, bound=12):
        if not 2 <= bound <= MAX_TRUNCATION:
            raise ValueError("the truncation must be between 2 and %d, not %r"
                             % (MAX_TRUNCATION, bound))
        self.bound = bound
        top = bound + 1
        self.top = top
        exp = bpoly.ser_zero(top)
        exp[1] = dict(bpoly.ONE)
        for i in range(1, top):
            exp[i + 1] = bpoly.gen(i)
        self.exp_series = exp
        # exp powers B^k for k = 1..top+1 (the log and the coaction read them)
        self.exp_powers = bpoly.ser_powers(exp, top, top + 1)
        log = [{}, dict(bpoly.ONE)]
        for d in range(2, top + 1):
            m = {}
            for k in range(1, d):  # log[k] = m_(k-1), exp_powers[k-1] = exp^k
                bpoly.mul_into(m, log[k], self.exp_powers[k - 1][d])
            log.append(bpoly.scale(m, -1))
        self.log_series = log
        self._memo = {}

    def log_coefficient(self, n):
        """m_n, the coefficient of x^{n+1} in the log series."""
        return self.log_series[n + 1] if n + 1 <= self.top else {}

    @cached_property
    def log_powers(self):
        """[log^0, log^1, ..., log^(top+2)] up to u^(top+2), built on first
        use, as only the catalog and the operations read it.  The u^d
        coefficient of log^k has weight d - k; it is kept up to weight
        `bound`, the truncation of every series here, and left 0 above.
        The two u-degrees past `top` serve the complete intersections of
        two divisors in P^(bound+2) (`mu`)."""
        deg, log = self.top + 2, self.log_series
        power = bpoly.ser_zero(deg)
        power[0] = dict(bpoly.ONE)
        powers = [power]
        for k in range(1, deg + 1):
            prev, power = power, bpoly.ser_zero(deg)
            for i, p in enumerate(prev):
                if p:  # i >= k - 1, so j <= bound + 1 = top
                    for j in range(1, min(deg - i, self.bound + k - i) + 1):
                        bpoly.mul_into(power[i + j], p, log[j])
            powers.append(power)
        return powers
