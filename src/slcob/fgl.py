"""The universal formal group law in the Hurewicz model Z[b1, b2, ...].

Conventions, pinned by the anchors s_n[CP^n] = n+1 and boundary[CP1] = 2:

  exp(x) = x + b1 x^2 + b2 x^3 + ...          (weight of b_i is i)
  log    = compositional inverse of exp        (integral over Z[b])
  F(x,y) = exp(log x + log y)                  (integral; F(x,0) = x)
  chi(x) = exp(-log x)                         (F(x, chi(x)) = 0)

The class of CP^n is (n+1) times the n-th log coefficient; its b_n
coefficient is -(n+1), i.e. coordinates in Z[b] are monomial-symmetric
characteristic numbers of the stable normal bundle.

The operations need only exp, log and their powers; F and chi are
written out as polynomials only by the test suite.
"""

from functools import cached_property, wraps

from . import bpoly


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

    @cached_property
    def log_powers(self):
        """[log^0, log^1, ..., log^top] truncated at degree top; built on
        first use, as only the Milnor classes and the operations read it."""
        one = bpoly.ser_zero(self.top)
        one[0] = dict(bpoly.ONE)
        return [one] + bpoly.ser_powers(self.log_series, self.top, self.top)
