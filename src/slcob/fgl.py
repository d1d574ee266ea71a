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
The operations and the catalog need only exp, log and the powers of exp:
the operation with class L^k sends b_p to b_(p-k) (`operations`), and the
catalog builds log^a log' from log by one recurrence (`mu`).  F and chi
are written out as polynomials only by the test suite.
"""

from functools import wraps

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
    is derived from the context later (operations, coaction and the
    catalog's log-derivative table) is cached in `_memo` and dies with the
    context.
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
        # exp powers B^k for k = 1..top (the log and the coaction read them)
        self.exp_powers = bpoly.ser_powers(exp, top, top)
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
