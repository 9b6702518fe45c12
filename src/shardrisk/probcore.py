"""Log-domain probability primitives and committee-count laws shared by every other module.

Probabilities cross module boundaries as natural logarithms: floats <= 0,
with ``-inf`` standing for probability zero (:data:`LOG_ZERO`).  The failure
probabilities handled downstream range from below 1e-300 to 1 - 1e-16, so
linear-space values are produced only at presentation time.

Rates (probability parameters) are floats in [0, 1].  Exact rationals
(:class:`fractions.Fraction`) are accepted wherever a threshold fraction
enters a floor computation, because floor((1/3) * 3) must evaluate to 1
and not to floor(0.999...) = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

__all__ = [
    "LOG_ZERO",
    "BinomialCounts",
    "CountLaw",
    "HypergeometricCounts",
    "RateLike",
    "binomial_tail_and_cdf",
    "floor_rate_multiple",
    "kl_divergence",
    "log1mexp",
    "log_binomial_coefficient",
    "log_binomial_coefficients",
    "log_factorial",
    "log_sum_exp",
    "rate_as_float",
    "stable_complement_product",
]

#: Log-domain representation of probability zero.
LOG_ZERO = float("-inf")

#: A probability parameter, either a float or an exact rational in [0, 1].
RateLike = Union[float, Fraction]

_LN2 = math.log(2.0)


def rate_as_float(value: RateLike, name: str = "rate") -> float:
    """Validate a rate and return it as a float in [0, 1]."""
    x = float(value)
    if math.isnan(x) or x < 0.0 or x > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return x


def floor_rate_multiple(rate: RateLike, n: int) -> int:
    """floor(rate * n), exact when ``rate`` is a Fraction.

    Float rates go through ordinary floating-point flooring; callers that
    care about boundary cases such as rate = 1/3, n = 3 should pass a
    Fraction.
    """
    if type(rate) is Fraction:
        num, den = rate.as_integer_ratio()  # one call, not two property reads
        return num * n // den
    return math.floor(float(rate) * n)


def log1mexp(x: float) -> float:
    """log(1 - exp(x)) for x <= 0, without catastrophic cancellation."""
    if x > 0.0:
        raise ValueError(f"log1mexp requires x <= 0, got {x!r}")
    if x == 0.0:
        return LOG_ZERO
    if x == LOG_ZERO:
        return 0.0
    if x > -_LN2:
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))


def log_sum_exp(terms: np.ndarray) -> float:
    """Stable log(sum(exp(terms))) with a fixed (ascending-index) sum order.

    Uses ``math.fsum`` after the max shift, so the result is deterministic
    and exact to within one rounding of the shifted sum.
    """
    arr = np.asarray(terms, dtype=np.float64)
    if arr.size == 0:
        return LOG_ZERO
    m = float(arr.max())
    if m == LOG_ZERO:
        return LOG_ZERO
    if math.isnan(m):
        raise ValueError("log_sum_exp received NaN")
    return m + math.log(math.fsum(np.exp(arr - m).tolist()))


def _check_count(value: int, name: str) -> int:
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return int(value)


def log_binomial_coefficient(n: int, k: int) -> float:
    """ln C(n, k) via log-gamma; accurate to ~1e-13 relative for n <= 1e6."""
    n = _check_count(n, "n")
    k = _check_count(k, "k")
    if k > n:
        raise ValueError(f"k must not exceed n, got k={k}, n={n}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


# Cephes' lgam: ln sqrt(2 pi) and the coefficients of P in its Stirling series
_LN_SQRT_2PI = 0.91893853320467274178
_LGAM_P = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)


def _lgam_series(x: np.ndarray) -> np.ndarray:
    """Cephes' ``lgam`` at x >= 13: the Stirling series (x - 1/2) ln x - x +
    ln sqrt(2 pi) + P(1/x^2)/x, with Cephes' five coefficients of P below
    x = 1000, its three-term P from there and no P above x = 1e8."""
    p = 1.0 / (x * x)
    correction = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                  + 0.0833333333333333333333)
    near = x < 1000.0
    if near.any():
        a, q = _LGAM_P, p[near]
        correction[near] = (((a[0] * q + a[1]) * q + a[2]) * q + a[3]) * q + a[4]
    correction /= x
    correction[x > 1.0e8] = 0.0
    return (x - 0.5) * np.log(x) - x + _LN_SQRT_2PI + correction


# ln k! for k < 4096, built once: the log of the factorial below 12, where
# lgam multiplies the factorial out, and the series from there.  A row read
# from it costs a few numpy calls, where the series costs about twenty.
_LOG_FACTORIALS = np.concatenate((
    [math.log(math.factorial(k)) for k in range(12)],
    _lgam_series(np.arange(13.0, 4097.0))))


def log_factorial(k) -> np.ndarray:
    """ln k! elementwise, for an array of non-negative whole numbers.

    The arithmetic of Cephes' ``lgam`` at x = k + 1, read from a table
    below k = 4096.  It equals the C ``lgam(k + 1)`` to the bit wherever
    numpy's vector ``log`` equals libm's; against 40-digit mpmath its
    relative error stayed below 4e-16 at every k tried up to 2^40.
    """
    k = np.asarray(k, dtype=np.float64)
    size = _LOG_FACTORIALS.size
    out = _LOG_FACTORIALS[np.minimum(k, size - 1).astype(np.intp)]
    beyond = k >= size
    if beyond.any():
        out[beyond] = _lgam_series(k[beyond] + 1.0)
    return out


@lru_cache(maxsize=512)
def log_binomial_coefficients(n: int) -> np.ndarray:
    """Read-only vector of ln C(n, j) for j = 0..n: the rows of the exactly-M FFT."""
    n = _check_count(n, "n")
    lf = log_factorial(np.arange(n + 1, dtype=np.float64))
    row = lf[n] - lf - lf[::-1]
    row.setflags(write=False)
    return row


class CountLaw:
    """One committee's adversary count, fixed by what stays constant over a layout, at
    committee size n: its ``support``, the mode and sd that ``centre`` a sum, the vector
    ``log_pmf`` (``log_factorial``), one ``first`` term (``math.lgamma``, cheaper than
    numpy), the ``ratio`` pmf(j + 1) / pmf(j) and the ``magnitude`` that sets rounding."""

    def support(self, n: int) -> tuple[int, int]:
        return 0, n

    def log_sum(self, n: int, lo: int, hi: int) -> float:
        """``log_sum_exp`` of the log pmf over counts lo..hi of the support: from the mode,
        40 sd + 16 counts each way, doubled until each end is 750 below the largest or at
        the range's end.  Terms 745.14 below it add 0.0, so this is the full row's sum."""
        (low, high), (mode, sd) = self.support(n), self.centre(n)
        lo, hi = max(lo, low), min(hi, high)
        centre, width = min(max(int(mode), lo), hi), int(40.0 * sd) + 16
        while lo <= hi:
            a, b = max(lo, centre - width), min(hi, centre + width)
            terms = self.log_pmf(n, np.arange(a, b + 1, dtype=np.float64))
            cut = float(terms.max()) - 750.0
            if (a == lo or terms[0] < cut) and (b == hi or terms[-1] < cut):
                return log_sum_exp(terms)
            width *= 2
        return LOG_ZERO  # the empty range

    def tail(self, n: int, cap: int) -> float:
        """log P(count > cap) of a committee of n, at most log 1."""
        return min(self.log_sum(n, cap + 1, n), 0.0)

    def head(self, n: int, cap: int, goal: float) -> float:
        """Lower bound on ``tail(n, cap)``: the pmf of the first failing count, then
        at most 64 steps of ``ratio``, stopping once past ``goal``; at most log 1."""
        lo, hi = self.support(n)
        j = max(cap + 1, lo)
        if j > hi:
            return LOG_ZERO
        log_first = self.first(n, j)
        if log_first > goal:
            return log_first
        need = math.exp(min(goal - log_first, 700.0))  # finite far below the goal
        s = t = 1.0
        for i in range(j, min(j + 64, hi)):
            t *= self.ratio(n, i)
            s += t
            if s > need or t < 2.0 ** -20 * s:  # past the goal, or little left to add
                break
        return min(log_first + math.log(s), 0.0)


class BinomialCounts(CountLaw):
    """Binomial(n, p): nodes adversarial independently at rate 0 <= p < 1."""

    def __init__(self, p: float):
        self.p, self.odds = p, p / (1.0 - p)
        self.log_p, self.log_q = math.log(p) if p > 0.0 else LOG_ZERO, math.log1p(-p)
        self.log_scale = -math.log(min(p, 1.0 - p)) if p > 0.0 else 0.0

    def centre(self, n: int) -> tuple[float, float]:
        return (n + 1) * self.p, math.sqrt(n * self.p * (1.0 - self.p))

    def log_pmf(self, n: int, j: np.ndarray) -> np.ndarray:
        # ln C(n, j) + j ln p + (n - j) ln(1 - p), one ln k! call for n, j and n - j
        lf = log_factorial(np.concatenate(((n,), j, n - j)))
        return lf[0] - lf[1:j.size + 1] - lf[j.size + 1:] + j * self.log_p + (n - j) * self.log_q

    def first(self, n: int, j: int) -> float:
        return min(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                   + j * self.log_p + (n - j) * self.log_q, 0.0)

    def ratio(self, n: int, j: int) -> float:
        return (n - j) / (j + 1) * self.odds

    def magnitude(self, n: int) -> float:
        return math.lgamma(n + 1) + n * self.log_scale

    def tail(self, n: int, cap: int) -> float:
        # the split's tail: one at least 1/2 is log1mexp of the CDF, summed natively
        return binomial_tail_and_cdf(n, self.p, cap)[1]


class HypergeometricCounts(CountLaw):
    """Exactly M of N nodes adversarial: C(n, j) C(N - n, M - j) / C(N, M), at most 1."""

    def __init__(self, total: int, m: int):
        self.total, self.m = total, m  # ln C(N, M), unchecked: sizing builds one per layout
        self.log_norm = math.lgamma(total + 1) - math.lgamma(m + 1) - math.lgamma(total - m + 1)

    def support(self, n: int) -> tuple[int, int]:
        return max(0, self.m - self.total + n), min(n, self.m)

    def centre(self, n: int) -> tuple[float, float]:
        total, m = self.total, self.m
        return ((n + 1) * (m + 1) / (total + 2),
                math.sqrt(n * m * (total - m) * (total - n) / max(total - 1, 1)) / total)

    def log_pmf(self, n: int, j: np.ndarray) -> np.ndarray:
        m, rest = self.m, self.total - n  # one ln k! call for all six arguments
        lf = log_factorial(np.concatenate(((n, rest), j, n - j, m - j, rest - m + j)))
        lf_j, lf_n_j, lf_m_j, lf_rest_j = lf[2:].reshape(4, j.size)
        return np.minimum(lf[0] - lf_j - lf_n_j + lf[1] - lf_m_j - lf_rest_j
                          - self.log_norm, 0.0)

    def first(self, n: int, j: int) -> float:
        lg, m, rest = math.lgamma, self.m, self.total - n
        return min((lg(n + 1) - lg(j + 1) - lg(n - j + 1))
                   + (lg(rest + 1) - lg(m - j + 1) - lg(rest - m + j + 1))
                   - self.log_norm, 0.0)

    def ratio(self, n: int, j: int) -> float:
        return (n - j) * (self.m - j) / ((j + 1) * (self.total - n - self.m + j + 1))

    def magnitude(self, n: int) -> float:
        return math.lgamma(self.total + 1)


@lru_cache(maxsize=65536, typed=True)
def binomial_tail_and_cdf(n: int, p: RateLike, k: int) -> tuple[float, float]:
    """Log CDF and log upper tail of Binomial(n, p) split at k, memoised.

    Returns ``(log P(X <= k), log P(X >= k + 1))``.  The tail, or the CDF where the
    tail is at least 1/2, is ``BinomialCounts.log_sum`` in O(sqrt(n p (1 - p)))
    work; the other side is log1mexp of it.  So each log keeps full relative
    accuracy, and the two probabilities are complementary."""
    n = _check_count(n, "n")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    k = _check_count(k, "k")
    if k > n:
        raise ValueError(f"k must not exceed n, got k={k}, n={n}")
    p = rate_as_float(p, "p")
    if p == 0.0:
        return 0.0, LOG_ZERO
    if p == 1.0:
        return (0.0, LOG_ZERO) if k == n else (LOG_ZERO, 0.0)
    law = BinomialCounts(p)
    log_tail = law.log_sum(n, k + 1, n)
    if log_tail < -_LN2:
        return log1mexp(log_tail), log_tail
    log_cdf = law.log_sum(n, 0, k)
    return log_cdf, log1mexp(log_cdf)


def kl_divergence(q: RateLike, p: RateLike) -> float:
    """Kullback-Leibler divergence D(q || p) between Bernoulli rates.

    Conventions: 0 log 0 = 0, so q in {0, 1} is fine; p in {0, 1} gives
    +inf unless q equals p exactly.
    """
    q = rate_as_float(q, "q")
    p = rate_as_float(p, "p")
    if p <= 0.0 or p >= 1.0:
        return 0.0 if q == p else float("inf")
    d = 0.0
    if q > 0.0:
        d += q * math.log(q / p)
    if q < 1.0:
        d += (1.0 - q) * math.log((1.0 - q) / (1.0 - p))
    # rounding can leave a tiny negative residue when q ~ p
    return d if d > 0.0 else 0.0


def stable_complement_product(log_terms: Sequence[tuple[float, int]]) -> float:
    """log(1 - prod(1 - p_i)^m_i) from (log p_i, m_i) pairs.

    Accepts a sequence of (log-probability, multiplicity) pairs, each
    log-probability <= 0 or -inf and each multiplicity a positive integer.
    Evaluated through log1p-grade primitives, so it remains accurate when
    every p_i is below 1e-12 and when the product is within 1e-15 of 1; where
    the survival log is 0 or subnormal, it is log sum_i m_i p_i instead.
    The empty product is 1, so an empty input yields LOG_ZERO.
    """
    log_survival = 0.0
    for term, mult in log_terms:
        t = float(term)
        if t > 0.0:
            if t < 1e-12:
                t = 0.0  # tolerate rounding residue from upstream clamps
            else:
                raise ValueError(f"log-probability must be <= 0, got {t!r}")
        log_survival += mult * log1mexp(t)
    if log_survival <= -2.0 ** -1022:  # a normal float
        return log1mexp(log_survival)
    return log_sum_exp([math.log(mult) + term for term, mult in log_terms])
