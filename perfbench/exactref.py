"""Exact reference arithmetic for the benchmark's correctness checks.

Every probability here is a ratio of Python integers built from
``math.comb``: binomial tails under the independent-rate model, marginal
hypergeometric tails, and the exactly-M survival coefficient
[z^M] prod_mu sum_{j <= cap_mu} C(n_mu, j) z^j.  Only the final powers of
per-committee survival under the independent-rate model (K up to 1000)
are taken in 256-bit mpmath, where the exact integer power would have
millions of bits; at that precision no comparison against a double can
flip.  Nothing here imports shardrisk, so the references cannot share its
failure modes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

mpmath.mp.prec = 256

THRESHOLD = Fraction(1, 3)


def cap_of(size: int) -> int:
    """Largest non-failing adversary count floor(A * size)."""
    return (THRESHOLD.numerator * size) // THRESHOLD.denominator


def split(total: int, committees: int) -> list[tuple[int, int]]:
    """(size, multiplicity) groups of the canonical n/(n+1) split."""
    base, rem = divmod(total, committees)
    groups = [(base, committees - rem)]
    if rem:
        groups.append((base + 1, rem))
    return groups


def count_from_rate(total: int, rate: Fraction) -> int:
    """Adversary count round(total * rate), half to even, as the CLI does."""
    return min(max(round(rate * total), 0), total)


# ---------------------------------------------------------------------------
# independent-rate model


@lru_cache(maxsize=None)
def binomial_tail(size: int, rate: Fraction) -> Fraction:
    """P(Binomial(size, rate) > cap_of(size)), exactly."""
    p, q = rate.numerator, rate.denominator - rate.numerator
    j = cap_of(size) + 1
    if j > size:
        return Fraction(0)
    # term_j = C(size, j) p^j q^(size-j), stepped by exact integer ratios
    term = math.comb(size, j) * p ** j * q ** (size - j)
    num = 0
    while True:
        num += term
        if j == size:
            break
        term = term * (size - j) * p // ((j + 1) * q)
        j += 1
    return Fraction(num, rate.denominator ** size)


def average_log_survival(groups, rate: Fraction) -> mpmath.mpf:
    """log P(no committee fails) under the independent-rate model."""
    acc = mpmath.mpf(0)
    for size, mult in groups:
        tail = binomial_tail(size, rate)
        if tail:
            acc += mult * mpmath.log1p(-mpmath.mpf(tail.numerator) / tail.denominator)
    return acc


def average_delta(groups, rate: Fraction) -> mpmath.mpf:
    return -mpmath.expm1(average_log_survival(groups, rate))


# ---------------------------------------------------------------------------
# exactly-M model


def marginal_tail(size: int, total: int, m: int) -> Fraction:
    """P(one committee of ``size`` holds more than cap_of(size)), exactly."""
    rest = total - size
    j = max(cap_of(size) + 1, m - rest)
    hi = min(size, m)
    if j > hi:
        return Fraction(0)
    # term_j = C(size, j) C(rest, m - j), stepped by exact ratios
    term = math.comb(size, j) * math.comb(rest, m - j)
    num = 0
    while True:
        num += term
        if j == hi:
            break
        term = term * (size - j) * (m - j) // ((j + 1) * (rest - m + j + 1))
        j += 1
    return Fraction(num, math.comb(total, m))


def _power_coefficients(size: int, mult: int, upto: int) -> list[int]:
    """Coefficients 0..upto of (sum_{j <= cap} C(size, j) z^j) ** mult.

    J. C. P. Miller's recurrence for powers of a polynomial with f_0 = 1:
    m g_m = sum_j ((mult + 1) j - m) f_j g_{m-j}; every division is exact.
    """
    cap = min(cap_of(size), size)
    f = [math.comb(size, j) for j in range(cap + 1)]
    g = [1] + [0] * upto
    for m in range(1, upto + 1):
        acc = 0
        for j in range(1, min(m, cap) + 1):
            acc += ((mult + 1) * j - m) * f[j] * g[m - j]
        g[m] = acc // m
    return g


def hyper_survival_count(groups, m: int) -> int:
    """Number of adversary placements in which no committee fails."""
    powers = [_power_coefficients(size, mult, m) for size, mult in groups]
    if len(powers) == 1:
        return powers[0][m]
    first, second = powers  # a canonical split has at most two sizes
    return sum(first[i] * second[m - i] for i in range(m + 1))


def hyper_work(groups, m: int) -> int:
    """Rough count of big-integer products hyper_survival_count needs."""
    return sum(m * min(cap_of(size), size) for size, _ in groups)


def hyper_delta(groups, m: int) -> Fraction:
    total = sum(size * mult for size, mult in groups)
    ways = math.comb(total, m)
    return Fraction(ways - hyper_survival_count(groups, m), ways)


def hyper_sandwich(groups, m: int) -> tuple[Fraction, Fraction]:
    """(max_mu T_mu, sum_mu T_mu): the union sandwich around delta."""
    total = sum(size * mult for size, mult in groups)
    tails = [(marginal_tail(size, total, m), mult) for size, mult in groups]
    return max(t for t, _ in tails), sum(t * mult for t, mult in tails)


# ---------------------------------------------------------------------------
# conversions


def to_log(value) -> float:
    """Natural log as a double; -inf for zero."""
    if value == 0:
        return float("-inf")
    if isinstance(value, Fraction):
        return float(mpmath.log(mpmath.mpf(value.numerator)) -
                     mpmath.log(mpmath.mpf(value.denominator)))
    return float(mpmath.log(value))
