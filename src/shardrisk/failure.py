"""Failure probabilities of random committee partitions, exact and bounded.

A partition fails when at least one committee holds strictly more than a
fraction A of adversarial nodes, i.e. a count of floor(A * size) + 1 or
higher.  This module evaluates the probability of that event

* exactly, under the independent-rate (product-binomial) model,
* exactly, under the exactly-M (hypergeometric) model, through FFT
  convolutions of truncated binomial-coefficient rows tilted to their
  saddle point,
* through Chernoff-type sandwich bounds built on the Ash binomial-tail
  inequalities and the Ferrante refinement,
* through union (Boole) bounds for all three sampling scenarios, including
  the exact per-committee tail sum and the Hoeffding form under exactly-M.

Every evaluator reads the layout's run table, ``CommitteeLayout.allowances``,
of (size, multiplicity, allowed count).  ``_log_lower`` and ``_log_upper`` take
per-run tails to the ends of 1 - prod_g (1 - T_g)^m_g <= delta <= sum_g m_g T_g.
The eight bounds are the rows of one table, ``_BOUNDS``, each a model, an end
and a per-committee log term, walked by ``_bound``: the Theorem 1 sandwich reads
the lower end over KL terms, the union bounds the upper end over KL terms or
exact marginal tails.  Exact-binomial reads the lower end over binomial tails,
and the exactly-M evaluator picks the side it transforms from it.  Each exact
per-committee tail law (``_binomial_law``, ``_hypergeometric_law``) is defined
here once, sums its tails by ``probcore.windowed_log_sum`` over the O(sd) terms
within 750 of the largest, and reaches sizing through the method registry.

Bounds can exceed 1; they are clamped with a diagnostic flag instead of
being rejected, so parameter sweeps never abort.  Preconditions of the
KL-based bounds (rate < per-committee failure fraction < 1) degrade to a
flag plus a trivial per-committee bound of 1 when violated.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.fft import irfft, rfft

from .partitions import (AdversaryModel, AverageAdversary, CommitteeLayout, ExactAdversary,
                         _marginal_log_pmf, exact_count_from_rate)
from .probcore import (
    _LN2,
    LOG_ZERO,
    RateLike,
    binomial_tail_and_cdf,
    kl_divergence,
    log1mexp,
    log_binomial_coefficient,
    log_binomial_coefficients,
    log_factorial,
    log_sum_exp,
    rate_as_float,
    stable_complement_product,
    windowed_log_sum,
)

__all__ = [
    "DeltaResult",
    "FailureQuery",
    "delta_exact_binomial",
    "delta_exact_hypergeometric",
    "theorem1_bounds",
    "union_bound_fixed_sizes",
    "union_bound_hypergeometric",
    "union_bound_random_sizes",
]

@dataclass(frozen=True)
class FailureQuery:
    """A layout, an adversary model and the tolerated fraction A."""

    layout: CommitteeLayout
    adversary: AdversaryModel
    threshold: RateLike

    def __post_init__(self):
        a = rate_as_float(self.threshold, "threshold")
        if a <= 0.0:
            raise ValueError(f"threshold must be positive, got {self.threshold!r}")
        if isinstance(self.adversary, ExactAdversary):
            if self.adversary.count > self.layout.total:
                raise ValueError(
                    f"adversary count {self.adversary.count} exceeds "
                    f"{self.layout.total} nodes"
                )


@dataclass(frozen=True)
class DeltaResult:
    """A failure probability with its log-domain companions and diagnostics.

    ``delta`` is always in [0, 1].  ``raw_log_delta`` keeps the pre-clamp
    log value (union bounds and the asymptotic can exceed 1); ``clamped``
    records that the raw value lay outside [0, 1].  ``precondition_ok`` is
    False when a bound's validity condition failed for some committee and
    the per-committee bound degraded to the trivial value 1.
    """

    delta: float
    method: str
    log_delta: float
    log_survival: float
    raw_log_delta: float
    clamped: bool = False
    precondition_ok: bool = True
    warnings: tuple[str, ...] = ()


def _result(method, raw_log_delta, log_survival=None, *, clamped=None,
            precondition_ok=True, warnings=()) -> DeltaResult:
    """A DeltaResult from the raw (pre-clamp) log failure probability.

    ``log_survival`` is given when it was computed natively in its own log
    domain, so each side keeps full relative accuracy at its extreme;
    otherwise it is derived from the clamped failure side.  ``clamped``
    defaults to whether the raw value exceeds probability 1.
    """
    log_delta = min(raw_log_delta, 0.0)
    if log_survival is None:
        log_survival = log1mexp(log_delta)
    return DeltaResult(
        delta=math.exp(log_delta),
        method=method,
        log_delta=log_delta,
        log_survival=min(log_survival, 0.0),
        raw_log_delta=raw_log_delta,
        clamped=raw_log_delta > 0.0 if clamped is None else clamped,
        precondition_ok=precondition_ok,
        warnings=tuple(warnings),
    )


@lru_cache(maxsize=65536)
def _binomial_split_cached(size: int, rate: float, cap: int) -> tuple[float, float]:
    """(log CDF, log tail) of one committee of a run at its allowed count."""
    return binomial_tail_and_cdf(size, rate, cap) if cap < size else (0.0, LOG_ZERO)


def _require_average(query: FailureQuery) -> float:
    if not isinstance(query.adversary, AverageAdversary):
        raise ValueError("this evaluator needs an AverageAdversary model")
    return float(query.adversary.rate)


def _require_exact(query: FailureQuery) -> int:
    if not isinstance(query.adversary, ExactAdversary):
        raise ValueError("this evaluator needs an ExactAdversary model")
    return query.adversary.count


def _log_lower(log_tails: Sequence[tuple[float, int]]) -> float:
    """log(1 - prod_g (1 - T_g)^m_g) from per-run (log T_g, m_g), each T_g capped at 1:
    delta for binomial counts, a lower bound for exactly-M ones, which are negatively
    associated (Joag-Dev & Proschan 1983)."""
    return stable_complement_product([(min(t, 0.0), mult) for t, mult in log_tails])


def _log_upper(log_tails: Sequence[tuple[float, int]]) -> float:
    """log sum_g m_g T_g from per-run (log T_g, m_g): the union bound on delta."""
    return log_sum_exp([math.log(mult) + t for t, mult in log_tails])


def delta_exact_binomial(query: FailureQuery) -> DeltaResult:
    """Exact failure probability under the independent-rate model.

    One minus the product of per-committee binomial CDFs at the allowed
    counts: ``_log_lower`` over the binomial tails.
    The survival side, a sum of CDF logs, is accurate only in absolute
    terms, so it is returned only where delta is at least 1/2; below that,
    log_survival is log1mexp(log delta), which keeps full relative accuracy.
    """
    rate = _require_average(query)
    splits = [(_binomial_split_cached(size, rate, cap), mult)
              for size, mult, cap in query.layout.allowances(query.threshold)]
    log_delta = _log_lower([(log_tail, mult) for (_, log_tail), mult in splits])
    log_survival = sum(mult * log_cdf for (log_cdf, _), mult in splits)
    return _result("exact-binomial", log_delta,
                   log_survival if log_delta >= -_LN2 else None, clamped=False)


# ---------------------------------------------------------------------------
# exact hypergeometric failure probability via saddle-tilted FFT
#
# Give a committee of size n the weights C(n, j) z^j on its count j and split
# them into S (j up to the allowed count), F (j above it) and T = S + F.  The
# exactly-M survival numerator is the z^M coefficient of prod_g S_g^m_g; the
# failure numerator is that of prod_g T_g^m_g - prod_g S_g^m_g, which is the
# upper-right entry of prod_g [[S_g, F_g], [0, T_g]]^m_g and so a sum of
# positive terms.  Each side is tilted by z = e^u to its own saddle, where its
# coefficient sits near the peak of a positive sequence; there an FFT
# convolution keeps the coefficient's relative accuracy (Keich 2005; Wilson
# and Keich 2016).  Counts above M cannot reach the z^M coefficient, so rows
# stop at min(n, M).

_TILT_BOUND = 40.0  # |u| limit of the tilt search; e^40 outweighs any row ratio
_TILT_STEPS = 200
# weights below e^-600 of a row's peak are raised to it: the mass moves by
# under 1e-250, and the rows stay free of subnormal floats, which slow the
# dot products and FFTs a thousandfold
_LOG_WEIGHT_FLOOR = -600.0

_BYTES_PER_POINT = 160


class _CapGroup(NamedTuple):
    """A run of equal committees: ln C(size, j) for j = 0..top, split at cap."""

    cap: int
    top: int
    mult: int
    log_coeffs: np.ndarray
    counts: np.ndarray
    counts_sq: np.ndarray


class _Part(NamedTuple):
    """One side of a tilted row: unit-mass weights, log mass, mean, variance."""

    row: np.ndarray
    log_mass: float
    mean: float
    var: float


class _GroupTilt(NamedTuple):
    """A group's tilted S and F parts; ``fail`` is None when it cannot fail."""

    surv: _Part
    fail: _Part | None
    log_ratio: float  # ln T - ln S, from the log odds ln F - ln S
    log_p_fail: float  # ln F - ln T


class _TiltMoments(NamedTuple):
    """Means and variances of the tilted survival, failure and total laws."""

    groups: list[_GroupTilt]
    surv: tuple[float, float]  # (mean, variance) of the survival law
    fail: tuple[float, float]  # and of the failure law
    total_mean: float
    total_var: float
    log_total: float  # sum_g m_g ln T_g(e^u)
    log_ratio: float  # sum_g m_g ln(T_g / S_g)


def _part(log_w: np.ndarray, counts: np.ndarray, counts_sq: np.ndarray) -> _Part:
    shift = float(log_w.max())
    w = np.exp(np.maximum(log_w - shift, _LOG_WEIGHT_FLOOR))
    mass = float(w.sum())
    row = w / mass
    # einsum, not a BLAS dot: threaded BLAS start-up costs more than these sums
    mean = float(np.einsum("i,i->", counts, row))
    var = max(float(np.einsum("i,i->", counts_sq, row)) - mean * mean, 0.0)
    return _Part(row, shift + math.log(mass), mean, var)


def _tilt_moments(groups: Sequence[_CapGroup], u: float) -> _TiltMoments:
    """Moments of the three coefficient sequences tilted by z = e^u.

    The failure law mixes "group g fails" terms with weights
    W_g = m_g P_g(F) / P(some committee fails).  Every quantity below is a
    sum of positive terms or a log-domain ratio, so a failure probability
    far below 1e-300 at this tilt still gives finite moments.
    """
    tilted = []
    surv_mean = surv_var = total_mean = total_var = log_total = log_ratio = 0.0
    failing = []  # (ln m + ln P(F), ln m + ln ln(T / S), gap, variance excess)
    for g in groups:
        log_w = g.log_coeffs + u * g.counts
        cut = g.cap + 1
        surv = _part(log_w[:cut], g.counts[:cut], g.counts_sq[:cut])
        surv_mean += g.mult * surv.mean
        surv_var += g.mult * surv.var
        if g.cap == g.top:
            tilted.append(_GroupTilt(surv, None, 0.0, LOG_ZERO))
            total_mean += g.mult * surv.mean
            total_var += g.mult * surv.var
            log_total += g.mult * surv.log_mass
            continue
        fail = _part(log_w[cut:], g.counts[cut:], g.counts_sq[cut:])
        odds = fail.log_mass - surv.log_mass
        ratio = float(np.logaddexp(0.0, odds))
        p_surv = math.exp(-ratio)
        p_fail = math.exp(odds - ratio)
        gap = fail.mean - surv.mean
        tilted.append(_GroupTilt(surv, fail, ratio, odds - ratio))
        total_mean += g.mult * (surv.mean + p_fail * gap)
        total_var += g.mult * (p_surv * surv.var + p_fail * fail.var
                               + p_surv * p_fail * gap * gap)
        log_total += g.mult * (surv.log_mass + ratio)
        log_ratio += g.mult * ratio
        log_mult = math.log(g.mult)
        failing.append((log_mult + odds - ratio,
                        log_mult + (odds if odds < -36.0 else math.log(ratio)),
                        gap, fail.var - surv.var + p_surv * gap * gap))
    # ln(1 - e^-R), R = sum_g m_g ln(T_g / S_g), from ln R; below 1e-10 it is ln R
    log_r = log_sum_exp(np.array([row[1] for row in failing])) if failing else LOG_ZERO
    log_fail_mass = log_r if log_r < -23.0 else log1mexp(-math.exp(log_r))
    excess = 0.0
    fail_var = surv_var
    for log_weight, _, gap, extra in failing:
        weight = math.exp(log_weight - log_fail_mass)
        excess += weight * gap
        fail_var += weight * extra
    fail_var = max(fail_var - math.exp(-log_ratio) * excess * excess, 0.0)
    return _TiltMoments(tilted, (surv_mean, surv_var), (surv_mean + excess, fail_var),
                        total_mean, total_var, log_total, log_ratio)


def _cap_groups(runs, length: int = 0) -> list[_CapGroup]:
    """Groups from (size, mult, top, cap) runs: rows of ln C(size, j), j <= top.

    Refuses, before building any, rows and a length-``length`` transform whose
    arrays would not fit in physical memory.  Peaks of 96 bytes per transform or
    row point with one run of committees, and 140-144 with 2 to 40 runs, were
    measured at N = 1e5..1.5e6.
    """
    runs = list(runs)
    need = _BYTES_PER_POINT * (length + sum(top + 1 for _, _, top, _ in runs))
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > physical:
        raise ValueError(
            f"these rows and transforms would need about {need / 2**30:.3g} GiB, more "
            f"than this machine's {physical / 2**30:.3g} GiB of physical memory")
    groups = []
    for size, mult, top, cap in runs:
        counts = np.arange(top + 1, dtype=np.float64)
        groups.append(_CapGroup(cap, top, mult, log_binomial_coefficients(size)[: top + 1],
                                counts, counts * counts))
    return groups


def _within_quarter_deviation(gap: float, var: float) -> bool:
    return 16.0 * gap * gap <= max(var, 1.0)


def _saddle_tilt(groups: Sequence[_CapGroup], target: float, u: float, side: str,
                 close=_within_quarter_deviation,
                 bound: float = _TILT_BOUND) -> tuple[float, _TiltMoments]:
    """Tilt u in [-bound, bound] at which the ``side`` ("surv" or "fail") tilted
    mean is ``close`` to target, and the moments at that u.

    Safeguarded Newton on the mean, which increases in u with slope equal
    to the variance: a step leaving the bracket known so far is replaced by
    bisection.  ``close(gap, var)`` decides the mean's gap to target; by
    default it is within a quarter deviation, which also stops the search
    when target is an end of the support that the mean only tends to.
    """
    lo, hi = -bound, bound
    for _ in range(_TILT_STEPS):
        tilt = _tilt_moments(groups, u)
        mean, var = getattr(tilt, side)
        gap = mean - target
        if close(gap, var) or hi - lo < 1e-9:
            return u, tilt
        if gap < 0.0:
            lo = u
        else:
            hi = u
        step = u - gap / var if var > 0.0 else math.nan
        u = step if lo < step < hi else 0.5 * (lo + hi)
    return u, _tilt_moments(groups, u)


def _next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: the lengths pocketfft transforms fastest."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the smallest power of two that takes odd up to n or past it
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _coefficient(spectrum: np.ndarray, index: int, length: int) -> float:
    """ln of coefficient ``index`` of the real sequence whose rfft is ``spectrum``."""
    value = float(irfft(spectrum, length)[index])
    if not value > 0.0:
        raise ArithmeticError(
            f"z^{index} coefficient lost to rounding in the tilted FFT ({value!r})")
    return math.log(value)


def _triangular_power(a, b, d, power: int):
    """[[a, b], [0, d]] ** power for elementwise entries, by binary powering.

    Only products and sums of the entries appear, so no subtraction cancels
    the positive terms of the upper-right entry.
    """
    result = None
    while True:
        if power & 1:
            result = (a, b, d) if result is None else (
                result[0] * a, result[0] * b + result[1] * d, result[2] * d)
        power >>= 1
        if not power:
            return result
        a, b, d = a * a, a * b + b * d, d * d


def _spectra(g: _CapGroup, gt: _GroupTilt, length: int):
    """rfft of a group's tilted S, F and T rows; F is None when it cannot fail."""
    s_hat = rfft(gt.surv.row, length)
    if gt.fail is None:
        return s_hat, None, s_hat
    f_row = np.zeros(g.top + 1)
    f_row[g.cap + 1:] = gt.fail.row
    f_hat = rfft(f_row, length)
    return s_hat, f_hat, math.exp(-gt.log_ratio) * s_hat + math.exp(gt.log_p_fail) * f_hat


def _normalised(log_side: float, total: np.ndarray, tilt: _TiltMoments, u: float,
                target: int, length: int, log_norm: float) -> float:
    """ln probability from a side's z^M coefficient, tilted and scaled like T.

    Divided by the z^M coefficient of prod_g T_g^m_g at the same tilt when
    that one lies within two deviations of its mean: rounding in the shared
    rows then cancels, so a probability near 1 keeps full absolute accuracy.
    Otherwise the tilt is undone in log domain and C(N, M) divides.
    """
    if (tilt.total_mean - target) ** 2 <= 4.0 * tilt.total_var:
        return log_side - _coefficient(total, target, length)
    return log_side + tilt.log_total - target * u - log_norm


def _log_survival(groups: Sequence[_CapGroup], target: int, u: float,
                  tilt: _TiltMoments, length: int, log_norm: float) -> float:
    """ln P(survival): z^M coefficient of prod_g S_g^m_g at tilt u."""
    side = total = 1.0
    for g, gt in zip(groups, tilt.groups):
        s_hat, _, t_hat = _spectra(g, gt, length)
        side = side * s_hat ** g.mult
        total = total * t_hat ** g.mult
    # S_g rows have unit mass; relative to T_g each weighs e^-(ln T_g - ln S_g)
    log_side = _coefficient(side, target, length) - tilt.log_ratio
    return _normalised(log_side, total, tilt, u, target, length, log_norm)


def _log_failure(groups: Sequence[_CapGroup], target: int, u: float,
                 tilt: _TiltMoments, length: int, log_norm: float) -> float:
    """ln P(failure): upper-right z^M coefficient of prod_g [[S, F], [0, T]]^m_g.

    F_g is carried at unit mass with its own log scale ln(F_g / T_g), and the
    accumulated entry with the largest scale so far: a failure far below
    1e-300 at this tilt would otherwise underflow to zero.
    """
    corner = total = 1.0
    side, scale = 0.0, LOG_ZERO
    for g, gt in zip(groups, tilt.groups):
        s_hat, f_hat, t_hat = _spectra(g, gt, length)
        if f_hat is None:
            power = s_hat ** g.mult
            corner, side, total = corner * power, side * power, total * power
            continue
        a, b, d = _triangular_power(math.exp(-gt.log_ratio) * s_hat, f_hat, t_hat,
                                    g.mult)
        new_scale = max(scale, gt.log_p_fail)
        side = (corner * b * math.exp(gt.log_p_fail - new_scale)
                + side * d * math.exp(scale - new_scale))
        corner, total, scale = corner * a, total * d, new_scale
    log_side = _coefficient(side, target, length) + scale
    return _normalised(log_side, total, tilt, u, target, length, log_norm)


def delta_exact_hypergeometric(query: FailureQuery) -> DeltaResult:
    """Exact failure probability under the exactly-M model.

    Failure is the z^M coefficient of the product of the failing
    extensions of the per-committee generating polynomials truncated at the
    allowed counts (see above), and survival that of the truncated product,
    each normalised by C(N, M).  Survival is read only where delta is at
    least 1/2, and log delta is then log1mexp of it; below 1/2,
    log1mexp(log delta) is the more accurate survival log.  Where
    ``_log_lower`` over the marginal tails puts delta above 1/2, failure is
    not transformed.  Each side is read from FFTs of length L, a
    fast length above max(M, D - M) with D <= N the degree of the truncated
    product, at its own saddle-point tilt found by a safeguarded Newton
    search on the tilted mean: O(groups * L log L) time and O(L) memory at
    any node count.  Two answers are exact and need no transform: 0 when no
    committee can exceed its allowance, 1 when M exceeds the total allowance.
    """
    m = _require_exact(query)
    layout = query.layout
    n_total = layout.total
    runs = [(size, mult, min(size, m), min(cap, size, m))
            for size, mult, cap in layout.allowances(query.threshold)]
    if m > sum(mult * cap for _, mult, _, cap in runs):
        return _result("exact-hypergeometric", 0.0, LOG_ZERO, clamped=False)
    tails = [(_marginal_log_tail(size, n_total, m, cap), mult) for size, mult, _, cap in runs]
    if _log_upper(tails) == LOG_ZERO:
        return _result("exact-hypergeometric", LOG_ZERO, 0.0, clamped=False)
    degree = sum(mult * top for _, mult, top, _ in runs)
    # no z^(M +- L) term exists, so the length-L circular product has no alias at z^M
    length = _next_fast_len(max(m, degree - m) + 1)
    groups = _cap_groups(runs, length)
    log_norm = log_binomial_coefficient(n_total, m)
    u0 = math.log(m / (n_total - m))
    # past ln 1/2 by 2^-20 (400x the largest FFT-to-tails gap), the lower end puts delta > 1/2
    log_delta = 0.0 if _log_lower(tails) > -_LN2 + 2.0 ** -20 else _log_failure(
        groups, m, *_saddle_tilt(groups, m, u0, "fail"), length, log_norm)
    log_survival = None  # below 1/2, log1mexp(log delta) of _result
    if log_delta >= -_LN2:
        log_survival = _log_survival(groups, m, *_saddle_tilt(groups, m, u0, "surv"),
                                     length, log_norm)
        log_delta = log1mexp(log_survival)  # a failure log near 0 keeps no relative accuracy
    return _result("exact-hypergeometric", log_delta, log_survival, clamped=False)


# ---------------------------------------------------------------------------
# bounds: the Theorem 1 sandwich and union (Boole) bounds, one table, one walk
#
# A row (model, end, log_term) of _BOUNDS names the adversary model it reads
# its rate p from (P itself under "average", the global rate M/N under
# "exact"), the end of the sandwich it reads, and log_term(n, cap, p, M, N):
# the log of one committee's term at size n and allowed count cap, M None
# under "average" and N the node total, or None where a precondition fails.
# The KL formulas take n, p, the failing fraction q = (cap + 1) / n,
# D = D(q || p) and N.


def _kl(formula: Callable) -> Callable:
    """A row's log term from a KL formula(n, p, q, D, N); None unless p < q < 1."""
    def log_term(size, cap, p, m, total):
        q = (cap + 1) / size
        return formula(size, p, q, kl_divergence(q, p), total) if p < q < 1.0 else None
    return log_term


def _random_tight(n, p, q, d, total):
    # at one committee P(mu) = 1 and the term is -N D, which 1 + expm1(-D) loses
    return -total * d if n == total else total * math.log1p(n / total * math.expm1(-d))


def _marginal_log_tail(size: int, total: int, m: int, cap: int) -> float:
    """log P(count > cap) for one committee under the exactly-M model: ln C(size, j)
    C(total - size, m - j) / C(total, m), capped at 0, summed over the failing
    counts j by ``windowed_log_sum``, with one ln k! call for all six arguments."""
    rest = total - size

    def log_terms(j):
        lf = log_factorial(np.concatenate(((size, rest), j, size - j, m - j, rest - m + j)))
        lf_j, lf_size_j, lf_m_j, lf_rest_j = lf[2:].reshape(4, j.size)
        return np.minimum(lf[0] - lf_j - lf_size_j + lf[1] - lf_m_j - lf_rest_j
                          - log_binomial_coefficient(total, m), 0.0)

    sd = math.sqrt(size * m * (total - m) * rest / max(total - 1, 1)) / total
    return min(windowed_log_sum(log_terms, max(cap + 1, m - rest), min(size, m),
                                (size + 1) * (m + 1) / (total + 2), sd), 0.0)


_BOUNDS = {
    # Theorem 1 sandwich on the exact product-binomial failure probability:
    #   lower bound      exp(-n D) / sqrt(8 n q (1 - q))
    "theorem1-lower": ("average", _log_lower, _kl(lambda n, p, q, d, total:
                       -n * d - 0.5 * math.log(8.0 * n * q * (1.0 - q)))),
    #   Ash upper        exp(-n D)
    "theorem1-upper-ash": ("average", _log_lower, _kl(lambda n, p, q, d, total: -n * d)),
    #   Ferrante upper   exp(-n D) / ((1 - r) sqrt(2 pi q (1 - q) n)),
    #                    r = p (1 - q) / (q (1 - p))
    "theorem1-upper-ferrante": ("average", _log_lower, _kl(lambda n, p, q, d, total:
                                -n * d - math.log1p(-p * (1.0 - q) / (q * (1.0 - p)))
                                - 0.5 * math.log(2.0 * math.pi * q * (1.0 - q) * n))),
    # union bound for fixed sizes: sum_mu exp(-n_mu D(q_mu || p))
    "union-fixed": ("average", _log_upper, _kl(lambda n, p, q, d, total: -n * d)),
    # fully random partition, a node in committee mu with probability
    # P(mu) = n_mu / N, so the layout's sizes are the expected sizes:
    #   tight   sum_mu (P(mu) exp(-D) + 1 - P(mu))^N
    "union-random": ("average", _log_upper, _kl(_random_tight)),
    #   simple  sum_mu exp(-N P(mu) (1 - exp(-D))), never below the tight form
    "union-random-simple": ("average", _log_upper, _kl(lambda n, p, q, d, total:
                            total * (n / total) * math.expm1(-d))),
    # union bound under exactly-M: the sum of exact per-committee marginal tails
    "union-hyper-exact": ("exact", _log_upper, lambda n, cap, p, m, total:
                          _marginal_log_tail(n, total, m, cap)),
    # Hoeffding form under exactly-M: union-fixed at the global rate p = M/N
    "union-hyper-hoeffding": ("exact", _log_upper, _kl(lambda n, p, q, d, total: -n * d)),
}


def _bound(tag: str, query: FailureQuery) -> DeltaResult:
    """The ``_BOUNDS`` row ``tag``, by one walk over the run table: its end over one
    term per run that can fail.  A term of None counts as log 1 and clears
    ``precondition_ok`` with its model's warning."""
    model, end, log_term = _BOUNDS[tag]
    n_total = query.layout.total
    m = None if model == "average" else _require_exact(query)
    p = _require_average(query) if m is None else m / n_total
    terms = [(log_term(size, cap, p, m, n_total), mult)
             for size, mult, cap in query.layout.allowances(query.threshold) if cap < size]
    ok = all(t is not None for t, _ in terms)
    warning = "bound" if model == "average" else "Hoeffding"
    return _result(tag, end([(0.0 if t is None else t, mult) for t, mult in terms]),
                   precondition_ok=ok, warnings=() if ok else (
                       f"{warning} precondition violated for some committee",))


def theorem1_bounds(query: FailureQuery) -> tuple[DeltaResult, DeltaResult, DeltaResult]:
    """Sandwich bounds (lower, upper_ash, upper_ferrante) on the exact
    product-binomial failure probability; see ``_BOUNDS``."""
    return tuple(_bound(tag, query) for tag in (
        "theorem1-lower", "theorem1-upper-ash", "theorem1-upper-ferrante"))


def union_bound_fixed_sizes(query: FailureQuery) -> DeltaResult:
    """Union bound sum_mu exp(-n_mu D(q_mu || p_mu)) for fixed sizes."""
    return _bound("union-fixed", query)


def union_bound_random_sizes(query: FailureQuery) -> tuple[DeltaResult, DeltaResult]:
    """Union bounds (tight form, simpler form) for the fully random partition,
    sizes not conditioned on; see ``_BOUNDS``."""
    return tuple(_bound(tag, query) for tag in ("union-random", "union-random-simple"))


def union_bound_hypergeometric(query: FailureQuery) -> tuple[DeltaResult, DeltaResult]:
    """Union bounds under the exactly-M model: (exact tail sum, Hoeffding form),
    the ``union-hyper-exact`` and ``union-hyper-hoeffding`` rows of ``_BOUNDS``."""
    return _bound("union-hyper-exact", query), _bound("union-hyper-hoeffding", query)


def _log_tail_head(log_first: float, first: int, stop: int,
                   ratio: Callable[[int], float], goal: float) -> float:
    """Lower bound on a log tail: its pmf sum from count ``first``, whose log
    pmf is ``log_first``, by at most 64 steps of ratio(j) = pmf(j + 1) / pmf(j)
    up to count ``stop``, stopping once past ``goal``; at most log 1."""
    need = math.exp(min(goal - log_first, 700.0))  # finite far below the goal
    s = t = 1.0
    for j in range(first, min(first + 64, stop)):
        t *= ratio(j)
        s += t
        if s > need or t < 2.0 ** -20 * s:  # past the goal, or little left to add
            break
    return min(log_first + math.log(s), 0.0)


def _binomial_law(rate) -> tuple:
    """Binomial(size, P) counts, the law of ``exact-binomial``: bind(layout) ->
    (key, log-term magnitude); head(key, size, cap, goal), a lower bound on the
    log tail P(count > cap); tail(key, size, cap), its value."""
    p, lg = float(rate), math.lgamma
    odds = p / (1.0 - p)
    log_scale = -math.log(min(p, 1.0 - p)) if p > 0.0 else 0.0

    def bind(layout: CommitteeLayout) -> tuple:
        top = max(layout.runs)[0]
        return None, lg(top + 1) + top * log_scale

    def head(_, size: int, cap: int, goal: float) -> float:
        j = cap + 1
        if j > size or p == 0.0:
            return LOG_ZERO
        log_first = min(lg(size + 1) - lg(j + 1) - lg(size - j + 1)
                        + j * math.log(p) + (size - j) * math.log1p(-p), 0.0)
        return log_first if log_first > goal else _log_tail_head(
            log_first, j, size, lambda i: (size - i) / (i + 1) * odds, goal)

    return bind, head, lambda _, size, cap: _binomial_split_cached(size, p, cap)[1]


def _hypergeometric_law(rate) -> tuple:
    """As ``_binomial_law``, for M = round(N P) adversaries among a layout's N
    nodes, keyed by (N, M): the law of exact-hypergeometric and union-hyper-exact."""

    def bind(layout: CommitteeLayout) -> tuple:
        total = layout.total
        return (total, exact_count_from_rate(total, rate)), math.lgamma(total + 1)

    def head(key, size: int, cap: int, goal: float) -> float:
        total, m = key
        rest = total - size
        j, stop = max(cap + 1, m - rest), min(size, m)  # the failing support
        if j > stop:
            return LOG_ZERO
        log_first = _marginal_log_pmf(j, size, total, m)
        return log_first if log_first > goal else _log_tail_head(
            log_first, j, stop,
            lambda i: (size - i) * (m - i) / ((i + 1) * (rest - m + i + 1)), goal)

    return bind, head, lambda key, size, cap: _marginal_log_tail(size, key[0], key[1], cap)
