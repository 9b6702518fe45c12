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
  the Hoeffding form for the hypergeometric model.

Bounds can exceed 1; they are clamped with a diagnostic flag instead of
being rejected, so parameter sweeps never abort.  Preconditions of the
KL-based bounds (rate < per-committee failure fraction < 1) degrade to a
flag plus a trivial per-committee bound of 1 when violated.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import gammaln

from .partitions import (
    AdversaryModel,
    AverageAdversary,
    CommitteeLayout,
    ExactAdversary,
)
from .probcore import (
    LOG_ZERO,
    RateLike,
    binomial_tail_and_cdf,
    floor_rate_multiple,
    kl_divergence,
    log1mexp,
    log_binomial_coefficient,
    log_binomial_coefficients,
    log_sum_exp,
    rate_as_float,
    stable_complement_product,
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


def _result_from_log_survival(method, log_survival, *, precondition_ok=True,
                              clamped=False, warnings=()) -> DeltaResult:
    log_survival = min(log_survival, 0.0)
    log_delta = log1mexp(log_survival)
    return DeltaResult(
        delta=math.exp(log_delta),
        method=method,
        log_delta=log_delta,
        log_survival=log_survival,
        raw_log_delta=log_delta,
        clamped=clamped,
        precondition_ok=precondition_ok,
        warnings=tuple(warnings),
    )


def _result_from_both_sides(method, log_delta, log_survival, *,
                            precondition_ok=True, warnings=()) -> DeltaResult:
    """Failure and survival probabilities computed natively in their own
    log domains; neither is derived from the other, so each keeps full
    relative accuracy at its extreme."""
    return DeltaResult(
        delta=math.exp(min(log_delta, 0.0)),
        method=method,
        log_delta=min(log_delta, 0.0),
        log_survival=min(log_survival, 0.0),
        raw_log_delta=log_delta,
        clamped=False,
        precondition_ok=precondition_ok,
        warnings=tuple(warnings),
    )


def _result_from_raw_log_delta(method, raw_log_delta, *, precondition_ok=True,
                               warnings=()) -> DeltaResult:
    clamped = raw_log_delta > 0.0
    log_delta = min(raw_log_delta, 0.0)
    return DeltaResult(
        delta=math.exp(log_delta),
        method=method,
        log_delta=log_delta,
        log_survival=log1mexp(log_delta),
        raw_log_delta=raw_log_delta,
        clamped=clamped,
        precondition_ok=precondition_ok,
        warnings=tuple(warnings),
    )


def _average_groups(query: FailureQuery) -> list[tuple[int, float, int, int]]:
    """(size, rate, allowed_count, multiplicity) groups of an average-model query.

    A single rate reads the layout's runs; per-committee rates group by
    (size, rate) over the expanded committee sequence, in first-seen order.
    The allowed count floor(A * size) is the largest non-failing count.
    """
    adversary = query.adversary
    if not isinstance(adversary, AverageAdversary):
        raise ValueError("this evaluator needs an AverageAdversary model")
    layout = query.layout
    if isinstance(adversary.rate, tuple):
        rates = adversary.rates_for(layout.committee_count)
        groups = Counter(zip(layout.sizes, rates)).items()
    else:
        rate = float(adversary.rate)
        groups = (((size, rate), mult) for size, mult in layout.runs)
    return [
        (size, rate, floor_rate_multiple(query.threshold, size), mult)
        for (size, rate), mult in groups
    ]


@lru_cache(maxsize=65536)
def _binomial_split_cached(size: int, rate: float, cap: int) -> tuple[float, float]:
    return binomial_tail_and_cdf(size, rate, cap)


def _require_exact(query: FailureQuery) -> int:
    if not isinstance(query.adversary, ExactAdversary):
        raise ValueError("this evaluator needs an ExactAdversary model")
    return query.adversary.count


def delta_exact_binomial(query: FailureQuery) -> DeltaResult:
    """Exact failure probability under the independent-rate model.

    One minus the product of per-committee binomial CDFs at the allowed
    counts; survival and failure are each accumulated in their own log
    domain so neither loses precision to the other.
    """
    log_survival = 0.0
    log_tails: list[tuple[float, int]] = []
    for size, rate, cap, mult in _average_groups(query):
        if cap >= size:
            continue  # committee can never fail at this threshold
        log_cdf, log_tail = _binomial_split_cached(size, rate, cap)
        log_survival += mult * log_cdf
        log_tails.append((log_tail, mult))
    log_delta = stable_complement_product(log_tails)
    return _result_from_both_sides("exact-binomial", log_delta, log_survival)


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
    surv_mean: float
    surv_var: float
    fail_mean: float
    fail_var: float
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
    return _TiltMoments(tilted, surv_mean, surv_var, surv_mean + excess, fail_var,
                        total_mean, total_var, log_total, log_ratio)


def _saddle_tilt(mean_var, target: int, u: float) -> float:
    """Tilt u at which the tilted mean lies within a quarter deviation of target.

    Safeguarded Newton on the mean, which increases in u with slope equal
    to the variance: a step leaving the bracket known so far is replaced by
    bisection.  When target is an end of the support the mean only tends to
    it, and the search stops once it is within 1/4 of it.
    """
    lo, hi = -_TILT_BOUND, _TILT_BOUND
    for _ in range(_TILT_STEPS):
        mean, var = mean_var(u)
        gap = mean - target
        if 16.0 * gap * gap <= max(var, 1.0) or hi - lo < 1e-9:
            break
        if gap < 0.0:
            lo = u
        else:
            hi = u
        step = u - gap / var if var > 0.0 else math.nan
        u = step if lo < step < hi else 0.5 * (lo + hi)
    return u


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


def _log_survival(groups: Sequence[_CapGroup], target: int, u: float, length: int,
                  log_norm: float) -> float:
    """ln P(survival): z^M coefficient of prod_g S_g^m_g at tilt u."""
    tilt = _tilt_moments(groups, u)
    side = total = 1.0
    for g, gt in zip(groups, tilt.groups):
        s_hat, _, t_hat = _spectra(g, gt, length)
        side = side * s_hat ** g.mult
        total = total * t_hat ** g.mult
    # S_g rows have unit mass; relative to T_g each weighs e^-(ln T_g - ln S_g)
    log_side = _coefficient(side, target, length) - tilt.log_ratio
    return _normalised(log_side, total, tilt, u, target, length, log_norm)


def _log_failure(groups: Sequence[_CapGroup], target: int, u: float, length: int,
                 log_norm: float) -> float:
    """ln P(failure): upper-right z^M coefficient of prod_g [[S, F], [0, T]]^m_g.

    F_g is carried at unit mass with its own log scale ln(F_g / T_g), and the
    accumulated entry with the largest scale so far: a failure far below
    1e-300 at this tilt would otherwise underflow to zero.
    """
    tilt = _tilt_moments(groups, u)
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


def _check_memory(length: int, row_points: int) -> None:
    """Refuse a transform whose arrays would not fit in physical memory.

    Peaks of 96 bytes per transform or row point with one run of committees,
    and 140-144 with 2 to 40 runs, were measured at N = 1e5..1.5e6.
    """
    need = _BYTES_PER_POINT * (length + row_points)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > physical:
        raise ValueError(
            f"the exactly-M evaluator would need about {need / 2**30:.3g} GiB for a "
            f"length-{length} transform, more than this machine's "
            f"{physical / 2**30:.3g} GiB of physical memory")


def delta_exact_hypergeometric(query: FailureQuery) -> DeltaResult:
    """Exact failure probability under the exactly-M model.

    Survival is the z^M coefficient of the product of per-committee
    generating polynomials truncated at the allowed counts, and failure
    that of the product of their failing extensions (see above), each
    normalised by C(N, M).  Each is read from FFTs of length L, a fast
    length above max(M, D - M) with D <= N the degree of the truncated
    product, at its own saddle-point tilt found by a safeguarded Newton
    search on the tilted mean: O(groups * L log L) time and O(L) memory at
    any node count.  Two answers are exact and need no transform: 0 when no
    committee can exceed its allowance, 1 when M exceeds the total
    allowance.
    """
    m = _require_exact(query)
    layout = query.layout
    n_total = layout.total
    runs = []
    for size, mult in layout.runs:
        top = min(size, m)
        runs.append((size, mult, top, min(floor_rate_multiple(query.threshold, size), top)))
    if all(cap == top for _, _, top, cap in runs):
        return _result_from_both_sides("exact-hypergeometric", LOG_ZERO, 0.0)
    if m > sum(mult * cap for _, mult, _, cap in runs):
        return _result_from_both_sides("exact-hypergeometric", 0.0, LOG_ZERO)
    degree = sum(mult * top for _, mult, top, _ in runs)
    # no z^(M +- L) term exists, so the length-L circular product has no alias at z^M
    length = next_fast_len(max(m, degree - m) + 1, real=True)
    _check_memory(length, sum(top + 1 for _, _, top, _ in runs))
    groups = []
    for size, mult, top, cap in runs:
        log_coeffs = log_binomial_coefficients(size)[: top + 1]
        counts = np.arange(top + 1, dtype=np.float64)
        groups.append(_CapGroup(cap, top, mult, log_coeffs, counts, counts * counts))
    log_norm = log_binomial_coefficient(n_total, m)
    u0 = math.log(m / (n_total - m))

    def surv_moments(u):
        tilt = _tilt_moments(groups, u)
        return tilt.surv_mean, tilt.surv_var

    def fail_moments(u):
        tilt = _tilt_moments(groups, u)
        return tilt.fail_mean, tilt.fail_var

    log_survival = _log_survival(groups, m, _saddle_tilt(surv_moments, m, u0),
                                 length, log_norm)
    log_delta = _log_failure(groups, m, _saddle_tilt(fail_moments, m, u0),
                             length, log_norm)
    return _result_from_both_sides("exact-hypergeometric", log_delta, log_survival)


# ---------------------------------------------------------------------------
# Chernoff-type sandwich bounds (fixed committee sizes, independent rates)


def _committee_kl_terms(groups):
    """Per committee group: (mult, log tail bounds or None when degenerate).

    Yields (mult, kind, data) with kind one of:
      'never'  - threshold count above committee size, tail is exactly 0
      'bad'    - bound precondition violated, degrade to trivial bound 1
      'ok'     - data = (size, rate, q, divergence)
    """
    for size, rate, cap, mult in groups:
        fail_at = cap + 1
        if fail_at > size:
            yield mult, "never", None
            continue
        q = fail_at / size
        if not rate < q < 1.0:
            yield mult, "bad", None
            continue
        yield mult, "ok", (size, rate, q, kl_divergence(q, rate))


def theorem1_bounds(query: FailureQuery) -> tuple[DeltaResult, DeltaResult, DeltaResult]:
    """Sandwich bounds on the exact product-binomial failure probability.

    Returns (lower, upper_ash, upper_ferrante).  Per committee, the tail
    P(X >= floor(A n) + 1) of Binomial(n, p) is bounded through the KL
    divergence D(q || p) at q = (floor(A n) + 1) / n:

      lower bound      exp(-n D) / sqrt(8 n q (1 - q))
      Ash upper        exp(-n D)
      Ferrante upper   exp(-n D) / ((1 - r) sqrt(2 pi q (1 - q) n)),
                       r = p (1 - q) / (q (1 - p))

    each clamped to at most 1, then combined through the stable complement
    product.  Committees violating p < q < 1 contribute the trivial bound 1
    and clear the precondition flag; committees whose failure count exceeds
    their size never fail and contribute 0 exactly.
    """
    lower_terms: list[tuple[float, int]] = []
    ash_terms: list[tuple[float, int]] = []
    ferrante_terms: list[tuple[float, int]] = []
    precondition_ok = True
    warnings = []
    for mult, kind, data in _committee_kl_terms(_average_groups(query)):
        if kind == "never":
            continue
        if kind == "bad":
            precondition_ok = False
            lower_terms.append((0.0, mult))  # log 1
            ash_terms.append((0.0, mult))
            ferrante_terms.append((0.0, mult))
            continue
        size, rate, q, div = data
        log_ash = -size * div
        log_lower = log_ash - 0.5 * math.log(8.0 * size * q * (1.0 - q))
        r = rate * (1.0 - q) / (q * (1.0 - rate))
        log_ferrante = (
            log_ash
            - math.log1p(-r)
            - 0.5 * math.log(2.0 * math.pi * q * (1.0 - q) * size)
        )
        lower_terms.append((min(log_lower, 0.0), mult))
        ash_terms.append((min(log_ash, 0.0), mult))
        ferrante_terms.append((min(log_ferrante, 0.0), mult))
    if not precondition_ok:
        warnings.append("bound precondition violated for some committee")

    def combined(method, terms):
        return _result_from_raw_log_delta(
            method, stable_complement_product(terms),
            precondition_ok=precondition_ok, warnings=warnings,
        )

    return (
        combined("theorem1-lower", lower_terms),
        combined("theorem1-upper-ash", ash_terms),
        combined("theorem1-upper-ferrante", ferrante_terms),
    )


# ---------------------------------------------------------------------------
# union bounds


def union_bound_fixed_sizes(query: FailureQuery) -> DeltaResult:
    """Union bound sum_mu exp(-n_mu D(q_mu || p_mu)) for fixed sizes."""
    terms = []
    precondition_ok = True
    for mult, kind, data in _committee_kl_terms(_average_groups(query)):
        if kind == "never":
            continue
        if kind == "bad":
            precondition_ok = False
            terms.append(math.log(mult))  # mult committees, trivial bound 1 each
            continue
        size, _, _, div = data
        terms.append(math.log(mult) - size * div)
    raw = log_sum_exp(np.array(terms)) if terms else LOG_ZERO
    warnings = () if precondition_ok else (
        "bound precondition violated for some committee",)
    return _result_from_raw_log_delta("union-fixed", raw,
                                      precondition_ok=precondition_ok,
                                      warnings=warnings)


def union_bound_random_sizes(
    total_nodes: int,
    committee_probs: Sequence[RateLike],
    rates: Sequence[RateLike],
    threshold: RateLike,
    size_hints: Sequence[int],
) -> tuple[DeltaResult, DeltaResult]:
    """Union bounds for the fully random partition (sizes not conditioned on).

    Committee sizes are themselves random there, so the per-committee
    failure fraction q is evaluated at caller-chosen hint sizes (typically
    the expected sizes).  Returns the pair (tight form, simpler form):

      tight   sum_mu (P(mu) exp(-D(q || p)) + 1 - P(mu))^N
      simple  sum_mu exp(-N P(mu) (1 - exp(-D(q || p))))

    The simple form is never below the tight one (log x <= x - 1).
    """
    n_total = int(total_nodes)
    if n_total < 1:
        raise ValueError(f"total_nodes must be positive, got {total_nodes}")
    probs = [rate_as_float(p, "committee probability") for p in committee_probs]
    if abs(math.fsum(probs) - 1.0) > 1e-12:
        raise ValueError("committee probabilities must sum to 1")
    if not (len(probs) == len(rates) == len(size_hints)):
        raise ValueError("probs, rates and size_hints must have equal length")
    a = rate_as_float(threshold, "threshold")
    if not 0.0 < a < 1.0:
        raise ValueError("threshold must lie strictly inside (0, 1)")
    tight_terms = []
    simple_terms = []
    precondition_ok = True
    for prob_mu, rate, hint in zip(probs, rates, size_hints):
        hint = int(hint)
        if hint < 1:
            raise ValueError("size hints must be positive")
        rate = rate_as_float(rate, "rate")
        cap = floor_rate_multiple(threshold, hint)
        if cap >= hint:
            tight_terms.append(LOG_ZERO)
            simple_terms.append(LOG_ZERO)
            continue
        q = (cap + 1) / hint
        if not rate < q < 1.0:
            precondition_ok = False
            tight_terms.append(0.0)
            simple_terms.append(0.0)
            continue
        decay = math.expm1(-kl_divergence(q, rate))  # exp(-D) - 1, in (-1, 0]
        tight_terms.append(n_total * math.log1p(prob_mu * decay))
        simple_terms.append(n_total * prob_mu * decay)
    warnings = () if precondition_ok else (
        "bound precondition violated for some committee",)
    tight = _result_from_raw_log_delta(
        "union-random", log_sum_exp(np.array(tight_terms)),
        precondition_ok=precondition_ok, warnings=warnings)
    simple = _result_from_raw_log_delta(
        "union-random-simple", log_sum_exp(np.array(simple_terms)),
        precondition_ok=precondition_ok, warnings=warnings)
    return tight, simple


def _marginal_log_tail(size: int, total: int, m: int, cap: int) -> float:
    """log P(count > cap) for one committee under the exactly-M model.

    Sums C(size, j) C(total - size, m - j) / C(total, m) over the counts
    j > cap in its support, as one log-gamma row.
    """
    rest = total - size
    lo = max(cap + 1, m - rest)
    hi = min(size, m)
    if lo > hi:
        return LOG_ZERO
    j = np.arange(lo, hi + 1, dtype=np.float64)
    terms = (gammaln(size + 1.0) - gammaln(j + 1.0) - gammaln(size - j + 1.0)
             + gammaln(rest + 1.0) - gammaln(m - j + 1.0) - gammaln(rest - m + j + 1.0)
             - log_binomial_coefficient(total, m))
    return min(log_sum_exp(np.minimum(terms, 0.0)), 0.0)


def union_bound_hypergeometric(query: FailureQuery) -> tuple[DeltaResult, DeltaResult]:
    """Union bounds under the exactly-M model.

    Returns (exact tail sum, Hoeffding form).  The first sums the exact
    per-committee marginal tails; the second replaces each tail by
    exp(-n D(q || M/N)), valid when M/N < q < 1.
    """
    m = _require_exact(query)
    layout = query.layout
    n_total = layout.total
    global_rate = m / n_total
    exact_terms = []
    hoeffding_terms = []
    precondition_ok = True
    for size, mult in layout.runs:
        cap = floor_rate_multiple(query.threshold, size)
        if cap >= size:
            continue
        log_tail = _marginal_log_tail(size, n_total, m, cap)
        if log_tail > LOG_ZERO:
            exact_terms.append(math.log(mult) + log_tail)
        q = (cap + 1) / size
        if not global_rate < q < 1.0:
            precondition_ok = False
            hoeffding_terms.append(math.log(mult))
            continue
        hoeffding_terms.append(math.log(mult) - size * kl_divergence(q, global_rate))
    warnings = () if precondition_ok else (
        "Hoeffding precondition violated for some committee",)
    exact = _result_from_raw_log_delta(
        "union-hyper-exact",
        log_sum_exp(np.array(exact_terms)) if exact_terms else LOG_ZERO,
    )
    hoeffding = _result_from_raw_log_delta(
        "union-hyper-hoeffding",
        log_sum_exp(np.array(hoeffding_terms)) if hoeffding_terms else LOG_ZERO,
        precondition_ok=precondition_ok, warnings=warnings,
    )
    return exact, hoeffding
