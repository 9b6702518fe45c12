"""Saddle-point asymptotics for the exactly-M failure probability.

The survival probability under the exactly-M model is a ratio of two
polynomial coefficients.  For large node counts that ratio is governed by
an exponentially tilted family: pick the tilt Q at which the truncated
binomial means average to the adversary fraction P = M / N, then

    survival ~ sqrt(N P (1 - P) / sum_mu Var_mu) * exp(N * psi(Q))

where Var_mu is the variance of Binomial(n_mu, Q) conditioned on staying
at or below the allowed count, and

    psi(Q) = D(P || Q) + (1 / N) * sum_mu log mass_mu(Q)

with mass_mu the probability that the conditioned event holds.  The tilt
exists iff P is at most the average allowed fraction.  The truncated mean
increases in u = logit Q with slope equal to its variance, so the tilt is
found by the exactly-M evaluator's safeguarded Newton search on u.

This is a leading-order estimate: the dropped correction is O(1/N), there
is no rigorous error bound, and estimates slightly outside [0, 1] are
clamped with a flag.  At M equal to the total allowance the estimate does
not apply (Q runs to 1); there every committee holds exactly its allowed
count, and the survival has the closed form prod_mu C(n_mu, cap_mu) / C(N, M).
Beyond it some committee must fail and delta is exactly 1; at M = 0 it is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .failure import DeltaResult, _cap_groups, _part, _result, _saddle_tilt, _tilt_moments
from .partitions import CommitteeLayout
from .probcore import (
    LOG_ZERO,
    RateLike,
    floor_rate_multiple,
    kl_divergence,
    log1mexp,
    log_binomial_coefficient,
    rate_as_float,
)

__all__ = [
    "SaddleSolution",
    "TruncatedBinomialSummary",
    "delta_asymptotic",
    "solve_saddle",
    "truncated_binomial_summary",
]

_RESIDUAL_TOL = 1e-12
# the tilt search keeps Q in [1e-12, 1 - 1e-12]: |u| <= logit(1 - 1e-12)
_TILT_LIMIT = math.log1p(-1e-12) - math.log(1e-12)


@dataclass(frozen=True)
class TruncatedBinomialSummary:
    """Mass and first two moments of a count-capped binomial.

    For X ~ Binomial(size, tilt) conditioned on X <= floor(threshold * size):
    ``log_mass`` is the log of the conditioning probability, ``mean`` and
    ``second_moment`` are moments of the conditioned law.
    """

    log_mass: float
    mean: float
    second_moment: float

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean * self.mean


@dataclass(frozen=True)
class SaddleSolution:
    """Solution of the tilt equation plus the quantities built from it."""

    tilt: float
    psi: float
    variance_sum: float
    mean_residual: float
    converged: bool


def _log_mass(part, size: int, u: float) -> float:
    """ln P(Binomial(size, Q) <= cap) from the part of the e^(u j) weights."""
    return part.log_mass - size * math.log1p(math.exp(u))


def truncated_binomial_summary(
    committee_size: int, tilt: RateLike, threshold: RateLike
) -> TruncatedBinomialSummary:
    """Summarise Binomial(size, tilt) conditioned on counts <= floor(A*size)."""
    size = int(committee_size)
    if size < 1:
        raise ValueError(f"committee_size must be positive, got {committee_size}")
    q = rate_as_float(tilt, "tilt")
    if not 0.0 < q < 1.0:
        raise ValueError(f"tilt must lie strictly inside (0, 1), got {tilt!r}")
    a = rate_as_float(threshold, "threshold")
    if a <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold!r}")
    cap = min(floor_rate_multiple(threshold, size), size)
    u = math.log(q) - math.log1p(-q)
    (g,) = _cap_groups([(size, 1, cap, cap)])
    part = _part(g.log_coeffs + u * g.counts, g.counts, g.counts_sq)
    return TruncatedBinomialSummary(min(_log_mass(part, size, u), 0.0), part.mean,
                                    part.var + part.mean * part.mean)


def solve_saddle(
    layout: CommitteeLayout, adversary_rate: RateLike, threshold: RateLike
) -> SaddleSolution:
    """Find the tilt Q at which the capped means average to the adversary rate.

    Safeguarded Newton on u = logit Q within |u| <= logit(1 - 1e-12), to an
    absolute residual of 1e-12 in the average capped mean; the mean is
    strictly increasing in u.  At the average allowance the mean only tends
    to the rate as Q -> 1, and the search starts at the bracket's upper end,
    where the residual is already below the tolerance.  The returned
    quantities are evaluated at u = logit(tilt), so that they match
    ``truncated_binomial_summary`` at the returned tilt.  The fully uncapped
    case (threshold >= 1) is solved in closed form: tilt = rate, psi = 0,
    variance_sum = N * rate * (1 - rate).
    """
    p = rate_as_float(adversary_rate, "adversary_rate")
    if not 0.0 < p < 1.0:
        raise ValueError(f"adversary_rate must lie strictly inside (0, 1), got {p!r}")
    a = rate_as_float(threshold, "threshold")
    n_total = layout.total
    runs = layout.allowances(threshold)
    if all(cap >= size for size, _, cap in runs):
        return SaddleSolution(tilt=p, psi=0.0, variance_sum=n_total * p * (1.0 - p),
                              mean_residual=0.0, converged=True)
    if p >= a:
        raise ValueError(
            f"no tilt exists: adversary rate {p!r} must be strictly below the "
            f"threshold fraction {a!r}"
        )
    mean_sup = sum(mult * cap for _, mult, cap in runs) / n_total
    if p > mean_sup:
        raise ValueError(
            f"no tilt exists: adversary rate {p!r} exceeds the average "
            f"allowed fraction {mean_sup!r}"
        )
    groups = _cap_groups((size, mult, cap, cap) for size, mult, cap in runs)
    u = _TILT_LIMIT if p == mean_sup else math.log(p) - math.log1p(-p)
    u, tilt = _saddle_tilt(groups, p * n_total, u, "surv",
                           lambda gap, _: abs(gap) <= _RESIDUAL_TOL * n_total,
                           _TILT_LIMIT)
    q = 1.0 / (1.0 + math.exp(-u))
    snapped = math.log(q) - math.log1p(-q)
    if snapped != u:  # the u that ``truncated_binomial_summary`` takes from q
        u, tilt = snapped, _tilt_moments(groups, snapped)
    residual = tilt.surv[0] / n_total - p
    psi = kl_divergence(p, q)
    for (size, mult, _), gt in zip(runs, tilt.groups):
        psi += mult * _log_mass(gt.surv, size, u) / n_total
    return SaddleSolution(tilt=q, psi=psi, variance_sum=tilt.surv[1], mean_residual=residual,
                          converged=abs(residual) <= _RESIDUAL_TOL)


def delta_asymptotic(
    layout: CommitteeLayout, adversary_count: int, threshold: RateLike
) -> DeltaResult:
    """Leading-order failure probability under the exactly-M model.

    For 0 < M below the total allowance, the survival estimate
    sqrt(N P (1-P) / variance_sum) * exp(N * psi) is clamped into [0, 1] with
    a flag when the leading order overshoots.  The edges are exact: 0 at
    M = 0 or A >= 1, 1 above the total allowance, and at the total allowance
    the survival prod_mu C(n_mu, cap_mu) / C(N, M).
    """
    m = int(adversary_count)
    n_total = layout.total
    if not 0 <= m <= n_total:
        raise ValueError(f"adversary_count must lie in [0, {n_total}]")
    a = rate_as_float(threshold, "threshold")
    p = m / n_total
    if m == 0 or a >= 1.0:
        return _result("asymptotic", LOG_ZERO, 0.0, clamped=False)
    runs = layout.allowances(threshold)
    allowance = sum(mult * cap for _, mult, cap in runs)
    if m > allowance:
        return _result("asymptotic", 0.0, LOG_ZERO, clamped=False)
    if m == allowance:
        log_survival = min(sum(mult * log_binomial_coefficient(size, cap)
                               for size, mult, cap in runs)
                           - log_binomial_coefficient(n_total, m), 0.0)
        return _result("asymptotic", log1mexp(log_survival), log_survival, clamped=False)
    solution = solve_saddle(layout, p, threshold)
    log_prefactor = 0.5 * (
        math.log(n_total * p * (1.0 - p)) - math.log(solution.variance_sum)
    )
    log_survival = log_prefactor + n_total * solution.psi
    if math.isnan(log_survival):
        raise ArithmeticError(
            f"asymptotic survival estimate is NaN (tilt={solution.tilt!r}, "
            f"psi={solution.psi!r}, variance_sum={solution.variance_sum!r})"
        )
    clamped = log_survival > 0.0
    warnings = ()
    if clamped:
        warnings = (f"survival estimate exp({log_survival:.3e}) clamped to 1",)
    if not solution.converged:
        warnings = warnings + ("tilt solve did not reach residual tolerance",)
    log_survival = min(log_survival, 0.0)
    return _result("asymptotic", log1mexp(log_survival), log_survival,
                   clamped=clamped, warnings=warnings)

