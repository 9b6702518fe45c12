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
exists iff P is below the average allowed fraction; the truncated mean is
strictly increasing in Q, so a plain bisection is robust.

This is a leading-order estimate: the dropped correction is O(1/N), there
is no rigorous error bound, and estimates slightly outside [0, 1] are
clamped with a flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .failure import DeltaResult, _result
from .partitions import CommitteeLayout
from .probcore import (
    LOG_ZERO,
    RateLike,
    floor_rate_multiple,
    kl_divergence,
    log1mexp,
    log_binomial_coefficients,
    rate_as_float,
)

__all__ = [
    "SaddleSolution",
    "TruncatedBinomialSummary",
    "delta_asymptotic",
    "solve_saddle",
    "truncated_binomial_summary",
]

_BRACKET_LO = 1e-12
_BRACKET_HI = 1.0 - 1e-12
_RESIDUAL_TOL = 1e-12
_MAX_ITER = 200


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
    j = np.arange(cap + 1, dtype=np.float64)
    log_w = (
        np.array(log_binomial_coefficients(size)[: cap + 1])
        + j * math.log(q)
        + (size - j) * math.log1p(-q)
    )
    shift = float(log_w.max())
    w = np.exp(log_w - shift)
    total = float(w.sum())
    log_mass = min(shift + math.log(total), 0.0)
    mean = float((j * w).sum() / total)
    second = float((j * j * w).sum() / total)
    return TruncatedBinomialSummary(log_mass=log_mass, mean=mean, second_moment=second)


def solve_saddle(
    layout: CommitteeLayout, adversary_rate: RateLike, threshold: RateLike
) -> SaddleSolution:
    """Find the tilt Q at which the capped means average to the adversary rate.

    Bisection over (1e-12, 1 - 1e-12) against an absolute residual of 1e-12,
    justified by the strict monotonicity of the capped mean in the tilt.
    The fully uncapped case (threshold >= 1) is solved in closed form:
    tilt = rate, psi = 0, variance_sum = N * rate * (1 - rate).
    """
    p = rate_as_float(adversary_rate, "adversary_rate")
    if not 0.0 < p < 1.0:
        raise ValueError(f"adversary_rate must lie strictly inside (0, 1), got {p!r}")
    a = rate_as_float(threshold, "threshold")
    n_total = layout.total
    runs = layout.runs
    caps = {size: min(floor_rate_multiple(threshold, size), size) for size, _ in runs}
    if all(caps[size] == size for size, _ in runs):
        return SaddleSolution(
            tilt=p,
            psi=0.0,
            variance_sum=n_total * p * (1.0 - p),
            mean_residual=0.0,
            converged=True,
        )
    if p >= a:
        raise ValueError(
            f"no tilt exists: adversary rate {p!r} must be strictly below the "
            f"threshold fraction {a!r}"
        )
    mean_sup = sum(mult * caps[size] for size, mult in runs) / n_total
    if p > mean_sup:
        raise ValueError(
            f"no tilt exists: adversary rate {p!r} exceeds the average "
            f"allowed fraction {mean_sup!r}"
        )

    lo, hi = _BRACKET_LO, _BRACKET_HI
    for _ in range(_MAX_ITER):
        q = 0.5 * (lo + hi)
        # the last step's summaries give psi and the variance sum too
        summaries = [(mult, truncated_binomial_summary(size, q, threshold))
                     for size, mult in runs]
        mean_acc = 0.0  # a plain loop: sum() compensates from Python 3.12
        for mult, summary in summaries:
            mean_acc += mult * summary.mean
        residual = mean_acc / n_total - p
        if abs(residual) <= _RESIDUAL_TOL:
            break
        if residual < 0.0:
            lo = q
        else:
            hi = q
        if hi - lo <= 1e-17:
            break
    psi = kl_divergence(p, q)
    variance_sum = 0.0
    for mult, summary in summaries:
        psi += mult * summary.log_mass / n_total
        variance_sum += mult * summary.variance
    return SaddleSolution(
        tilt=q,
        psi=psi,
        variance_sum=variance_sum,
        mean_residual=residual,
        converged=abs(residual) <= _RESIDUAL_TOL,
    )


def delta_asymptotic(
    layout: CommitteeLayout, adversary_count: int, threshold: RateLike
) -> DeltaResult:
    """Leading-order failure probability under the exactly-M model.

    Valid for 0 < M < N with M / N strictly below the threshold fraction.
    The survival estimate sqrt(N P (1-P) / variance_sum) * exp(N * psi) is
    clamped into [0, 1] with a flag when the leading order overshoots.
    """
    m = int(adversary_count)
    n_total = layout.total
    if not 0 < m < n_total:
        raise ValueError(f"adversary_count must lie strictly inside (0, {n_total})")
    a = rate_as_float(threshold, "threshold")
    p = m / n_total
    if a >= 1.0:
        return _result("asymptotic", LOG_ZERO, 0.0, clamped=False)
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

