"""Failure probabilities of random committee partitions, exact and bounded.

A partition fails when at least one committee holds strictly more than a
fraction A of adversarial nodes, i.e. a count of floor(A * size) + 1 or
higher.  This module evaluates the probability of that event

* exactly, under the independent-rate (product-binomial) model,
* exactly, under the exactly-M (hypergeometric) model, through a log-domain
  dynamic-programming convolution of truncated binomial-coefficient rows,
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
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .partitions import (
    AdversaryModel,
    AverageAdversary,
    CommitteeLayout,
    ExactAdversary,
    hypergeometric_marginal_log_pmf,
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
    "failure_threshold",
    "theorem1_bounds",
    "union_bound_fixed_sizes",
    "union_bound_hypergeometric",
    "union_bound_random_sizes",
]

#: Default node-count cap of the hypergeometric dynamic programme.
DP_NODE_CAP = 100_000


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


def failure_threshold(threshold: RateLike, committee_size: int) -> int:
    """Smallest adversary count at which a committee of this size fails.

    floor(A * size) + 1, with the floor taken in integer arithmetic when A
    is a Fraction.
    """
    size = int(committee_size)
    if size < 1:
        raise ValueError(f"committee_size must be positive, got {committee_size}")
    a = rate_as_float(threshold, "threshold")
    if not 0.0 < a < 1.0:
        raise ValueError(f"threshold must lie strictly inside (0, 1), got {threshold!r}")
    return floor_rate_multiple(threshold, size) + 1


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
# exact hypergeometric failure probability via log-domain DP convolution

_DP_BLOCK = 128


def _log_convolve_truncated(state: np.ndarray, row: np.ndarray) -> np.ndarray:
    """One DP step: log-domain convolution of ``state`` with ``row``.

    ``state[m]`` is the log coefficient of z^m accumulated so far; ``row[j]``
    is ln C(size, j) for the next committee, truncated at its allowed count.
    Shifts are processed in fixed-size blocks to bound memory at
    O(block * len(state)).
    """
    m_len = state.shape[0]
    out = np.full(m_len, LOG_ZERO)
    for start in range(0, row.shape[0], _DP_BLOCK):
        stop = min(start + _DP_BLOCK, row.shape[0])
        block = np.full((stop - start, m_len), LOG_ZERO)
        for i, j in enumerate(range(start, stop)):
            if j == 0:
                block[i] = state + row[0]
            else:
                block[i, j:] = state[:m_len - j] + row[j]
        top = block.max(axis=0)
        ok = top > LOG_ZERO
        if np.any(ok):
            partial = np.full(m_len, LOG_ZERO)
            partial[ok] = top[ok] + np.log(
                np.exp(block[:, ok] - top[ok]).sum(axis=0)
            )
            out = np.logaddexp(out, partial)
    return out


def _log_truncated_coefficient(runs: Sequence[tuple[int, int, int]],
                               target: int) -> float:
    """log of the z^target coefficient of prod_mu sum_{j<=cap_mu} C(n_mu,j) z^j.

    ``runs`` holds (size, cap, multiplicity) in committee order.
    """
    state = np.full(target + 1, LOG_ZERO)
    state[0] = 0.0
    for size, cap, mult in runs:
        top = min(cap, size, target)
        row = np.array(log_binomial_coefficients(size)[: top + 1])
        for _ in range(mult):
            state = _log_convolve_truncated(state, row)
    return float(state[target])


def delta_exact_hypergeometric(query: FailureQuery, *,
                               node_cap: int = DP_NODE_CAP) -> DeltaResult:
    """Exact failure probability under the exactly-M model.

    The survival probability is the z^M coefficient of the product of
    per-committee generating polynomials truncated at the allowed counts,
    normalised by C(N, M).  The coefficient is accumulated committee by
    committee in log domain: O(K * M * max allowed count) time, O(M) space.
    Above ``node_cap`` nodes the cost grows quadratically; raise the cap
    explicitly if you really want the DP there, otherwise use the
    saddle-point asymptotic.
    """
    m = _require_exact(query)
    layout = query.layout
    n_total = layout.total
    if n_total > node_cap:
        raise ValueError(
            f"{n_total} nodes exceeds the DP cap of {node_cap}; raise node_cap "
            "or use the asymptotic evaluator"
        )
    runs = [(size, floor_rate_multiple(query.threshold, size), mult)
            for size, mult in layout.runs]
    if all(cap >= size for size, cap, _ in runs):
        return _result_from_log_survival("exact-hypergeometric", 0.0)
    if m <= min(cap for _, cap, _ in runs):
        # no committee can exceed its allowance even if every adversary lands in it
        return _result_from_log_survival("exact-hypergeometric", 0.0)
    log_numer = _log_truncated_coefficient(runs, m)
    log_survival = log_numer - log_binomial_coefficient(n_total, m)
    warnings = ()
    if log_survival > 1e-9:
        warnings = (f"survival log-value {log_survival:.3e} clamped to 0",)
    return _result_from_log_survival("exact-hypergeometric",
                                     min(log_survival, 0.0), warnings=warnings)


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
    """log P(count > cap) for one committee under the exactly-M model."""
    lo = cap + 1
    hi = min(size, m)
    if lo > hi:
        return LOG_ZERO
    terms = [
        hypergeometric_marginal_log_pmf(j, size, total, m)
        for j in range(lo, hi + 1)
    ]
    return min(log_sum_exp(np.array(terms)), 0.0)


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
