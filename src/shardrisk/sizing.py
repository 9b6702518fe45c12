"""Committee sizing: how many committees, and how large, for a target risk.

Two directions are covered.  ``max_committees`` fixes the node total and
grows the committee count until the failure probability first exceeds the
target, returning the last safe configuration (the classic repeat-until
loop, including its quirk of reporting probability 0 for the untouched
single-committee fallback).  ``min_committee_size`` fixes the committee
count and solves for the smallest per-committee size meeting the target.

``size_bracket`` gives closed-form bounds on that smallest size, and
``bracket_expansions`` provides the truncated series showing both bracket
endpoints grow only logarithmically in the committee count (and in the
inverse target).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .failure import FailureQuery, delta_exact_binomial, delta_exact_hypergeometric
from .partitions import (
    AverageAdversary,
    CommitteeLayout,
    ExactAdversary,
    exact_count_from_rate,
    layout_from_split,
)
from .probcore import RateLike, kl_divergence, rate_as_float

__all__ = [
    "SizeBracket",
    "SizingResult",
    "bracket_expansions",
    "max_committees",
    "min_committee_size",
    "size_bracket",
]


@dataclass(frozen=True)
class SizingResult:
    """Committee count K, base size n, remainder r, and the achieved risk."""

    committees: int
    base_size: int
    remainder: int
    prob: float
    iterations: int


@dataclass(frozen=True)
class SizeBracket:
    """Closed-form bounds on the minimal committee size, plus f_tilde."""

    lower: float
    upper: float
    f_tilde: float


def _validate_target(delta_target: RateLike) -> float:
    d = rate_as_float(delta_target, "delta_target")
    if not 0.0 < d < 1.0:
        raise ValueError(f"delta_target must lie strictly inside (0, 1), got {d!r}")
    return d


def _split_delta(total_nodes: int, committees: int, threshold, rate) -> float:
    query = FailureQuery(
        layout_from_split(total_nodes, committees),
        AverageAdversary(rate),
        threshold,
    )
    return delta_exact_binomial(query).delta


def max_committees(
    total_nodes: int,
    delta_target: RateLike,
    threshold: RateLike,
    adversary_rate: RateLike,
) -> SizingResult:
    """Largest committee count whose split keeps the risk at or below target.

    Evaluates the exact product-binomial failure probability of the
    n/(n+1) split for every K from 2 up to N and returns the largest
    feasible K.  A first-crossing repeat-until loop would be cheaper but
    wrong: the allowed count floor(A n) jumps at multiples of 1/A, so the
    risk is not monotone in K and feasible counts can reappear past the
    first overshoot (N=60, target 0.5, rate 1/4, A=1/3 is such a case).

    The single-committee fallback reports probability 0 without ever being
    evaluated, mirroring the classic loop's untouched initial state.
    """
    n_total = int(total_nodes)
    if n_total < 1:
        raise ValueError(f"total_nodes must be positive, got {total_nodes}")
    target = _validate_target(delta_target)
    a = rate_as_float(threshold, "threshold")
    if not 0.0 < a < 1.0:
        raise ValueError(f"threshold must lie strictly inside (0, 1), got {a!r}")
    p = rate_as_float(adversary_rate, "adversary_rate")
    if p >= 1.0:
        raise ValueError("adversary_rate must be below 1")

    best = (1, n_total, 0, 0.0)
    iterations = 0
    for committees in range(2, n_total + 1):
        base, rem = divmod(n_total, committees)
        prob = _split_delta(n_total, committees, threshold, adversary_rate)
        iterations += 1
        if prob <= target:
            best = (committees, base, rem, prob)
    return SizingResult(
        committees=best[0],
        base_size=best[1],
        remainder=best[2],
        prob=best[3],
        iterations=iterations,
    )


def _uniform_exact_delta(
    committees: int,
    size: int,
    threshold: RateLike,
    adversary_rate: RateLike,
) -> float:
    layout = CommitteeLayout.from_runs(((size, committees),))
    m = exact_count_from_rate(layout.total, adversary_rate)
    return delta_exact_hypergeometric(
        FailureQuery(layout, ExactAdversary(m), threshold)).delta


def min_committee_size(
    committees: int,
    delta_target: RateLike,
    threshold: RateLike,
    adversary_rate: RateLike,
    model: str = "average",
    *,
    max_size: int = 1_000_000,
    require_stable: bool = True,
) -> int:
    """Smallest committee size n meeting the target with K equal committees.

    The failure probability is not monotone in n (the allowed count jumps
    at multiples of 1/A), so by default feasibility is required at both n
    and n + 1, which skips isolated one-off feasible sizes; pass
    ``require_stable=False`` for the raw smallest feasible n.

    ``model`` selects the evaluator: "average" uses the exact
    product-binomial probability; "exact" pins the adversary count to
    round(n K P), evaluated by the exact hypergeometric evaluator at every
    node total.
    """
    k = int(committees)
    if k < 1:
        raise ValueError(f"committees must be positive, got {committees}")
    target = _validate_target(delta_target)
    if model not in ("average", "exact"):
        raise ValueError(f"model must be 'average' or 'exact', got {model!r}")
    p = rate_as_float(adversary_rate, "adversary_rate")
    a = rate_as_float(threshold, "threshold")
    if model == "exact" and p >= a:
        raise ValueError("the exact model needs adversary_rate below threshold")

    if model == "average":
        def delta_at(n: int) -> float:
            layout = CommitteeLayout.from_runs(((n, k),))
            query = FailureQuery(layout, AverageAdversary(adversary_rate), threshold)
            return delta_exact_binomial(query).delta
    else:
        def delta_at(n: int) -> float:
            return _uniform_exact_delta(k, n, threshold, adversary_rate)

    def feasible(n: int) -> bool:
        if delta_at(n) > target:
            return False
        if require_stable and n + 1 <= max_size:
            return delta_at(n + 1) <= target
        return True

    if model == "exact":
        # the exact evaluator is costlier; bracket with the (dominating) average
        # model and bisect down, then repair locally
        hi = min_committee_size(
            k, delta_target, threshold, adversary_rate, "average",
            max_size=max_size, require_stable=require_stable,
        )
        if not feasible(hi):  # dominance is empirical, fall back to a scan
            n = hi + 1
            while n <= max_size:
                if feasible(n):
                    return n
                n += 1
            raise ValueError(f"no committee size up to {max_size} meets the target")
        lo = 1
        while lo < hi:
            mid = (lo + hi) // 2
            if feasible(mid):
                hi = mid
            else:
                lo = mid + 1
        while hi > 1 and feasible(hi - 1):
            hi -= 1
        return hi

    for n in range(1, max_size + 1):
        if feasible(n):
            return n
    raise ValueError(f"no committee size up to {max_size} meets the target")


def _log_per_committee_budget(delta_target: float, committees: int) -> float:
    """-log(1 - (1 - delta)^(1/K)), evaluated through log1p/expm1."""
    inner = -math.expm1(math.log1p(-delta_target) / committees)
    return -math.log(inner)


def size_bracket(
    committees: int,
    delta_target: RateLike,
    threshold: RateLike,
    adversary_rate: RateLike,
    *,
    f_tilde_scan_limit: int = 10_000,
) -> SizeBracket:
    """Closed-form bracket on the minimal committee size for K committees.

    upper:  budget / D(A || P), with budget = -log(1 - (1-delta)^(1/K))
    lower:  (1 - log 8 + 2 * budget) / (2 * f_tilde(A) + 1)

    where f_tilde(A) maximises D(A + 1/n || P) + log((A+1/n)(1-A-1/n))/(2n)
    over integer n, restricted to arguments inside (P, 1).  The budget term
    survives committee counts up to 1e9 thanks to log1p/expm1 evaluation.
    """
    k = int(committees)
    if k < 1:
        raise ValueError(f"committees must be positive, got {committees}")
    target = _validate_target(delta_target)
    a = rate_as_float(threshold, "threshold")
    p = rate_as_float(adversary_rate, "adversary_rate")
    if not 0.0 < p < a < 1.0:
        raise ValueError(
            f"need 0 < adversary_rate < threshold < 1, got {p!r} and {a!r}"
        )
    budget = _log_per_committee_budget(target, k)
    upper = budget / kl_divergence(a, p)
    f_tilde = -math.inf
    for n in range(1, f_tilde_scan_limit + 1):
        arg = a + 1.0 / n
        if arg >= 1.0:
            continue
        value = kl_divergence(arg, p) + math.log(arg * (1.0 - arg)) / (2.0 * n)
        f_tilde = max(f_tilde, value)
    if not math.isfinite(f_tilde):
        raise ValueError("f_tilde scan found no admissible argument below 1")
    lower = (1.0 - math.log(8.0) + 2.0 * budget) / (2.0 * f_tilde + 1.0)
    return SizeBracket(lower=lower, upper=upper, f_tilde=f_tilde)


def bracket_expansions(delta_target: RateLike, committees: int) -> tuple[float, float]:
    """Truncated series for the bracket budget -log(1 - (1-delta)^(1/K)).

    Returns (large-K series through the K^-4 term, small-delta series
    through the delta^1 term); both are diagnostics to compare against the
    exact expression.
    """
    target = _validate_target(delta_target)
    k = int(committees)
    if k < 1:
        raise ValueError(f"committees must be positive, got {committees}")
    c = -math.log1p(-target)  # -log(1 - delta) > 0
    large_k = (
        -math.log(c)
        + math.log(k)
        + c / (2.0 * k)
        - c * c / (24.0 * k * k)
        + c ** 4 / (2880.0 * k ** 4)
    )
    small_delta = math.log(k) - math.log(target) - target * (k - 1) / (2.0 * k)
    return large_k, small_delta
