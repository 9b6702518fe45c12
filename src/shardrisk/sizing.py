"""Committee sizing: how many committees, and how large, for a target risk.

Two directions are covered.  ``max_committees`` fixes the node total and
grows the committee count until the failure probability first exceeds the
target, returning the last safe configuration (the classic repeat-until
loop, including its quirk of reporting probability 0 for the untouched
single-committee fallback).  ``min_committee_size`` fixes the committee
count and finds the smallest per-committee size meeting the target by
one linear scan, ``scan_committee_size``, which the CLI's sweep-n also
uses for every method.

``size_bracket`` gives closed-form bounds on that smallest size; both
endpoints grow only logarithmically in the committee count (and in the
inverse target).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .failure import (
    FailureQuery,
    delta_exact_binomial,
    delta_exact_hypergeometric,
    union_bound_hypergeometric,
)
from .partitions import (
    AverageAdversary,
    CommitteeLayout,
    ExactAdversary,
    exact_count_from_rate,
    hypergeometric_marginal_log_pmf,
    layout_from_split,
)
from .probcore import (
    LOG_ZERO,
    RateLike,
    floor_rate_multiple,
    kl_divergence,
    rate_as_float,
)

# largest committee size the sizing scan tries
MAX_SIZE = 1_000_000
# integer n scanned for the maximum defining f_tilde in ``size_bracket``
F_TILDE_SCAN_LIMIT = 10_000

__all__ = [
    "SizeBracket",
    "SizingResult",
    "max_committees",
    "min_committee_size",
    "scan_committee_size",
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


def _average_delta(layout: CommitteeLayout, threshold, rate) -> float:
    query = FailureQuery(layout, AverageAdversary(rate), threshold)
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
        prob = _average_delta(layout_from_split(n_total, committees), threshold,
                              adversary_rate)
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


def scan_committee_size(
    feasible: Callable[[int], bool], *, require_stable: bool = True
) -> int:
    """Smallest n in 1..MAX_SIZE with ``feasible(n)``, by a linear scan.

    With ``require_stable`` the size n + 1 must be feasible too (unless n
    is ``MAX_SIZE``).  ``feasible`` is called at most once per n.
    """
    ok = functools.cache(feasible)
    for n in range(1, MAX_SIZE + 1):
        if ok(n) and (not require_stable or n == MAX_SIZE or ok(n + 1)):
            return n
    raise ValueError(f"no committee size up to {MAX_SIZE} meets the target")


def _log_tail_head(cap: int, size: int, total: int, m: int, goal: float) -> float:
    """Lower bound on log P(count > cap) under exactly-M: a head of the pmf sum."""
    log_first = hypergeometric_marginal_log_pmf(cap + 1, size, total, m)
    if log_first == LOG_ZERO or log_first > goal:
        return log_first
    need, rest = math.exp(goal - log_first), total - size
    s = t = 1.0
    for j in range(cap + 1, min(cap + 65, size, m)):
        t *= (size - j) * (m - j) / ((j + 1) * (rest - m + j + 1))
        s += t
        if s > need or t < 2.0 ** -20 * s:  # past the goal, or little left to add
            break
    return log_first + math.log(s)


def min_committee_size(
    committees: int,
    delta_target: RateLike,
    threshold: RateLike,
    adversary_rate: RateLike,
    model: str = "average",
    *,
    require_stable: bool = True,
) -> int:
    """Smallest committee size n meeting the target with K equal committees.

    One linear scan over n = 1, 2, ... (``scan_committee_size``), each n
    evaluated once.  No bisection is valid: the allowed count floor(A n)
    jumps at multiples of 1/A, and under the exact model M = round(n K P)
    rounds, so the failure probability is not monotone in n.  By default
    feasibility is required at both n and n + 1, which skips isolated
    one-off feasible sizes; pass ``require_stable=False`` for the raw
    smallest feasible n.

    ``model`` selects the evaluator: "average" uses the exact
    product-binomial probability; "exact" pins the adversary count to
    round(n K P).  Multivariate hypergeometric counts are negatively
    associated (Joag-Dev & Proschan 1983), so with T the marginal tail of
    one committee, 1 - (1 - T)^K <= delta <= K T.  Each n is decided by the
    first of three steps that settles it: the lower end with T replaced by
    a head of its pmf sum (``_log_tail_head``), the sandwich with K T from
    ``union_bound_hypergeometric`` (one log-gamma row), and the FFT evaluator
    ``delta_exact_hypergeometric`` for the n whose sandwich straddles it.
    """
    k = int(committees)
    if k < 1:
        raise ValueError(f"committees must be positive, got {committees}")
    target = _validate_target(delta_target)
    if model not in ("average", "exact"):
        raise ValueError(f"model must be 'average' or 'exact', got {model!r}")
    p = rate_as_float(adversary_rate, "adversary_rate")
    a = rate_as_float(threshold, "threshold")
    if p >= a:
        raise ValueError("sizing needs adversary_rate below threshold")

    if model == "average":
        def feasible(n: int) -> bool:
            layout = CommitteeLayout.from_runs(((n, k),))
            return _average_delta(layout, threshold, adversary_rate) <= target
    else:
        # T above this puts the sandwich's lower end 1 - (1 - T)^K over the target
        log_tail_cut = -_log_per_committee_budget(target, k)

        def feasible(n: int) -> bool:
            total = n * k
            m = exact_count_from_rate(total, adversary_rate)
            # covers the rounding of the log-gamma terms and of 64 ratio steps
            margin = 16 * math.ulp(math.lgamma(total + 1)) + 2.0 ** -45
            cut = log_tail_cut + margin
            if _log_tail_head(floor_rate_multiple(threshold, n), n, total, m, cut) > cut:
                return False
            query = FailureQuery(CommitteeLayout.from_runs(((n, k),)),
                                 ExactAdversary(m), threshold)
            log_union = union_bound_hypergeometric(query)[0].raw_log_delta  # log K T
            if log_union < math.log(target) - margin:
                return True
            if log_union - math.log(k) > cut:
                return False
            return delta_exact_hypergeometric(query).delta <= target

    return scan_committee_size(feasible, require_stable=require_stable)


def _log_per_committee_budget(delta_target: float, committees: int) -> float:
    """-log(1 - (1 - delta)^(1/K)), evaluated through log1p/expm1."""
    inner = -math.expm1(math.log1p(-delta_target) / committees)
    return -math.log(inner)


@functools.lru_cache(maxsize=1024)
def _f_tilde(a: float, p: float) -> float:
    """f_tilde(A) of ``size_bracket``: it depends on (A, P) only, so each
    pair is scanned once."""
    f_tilde = -math.inf
    for n in range(1, F_TILDE_SCAN_LIMIT + 1):
        arg = a + 1.0 / n
        if arg >= 1.0:
            continue
        value = kl_divergence(arg, p) + math.log(arg * (1.0 - arg)) / (2.0 * n)
        f_tilde = max(f_tilde, value)
    if not math.isfinite(f_tilde):
        raise ValueError("f_tilde scan found no admissible argument below 1")
    return f_tilde


def size_bracket(
    committees: int,
    delta_target: RateLike,
    threshold: RateLike,
    adversary_rate: RateLike,
) -> SizeBracket:
    """Closed-form bracket on the minimal committee size for K committees.

    upper:  budget / D(A || P), with budget = -log(1 - (1-delta)^(1/K))
    lower:  (1 - log 8 + 2 * budget) / (2 * f_tilde(A) + 1)

    where f_tilde(A) maximises D(A + 1/n || P) + log((A+1/n)(1-A-1/n))/(2n)
    over integer n up to F_TILDE_SCAN_LIMIT, restricted to arguments inside
    (P, 1).  The budget term survives committee counts up to 1e9 thanks to
    log1p/expm1 evaluation.
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
    f_tilde = _f_tilde(a, p)
    lower = (1.0 - math.log(8.0) + 2.0 * budget) / (2.0 * f_tilde + 1.0)
    return SizeBracket(lower=lower, upper=upper, f_tilde=f_tilde)
