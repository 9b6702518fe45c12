"""Committee sizing: how many committees, and how large, for a target risk.

Two directions are covered, each under either adversary model, and both
decide a layout by one feasibility predicate.  ``max_committees`` fixes the
node total and returns the largest committee count whose n/(n+1) split
meets the target.  ``min_committee_size`` fixes the committee count and
finds the smallest per-committee size meeting the target by one linear
scan, ``scan_committee_size``, which the CLI's sweep-n also uses for every
method.

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
    _marginal_log_tail,
    delta_exact_binomial,
    delta_exact_hypergeometric,
)
from .partitions import (
    AverageAdversary,
    CommitteeLayout,
    ExactAdversary,
    _marginal_log_pmf,
    exact_count_from_rate,
    layout_from_split,
)
from .probcore import (
    LOG_ZERO,
    RateLike,
    floor_rate_multiple,
    kl_divergence,
    log_sum_exp,
    rate_as_float,
    stable_complement_product,
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


def _delta(layout: CommitteeLayout, model: str, threshold, rate) -> float:
    """Exact failure probability under the model ("exact": M = round(N P))."""
    if model == "average":
        query = FailureQuery(layout, AverageAdversary(rate), threshold)
        return delta_exact_binomial(query).delta
    adversary = ExactAdversary(exact_count_from_rate(layout.total, rate))
    return delta_exact_hypergeometric(FailureQuery(layout, adversary, threshold)).delta


def _log_tail_head(cap: int, size: int, total: int, m: int, goal: float) -> float:
    """Lower bound on log P(count > cap) under exactly-M: a head of the pmf sum."""
    j, rest = cap + 1, total - size
    if j > min(size, m) or m - j > rest:
        return LOG_ZERO
    log_first = _marginal_log_pmf(j, size, total, m)
    if log_first > goal:
        return log_first
    need = math.exp(min(goal - log_first, 700.0))  # finite far below the goal
    s = t = 1.0
    for j in range(cap + 1, min(cap + 65, size, m)):
        t *= (size - j) * (m - j) / ((j + 1) * (rest - m + j + 1))
        s += t
        if s > need or t < 2.0 ** -20 * s:  # past the goal, or little left to add
            break
    return log_first + math.log(s)


def _feasibility(model: str, threshold, rate,
                 delta_target: RateLike) -> Callable[[CommitteeLayout], bool]:
    """Whether a layout's exact failure probability is at most the target.

    Both sizing directions build it, and it rejects an adversary rate at or
    above the threshold, where larger committees do not lower the risk
    toward zero.  Under "exact" (M = round(N P)) the FFT evaluator runs only where a
    sandwich straddles the target.  Multivariate hypergeometric counts are
    negatively associated (Joag-Dev & Proschan 1983), so with T_g the
    marginal tail of one committee of run g, 1 - prod_g (1 - T_g)^m_g <=
    delta <= sum_g m_g T_g.  First, a layout is infeasible if every T_g, bounded
    below by a head of its pmf sum, exceeds the per-committee share of the
    target; then both ends are tried with one log-gamma row per run.
    """
    if rate_as_float(rate, "adversary_rate") >= rate_as_float(threshold, "threshold"):
        raise ValueError("sizing needs adversary_rate below threshold")
    target = _validate_target(delta_target)
    if model == "average":
        return lambda layout: _delta(layout, model, threshold, rate) <= target
    if model != "exact":
        raise ValueError(f"model must be 'average' or 'exact', got {model!r}")
    log_target = math.log(target)

    def feasible(layout: CommitteeLayout) -> bool:
        total = layout.total
        m = exact_count_from_rate(total, rate)
        # covers the rounding of the log-gamma terms and of 64 ratio steps
        margin = 16 * math.ulp(math.lgamma(total + 1)) + 2.0 ** -45
        runs = [(size, mult, floor_rate_multiple(threshold, size))
                for size, mult in layout.runs]
        # a tail past this puts the lower end over the target if all K have it
        goal = margin - _log_per_committee_budget(target, layout.committee_count)
        if all(_log_tail_head(cap, size, total, m, goal) > goal for size, _, cap in runs):
            return False
        tails = [(_marginal_log_tail(size, total, m, cap), mult)
                 for size, mult, cap in runs]
        if log_sum_exp([math.log(mult) + tail for tail, mult in tails]) < log_target - margin:
            return True
        if stable_complement_product(tails) > log_target + margin:
            return False
        return _delta(layout, model, threshold, rate) <= target

    return feasible


def max_committees(
    total_nodes: int,
    delta_target: RateLike,
    threshold: RateLike,
    adversary_rate: RateLike,
    model: str = "average",
) -> SizingResult:
    """Largest committee count whose split keeps the risk at or below target.

    Decides every K from 2 up to N on the n/(n+1) split, under either model
    (see ``min_committee_size``), and returns the largest feasible K with its
    exact failure probability.  A first-crossing loop would be wrong: floor(A n)
    jumps at multiples of 1/A, so the risk is not monotone in K (N=60, target
    0.5, rate 1/4, A=1/3 is such a case).  The single-committee fallback reports
    probability 0 without being evaluated, as the classic loop's did.
    """
    n_total = int(total_nodes)
    if n_total < 1:
        raise ValueError(f"total_nodes must be positive, got {total_nodes}")
    a = rate_as_float(threshold, "threshold")
    if not 0.0 < a < 1.0:
        raise ValueError(f"threshold must lie strictly inside (0, 1), got {a!r}")
    feasible = _feasibility(model, threshold, adversary_rate, delta_target)
    best = max((k for k in range(2, n_total + 1)
                if feasible(layout_from_split(n_total, k))), default=1)
    prob = 0.0 if best == 1 else _delta(layout_from_split(n_total, best), model,
                                        threshold, adversary_rate)
    return SizingResult(best, *divmod(n_total, best), prob, iterations=n_total - 1)


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
    round(n K P), and each n is decided as ``_feasibility`` says.
    """
    k = int(committees)
    if k < 1:
        raise ValueError(f"committees must be positive, got {committees}")
    feasible = _feasibility(model, threshold, adversary_rate, delta_target)
    return scan_committee_size(lambda n: feasible(CommitteeLayout.from_runs(((n, k),))),
                               require_stable=require_stable)


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
