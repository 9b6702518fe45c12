"""Committee sizing: how many committees, and how large, for a target risk.

Two directions are covered, each under either adversary model, and both
decide a layout by one feasibility predicate: a sandwich on delta from the
tail law that ``METHODS`` holds for a tag.  ``max_committees`` fixes the node
total and returns the largest committee count whose n/(n+1) split meets the
target.  ``scan_committee_size`` fixes the committee count and finds the
smallest per-committee size meeting the target, at n and n + 1, by one linear
scan keyed by an analytic method tag: ``min_committee_size`` runs it on a
model's exact tag, and the CLI's sweep-n on each tag it lists.

``size_bracket`` gives closed-form bounds on that smallest size; both
endpoints grow only logarithmically in the committee count (and in the
inverse target).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# perfbench's tracer self-test checks that sizing.delta_exact_binomial is restored
from .failure import _log_sandwich, delta_exact_binomial  # noqa: F401
from .methods import EXACT_TAGS, METHODS, method_query
from .partitions import CommitteeLayout, layout_from_split
from .probcore import RateLike, kl_divergence, rate_as_float, stable_complement_product

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


def _exact_tag(model: str) -> str:
    if model not in EXACT_TAGS:
        raise ValueError(f"model must be 'average' or 'exact', got {model!r}")
    return EXACT_TAGS[model]


def _delta(layout: CommitteeLayout, tag: str, threshold, rate) -> float:
    """delta of the method ``tag`` on a layout at adversary rate P (M = round(N P))."""
    method = METHODS[tag]
    return method.evaluate(method_query(method.model, layout, threshold, rate)).delta


def _feasibility(tag: str, threshold, rate,
                 delta_target: RateLike) -> Callable[[CommitteeLayout], bool]:
    """Whether a layout's delta by the analytic method ``tag`` is at most the target.

    Sizing builds it for a model's exact tag, sweep-n for any analytic tag; it
    rejects a tag with no evaluator and an adversary rate at or above the
    threshold.  A tag with no law is decided by its evaluator.  A layout is
    settled by the first step that can: 1 - prod_g (1 - H_g)^m_g past the
    target, with H_g <= T_g the law's head and tail of one committee of run g;
    ``failure._log_sandwich`` over the tails; or the evaluator, each within a
    rounding margin on log delta.
    """
    method = METHODS.get(tag)
    if method is None or method.evaluate is None:
        raise ValueError(f"no analytic method {tag!r} to size by")
    if rate_as_float(rate, "adversary_rate") >= rate_as_float(threshold, "threshold"):
        raise ValueError("sizing needs adversary_rate below threshold")
    target = _validate_target(delta_target)
    law = method.law
    if law is None:
        return lambda layout: _delta(layout, tag, threshold, rate) <= target
    bind, head, tail = law(rate)
    log_target = math.log(target)

    def feasible(layout: CommitteeLayout) -> bool:
        key, magnitude = bind(layout)
        # covers the rounding of the log terms, of 64 ratio steps and of log_target
        margin = 16 * math.ulp(magnitude) + 2.0 ** -40
        goal = margin - _log_per_committee_budget(target, layout.committee_count)
        runs = layout.allowances(threshold)
        if stable_complement_product([(head(key, size, cap, goal), mult)
                                      for size, mult, cap in runs]) > log_target + margin:
            return False
        lower, upper = _log_sandwich([(tail(key, size, cap), mult)
                                      for size, mult, cap in runs])
        if upper < log_target - margin:
            return True
        return lower <= log_target + margin and _delta(layout, tag, threshold, rate) <= target

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
    tag = _exact_tag(model)
    feasible = _feasibility(tag, threshold, adversary_rate, delta_target)
    best = max((k for k in range(2, n_total + 1)
                if feasible(layout_from_split(n_total, k))), default=1)
    prob = 0.0 if best == 1 else _delta(layout_from_split(n_total, best), tag,
                                        threshold, adversary_rate)
    return SizingResult(best, *divmod(n_total, best), prob, iterations=n_total - 1)


def scan_committee_size(committees: int, delta_target: RateLike, threshold: RateLike,
                        adversary_rate: RateLike, tag: str) -> int:
    """Smallest size n of K equal committees whose delta by the analytic
    method ``tag`` meets the target at both n and n + 1 (at ``MAX_SIZE``, n
    alone), deciding each n once by ``_feasibility``.

    One linear scan over n = 1, 2, ...: no bisection is valid, since the
    allowed count floor(A n) jumps at multiples of 1/A, and under an
    exactly-M tag M = round(n K P) rounds, so the failure probability is not
    monotone in n.  Requiring n + 1 too skips isolated one-off feasible sizes.
    """
    k = int(committees)
    if k < 1:
        raise ValueError(f"committees must be positive, got {committees}")
    feasible = _feasibility(tag, threshold, adversary_rate, delta_target)
    ok = functools.cache(lambda n: feasible(CommitteeLayout.from_runs(((n, k),))))
    for n in range(1, MAX_SIZE + 1):
        if ok(n) and (n == MAX_SIZE or ok(n + 1)):
            return n
    raise ValueError(f"no committee size up to {MAX_SIZE} meets the target")


def min_committee_size(committees: int, delta_target: RateLike, threshold: RateLike,
                       adversary_rate: RateLike, model: str = "average") -> int:
    """Smallest committee size n meeting the target with K equal committees:
    ``scan_committee_size`` on the model's exact tag.

    "average" decides each n by the exact product-binomial probability;
    "exact" pins the adversary count to round(n K P).
    """
    return scan_committee_size(committees, delta_target, threshold, adversary_rate,
                               _exact_tag(model))


@functools.lru_cache(maxsize=1024)
def _log_per_committee_budget(delta_target: float, committees: int) -> float:
    """-log(1 - (1 - delta)^(1/K)), evaluated through log1p/expm1."""
    inner = -math.expm1(math.log1p(-delta_target) / committees)
    return -math.log(inner)


@functools.lru_cache(maxsize=1024)
def _f_tilde(a: float, p: float) -> float:
    """f_tilde(A) of ``size_bracket``: it depends on (A, P) only, so each
    pair is scanned once.

    One numpy pass over n finds the maximum to within rounding.  The n whose
    value lies within 1e-9 of it (relative, or absolute below 1e-3) are then
    evaluated by the scalar expression, so the result is bit for bit that of
    a scalar loop over every n.
    """
    n = np.arange(1, F_TILDE_SCAN_LIMIT + 1, dtype=np.float64)
    arg = a + 1.0 / n
    n, arg = n[arg < 1.0], arg[arg < 1.0]
    if not n.size:
        raise ValueError("f_tilde scan found no admissible argument below 1")
    kl = arg * np.log(arg / p) + (1.0 - arg) * np.log((1.0 - arg) / (1.0 - p))
    values = np.maximum(kl, 0.0) + np.log(arg * (1.0 - arg)) / (2.0 * n)
    top = float(values.max())

    def value(k: int) -> float:
        arg = a + 1.0 / k
        return kl_divergence(arg, p) + math.log(arg * (1.0 - arg)) / (2.0 * k)

    return max(value(int(k)) for k in n[values >= top - 1e-9 * max(abs(top), 1e-3)])


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
