"""The method registry: every method tag, its adversary model, evaluator and law.

``METHODS`` serves the CLI's delta, bounds, asymptotic and sweeps and the
sizing predicates; ``method_query`` is the one place where a model and a
rate P or count M become a ``FailureQuery``.  The eight bound entries are the
rows of ``failure._BOUNDS``, each evaluated by the one walk ``failure._bound``.
``law`` gives per rate P each layout's count law, whose tails sizing reads.  Evaluators
are looked up by module-global name at call time, not held as function
objects, so that rebinding a name here (as instrumentation does) reaches
every caller.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .failure import _BOUNDS, DeltaResult, FailureQuery, _bound
from .failure import delta_exact_binomial, delta_exact_hypergeometric
from .partitions import (AverageAdversary, CommitteeLayout, ExactAdversary,
                         exact_count_from_rate)
from .probcore import BinomialCounts, CountLaw, HypergeometricCounts, RateLike
from .saddle import delta_asymptotic


class Method(NamedTuple):
    model: str  # "average": nodes adversarial at rate P; "exact": exactly M
    evaluate: Callable[[FailureQuery], DeltaResult] | None  # None for Monte Carlo
    law: Callable | None = None  # rate -> (layout -> CountLaw) of its exact tails


def _binomial_law(rate: RateLike) -> Callable[[CommitteeLayout], CountLaw]:
    """Binomial(n, P) counts on every layout: the law of exact-binomial."""
    law = BinomialCounts(float(rate))
    return lambda layout: law


def _hypergeometric_law(rate: RateLike) -> Callable[[CommitteeLayout], CountLaw]:
    """M = round(N P) of a layout's N nodes: exact-hypergeometric, union-hyper-exact."""
    return lambda layout: HypergeometricCounts(n := layout.total, exact_count_from_rate(n, rate))


METHODS = {
    "exact-binomial": Method("average", lambda q: delta_exact_binomial(q), _binomial_law),
    "exact-hypergeometric": Method("exact", lambda q: delta_exact_hypergeometric(q),
                                   _hypergeometric_law),
    "asymptotic": Method("exact", lambda q: delta_asymptotic(
        q.layout, q.adversary.count, q.threshold)),
    **{tag: Method(model, lambda q, tag=tag: _bound(tag, q),
                   _hypergeometric_law if tag == "union-hyper-exact" else None)
       for tag, (model, _, _) in _BOUNDS.items()},
    "monte-carlo-average": Method("average", None),
    "monte-carlo-exact": Method("exact", None),
}

# each adversary model's exact evaluator
EXACT_TAGS = {"average": "exact-binomial", "exact": "exact-hypergeometric"}


def method_query(model: str, layout: CommitteeLayout, threshold: RateLike,
                 rate: RateLike | None, count: int | None = None) -> FailureQuery:
    """Nodes adversarial at rate P under "average"; under "exact", exactly M
    adversaries, M the given count or round(N P)."""
    if model == "average":
        return FailureQuery(layout, AverageAdversary(rate), threshold)
    m = exact_count_from_rate(layout.total, rate) if count is None else count
    return FailureQuery(layout, ExactAdversary(m), threshold)
