"""The method registry: every method tag, its adversary model, evaluator and law.

``METHODS`` serves the CLI's delta, bounds, asymptotic and sweeps and the
sizing predicates; ``method_query`` is the one place where a model and a
rate P or count M become a ``FailureQuery``.  The seven KL entries are the
rows of ``failure._KL_BOUNDS``, one run-table walk per tag.  ``law`` is the
exact per-committee tail law that sizing reads.  Evaluators are looked up by
module-global name at call time, not held as function objects, so that
rebinding a name here (as instrumentation does) reaches every caller.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .failure import _KL_BOUNDS, DeltaResult, FailureQuery, _kl_bound, _union_hyper_exact
from .failure import _binomial_law, _hypergeometric_law
from .failure import delta_exact_binomial, delta_exact_hypergeometric
from .partitions import (AverageAdversary, CommitteeLayout, ExactAdversary,
                         exact_count_from_rate)
from .probcore import RateLike
from .saddle import delta_asymptotic


class Method(NamedTuple):
    model: str  # "average": nodes adversarial at rate P; "exact": exactly M
    evaluate: Callable[[FailureQuery], DeltaResult] | None  # None for Monte Carlo
    law: Callable | None = None  # rate -> (bind, head, tail) of its exact tails


def _kl_method(tag: str) -> Method:
    return Method(_KL_BOUNDS[tag][0], lambda q: _kl_bound(tag, q))


METHODS = {
    "exact-binomial": Method("average", lambda q: delta_exact_binomial(q), _binomial_law),
    "exact-hypergeometric": Method("exact", lambda q: delta_exact_hypergeometric(q),
                                   _hypergeometric_law),
    "asymptotic": Method("exact", lambda q: delta_asymptotic(
        q.layout, q.adversary.count, q.threshold)),
    "union-hyper-exact": Method("exact", lambda q: _union_hyper_exact(q), _hypergeometric_law),
    **{tag: _kl_method(tag) for tag in _KL_BOUNDS},
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
