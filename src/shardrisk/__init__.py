"""Failure probabilities, tail bounds, asymptotics and sizing for random
committee partitions of a node network."""

from .failure import (
    DeltaResult,
    FailureQuery,
    delta_exact_binomial,
    delta_exact_hypergeometric,
    theorem1_bounds,
    union_bound_fixed_sizes,
    union_bound_hypergeometric,
    union_bound_random_sizes,
)
from .partitions import (
    AdversaryModel,
    AverageAdversary,
    CommitteeLayout,
    ExactAdversary,
    exact_count_from_rate,
    hypergeometric_marginal_log_pmf,
    layout_from_split,
)
from .probcore import (
    LOG_ZERO,
    binomial_tail_and_cdf,
    kl_divergence,
    log1mexp,
    log_binomial_coefficient,
    stable_complement_product,
)
from .saddle import (
    SaddleSolution,
    TruncatedBinomialSummary,
    delta_asymptotic,
    solve_saddle,
    truncated_binomial_summary,
)
from .simulate import (
    DeltaEstimate,
    SimulationPlan,
    estimate_delta,
)
from .sizing import (
    SizeBracket,
    SizingResult,
    bracket_expansions,
    max_committees,
    min_committee_size,
    size_bracket,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryModel",
    "AverageAdversary",
    "CommitteeLayout",
    "DeltaEstimate",
    "DeltaResult",
    "ExactAdversary",
    "FailureQuery",
    "LOG_ZERO",
    "SaddleSolution",
    "SimulationPlan",
    "SizeBracket",
    "SizingResult",
    "TruncatedBinomialSummary",
    "binomial_tail_and_cdf",
    "bracket_expansions",
    "delta_asymptotic",
    "delta_exact_binomial",
    "delta_exact_hypergeometric",
    "estimate_delta",
    "exact_count_from_rate",
    "hypergeometric_marginal_log_pmf",
    "kl_divergence",
    "layout_from_split",
    "log1mexp",
    "log_binomial_coefficient",
    "max_committees",
    "min_committee_size",
    "size_bracket",
    "solve_saddle",
    "stable_complement_product",
    "theorem1_bounds",
    "truncated_binomial_summary",
    "union_bound_fixed_sizes",
    "union_bound_hypergeometric",
    "union_bound_random_sizes",
]
