"""Seeded Monte Carlo validation of the analytic failure probabilities.

Samples are drawn in fixed-size chunks, each chunk from its own splittable
substream keyed by (seed, chunk index).  The chunk grid depends only on the
sample count, never on the worker pool, so a run with 8 workers produces
bit-identical failure counts to a run with 1.  Failure counting is an
order-independent integer sum over chunks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .failure import FailureQuery
from .partitions import AverageAdversary, CommitteeLayout, ExactAdversary
from .probcore import floor_rate_multiple

__all__ = [
    "DeltaEstimate",
    "SimulationPlan",
    "estimate_delta",
    "sample_counts_average",
    "sample_counts_exact",
]

#: Samples per RNG substream; fixed so results never depend on worker count.
CHUNK_SAMPLES = 32768


@dataclass(frozen=True)
class SimulationPlan:
    """What to simulate: a failure query, a sample budget, a seed, workers."""

    query: FailureQuery
    samples: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")


@dataclass(frozen=True)
class DeltaEstimate:
    """Empirical failure probability with a 95% confidence interval."""

    failures: int
    samples: int
    delta_hat: float
    std_error: float
    ci95: tuple[float, float]


def sample_counts_average(
    layout: CommitteeLayout, rates, rng: np.random.Generator
) -> np.ndarray:
    """One draw of per-committee adversary counts, independent-rate model."""
    adversary = rates if isinstance(rates, AverageAdversary) else AverageAdversary(rates)
    per_committee = np.asarray(adversary.rates_for(layout.committee_count))
    return rng.binomial(layout.sizes_array(), per_committee)


def sample_counts_exact(
    layout: CommitteeLayout, adversary_count: int, rng: np.random.Generator
) -> np.ndarray:
    """One draw of per-committee adversary counts, exactly-M model.

    Sequential removal without replacement: committee by committee, each
    receives a univariate hypergeometric share of the remaining adversaries
    (the generator's multivariate hypergeometric marginals method).
    """
    m = int(adversary_count)
    if not 0 <= m <= layout.total:
        raise ValueError(f"adversary_count {m} outside [0, {layout.total}]")
    return rng.multivariate_hypergeometric(layout.sizes_array(), m)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(seq))


def _failure_count_chunk(plan: SimulationPlan, chunk_index: int, count: int,
                         caps: np.ndarray) -> int:
    rng = _chunk_rng(plan.seed, chunk_index)
    layout = plan.query.layout
    adversary = plan.query.adversary
    if isinstance(adversary, AverageAdversary):
        rates = np.asarray(adversary.rates_for(layout.committee_count))
        counts = rng.binomial(layout.sizes_array(), rates,
                              size=(count, layout.committee_count))
    elif isinstance(adversary, ExactAdversary):
        counts = rng.multivariate_hypergeometric(
            layout.sizes_array(), adversary.count, size=count)
    else:
        raise ValueError(f"unsupported adversary model {adversary!r}")
    return int((counts > caps).any(axis=1).sum())


def _confidence_interval(failures: int, samples: int, delta_hat: float,
                         std_error: float) -> tuple[float, float]:
    # normal approximation, with a rule-of-three style fallback when either
    # outcome was observed fewer than 5 times
    if failures < 5:
        return 0.0, min(1.0, (failures + 3.0) / samples)
    if samples - failures < 5:
        return max(0.0, (failures - 3.0) / samples), 1.0
    half = 1.96 * std_error
    return max(0.0, delta_hat - half), min(1.0, delta_hat + half)


def estimate_delta(plan: SimulationPlan) -> DeltaEstimate:
    """Monte Carlo estimate of the failure probability for a plan.

    Reproducible: the result is a pure function of (query, samples, seed).
    """
    layout = plan.query.layout
    sizes, mults = zip(*layout.runs)
    caps = np.repeat(
        np.array([floor_rate_multiple(plan.query.threshold, s) for s in sizes],
                 dtype=np.int64),
        mults,
    )
    chunks = []
    remaining = plan.samples
    index = 0
    while remaining > 0:
        take = min(CHUNK_SAMPLES, remaining)
        chunks.append((index, take))
        remaining -= take
        index += 1

    if plan.workers == 1 or len(chunks) == 1:
        failures = sum(
            _failure_count_chunk(plan, idx, count, caps) for idx, count in chunks
        )
    else:
        with ThreadPoolExecutor(max_workers=plan.workers) as pool:
            failures = sum(
                pool.map(
                    lambda item: _failure_count_chunk(plan, item[0], item[1], caps),
                    chunks,
                )
            )

    delta_hat = failures / plan.samples
    std_error = math.sqrt(delta_hat * (1.0 - delta_hat) / plan.samples)
    ci95 = _confidence_interval(failures, plan.samples, delta_hat, std_error)
    return DeltaEstimate(
        failures=failures,
        samples=plan.samples,
        delta_hat=delta_hat,
        std_error=std_error,
        ci95=ci95,
    )
