"""Seeded Monte Carlo validation of the analytic failure probabilities.

Samples are drawn in fixed-size chunks, each chunk from its own splittable
substream keyed by (seed, chunk index).  The chunk grid depends only on the
sample count, never on the worker pool, so a run with 8 workers produces
bit-identical failure counts to a run with 1.  Failure counting is an
order-independent integer sum over chunks.  ``estimate_delta`` tests the
adversary model once and binds that model's chunk kernel to its data for
the whole estimate: ``_average_failures`` with the per-group survival
probabilities or ``_exact_failures`` with the layout's run table of
(size, multiplicity, allowed count), ``CommitteeLayout.allowances``.

Only whether a committee exceeds its cap is counted, never its count.  The
average model's committees are independent, so a run of m committees of
equal size survives when the largest of their m uniforms is at most
c = P(Bin(n, p) <= cap), which happens with probability c^m.  Each sample
therefore draws one uniform per group and fails when some group's uniform
exceeds that group's c^m, the exponential of its term in the exact
log survival; the cost per sample is the group count, not the committee
count.  Where every group holds one committee this is the inversion method
stopped at the cap, and numpy's binomial sampler inverts the same uniform
when p <= 1/2 and n p <= 30, so there the failure counts equal those of
drawing full binomial counts, except for a uniform within rounding of the
CDF (about 1e-16 per draw).  Elsewhere the realisations differ with the
same law: groups of more than one committee, n p > 30 (BTPE), p > 1/2
(inversion of n - X) and p = 0 (no draw).  A chunk draws its uniforms in
blocks of at most ``BLOCK_BYTES`` from its one generator, so it holds
O(BLOCK_BYTES) of them at any group count, and the blocks concatenate to
the draws of a single call.

The exactly-M model walks the committees in layout order over all samples
of a chunk at once, one row of the run table at a time.  Each sample keeps
only its number of adversaries still unplaced; committee i draws its count
from the hypergeometric law of its size among the nodes still unplaced,
and the last committee takes the remainder.  The urn is exchangeable, so
these conditional draws follow the exact joint law.  A sample leaves at its
first committee over the cap, so the walk stops once every sample has
failed, and the state is one integer per live sample, whatever the
committee count.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
# imported here, not on the first draw: numpy loads numpy.random lazily
from numpy.random import Generator, Philox, SeedSequence

from .failure import FailureQuery, _binomial_split_cached, _require_average
from .partitions import AverageAdversary, ExactAdversary

__all__ = [
    "DeltaEstimate",
    "SimulationPlan",
    "estimate_delta",
]

#: Samples per RNG substream; fixed so results never depend on worker count.
CHUNK_SAMPLES = 32768

#: Bytes of average-model uniforms a chunk holds at once, whatever the
#: group count.
BLOCK_BYTES = 4 << 20


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


def _chunk_rng(seed: int, chunk_index: int) -> Generator:
    seq = SeedSequence(entropy=int(seed), spawn_key=(chunk_index,))
    return Generator(Philox(seq))


def _group_survival(query: FailureQuery) -> np.ndarray:
    """Survival probability c^m, c = P(Bin(size, rate) <= cap), per row of
    the run table, average model: the exponential of the row's term in
    ``delta_exact_binomial``'s log survival.  +inf where the cap reaches the
    size, so that group draws its uniform but never fails.
    """
    rate = _require_average(query)
    return np.array([math.inf if cap >= size else
                     math.exp(mult * _binomial_split_cached(size, rate, cap)[0])
                     for size, mult, cap in query.layout.allowances(query.threshold)])


def _average_failures(rng: Generator, count: int,
                      survival: np.ndarray) -> int:
    """Failed samples among ``count`` average-model samples.

    One uniform per group, compared with the group's survival probability,
    ``BLOCK_BYTES`` of uniforms at a time; consecutive blocks from one
    generator are the draws a single call would make.
    """
    k = survival.size
    rows = max(1, BLOCK_BYTES // (8 * k))
    # one expression per block, so no block outlives its comparison
    return sum(int((rng.random((min(rows, count - start), k)) > survival).any(axis=1).sum())
               for start in range(0, count, rows))


def _exact_failures(rng: Generator, query: FailureQuery, count: int,
                    allowances: list[tuple[int, int, int]]) -> int:
    """Failed samples among ``count`` exactly-M partitions.

    Sequential conditional draws, one committee at a time over the live
    samples, walking the run table ``allowances`` of (size, multiplicity,
    allowed count); a sample leaves at its first committee over its cap.
    """
    unplaced_nodes = query.layout.total
    unplaced = np.full(count, query.adversary.count, dtype=np.int64)
    failures = 0
    for size, mult, cap in allowances:
        for _ in range(mult):
            # the last committee, the only one holding every unplaced node,
            # takes the remainder
            if unplaced_nodes == size:
                counts = unplaced
            else:
                counts = rng.hypergeometric(unplaced, unplaced_nodes - unplaced, size)
            live = counts <= cap
            failures += count - int(np.count_nonzero(live))
            unplaced = (unplaced - counts)[live]
            unplaced_nodes -= size
            count = unplaced.size
            if not count:
                return failures
    return failures


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
    query = plan.query
    if isinstance(query.adversary, AverageAdversary):
        kernel = functools.partial(_average_failures, survival=_group_survival(query))
    elif isinstance(query.adversary, ExactAdversary):
        kernel = functools.partial(_exact_failures, query=query,
                                   allowances=query.layout.allowances(query.threshold))
    else:
        raise ValueError(f"unsupported adversary model {query.adversary!r}")

    def chunk_failures(start: int) -> int:
        rng = _chunk_rng(plan.seed, start // CHUNK_SAMPLES)
        return kernel(rng, count=min(CHUNK_SAMPLES, plan.samples - start))

    starts = range(0, plan.samples, CHUNK_SAMPLES)
    if plan.workers == 1 or len(starts) == 1:
        failures = sum(map(chunk_failures, starts))
    else:
        with ThreadPoolExecutor(max_workers=plan.workers) as pool:
            failures = sum(pool.map(chunk_failures, starts))

    delta_hat = failures / plan.samples
    std_error = math.sqrt(delta_hat * (1.0 - delta_hat) / plan.samples)
    ci95 = _confidence_interval(failures, plan.samples, delta_hat, std_error)
    return DeltaEstimate(failures, plan.samples, delta_hat, std_error, ci95)
