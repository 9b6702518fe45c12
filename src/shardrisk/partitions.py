"""Committee layouts, adversary models and the partition distribution family.

A random partition places N nodes into K committees.  Conditioned on the
committee sizes, the per-committee counts of a tracked node class follow
either independent binomials (each node is adversarial independently with
some rate) or the multivariate hypergeometric law (exactly M adversarial
nodes distributed without replacement).  This module holds the layout and
adversary value types plus the exact log-pmfs of that family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .probcore import (
    LOG_ZERO,
    RateLike,
    log_binomial_coefficient,
    rate_as_float,
)

__all__ = [
    "AdversaryModel",
    "AverageAdversary",
    "CommitteeLayout",
    "ExactAdversary",
    "exact_count_from_rate",
    "hypergeometric_marginal_log_pmf",
    "layout_from_split",
    "multinomial_log_pmf",
    "multivariate_hypergeometric_log_pmf",
    "product_binomial_log_pmf",
]


def _merged_runs(runs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Validate (size, multiplicity) runs, drop empty ones, merge equal neighbours."""
    merged: list[tuple[int, int]] = []
    for size, mult in runs:
        size, mult = int(size), int(mult)
        if size < 1:
            raise ValueError(
                f"every committee needs at least one node, got size {size}")
        if mult < 0:
            raise ValueError(f"a run multiplicity must be non-negative, got {mult}")
        if mult == 0:
            continue
        if merged and merged[-1][0] == size:
            merged[-1] = (size, merged[-1][1] + mult)
        else:
            merged.append((size, mult))
    if not merged:
        raise ValueError("a layout needs at least one committee")
    return tuple(merged)


@dataclass(frozen=True)
class CommitteeLayout:
    """Fixed committee sizes in committee order; immutable and hashable.

    Stored as run-length ``runs``: (size, multiplicity) pairs in committee
    order, with no two neighbouring runs of equal size.  That form is
    canonical, so equality and hashing are those of the committee sequence,
    and the analytic evaluators cost O(runs) rather than O(committees).
    ``sizes`` and ``sizes_array()`` expand the runs back into the
    per-committee sequence, in the original order.
    """

    runs: tuple[tuple[int, int], ...]

    def __init__(self, sizes: Sequence[int]):
        object.__setattr__(self, "runs", _merged_runs((s, 1) for s in sizes))

    @classmethod
    def from_runs(cls, runs: Iterable[tuple[int, int]]) -> CommitteeLayout:
        """Layout from (size, multiplicity) runs; zero multiplicities are dropped."""
        layout = object.__new__(cls)
        object.__setattr__(layout, "runs", _merged_runs(runs))
        return layout

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(size for size, mult in self.runs for _ in range(mult))

    @property
    def total(self) -> int:
        return sum(size * mult for size, mult in self.runs)

    @property
    def committee_count(self) -> int:
        return sum(mult for _, mult in self.runs)

    def sizes_array(self) -> np.ndarray:
        sizes, mults = zip(*self.runs)
        return np.repeat(np.asarray(sizes, dtype=np.int64), mults)


def layout_from_split(total_nodes: int, committees: int) -> CommitteeLayout:
    """The canonical N = n*K + r split layout.

    K - r committees of size n = N // K come first, then r = N mod K
    committees of size n + 1, so sweep outputs are deterministic.
    """
    n_total = int(total_nodes)
    k = int(committees)
    if n_total < 1:
        raise ValueError(f"total_nodes must be positive, got {total_nodes}")
    if k < 1:
        raise ValueError(f"committees must be positive, got {committees}")
    if k > n_total:
        raise ValueError(
            f"cannot split {n_total} nodes into {k} committees without an empty one"
        )
    base, rem = divmod(n_total, k)
    return CommitteeLayout.from_runs(((base, k - rem), (base + 1, rem)))


@dataclass(frozen=True)
class AverageAdversary:
    """Each node is adversarial independently; counts are product-binomial.

    ``rate`` is either a single rate broadcast to every committee or a
    per-committee sequence.
    """

    rate: Union[RateLike, tuple[RateLike, ...]]

    def __init__(self, rate):
        if isinstance(rate, (list, tuple)):
            rate = tuple(rate)
            for r in rate:
                rate_as_float(r, "rate")
        else:
            rate_as_float(rate, "rate")
        object.__setattr__(self, "rate", rate)

    def rates_for(self, committee_count: int) -> tuple[float, ...]:
        """Per-committee float rates, broadcasting a scalar rate."""
        if isinstance(self.rate, tuple):
            if len(self.rate) != committee_count:
                raise ValueError(
                    f"{len(self.rate)} rates given for {committee_count} committees"
                )
            return tuple(float(r) for r in self.rate)
        return (float(self.rate),) * committee_count


@dataclass(frozen=True)
class ExactAdversary:
    """Exactly ``count`` adversarial nodes; counts are hypergeometric."""

    count: int

    def __post_init__(self):
        if not isinstance(self.count, (int, np.integer)) or self.count < 0:
            raise ValueError(f"count must be a non-negative integer, got {self.count!r}")
        object.__setattr__(self, "count", int(self.count))


AdversaryModel = Union[AverageAdversary, ExactAdversary]


def exact_count_from_rate(total_nodes: int, rate: RateLike) -> int:
    """Adversary count for 'exactly N * P nodes': round half to even."""
    rate_as_float(rate, "rate")
    if isinstance(rate, Fraction):
        m = round(rate * total_nodes)
    else:
        m = round(float(rate) * total_nodes)
    return min(max(int(m), 0), int(total_nodes))


def _validate_counts(counts: Sequence[int], layout: CommitteeLayout) -> tuple[int, ...]:
    counts = tuple(int(c) for c in counts)
    if len(counts) != layout.committee_count:
        raise ValueError(
            f"{len(counts)} counts given for {layout.committee_count} committees"
        )
    for c, size in zip(counts, layout.sizes):
        if c < 0 or c > size:
            raise ValueError(f"count {c} outside [0, {size}]")
    return counts


def multinomial_log_pmf(
    layout_counts: Sequence[int],
    total_nodes: int,
    committee_probs: Sequence[RateLike],
) -> float:
    """Log pmf of committee sizes under independent node placement.

    Probability zero (LOG_ZERO) when the counts do not sum to the node
    total; that indicator is part of the distribution, not an error.
    """
    counts = tuple(int(c) for c in layout_counts)
    if any(c < 0 for c in counts):
        raise ValueError(f"counts must be non-negative, got {counts}")
    probs = [rate_as_float(p, "committee probability") for p in committee_probs]
    if len(probs) != len(counts):
        raise ValueError("counts and probabilities must have equal length")
    if abs(math.fsum(probs) - 1.0) > 1e-12:
        raise ValueError(f"committee probabilities must sum to 1, got {math.fsum(probs)!r}")
    n = int(total_nodes)
    if sum(counts) != n:
        return LOG_ZERO
    out = math.lgamma(n + 1)
    for c, p in zip(counts, probs):
        out -= math.lgamma(c + 1)
        if c > 0:
            if p == 0.0:
                return LOG_ZERO
            out += c * math.log(p)
    return min(out, 0.0)


def _binomial_log_pmf(count: int, size: int, p: float) -> float:
    if p == 0.0:
        return 0.0 if count == 0 else LOG_ZERO
    if p == 1.0:
        return 0.0 if count == size else LOG_ZERO
    return (
        log_binomial_coefficient(size, count)
        + count * math.log(p)
        + (size - count) * math.log1p(-p)
    )


def product_binomial_log_pmf(
    counts: Sequence[int],
    layout: CommitteeLayout,
    rates: Union[RateLike, Sequence[RateLike]],
) -> float:
    """Log pmf of per-committee counts under the independent-rate model."""
    counts = _validate_counts(counts, layout)
    if isinstance(rates, (list, tuple)):
        adversary = AverageAdversary(tuple(rates))
    else:
        adversary = AverageAdversary(rates)
    per_committee = adversary.rates_for(layout.committee_count)
    total = 0.0
    for c, size, p in zip(counts, layout.sizes, per_committee):
        term = _binomial_log_pmf(c, size, p)
        if term == LOG_ZERO:
            return LOG_ZERO
        total += term
    return min(total, 0.0)


def multivariate_hypergeometric_log_pmf(
    counts: Sequence[int], layout: CommitteeLayout, adversary_count: int
) -> float:
    """Log pmf of per-committee counts given exactly M adversarial nodes.

    Zero probability when the counts do not sum to M (the constraint is a
    Kronecker delta of the distribution).
    """
    counts = _validate_counts(counts, layout)
    m = int(adversary_count)
    n_total = layout.total
    if m < 0 or m > n_total:
        raise ValueError(f"adversary count {m} outside [0, {n_total}]")
    if sum(counts) != m:
        return LOG_ZERO
    out = -log_binomial_coefficient(n_total, m)
    for c, size in zip(counts, layout.sizes):
        out += log_binomial_coefficient(size, c)
    return min(out, 0.0)


def _marginal_log_pmf_primary(n_alpha: int, size: int, total: int, m: int) -> float:
    return (
        log_binomial_coefficient(size, n_alpha)
        + log_binomial_coefficient(total - size, m - n_alpha)
        - log_binomial_coefficient(total, m)
    )


def hypergeometric_marginal_log_pmf(
    n_alpha: int, committee_size: int, layout_total: int, adversary_count: int
) -> float:
    """Log pmf of one committee's adversary count under the exact-M model.

    Out-of-support arguments (for example more leftover adversaries than
    the rest of the network can hold) return probability zero rather than
    raising, which keeps tail summations simple.
    """
    j = int(n_alpha)
    size = int(committee_size)
    total = int(layout_total)
    m = int(adversary_count)
    if j < 0 or size < 0 or total < 0 or m < 0:
        raise ValueError("arguments must be non-negative integers")
    if size > total:
        raise ValueError(f"committee size {size} exceeds node total {total}")
    if m > total:
        raise ValueError(f"adversary count {m} exceeds node total {total}")
    if j > size or j > m or m - j > total - size:
        return LOG_ZERO
    return min(_marginal_log_pmf_primary(j, size, total, m), 0.0)
