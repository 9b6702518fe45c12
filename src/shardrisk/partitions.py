"""Committee layouts, adversary models and the partition distribution family.

A random partition places N nodes into K committees.  Conditioned on the
committee sizes, the per-committee counts of a tracked node class follow
either independent binomials (each node is adversarial independently with
some rate) or the multivariate hypergeometric law (exactly M adversarial
nodes distributed without replacement).  This module holds the layout and
adversary value types plus the exact marginal log-pmf of one committee's
count under the exactly-M model.
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
    floor_rate_multiple,
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
    and the analytic evaluators cost O(runs) rather than O(committees).  No
    code path expands the runs into the committee sequence.
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
    def total(self) -> int:
        return sum(size * mult for size, mult in self.runs)

    @property
    def committee_count(self) -> int:
        return sum(mult for _, mult in self.runs)

    def allowances(self, threshold: RateLike) -> list[tuple[int, int, int]]:
        """The run table: (size, multiplicity, floor(threshold * size)) per run.

        The allowed count is the largest a committee holds without failing.
        It is not clamped; one at or above the size means it never fails.
        """
        table = []  # a loop: a comprehension's own frame costs more over a few runs
        for size, mult in self.runs:
            table.append((size, mult, floor_rate_multiple(threshold, size)))
        return table


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
    """Each node is adversarial independently at one ``rate``; counts are
    product-binomial."""

    rate: RateLike

    def __post_init__(self):
        if isinstance(self.rate, (list, tuple)):
            raise ValueError(f"rate must be a single rate, got {self.rate!r}")
        rate_as_float(self.rate, "rate")


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
    if type(rate) is Fraction:
        num, den = rate.numerator, rate.denominator
        if 0 <= num <= den:  # integers: a Fraction product and round() cost far more
            m, rest = divmod(num * int(total_nodes), den)
            return m + (2 * rest > den or (2 * rest == den and m & 1))
    rate_as_float(rate, "rate")
    return min(max(int(round(float(rate) * total_nodes)), 0), int(total_nodes))


def _marginal_log_pmf(j: int, size: int, total: int, m: int) -> float:
    """``hypergeometric_marginal_log_pmf`` without its checks: j in support.

    One log-gamma group per binomial coefficient of
    C(size, j) C(total - size, m - j) / C(total, m), capped at log 1.
    """
    lg, rest = math.lgamma, total - size
    return min((lg(size + 1) - lg(j + 1) - lg(size - j + 1))
               + (lg(rest + 1) - lg(m - j + 1) - lg(rest - m + j + 1))
               - (lg(total + 1) - lg(m + 1) - lg(total - m + 1)), 0.0)


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
    return _marginal_log_pmf(j, size, total, m)
