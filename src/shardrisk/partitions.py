"""Committee layouts, adversary models and the partition distribution family.

A random partition places N nodes into K committees.  Conditioned on the
committee sizes, the per-committee counts of a tracked node class follow
either independent binomials (each node is adversarial independently with
some rate) or the multivariate hypergeometric law (exactly M adversarial
nodes distributed without replacement).  This module holds the layout and
adversary value types plus the exact marginal log-pmf of one committee's
count under the exactly-M model, a term of ``probcore.HypergeometricCounts``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .probcore import (
    LOG_ZERO,
    HypergeometricCounts,
    RateLike,
    _check_count,
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
        try:  # operator.index, not int: a size of 2.5 is an error, not 2
            size, mult = operator.index(size), operator.index(mult)
        except TypeError:
            raise ValueError(f"runs must be integer pairs, got {(size, mult)}") from None
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
    try:
        n_total, k = operator.index(total_nodes), operator.index(committees)
    except TypeError:
        raise ValueError(f"N, K must be integers, got {(total_nodes, committees)}") from None
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
        object.__setattr__(self, "count", _check_count(self.count, "count"))


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


def hypergeometric_marginal_log_pmf(
    n_alpha: int, committee_size: int, layout_total: int, adversary_count: int
) -> float:
    """Log pmf of one committee's adversary count under the exact-M model.

    Out-of-support arguments (for example more leftover adversaries than
    the rest of the network can hold) return probability zero rather than
    raising, which keeps tail summations simple.
    """
    j = _check_count(n_alpha, "n_alpha")
    size = _check_count(committee_size, "committee_size")
    total = _check_count(layout_total, "layout_total")
    m = _check_count(adversary_count, "adversary_count")
    if size > total:
        raise ValueError(f"committee size {size} exceeds node total {total}")
    if m > total:
        raise ValueError(f"adversary count {m} exceeds node total {total}")
    law = HypergeometricCounts(total, m)
    lo, hi = law.support(size)
    return law.first(size, j) if lo <= j <= hi else LOG_ZERO
