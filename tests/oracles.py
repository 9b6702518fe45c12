"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is deliberately naive: exhaustive enumeration with exact
integer weights where possible, so the fast implementations are checked
against arithmetic that cannot share their failure modes.  Reference
helpers that the library itself does not call live here too: the joint
log-pmfs of the partition family, the failure threshold and one-draw count
samplers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Sequence, Union

import numpy as np

from shardrisk.partitions import AverageAdversary, CommitteeLayout
from shardrisk.probcore import (
    LOG_ZERO,
    RateLike,
    floor_rate_multiple,
    log_binomial_coefficient,
    log_binomial_coefficients,
    rate_as_float,
)


def partitions_up_to(n_max: int):
    """All integer partitions (non-increasing tuples) of every n <= n_max."""
    out = []
    for n in range(1, n_max + 1):
        out.extend(_partitions(n, n))
    return out


def _partitions(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for head in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - head, head):
            yield (head,) + rest


def hypergeometric_failure_table(sizes, threshold: Fraction):
    """For one layout: exact failing/total weights for every adversary count.

    Enumerates every count vector once.  Returns (fail, total) where
    fail[m] and total[m] are exact integers; the exact failure probability
    at adversary count m is fail[m] / comb(N, m), and total[m] must equal
    comb(N, m) (a normalisation check for free).
    """
    caps = [int(Fraction(threshold) * s) for s in sizes]
    n_total = sum(sizes)
    fail = [0] * (n_total + 1)
    total = [0] * (n_total + 1)
    for counts in product(*[range(s + 1) for s in sizes]):
        m = sum(counts)
        w = 1
        for c, s in zip(counts, sizes):
            w *= math.comb(s, c)
        total[m] += w
        if any(c > cap for c, cap in zip(counts, caps)):
            fail[m] += w
    return fail, total


def binomial_failure_enumeration(sizes, rate, threshold: Fraction) -> float:
    """Exact failure probability by summing over all 2^N node colourings.

    ``rate`` is one rate for every node or a sequence of per-committee rates.
    """
    n_total = sum(sizes)
    caps = np.array([int(Fraction(threshold) * s) for s in sizes])
    member = np.repeat(np.arange(len(sizes)), sizes)
    onehot = np.zeros((n_total, len(sizes)))
    onehot[np.arange(n_total), member] = 1.0
    codes = np.arange(2 ** n_total, dtype=np.uint64)
    bits = ((codes[:, None] >> np.arange(n_total, dtype=np.uint64)) & 1).astype(
        np.float64
    )
    counts = bits @ onehot
    node_rates = np.broadcast_to(np.asarray(rate, dtype=np.float64), len(sizes))[member]
    weights = np.where(bits > 0.0, node_rates, 1.0 - node_rates).prod(axis=1)
    failing = (counts > caps).any(axis=1)
    return float(weights[failing].sum())


def scan_largest_committee_count(total_nodes, delta_of_k, delta_target) -> int:
    """Largest K in 1..N with delta(K) <= target; K=1 counts as probability 0."""
    best = 1
    for k in range(2, total_nodes + 1):
        if delta_of_k(k) <= delta_target:
            best = k
    return best


def log_generating_derivative_ratios(
    committee_size: int, z: float, threshold: RateLike
) -> tuple[float, float]:
    """(phi'/phi, phi''/phi) of the capped generating polynomial at z.

    phi(z) = sum_{j<=cap} C(size, j) z^j.  Evaluated through max-shifted
    weights, independently of the tilt parametrisation, so it serves as a
    cross-check of the variance-based curvature formula.
    """
    size = int(committee_size)
    if z <= 0.0:
        raise ValueError(f"z must be positive, got {z!r}")
    cap = min(floor_rate_multiple(threshold, size), size)
    j = np.arange(cap + 1, dtype=np.float64)
    log_w = np.array(log_binomial_coefficients(size)[: cap + 1]) + j * math.log(z)
    shift = float(log_w.max())
    w = np.exp(log_w - shift)
    total = float(w.sum())
    first = float((j * w).sum() / total) / z
    second = float((j * (j - 1.0) * w).sum() / total) / (z * z)
    return first, second


def curvature_at_tilt(
    layout: CommitteeLayout, tilt: float, adversary_rate: float, threshold: RateLike
) -> float:
    """Second derivative of the saddle exponent at z = tilt / (1 - tilt).

    P / z^2 + (1/N) sum_mu (phi''/phi - (phi'/phi)^2), computed from the
    generating-polynomial derivative ratios.  Used by the consistency tests
    against the truncated-variance form of the prefactor.
    """
    z = tilt / (1.0 - tilt)
    n_total = layout.total
    acc = adversary_rate / (z * z)
    for size, mult in layout.runs:
        first, second = log_generating_derivative_ratios(size, z, threshold)
        acc += mult * (second - first * first) / n_total
    return acc


def _truncated_product(a: list[int], b: list[int], m: int) -> list[int]:
    """Coefficients 0..m of the product of integer polynomials a and b."""
    return [
        sum(a[i] * b[k - i] for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1))
        for k in range(min(m, len(a) + len(b) - 2) + 1)
    ]


def exact_m_failure_survival(runs, count: int, threshold: Fraction) -> tuple[int, int, int]:
    """(failing, surviving, total) integer weights of the exactly-M model.

    ``runs`` holds (size, multiplicity) pairs.  The surviving weight is the
    z^M coefficient of prod (sum_{j<=floor(A n)} C(n, j) z^j), built in
    Python integers, each run's row raised to its multiplicity by repeated
    squaring; the failing weight is C(N, M) minus it.  Integer subtraction is
    exact, so both sides are exact however close the probability is to 0 or
    1: delta = failing / total and survival = surviving / total.
    """
    m = int(count)
    n_total = sum(size * mult for size, mult in runs)
    state = [1]
    for size, mult in runs:
        cap = min(int(Fraction(threshold) * size), size, m)
        row = [math.comb(size, j) for j in range(cap + 1)]
        while mult:
            if mult & 1:
                state = _truncated_product(state, row, m)
            mult >>= 1
            if mult:
                row = _truncated_product(row, row, m)
    surviving = state[m] if m < len(state) else 0
    total = math.comb(n_total, m)
    return total - surviving, surviving, total


def log_ratio(numerator: int, denominator: int) -> float:
    """ln(numerator / denominator) of positive integers, for any magnitude."""
    return math.log(numerator) - math.log(denominator)


def hypergeometric_marginal_log_pmf_alternate(n_alpha: int, size: int, total: int,
                                              m: int) -> float:
    """ln P(count = n_alpha) of one committee under the exactly-M model.

    C(M, j) C(N - M, n - j) / C(N, n): the complementary grouping of the
    factors in ``hypergeometric_marginal_log_pmf``, to cross-check it.
    """
    return (
        log_binomial_coefficient(m, n_alpha)
        + log_binomial_coefficient(total - m, size - n_alpha)
        - log_binomial_coefficient(total, size)
    )


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


def failure_threshold(threshold: RateLike, committee_size: int) -> int:
    """Smallest adversary count at which a committee of this size fails.

    floor(A * size) + 1, with the floor taken in integer arithmetic when A
    is a Fraction.
    """
    size = int(committee_size)
    if size < 1:
        raise ValueError(f"committee_size must be positive, got {committee_size}")
    a = rate_as_float(threshold, "threshold")
    if not 0.0 < a < 1.0:
        raise ValueError(f"threshold must lie strictly inside (0, 1), got {threshold!r}")
    return floor_rate_multiple(threshold, size) + 1


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
