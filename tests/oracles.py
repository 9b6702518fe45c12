"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is deliberately naive: exhaustive enumeration with exact
integer weights where possible, so the fast implementations are checked
against arithmetic that cannot share their failure modes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

from shardrisk.partitions import CommitteeLayout
from shardrisk.probcore import (
    RateLike,
    floor_rate_multiple,
    log_binomial_coefficient,
    log_binomial_coefficients,
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
