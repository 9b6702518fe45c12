"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is deliberately naive: exhaustive enumeration with exact
integer weights where possible, so the fast implementations are checked
against arithmetic that cannot share their failure modes.  Reference
helpers that the library itself does not call live here too: the joint
log-pmfs of the partition family, the failure threshold, one-draw count
samplers, the series expansions of the size-bracket budget and the scalar f_tilde
loop, the
per-committee sequence of a layout and the per-committee form of the
random-size union bounds, criterion 9's table of split deltas, the full-row tail sums that the windowed
ones replaced, the exactly-M evaluator that always transforms the
failure side first, the two bound walks that the one bound table
replaced, and the exact binomial tails that judge a Monte Carlo count.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import product
from typing import Sequence, Union

import numpy as np

from shardrisk import failure
from shardrisk.failure import DeltaResult, FailureQuery, delta_exact_binomial
from shardrisk.partitions import AverageAdversary, CommitteeLayout, layout_from_split
from shardrisk.probcore import (
    LOG_ZERO,
    HypergeometricCounts,
    RateLike,
    floor_rate_multiple,
    kl_divergence,
    log1mexp,
    log_binomial_coefficient,
    log_binomial_coefficients,
    log_factorial,
    log_sum_exp,
    rate_as_float,
    stable_complement_product,
)


def committee_sizes(layout: CommitteeLayout) -> tuple[int, ...]:
    """The per-committee size sequence of a layout, in committee order."""
    return tuple(size for size, mult in layout.runs for _ in range(mult))


def union_random_per_committee(query: FailureQuery) -> tuple[float, float]:
    """Raw log (tight, simple) random-size union bounds, one term per committee.

    Committee mu of size n_mu joins with probability P(mu) = n_mu / N and
    fails at q = (floor(A n_mu) + 1) / n_mu; its terms are
    N log1p(P(mu) (exp(-D(q || p)) - 1)) and N P(mu) (exp(-D(q || p)) - 1),
    with exp(-D) - 1 taken as 0 where p < q < 1 fails, and no term where the
    committee cannot fail.  This is the K-tuple form the run-wise
    ``union_bound_random_sizes`` replaced.
    """
    n_total = query.layout.total
    rate = rate_as_float(query.adversary.rate)
    tight, simple = [], []
    for size in committee_sizes(query.layout):
        cap = floor_rate_multiple(query.threshold, size)
        if cap >= size:
            continue
        q = (cap + 1) / size
        decay = math.expm1(-kl_divergence(q, rate)) if rate < q < 1.0 else 0.0
        prob = size / n_total
        tight.append(n_total * math.log1p(prob * decay))
        simple.append(n_total * prob * decay)
    return log_sum_exp(np.array(tight)), log_sum_exp(np.array(simple))


def five_smooth_numbers(limit: int) -> list[int]:
    """Every 2^a 3^b 5^c <= limit in ascending order, by enumerating exponents."""
    found = []
    p2 = 1
    while p2 <= limit:
        p3 = p2
        while p3 <= limit:
            p5 = p3
            while p5 <= limit:
                found.append(p5)
                p5 *= 5
            p3 *= 3
        p2 *= 2
    return sorted(found)


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


@functools.cache
def criterion9_split_deltas(rate: float) -> dict[tuple[int, int], float]:
    """Exact-binomial delta of the n/(n+1) split of N nodes into K committees at
    threshold 1/3, keyed by (N, K), for N <= 500 and K = 2..N: criterion 9's
    table.  It does not depend on the target, so it is built once per rate and
    process, and every test on that grid reads the same one."""
    return {(total, k): delta_exact_binomial(FailureQuery(
        layout_from_split(total, k), AverageAdversary(rate), Fraction(1, 3))).delta
        for total in range(1, 501) for k in range(2, total + 1)}


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


def _capped_binomial_moments(size: int, q: float, cap: int) -> tuple[float, float, float]:
    """(log mass, mean, variance) of Binomial(size, q) given a count <= cap, from one row."""
    j = np.arange(cap + 1, dtype=np.float64)
    log_w = (np.array(log_binomial_coefficients(size)[: cap + 1])
             + j * math.log(q) + (size - j) * math.log1p(-q))
    shift = float(log_w.max())
    w = np.exp(log_w - shift)
    total = float(w.sum())
    mean = float((j * w).sum() / total)
    return shift + math.log(total), mean, float((j * j * w).sum() / total) - mean * mean


def bisection_saddle(layout: CommitteeLayout, adversary_rate: float,
                     threshold: RateLike) -> tuple[float, float]:
    """(tilt, leading-order log survival) of the saddle-point estimate, by bisection.

    Bisects Q over (1e-12, 1 - 1e-12) until the capped means average to the
    rate within 1e-12, rebuilding every run's truncated binomial row at each
    step, then returns Q and sqrt(N P (1 - P) / sum Var) exp(N psi) in log
    form, unclamped.  This is the tilt solve ``shardrisk.saddle`` used
    before its Newton search.
    """
    n_total = layout.total
    p = float(adversary_rate)
    runs = [(size, mult, min(floor_rate_multiple(threshold, size), size))
            for size, mult in layout.runs]
    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(200):
        q = 0.5 * (lo + hi)
        moments = [(mult, _capped_binomial_moments(size, q, cap)) for size, mult, cap in runs]
        residual = 0.0
        for mult, (_, mean, _) in moments:
            residual += mult * mean
        residual = residual / n_total - p
        if abs(residual) <= 1e-12 or hi - lo <= 1e-17:
            break
        if residual < 0.0:
            lo = q
        else:
            hi = q
    psi = kl_divergence(p, q) + sum(mult * log_mass
                                    for mult, (log_mass, _, _) in moments) / n_total
    variance = sum(mult * var for mult, (_, _, var) in moments)
    return q, 0.5 * math.log(n_total * p * (1.0 - p) / variance) + n_total * psi


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


def exact_m_sandwich(size: int, committees: int, count: int,
                     threshold: Fraction) -> tuple[Fraction, Fraction]:
    """(1 - (1 - T)^K, K T) for K committees of ``size`` and exactly ``count``
    adversaries, with T one committee's marginal tail P(count > floor(A n)).

    Multivariate hypergeometric counts are negatively associated (Joag-Dev &
    Proschan 1983), so the failure probability lies between the two.
    """
    total = size * committees
    cap = int(Fraction(threshold) * size)
    ways = sum(math.comb(size, j) * math.comb(total - size, count - j)
               for j in range(cap + 1, min(size, count) + 1))
    tail = Fraction(ways, math.comb(total, count))
    return 1 - (1 - tail) ** committees, committees * tail


def scan_exact_m_committee_size(committees: int, delta_target: float, rate: Fraction,
                                threshold: Fraction) -> tuple[int, int]:
    """(smallest feasible n, smallest n feasible at n and n + 1) for K equal
    committees holding round(n K P) adversaries, by a linear scan.

    Each n is decided by ``exact_m_sandwich`` in rational arithmetic where
    the sandwich settles it, and by ``exact_m_failure_survival`` inside the
    band, where the exact value is asserted to lie in its sandwich.
    """
    target = Fraction(delta_target)
    decided: dict[int, bool] = {}

    def feasible(n: int) -> bool:
        if n not in decided:
            count = round(rate * n * committees)
            lower, upper = exact_m_sandwich(n, committees, count, threshold)
            if upper <= target:
                decided[n] = True
            elif lower > target:
                decided[n] = False
            else:
                failing, _, ways = exact_m_failure_survival(((n, committees),), count,
                                                            threshold)
                assert lower <= Fraction(failing, ways) <= upper, (n, committees, count)
                decided[n] = Fraction(failing, ways) <= target
        return decided[n]

    first = next(n for n in range(1, 10**6) if feasible(n))
    stable = next(n for n in range(first, 10**6) if feasible(n) and feasible(n + 1))
    return first, stable


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
    layout: CommitteeLayout, rate: RateLike, rng: np.random.Generator
) -> np.ndarray:
    """One draw of per-committee adversary counts, independent-rate model."""
    return rng.binomial(np.asarray(committee_sizes(layout)), rate_as_float(rate))


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
    return rng.multivariate_hypergeometric(np.asarray(committee_sizes(layout)), m)


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
    for c, size in zip(counts, committee_sizes(layout)):
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
        per_committee = [rate_as_float(r) for r in rates]
        if len(per_committee) != layout.committee_count:
            raise ValueError(f"{len(per_committee)} rates given for "
                             f"{layout.committee_count} committees")
    else:
        per_committee = [rate_as_float(rates)] * layout.committee_count
    total = 0.0
    for c, size, p in zip(counts, committee_sizes(layout), per_committee):
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
    for c, size in zip(counts, committee_sizes(layout)):
        out += log_binomial_coefficient(size, c)
    return min(out, 0.0)


def bracket_expansions(delta_target: float, committees: int) -> tuple[float, float]:
    """Truncated series for the bracket budget -log(1 - (1-delta)^(1/K)).

    Returns (large-K series through the K^-4 term, small-delta series
    through the delta^1 term); both are diagnostics to compare against the
    exact expression, showing the budget grows only logarithmically in K
    and in 1/delta.
    """
    target = float(delta_target)
    if not 0.0 < target < 1.0:
        raise ValueError(f"delta_target must lie strictly inside (0, 1), got {target!r}")
    k = int(committees)
    if k < 1:
        raise ValueError(f"committees must be positive, got {committees}")
    c = -math.log1p(-target)  # -log(1 - delta) > 0
    large_k = (
        -math.log(c)
        + math.log(k)
        + c / (2.0 * k)
        - c * c / (24.0 * k * k)
        + c ** 4 / (2880.0 * k ** 4)
    )
    small_delta = math.log(k) - math.log(target) - target * (k - 1) / (2.0 * k)
    return large_k, small_delta


def f_tilde_loop(a: float, p: float, limit: int) -> tuple[float, int]:
    """(max, argmax) over n = 1..limit of D(A + 1/n || P) + log(arg (1 - arg)) / (2 n),
    arg = A + 1/n < 1, one scalar term at a time: the loop ``sizing._f_tilde``
    replaced, whose value it must keep bit for bit."""
    best, best_n = -math.inf, 0
    for n in range(1, limit + 1):
        arg = a + 1.0 / n
        if arg >= 1.0:
            continue
        value = kl_divergence(arg, p) + math.log(arg * (1.0 - arg)) / (2.0 * n)
        if value > best:
            best, best_n = value, n
    return best, best_n


def full_row_binomial_split(n: int, p: float, k: int) -> tuple[float, float]:
    """(log CDF, log tail) of Binomial(n, p) at k from the whole pmf row of n + 1
    terms: ``binomial_tail_and_cdf`` before its window, for 0 < p < 1.  The row
    of ln C(n, j) is built here, as ``log_binomial_coefficients`` builds it, so
    that no row enters that function's cache."""
    j = np.arange(n + 1, dtype=np.float64)
    lf = log_factorial(j)
    log_pmf = lf[n] - lf - lf[::-1] + j * math.log(p) + (n - j) * math.log1p(-p)
    log_tail = log_sum_exp(log_pmf[k + 1 :])
    if log_tail < -math.log(2.0):
        return log1mexp(log_tail), log_tail
    log_cdf = log_sum_exp(log_pmf[: k + 1])
    return log_cdf, log1mexp(log_cdf)


def full_row_marginal_log_tail(size: int, total: int, m: int, cap: int) -> float:
    """log P(count > cap) of one committee under exactly-M from the row of every
    failing count: ``HypergeometricCounts.tail`` before its window."""
    rest = total - size
    lo = max(cap + 1, m - rest)
    hi = min(size, m)
    if lo > hi:
        return LOG_ZERO
    j = np.arange(lo, hi + 1, dtype=np.float64)
    lf = log_factorial(np.concatenate(((size, rest), j, size - j, m - j, rest - m + j)))
    lf_j, lf_size_j, lf_m_j, lf_rest_j = lf[2:].reshape(4, j.size)
    terms = (lf[0] - lf_j - lf_size_j + lf[1] - lf_m_j - lf_rest_j
             - log_binomial_coefficient(total, m))
    return min(log_sum_exp(np.minimum(terms, 0.0)), 0.0)


def delta_exact_hypergeometric_failure_first(query: FailureQuery) -> DeltaResult:
    """``failure.delta_exact_hypergeometric`` as it was before it read the
    sandwich: the failure transform on every layout that can fail, and the
    survival transform too where that gives delta >= 1/2.  It shares the
    transforms, so it checks the choice of side, not their arithmetic."""
    m = failure._require_exact(query)
    layout = query.layout
    n_total = layout.total
    runs = [(size, mult, min(size, m), min(cap, size, m))
            for size, mult, cap in layout.allowances(query.threshold)]
    if all(cap == top for _, _, top, cap in runs):
        return failure._result("exact-hypergeometric", LOG_ZERO, 0.0, clamped=False)
    if m > sum(mult * cap for _, mult, _, cap in runs):
        return failure._result("exact-hypergeometric", 0.0, LOG_ZERO, clamped=False)
    degree = sum(mult * top for _, mult, top, _ in runs)
    length = failure._next_fast_len(max(m, degree - m) + 1)
    groups = failure._cap_groups(runs, length)
    log_norm = log_binomial_coefficient(n_total, m)
    u0 = math.log(m / (n_total - m))
    log_delta = failure._log_failure(
        groups, m, *failure._saddle_tilt(groups, m, u0, "fail"), length, log_norm)
    log_survival = None
    if log_delta >= -math.log(2.0):
        log_survival = failure._log_survival(
            groups, m, *failure._saddle_tilt(groups, m, u0, "surv"), length, log_norm)
        log_delta = log1mexp(log_survival)
    return failure._result("exact-hypergeometric", log_delta, log_survival, clamped=False)


# -------------------------------------------------------------------------
# the two bound walks that ``failure._BOUNDS`` and ``failure._bound`` replaced


def _random_tight(n, p, q, d, total):
    return -total * d if n == total else total * math.log1p(n / total * math.expm1(-d))


# tag -> (model, union, log_term(n, p, q, D, N)); Theorem 1 rows are not unions
KL_BOUNDS = {
    "theorem1-lower": ("average", False, lambda n, p, q, d, total:
                       -n * d - 0.5 * math.log(8.0 * n * q * (1.0 - q))),
    "theorem1-upper-ash": ("average", False, lambda n, p, q, d, total: -n * d),
    "theorem1-upper-ferrante": ("average", False, lambda n, p, q, d, total:
                                -n * d - math.log1p(-p * (1.0 - q) / (q * (1.0 - p)))
                                - 0.5 * math.log(2.0 * math.pi * q * (1.0 - q) * n)),
    "union-fixed": ("average", True, lambda n, p, q, d, total: -n * d),
    "union-random": ("average", True, _random_tight),
    "union-random-simple": ("average", True, lambda n, p, q, d, total:
                            total * (n / total) * math.expm1(-d)),
    "union-hyper-hoeffding": ("exact", True, lambda n, p, q, d, total: -n * d),
}


def kl_bound(method: str, query: FailureQuery) -> DeltaResult:
    """A ``KL_BOUNDS`` row by its own walk: each end of the sandwich restated
    inline, a run violating p < q < 1 given the trivial bound 1."""
    model, union, log_term = KL_BOUNDS[method]
    n_total = query.layout.total
    if model == "average":
        rate, warning = failure._require_average(query), "bound precondition violated"
    else:
        rate, warning = failure._require_exact(query) / n_total, "Hoeffding precondition violated"
    terms = []
    precondition_ok = True
    for size, mult, cap in query.layout.allowances(query.threshold):
        if cap >= size:
            continue
        q = (cap + 1) / size
        if rate < q < 1.0:
            log_bound = log_term(size, rate, q, kl_divergence(q, rate), n_total)
        else:
            precondition_ok = False
            log_bound = 0.0
        terms.append(math.log(mult) + log_bound if union else (min(log_bound, 0.0), mult))
    raw = log_sum_exp(terms) if union else stable_complement_product(terms)
    return failure._result(method, raw, precondition_ok=precondition_ok,
                           warnings=() if precondition_ok else (f"{warning} for some committee",))


def union_hyper_exact(query: FailureQuery) -> DeltaResult:
    """The exactly-M union bound by its own walk: the sum of the exact marginal
    tails of every run, including those that cannot fail."""
    m = failure._require_exact(query)
    n_total = query.layout.total
    tails = [(HypergeometricCounts(n_total, m).tail(size, cap), mult)
             for size, mult, cap in query.layout.allowances(query.threshold)]
    return failure._result("union-hyper-exact",
                           log_sum_exp([math.log(mult) + t for t, mult in tails]))


def bound_reference(tag: str, query: FailureQuery) -> DeltaResult:
    return union_hyper_exact(query) if tag == "union-hyper-exact" else kl_bound(tag, query)


def binomial_log_tail(count: int, samples: int, log_p: float, log_q: float,
                      upper: bool) -> float:
    """log P(X >= count) if ``upper`` else log P(X <= count), X ~ Bin(samples, p),
    with p and q = 1 - p given by their logs, so that the rarer outcome keeps
    its full relative accuracy.

    Summed from ``count`` outward, one ``math.lgamma`` pmf term at a time in
    log space, until a term falls below 1e-20 of the running sum.  Past the
    mode the terms decrease, so the terms left out add at most ``samples`` x
    1e-20 of the sum.  Each term carries the rounding of lgamma(samples + 1),
    about 1e-9 relative at 1e6 samples.  The lower tail is the upper tail of
    samples - X ~ Bin(samples, q).
    """
    if not upper:
        return binomial_log_tail(samples - count, samples, log_q, log_p, True)
    if count <= 0:
        return 0.0
    if count > samples or log_p == -math.inf:
        return -math.inf
    if log_q == -math.inf:
        return 0.0
    log_n_fact = math.lgamma(samples + 1)
    cutoff = math.log(1e-20)
    total = -math.inf
    for k in range(count, samples + 1):
        term = (log_n_fact - math.lgamma(k + 1) - math.lgamma(samples - k + 1)
                + k * log_p + (samples - k) * log_q)
        if term < total + cutoff:
            break
        high, low = max(total, term), min(total, term)
        total = high + math.log1p(math.exp(low - high))
    return min(total, 0.0)


def binomial_far_tail(count: int, samples: int, log_p: float, log_q: float) -> float:
    """The exact tail of X ~ Bin(samples, p) beyond ``count``, on the far side
    from the mean: P(X >= count) above the mean, P(X <= count) at or below it.

    The tail on the side of the mean contains the median, so it is at least
    1/2; the far one is the probability of a count at least as extreme as
    this one in its direction.  The mean is compared on the rarer outcome.
    """
    if log_p <= log_q:
        upper = count > samples * math.exp(log_p)
    else:
        upper = samples - count < samples * math.exp(log_q)
    return math.exp(binomial_log_tail(count, samples, log_p, log_q, upper))
