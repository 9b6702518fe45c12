import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from shardrisk.failure import (
    FailureQuery,
    delta_exact_binomial,
    delta_exact_hypergeometric,
)
from shardrisk.partitions import (
    AverageAdversary,
    CommitteeLayout,
    ExactAdversary,
    hypergeometric_marginal_log_pmf,
    layout_from_split,
)
from shardrisk.probcore import binomial_tail_and_cdf, floor_rate_multiple
from shardrisk.simulate import (
    CHUNK_SAMPLES,
    SimulationPlan,
    _chunk_rng,
    _exact_failures,
    estimate_delta,
)

from oracles import (
    hypergeometric_failure_table,
    sample_counts_average,
    sample_counts_exact,
)

THIRD = Fraction(1, 3)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestSamplers:
    def test_average_degenerate_rates(self):
        layout = CommitteeLayout((3, 5, 2))
        assert (sample_counts_average(layout, 0.0, rng()) == 0).all()
        assert (
            sample_counts_average(layout, 1.0, rng()) == layout.sizes_array()
        ).all()

    def test_exact_degenerate_counts(self):
        layout = CommitteeLayout((3, 5, 2))
        assert (sample_counts_exact(layout, 0, rng()) == 0).all()
        assert (sample_counts_exact(layout, 10, rng()) == layout.sizes_array()).all()

    def test_exact_count_always_conserved(self):
        layout = CommitteeLayout((4, 7, 9))
        stream = rng(3)
        for _ in range(200):
            assert sample_counts_exact(layout, 11, stream).sum() == 11

    def test_average_per_committee_frequencies(self):
        layout = CommitteeLayout((5, 5))
        stream = rng(42)
        draws = np.stack(
            [sample_counts_average(layout, 0.25, stream) for _ in range(20000)]
        )
        # compare each count's frequency in committee 0 with the binomial pmf
        for count in range(6):
            log_cdf, log_tail = binomial_tail_and_cdf(5, 0.25, count)
            prev = math.exp(binomial_tail_and_cdf(5, 0.25, count - 1)[0]) if count else 0.0
            pmf = math.exp(log_cdf) - prev
            freq = (draws[:, 0] == count).mean()
            sigma = math.sqrt(pmf * (1 - pmf) / len(draws))
            assert abs(freq - pmf) < 4 * sigma + 1e-12, count

    def test_exact_joint_frequencies(self):
        layout = CommitteeLayout((2, 2))
        stream = rng(7)
        draws = np.stack(
            [sample_counts_exact(layout, 2, stream) for _ in range(30000)]
        )
        expected = {(2, 0): 1 / 6, (1, 1): 2 / 3, (0, 2): 1 / 6}
        for pattern, pmf in expected.items():
            freq = ((draws == pattern).all(axis=1)).mean()
            sigma = math.sqrt(pmf * (1 - pmf) / len(draws))
            assert abs(freq - pmf) < 4 * sigma, pattern

    def test_exact_marginal_frequencies_midsize(self):
        layout = CommitteeLayout((10, 40))
        stream = rng(11)
        draws = np.stack(
            [sample_counts_exact(layout, 12, stream) for _ in range(30000)]
        )
        for count in (0, 2, 4, 6):
            pmf = math.exp(hypergeometric_marginal_log_pmf(count, 10, 50, 12))
            freq = (draws[:, 0] == count).mean()
            sigma = math.sqrt(pmf * (1 - pmf) / len(draws))
            assert abs(freq - pmf) < 4 * sigma, count


class TestEstimateDelta:
    def test_no_adversaries_gives_zero(self):
        plan = SimulationPlan(
            FailureQuery(CommitteeLayout((5, 5)), AverageAdversary(0.0), THIRD),
            samples=1000,
            seed=1,
        )
        estimate = estimate_delta(plan)
        assert estimate.failures == 0
        assert estimate.delta_hat == 0.0
        assert estimate.ci95 == (0.0, 3.0 / 1000)

    def test_single_sample_is_bernoulli(self):
        plan = SimulationPlan(
            FailureQuery(CommitteeLayout((5, 5)), AverageAdversary(0.25), THIRD),
            samples=1,
            seed=5,
        )
        assert estimate_delta(plan).delta_hat in (0.0, 1.0)

    def test_average_mode_matches_exact_value(self):
        query = FailureQuery(CommitteeLayout((5, 5)), AverageAdversary(0.25), THIRD)
        exact = delta_exact_binomial(query).delta
        estimate = estimate_delta(SimulationPlan(query, samples=100_000, seed=9))
        se = math.sqrt(exact * (1 - exact) / estimate.samples)
        assert abs(estimate.delta_hat - exact) <= 5 * se

    def test_exact_mode_matches_enumeration(self):
        query = FailureQuery(
            CommitteeLayout((2, 2)), ExactAdversary(2), Fraction(1, 2)
        )
        estimate = estimate_delta(SimulationPlan(query, samples=100_000, seed=13))
        se = math.sqrt((1 / 3) * (2 / 3) / estimate.samples)
        assert abs(estimate.delta_hat - 1 / 3) <= 5 * se

    def test_reproducible_across_worker_counts(self):
        query = FailureQuery(
            layout_from_split(100, 7), AverageAdversary(0.25), THIRD
        )
        runs = [
            estimate_delta(SimulationPlan(query, samples=70_000, seed=123, workers=w))
            for w in (1, 2, 8)
        ]
        assert runs[0].failures == runs[1].failures == runs[2].failures
        query_exact = FailureQuery(
            layout_from_split(100, 7), ExactAdversary(25), THIRD
        )
        runs = [
            estimate_delta(
                SimulationPlan(query_exact, samples=70_000, seed=123, workers=w)
            )
            for w in (1, 4)
        ]
        assert runs[0].failures == runs[1].failures

    def test_seed_changes_the_draw(self):
        query = FailureQuery(layout_from_split(60, 4), AverageAdversary(0.25), THIRD)
        a = estimate_delta(SimulationPlan(query, samples=50_000, seed=1))
        b = estimate_delta(SimulationPlan(query, samples=50_000, seed=2))
        assert a.failures != b.failures

    def test_interval_clipped_and_ordered(self):
        query = FailureQuery(CommitteeLayout((4, 4)), AverageAdversary(0.5), THIRD)
        estimate = estimate_delta(SimulationPlan(query, samples=2_000, seed=3))
        low, high = estimate.ci95
        assert 0.0 <= low <= estimate.delta_hat <= high <= 1.0

    def test_plan_validation(self):
        query = FailureQuery(CommitteeLayout((4, 4)), AverageAdversary(0.5), THIRD)
        with pytest.raises(ValueError):
            SimulationPlan(query, samples=0, seed=1)
        with pytest.raises(ValueError):
            SimulationPlan(query, samples=10, seed=-1)
        with pytest.raises(ValueError):
            SimulationPlan(query, samples=10, seed=1, workers=0)


class TestEmpiricalDominance:
    def test_rare_event_regime_ordering(self):
        # average-rate failures dominate exactly-M failures while failures
        # are rare; the ordering provably reverses once the failure
        # probability is large (see the failure-module counterexample)
        for k in (2, 5):
            layout = layout_from_split(1000, k)
            avg = estimate_delta(
                SimulationPlan(
                    FailureQuery(layout, AverageAdversary(0.25), THIRD),
                    samples=100_000,
                    seed=17,
                )
            )
            exact = estimate_delta(
                SimulationPlan(
                    FailureQuery(layout, ExactAdversary(250), THIRD),
                    samples=100_000,
                    seed=18,
                )
            )
            joint_se = math.sqrt(avg.std_error ** 2 + exact.std_error ** 2)
            assert exact.delta_hat <= avg.delta_hat + 5 * joint_se + 1e-12, k

    def test_reversal_regime_detected(self):
        layout = layout_from_split(1000, 30)
        avg = estimate_delta(
            SimulationPlan(
                FailureQuery(layout, AverageAdversary(0.25), THIRD),
                samples=100_000,
                seed=19,
            )
        )
        exact = estimate_delta(
            SimulationPlan(
                FailureQuery(layout, ExactAdversary(250), THIRD),
                samples=100_000,
                seed=20,
            )
        )
        hyper = delta_exact_hypergeometric(
            FailureQuery(layout, ExactAdversary(250), THIRD)
        ).delta
        binom = delta_exact_binomial(
            FailureQuery(layout, AverageAdversary(0.25), THIRD)
        ).delta
        # simulations agree with their analytic counterparts on both sides
        assert abs(exact.delta_hat - hyper) <= 5 * exact.std_error
        assert abs(avg.delta_hat - binom) <= 5 * avg.std_error
        # and both confirm the ordering reversal at this grid point
        assert hyper > binom
        assert exact.delta_hat > avg.delta_hat


# (sizes, rate, threshold) with p <= 1/2 and n p <= 30 for every committee,
# where numpy's binomial sampler inverts one uniform per committee
_INVERSION_CASES = (
    ((12, 10, 12, 11), 0.25, THIRD),
    ((5, 3, 5, 5), 0.5, THIRD),
    ((7, 9, 30, 3, 3, 40), 0.3, THIRD),
    ((7, 9, 30, 3, 3, 40), (0.1, 0.5, 0.25, 0.3, 0.3, 0.2), THIRD),
    ((5, 3, 5, 5), (0.5, 0.25, 0.5, 0.1), Fraction(1, 2)),
    ((50,) * 20, 0.1, Fraction(1, 5)),
    ((10,) * 1000, 0.1, Fraction(1, 2)),
)


@pytest.mark.parametrize("seed", range(21))
def test_failures_equal_binomial_counts_in_inversion_regime(seed):
    sizes, rate, threshold = _INVERSION_CASES[seed % len(_INVERSION_CASES)]
    layout = CommitteeLayout(sizes)
    query = FailureQuery(layout, AverageAdversary(rate), threshold)
    k = layout.committee_count
    # two chunks, the second partial; at K = 1000 one chunk of several blocks
    samples = 2000 if k > 100 else CHUNK_SAMPLES + 3000
    rates = np.asarray(AverageAdversary(rate).rates_for(k))
    caps = np.array([floor_rate_multiple(threshold, s) for s in sizes])
    expected = 0
    for index, start in enumerate(range(0, samples, CHUNK_SAMPLES)):
        count = min(CHUNK_SAMPLES, samples - start)
        counts = _chunk_rng(seed, index).binomial(layout.sizes_array(), rates,
                                                  size=(count, k))
        expected += int((counts > caps).any(axis=1).sum())
    assert 0 < expected < samples
    plan = SimulationPlan(query, samples=samples, seed=seed)
    assert estimate_delta(plan).failures == expected


@pytest.mark.parametrize("size, rate", [(200, 0.3), (20, 0.75)])
def test_outside_inversion_regime_matches_exact_value(size, rate):
    # n p > 30 (BTPE) and p > 1/2, where numpy does not invert the uniform
    query = FailureQuery(CommitteeLayout((size,) * 5), AverageAdversary(rate),
                         THIRD if rate < 0.5 else Fraction(4, 5))
    exact = delta_exact_binomial(query).delta
    estimate = estimate_delta(SimulationPlan(query, samples=100_000, seed=31))
    se = math.sqrt(exact * (1 - exact) / estimate.samples)
    assert 0.05 < exact < 0.95
    assert abs(estimate.delta_hat - exact) <= 5 * se


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("adversary, samples", [
    (AverageAdversary(Fraction(1, 10)), 65536),
    (ExactAdversary(1000), 4096),
])
def test_chunk_memory_bounded_at_a_thousand_committees(adversary, samples, workers):
    query = FailureQuery(layout_from_split(10_000, 1000), adversary, Fraction(1, 2))
    plan = SimulationPlan(query, samples=samples, seed=41, workers=workers)
    tracemalloc.start()
    try:
        estimate = estimate_delta(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < estimate.failures < samples
    assert peak < 16 << 20


# (sizes, threshold, M): an unsorted layout, a size-1 committee whose cap is
# 0, the last committee taking the remainder, M = 0, M = N, M above the sum
# of the caps, and caps at least the committee size
_EXACT_LAW_CASES = (
    ((5, 3, 5, 5), THIRD, 6),
    ((5, 3, 5, 5), Fraction(1, 2), 5),
    ((5, 3, 5, 5), THIRD, 0),
    ((5, 3, 5, 5), THIRD, 18),
    ((5, 3, 5, 5), Fraction(1, 2), 8),
    ((4, 1, 6), Fraction(1, 2), 4),
    ((6, 6), Fraction(1, 2), 6),
    ((2, 7, 3), Fraction(1), 6),
)


@pytest.mark.parametrize("seed", range(24))
def test_exact_failure_frequency_matches_enumeration(seed):
    sizes, threshold, m = _EXACT_LAW_CASES[seed % len(_EXACT_LAW_CASES)]
    fail, total = hypergeometric_failure_table(sizes, threshold)
    exact = fail[m] / total[m]
    query = FailureQuery(CommitteeLayout(sizes), ExactAdversary(m), threshold)
    # two chunks, the second partial
    estimate = estimate_delta(SimulationPlan(query, samples=CHUNK_SAMPLES + 7000,
                                             seed=seed))
    if exact in (0.0, 1.0):
        assert estimate.delta_hat == exact
    else:
        se = math.sqrt(exact * (1 - exact) / estimate.samples)
        assert abs(estimate.delta_hat - exact) <= 5 * se


@pytest.mark.parametrize("seed", range(20))
def test_exact_committee_counts_match_marginal_law(seed):
    # one committee at a time gets a cap below its size, every other one a
    # cap at its size; the failure frequency is then that committee's
    # marginal tail P(X_i > c), and over every c it is the count histogram
    sizes, m = (((5, 3, 5, 5), 6), ((5, 3, 5, 5), 5), ((4, 1, 6), 4),
                ((6, 6), 6))[seed % 4]
    n_total = sum(sizes)
    query = FailureQuery(CommitteeLayout(sizes), ExactAdversary(m), THIRD)
    samples = 4000
    for index, size in enumerate(sizes):
        for cap in range(size):
            caps = np.array(sizes)
            caps[index] = cap
            failures = _exact_failures(_chunk_rng(seed, index * 100 + cap), query,
                                       samples, caps)
            tail = sum(math.comb(size, j) * math.comb(n_total - size, m - j)
                       for j in range(cap + 1, min(size, m) + 1)) / math.comb(n_total, m)
            if tail in (0.0, 1.0):
                assert failures == tail * samples, (index, cap)
            else:
                se = math.sqrt(tail * (1 - tail) / samples)
                assert abs(failures / samples - tail) <= 5 * se, (index, cap)
