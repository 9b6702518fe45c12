import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from shardrisk import simulate
from shardrisk.cli import main
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
    _group_survival,
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
        assert (sample_counts_average(layout, 1.0, rng()) == (3, 5, 2)).all()

    def test_exact_degenerate_counts(self):
        layout = CommitteeLayout((3, 5, 2))
        assert (sample_counts_exact(layout, 0, rng()) == 0).all()
        assert (sample_counts_exact(layout, 10, rng()) == (3, 5, 2)).all()

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
# where numpy's binomial sampler inverts one uniform per committee.  Only in
# the first does every group hold one committee.
_INVERSION_CASES = (
    ((12, 10, 12, 11), 0.25, THIRD),
    ((5, 3, 5, 5), 0.5, THIRD),
    ((7, 9, 30, 3, 3, 40), 0.3, THIRD),
    ((50,) * 20, 0.1, Fraction(1, 5)),
    ((10,) * 1000, 0.1, Fraction(1, 2)),
)

# inversion-regime layouts whose groups each hold one committee; the
# alternating one has 1000 groups, so a chunk draws it in several blocks
_SINGLETON_GROUP_CASES = (
    _INVERSION_CASES[0],
    ((7, 9, 30, 3, 4, 40), 0.3, THIRD),
    ((10, 11) * 500, 0.1, Fraction(1, 2)),
)

_GROUPED_CASES = _INVERSION_CASES[1:]


def _query(sizes, rate, threshold):
    return FailureQuery(CommitteeLayout(sizes), AverageAdversary(rate), threshold)


def _multiplicities(query):
    return [mult for _, mult in query.layout.runs]


@pytest.mark.parametrize("seed", range(12))
def test_singleton_groups_equal_binomial_counts(seed):
    sizes, rate, threshold = _SINGLETON_GROUP_CASES[seed % len(_SINGLETON_GROUP_CASES)]
    query = _query(sizes, rate, threshold)
    assert _multiplicities(query) == [1] * len(sizes)
    k = len(sizes)
    # two chunks, the second partial; at K = 1000 one chunk of several blocks
    samples = 2000 if k > 100 else CHUNK_SAMPLES + 3000
    rates = np.full(k, float(rate))
    caps = np.array([floor_rate_multiple(threshold, s) for s in sizes])
    expected = 0
    for index, start in enumerate(range(0, samples, CHUNK_SAMPLES)):
        count = min(CHUNK_SAMPLES, samples - start)
        counts = _chunk_rng(seed, index).binomial(np.asarray(sizes), rates,
                                                  size=(count, k))
        expected += int((counts > caps).any(axis=1).sum())
    assert 0 < expected < samples
    plan = SimulationPlan(query, samples=samples, seed=seed)
    assert estimate_delta(plan).failures == expected


@pytest.mark.parametrize("case", range(len(_INVERSION_CASES)))
def test_cap_cdf_flags_the_counts_numpy_inverts_above_the_cap(case):
    # per committee, the uniform numpy's binomial sampler inverts exceeds the
    # cap CDF exactly when the count it yields exceeds the cap
    sizes, rate, threshold = _INVERSION_CASES[case]
    k = len(sizes)
    cdfs = np.array([_group_survival(_query((s,), rate, threshold))[0] for s in sizes])
    caps = np.array([floor_rate_multiple(threshold, s) for s in sizes])
    count = 20_000 if k <= 100 else 2000
    uniforms = _chunk_rng(case, 0).random((count, k))
    counts = _chunk_rng(case, 0).binomial(np.asarray(sizes), np.full(k, float(rate)),
                                          size=(count, k))
    assert ((uniforms > cdfs) == (counts > caps)).all()
    assert (counts > caps).any()


def _group_survival_oracle(sizes, rate, threshold):
    """c^m per run of adjacent equal sizes, exactly."""
    survival = []
    for size, run in itertools.groupby(sizes):
        mult = len(list(run))
        cap = math.floor(threshold * size)
        if cap >= size:
            survival.append(math.inf)
            continue
        p = Fraction(float(rate))
        c = sum(math.comb(size, j) * p ** j * (1 - p) ** (size - j)
                for j in range(cap + 1))
        survival.append(float(c ** mult))
    return survival


@pytest.mark.parametrize("sizes, rate, threshold", [
    *_INVERSION_CASES,
    ((10, 11) * 500, 0.1, Fraction(1, 2)),
    ((2, 7, 3, 3), 0.25, Fraction(1)),           # caps reach every size
    ((4, 4, 6), 1.0, Fraction(1, 2)),            # p = 1 always fails
    ((4, 4, 6), 0.0, Fraction(1, 2)),            # p = 0 never fails
])
def test_group_thresholds_match_exact_survival(sizes, rate, threshold):
    query = _query(sizes, rate, threshold)
    got = _group_survival(query)
    want = _group_survival_oracle(sizes, rate, threshold)
    assert got.shape == (len(want),)
    assert got.tolist() == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("case", range(len(_GROUPED_CASES)))
def test_grouped_failure_frequency_matches_exact_value(case):
    query = _query(*_GROUPED_CASES[case])
    assert max(_multiplicities(query)) > 1
    exact = delta_exact_binomial(query).delta
    estimate = estimate_delta(SimulationPlan(query, samples=100_000, seed=51 + case))
    se = math.sqrt(exact * (1 - exact) / estimate.samples)
    assert 0.0 < exact < 1.0
    assert abs(estimate.delta_hat - exact) <= 5 * se


def test_one_uniform_per_sample_on_equal_committees(monkeypatch):
    """1000 committees of 10 form one group: one uniform per sample, not 1000."""
    drawn = []

    class CountingRng:
        def __init__(self, rng):
            self._rng = rng

        def random(self, size):
            drawn.append(math.prod(size))
            return self._rng.random(size)

    chunk_rng = simulate._chunk_rng
    monkeypatch.setattr(simulate, "_chunk_rng",
                        lambda seed, index: CountingRng(chunk_rng(seed, index)))
    code = main(["simulate", "--layout", ",".join(["10"] * 1000), "--threshold", "1/2",
                 "--adversary-frac", "1/10", "--samples", "40960", "--seed", "7"])
    assert code == 0
    assert sum(drawn) == 40960


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
@pytest.mark.parametrize("query, samples", [
    (FailureQuery(layout_from_split(10_000, 1000), AverageAdversary(Fraction(1, 10)),
                  Fraction(1, 2)), 65536),
    (FailureQuery(layout_from_split(10_000, 1000), ExactAdversary(1000),
                  Fraction(1, 2)), 4096),
    # sizes 10 and 11 alternate: a thousand groups, drawn in 4 MiB blocks
    (_query((10, 11) * 500, Fraction(1, 10), Fraction(1, 2)), 65536),
])
def test_chunk_memory_bounded_at_a_thousand_committees(query, samples, workers):
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


def _run_tail(sizes, m, first, mult, cap):
    """P(some committee first..first + mult - 1 holds more than cap adversaries)
    under the exactly-M law, by enumerating every count vector."""
    failing = 0
    for counts in itertools.product(*[range(s + 1) for s in sizes]):
        if sum(counts) == m and max(counts[first:first + mult]) > cap:
            failing += math.prod(math.comb(s, c) for s, c in zip(sizes, counts))
    return failing / math.comb(sum(sizes), m)


@pytest.mark.parametrize("seed", range(20))
def test_exact_committee_counts_match_marginal_law(seed):
    # one run at a time gets a cap below its size, every other run a cap at
    # its size; the failure frequency is then the tail P(Y > c) of the run's
    # largest count Y, and over every c it is the histogram of Y (the
    # committee's own count, for a run of one)
    sizes, m = (((5, 3, 5, 5), 6), ((5, 3, 5, 5), 5), ((4, 1, 6), 4),
                ((6, 6), 6))[seed % 4]
    layout = CommitteeLayout(sizes)
    query = FailureQuery(layout, ExactAdversary(m), THIRD)
    samples = 4000
    first = 0
    for index, (size, mult) in enumerate(layout.runs):
        for cap in range(size):
            table = [(s, k, s) for s, k in layout.runs]
            table[index] = (size, mult, cap)
            failures = _exact_failures(_chunk_rng(seed, index * 100 + cap), query,
                                       samples, table)
            tail = _run_tail(sizes, m, first, mult, cap)
            if tail in (0.0, 1.0):
                assert failures == tail * samples, (index, cap)
            else:
                se = math.sqrt(tail * (1 - tail) / samples)
                assert abs(failures / samples - tail) <= 5 * se, (index, cap)
        first += mult


def _per_committee_walk(rng, sizes, m, caps, count):
    """The exactly-M walk over the expanded committee sequence, one cap per
    committee: the form the run-wise walk replaced."""
    unplaced_nodes = sum(sizes)
    unplaced = np.full(count, m, dtype=np.int64)
    failures = 0
    for index, (size, cap) in enumerate(zip(sizes, caps)):
        if index == len(sizes) - 1:
            counts = unplaced
        else:
            counts = rng.hypergeometric(unplaced, unplaced_nodes - unplaced, size)
        live = counts <= cap
        failures += count - int(np.count_nonzero(live))
        unplaced = (unplaced - counts)[live]
        unplaced_nodes -= size
        count = unplaced.size
        if not count:
            break
    return failures


@pytest.mark.parametrize("sizes, threshold, m", [
    ((12, 10, 12, 11), THIRD, 11),
    ((5, 3, 5, 5), THIRD, 6),
    ((10,) * 300, Fraction(1, 2), 300),
    ((50,) * 20, Fraction(1, 5), 250),
    ((7, 9, 9, 30, 3, 3, 40, 7), THIRD, 25),
    ((2, 7, 3), Fraction(1), 6),
])
def test_run_walk_draws_the_per_committee_walk(sizes, threshold, m):
    # the same hypergeometric calls in the same order, so the same counts
    query = FailureQuery(CommitteeLayout(sizes), ExactAdversary(m), threshold)
    per_committee = [floor_rate_multiple(threshold, size) for size in sizes]
    for chunk in range(2):
        got = _exact_failures(_chunk_rng(5, chunk), query, 1000,
                              query.layout.allowances(threshold))
        want = _per_committee_walk(_chunk_rng(5, chunk), sizes, m, per_committee, 1000)
        assert got == want
