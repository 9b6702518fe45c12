import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    binomial_failure_enumeration,
    exact_m_failure_survival,
    failure_threshold,
    hypergeometric_failure_table,
    log_ratio,
)
from shardrisk.failure import (
    DeltaResult,
    FailureQuery,
    _marginal_log_tail,
    delta_exact_binomial,
    delta_exact_hypergeometric,
    theorem1_bounds,
    union_bound_fixed_sizes,
    union_bound_hypergeometric,
    union_bound_random_sizes,
)
from shardrisk.partitions import (
    AverageAdversary,
    CommitteeLayout,
    ExactAdversary,
    hypergeometric_marginal_log_pmf,
    layout_from_split,
)
from shardrisk.probcore import (
    LOG_ZERO,
    binomial_tail_and_cdf,
    kl_divergence,
    log_sum_exp,
)

THIRD = Fraction(1, 3)
HALF = Fraction(1, 2)


def avg_query(sizes, rate, threshold=THIRD) -> FailureQuery:
    return FailureQuery(CommitteeLayout(sizes), AverageAdversary(rate), threshold)


def exact_query(sizes, count, threshold=THIRD) -> FailureQuery:
    return FailureQuery(CommitteeLayout(sizes), ExactAdversary(count), threshold)


class TestFailureThreshold:
    def test_examples(self):
        assert failure_threshold(THIRD, 5) == 2
        assert failure_threshold(THIRD, 3) == 2  # boundary: A * size integral
        assert failure_threshold(HALF, 2) == 2

    def test_rejects_degenerate_fraction(self):
        with pytest.raises(ValueError):
            failure_threshold(Fraction(1), 5)
        with pytest.raises(ValueError):
            failure_threshold(0.0, 5)


class TestDeltaExactBinomial:
    def test_two_committees_of_five(self):
        result = delta_exact_binomial(avg_query((5, 5), 0.25))
        assert result.delta == pytest.approx(0.59954833984375, abs=1e-12)
        assert result.method == "exact-binomial"
        assert not result.clamped and result.precondition_ok

    def test_no_adversaries(self):
        assert delta_exact_binomial(avg_query((4, 4, 4), 0.0)).delta == 0.0

    def test_certain_adversaries(self):
        assert delta_exact_binomial(avg_query((2,), 1.0)).delta == 1.0

    def test_log_survival_consistent(self):
        result = delta_exact_binomial(avg_query((5, 5), 0.25))
        assert result.log_survival == pytest.approx(2 * math.log(0.6328125), abs=1e-13)

    @pytest.mark.parametrize("sizes", [(2, 3), (4, 4), (1, 2, 3), (5, 5)])
    @pytest.mark.parametrize("rate", [0.25, 0.6])
    @pytest.mark.parametrize("threshold", [THIRD, HALF])
    def test_matches_exhaustive_enumeration(self, sizes, rate, threshold):
        expected = binomial_failure_enumeration(sizes, rate, threshold)
        got = delta_exact_binomial(avg_query(sizes, rate, threshold)).delta
        assert got == pytest.approx(expected, abs=1e-10)

    def test_per_committee_rates(self):
        query = FailureQuery(
            CommitteeLayout((5, 5)), AverageAdversary((0.25, 0.0)), THIRD
        )
        assert delta_exact_binomial(query).delta == pytest.approx(0.3671875, abs=1e-12)


class TestDeltaExactHypergeometric:
    def test_two_committees_two_adversaries(self):
        result = delta_exact_hypergeometric(exact_query((2, 2), 2, HALF))
        assert result.delta == pytest.approx(1 / 3, abs=1e-12)

    def test_concentration_impossible(self):
        # M no larger than any committee's allowance: no failure possible
        assert delta_exact_hypergeometric(exact_query((3, 3), 1)).delta == 0.0

    def test_saturated_committees(self):
        assert delta_exact_hypergeometric(exact_query((3, 3), 6)).delta == 1.0

    def test_allowances_below_adversary_count_fail_exactly(self):
        # allowances 1 + 1 cannot hold 3 adversaries
        result = delta_exact_hypergeometric(exact_query((3, 3), 3))
        assert result.delta == 1.0 and result.log_survival == LOG_ZERO

    def test_large_network_without_node_cap(self):
        layout = layout_from_split(200_000, 100)
        result = delta_exact_hypergeometric(
            FailureQuery(layout, ExactAdversary(50_000), THIRD))
        assert math.isfinite(result.log_delta) and math.isfinite(result.log_survival)
        assert math.exp(result.log_delta) + math.exp(result.log_survival) == pytest.approx(
            1.0, abs=1e-12)

    @pytest.mark.parametrize("sizes", [(2, 2), (3, 4), (1, 2, 3), (4, 4, 4)])
    @pytest.mark.parametrize("threshold", [THIRD, HALF])
    def test_matches_exhaustive_enumeration(self, sizes, threshold):
        fail, total = hypergeometric_failure_table(sizes, threshold)
        n = sum(sizes)
        for m in range(n + 1):
            expected = fail[m] / math.comb(n, m)
            got = delta_exact_hypergeometric(exact_query(sizes, m, threshold)).delta
            assert got == pytest.approx(expected, abs=1e-10), (sizes, m)

    def test_monotone_nonincreasing_in_threshold(self):
        thresholds = [Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)]
        values = [
            delta_exact_hypergeometric(exact_query((10, 10), 7, a)).delta
            for a in thresholds
        ]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))


@st.composite
def layouts_with_count(draw):
    sizes = tuple(draw(st.lists(st.integers(1, 30), min_size=1, max_size=5)))
    return sizes, draw(st.integers(0, sum(sizes)))


def assert_matches_exact_oracle(runs, count, threshold=THIRD):
    """Failure and survival each within 1e-9 relative of big-integer arithmetic."""
    fail, surv, total = exact_m_failure_survival(runs, count, threshold)
    query = FailureQuery(CommitteeLayout.from_runs(runs), ExactAdversary(count), threshold)
    result = delta_exact_hypergeometric(query)
    if fail == 0:
        assert result.delta == 0.0 and result.log_survival == 0.0
    elif surv == 0:
        assert result.delta == 1.0 and result.log_survival == LOG_ZERO
    else:
        assert result.log_delta == pytest.approx(log_ratio(fail, total), abs=1e-9)
        assert result.log_survival == pytest.approx(log_ratio(surv, total), abs=1e-9)
    return result


class TestExactMOracle:
    """Both sides of the exactly-M evaluator against exact integer weights.

    Failure derived as 1 - survival gives 0.0 at N = 3000, K = 3, where the
    true value is 2.63e-13, and errs by 8e-4 relative on two committees of
    500 with M = 250.  At 8.39e-301, failure underflows to 0 unless each
    committee's failing row carries its own scale.
    """

    @pytest.mark.parametrize("nodes, committees, rate, delta", [
        (3000, 3, Fraction(1, 4), 2.63e-13),
        (6000, 8, Fraction(1, 4), 1.27e-7),
        (1000, 5, Fraction(1, 10), 4.6e-27),
        (8000, 4, Fraction(1, 10), 8.39e-301),
    ])
    def test_split_layouts(self, nodes, committees, rate, delta):
        runs = layout_from_split(nodes, committees).runs
        result = assert_matches_exact_oracle(runs, int(nodes * rate))
        assert result.delta == pytest.approx(delta, rel=1e-2)

    def test_two_committees_of_five_hundred(self):
        result = assert_matches_exact_oracle(((500, 2),), 250)
        assert result.delta == pytest.approx(1.0258257659e-9, rel=1e-10)

    @given(case=layouts_with_count(), threshold=st.sampled_from((Fraction(1, 4), THIRD, HALF)))
    @example(case=((5, 3, 5, 5), 7), threshold=THIRD)
    @settings(max_examples=80, deadline=None)
    def test_small_unsorted_layouts(self, case, threshold):
        sizes, count = case
        assert_matches_exact_oracle(CommitteeLayout(sizes).runs, count, threshold)


class TestTheorem1Bounds:
    def test_sandwich_on_two_committees(self):
        query = avg_query((5, 5), 0.25)
        exact = delta_exact_binomial(query).delta
        lower, ash, ferrante = theorem1_bounds(query)
        assert lower.delta <= exact + 1e-12
        assert exact <= ferrante.delta + 1e-12
        assert ferrante.delta <= ash.delta + 1e-12

    def test_single_committee_tail_chain(self):
        query = avg_query((100,), 0.25)
        _, log_tail = binomial_tail_and_cdf(100, 0.25, 33)
        exact_tail = math.exp(log_tail)
        lower, ash, ferrante = theorem1_bounds(query)
        assert lower.delta <= exact_tail + 1e-12
        assert exact_tail <= ferrante.delta + 1e-12
        assert ferrante.delta <= ash.delta + 1e-12

    def test_upper_degenerates_near_precondition_boundary(self):
        # rate just below the failure fraction: the KL term vanishes
        query = avg_query((10,) * 4, 0.3999999)
        _, ash, _ = theorem1_bounds(query)
        assert ash.delta > 0.999
        assert ash.precondition_ok

    def test_precondition_violation_degrades(self):
        query = avg_query((10,) * 4, 0.5)  # rate above q = 0.4
        lower, ash, ferrante = theorem1_bounds(query)
        for result in (lower, ash, ferrante):
            assert not result.precondition_ok
            assert result.delta == 1.0

    def test_unit_committee_hits_q_equals_one(self):
        # a size-1 committee fails at count 1, so q = 1 and the bound
        # precondition fails: flag and degrade rather than error
        query = avg_query((1, 50), 0.25)
        lower, ash, ferrante = theorem1_bounds(query)
        for result in (lower, ash, ferrante):
            assert not result.precondition_ok
            assert result.delta == 1.0
        # the exact evaluator has no such restriction
        exact = delta_exact_binomial(query).delta
        assert 0.25 <= exact <= 1.0

    def test_grid_sandwich(self):
        for n in range(10, 201, 38):
            for k in (1, 7, 50):
                for rate in (0.1, 0.25):
                    query = avg_query((n,) * k, rate)
                    exact = delta_exact_binomial(query).delta
                    lower, ash, ferrante = theorem1_bounds(query)
                    assert lower.precondition_ok
                    assert lower.delta <= exact + 1e-12
                    assert exact <= ferrante.delta + 1e-12
                    assert ferrante.delta <= ash.delta + 1e-12


class TestUnionBounds:
    def test_fixed_sizes_exceeds_unity_and_clamps(self):
        result = union_bound_fixed_sizes(avg_query((5, 5), 0.25))
        assert result.clamped
        assert result.delta == 1.0
        expected_raw = 2 * math.exp(-5 * kl_divergence(0.4, 0.25))
        assert math.exp(result.raw_log_delta) == pytest.approx(expected_raw, rel=1e-12)

    def test_single_committee_equals_product_form(self):
        query = avg_query((50,), 0.25)
        _, ash, _ = theorem1_bounds(query)
        fixed = union_bound_fixed_sizes(query)
        assert fixed.delta == pytest.approx(ash.delta, rel=1e-12)

    def test_sum_form_dominates_product_form(self):
        for n in (10, 40, 120):
            for k in (2, 9, 30):
                query = avg_query((n,) * k, 0.25)
                _, ash, _ = theorem1_bounds(query)
                fixed = union_bound_fixed_sizes(query)
                assert fixed.raw_log_delta >= ash.raw_log_delta - 1e-12

    def test_random_sizes_single_committee_reduction(self):
        q = (33 + 1) / 100
        tight, _ = union_bound_random_sizes(100, [1.0], [0.25], THIRD, [100])
        assert tight.delta == pytest.approx(
            math.exp(-100 * kl_divergence(q, 0.25)), rel=1e-12
        )

    def test_random_sizes_simple_form_is_looser(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            raw = rng.random(k) + 0.05
            probs = list(raw / raw.sum())
            rates = list(rng.uniform(0.05, 0.3, size=k))
            hints = [int(h) for h in rng.integers(10, 200, size=k)]
            tight, simple = union_bound_random_sizes(500, probs, rates, THIRD, hints)
            assert simple.raw_log_delta >= tight.raw_log_delta - 1e-12

    def test_random_sizes_dominates_fixed_at_expected_sizes(self):
        tight, simple = union_bound_random_sizes(
            100, [0.5, 0.5], [0.25, 0.25], THIRD, [50, 50]
        )
        fixed = union_bound_fixed_sizes(avg_query((50, 50), 0.25))
        assert tight.raw_log_delta >= fixed.raw_log_delta - 1e-12
        assert simple.raw_log_delta >= tight.raw_log_delta - 1e-12

    def test_marginal_tail_row_matches_per_count_sum(self):
        # the log-gamma row against a per-count sum of the closed form, at
        # the tolerance the closed forms themselves are held to
        for total, size, m, cap in ((10_000, 100, 2500, 33), (10_000, 100, 2500, 50),
                                    (3000, 1000, 750, 333), (60, 50, 55, 20),
                                    (200, 7, 3, 1), (20, 5, 18, 3)):
            terms = [hypergeometric_marginal_log_pmf(j, size, total, m)
                     for j in range(cap + 1, min(size, m) + 1)]
            expected = min(log_sum_exp(np.array(terms)), 0.0)
            tolerance = 16 * math.ulp(math.lgamma(total + 1))
            assert abs(_marginal_log_tail(size, total, m, cap) - expected) <= tolerance

    @pytest.mark.parametrize("change, match", [
        ({"total_nodes": 0}, "total_nodes must be positive"),
        ({"committee_probs": [0.5, 0.4]}, "sum to 1"),
        ({"rates": [0.25]}, "equal length"),
        ({"threshold": 0}, "strictly inside"),
        ({"threshold": 1}, "strictly inside"),
        ({"size_hints": [50, 0]}, "size hints must be positive"),
    ])
    def test_random_sizes_rejects_bad_input(self, change, match):
        args = {"total_nodes": 100, "committee_probs": [0.5, 0.5],
                "rates": [0.25, 0.25], "threshold": THIRD, "size_hints": [50, 50]}
        with pytest.raises(ValueError, match=match):
            union_bound_random_sizes(**{**args, **change})

    @pytest.mark.parametrize("bound", [theorem1_bounds, union_bound_fixed_sizes])
    @pytest.mark.parametrize("sizes, rate", [((5, 5), 0.25), ((1, 7, 7), 0.9)])
    def test_committees_that_cannot_fail_are_skipped(self, bound, sizes, rate):
        # at threshold 1 every cap reaches its committee size: no term, delta 0
        results = bound(avg_query(sizes, rate, Fraction(1)))
        for result in results if isinstance(results, tuple) else (results,):
            assert result.delta == 0.0
            assert result.precondition_ok

    def test_hypergeometric_tail_sum_tight_for_disjoint_events(self):
        exact_sum, _ = union_bound_hypergeometric(exact_query((2, 2), 2, HALF))
        assert exact_sum.delta == pytest.approx(1 / 3, abs=1e-12)

    def test_hypergeometric_bounds_vanish_without_adversaries(self):
        exact_sum, hoeffding = union_bound_hypergeometric(exact_query((4, 4), 0))
        assert exact_sum.delta == 0.0
        assert hoeffding.delta == 0.0

    def test_hypergeometric_tail_sum_dominates_exact(self):
        query = exact_query((50, 50), 25)
        exact_sum, hoeffding = union_bound_hypergeometric(query)
        exact = delta_exact_hypergeometric(query).delta
        assert exact_sum.raw_log_delta >= math.log(exact) - 1e-10
        assert hoeffding.raw_log_delta >= exact_sum.raw_log_delta - 1e-12


class TestDominanceObservation:
    """The average-rate failure probability versus the exactly-M one.

    The claimed ordering (average >= exact at matched adversary mass) holds
    in the rare-failure regime but provably reverses once per-committee
    failure becomes likely; see the (4,4,4,4)/M=4 counterexample.  The
    check therefore asserts the ordering where failure is rare and reports
    the relation elsewhere.
    """

    def test_rare_event_regime(self):
        violations = []
        for k in (2, 4, 8):
            layout = layout_from_split(1000, k)
            binom = delta_exact_binomial(
                FailureQuery(layout, AverageAdversary(0.25), THIRD)
            ).delta
            hyper = delta_exact_hypergeometric(
                FailureQuery(layout, ExactAdversary(250), THIRD)
            ).delta
            if binom < hyper - 1e-12:
                violations.append((k, binom, hyper))
        assert not violations, violations

    def test_reversal_is_real_not_numerical(self):
        # exact counterexample checked against brute-force enumeration
        sizes = (4, 4, 4, 4)
        binom = delta_exact_binomial(avg_query(sizes, 0.25)).delta
        hyper = delta_exact_hypergeometric(exact_query(sizes, 4)).delta
        assert binom == pytest.approx(binomial_failure_enumeration(sizes, 0.25, THIRD),
                                      abs=1e-12)
        fail, _ = hypergeometric_failure_table(sizes, THIRD)
        assert hyper == pytest.approx(fail[4] / math.comb(16, 4), abs=1e-12)
        assert hyper > binom  # the conjectured ordering does not hold here


class TestDeltaMonotonicity:
    def test_binomial_delta_nonincreasing_in_threshold(self):
        thresholds = [Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(7, 10)]
        values = [
            delta_exact_binomial(avg_query((10, 10), 0.25, a)).delta
            for a in thresholds
        ]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))


class TestQueryValidation:
    def test_average_evaluator_rejects_exact_model(self):
        with pytest.raises(ValueError):
            delta_exact_binomial(exact_query((4, 4), 2))

    def test_exact_evaluator_rejects_average_model(self):
        with pytest.raises(ValueError):
            delta_exact_hypergeometric(avg_query((4, 4), 0.25))

    def test_count_beyond_total_rejected(self):
        with pytest.raises(ValueError):
            exact_query((2, 2), 5)

    def test_threshold_one_allowed_for_exact_evaluators(self):
        query = FailureQuery(CommitteeLayout((3, 3)), ExactAdversary(4), Fraction(1))
        assert delta_exact_hypergeometric(query).delta == 0.0
        query_b = FailureQuery(CommitteeLayout((3, 3)), AverageAdversary(0.9), Fraction(1))
        assert delta_exact_binomial(query_b).delta == 0.0
