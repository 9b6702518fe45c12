import functools
import math
from fractions import Fraction

import pytest

from oracles import (
    bracket_expansions,
    exact_m_failure_survival,
    exact_m_sandwich,
    scan_exact_m_committee_size,
    scan_largest_committee_count,
)
from shardrisk.failure import FailureQuery, delta_exact_binomial
from shardrisk.partitions import (
    AverageAdversary,
    exact_count_from_rate,
    hypergeometric_marginal_log_pmf,
    layout_from_split,
)
from shardrisk.probcore import kl_divergence
from shardrisk.sizing import (
    _log_tail_head,
    max_committees,
    min_committee_size,
    size_bracket,
)

THIRD = Fraction(1, 3)


def split_delta(total, k, threshold, rate):
    query = FailureQuery(
        layout_from_split(total, k), AverageAdversary(rate), threshold
    )
    return delta_exact_binomial(query).delta


@functools.cache
def exact_m_split_delta(total, k, threshold, rate) -> Fraction:
    """delta of the n/(n+1) split with exactly round(N P) adversaries, as a
    big-integer ratio."""
    count = exact_count_from_rate(total, rate)
    failing, _, ways = exact_m_failure_survival(layout_from_split(total, k).runs,
                                                count, threshold)
    return Fraction(failing, ways)


class TestMaxCommittees:
    def test_unreachable_target_keeps_single_committee(self):
        for model in ("average", "exact"):
            result = max_committees(20, 1e-9, THIRD, 0.25, model)
            assert (result.committees, result.base_size, result.remainder) == (1, 20, 0)
            assert result.prob == 0.0  # the untouched initial state reports 0
            assert result.iterations == 19

    def test_matches_scan_oracle_at_twenty_nodes(self):
        result = max_committees(20, 0.5, THIRD, 0.25)
        oracle = scan_largest_committee_count(
            20, lambda k: split_delta(20, k, THIRD, 0.25), 0.5
        )
        assert result.committees == oracle
        assert result.prob <= 0.5

    def test_single_node_network(self):
        result = max_committees(1, 0.5, THIRD, 0.25)
        assert (result.committees, result.base_size, result.remainder) == (1, 1, 0)

    def test_zero_adversaries_splits_fully(self):
        result = max_committees(30, 0.5, THIRD, 0.0)
        assert result.committees == 30
        assert result.base_size == 1

    def test_thousand_nodes_lands_inside_bracket(self):
        result = max_committees(1000, 1e-3, THIRD, 0.25)
        bracket = size_bracket(result.committees, 1e-3, THIRD, 0.25)
        assert bracket.lower - 1 <= result.base_size <= bracket.upper

    @pytest.mark.parametrize("delta_target", [0.5, 1e-3])
    @pytest.mark.parametrize("rate", [0.1, 0.25])
    def test_matches_scan_oracle_sampled(self, delta_target, rate):
        for model, delta_of in (("average", split_delta), ("exact", exact_m_split_delta)):
            for total in (1, 2, 3, 7, 24, 60, 137, 250, 300):
                result = max_committees(total, delta_target, THIRD, rate, model)
                oracle = scan_largest_committee_count(
                    total, lambda k: delta_of(total, k, THIRD, rate), delta_target
                )
                assert result.committees == oracle, (model, total, delta_target, rate)

    @pytest.mark.parametrize("total", [60, 300])
    def test_exact_model_prob_is_the_exact_value_at_its_count(self, total):
        result = max_committees(total, 0.5, THIRD, 0.25, "exact")
        assert result.iterations == total - 1
        exact = exact_m_split_delta(total, result.committees, THIRD, 0.25)
        assert result.prob == pytest.approx(float(exact), rel=1e-9)
        assert exact <= 0.5

    def test_model_validation(self):
        with pytest.raises(ValueError, match="model"):
            max_committees(20, 0.5, THIRD, 0.25, "bogus")

    @pytest.mark.parametrize("total, threshold, match", [
        (0, THIRD, "total_nodes must be positive"),
        (-5, THIRD, "total_nodes must be positive"),
        (20, 0, "threshold must lie strictly inside"),
        (20, 1, "threshold must lie strictly inside"),
    ])
    def test_rejects_bad_input(self, total, threshold, match):
        with pytest.raises(ValueError, match=match):
            max_committees(total, 0.5, threshold, 0.25)

    def test_exact_model_at_fifty_thousand_nodes(self):
        # at K = 2 a committee's first failing count has log pmf -945, far
        # below the tail head's goal; exp of the gap once overflowed
        result = max_committees(50_000, 1e-6, THIRD, 0.25, "exact")
        assert result.committees > 2
        assert result.prob <= 1e-6


class TestMinCommitteeSize:
    def test_respects_closed_form_upper_bound(self):
        n = min_committee_size(1, 1e-3, THIRD, 0.25)
        assert n <= 398

    def test_zero_adversaries(self):
        assert min_committee_size(1, 0.5, THIRD, 0.0) == 1

    def test_feasibility_with_stability_guard(self):
        k, target, rate = 4, 1e-3, 0.25
        n = min_committee_size(k, target, THIRD, rate)
        layout_delta = lambda nn: delta_exact_binomial(
            FailureQuery(layout_from_split(nn * k, k), AverageAdversary(rate), THIRD)
        ).delta
        assert layout_delta(n) <= target
        assert layout_delta(n + 1) <= target

    def test_raw_solution_at_most_guarded(self):
        raw = min_committee_size(4, 1e-3, THIRD, 0.25, require_stable=False)
        guarded = min_committee_size(4, 1e-3, THIRD, 0.25)
        assert raw <= guarded

    def test_exact_model_never_larger_than_average(self):
        for k in (1, 4, 12, 50):
            avg = min_committee_size(k, 1e-3, THIRD, 0.25, "average")
            exact = min_committee_size(k, 1e-3, THIRD, 0.25, "exact")
            assert exact <= avg, k

    def test_nondecreasing_in_committee_count(self):
        values = [min_committee_size(k, 1e-2, THIRD, 0.25) for k in range(1, 13)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("rate", [Fraction(1, 10), Fraction(1, 5), Fraction(1, 4)])
    @pytest.mark.parametrize("delta_target", [0.5, 0.2, 0.1, 1e-2, 1e-3])
    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_exact_model_matches_linear_scan_oracle(self, k, delta_target, rate):
        first, stable = scan_exact_m_committee_size(k, delta_target, rate, THIRD)
        assert min_committee_size(k, delta_target, THIRD, rate, "exact") == stable
        assert min_committee_size(k, delta_target, THIRD, rate, "exact",
                                  require_stable=False) == first

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_negative_association_sandwich(self, k):
        # the scan's decisions rest on 1 - (1 - T)^K <= delta <= K T
        for n in range(1, 25):
            for count in range(n * k + 1):
                lower, upper = exact_m_sandwich(n, k, count, THIRD)
                failing, _, ways = exact_m_failure_survival(((n, k),), count, THIRD)
                assert lower <= Fraction(failing, ways) <= upper, (n, count)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_tail_head_is_a_lower_bound_on_the_marginal_tail(self, k):
        # the scan rules a size out when this lower bound on T passes the cut
        for n in range(1, 40):
            total = n * k
            cap = n // 3
            for m in range(total + 1):
                tail = sum(math.comb(n, j) * math.comb(total - n, m - j)
                           for j in range(cap + 1, min(n, m) + 1))
                log_tail = (math.log(Fraction(tail, math.comb(total, m)))
                            if tail else -math.inf)
                head = _log_tail_head(cap, n, total, m, math.inf)
                assert head <= log_tail + 1e-12, (n, m)
                if head > -math.inf:
                    assert head > log_tail - 1e-3, (n, m)
                early = _log_tail_head(cap, n, total, m, log_tail - 0.5)
                assert early <= log_tail + 1e-12, (n, m)

    def test_tail_head_starts_at_the_library_pmf(self):
        # below every goal the head is the first failing count's log pmf
        for cap, size, total, m in [(0, 1, 2, 1), (3, 10, 30, 7), (33, 100, 400, 100),
                                    (166, 500, 10_000, 2_500), (9, 10, 20, 10),
                                    (4, 12, 40, 30)]:
            assert _log_tail_head(cap, size, total, m, -math.inf) == \
                hypergeometric_marginal_log_pmf(cap + 1, size, total, m)

    def test_tail_head_far_below_its_goal_is_finite(self):
        head = _log_tail_head(16_666, 50_000, 100_000, 25_000, -14.0)
        assert -math.inf < head < -1000.0

    @pytest.mark.parametrize("k, delta_target, expected",
                             [(2, 1e-3, 141), (20, 1e-6, 768), (100, 1e-6, 891)])
    def test_exact_model_pinned_sizes(self, k, delta_target, expected):
        # linear-scan values; their rational oracle takes minutes
        assert min_committee_size(k, delta_target, THIRD, Fraction(1, 4),
                                  "exact") == expected

    def test_model_validation(self):
        with pytest.raises(ValueError):
            min_committee_size(2, 1e-3, THIRD, 0.25, "bogus")

    # no size is feasible at P > A, so the scan would run to MAX_SIZE; at
    # P = A = 1/3, K = 2 and delta = 0.9 the average model returned 1
    @pytest.mark.parametrize("model", ["exact", "average"])
    @pytest.mark.parametrize("rate, target", [(0.5, 1e-3), (THIRD, 0.9)])
    def test_rate_at_or_above_threshold_rejected(self, model, rate, target):
        with pytest.raises(ValueError, match="below threshold"):
            min_committee_size(2, target, THIRD, rate, model)


class TestSizeBracket:
    def test_single_committee_upper_bound_value(self):
        bracket = size_bracket(1, 1e-3, THIRD, 0.25)
        expected = -math.log(1e-3) / kl_divergence(1 / 3, 0.25)
        assert bracket.upper == pytest.approx(expected, rel=1e-12)
        assert bracket.upper == pytest.approx(397.6, abs=0.1)

    def test_bracket_contains_solved_size(self):
        for k in (1, 10, 100, 1000):
            bracket = size_bracket(k, 1e-3, THIRD, 0.25)
            n = min_committee_size(k, 1e-3, THIRD, 0.25)
            assert bracket.lower <= n <= bracket.upper, k

    def test_lower_at_most_upper(self):
        for k in (1, 5, 50, 10 ** 6, 10 ** 9):
            bracket = size_bracket(k, 1e-3, THIRD, 0.25)
            assert bracket.lower <= bracket.upper

    def test_upper_grows_logarithmically(self):
        d = kl_divergence(1 / 3, 0.25)
        for k in (100, 1000, 10000):
            upper_k = size_bracket(k, 1e-3, THIRD, 0.25).upper
            upper_10k = size_bracket(10 * k, 1e-3, THIRD, 0.25).upper
            assert upper_10k - upper_k == pytest.approx(math.log(10) / d, rel=1e-3)

    def test_both_endpoints_log_growth(self):
        lowers, uppers = [], []
        for k in (10, 100, 1000, 10000):
            bracket = size_bracket(k, 1e-3, THIRD, 0.25)
            lowers.append(bracket.lower)
            uppers.append(bracket.upper)
        lower_steps = [b - a for a, b in zip(lowers, lowers[1:])]
        upper_steps = [b - a for a, b in zip(uppers, uppers[1:])]
        for steps in (lower_steps, upper_steps):
            for a, b in zip(steps, steps[1:]):
                assert b == pytest.approx(a, rel=0.05)

    def test_rejects_rate_at_or_above_threshold(self):
        with pytest.raises(ValueError):
            size_bracket(10, 1e-3, THIRD, 0.4)


class TestBracketExpansions:
    def _exact(self, delta, k):
        return -math.log(-math.expm1(math.log1p(-delta) / k))

    def test_large_committee_count_series(self):
        large_k, _ = bracket_expansions(0.5, 10 ** 6)
        assert large_k == pytest.approx(self._exact(0.5, 10 ** 6), rel=1e-10)

    def test_small_target_series(self):
        _, small_delta = bracket_expansions(1e-8, 10)
        assert small_delta == pytest.approx(self._exact(1e-8, 10), rel=1e-6)

    def test_leading_behaviour(self):
        _, small_delta = bracket_expansions(1e-12, 7)
        leading = math.log(7) + math.log(1e12)
        assert small_delta == pytest.approx(leading, rel=1e-10)
