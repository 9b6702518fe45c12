import functools
import math
from fractions import Fraction

import pytest

from oracles import (
    bracket_expansions,
    criterion9_split_deltas,
    exact_m_failure_survival,
    exact_m_sandwich,
    f_tilde_loop,
    scan_exact_m_committee_size,
    scan_largest_committee_count,
)
from shardrisk import sizing
from shardrisk.failure import (
    FailureQuery,
    delta_exact_binomial,
)
from shardrisk.methods import METHODS, _binomial_law, _hypergeometric_law, method_query
from shardrisk.partitions import (
    AverageAdversary,
    CommitteeLayout,
    exact_count_from_rate,
    hypergeometric_marginal_log_pmf,
    layout_from_split,
)
from shardrisk.probcore import HypergeometricCounts, binomial_tail_and_cdf, kl_divergence
from shardrisk.sizing import (
    F_TILDE_SCAN_LIMIT,
    _f_tilde,
    _feasibility,
    max_committees,
    min_committee_size,
    scan_committee_size,
    size_bracket,
)

THIRD = Fraction(1, 3)


def assert_first_feasible(tag, committees, delta_target, rate, first):
    """The scan's predicate for ``tag`` rejects every size of K equal
    committees below the oracle's first feasible size and accepts that one."""
    feasible = _feasibility(tag, THIRD, rate, delta_target)
    decided = [feasible(CommitteeLayout.from_runs(((n, committees),)))
               for n in range(1, first + 1)]
    assert decided == [False] * (first - 1) + [True], (tag, committees, first)


def split_delta(total, k, threshold, rate):
    query = FailureQuery(
        layout_from_split(total, k), AverageAdversary(rate), threshold
    )
    return delta_exact_binomial(query).delta


def hypergeometric_head(cap, size, total, m, goal):
    """The exactly-M law's tail head for one committee, m adversaries among
    ``total`` nodes (the law reads only the layout's total)."""
    law = _hypergeometric_law(Fraction(m, total))(CommitteeLayout.from_runs(((1, total),)))
    return law.head(size, cap, goal)


def binomial_head(cap, size, rate, goal):
    """The average law's tail head for one committee at ``rate``."""
    law = _binomial_law(rate)(CommitteeLayout.from_runs(((size, 1),)))
    return law.head(size, cap, goal)


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

    @pytest.mark.parametrize("model", ["bogus", "exact-binomial", "asymptotic"])
    def test_model_validation(self, model):
        # a method tag is not a model
        with pytest.raises(ValueError, match="model"):
            max_committees(20, 0.5, THIRD, 0.25, model)

    @pytest.mark.parametrize("total, threshold, match", [
        (0, THIRD, "total_nodes must be positive"),
        (-5, THIRD, "total_nodes must be positive"),
        (20, 0, "threshold must lie strictly inside"),
        (20, 1, "threshold must lie strictly inside"),
    ])
    def test_rejects_bad_input(self, total, threshold, match):
        with pytest.raises(ValueError, match=match):
            max_committees(total, 0.5, threshold, 0.25)

    @staticmethod
    def record_counts(monkeypatch) -> list:
        """The K of every split that ``max_committees`` builds, in call order."""
        counts = []

        def recording(total, k):
            counts.append(k)
            return layout_from_split(total, k)

        monkeypatch.setattr(sizing, "layout_from_split", recording)
        return counts

    @pytest.mark.parametrize("model, totals, targets, rates", [
        # criterion 9's grid
        ("average", range(1, 501), (0.5, 0.1, 1e-3), (0.1, 0.25)),
        ("exact", (*range(1, 301, 23), 60, 300), (0.5, 0.1, 1e-3), (0.1, 0.25)),
    ], ids=["average", "exact"])
    def test_scan_stops_at_its_answer(self, monkeypatch, model, totals, targets, rates):
        # N = 60 at target 0.5 and rate 1/4 is not monotone in K; the average
        # model reads criterion 9's table, the same split_delta values built once
        delta_of = exact_m_split_delta if model == "exact" else (
            lambda total, k, threshold, rate: criterion9_split_deltas(rate)[(total, k)])
        counts = self.record_counts(monkeypatch)
        for rate in rates:
            for total in totals:
                deltas = {k: delta_of(total, k, THIRD, rate) for k in range(2, total + 1)}
                for target in targets:
                    counts.clear()
                    got = max_committees(total, target, THIRD, rate, model).committees
                    assert got == scan_largest_committee_count(
                        total, deltas.__getitem__, target), (total, target, rate)
                    assert all(k >= got for k in counts), (total, target, rate)

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

    def test_scan_is_keyed_by_method_tag(self):
        for model, tag in (("average", "exact-binomial"), ("exact", "exact-hypergeometric")):
            assert min_committee_size(4, 1e-3, THIRD, 0.25, model) == \
                scan_committee_size(4, 1e-3, THIRD, 0.25, tag)
        # union-fixed bounds the exact-binomial delta from above
        assert scan_committee_size(4, 1e-3, THIRD, 0.25, "union-fixed") >= \
            scan_committee_size(4, 1e-3, THIRD, 0.25, "exact-binomial")

    def test_scan_rejects_committee_count_below_one(self):
        with pytest.raises(ValueError, match="committees must be positive"):
            scan_committee_size(0, 1e-3, THIRD, 0.25, "union-fixed")

    @pytest.mark.parametrize("tag", ["monte-carlo-exact", "no-such-tag"])
    def test_scan_rejects_tag_without_evaluator(self, tag):
        # a Monte Carlo tag has no evaluator, and an unknown tag no method
        with pytest.raises(ValueError, match=f"no analytic method '{tag}'"):
            scan_committee_size(10, 1e-3, THIRD, Fraction(1, 10), tag)

    def test_size_at_the_scan_limit_needs_no_successor(self, monkeypatch):
        first, _ = scan_average_committee_size(4, 1e-3, 0.25)
        monkeypatch.setattr(sizing, "MAX_SIZE", first)
        assert min_committee_size(4, 1e-3, THIRD, 0.25) == first
        monkeypatch.setattr(sizing, "MAX_SIZE", first - 1)
        with pytest.raises(ValueError, match=f"no committee size up to {first - 1} "):
            min_committee_size(4, 1e-3, THIRD, 0.25)

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
        assert_first_feasible("exact-hypergeometric", k, delta_target, rate, first)

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
                head = hypergeometric_head(cap, n, total, m, math.inf)
                assert head <= log_tail + 1e-12, (n, m)
                if head > -math.inf:
                    assert head > log_tail - 1e-3, (n, m)
                early = hypergeometric_head(cap, n, total, m, log_tail - 0.5)
                assert early <= log_tail + 1e-12, (n, m)

    def test_tail_head_starts_at_the_library_pmf(self):
        # below every goal the head is the first failing count's log pmf
        for cap, size, total, m in [(0, 1, 2, 1), (3, 10, 30, 7), (33, 100, 400, 100),
                                    (166, 500, 10_000, 2_500), (9, 10, 20, 10),
                                    (4, 12, 40, 30)]:
            assert hypergeometric_head(cap, size, total, m, -math.inf) == \
                hypergeometric_marginal_log_pmf(cap + 1, size, total, m)

    def test_tail_head_far_below_its_goal_is_finite(self):
        head = hypergeometric_head(16_666, 50_000, 100_000, 25_000, -14.0)
        assert -math.inf < head < -1000.0

    @pytest.mark.parametrize("cap, size, total, m", [(3, 10, 12, 9), (33, 100, 150, 90)])
    def test_tail_head_starts_at_the_first_supported_count(self, cap, size, total, m):
        # with M above the other committees' N - size nodes, every count below
        # M - (N - size) has probability 0, and the tail is about 1
        log_tail = HypergeometricCounts(total, m).tail(size, cap)
        head = hypergeometric_head(cap, size, total, m, math.inf)
        assert log_tail - 1e-3 < head <= log_tail + 1e-12

    def test_few_tail_rows_for_ten_large_committees(self, monkeypatch):
        calls, tail = [], HypergeometricCounts.tail
        monkeypatch.setattr(HypergeometricCounts, "tail",
                            lambda *args: calls.append(args) or tail(*args))
        monkeypatch.setattr(sizing, "_delta", lambda *args: pytest.fail("evaluator ran"))
        assert min_committee_size(10, 1e-9, THIRD, Fraction(3, 10), "exact") == 6993
        assert len(calls) <= 20

    @pytest.mark.parametrize("k, expected", [(10, 6993), (1000, 9516)])
    def test_few_tail_rows_for_the_union_tag(self, monkeypatch, k, expected):
        # deciding each size by the evaluator builds one tail row per size:
        # 6,994 at K = 10 and 9,517 at K = 1000
        calls, tail = [], HypergeometricCounts.tail
        monkeypatch.setattr(HypergeometricCounts, "tail",
                            lambda *args: calls.append(args) or tail(*args))
        assert scan_committee_size(k, 1e-9, THIRD, Fraction(3, 10),
                                   "union-hyper-exact") == expected
        assert len(calls) <= 20

    @pytest.mark.parametrize("k, delta_target, expected",
                             [(2, 1e-3, 141), (20, 1e-6, 768), (100, 1e-6, 891)])
    def test_exact_model_pinned_sizes(self, k, delta_target, expected):
        # linear-scan values; their rational oracle takes minutes
        assert min_committee_size(k, delta_target, THIRD, Fraction(1, 4),
                                  "exact") == expected

    @pytest.mark.parametrize("model", ["bogus", "exact-hypergeometric", "union-fixed"])
    def test_model_validation(self, model):
        with pytest.raises(ValueError, match="model"):
            min_committee_size(2, 1e-3, THIRD, 0.25, model)

    # no size is feasible at P > A, so the scan would run to MAX_SIZE; at
    # P = A = 1/3, K = 2 and delta = 0.9 the average model returned 1
    @pytest.mark.parametrize("model", ["exact", "average"])
    @pytest.mark.parametrize("rate, target", [(0.5, 1e-3), (THIRD, 0.9)])
    def test_rate_at_or_above_threshold_rejected(self, model, rate, target):
        with pytest.raises(ValueError, match="below threshold"):
            min_committee_size(2, target, THIRD, rate, model)


def scan_average_committee_size(committees, delta_target, rate) -> tuple[int, int]:
    """(first, stable) smallest n with K equal committees meeting the target
    under the average model, deciding every n by the exact evaluator alone."""
    feasible = functools.cache(lambda n: delta_exact_binomial(FailureQuery(
        CommitteeLayout.from_runs(((n, committees),)), AverageAdversary(rate), THIRD)
    ).delta <= delta_target)
    first = next(n for n in range(1, 10**5) if feasible(n))
    return first, next(n for n in range(first, 10**5) if feasible(n) and feasible(n + 1))


class TestAverageModelHead:
    # the average-model scan rules a layout out when the complement product of
    # its runs' tail heads passes the target; no answer may change
    @pytest.mark.parametrize("rate", [0.1, Fraction(1, 5), Fraction(1, 4)])
    @pytest.mark.parametrize("delta_target", [1e-9, 1e-6, 1e-3, 1e-1])
    def test_min_size_matches_headless_scan(self, delta_target, rate):
        for k in (1, 2, 7, 100, 1000):
            first, stable = scan_average_committee_size(k, delta_target, rate)
            assert min_committee_size(k, delta_target, THIRD, rate) == stable, k
            assert_first_feasible("exact-binomial", k, delta_target, rate, first)

    @pytest.mark.parametrize("rate", [0.1, Fraction(1, 4)])
    @pytest.mark.parametrize("delta_target", [1e-9, 1e-6, 1e-3, 1e-1, 0.5])
    def test_max_committees_matches_headless_scan(self, delta_target, rate):
        # N = 60 at target 0.5 and rate 1/4 is not monotone in K
        for total in (60, 299, 1000):
            oracle = scan_largest_committee_count(
                total, lambda k: split_delta(total, k, THIRD, rate), delta_target)
            assert max_committees(total, delta_target, THIRD, rate).committees == oracle, total

    @pytest.mark.parametrize("rate", [Fraction(1, 10), Fraction(1, 4), Fraction(3, 10)])
    def test_head_is_a_lower_bound_on_the_binomial_tail(self, rate):
        for n in range(1, 60):
            cap = n // 3
            tail = sum(math.comb(n, j) * rate ** j * (1 - rate) ** (n - j)
                       for j in range(cap + 1, n + 1))
            log_tail = math.log(tail) if tail else -math.inf
            head = binomial_head(cap, n, rate, math.inf)
            assert head <= log_tail + 1e-12, n
            if head > -math.inf:
                assert head > log_tail - 1e-5, n
            assert binomial_head(cap, n, rate, log_tail - 0.5) <= \
                log_tail + 1e-12, n

    def test_few_binomial_rows_at_ten_thousand_nodes(self):
        # deciding each K by its CDF row builds one row per K, 269 here
        binomial_tail_and_cdf.cache_clear()
        result = max_committees(10_000, 1e-6, THIRD, Fraction(1, 4))
        assert result.committees == 12
        assert binomial_tail_and_cdf.cache_info().misses <= 50

    def test_few_binomial_rows_for_a_thousand_large_committees(self):
        # one CDF row per size scanned would be 9,528 rows
        binomial_tail_and_cdf.cache_clear()
        assert min_committee_size(1000, 1e-9, THIRD, Fraction(3, 10)) == 9528
        assert binomial_tail_and_cdf.cache_info().misses <= 20


DECISION_RATES = [Fraction(1, 10), Fraction(1, 4), Fraction(3, 10), 0.2, 0.33]
DECISION_TARGETS = [1e-3, 0.5, 0.9, 0.999, 1 - 1e-9, 1 - 1e-15]


def decision_layouts():
    """K equal committees of n nodes, and the n/(n+1) splits of a few N."""
    for k in (1, 2, 3, 5, 10, 40):
        for n in range(1, 60):
            yield CommitteeLayout.from_runs(((n, k),))
    for total in (30, 61, 200):
        for k in range(1, total + 1, 1 if total < 100 else 3):
            yield layout_from_split(total, k)


LAW_TAGS = [tag for tag, method in METHODS.items() if method.law]


def test_law_tags():
    assert LAW_TAGS == ["exact-binomial", "exact-hypergeometric", "union-hyper-exact"]


@pytest.mark.parametrize("tag", LAW_TAGS)
def test_feasibility_decides_as_its_evaluator(tag):
    # every decision, not only the first feasible size, including targets
    # within 1e-15 of 1, where a margin on log delta must not reject
    method = METHODS[tag]
    for rate in DECISION_RATES:
        predicates = [(target, _feasibility(tag, THIRD, rate, target))
                      for target in DECISION_TARGETS]
        for layout in decision_layouts():
            delta = method.evaluate(method_query(method.model, layout, THIRD, rate)).delta
            for target, feasible in predicates:
                assert feasible(layout) == (delta <= target), (layout.runs, rate, target)


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

    @pytest.mark.parametrize("a", [0.1, 1 / 3, 0.34, 0.45, 0.5, 0.9, 0.999])
    def test_f_tilde_is_the_scalar_loop_bit_for_bit(self, a):
        # P from 1e-4 up to 0.999 A, geometrically, then within 1% of A, where f
        # is not monotone in n
        rates = [1e-4 * (0.999 * a / 1e-4) ** (i / 15) for i in range(16)]
        rates += [a * (1.0 - gap) for gap in (0.01, 0.005, 0.002)]
        for p in rates:
            assert _f_tilde(a, p) == f_tilde_loop(a, p, F_TILDE_SCAN_LIMIT)[0], (a, p)

    def test_f_tilde_maximum_at_the_scan_limit(self):
        value, n = f_tilde_loop(0.45, 0.446, F_TILDE_SCAN_LIMIT)
        assert n == F_TILDE_SCAN_LIMIT
        assert _f_tilde(0.45, 0.446) == value

    def test_fraction_inputs_match_floats(self):
        exact = size_bracket(10, Fraction(1, 1000), THIRD, Fraction(1, 4))
        assert exact == size_bracket(10, 1e-3, 1 / 3, 0.25)
        assert exact.f_tilde == f_tilde_loop(1 / 3, 0.25, F_TILDE_SCAN_LIMIT)[0]

    @pytest.mark.parametrize("a", [0.9999, 0.99995])
    def test_no_admissible_argument(self, a):
        # A + 1/n reaches 1 at every n up to the scan limit
        with pytest.raises(ValueError, match="no admissible argument"):
            size_bracket(1, 1e-3, a, 0.5)


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
