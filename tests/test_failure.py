import bisect
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    binomial_failure_enumeration,
    exact_m_failure_survival,
    failure_threshold,
    five_smooth_numbers,
    hypergeometric_failure_table,
    log_ratio,
    union_random_per_committee,
)
from shardrisk import cli, failure
from shardrisk.failure import (
    DeltaResult,
    FailureQuery,
    _next_fast_len,
    delta_exact_binomial,
    delta_exact_hypergeometric,
    theorem1_bounds,
    union_bound_fixed_sizes,
    union_bound_hypergeometric,
    union_bound_random_sizes,
)
from shardrisk.methods import METHODS, method_query
from shardrisk.partitions import (
    AverageAdversary,
    CommitteeLayout,
    ExactAdversary,
    hypergeometric_marginal_log_pmf,
    layout_from_split,
)
from shardrisk.probcore import (
    LOG_ZERO,
    HypergeometricCounts,
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


class TestNextFastLen:
    def test_every_length_below_twenty_thousand(self):
        smooth = five_smooth_numbers(40_000)
        for n in range(1, 20_000):
            assert _next_fast_len(n) == smooth[bisect.bisect_left(smooth, n)], n

    @pytest.mark.parametrize("n", [10 ** 8 - 1, 10 ** 8, 10 ** 8 + 1, 123_456_789,
                                   25 * 10 ** 9 - 1, 25 * 10 ** 9, 25 * 10 ** 9 + 1])
    def test_large_lengths(self, n):
        smooth = five_smooth_numbers(2 * n)
        assert _next_fast_len(n) == smooth[bisect.bisect_left(smooth, n)]


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


class TestLogSurvivalBelowHalf:
    """Below delta = 1/2 both exact evaluators return log1mexp(log delta) as
    log_survival.  Their own survival sums are accurate in absolute terms
    only: they printed 0.0 at the two tiny deltas here, and the exact-binomial
    one erred by 1.5e-11 relative at the delta of 0.035 below."""

    @pytest.mark.parametrize("evaluate, adversary, delta", [
        (delta_exact_binomial, AverageAdversary(Fraction(1, 10)), 9.93e-90),
        (delta_exact_hypergeometric, ExactAdversary(400), 5.59e-54),
    ])
    def test_tiny_delta_gives_minus_delta(self, evaluate, adversary, delta):
        result = evaluate(FailureQuery(CommitteeLayout((1000, 1000)), adversary, THIRD))
        assert result.delta == pytest.approx(delta, rel=1e-2)
        assert result.log_survival == pytest.approx(-result.delta, rel=1e-15, abs=0.0)

    def test_exact_binomial_matches_rational_oracle(self):
        # 601 nodes in 4 committees at rate 1/4: delta = 0.0349
        layout, rate = layout_from_split(601, 4), Fraction(1, 4)
        survival = Fraction(1)
        for size, mult, cap in layout.allowances(THIRD):
            survival *= sum(math.comb(size, j) * rate ** j * (1 - rate) ** (size - j)
                            for j in range(cap + 1)) ** mult
        with mpmath.workdps(40):
            want = float(mpmath.log(mpmath.mpf(survival.numerator) / survival.denominator))
        result = delta_exact_binomial(FailureQuery(layout, AverageAdversary(rate), THIRD))
        assert result.log_survival == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nodes, committees, count, reads", [
        (601, 4, 150, 0),  # delta = 0.011
        (1000, 20, 250, 1),  # delta = 0.912
    ])
    def test_exact_m_reads_survival_only_at_or_above_half(self, monkeypatch, nodes,
                                                          committees, count, reads):
        calls = []
        log_survival = failure._log_survival
        monkeypatch.setattr(failure, "_log_survival",
                            lambda *args: calls.append(args) or log_survival(*args))
        result = delta_exact_hypergeometric(FailureQuery(
            layout_from_split(nodes, committees), ExactAdversary(count), THIRD))
        assert (result.delta >= 0.5) == (reads == 1)
        assert len(calls) == reads


def mp_log_complement_product(log_terms):
    """log(1 - prod_g (1 - e^t_g)^m_g) in mpmath, through log1p and expm1."""
    log_survival = mpmath.fsum(m * mpmath.log1p(-mpmath.exp(t)) for t, m in log_terms)
    return mpmath.log(-mpmath.expm1(log_survival))


def mp_binomial_log_tail(n, p, cap):
    """log P(Binomial(n, p) > cap) in mpmath, for cap + 1 above the mean: the
    terms fall geometrically, so the sum stops once they are negligible."""
    term = mpmath.binomial(n, cap + 1) * p ** (cap + 1) * (1 - p) ** (n - cap - 1)
    total = mpmath.mpf(0)
    for j in range(cap + 1, n + 1):
        total += term
        term *= mpmath.mpf(n - j) / (j + 1) * p / (1 - p)
        if term < total * mpmath.mpf(10) ** -40:
            break
    return mpmath.log(total)


MP_THEOREM1 = {
    "theorem1-lower": lambda n, p, q, d: -n * d - mpmath.log(8 * n * q * (1 - q)) / 2,
    "theorem1-upper-ash": lambda n, p, q, d: -n * d,
    "theorem1-upper-ferrante": lambda n, p, q, d: (
        -n * d - mpmath.log1p(-p * (1 - q) / (q * (1 - p)))
        - mpmath.log(2 * mpmath.pi * q * (1 - q) * n) / 2),
}


class TestDeepTail:
    """Once every committee's tail T_g is below about e^-708, the complement
    product's survival log is subnormal or 0, and log delta is log sum_g m_g
    T_g to double precision.  log delta runs from -720 down to -1e4 here."""

    GRID = [(Fraction(1, 100), ((790, 2),)), (Fraction(1, 100), ((820, 2),)),
            (Fraction(1, 100), ((3000, 2),)), (Fraction(1, 100), ((6000, 3),)),
            (Fraction(1, 100), ((5000, 1), (5001, 1))), (Fraction(1, 100), ((11000, 2),)),
            (Fraction(1, 10), ((4000, 2),)), (Fraction(1, 10), ((10000, 5),)),
            (Fraction(1, 10), ((45000, 2),))]

    @pytest.mark.parametrize("rate, runs", GRID)
    def test_exact_binomial_matches_mpmath(self, rate, runs):
        layout = CommitteeLayout.from_runs(runs)
        got = delta_exact_binomial(FailureQuery(layout, AverageAdversary(rate), THIRD))
        with mpmath.workdps(40):
            p = mpmath.mpf(float(rate))
            want = float(mp_log_complement_product(
                [(mp_binomial_log_tail(size, p, cap), mult)
                 for size, mult, cap in layout.allowances(THIRD)]))
        assert -1e4 < want < -700.0
        assert got.log_delta == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("rate, runs", GRID)
    @pytest.mark.parametrize("tag", sorted(MP_THEOREM1))
    def test_theorem1_formulas_match_mpmath(self, tag, rate, runs):
        layout = CommitteeLayout.from_runs(runs)
        got = METHODS[tag].evaluate(method_query("average", layout, THIRD, rate))
        with mpmath.workdps(40):
            p = mpmath.mpf(float(rate))
            terms = []
            for size, mult, cap in layout.allowances(THIRD):
                q = mpmath.mpf(cap + 1) / size
                d = q * mpmath.log(q / p) + (1 - q) * mpmath.log((1 - q) / (1 - p))
                terms.append((min(MP_THEOREM1[tag](size, p, q, d), 0), mult))
            want = float(mp_log_complement_product(terms))
        assert got.log_delta == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_bounds_cli_layout_of_two_3000s(self, capsys):
        # the mpmath value of log delta is -2723.088
        assert cli.main(["bounds", "--layout", "3000,3000", "--adversary-frac", "1/100",
                         "--threshold", "1/3"]) == 0
        rows = {line.split(",")[0]: line.split(",") for line in
                capsys.readouterr().out.splitlines()}
        assert rows["exact-binomial"][2] == "-2723.0880018444223"
        for tag in MP_THEOREM1:
            assert -2724.0 < float(rows[tag][2]) < -2718.0, tag


def mp_log_cdf(n, p, cap):
    """log P(Binomial(n, p) <= cap) in mpmath, as log1p of minus the tail
    where the CDF is the larger side."""
    pmf = [mpmath.binomial(n, j) * p ** j * (1 - p) ** (n - j) for j in range(n + 1)]
    cdf, tail = mpmath.fsum(pmf[: cap + 1]), mpmath.fsum(pmf[cap + 1:])
    return mpmath.log1p(-tail) if tail < cdf else mpmath.log(cdf)


class TestNearOne:
    """Near delta = 1, log delta keeps its relative accuracy.  The
    exact-binomial values had been off by 3.4%, 10.6% and 7.1e-5 and the
    1e12-committee log survival by 4.2e-5; exactly-M printed 0.0, 0.0 and
    a value off by 6.6e-7."""

    @pytest.mark.parametrize("runs, rate, field", [
        (((30, 1),), Fraction(9, 10), "log_delta"),  # -1.1057e-13
        (((30, 3),), Fraction(9, 10), "log_delta"),  # -1.3516e-39
        (((300, 1),), Fraction(1, 2), "log_delta"),  # -4.0074e-9
        (((100, 10 ** 12),), Fraction(1, 10), "log_survival"),  # -69.958
    ])
    def test_exact_binomial_matches_mpmath(self, runs, rate, field):
        layout = CommitteeLayout.from_runs(runs)
        got = delta_exact_binomial(FailureQuery(layout, AverageAdversary(rate), THIRD))
        with mpmath.workdps(60):
            p = mpmath.mpf(rate.numerator) / rate.denominator
            log_survival = mpmath.fsum(mult * mp_log_cdf(size, p, cap)
                                       for size, mult, cap in layout.allowances(THIRD))
            want = float(log_survival if field == "log_survival"
                         else mpmath.log(-mpmath.expm1(log_survival)))
        assert getattr(got, field) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nodes, committees, count", [
        (2000, 200, 600),  # log delta -9.0582e-114
        (7500, 1000, 750),  # -2.3295e-17
        (5000, 700, 500),  # -1.5119e-10
    ])
    def test_exact_m_matches_integer_oracle(self, nodes, committees, count):
        layout = layout_from_split(nodes, committees)
        got = delta_exact_hypergeometric(FailureQuery(layout, ExactAdversary(count), THIRD))
        _, surviving, total = exact_m_failure_survival(layout.runs, count, THIRD)
        with mpmath.workdps(60):
            want = float(mpmath.log1p(-mpmath.mpf(surviving) / total))
        assert got.log_delta == pytest.approx(want, rel=1e-11, abs=0.0)


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
        tight, _ = union_bound_random_sizes(avg_query((100,), 0.25))
        assert tight.delta == pytest.approx(
            math.exp(-100 * kl_divergence(q, 0.25)), rel=1e-12
        )

    @pytest.mark.parametrize("size", [10, 12])
    def test_random_sizes_single_committee_without_adversaries(self, size):
        # P(mu) = 1 and D = inf: the tight base P exp(-D) + 1 - P is 0, so the
        # bound is 0; the simple form is exp(-N (1 - exp(-D))) = e^-N
        tight, simple = union_bound_random_sizes(avg_query((size,), 0.0))
        assert tight.delta == 0.0 and tight.log_delta == LOG_ZERO
        assert simple.log_delta == -size
        assert simple.delta == math.exp(-size)
        assert tight.precondition_ok and simple.precondition_ok

    def test_random_sizes_single_committee_past_unit_rounding(self):
        # exp(-D) below half an ulp of 1: the tight form is still exp(-N D)
        query = avg_query((10,), 1e-50)
        div = kl_divergence(0.4, 1e-50)
        assert div > 40.0
        tight, _ = union_bound_random_sizes(query)
        assert tight.log_delta == -10 * div

    @pytest.mark.parametrize("rate", [1e-20, 1e-30, 1e-40])
    def test_random_sizes_single_committee_closed_form(self, rate):
        # one committee: P(mu) = 1, so the tight form is exp(-N D) exactly,
        # which a base near 0 formed as 1 + expm1(-D) does not keep
        q = 0.4
        div = q * math.log(q / rate) + (1 - q) * (math.log1p(-q) - math.log1p(-rate))
        tight, _ = union_bound_random_sizes(avg_query((10,), rate))
        assert tight.log_delta == pytest.approx(-10 * div, rel=1e-14)

    def test_random_sizes_simple_form_is_looser(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            sizes = tuple(int(s) for s in rng.integers(10, 200, size=k))
            rate = float(rng.uniform(0.05, 0.3))
            tight, simple = union_bound_random_sizes(avg_query(sizes, rate))
            assert simple.raw_log_delta >= tight.raw_log_delta - 1e-12

    def test_random_sizes_dominates_fixed_at_expected_sizes(self):
        query = avg_query((50, 50), 0.25)
        tight, simple = union_bound_random_sizes(query)
        fixed = union_bound_fixed_sizes(query)
        assert tight.raw_log_delta >= fixed.raw_log_delta - 1e-12
        assert simple.raw_log_delta >= tight.raw_log_delta - 1e-12

    @pytest.mark.parametrize("query", [
        # the sweep-k golden grid: 1000 nodes split into K = 2, 9, ..., 30
        *(FailureQuery(layout_from_split(1000, k), AverageAdversary(Fraction(1, 4)),
                       THIRD) for k in range(2, 31, 7)),
        # equal sizes that are not neighbours form separate runs
        avg_query((12, 10, 12, 11), Fraction(1, 4)),
        avg_query((5, 3, 5, 5), 0.25),
        avg_query((5, 3, 5, 5), 0.5, HALF),
        # precondition p < q fails on the committee of 20
        avg_query((2, 20, 9), Fraction(2, 5)),
    ], ids=lambda query: str(query.layout.runs))
    def test_random_sizes_match_per_committee_form(self, query):
        tight, simple = union_bound_random_sizes(query)
        want_tight, want_simple = union_random_per_committee(query)
        assert tight.raw_log_delta == pytest.approx(want_tight, rel=1e-12)
        assert simple.raw_log_delta == pytest.approx(want_simple, rel=1e-12)

    def test_random_sizes_match_per_committee_form_on_random_layouts(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            sizes = tuple(int(s) for s in rng.choice((1, 2, 3, 5, 8, 13, 40),
                                                     size=rng.integers(1, 9)))
            query = avg_query(sizes, float(rng.choice((0.05, 0.25, 0.45))),
                              (THIRD, HALF, Fraction(1, 5))[rng.integers(3)])
            tight, simple = union_bound_random_sizes(query)
            want_tight, want_simple = union_random_per_committee(query)
            assert tight.raw_log_delta == pytest.approx(want_tight, rel=1e-12), sizes
            assert simple.raw_log_delta == pytest.approx(want_simple, rel=1e-12), sizes

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
            assert abs(HypergeometricCounts(total, m).tail(size, cap) - expected) <= tolerance

    def test_random_sizes_rejects_exact_model(self):
        with pytest.raises(ValueError, match="needs an AverageAdversary"):
            union_bound_random_sizes(exact_query((50, 50), 25))

    @pytest.mark.parametrize("bound", [theorem1_bounds, union_bound_fixed_sizes,
                                       union_bound_random_sizes])
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
