import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shardrisk.probcore import (
    LOG_ZERO,
    BinomialCounts,
    HypergeometricCounts,
    binomial_tail_and_cdf,
    floor_rate_multiple,
    kl_divergence,
    log1mexp,
    log_binomial_coefficient,
    log_factorial,
    log_sum_exp,
    stable_complement_product,
)


class TestLogBinomialCoefficient:
    def test_examples(self):
        assert log_binomial_coefficient(5, 2) == pytest.approx(math.log(10), abs=1e-12)
        assert log_binomial_coefficient(4, 2) == pytest.approx(math.log(6), abs=1e-12)
        assert log_binomial_coefficient(17, 0) == 0.0
        assert log_binomial_coefficient(17, 17) == 0.0

    def test_matches_exact_integer_logs(self):
        for n in [1, 2, 7, 20, 61, 200, 1000]:
            for k in {0, 1, n // 3, n // 2, n - 1, n}:
                exact = math.log(math.comb(n, k)) if k <= n else None
                got = log_binomial_coefficient(n, k)
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_accurate_at_a_million(self):
        # contract: >= 12 significant digits up to n = 1e6
        n = 10 ** 6
        for k in [1, 137, 12345, 60000]:
            exact = math.log(math.comb(n, k))
            assert log_binomial_coefficient(n, k) == pytest.approx(exact, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_binomial_coefficient(3, 4)
        with pytest.raises(ValueError):
            log_binomial_coefficient(-1, 0)
        with pytest.raises(ValueError):
            log_binomial_coefficient(3, -2)


class TestLogFactorial:
    def test_matches_integer_factorials(self):
        k = np.arange(3001)
        got = log_factorial(k)
        factorial = 1
        for i in k.tolist():
            factorial *= max(i, 1)
            assert math.isclose(got[i], math.log(factorial), rel_tol=1e-15), i

    @pytest.mark.parametrize("k", [12, 13, 100, 998, 999, 1000, 4095, 4096, 12345,
                                   10 ** 6, 10 ** 8 - 2, 10 ** 8 - 1, 10 ** 8,
                                   3 ** 20, 2 ** 33 + 1, 2 ** 40])
    def test_matches_mpmath_log_gamma(self, k):
        # either side of the x = 1000 and x = 1e8 switches of the series and
        # of the end of the precomputed table at k = 4096
        with mpmath.workdps(40):
            want = float(mpmath.loggamma(mpmath.mpf(k) + 1))
        assert math.isclose(float(log_factorial(np.array([k]))[0]), want, rel_tol=1e-15)

    def test_exact_where_table_meets_series(self):
        got = log_factorial(np.array([0, 1, 11, 12, 13])).tolist()
        # k <= 11 from the table; 12 and 13 are scipy.special.gammaln(k + 1),
        # the second one ulp below math.log(math.factorial(13))
        assert got == [0.0, 0.0, math.log(39916800), 19.987214495661885,
                       22.55216385312342]

    def test_mixed_array_matches_single_values(self):
        k = np.array([[3, 2 ** 20], [5000, 4095]])
        got = log_factorial(k)
        assert got.shape == (2, 2)
        assert got.ravel().tolist() == [log_factorial(np.array([v]))[0]
                                        for v in k.ravel().tolist()]


@st.composite
def binomial_splits(draw):
    n = draw(st.integers(min_value=1, max_value=2000))
    return n, draw(st.integers(min_value=0, max_value=n))


class TestBinomialTailAndCdf:
    def test_small_split(self):
        log_cdf, log_tail = binomial_tail_and_cdf(5, 0.25, 1)
        assert log_cdf == pytest.approx(math.log(0.6328125), abs=1e-13)
        assert log_tail == pytest.approx(math.log(0.3671875), abs=1e-13)

    def test_two_coin_flips(self):
        log_cdf, log_tail = binomial_tail_and_cdf(2, 0.5, 0)
        assert log_cdf == pytest.approx(math.log(0.25), abs=1e-13)
        assert log_tail == pytest.approx(math.log(0.75), abs=1e-13)

    def test_zero_rate(self):
        assert binomial_tail_and_cdf(9, 0.0, 3) == (0.0, LOG_ZERO)

    def test_unit_rate(self):
        assert binomial_tail_and_cdf(9, 1.0, 3) == (LOG_ZERO, 0.0)
        assert binomial_tail_and_cdf(9, 1.0, 9) == (0.0, LOG_ZERO)

    def test_halves_sum_to_one(self):
        for n in [1, 2, 5, 17, 100, 1000]:
            for p in [1e-9, 0.1, 0.5, 0.9, 1 - 1e-9]:
                for k in {0, n // 3, n - 1, n}:
                    log_cdf, log_tail = binomial_tail_and_cdf(n, p, k)
                    assert math.exp(log_cdf) + math.exp(log_tail) == pytest.approx(
                        1.0, abs=1e-12
                    )

    def test_cdf_monotone_in_k(self):
        for n, p in [(13, 0.3), (40, 0.7)]:
            values = [binomial_tail_and_cdf(n, p, k)[0] for k in range(n + 1)]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_cdf_monotone_in_p(self):
        for n, k in [(13, 4), (40, 11)]:
            grid = np.linspace(0.01, 0.99, 25)
            values = [binomial_tail_and_cdf(n, p, k)[0] for p in grid]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binomial_tail_and_cdf(4, 0.5, 5)

    @pytest.mark.parametrize("n", [1, 7, 60, 500, 2000])
    @pytest.mark.parametrize("p", [1e-9, 1e-3, 0.3, 0.5, 0.97, 1 - 1e-6])
    def test_matches_mpmath(self, n, p):
        # both logs to 1e-11 relative, the side near 1 included: the larger
        # side's log is log1p of minus the smaller side, summed in mpmath
        with mpmath.workdps(50):
            q = mpmath.mpf(p)
            pmf = [mpmath.binomial(n, j) * q ** j * (1 - q) ** (n - j) for j in range(n + 1)]
            for k in sorted({0, 1, int(n * p), n // 3, n // 2, n - 1, n}):
                cdf, tail = mpmath.fsum(pmf[: k + 1]), mpmath.fsum(pmf[k + 1:])
                want = [float(mpmath.log1p(-other) if side > other else mpmath.log(side))
                        if side > 0 else LOG_ZERO for side, other in ((cdf, tail), (tail, cdf))]
                got = binomial_tail_and_cdf(n, p, k)
                assert got == pytest.approx(want, rel=1e-11, abs=0.0), (k, got, want)

    @given(split=binomial_splits(), p=st.floats(min_value=0.0, max_value=1.0))
    @example(split=(1, 0), p=0.5)  # each side exactly 1/2
    @settings(max_examples=300, deadline=None)
    def test_larger_side_is_log1mexp_of_the_smaller(self, split, p):
        n, k = split
        smaller, larger = sorted(binomial_tail_and_cdf(n, p, k))
        assert larger == log1mexp(smaller)


class TestKLDivergence:
    def test_zero_at_equal_rates(self):
        assert kl_divergence(0.5, 0.5) == 0.0

    def test_frozen_values(self):
        # frozen from 50-digit evaluations of the defining formula
        assert kl_divergence(0.4, 0.25) == pytest.approx(0.054115320909768368, rel=1e-12)
        assert kl_divergence(1 / 3, 0.25) == pytest.approx(0.017372000379671339, rel=1e-10)

    def test_degenerate_reference(self):
        assert kl_divergence(0.0, 0.5) == pytest.approx(math.log(2.0))
        assert kl_divergence(1.0, 0.5) == pytest.approx(math.log(2.0))
        assert math.isinf(kl_divergence(0.5, 0.0))
        assert math.isinf(kl_divergence(0.5, 1.0))
        assert kl_divergence(0.0, 0.0) == 0.0
        assert kl_divergence(1.0, 1.0) == 0.0

    @given(
        q=st.floats(min_value=0.0, max_value=1.0),
        p=st.floats(min_value=1e-9, max_value=1 - 1e-9),
    )
    @settings(max_examples=300, deadline=None)
    def test_nonnegative(self, q, p):
        d = kl_divergence(q, p)
        assert d >= 0.0
        if abs(q - p) > 1e-9:
            assert d > 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            kl_divergence(1.5, 0.5)
        with pytest.raises(ValueError):
            kl_divergence(0.5, -0.1)


class TestStableComplementProduct:
    def test_two_committees(self):
        term = math.log(0.3671875)
        got = stable_complement_product([(term, 2)])
        assert got == pytest.approx(math.log(0.59954833984375), abs=1e-13)

    def test_empty_input_is_probability_zero(self):
        assert stable_complement_product([]) == LOG_ZERO

    def test_tiny_terms_high_precision(self):
        term = math.log(1e-15)
        got = stable_complement_product([(term, 10)])
        with mpmath.workdps(60):
            p = mpmath.exp(mpmath.mpf(term))
            reference = 1 - (1 - p) ** 10
            rel = abs(mpmath.exp(got) - reference) / reference
        assert rel < 1e-10

    @pytest.mark.parametrize("term", [-720.0, -745.0, -800.0, -5000.0])
    def test_deep_tail_is_the_log_of_the_union_sum(self, term):
        # every e^t is subnormal or 0, so delta = 2 e^t + e^(t - 1) to double precision
        got = stable_complement_product([(term, 2), (term - 1.0, 1), (LOG_ZERO, 4)])
        assert got == pytest.approx(term + math.log(2.0 + math.exp(-1.0)), rel=1e-15)

    def test_product_near_one(self):
        # nine certain committees out of ten: failure probability exactly 1
        terms = [(0.0, 9), (math.log(0.5), 1)]
        assert stable_complement_product(terms) == 0.0

    def test_certain_survival(self):
        assert stable_complement_product([(LOG_ZERO, 2)]) == LOG_ZERO

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1 - 1e-6), min_size=1, max_size=8)
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_naive_linear_evaluation(self, probs):
        got = math.exp(stable_complement_product([(math.log(p), 1) for p in probs]))
        naive = 1.0
        for p in probs:
            naive *= 1.0 - p
        assert got == pytest.approx(1.0 - naive, abs=1e-12)

    def test_rejects_positive_logs(self):
        with pytest.raises(ValueError):
            stable_complement_product([(0.5, 1)])


class TestHelpers:
    def test_log1mexp_branches(self):
        assert log1mexp(LOG_ZERO) == 0.0
        assert log1mexp(0.0) == LOG_ZERO
        assert log1mexp(-1e-18) == pytest.approx(math.log(1e-18), rel=1e-9)
        assert log1mexp(-50.0) == pytest.approx(math.log1p(-math.exp(-50.0)))
        with pytest.raises(ValueError):
            log1mexp(0.1)

    def test_floor_rate_multiple_exact_rationals(self):
        assert floor_rate_multiple(Fraction(1, 3), 3) == 1
        assert floor_rate_multiple(Fraction(1, 3), 300) == 100
        assert floor_rate_multiple(Fraction(1, 2), 7) == 3
        assert floor_rate_multiple(0.4, 5) == 2

    def test_log_sum_exp_empty_and_all_zero(self):
        assert log_sum_exp(np.array([])) == LOG_ZERO
        assert log_sum_exp(np.array([LOG_ZERO, LOG_ZERO])) == LOG_ZERO
        assert log_sum_exp(np.array([math.log(0.25)] * 4)) == pytest.approx(0.0, abs=1e-15)


# (law, committee size): both laws at ordinary points and at the ends of their
# support, M > N - n, M = 0 and M = N for exactly-M, p near 0 and near 1
COUNT_LAWS = [
    *((BinomialCounts(p), n) for p in (1e-9, 0.1, 0.3, 0.5, 0.97, 1.0 - 1e-9)
      for n in (1, 7, 60, 1000, 10 ** 6)),
    *((HypergeometricCounts(total, m), n) for total, m, n in (
        (1, 1, 1), (20, 15, 10), (20, 0, 10), (20, 20, 10), (60, 55, 50), (100, 30, 40),
        (4500, 1125, 300), (10 ** 6, 3 * 10 ** 5, 10 ** 4), (10 ** 6, 999_990, 50))),
]


@pytest.mark.parametrize("law, n", COUNT_LAWS)
def test_count_law_forms_agree(law, n):
    """The scalar first term and the term ratio of each law against its vector
    log pmf, over the support, or +-50 counts around the mode for large n; and
    the head at goal -inf is the first failing count's pmf."""
    (lo, hi), (mode, _) = law.support(n), law.centre(n)
    if hi - lo > 200:
        lo, hi = max(lo, int(mode) - 50), min(hi, int(mode) + 50)
    counts = np.arange(lo, hi + 1, dtype=np.float64)
    log_pmf = law.log_pmf(n, counts)
    ulp = math.ulp(law.magnitude(n))
    for i, j in enumerate(range(lo, hi + 1)):
        assert abs(law.first(n, j) - log_pmf[i]) <= 16 * ulp, j
        if j < hi:
            step = log_pmf[i + 1] - log_pmf[i]
            assert abs(math.log(law.ratio(n, j)) - step) <= 32 * ulp, j
        # j is the first failing count at cap j - 1 (cap -1 reads the lower end)
        assert law.head(n, j - 1, -math.inf) == law.first(n, j), j
    assert law.head(n, -1, -math.inf) == law.first(n, law.support(n)[0])
