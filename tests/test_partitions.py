import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from oracles import (
    committee_sizes,
    hypergeometric_marginal_log_pmf_alternate,
    multinomial_log_pmf,
    multivariate_hypergeometric_log_pmf,
    product_binomial_log_pmf,
)
from shardrisk.partitions import (
    AverageAdversary,
    CommitteeLayout,
    ExactAdversary,
    exact_count_from_rate,
    hypergeometric_marginal_log_pmf,
    layout_from_split,
)
from shardrisk.probcore import LOG_ZERO, HypergeometricCounts


class TestLayout:
    def test_split_examples(self):
        assert committee_sizes(layout_from_split(10, 3)) == (3, 3, 4)
        assert committee_sizes(layout_from_split(1000, 4)) == (250,) * 4
        assert committee_sizes(layout_from_split(7, 7)) == (1,) * 7

    def test_split_rejects_empty_committees(self):
        with pytest.raises(ValueError):
            layout_from_split(3, 4)

    def test_split_identity(self):
        for n in list(range(1, 200)) + [999, 4096, 10_000]:
            for k in {kk for kk in (1, 2, 3, n // 2, n) if 1 <= kk <= n}:
                layout = layout_from_split(n, k)
                assert layout.total == n
                assert layout.committee_count == k
                base = n // k
                sizes = committee_sizes(layout)
                assert set(sizes) <= {base, base + 1}
                # smaller committees first
                assert sizes == tuple(sorted(sizes))

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            CommitteeLayout(())
        with pytest.raises(ValueError):
            CommitteeLayout((3, 0))

    # each of these once truncated a size or count to an integer without a word
    @pytest.mark.parametrize("call", [
        lambda: CommitteeLayout((2.5, 3)),
        lambda: CommitteeLayout.from_runs(((3, 1.5),)),
        lambda: layout_from_split(10.7, 3),
        lambda: layout_from_split(10, 2.5),
        lambda: hypergeometric_marginal_log_pmf(2.5, 10, 50, 12),
        lambda: hypergeometric_marginal_log_pmf(2, 10, 50, adversary_count=12.7),
    ], ids=["layout", "run-multiplicity", "split-nodes", "split-committees",
            "marginal-count", "marginal-adversary-count"])
    def test_non_integer_sizes_raise(self, call):
        with pytest.raises(ValueError, match="integer"):
            call()

    def test_numpy_integer_sizes_build_the_same_layout(self):
        assert CommitteeLayout((np.int64(2), np.int64(3))) == CommitteeLayout((2, 3))
        assert layout_from_split(np.int64(10), np.int64(3)) == layout_from_split(10, 3)
        runs = CommitteeLayout.from_runs(((np.int64(3), np.int64(2)),)).runs
        assert runs == ((3, 2),) and type(runs[0][0]) is int


class TestAdversaryModels:
    @pytest.mark.parametrize("rate", [(0.1, 0.2), [0.25], ()])
    def test_rate_is_one_value(self, rate):
        with pytest.raises(ValueError, match="single rate"):
            AverageAdversary(rate)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            AverageAdversary(1.5)
        with pytest.raises(ValueError):
            ExactAdversary(-1)

    def test_exact_count_rounds_half_to_even(self):
        assert exact_count_from_rate(2, 0.25) == 0  # 0.5 rounds down to even
        assert exact_count_from_rate(6, 0.25) == 2  # 1.5 rounds up to even
        assert exact_count_from_rate(6, Fraction(1, 4)) == 2
        assert exact_count_from_rate(1000, Fraction(1, 4)) == 250

    def test_exact_count_of_a_fraction_is_its_rounded_product(self):
        # the integer path against round(Fraction), ties (N P = k + 1/2) included
        ties = 0
        for den in range(1, 13):
            for num in range(den + 1):
                rate = Fraction(num, den)
                for total in [*range(0, 50), 999, 10**6 + 1, 3 * 10**17 + 7]:
                    assert exact_count_from_rate(total, rate) == round(rate * total), \
                        (total, rate)
                    ties += (rate * total).denominator == 2
        assert ties > 100

    def test_exact_count_rejects_a_fraction_outside_the_unit_interval(self):
        for rate in (Fraction(-1, 4), Fraction(5, 4)):
            with pytest.raises(ValueError, match="rate must lie in"):
                exact_count_from_rate(10, rate)


class TestMultinomial:
    def test_fair_split_of_two(self):
        got = multinomial_log_pmf((1, 1), 2, (0.5, 0.5))
        assert got == pytest.approx(math.log(0.5), abs=1e-13)

    def test_degenerate_assignment(self):
        assert multinomial_log_pmf((2, 0), 2, (1.0, 0.0)) == 0.0

    def test_count_mismatch_is_zero_probability(self):
        assert multinomial_log_pmf((1, 2), 2, (0.5, 0.5)) == LOG_ZERO

    def test_rejects_unnormalised_probs(self):
        with pytest.raises(ValueError):
            multinomial_log_pmf((1, 1), 2, (0.5, 0.6))

    def test_sums_to_one(self):
        probs = (0.2, 0.3, 0.5)
        n = 6
        acc = 0.0
        for counts in product(range(n + 1), repeat=3):
            if sum(counts) == n:
                acc += math.exp(multinomial_log_pmf(counts, n, probs))
        assert acc == pytest.approx(1.0, abs=1e-12)


class TestProductBinomial:
    def test_examples(self):
        layout = CommitteeLayout((2, 2))
        assert product_binomial_log_pmf((1, 1), layout, (0.5, 0.5)) == pytest.approx(
            math.log(0.25), abs=1e-13
        )
        assert product_binomial_log_pmf((2, 0), layout, (0.5, 0.5)) == pytest.approx(
            math.log(0.0625), abs=1e-13
        )
        assert product_binomial_log_pmf((0, 0, 0), CommitteeLayout((1, 2, 3)), 0.0) == 0.0

    def test_count_exceeding_size_errors(self):
        with pytest.raises(ValueError):
            product_binomial_log_pmf((3, 0), CommitteeLayout((2, 2)), 0.5)

    @pytest.mark.parametrize("sizes", [(2, 2), (1, 2, 3), (3, 4), (1, 1, 1, 1)])
    @pytest.mark.parametrize("rate", [0.25, None], ids=["uniform", "mixed"])
    def test_sums_to_one(self, sizes, rate):
        layout = CommitteeLayout(sizes)
        rates = rate if rate is not None else tuple(
            0.1 + 0.15 * i for i in range(len(sizes))
        )
        acc = 0.0
        for counts in product(*[range(s + 1) for s in sizes]):
            acc += math.exp(product_binomial_log_pmf(counts, layout, rates))
        assert acc == pytest.approx(1.0, abs=1e-12)


class TestMultivariateHypergeometric:
    def test_examples(self):
        layout = CommitteeLayout((2, 2))
        assert multivariate_hypergeometric_log_pmf((1, 1), layout, 2) == pytest.approx(
            math.log(2 / 3), abs=1e-13
        )
        assert multivariate_hypergeometric_log_pmf((2, 0), layout, 2) == pytest.approx(
            math.log(1 / 6), abs=1e-13
        )
        assert multivariate_hypergeometric_log_pmf((1, 0), layout, 2) == LOG_ZERO

    def test_rejects_invalid_m(self):
        with pytest.raises(ValueError):
            multivariate_hypergeometric_log_pmf((1, 1), CommitteeLayout((2, 2)), 5)

    @pytest.mark.parametrize("sizes", [(2, 2), (3, 4), (1, 2, 3), (1, 1, 1, 1, 2)])
    def test_sums_to_one_for_every_m(self, sizes):
        layout = CommitteeLayout(sizes)
        n = layout.total
        for m in range(n + 1):
            acc = 0.0
            for counts in product(*[range(s + 1) for s in sizes]):
                acc += math.exp(
                    multivariate_hypergeometric_log_pmf(counts, layout, m)
                )
            assert acc == pytest.approx(1.0, abs=1e-12), (sizes, m)


class TestHypergeometricMarginal:
    def test_examples(self):
        assert hypergeometric_marginal_log_pmf(1, 2, 4, 2) == pytest.approx(
            math.log(2 / 3), abs=1e-13
        )
        assert hypergeometric_marginal_log_pmf(2, 2, 4, 2) == pytest.approx(
            math.log(1 / 6), abs=1e-13
        )
        assert hypergeometric_marginal_log_pmf(0, 5, 40, 0) == 0.0

    def test_out_of_support_is_zero_probability(self):
        # 3 leftover adversaries cannot fit into the other 2 seats
        assert hypergeometric_marginal_log_pmf(0, 2, 4, 3) == LOG_ZERO
        assert hypergeometric_marginal_log_pmf(3, 2, 4, 3) == LOG_ZERO

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            hypergeometric_marginal_log_pmf(0, 5, 4, 2)
        with pytest.raises(ValueError):
            hypergeometric_marginal_log_pmf(0, 2, 4, 5)

    def test_both_closed_forms_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            total = int(rng.integers(2, 200))
            size = int(rng.integers(1, total + 1))
            m = int(rng.integers(0, total + 1))
            lo, hi = max(0, m - (total - size)), min(size, m)
            j = int(rng.integers(lo, hi + 1))
            a = HypergeometricCounts(total, m).first(size, j)
            b = hypergeometric_marginal_log_pmf_alternate(j, size, total, m)
            assert a == pytest.approx(b, abs=1e-12)

    def test_closed_forms_agree_at_lgamma_scale(self):
        # committees of 100 in N = 1e4 with M = 2500: at j = 34..43 the forms
        # differ by up to 1.5e-11, about one ulp of lgamma(N + 1)
        total, size, m = 10_000, 100, 2500
        tolerance = 16 * math.ulp(math.lgamma(total + 1))
        for j in range(34, 44):
            a = HypergeometricCounts(total, m).first(size, j)
            b = hypergeometric_marginal_log_pmf_alternate(j, size, total, m)
            assert abs(a - b) <= tolerance, j
            assert hypergeometric_marginal_log_pmf(j, size, total, m) == a

    def test_marginal_matches_joint_sum(self):
        layout = CommitteeLayout((3, 4, 2))
        n = layout.total
        for m in range(n + 1):
            for j in range(4):
                acc = 0.0
                for rest in product(range(5), range(3)):
                    counts = (j, rest[0], rest[1])
                    acc += math.exp(
                        multivariate_hypergeometric_log_pmf(counts, layout, m)
                    )
                expected = math.exp(hypergeometric_marginal_log_pmf(j, 3, n, m))
                assert acc == pytest.approx(expected, abs=1e-12), (m, j)

    def test_marginal_sums_to_one(self):
        total, size, m = 40, 12, 17
        acc = sum(
            math.exp(hypergeometric_marginal_log_pmf(j, size, total, m))
            for j in range(size + 1)
        )
        assert acc == pytest.approx(1.0, abs=1e-12)
