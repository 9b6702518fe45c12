"""The windowed tail sums of both exact laws, and the orderings they feed.

``binomial_tail_and_cdf`` and ``HypergeometricCounts.tail`` sum only the
terms within 750 of the largest, through ``probcore.CountLaw.log_sum``.  The
tests here hold them to the full-row sums they replaced with ``==``, count
the terms they build at n = 1e7 and N = 1e8, bound the memory of CLI
queries at n = 1e9, and check the orderings between the registry's tags on
random mixed layouts.
"""

import csv
import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import full_row_binomial_split, full_row_marginal_log_tail
from shardrisk import probcore
from shardrisk.cli import main
from shardrisk.failure import _log_lower
from shardrisk.methods import METHODS, _hypergeometric_law, method_query
from shardrisk.partitions import CommitteeLayout
from shardrisk.probcore import (LOG_ZERO, BinomialCounts, HypergeometricCounts,
                                binomial_tail_and_cdf)

# -------------------------------------------------------------------------
# the same bits as the full rows

SIZES = st.one_of(st.integers(1, 60), st.integers(60, 5000), st.integers(5000, 200_000))
RATES = st.one_of(
    st.floats(1e-9, 1e-3),  # near 0
    st.floats(1e-9, 1e-3).map(lambda x: 1.0 - x),  # near 1
    st.floats(1e-3, 1.0 - 1e-3),
)


def cap_near(draw, lo, hi, mean, sd):
    """A cap anywhere in [lo, hi]: uniform, within a few deviations of the
    mean, or at an end of the range."""
    return draw(st.one_of(
        st.integers(lo, hi),
        st.floats(-12.0, 12.0).map(lambda z: min(max(int(mean + z * sd), lo), hi)),
        st.sampled_from((lo, min(lo + 1, hi), max(hi - 1, lo), hi)),
    ))


@st.composite
def binomial_splits(draw):
    n, p = draw(SIZES), draw(RATES)
    return n, p, cap_near(draw, 0, n, n * p, math.sqrt(n * p * (1.0 - p)))


@st.composite
def marginal_tails(draw):
    total = draw(SIZES.map(lambda x: x + 1))
    size, m = draw(st.integers(1, total)), draw(st.integers(0, total))
    share = m / total
    sd = math.sqrt(size * share * (1.0 - share))
    return size, total, m, cap_near(draw, -1, size, size * share, sd)


class TestSameBitsAsFullRows:
    @settings(max_examples=400, deadline=None)
    @given(binomial_splits())
    @example((200_000, 1e-9, 0))
    @example((200_000, 1.0 - 1e-9, 199_999))
    @example((200_000, 0.3, 60_000))
    @example((1, 0.5, 0))
    def test_binomial_split(self, case):
        n, p, k = case
        assert binomial_tail_and_cdf(n, p, k) == full_row_binomial_split(n, p, k)

    @settings(max_examples=400, deadline=None)
    @given(marginal_tails())
    @example((100_000, 200_000, 60_000, 33_333))
    @example((199_999, 200_000, 100_000, 66_666))
    @example((1, 2, 1, 0))
    def test_marginal_tail(self, case):
        size, total, m, cap = case
        assert HypergeometricCounts(total, m).tail(size, cap) == full_row_marginal_log_tail(*case)

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 1000])
    @pytest.mark.parametrize("p", [1e-9, 0.003, 0.3, 0.5, 0.97, 1.0 - 1e-9])
    def test_binomial_every_cap(self, n, p):
        for k in range(n + 1):
            assert binomial_tail_and_cdf(n, p, k) == full_row_binomial_split(n, p, k), k

    @pytest.mark.parametrize("size, total, m", [(1, 1, 1), (5, 20, 18), (50, 60, 55),
                                                (300, 4500, 1125), (1000, 3000, 750),
                                                (700, 1000, 10)])
    def test_marginal_every_cap(self, size, total, m):
        for cap in range(-1, size + 1):
            assert (HypergeometricCounts(total, m).tail(size, cap)
                    == full_row_marginal_log_tail(size, total, m, cap)), cap

    def test_empty_range_is_zero_probability(self):
        assert BinomialCounts(0.4).log_sum(9, 5, 4) == LOG_ZERO
        assert binomial_tail_and_cdf(9, 0.4, 9) == (0.0, LOG_ZERO)


# -------------------------------------------------------------------------
# work and memory at large n


def counted_log_factorial(monkeypatch, module):
    """Rebind ``module.log_factorial``; returns the list of argument sizes."""
    sizes = []
    real = module.log_factorial

    def counted(k):
        k = np.asarray(k)
        sizes.append(k.size)
        return real(k)

    monkeypatch.setattr(module, "log_factorial", counted)
    return sizes


class TestWorkBound:
    @pytest.mark.parametrize("offset", [-5.0, 0.0, 2.0, 230.0])
    def test_binomial_split_at_ten_million_builds_order_sd_terms(self, monkeypatch, offset):
        n, p = 10 ** 7, 0.3
        sd = math.sqrt(n * p * (1.0 - p))
        sizes = counted_log_factorial(monkeypatch, probcore)
        k = int(n * p + offset * sd)
        log_cdf, log_tail = binomial_tail_and_cdf(n, p, k)
        assert abs(math.exp(log_cdf) + math.exp(log_tail) - 1.0) <= 1e-12
        terms = sum((size - 1) // 2 for size in sizes)  # (n, j, n - j) per call
        assert 0 < terms <= 100 * sd, (terms, sd)

    def test_marginal_tail_at_a_hundred_million_builds_order_sd_terms(self, monkeypatch):
        total, size, m = 10 ** 8, 5 * 10 ** 7, 3 * 10 ** 7
        share = m / total
        sd = math.sqrt(size * share * (1.0 - share) * (total - size) / (total - 1))
        sizes = counted_log_factorial(monkeypatch, probcore)
        log_tail = HypergeometricCounts(total, m).tail(size, size // 3)
        assert -1e6 < log_tail < -1e5
        terms = sum((s - 2) // 4 for s in sizes)  # (size, rest) and four per count
        assert 0 < terms <= 100 * sd, (terms, sd)


def traced_cli(capsys, *argv):
    """(exit code, {method: row}, peak traced bytes) of one CLI query."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = csv.DictReader(io.StringIO(capsys.readouterr().out))
    return code, {row["method"]: row for row in rows}, peak


class TestLargeNetworksInBoundedMemory:
    def test_exact_binomial_at_a_billion(self, capsys):
        probcore.binomial_tail_and_cdf.cache_clear()
        code, rows, peak = traced_cli(
            capsys, "delta", "--layout", "1000000000,1000000000", "--adversary-frac",
            "3/10", "--threshold", "1/3", "--method",
            "exact-binomial,theorem1-lower,theorem1-upper-ferrante")
        assert code == 0
        assert peak < 200e6, peak
        lower, exact, upper = (float(rows[tag]["log_delta"]) for tag in (
            "theorem1-lower", "exact-binomial", "theorem1-upper-ferrante"))
        assert lower <= exact <= upper
        assert exact < -1e6

    def test_union_hyper_exact_at_a_hundred_million(self, capsys):
        code, rows, peak = traced_cli(
            capsys, "delta", "--layout", "50000000,50000000", "--adversary-count",
            "30000000", "--threshold", "1/3", "--method",
            "union-hyper-exact,union-hyper-hoeffding")
        assert code == 0
        assert peak < 200e6, peak
        exact = float(rows["union-hyper-exact"]["raw_log_delta"])
        assert -1e6 < exact <= float(rows["union-hyper-hoeffding"]["raw_log_delta"])


# -------------------------------------------------------------------------
# orderings between the registry's tags on mixed layouts

THRESHOLDS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


@st.composite
def ordering_cases(draw):
    runs = draw(st.lists(st.tuples(st.integers(1, 3000), st.integers(1, 4)),
                         min_size=1, max_size=4))
    threshold = draw(st.sampled_from(THRESHOLDS))
    rate = Fraction(draw(st.integers(1, int(threshold * 100) - 1)), 100)
    return CommitteeLayout.from_runs(runs), threshold, rate


def evaluate(model, layout, threshold, rate, tags):
    query = method_query(model, layout, threshold, rate)
    return {tag: METHODS[tag].evaluate(query) for tag in tags}


def assert_chain(values, slack):
    """values in non-decreasing order, up to ``slack`` of rounding."""
    for below, above in zip(values, values[1:]):
        assert below <= above + slack, values


@settings(max_examples=400, deadline=None)
@given(ordering_cases())
@example((CommitteeLayout.from_runs([(12, 1)]), Fraction(1, 3), Fraction(1, 4)))
@example((CommitteeLayout.from_runs([(2, 3), (1500, 1)]), Fraction(2, 3), Fraction(65, 100)))
def test_tag_orderings(case):
    layout, threshold, rate = case
    # log terms below are of size lgamma(N + 1) at most; allow a few of its ulps
    slack = 64 * math.ulp(math.lgamma(layout.total + 1))

    avg = evaluate("average", layout, threshold, rate, (
        "exact-binomial", "theorem1-lower", "theorem1-upper-ash", "theorem1-upper-ferrante",
        "union-fixed", "union-random", "union-random-simple"))
    raw = {tag: result.raw_log_delta for tag, result in avg.items()}
    if avg["theorem1-lower"].precondition_ok:
        assert_chain([raw["theorem1-lower"], raw["exact-binomial"]], slack)
    assert_chain([raw["exact-binomial"], raw["theorem1-upper-ferrante"]], slack)
    assert_chain([raw["exact-binomial"], raw["theorem1-upper-ash"], raw["union-fixed"]],
                 slack)
    assert_chain([raw["union-random"], raw["union-random-simple"]],
                 slack + 1e-12 * abs(raw["union-random"]))

    exact = evaluate("exact", layout, threshold, rate, (
        "exact-hypergeometric", "union-hyper-exact", "union-hyper-hoeffding"))
    law = _hypergeometric_law(rate)(layout)
    na_lower = _log_lower(
        [(law.tail(size, cap), mult) for size, mult, cap in layout.allowances(threshold)])
    assert_chain([na_lower] + [exact[tag].raw_log_delta for tag in (
        "exact-hypergeometric", "union-hyper-exact", "union-hyper-hoeffding")], slack)

    for result in (avg["exact-binomial"], exact["exact-hypergeometric"]):
        assert abs(math.exp(result.log_delta) + math.exp(result.log_survival) - 1.0) <= 1e-9
