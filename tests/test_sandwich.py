"""The per-run sandwich 1 - prod_g (1 - T_g)^m_g <= delta <= sum_g m_g T_g.

``failure._log_lower`` and ``failure._log_upper`` are the one home of each end.  The tests here check
its premise at integer precision (equality on the left for binomial counts,
a bracket for exactly-M ones, which are negatively associated), hold the
exactly-M evaluator's choice of side to the failure-first evaluator with
``==`` on every field, and count the transforms that choice runs.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (delta_exact_hypergeometric_failure_first, exact_m_failure_survival,
                     log_ratio)
from shardrisk import failure
from shardrisk.failure import FailureQuery, _log_lower, _log_upper, delta_exact_hypergeometric
from shardrisk.methods import _binomial_law
from shardrisk.partitions import CommitteeLayout, ExactAdversary, layout_from_split
from shardrisk.probcore import LOG_ZERO, HypergeometricCounts

THRESHOLDS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))


@st.composite
def layouts(draw, max_nodes):
    """1-3 runs of up to three committees each, with at most ``max_nodes`` nodes."""
    runs, budget = [], max_nodes
    for _ in range(draw(st.integers(1, 3))):
        mult = draw(st.integers(1, min(3, budget)))
        size = draw(st.integers(1, budget // mult))
        runs.append((size, mult))
        budget -= size * mult
        if budget == 0:
            break
    return CommitteeLayout.from_runs(runs)


def marginal_tails(layout, m, threshold):
    return [(HypergeometricCounts(layout.total, m).tail(size, cap), mult)
            for size, mult, cap in layout.allowances(threshold)]


# -------------------------------------------------------------------------
# the premise, against exact integer and rational arithmetic


def fraction_product_binomial_delta(layout, rate, threshold) -> Fraction:
    survival = Fraction(1)
    for size, mult, cap in layout.allowances(threshold):
        survival *= sum(math.comb(size, j) * rate ** j * (1 - rate) ** (size - j)
                        for j in range(min(cap, size) + 1)) ** mult
    return 1 - survival


@settings(max_examples=150, deadline=None)
@given(layout=layouts(150), threshold=st.sampled_from(THRESHOLDS + (Fraction(2, 3),)),
       rate=st.integers(1, 99).map(lambda k: Fraction(k, 100)))
@example(layout=CommitteeLayout.from_runs([(150, 1)]), threshold=Fraction(1, 3),
         rate=Fraction(1, 100))
def test_lower_end_is_the_product_binomial_delta(layout, threshold, rate):
    law = _binomial_law(rate)(layout)
    lower = _log_lower([(law.tail(size, cap), mult)
                        for size, mult, cap in layout.allowances(threshold)])
    delta = fraction_product_binomial_delta(layout, rate, threshold)
    assert lower == pytest.approx(log_ratio(delta.numerator, delta.denominator),
                                  rel=0.0, abs=1e-12)


@st.composite
def exact_m_cases(draw):
    layout = draw(layouts(150))
    return layout, draw(st.sampled_from(THRESHOLDS)), draw(st.integers(0, layout.total))


@settings(max_examples=200, deadline=None)
@given(exact_m_cases())
@example((CommitteeLayout.from_runs([(100, 3)]), Fraction(1, 3), 90))
@example((CommitteeLayout.from_runs([(150, 1)]), Fraction(1, 4), 60))
@example((CommitteeLayout.from_runs([(3, 2)]), Fraction(1, 3), 6))
def test_ends_bracket_the_exact_m_delta(case):
    layout, threshold, m = case
    tails = marginal_tails(layout, m, threshold)
    lower, upper = _log_lower(tails), _log_upper(tails)
    failing, _, total = exact_m_failure_survival(layout.runs, m, threshold)
    if failing == 0:
        assert lower == upper == LOG_ZERO
        return
    log_delta = log_ratio(failing, total)
    assert lower <= log_delta + 1e-12
    assert log_delta <= upper + 1e-12
    if layout.committee_count == 1:  # one tail: both ends are delta
        assert lower == pytest.approx(log_delta, rel=0.0, abs=1e-12)
        assert upper == pytest.approx(log_delta, rel=0.0, abs=1e-12)


# -------------------------------------------------------------------------
# the exactly-M side choice: the same bits as failure first


def first_count(layout, holds) -> int:
    """The smallest M in [0, N] where ``holds(M)``, by bisection, for a
    predicate that turns true once as M grows (and holds at M = N)."""
    lo, hi = 0, layout.total
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def exact_query(layout, m, threshold):
    return FailureQuery(layout, ExactAdversary(m), threshold)


@st.composite
def side_cases(draw):
    """A layout of N <= 3000 nodes and an M where delta lies below 1/2, or near
    where delta or the sandwich's lower end crosses 1/2."""
    layout, threshold = draw(layouts(3000)), draw(st.sampled_from(THRESHOLDS))
    where = draw(st.sampled_from(("anywhere", "delta", "lower end")))
    if where == "anywhere":
        m = draw(st.integers(0, layout.total))
    else:
        if where == "delta":
            def holds(m):
                return delta_exact_hypergeometric_failure_first(
                    exact_query(layout, m, threshold)).log_delta >= -math.log(2.0)
        else:
            def holds(m):
                lower = _log_lower(marginal_tails(layout, m, threshold))
                return lower > -math.log(2.0) + 2.0 ** -20
        m = min(max(first_count(layout, holds) + draw(st.integers(-2, 2)), 0), layout.total)
    return layout, threshold, m


@settings(max_examples=300, deadline=None)
@given(side_cases())
@example((layout_from_split(300, 3), Fraction(1, 3), 90))
@example((layout_from_split(2000, 200), Fraction(1, 3), 600))
@example((CommitteeLayout.from_runs([(1000, 1), (1, 2)]), Fraction(1, 2), 2))
def test_side_choice_keeps_every_field(case):
    layout, threshold, m = case
    query = exact_query(layout, m, threshold)
    got = delta_exact_hypergeometric(query)
    want = delta_exact_hypergeometric_failure_first(query)
    assert got == want
    assert repr(got) == repr(want)


def counted_transforms(monkeypatch) -> dict:
    calls = {"_log_failure": 0, "_log_survival": 0}
    for name in calls:
        def counted(*args, real=getattr(failure, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(failure, name, counted)
    return calls


@pytest.mark.parametrize("nodes, committees, count, failures, survivals", [
    (7500, 1000, 750, 0, 1),  # lower end 1 - 8.9e-15
    (5000, 700, 500, 0, 1),  # lower end 1 - 3.7e-9
    (300, 3, 90, 1, 1),  # lower end 0.438, delta 0.510
    (300, 3, 60, 1, 0),  # delta below 1/2
    (300, 3, 33, 0, 0),  # no committee can hold more than its allowance of 33
    (300, 3, 100, 0, 0),  # 100 adversaries exceed the allowances' total of 99
])
def test_transforms_per_side(monkeypatch, nodes, committees, count, failures, survivals):
    calls = counted_transforms(monkeypatch)
    query = exact_query(layout_from_split(nodes, committees), count, Fraction(1, 3))
    result = delta_exact_hypergeometric(query)
    assert calls == {"_log_failure": failures, "_log_survival": survivals}
    if (nodes, count) == (300, 90):
        lower = _log_lower(marginal_tails(query.layout, count, query.threshold))
        assert math.exp(lower) == pytest.approx(0.438, abs=1e-3)
        assert result.delta == pytest.approx(0.510, abs=1e-3)
    if count == 33:
        assert result.delta == 0.0
    if count == 100:
        assert result.delta == 1.0
