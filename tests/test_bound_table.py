"""The one bound table: every bound tag keeps the bits of the walk it replaced.

``failure._BOUNDS`` holds the eight bounds as (model, end, per-committee log
term) rows, and ``failure._bound`` is their one walk.  ``oracles.kl_bound``
and ``oracles.union_hyper_exact`` are the two walks it replaced; the property
here holds every ``DeltaResult`` field, and the repr, to them with ``==``.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import bound_reference
from shardrisk import failure
from shardrisk.failure import FailureQuery
from shardrisk.methods import METHODS
from shardrisk.partitions import AverageAdversary, CommitteeLayout, ExactAdversary

THRESHOLDS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
# a rate's distance from a run's failing fraction q, relative to q: below, at, above
OFFSETS = (-0.5, -1e-3, -1e-12, 0.0, 1e-12, 1e-3, 0.5)


@st.composite
def bound_cases(draw):
    """A 1-4-run layout of committees of up to 3000 nodes, a threshold, and a
    rate near some run's failing fraction q = (cap + 1) / n, on either side, or
    anywhere; under exactly-M the count is round(N P) or any M in [0, N]."""
    runs = [(draw(st.integers(1, 3000)), draw(st.integers(1, 4)))
            for _ in range(draw(st.integers(1, 4)))]
    layout = CommitteeLayout.from_runs(runs)
    threshold = draw(st.sampled_from(THRESHOLDS))
    size, _, cap = draw(st.sampled_from(layout.allowances(threshold)))
    q = (cap + 1) / size
    rate = draw(st.one_of(
        st.sampled_from(OFFSETS).map(lambda e: min(max(q * (1.0 + e), 0.0), 1.0)),
        st.floats(0.0, 1.0)))
    count = draw(st.one_of(st.just(round(rate * layout.total)),
                           st.integers(0, layout.total)))
    return layout, threshold, rate, count


def query_of(tag, layout, threshold, rate, count):
    adversary = (AverageAdversary(rate) if failure._BOUNDS[tag][0] == "average"
                 else ExactAdversary(count))
    return FailureQuery(layout, adversary, threshold)


@settings(max_examples=400, deadline=None)
@given(bound_cases())
@example((CommitteeLayout.from_runs([(12, 2), (10, 1), (11, 1)]), Fraction(1, 3), 0.25, 11))
@example((CommitteeLayout.from_runs([(3000, 4), (1, 3)]), Fraction(2, 3), 0.7, 12003))
@example((CommitteeLayout.from_runs([(7, 2), (5, 1)]), Fraction(1), 0.5, 9))  # none can fail
@example((CommitteeLayout.from_runs([(600, 3), (2, 1)]), Fraction(1, 4), 0.0, 0))
@example((CommitteeLayout.from_runs([(1, 1)]), Fraction(1, 2), 1.0, 1))
def test_every_bound_keeps_the_replaced_walk(case):
    layout, threshold, rate, count = case
    for tag in failure._BOUNDS:
        query = query_of(tag, layout, threshold, rate, count)
        got = METHODS[tag].evaluate(query)
        want = bound_reference(tag, query)
        assert got == want, tag
        assert repr(got) == repr(want), tag


def test_precondition_warnings_of_both_models():
    # 1/4 of 12 committees of 10 fail at q = 3/10: rates above it break p < q
    layout = CommitteeLayout.from_runs([(10, 12)])
    threshold = Fraction(1, 4)
    for tag, (model, _, _) in failure._BOUNDS.items():
        above = query_of(tag, layout, threshold, 0.4, 48)
        below = query_of(tag, layout, threshold, 0.1, 12)
        assert not failure._bound(tag, below).warnings, tag
        result = failure._bound(tag, above)
        if tag == "union-hyper-exact":  # exact tails need no precondition
            assert result.precondition_ok and not result.warnings
            continue
        assert not result.precondition_ok, tag
        word = "bound" if model == "average" else "Hoeffding"
        assert result.warnings == (f"{word} precondition violated for some committee",)
        assert result == bound_reference(tag, above)


def test_lower_end_caps_each_term_at_one():
    # a term above log 1 counts as 1, so one committee bounds delta by 1
    assert failure._log_lower([(0.5, 1), (math.log(0.25), 2)]) == 0.0
    assert failure._log_lower([(math.log(0.5), 1)]) == math.log(0.5)
