"""Run-length committee layouts.

The analytic evaluators and sizing solvers read a layout's (size,
multiplicity) runs and never expand the committee sequence; they agree with
per-committee (K-tuple) evaluation and the exhaustive oracles; and the
Monte Carlo draws, which do expand it, keep the committee order.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import binomial_failure_enumeration, hypergeometric_failure_table
from shardrisk.cli import main
from shardrisk.failure import (
    FailureQuery,
    delta_exact_binomial,
    delta_exact_hypergeometric,
    theorem1_bounds,
    union_bound_fixed_sizes,
    union_bound_hypergeometric,
)
from shardrisk.partitions import (
    AverageAdversary,
    CommitteeLayout,
    ExactAdversary,
    layout_from_split,
)
from shardrisk.probcore import binomial_tail_and_cdf, kl_divergence
from shardrisk.saddle import delta_asymptotic, solve_saddle, truncated_binomial_summary
from shardrisk.sizing import max_committees, min_committee_size

THIRD = Fraction(1, 3)
HALF = Fraction(1, 2)


class TestNoCommitteeSequence:
    @pytest.fixture(autouse=True)
    def forbid_expansion(self, monkeypatch):
        def expand(*_):
            raise AssertionError("the committee sequence was expanded")

        # a setter too, so that storing a committee sequence also fails
        monkeypatch.setattr(CommitteeLayout, "sizes", property(expand, expand),
                            raising=False)
        monkeypatch.setattr(CommitteeLayout, "sizes_array", expand)

    def test_evaluators_on_ten_million_committees(self):
        layout = layout_from_split(10**9, 10**7)
        k = 10**7
        average = FailureQuery(layout, AverageAdversary(0.05), THIRD)
        exact = delta_exact_binomial(average)
        _, log_tail = binomial_tail_and_cdf(100, 0.05, 33)
        assert exact.delta == pytest.approx(-math.expm1(k * math.log1p(-math.exp(log_tail))),
                                            rel=1e-9)
        lower, ash, ferrante = theorem1_bounds(average)
        assert lower.delta <= exact.delta <= ferrante.delta <= ash.delta
        fixed = union_bound_fixed_sizes(average)
        assert fixed.raw_log_delta == pytest.approx(
            math.log(k) - 100 * kl_divergence(0.34, 0.05), rel=1e-12)
        # an adversary count below every allowance leaves no marginal tail to sum
        tail_sum, hoeffding = union_bound_hypergeometric(
            FailureQuery(layout, ExactAdversary(30), THIRD))
        assert tail_sum.delta == 0.0
        assert 0.0 < hoeffding.delta < 1e-200
        assert delta_asymptotic(layout, 5 * 10**7, THIRD).precondition_ok

    def test_sizing_solvers(self):
        assert max_committees(300, 1e-3, THIRD, 0.25).iterations == 299
        assert min_committee_size(10**6, 1e-6, THIRD, 0.25, "average") == 1419


@st.composite
def layouts_with_rates(draw):
    sizes = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)
                       .filter(lambda s: sum(s) <= 12)))
    rates = tuple(draw(st.sampled_from((0.1, 0.25, 0.5))) for _ in sizes)
    return sizes, rates


def _per_committee_bounds(sizes, rates, threshold):
    """theorem1 (lower, ash, ferrante) and the union sum, one committee at a time."""
    survival = [1.0, 1.0, 1.0]
    union = 0.0
    for size, rate in zip(sizes, rates):
        fail_at = math.floor(threshold * size) + 1
        if fail_at > size:
            continue
        q = fail_at / size
        if not rate < q < 1.0:
            tails = (1.0, 1.0, 1.0)
        else:
            ash = math.exp(-size * kl_divergence(q, rate))
            r = rate * (1 - q) / (q * (1 - rate))
            tails = (ash / math.sqrt(8 * size * q * (1 - q)), ash,
                     ash / ((1 - r) * math.sqrt(2 * math.pi * q * (1 - q) * size)))
        survival = [s * (1.0 - min(t, 1.0)) for s, t in zip(survival, tails)]
        union += tails[1]
    return [1.0 - s for s in survival], union


def _marginal_tail_sum(sizes, m, threshold):
    """sum_mu P(count_mu > floor(A n_mu)) under the exactly-M law, exactly."""
    n_total = sum(sizes)
    acc = Fraction(0)
    for size in sizes:
        for j in range(math.floor(threshold * size) + 1, min(size, m) + 1):
            acc += Fraction(math.comb(size, j) * math.comb(n_total - size, m - j),
                            math.comb(n_total, m))
    return float(acc)


@given(case=layouts_with_rates(), threshold=st.sampled_from((THIRD, HALF)))
@example(case=((5, 3, 5, 5), (0.25, 0.1, 0.25, 0.25)), threshold=THIRD)
@settings(max_examples=40, deadline=None)
def test_runs_match_per_committee_evaluation(case, threshold):
    sizes, rates = case
    layout = CommitteeLayout(sizes)
    assert layout.sizes == sizes
    assert layout.sizes_array().tolist() == list(sizes)
    for runs in (layout.runs, [(s, 1) for s in sizes], [(s, 1) for s in sizes] + [(1, 0)]):
        rebuilt = CommitteeLayout.from_runs(runs)
        assert rebuilt == layout and hash(rebuilt) == hash(layout)
    assert all(a[0] != b[0] for a, b in zip(layout.runs, layout.runs[1:]))

    for rate in (0.25, rates):
        query = FailureQuery(layout, AverageAdversary(rate), threshold)
        per_committee = rate if isinstance(rate, tuple) else (rate,) * len(sizes)
        expected = binomial_failure_enumeration(sizes, per_committee, threshold)
        assert delta_exact_binomial(query).delta == pytest.approx(expected, abs=1e-10)
        products, union = _per_committee_bounds(sizes, per_committee, threshold)
        for got, want in zip(theorem1_bounds(query), products):
            assert got.delta == pytest.approx(want, abs=1e-12)
        assert math.exp(union_bound_fixed_sizes(query).raw_log_delta) == pytest.approx(
            union, rel=1e-12)

    n_total = layout.total
    fail, _ = hypergeometric_failure_table(sizes, threshold)
    for m in range(n_total + 1):
        query = FailureQuery(layout, ExactAdversary(m), threshold)
        expected = fail[m] / math.comb(n_total, m)
        assert delta_exact_hypergeometric(query).delta == pytest.approx(expected, abs=1e-10)
        tail_sum, _ = union_bound_hypergeometric(query)
        assert math.exp(tail_sum.raw_log_delta) == pytest.approx(
            _marginal_tail_sum(sizes, m, threshold), rel=1e-10, abs=1e-300)
        if not 0 < m < n_total:
            continue
        p = m / n_total
        try:
            solution = solve_saddle(layout, p, threshold)
        except ValueError:
            continue  # no tilt exists for this count
        summaries = [truncated_binomial_summary(s, solution.tilt, threshold) for s in sizes]
        variance_sum = sum(x.variance for x in summaries)
        psi = kl_divergence(p, solution.tilt) + sum(x.log_mass for x in summaries) / n_total
        assert solution.mean_residual == pytest.approx(
            sum(x.mean for x in summaries) / n_total - p, abs=1e-12)
        assert solution.variance_sum == pytest.approx(variance_sum, rel=1e-12)
        assert solution.psi == pytest.approx(psi, abs=1e-12)
        log_survival = 0.5 * math.log(n_total * p * (1 - p) / variance_sum) + n_total * psi
        assert delta_asymptotic(layout, m, threshold).log_survival == pytest.approx(
            min(log_survival, 0.0), abs=1e-10)

# CSV printed by `simulate --layout 12,10,12,11`; the (seed, chunk) stream
# grid must reproduce it byte for byte.  The average model's row dates from
# before layouts were stored as runs; the exactly-M row was recorded when
# that model's committees became sequential conditional draws, which keep
# the law and change the realisations (exact delta 0.61409, 1.9 SE away).
_SIMULATE_GOLDEN = {
    ("--adversary-frac", "1/4"): (
        "delta_hat,std_error,ci_low,ci_high,failures,samples\n"
        "0.60575,0.0015453703035195156,0.6027210742051018,0.6087789257948982,"
        "60575,100000\n"),
    ("--adversary-count", "11"): (
        "delta_hat,std_error,ci_low,ci_high,failures,samples\n"
        "0.61708,0.0015371801247739316,0.6140671269554431,0.6200928730445568,"
        "61708,100000\n"),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("model", sorted(_SIMULATE_GOLDEN))
def test_simulate_output_unchanged(capsys, model, workers):
    code = main(["simulate", "--layout", "12,10,12,11", "--threshold", "1/3", *model,
                 "--samples", "100000", "--seed", "20261018", "--workers", workers])
    assert code == 0
    assert capsys.readouterr().out == _SIMULATE_GOLDEN[model]


# CSV printed by `simulate` on 1000 committees of 10: the average model,
# recorded before each chunk compared uniforms with cap CDFs in blocks, spans
# two chunks of many blocks; the exactly-M model, recorded with sequential
# conditional draws (exact delta 0.13543, 1.8 SE away), one chunk.
_THOUSAND_GOLDEN = {
    ("--adversary-frac", "1/10", "--samples", "40960"): (
        "delta_hat,std_error,ci_low,ci_high,failures,samples\n"
        "0.138134765625,0.0017048697495864137,0.1347932209158106,0.14147631033418936,"
        "5658,40960\n"),
    ("--adversary-count", "1000", "--samples", "2048"): (
        "delta_hat,std_error,ci_low,ci_high,failures,samples\n"
        "0.12255859375,0.007246294340148864,0.10835585684330823,0.13676133065669177,"
        "251,2048\n"),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("model", sorted(_THOUSAND_GOLDEN))
def test_simulate_blocks_reproduce_single_draw(capsys, model, workers):
    code = main(["simulate", "--layout", ",".join(["10"] * 1000), "--threshold", "1/2",
                 *model, "--seed", "20261018", "--workers", workers])
    assert code == 0
    assert capsys.readouterr().out == _THOUSAND_GOLDEN[model]
