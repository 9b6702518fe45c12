"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Set ``SHARDRISK_ACCEPTANCE_FULL=1`` to run the
million-sample Monte Carlo variant of criterion 5 (about 90 s on 2 cores);
the default smoke variant uses 1e5 samples.

Criterion 5 simulates Figure 3 (N = 1000, P = 1/4, threshold 1/3,
K = 2..100) under both adversary models and judges each failure count x by
its exact law X ~ Bin(samples, delta), delta from that model's exact
evaluator: a point fails when its far-side tail, P(X >= x) above the mean
or P(X <= x) below it, is under P(Z > 5) = 2.87e-7.  The tail toward the
mean holds the median, so the two-sided level is 5.7e-7, that of |z| > 5
under a normal law, at every expected count; a z-score alone misjudges a
count whose rarer outcome is expected less than once.

Criteria 6 and 7 are asserted exactly as stated and fail honestly:

* criterion 6: the leading-order saddle-point estimate cannot reach 5%
  relative log-survival accuracy over the whole K range at N = 1e4; in the
  extreme-tail corner (K around 10, true log-survival ~ -2e-9) the dropped
  O(1/N) correction dominates and the estimate clamps to survival 1.  The
  error criterion does hold for K >= 25 and improves monotonically with K
  and with N at matched K/N (criterion 6a, which passes).
* criterion 7: the claimed ordering (average-rate failure probability
  above the exactly-M one) provably reverses once failure stops being
  rare; (4,4,4,4) with M=4 at threshold 1/3 is an exact counterexample
  (enumeration: 0.859 versus 0.703), and on the sweep grids the reversal
  appears from roughly K=25 at N=1e3.  Both sides are verified against
  brute-force enumeration and Monte Carlo, so the inequality itself, not
  the implementation, is what fails.
"""

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    binomial_failure_enumeration,
    binomial_far_tail,
    bracket_expansions,
    committee_sizes,
    criterion9_split_deltas,
    curvature_at_tilt,
    hypergeometric_failure_table,
    hypergeometric_marginal_log_pmf_alternate,
    partitions_up_to,
    scan_largest_committee_count,
)
from shardrisk import simulate
from shardrisk.cli import main as cli_main
from shardrisk.failure import (
    FailureQuery,
    delta_exact_binomial,
    delta_exact_hypergeometric,
    theorem1_bounds,
    union_bound_fixed_sizes,
)
from shardrisk.partitions import (
    AverageAdversary,
    CommitteeLayout,
    ExactAdversary,
    hypergeometric_marginal_log_pmf,
    layout_from_split,
)
from shardrisk.probcore import kl_divergence
from shardrisk.saddle import (
    delta_asymptotic,
    solve_saddle,
    truncated_binomial_summary,
)
from shardrisk.simulate import SimulationPlan, estimate_delta
from shardrisk.sizing import (
    max_committees,
    min_committee_size,
    size_bracket,
)

THIRD = Fraction(1, 3)
HALF = Fraction(1, 2)
FULL_RUN = os.environ.get("SHARDRISK_ACCEPTANCE_FULL") == "1"
MC_SAMPLES = 1_000_000 if FULL_RUN else 100_000


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


# shared exact references for the Figure-3/4 grids, computed once
_DP_CACHE: dict = {}


def dp_reference(total_nodes: int, committees: int):
    key = (total_nodes, committees)
    if key not in _DP_CACHE:
        layout = layout_from_split(total_nodes, committees)
        query = FailureQuery(layout, ExactAdversary(total_nodes // 4), THIRD)
        _DP_CACHE[key] = delta_exact_hypergeometric(query)
    return _DP_CACHE[key]


def binom_reference(total_nodes: int, committees: int):
    layout = layout_from_split(total_nodes, committees)
    return delta_exact_binomial(
        FailureQuery(layout, AverageAdversary(0.25), THIRD)
    )


def test_c01_small_instance_oracle_equivalence():
    worst_hyper = 0.0
    worst_binom = 0.0
    for sizes in partitions_up_to(12):
        layout = CommitteeLayout(sizes)
        n = layout.total
        for threshold in (THIRD, HALF):
            fail, _ = hypergeometric_failure_table(sizes, threshold)
            for m in range(n + 1):
                expected = fail[m] / math.comb(n, m)
                got = delta_exact_hypergeometric(
                    FailureQuery(layout, ExactAdversary(m), threshold)
                ).delta
                worst_hyper = max(worst_hyper, abs(got - expected))
            for rate in (0.25, 0.6):
                expected = binomial_failure_enumeration(sizes, rate, threshold)
                got = delta_exact_binomial(
                    FailureQuery(layout, AverageAdversary(rate), threshold)
                ).delta
                worst_binom = max(worst_binom, abs(got - expected))
    ok = worst_hyper <= 1e-10 and worst_binom <= 1e-10
    assert report(
        "1",
        ok,
        f"N<=12 enumeration: max |dp-oracle|={worst_hyper:.2e}, "
        f"max |binomial-oracle|={worst_binom:.2e} (tolerance 1e-10)",
    )


def test_c02_normalisation_and_marginal_forms():
    # joint pmf normalisation: the enumeration totals must equal C(N, m)
    normalisation_ok = True
    for sizes in partitions_up_to(12):
        n = sum(sizes)
        _, total = hypergeometric_failure_table(sizes, THIRD)
        if any(total[m] != math.comb(n, m) for m in range(n + 1)):
            normalisation_ok = False
    # the two closed forms of the univariate marginal agree
    worst = 0.0
    for sizes in partitions_up_to(12):
        n = sum(sizes)
        for m in range(n + 1):
            for j in range(max(0, m - (n - sizes[0])), min(sizes[0], m) + 1):
                a = hypergeometric_marginal_log_pmf(j, sizes[0], n, m)
                b = hypergeometric_marginal_log_pmf_alternate(j, sizes[0], n, m)
                worst = max(worst, abs(a - b))
    rng = np.random.default_rng(2024)
    for _ in range(200):
        total = int(rng.integers(13, 201))  # the module contract's grid range
        size = int(rng.integers(1, total))
        m = int(rng.integers(0, total))
        lo, hi = max(0, m - (total - size)), min(size, m)
        j = int(rng.integers(lo, hi + 1))
        a = hypergeometric_marginal_log_pmf(j, size, total, m)
        b = hypergeometric_marginal_log_pmf_alternate(j, size, total, m)
        worst = max(worst, abs(a - b))
    ok = normalisation_ok and worst <= 1e-12
    assert report(
        "2",
        ok,
        f"normalisation exact on all N<=12 instances; marginal forms agree "
        f"within {worst:.2e} (tolerance 1e-12)",
    )


def _sandwich_grid():
    for n in range(10, 201, 10):
        for k in range(1, 51):
            for rate in (0.1, 0.25):
                yield n, k, rate


def test_c03_sandwich_bounds():
    violations = []
    for n, k, rate in _sandwich_grid():
        query = FailureQuery(CommitteeLayout((n,) * k), AverageAdversary(rate), THIRD)
        lower, ash, ferrante = theorem1_bounds(query)
        assert lower.precondition_ok  # grid chosen inside the validity region
        exact = delta_exact_binomial(query)
        slack = 1e-9  # log-domain slack, ~1e-9 relative on linear values
        chain = (
            lower.raw_log_delta <= exact.log_delta + slack
            and exact.log_delta <= ferrante.raw_log_delta + slack
            and ferrante.raw_log_delta <= ash.raw_log_delta + slack
        )
        if not chain:
            violations.append((n, k, rate))
    assert report(
        "3",
        not violations,
        f"lower <= exact <= ferrante <= ash on 2000-point grid, "
        f"{len(violations)} violations",
    )


def test_c04_union_bound_ordering():
    violations = []
    for n, k, rate in _sandwich_grid():
        query = FailureQuery(CommitteeLayout((n,) * k), AverageAdversary(rate), THIRD)
        _, ash, _ = theorem1_bounds(query)
        fixed = union_bound_fixed_sizes(query)
        if ash.raw_log_delta > fixed.raw_log_delta + 1e-12:
            violations.append((n, k, rate))
    assert report(
        "4",
        not violations,
        f"product-form bound <= union bound before clamping on the same grid, "
        f"{len(violations)} violations",
    )


#: P(Z > 5).  A Monte Carlo count is flagged when its far-side exact tail is
#: below this, so the two-sided level is 5.7e-7, that of |z| > 5 under a
#: normal law, whatever the expected count.
C05_ALPHA = math.erfc(5 / math.sqrt(2)) / 2


@dataclass(frozen=True)
class Figure3Point:
    """One Monte Carlo point of Figure 3 next to the exact law of its count."""

    model: str
    committees: int
    failures: int
    expected: float  # samples x exact delta
    tail: float  # exact far-side tail of the count
    z: float  # |delta_hat - delta| in standard errors, the former criterion

    @property
    def flagged(self) -> bool:
        return self.tail < C05_ALPHA

    def __str__(self) -> str:
        return (f"{self.model} K={self.committees}: {self.failures} failures, "
                f"{self.expected:.6g} expected, far tail {self.tail:.3g}, "
                f"z {self.z:.2f}")


def figure3_point(model: str, committees: int, samples: int) -> Figure3Point:
    """Simulate K = ``committees`` of Figure 3 (N = 1000, P = 1/4, threshold
    1/3) under ``model``, "average" (seed 20,000 + K) or "exact" (exactly
    M = 250, seed 40,000 + K), and judge the failure count by its law
    Bin(samples, delta), delta from that model's exact evaluator."""
    layout = layout_from_split(1000, committees)
    if model == "average":
        exact = binom_reference(1000, committees)
        adversary, seed = AverageAdversary(0.25), 20_000 + committees
    else:
        exact = dp_reference(1000, committees)
        adversary, seed = ExactAdversary(250), 40_000 + committees
    est = estimate_delta(SimulationPlan(FailureQuery(layout, adversary, THIRD),
                                        samples=samples, seed=seed))
    se = math.sqrt(max(exact.delta * (1 - exact.delta), 1e-300) / samples)
    z = abs(est.delta_hat - exact.delta) / se
    tail = binomial_far_tail(est.failures, samples, exact.log_delta, exact.log_survival)
    return Figure3Point(model, committees, est.failures, samples * exact.delta, tail, z)


def test_c05_figure3_monte_carlo():
    models = ("average", "exact")
    points = [figure3_point(model, k, MC_SAMPLES) for k in range(2, 101) for model in models]
    offenders = [p for p in points if p.flagged]
    smallest = {model: min(p.tail for p in points if p.model == model) for model in models}
    worst_z = {model: max(p.z for p in points if p.model == model) for model in models}
    assert report(
        "5",
        not offenders,
        f"{MC_SAMPLES} samples per point, K=2..100: smallest far-side exact "
        f"tail (average)={smallest['average']:.3g}, (exact)={smallest['exact']:.3g}, "
        f"limit P(Z>5)={C05_ALPHA:.3g}; worst z (average)={worst_z['average']:.2f}, "
        f"(exact)={worst_z['exact']:.2f}; offenders: "
        + ("; ".join(map(str, offenders)) or "none"),
    )


def test_c05_flags_a_sampler_without_multiplicity(monkeypatch):
    # each group's survival c, not c^m: too few failures wherever m > 1
    def survival_without_multiplicity(query):
        rate = simulate._require_average(query)
        return np.array([math.inf if cap >= size else
                         math.exp(simulate.binomial_tail_and_cdf(size, rate, cap)[0])
                         for size, _, cap in query.layout.allowances(query.threshold)])

    monkeypatch.setattr(simulate, "_group_survival", survival_without_multiplicity)
    points = [figure3_point("average", k, 100_000) for k in (4, 10, 40)]
    assert all(p.flagged for p in points), "; ".join(map(str, points))


def test_c06a_asymptotic_error_decays_with_network_size():
    improved = []
    for k3 in range(10, 101, 10):
        e3 = _asymptotic_rel_error(1000, k3)
        e4 = _asymptotic_rel_error(10_000, 10 * k3)
        improved.append(e4 < e3)
    assert report(
        "6a",
        all(improved),
        f"matched K/N pairs (N=1e3 vs 1e4): error strictly smaller at the "
        f"larger network in {sum(improved)}/10 pairs",
    )


def _asymptotic_rel_error(total_nodes: int, committees: int) -> float:
    exact = dp_reference(total_nodes, committees)
    asym = delta_asymptotic(
        layout_from_split(total_nodes, committees), total_nodes // 4, THIRD
    )
    return abs(asym.log_survival - exact.log_survival) / abs(exact.log_survival)


def test_c06b_figure4_asymptotic_five_percent():
    errors = {k: _asymptotic_rel_error(10_000, k) for k in range(10, 101)}
    offenders = {k: e for k, e in errors.items() if e >= 0.05}
    ok = not offenders
    assert report(
        "6b",
        ok,
        f"N=1e4 relative log-survival error < 5% for K=10..100: "
        f"{len(offenders)} offenders "
        f"(K={sorted(offenders)[:6]}{'...' if len(offenders) > 6 else ''}; "
        f"the leading-order estimate clamps to survival 1 in the extreme "
        f"tail, passes for K>=25)",
    )


def test_c07_binomial_dominates_hypergeometric():
    violations = []
    for total in (1000, 10_000):
        for k in range(2, 101):
            binom = binom_reference(total, k)
            hyper = dp_reference(total, k)
            if binom.delta < hyper.delta - 1e-12:
                violations.append((total, k, binom.delta, hyper.delta))
    detail = (
        f"claimed ordering holds at {198 - len(violations)}/198 grid points; "
        f"{len(violations)} violations, first: "
        f"{violations[0] if violations else None} (the reversal is exact, "
        f"not numerical: see the (4,4,4,4)/M=4 enumeration)"
    )
    assert report("7", not violations, detail)


def test_c08_figure2_bracket():
    ok = True
    details = []
    for k in (1, 10, 100, 1000):
        bracket = size_bracket(k, 1e-3, THIRD, 0.25)
        solved = min_committee_size(k, 1e-3, THIRD, 0.25)
        inside = bracket.lower <= solved <= bracket.upper
        ok = ok and inside
        details.append(f"K={k}: {bracket.lower:.1f} <= {solved} <= {bracket.upper:.1f}")
        if k == 1:
            ok = ok and solved <= 398
    assert report("8", ok, "; ".join(details) + "; K=1 solved <= 398")


def test_c09_sizing_matches_scan_oracle():
    # delta(N, K) tables are independent of the target, so build them once
    mismatches = []
    for rate in (0.1, 0.25):
        table = criterion9_split_deltas(rate)
        for target in (0.5, 0.1, 1e-3):
            for total in range(1, 501):
                got = max_committees(total, target, THIRD, rate).committees
                expected = scan_largest_committee_count(
                    total, lambda k: table[(total, k)], target
                )
                if got != expected:
                    mismatches.append((total, target, rate, got, expected))
    assert report(
        "9",
        not mismatches,
        f"largest-feasible-K solver vs scan oracle, N<=500 x 3 targets x "
        f"2 rates: {len(mismatches)} mismatches",
    )


def test_c10_saddle_internals():
    # variance identity for the uncapped family
    identity_ok = True
    for sizes, rate in [((10,) * 7, 0.25), ((33, 34, 41), 0.4), ((200,) * 3, 0.1)]:
        total = sum(sizes)
        var = sum(
            truncated_binomial_summary(s, rate, 1.0).variance for s in sizes
        )
        if abs(var - total * rate * (1 - rate)) > 1e-10 * total * rate * (1 - rate):
            identity_ok = False
    # prefactor forms across a 100-point grid, plus residuals
    rng = np.random.default_rng(5)
    worst_prefactor = 0.0
    worst_residual = 0.0
    checked = 0
    while checked < 100:
        k = int(rng.integers(1, 12))
        size = int(rng.integers(5, 200))
        layout = CommitteeLayout((size,) * k)
        rate = float(rng.uniform(0.04, 0.3))
        threshold = THIRD if rng.random() < 0.5 else Fraction(2, 5)
        allowance = sum(math.floor(s * threshold) for s in committee_sizes(layout))
        if rate >= allowance / layout.total:
            continue
        solution = solve_saddle(layout, rate, threshold)
        worst_residual = max(worst_residual, abs(solution.mean_residual))
        direct = math.sqrt(
            layout.total * rate * (1 - rate) / solution.variance_sum
        )
        z0 = solution.tilt / (1 - solution.tilt)
        z1 = rate / (1 - rate)
        alt = (z1 / z0) * math.sqrt(
            ((1 - rate) ** 3 / rate)
            / curvature_at_tilt(layout, solution.tilt, rate, threshold)
        )
        worst_prefactor = max(worst_prefactor, abs(direct - alt) / direct)
        checked += 1
    ok = identity_ok and worst_prefactor <= 1e-10 and worst_residual <= 1e-12
    assert report(
        "10",
        ok,
        f"variance identity 1e-10 ok={identity_ok}; prefactor forms differ by "
        f"{worst_prefactor:.2e} (tol 1e-10); worst saddle residual "
        f"{worst_residual:.2e} (tol 1e-12)",
    )


def test_c11_series_expansions():
    def exact(delta, k):
        return -math.log(-math.expm1(math.log1p(-delta) / k))

    large_k, _ = bracket_expansions(0.5, 10 ** 6)
    rel_large = abs(large_k - exact(0.5, 10 ** 6)) / abs(exact(0.5, 10 ** 6))
    _, small_d = bracket_expansions(1e-8, 10)
    rel_small = abs(small_d - exact(1e-8, 10)) / abs(exact(1e-8, 10))
    ok = rel_large < 1e-10 and rel_small < 1e-6
    assert report(
        "11",
        ok,
        f"large-K series rel err {rel_large:.2e} (tol 1e-10); small-target "
        f"series rel err {rel_small:.2e} (tol 1e-6)",
    )


def test_c12_determinism_across_workers(tmp_path):
    outputs = []
    for workers in ("1", "6"):
        path = tmp_path / f"sweep_{workers}.csv"
        code = cli_main([
            "sweep", "--mode", "sweep-k", "--nodes", "300", "--k-range", "2:12",
            "--threshold", "1/3", "--adversary-frac", "1/4",
            "--methods", "exact-binomial,monte-carlo-average,monte-carlo-exact",
            "--samples", "50000", "--seed", "99", "--workers", workers,
            "--output", str(path),
        ])
        assert code == 0
        outputs.append(path.read_bytes())
    sweep_ok = outputs[0] == outputs[1]
    sim_outputs = []
    for workers in ("1", "7"):
        path = tmp_path / f"sim_{workers}.csv"
        code = cli_main([
            "simulate", "--layout", "40,40,40", "--adversary-count", "30",
            "--threshold", "1/3", "--samples", "131072", "--seed", "4242",
            "--workers", workers, "--output", str(path),
        ])
        assert code == 0
        sim_outputs.append(path.read_bytes())
    sim_ok = sim_outputs[0] == sim_outputs[1]
    assert report(
        "12",
        sweep_ok and sim_ok,
        f"sweep byte-identical across workers={sweep_ok}, "
        f"simulate byte-identical across workers={sim_ok}",
    )
