import math
from fractions import Fraction

import numpy as np
import pytest

import shardrisk.failure
import shardrisk.saddle
from oracles import bisection_saddle, committee_sizes, curvature_at_tilt
from shardrisk.failure import FailureQuery, delta_exact_hypergeometric
from shardrisk.partitions import CommitteeLayout, ExactAdversary, layout_from_split
from shardrisk.saddle import (
    delta_asymptotic,
    solve_saddle,
    truncated_binomial_summary,
)

THIRD = Fraction(1, 3)


class TestTruncatedBinomialSummary:
    def test_uncapped_moments(self):
        for n, q in [(7, 0.3), (40, 0.65)]:
            summary = truncated_binomial_summary(n, q, 1.0)
            assert summary.log_mass == pytest.approx(0.0, abs=1e-12)
            assert summary.mean == pytest.approx(n * q, rel=1e-12)
            expected_second = n * q * (1 - q) + (n * q) ** 2
            assert summary.second_moment == pytest.approx(expected_second, rel=1e-12)

    def test_two_node_committee(self):
        summary = truncated_binomial_summary(2, 0.5, 0.5)
        assert math.exp(summary.log_mass) == pytest.approx(0.75, abs=1e-13)
        assert summary.mean == pytest.approx(2 / 3, abs=1e-13)

    def test_five_node_committee(self):
        summary = truncated_binomial_summary(5, 0.25, THIRD)
        assert math.exp(summary.log_mass) == pytest.approx(0.6328125, abs=1e-13)
        assert summary.mean == pytest.approx(0.625, abs=1e-13)

    def test_mean_strictly_increasing_in_tilt(self):
        for n, a in [(10, THIRD), (33, THIRD), (20, Fraction(1, 2))]:
            grid = np.linspace(0.02, 0.98, 40)
            means = [truncated_binomial_summary(n, q, a).mean for q in grid]
            assert all(x < y for x, y in zip(means, means[1:]))

    def test_mean_capped_by_allowance(self):
        # average capped count stays at or below the average allowance,
        # which itself is at most the threshold fraction
        layout = CommitteeLayout((10, 11, 37))
        for q in (0.1, 0.5, 0.9):
            mean_total = sum(
                truncated_binomial_summary(s, q, THIRD).mean for s in (10, 11, 37)
            )
            allowance = sum(math.floor(s / 3) for s in (10, 11, 37))
            assert mean_total <= allowance + 1e-12
            assert allowance / layout.total <= 1 / 3 + 1e-12

    def test_rejects_degenerate_tilt(self):
        with pytest.raises(ValueError):
            truncated_binomial_summary(5, 0.0, 0.5)
        with pytest.raises(ValueError):
            truncated_binomial_summary(5, 1.0, 0.5)


class TestSolveSaddle:
    def test_uncapped_closed_form(self):
        solution = solve_saddle(CommitteeLayout((10, 20, 30)), 0.25, 1.0)
        assert solution.tilt == 0.25
        assert solution.psi == 0.0
        assert solution.variance_sum == pytest.approx(60 * 0.25 * 0.75, rel=1e-12)
        assert solution.converged

    def test_matches_brute_force_scan(self):
        layout = CommitteeLayout((5, 5))
        rate = 0.15
        solution = solve_saddle(layout, rate, THIRD)

        def mean_fraction(q):
            return sum(
                truncated_binomial_summary(s, q, THIRD).mean for s in (5, 5)
            ) / layout.total

        # two-stage scan standing in for a flat 1e-6 grid (the mean is
        # strictly increasing, so refinement around the coarse argmin is safe)
        coarse = np.arange(1e-3, 1.0, 1e-3)
        best = min(coarse, key=lambda q: abs(mean_fraction(q) - rate))
        fine = np.arange(max(best - 2e-3, 1e-6), min(best + 2e-3, 1 - 1e-6), 1e-6)
        best = min(fine, key=lambda q: abs(mean_fraction(q) - rate))
        assert solution.tilt == pytest.approx(best, abs=2e-6)
        assert abs(solution.mean_residual) <= 1e-12

    def test_mixed_sizes_residual(self):
        solution = solve_saddle(CommitteeLayout((3, 4)), 0.1, THIRD)
        assert abs(solution.mean_residual) <= 1e-12
        assert solution.converged

    def test_boundary_rate_solvable_at_tolerance(self):
        # rate equal to the average allowance: the tilt runs to the bracket
        # edge but the residual still meets tolerance
        solution = solve_saddle(CommitteeLayout((5, 5)), 0.2, THIRD)
        assert solution.converged
        assert solution.tilt > 0.999

    def test_rate_above_threshold_rejected(self):
        with pytest.raises(ValueError):
            solve_saddle(CommitteeLayout((30, 30)), 0.5, THIRD)

    def test_rate_above_allowance_rejected(self):
        # floor(2/3) = 0: no adversary mass can be absorbed at all
        with pytest.raises(ValueError):
            solve_saddle(CommitteeLayout((2, 2)), 0.1, THIRD)

    def test_degenerate_rates_rejected(self):
        with pytest.raises(ValueError):
            solve_saddle(CommitteeLayout((10,)), 0.0, THIRD)
        with pytest.raises(ValueError):
            solve_saddle(CommitteeLayout((10,)), 1.0, THIRD)


class TestVarianceAndPrefactor:
    def test_variance_identity_uncapped(self):
        for sizes, rate in [((10, 20), 0.25), ((7,) * 11, 0.4)]:
            layout = CommitteeLayout(sizes)
            total = 0.0
            for s in sizes:
                summary = truncated_binomial_summary(s, rate, 1.0)
                total += summary.second_moment - summary.mean ** 2
            expected = layout.total * rate * (1 - rate)
            assert total == pytest.approx(expected, rel=1e-10)

    def test_prefactor_forms_agree(self):
        # sqrt(N P (1-P) / sum Var) versus the curvature route
        # (z1 / z0) * sqrt(psi''_uncapped / psi''_capped)
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            k = int(rng.integers(1, 8))
            size = int(rng.integers(6, 120))
            layout = CommitteeLayout((size,) * k)
            rate = float(rng.uniform(0.05, 0.28))
            threshold = THIRD if rng.random() < 0.5 else Fraction(2, 5)
            allowance = sum(math.floor(s * threshold) for s in committee_sizes(layout))
            if rate >= allowance / layout.total:
                continue
            solution = solve_saddle(layout, rate, threshold)
            n_total = layout.total
            direct = math.sqrt(n_total * rate * (1 - rate) / solution.variance_sum)
            z0 = solution.tilt / (1 - solution.tilt)
            z1 = rate / (1 - rate)
            curv_capped = curvature_at_tilt(layout, solution.tilt, rate, threshold)
            curv_uncapped = (1 - rate) ** 3 / rate
            alt = (z1 / z0) * math.sqrt(curv_uncapped / curv_capped)
            assert direct == pytest.approx(alt, rel=1e-10)
            checked += 1


class TestDeltaAsymptotic:
    def test_threshold_one_never_fails(self):
        result = delta_asymptotic(CommitteeLayout((10, 10)), 5, 1.0)
        assert result.delta == 0.0
        assert result.log_survival == 0.0

    def test_small_instance_stays_in_range(self):
        result = delta_asymptotic(CommitteeLayout((5, 5)), 2, Fraction(1, 2))
        exact = delta_exact_hypergeometric(
            FailureQuery(CommitteeLayout((5, 5)), ExactAdversary(2), Fraction(1, 2))
        )
        assert 0.0 <= result.delta <= 1.0
        # small-committee regime carries no accuracy promise; just record it
        print(f"small-N asymptotic abs error: {abs(result.delta - exact.delta):.4f}")

    def test_large_instance_matches_dp(self):
        layout = CommitteeLayout((100,) * 100)
        asym = delta_asymptotic(layout, 2500, THIRD)
        exact = delta_exact_hypergeometric(
            FailureQuery(layout, ExactAdversary(2500), THIRD)
        )
        rel = abs(asym.log_survival - exact.log_survival) / abs(exact.log_survival)
        assert rel < 0.05

    def test_error_shrinks_with_network_size(self):
        # fixed committee-count ratio K/N = 0.02, threshold 1/3, rate 1/4
        errors = []
        for n_total in (100, 1000, 10000):
            k = n_total // 50
            layout = layout_from_split(n_total, k)
            m = n_total // 4
            asym = delta_asymptotic(layout, m, THIRD)
            exact = delta_exact_hypergeometric(
                FailureQuery(layout, ExactAdversary(m), THIRD)
            )
            errors.append(
                abs(asym.log_survival - exact.log_survival) / abs(exact.log_survival)
            )
        assert errors[0] > errors[1] > errors[2]

    def test_exact_edges(self):
        # allowance 20: no adversary cannot fail, and more than 20 must fail
        layout = CommitteeLayout((30, 30))
        for m, want in [(0, 0.0), (25, 1.0), (60, 1.0)]:
            exact = delta_exact_hypergeometric(
                FailureQuery(layout, ExactAdversary(m), THIRD))
            assert delta_asymptotic(layout, m, THIRD).delta == exact.delta == want
        for m in (-1, 61):
            with pytest.raises(ValueError):
                delta_asymptotic(layout, m, THIRD)
        with pytest.raises(ValueError, match="no tilt exists"):
            solve_saddle(layout, Fraction(25, 60), THIRD)  # M/N > A


def _newton_grid():
    """(layout, M) pairs: splits at N = 60..3e5, K = 2..1000, P in {1/10, 1/4,
    3/10}, plus layouts of several runs; counts at or above the allowance
    (no tilt, or the closed form) are left out."""
    layouts = [layout_from_split(n, k)
               for n in (60, 300, 1000, 3000, 10**4, 3 * 10**4, 10**5, 3 * 10**5)
               for k in (2, 5, 20, 100, 300, 1000) if 3 * k <= n]
    layouts += [CommitteeLayout.from_runs(runs) for runs in (
        ((37, 3), (101, 2), (250, 4)), ((5, 7), (60, 1), (9, 30)),
        ((1000, 2), (999, 5), (3, 100)), ((12, 40), (400, 3)))]
    for layout in layouts:
        allowance = sum(mult * (size // 3) for size, mult in layout.runs)
        for rate in (Fraction(1, 10), Fraction(1, 4), Fraction(3, 10)):
            m = round(rate * layout.total)
            if 0 < m < allowance:
                yield layout, m


class TestNewtonSolve:
    def test_matches_bisection_oracle(self):
        checked = 0
        for layout, m in _newton_grid():
            p = m / layout.total
            tilt, log_survival = bisection_saddle(layout, p, THIRD)
            want = min(log_survival, 0.0)
            got = delta_asymptotic(layout, m, THIRD).log_survival
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (layout.runs, m)
            assert solve_saddle(layout, p, THIRD).tilt == pytest.approx(tilt, rel=1e-9)
            checked += 1
        assert checked > 100

    def test_few_moment_evaluations_per_solve(self, monkeypatch):
        # bisection takes about 36; a return to it fails here
        calls = []
        real = shardrisk.failure._tilt_moments

        def counted(groups, u):
            calls.append(u)
            return real(groups, u)

        monkeypatch.setattr(shardrisk.failure, "_tilt_moments", counted)
        monkeypatch.setattr(shardrisk.saddle, "_tilt_moments", counted)
        for layout, m in _newton_grid():
            calls.clear()
            assert solve_saddle(layout, m / layout.total, THIRD).converged
            assert 0 < len(calls) <= 12, (layout.runs, m, len(calls))


class TestAllowanceBoundary:
    # at M = sum_mu m_mu cap_mu every committee holds exactly its allowed count
    def test_small_layout_matches_big_integers(self):
        result = delta_asymptotic(CommitteeLayout((5, 3, 5, 5)), 4, THIRD)
        survival = Fraction(5 * 3 * 5 * 5, math.comb(18, 4))
        assert result.delta == pytest.approx(float(1 - survival), rel=1e-13)
        assert result.log_survival == pytest.approx(math.log(survival), rel=1e-13)
        assert not result.clamped and result.warnings == ()

    def test_thousand_nodes_matches_big_integers(self):
        result = delta_asymptotic(layout_from_split(1000, 50), 300, THIRD)
        want = 50 * math.log(math.comb(20, 6)) - math.log(math.comb(1000, 300))
        assert want == pytest.approx(-79.014, abs=1e-3)
        assert result.log_survival == pytest.approx(want, rel=1e-12)
        assert result.delta == 1.0 and result.log_delta == pytest.approx(-math.exp(want))
