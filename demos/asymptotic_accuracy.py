"""How good is the saddle-point estimate, and where does it break?

Compares the leading-order saddle-point survival estimate against the
exact value on growing networks.  Two regimes emerge:
at matched committee-count ratios the relative log-survival error shrinks
roughly like 1/N, but in the extreme-tail corner (few, large committees)
the dropped O(1/N) correction swamps the microscopic true value and the
estimate clamps to survival 1.
"""

from fractions import Fraction

from shardrisk import (
    ExactAdversary,
    FailureQuery,
    delta_asymptotic,
    delta_exact_hypergeometric,
    layout_from_split,
)

THRESHOLD = Fraction(1, 3)


def rel_log_survival_error(nodes: int, committees: int) -> tuple[float, float, float]:
    layout = layout_from_split(nodes, committees)
    adversaries = nodes // 4
    exact = delta_exact_hypergeometric(
        FailureQuery(layout, ExactAdversary(adversaries), THRESHOLD)
    )
    asym = delta_asymptotic(layout, adversaries, THRESHOLD)
    err = abs(asym.log_survival - exact.log_survival) / abs(exact.log_survival)
    return exact.delta, asym.delta, err


def main() -> None:
    print("matched committee ratio K = N/100, adversary rate 1/4, tolerance 1/3")
    print(f"{'N':>7} {'K':>5} {'exact delta':>12} {'asymptotic':>12} "
          f"{'rel err of log-survival':>24}")
    for nodes in (1000, 2000, 5000, 10_000, 20_000):
        k = nodes // 100
        exact, asym, err = rel_log_survival_error(nodes, k)
        print(f"{nodes:>7} {k:>5} {exact:>12.5g} {asym:>12.5g} {err:>24.2e}")

    print("\nfixed N = 10000, sweeping into the extreme tail (smaller K)")
    print(f"{'K':>5} {'exact delta':>12} {'asymptotic':>12} "
          f"{'rel err of log-survival':>24}")
    for k in (100, 60, 40, 30, 25, 20, 15, 12, 10):
        exact, asym, err = rel_log_survival_error(10_000, k)
        print(f"{k:>5} {exact:>12.5g} {asym:>12.5g} {err:>24.2e}")
    print("\nbelow roughly K=25 the true failure probability drops under ~1e-3")
    print("and the leading-order estimate loses it entirely; use the exact")
    print("evaluator there (it stays exact at every network size)")


if __name__ == "__main__":
    main()
