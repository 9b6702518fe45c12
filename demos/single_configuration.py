"""One network, every evaluator.

A 1000-node network split into 20 committees, a quarter of the nodes
adversarial, and a per-committee tolerance of one third: compute the exact
failure probability under both adversary models, every analytic bound, the
saddle-point estimate, and a seeded Monte Carlo check.
"""

from fractions import Fraction

from shardrisk import (
    AverageAdversary,
    ExactAdversary,
    FailureQuery,
    SimulationPlan,
    delta_asymptotic,
    delta_exact_binomial,
    delta_exact_hypergeometric,
    estimate_delta,
    layout_from_split,
    theorem1_bounds,
    union_bound_fixed_sizes,
    union_bound_hypergeometric,
)

NODES = 1000
COMMITTEES = 20
RATE = 0.25
ADVERSARIES = 250
THRESHOLD = Fraction(1, 3)


def show(result):
    flags = []
    if result.clamped:
        flags.append("clamped")
    if not result.precondition_ok:
        flags.append("precondition violated")
    note = f"  [{', '.join(flags)}]" if flags else ""
    print(f"  {result.method:<24} delta = {result.delta:.6g}{note}")


def main() -> None:
    layout = layout_from_split(NODES, COMMITTEES)
    print(f"{NODES} nodes, {COMMITTEES} committees of sizes "
          f"{layout.runs[0][0]}..{layout.runs[-1][0]}, tolerance {THRESHOLD}")

    print("\nAdversaries appear independently at rate", RATE)
    avg_query = FailureQuery(layout, AverageAdversary(RATE), THRESHOLD)
    show(delta_exact_binomial(avg_query))
    lower, ash, ferrante = theorem1_bounds(avg_query)
    show(lower)
    show(ferrante)
    show(ash)
    show(union_bound_fixed_sizes(avg_query))

    print(f"\nExactly {ADVERSARIES} adversarial nodes")
    exact_query = FailureQuery(layout, ExactAdversary(ADVERSARIES), THRESHOLD)
    show(delta_exact_hypergeometric(exact_query))
    show(delta_asymptotic(layout, ADVERSARIES, THRESHOLD))
    tail_sum, hoeffding = union_bound_hypergeometric(exact_query)
    show(tail_sum)
    show(hoeffding)

    print("\nMonte Carlo cross-checks (200000 samples, seed 7)")
    for query, label in ((avg_query, "average-rate"), (exact_query, "exactly-M")):
        estimate = estimate_delta(SimulationPlan(query, samples=200_000, seed=7))
        print(f"  {label:<24} delta_hat = {estimate.delta_hat:.6g} "
              f"+- {estimate.std_error:.2g} "
              f"(95% CI {estimate.ci95[0]:.6g}..{estimate.ci95[1]:.6g})")


if __name__ == "__main__":
    main()
