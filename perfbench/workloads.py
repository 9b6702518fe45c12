"""Seeded query lists for the three benchmark workloads.

A query list is a pure function of (workload, seed, rounds).  Every query
is a shardrisk CLI argv plus the key of its exact reference in refs.json,
which ``make_refs.py`` computes for every key the lists can hold.

Each round follows a fixed design: the parameters that set a query's cost
(N, K, P, the decade of delta, the method list) come from the slot tables
below and cover each workload's region.  The seed draws only what leaves
the cost nearly unchanged (delta of max_committees queries, the mantissa
of other deltas, P of bounds queries, the asymptotic queries, Monte Carlo
seeds), so the cost of a list hardly depends on the seed while every seed
gives different argv lists.
"""

from __future__ import annotations

import random
from fractions import Fraction

THRESHOLD = "1/3"
RATES = ("1/10", "1/4")
DELTAS = tuple(f"{m}e-{e}" for e in range(9, 0, -1) for m in (1, 2, 5))[:-2]

# sizing: N in [200, 3000], K in [2, 1000], delta in [1e-9, 1e-1]
# most networks near 1000 nodes, so that max_committees queries of similar
# cost form the latency tail; the ends of the range once per round
MAXK_SLOTS = (250, 900, 1000, 1100, 1200, 2900)
# (K, P, decade of delta)
AVG_SLOTS = ((2, "1/4", 9), (5, "1/10", 6), (10, "1/4", 3), (20, "1/10", 8),
             (50, "1/4", 5), (120, "1/10", 2), (300, "1/4", 7),
             (1000, "1/10", 4))
# P = 1/4 stays at delta >= 1e-4, where one exactly-M scan takes under 1 s
EXACT_SLOTS = ((2, "1/4", 3), (3, "1/10", 9), (4, "1/4", 2), (5, "1/10", 7),
               (6, "1/4", 4), (7, "1/10", 5), (8, "1/4", 1), (9, "1/10", 3),
               (10, "1/4", 3), (11, "1/10", 8), (12, "1/4", 2),
               (14, "1/10", 6), (15, "1/4", 4), (16, "1/10", 1),
               (18, "1/4", 1), (20, "1/10", 9))
# (K range, P, decade); one per round, in turn
SWEEP_N_SLOTS = (("2:8:3", "1/4", 3), ("3:12:3", "1/10", 2),
                 ("4:20:8", "1/10", 1), ("5:15:5", "1/4", 2))
SWEEP_N_METHODS = "exact-binomial,exact-hypergeometric,asymptotic,bracket"
DELTA_MANTISSAS = (1, 2)
AVG_SIZING_KS = tuple(sorted({k for k, _, _ in AVG_SLOTS} | set(range(2, 21))))
EXACT_SIZING_KS = tuple(range(2, 21))
EXACT_SIZING_DELTAS = {
    "1/10": DELTAS,
    "1/4": tuple(d for d in DELTAS if float(d) >= 1e-4),
}

# exact_m
M_NODES = (1000, 1500, 2000, 3000, 5000, 7500, 10000, 15000, 20000, 30000)
M_KS = (2, 3, 5, 8, 10, 14, 20, 30, 50, 70, 100, 200, 400, 700, 1000)
SWEEP_K_RANGES = ("2:8:3", "10:30:10", "30:70:20", "100:700:300")
DELTA_METHOD_SETS = (
    "exact-hypergeometric,asymptotic,union-hyper-exact",
    "exact-hypergeometric,union-hyper-hoeffding,union-fixed",
    "exact-hypergeometric,theorem1-lower,theorem1-upper-ash,theorem1-upper-ferrante",
    "exact-hypergeometric,exact-binomial,asymptotic",
)
SWEEP_K_METHODS = (
    "exact-hypergeometric,asymptotic,union-hyper-exact,union-hyper-hoeffding,"
    "theorem1-lower,theorem1-upper-ash,theorem1-upper-ferrante,union-fixed")

# monte_carlo: (name, committee size, committee count)
MC_LAYOUTS = (("20x50", 50, 20), ("1000x10", 10, 1000))
MC_CHUNK = 32768
# (layout, model) -> sample counts; one chunk and several, except the
# exactly-M 1000x10 plan, whose multi-chunk run alone would take 15 s
MC_SAMPLES = {
    ("20x50", "average"): (MC_CHUNK, 3 * MC_CHUNK),
    ("20x50", "exact"): (MC_CHUNK, 3 * MC_CHUNK),
    ("1000x10", "average"): (MC_CHUNK // 2, MC_CHUNK + MC_CHUNK // 4),
    ("1000x10", "exact"): (MC_CHUNK // 4,),
}
SPOT_CHECK_SAMPLES = 2 * MC_CHUNK

# Known-defect probes, present in every seed's list.
DEFECT_PROBES = {
    "sizing": [
        ("1b", ["size", "--delta", "1e-3", "--threshold", THRESHOLD,
                "--adversary-frac", "1/4", "--min-n-for-K", "2",
                "--model", "exact"],
         ("min_n", "exact", 2, "1/4", "1e-3")),
    ],
    "exact_m": [
        ("1a", ["delta", "--nodes", "3000", "--committees", "3",
                "--adversary-frac", "1/4", "--threshold", THRESHOLD,
                "--method", "exact-hypergeometric"],
         ("delta", 3000, 3, "1/4")),
        ("1c", ["bounds", "--nodes", "10000", "--committees", "100",
                "--adversary-frac", "1/4", "--threshold", THRESHOLD],
         ("bounds", 10000, 100, "1/4")),
    ],
}

WORKLOADS = ("sizing", "exact_m", "monte_carlo")
# measured seconds per round on a 2-core Xeon; sets rounds per run
ROUND_SECONDS = {"sizing": 8.5, "exact_m": 6.6, "monte_carlo": 12.0}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def layout_arg(size: int, count: int) -> str:
    return ",".join([str(size)] * count)


def _spot_checks(rng: random.Random) -> list[dict]:
    """Small Monte Carlo cross-checks of both models, as an analyst runs."""
    name, size, count = MC_LAYOUTS[0]
    return [_simulate(name, size, count, model, "1/4", SPOT_CHECK_SAMPLES, 1,
                      rng.randrange(2 ** 32)) for model in ("average", "exact")]


def _simulate(name, size, count, model, rate, samples, workers, seed) -> dict:
    argv = ["simulate", "--layout", layout_arg(size, count)]
    if model == "average":
        argv += ["--adversary-frac", rate]
    else:
        m = min(max(round(Fraction(rate) * size * count), 0), size * count)
        argv += ["--adversary-count", str(m)]
    argv += ["--threshold", THRESHOLD, "--samples", str(samples),
             "--seed", str(seed), "--workers", str(workers)]
    return {"kind": "simulate", "argv": argv,
            "key": ("mc", name, model, rate), "samples": samples}


def _delta(rng: random.Random, decade: int) -> str:
    """A delta of the given decade, on the grid (only 1e-1 for decade 1)."""
    return rng.choice([d for d in DELTAS if d in {
        f"{m}e-{decade}" for m in DELTA_MANTISSAS}])


def _sizing(rng: random.Random, rounds: int) -> list[dict]:
    queries = []
    for index in range(rounds):
        for slot, n in enumerate(MAXK_SLOTS):
            # the scan covers every K whatever delta is, so delta is free
            rate, delta = RATES[(slot + index) % 2], rng.choice(DELTAS)
            queries.append({
                "kind": "max_committees",
                "argv": ["size", "--nodes", str(n), "--delta", delta,
                         "--threshold", THRESHOLD, "--adversary-frac", rate],
                "key": ("max_committees", n, rate, delta)})
        for model, slots in (("average", AVG_SLOTS), ("exact", EXACT_SLOTS)):
            for k, rate, decade in slots:
                queries.append(_min_n(model, k, rate, _delta(rng, decade)))
        k_range, rate, decade = SWEEP_N_SLOTS[index % len(SWEEP_N_SLOTS)]
        delta = _delta(rng, decade)
        queries.append({
            "kind": "sweep_n",
            "argv": ["sweep", "--mode", "sweep-n", "--k-range", k_range,
                     "--delta", delta, "--threshold", THRESHOLD,
                     "--adversary-frac", rate, "--methods", SWEEP_N_METHODS],
            "key": ("sweep_n", k_range, rate, delta)})
        queries += _spot_checks(rng)
    return queries


def _min_n(model: str, k: int, rate: str, delta: str) -> dict:
    return {"kind": "min_n",
            "argv": ["size", "--delta", delta, "--threshold", THRESHOLD,
                     "--adversary-frac", rate, "--min-n-for-K", str(k),
                     "--model", model],
            "key": ("min_n", model, k, rate, delta)}


def _point_args(n: int, k: int, rate: str) -> list[str]:
    return ["--nodes", str(n), "--committees", str(k),
            "--adversary-frac", rate, "--threshold", THRESHOLD]


def _exact_m(rng: random.Random, rounds: int) -> list[dict]:
    """N, K, P and methods, which set a query's cost, follow a fixed design;
    the seed draws P of the bounds queries and the asymptotic queries."""
    queries = []
    for index in range(rounds):
        for i, n in enumerate(M_NODES):
            for j in range(4):
                k = M_KS[(5 * i + 4 * j + 2 * index) % len(M_KS)]
                methods = DELTA_METHOD_SETS[(i + 2 * j + index) % 4]
                rate = RATES[(i + j) % 2]
                queries.append({
                    "kind": "delta",
                    "argv": ["delta", *_point_args(n, k, rate), "--method",
                             methods],
                    "key": ("delta", n, k, rate)})
            k_range = SWEEP_K_RANGES[(i + index) % len(SWEEP_K_RANGES)]
            rate = RATES[(i + index) % 2]
            queries.append({
                "kind": "sweep_k",
                "argv": ["sweep", "--mode", "sweep-k", "--nodes", str(n),
                         "--k-range", k_range, "--threshold", THRESHOLD,
                         "--adversary-frac", rate, "--methods", SWEEP_K_METHODS],
                "key": ("sweep_k", n, k_range, rate)})
            k = M_KS[(7 * i + 3 * index) % len(M_KS)]
            rate = rng.choice(RATES)
            queries.append({"kind": "bounds",
                            "argv": ["bounds", *_point_args(n, k, rate)],
                            "key": ("bounds", n, k, rate)})
        for _ in range(10):
            n, k, rate = (rng.choice(M_NODES), rng.choice(M_KS),
                          rng.choice(RATES))
            queries.append({"kind": "asymptotic",
                            "argv": ["asymptotic", *_point_args(n, k, rate)],
                            "key": ("asymptotic", n, k, rate)})
        queries += _spot_checks(rng)
    return queries


def _monte_carlo(rng: random.Random, rounds: int) -> list[dict]:
    queries = []
    for index in range(rounds):
        for name, size, count in MC_LAYOUTS:
            for m, model in enumerate(("average", "exact")):
                rate = RATES[(index + m) % 2]
                for samples in MC_SAMPLES[(name, model)]:
                    seed = rng.randrange(2 ** 32)
                    for workers in (1, 2):
                        queries.append(_simulate(name, size, count, model,
                                                 rate, samples, workers, seed))
    return queries


_BUILDERS = {"sizing": _sizing, "exact_m": _exact_m,
             "monte_carlo": _monte_carlo}


def build_queries(workload: str, seed: int, rounds: int) -> list[dict]:
    """The workload's query list: defect probes first, then the rounds."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    # The order is fixed by the design, not shuffled: shardrisk's memo
    # caches carry over from query to query, so order changes latency.
    rng = random.Random(f"{workload}:{seed}")
    body = _BUILDERS[workload](rng, rounds)
    probes = [{"kind": key[0], "argv": argv, "key": key}
              for _, argv, key in DEFECT_PROBES.get(workload, [])]
    queries = probes + body
    for index, query in enumerate(queries):
        query["id"] = index
    return queries
