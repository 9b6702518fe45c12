"""Generate perfbench/refs.json: exact references for every query the
workload generators can produce.

    python3 perfbench/make_refs.py            # about two minutes on 2 cores

References come from exactref.py (integer and rational arithmetic).  The
file is committed; run.py only loads it.  Rerun this script after changing
a grid in workloads.py.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath

import exactref as X
import workloads as W

HERE = Path(__file__).resolve().parent
# largest exactly-M survival coefficient computed exactly for exact_m
# points (big-integer products, about 1 s per 200k); others get the sandwich
HYPER_WORK_BUDGET = 800_000


def key(*parts) -> str:
    return "|".join(str(p) for p in parts)


def fmt(value) -> list[float]:
    """[double, natural log] of an exact value."""
    return [float(value), X.to_log(value)]


def max_committees_refs() -> dict:
    out = {}
    targets = [(d, mpmath.mpf(float(d))) for d in W.DELTAS]  # exact
    for rate_arg in W.RATES:
        rate = Fraction(rate_arg)
        log_keep = {}  # size -> log(1 - T_size)

        def log_keep_of(size):
            if size not in log_keep:
                tail = X.binomial_tail(size, rate)
                log_keep[size] = mpmath.log1p(
                    -mpmath.mpf(tail.numerator) / tail.denominator)
            return log_keep[size]

        for n_total in W.MAXK_SLOTS:
            deltas = {}
            for k in range(2, n_total + 1):
                base, rem = divmod(n_total, k)
                log_surv = (k - rem) * log_keep_of(base)
                if rem:
                    log_surv += rem * log_keep_of(base + 1)
                deltas[k] = -mpmath.expm1(log_surv)
            for d, target in targets:
                best = [k for k, v in deltas.items() if v <= target]
                if best:
                    k = max(best)
                    base, rem = divmod(n_total, k)
                    out[key(n_total, rate_arg, d)] = [k, base, rem, *fmt(deltas[k])]
                else:
                    out[key(n_total, rate_arg, d)] = [1, n_total, 0, 0.0, float("-inf")]
    return out


def _first_stable(feasible, start=1) -> int:
    n = start
    while not (feasible(n) and feasible(n + 1)):
        n += 1
    return n


def min_n_average_refs() -> dict:
    out = {}
    for rate_arg in W.RATES:
        rate = Fraction(rate_arg)
        for k in W.AVG_SIZING_KS:
            cache = {}

            def delta_at(n):
                if n not in cache:
                    cache[n] = X.average_delta([(n, k)], rate)
                return cache[n]

            for d in W.DELTAS:
                target = mpmath.mpf(float(d))
                out[key("average", k, rate_arg, d)] = _first_stable(
                    lambda n: delta_at(n) <= target)
    return out


class ExactModelScan:
    """Feasibility of K equal committees of n under the exactly-M model.

    Decided by the sandwich 1 - (1 - T)^K <= delta <= K T first; the lower
    end holds because multivariate hypergeometric counts are negatively
    associated (Joag-Dev and Proschan, 1983).  The exact survival count is
    computed only when the target falls inside the sandwich, and each exact
    value is checked against the sandwich as it is made.
    """

    def __init__(self, k: int, rate: Fraction):
        self.k, self.rate = k, rate
        self.bounds, self.exact = {}, {}

    def _bounds(self, n):
        if n not in self.bounds:
            total = n * self.k
            m = X.count_from_rate(total, self.rate)
            if m == 0:
                self.bounds[n] = (Fraction(0), Fraction(0), m)
            elif m == total:
                self.bounds[n] = (Fraction(1), Fraction(1), m)
            else:
                tail = X.marginal_tail(n, total, m)
                self.bounds[n] = (1 - (1 - tail) ** self.k,
                                  min(Fraction(1), self.k * tail), m)
        return self.bounds[n]

    def feasible(self, n, target: Fraction) -> bool:
        lower, upper, m = self._bounds(n)
        if lower > target:
            return False
        if upper <= target:
            return True
        if n not in self.exact:
            value = X.hyper_delta([(n, self.k)], m)
            assert lower <= value <= upper, (n, self.k, self.rate)
            self.exact[n] = value
        return self.exact[n] <= target


def min_n_exact_refs() -> dict:
    out = {}
    for rate_arg in W.RATES:
        rate = Fraction(rate_arg)
        for k in W.EXACT_SIZING_KS:
            scan = ExactModelScan(k, rate)
            for d in W.EXACT_SIZING_DELTAS[rate_arg]:
                target = Fraction(float(d))
                out[key("exact", k, rate_arg, d)] = _first_stable(
                    lambda n: scan.feasible(n, target))
    return out


def point_refs() -> dict:
    """Per (N, K, P): exact-binomial delta, the exactly-M sandwich and,
    where affordable, the exact exactly-M delta."""
    out = {}
    for n_total in W.M_NODES:
        for k in W.M_KS:
            groups = X.split(n_total, k)
            for rate_arg in W.RATES:
                rate = Fraction(rate_arg)
                m = X.count_from_rate(n_total, rate)
                t_max, t_sum = X.hyper_sandwich(groups, m)
                ref = {"binomial": fmt(X.average_delta(groups, rate)),
                       "t_max": fmt(t_max), "t_sum": fmt(t_sum),
                       "hyper": None}
                if X.hyper_work(groups, m) <= HYPER_WORK_BUDGET:
                    exact = X.hyper_delta(groups, m)
                    assert t_max <= exact <= t_sum
                    ref["hyper"] = fmt(exact)
                out[key(n_total, k, rate_arg)] = ref
    return out


def mc_refs() -> dict:
    out = {}
    for name, size, count in W.MC_LAYOUTS:
        for rate_arg in W.RATES:
            rate = Fraction(rate_arg)
            groups = [(size, count)]
            m = X.count_from_rate(size * count, rate)
            out[key(name, "average", rate_arg)] = fmt(X.average_delta(groups, rate))
            out[key(name, "exact", rate_arg)] = fmt(X.hyper_delta(groups, m))
    return out


def main() -> int:
    refs = {}
    for name, build in (("max_committees", max_committees_refs),
                        ("min_n_average", min_n_average_refs),
                        ("min_n_exact", min_n_exact_refs),
                        ("point", point_refs),
                        ("mc", mc_refs)):
        start = time.perf_counter()
        refs[name] = build()
        print(f"{name}: {len(refs[name])} entries, "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    text = json.dumps(refs, sort_keys=True, separators=(",", ":"))
    (HERE / "refs.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
