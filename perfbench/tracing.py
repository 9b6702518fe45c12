"""Spans around shardrisk's public functions, recorded from outside.

``Tracer.install`` rebinds each listed function, in every shardrisk module
that holds it under its own name, to a wrapper that records a span (name,
start, end, parent span, query id) in memory.  Rebinding the defining
module too catches calls inside that module.  ``Tracer.remove`` puts the
original functions back.  Self time is a span's duration minus the time
covered by its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time

# module -> public functions whose spans the traced run records
TRACED = {
    "cli": ("main",),
    "sizing": ("max_committees", "min_committee_size", "size_bracket"),
    "failure": ("delta_exact_binomial", "delta_exact_hypergeometric",
                "theorem1_bounds", "union_bound_fixed_sizes",
                "union_bound_random_sizes", "union_bound_hypergeometric"),
    "saddle": ("delta_asymptotic", "solve_saddle",
               "truncated_binomial_summary"),
    "simulate": ("estimate_delta",),
    "partitions": ("layout_from_split", "hypergeometric_marginal_log_pmf"),
    "probcore": ("binomial_tail_and_cdf", "log_binomial_coefficients"),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
_EVALUATORS = {"failure.delta_exact_binomial",
               "failure.delta_exact_hypergeometric", "saddle.delta_asymptotic"}
_SOLVERS = {"sizing.max_committees", "sizing.min_committee_size"}


class Tracer:
    def __init__(self):
        # span: [name index, start, end, parent span index, query id, extra]
        self.spans: list[list] = []
        self.query_id = -1
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _wrap(self, index: int, name: str, func):
        spans, local = self.spans, self._local
        clock = time.perf_counter
        is_mc = name == "simulate.estimate_delta"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [index, 0.0, 0.0, stack[-1] if stack else -1,
                    self.query_id, None]
            if is_mc:
                plan = args[0]
                span[5] = [type(plan.query.adversary).__name__, plan.samples]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                return func(*args, **kwargs)
            except BaseException:
                span[5] = "error"
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "shardrisk" or n.startswith("shardrisk.")]
        for index, name in enumerate(NAMES):
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"shardrisk.{mod_name}"], fn_name)
            wrapper = self._wrap(index, name, original)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    self._saved.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)

    def remove(self) -> None:
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps([NAMES[span[0]], *span[1:]]) + "\n")

    def layer_metrics(self) -> dict:
        """calls, self_s and errors per function, plus derived ratios."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        errors = [0] * len(NAMES)
        for i, span in enumerate(spans):
            calls[span[0]] += 1
            self_s[span[0]] += (span[2] - span[1]) - child_time[i]
            errors[span[0]] += span[5] == "error"
        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = (calls[i], "count")
            out[f"{name}.self_s"] = (self_s[i], "s")
            out[f"{name}.errors"] = (errors[i], "count")

        def ancestor_in(i, wanted):
            parent = spans[i][3]
            while parent >= 0:
                if NAMES[spans[parent][0]] in wanted:
                    return parent
                parent = spans[parent][3]
            return -1

        solves = evals = 0
        solve_calls = summaries = 0
        mc = {"AverageAdversary": [0, 0.0], "ExactAdversary": [0, 0.0]}
        for i, span in enumerate(spans):
            name = NAMES[span[0]]
            if name in _SOLVERS and ancestor_in(i, _SOLVERS) < 0:
                solves += 1
            elif name in _EVALUATORS and ancestor_in(i, _SOLVERS) >= 0:
                evals += 1
            elif name == "saddle.solve_saddle":
                solve_calls += 1
            elif (name == "saddle.truncated_binomial_summary"
                  and ancestor_in(i, {"saddle.solve_saddle"}) >= 0):
                summaries += 1
            elif name == "simulate.estimate_delta" and span[5] != "error":
                model, samples = span[5]
                mc[model][0] += samples
                mc[model][1] += span[2] - span[1]
        out["sizing.evals_per_solve"] = (evals / solves if solves else 0.0,
                                         "count")
        out["saddle.summaries_per_solve"] = (
            summaries / solve_calls if solve_calls else 0.0, "count")
        for model, label in (("AverageAdversary", "average"),
                             ("ExactAdversary", "exact")):
            samples, seconds = mc[model]
            out[f"simulate.samples_per_s.{label}"] = (
                samples / seconds if seconds else 0.0, "1/s")
        return out
