"""Correctness checks of query outputs against the exact references.

``check_query`` returns a list of problems, each (message, defect tag).  A
tag names the known defect whose signature the problem matches; an
untagged problem is unexpected:

  1a  an exactly-M failure probability that is wrong by less than 1e-9 in
      absolute terms: the cancellation of computing it as 1 - survival;
  1b  exactly-M sizing that returns a larger n than the linear scan;
  1c  an AssertionError escaping the CLI.
"""

from __future__ import annotations

import csv
import io
import math

REL = 1e-9          # relative tolerance on values the program computes exactly
CANCELLATION = 1e-9  # absolute error that 1 - survival can leave behind
MC_SIGMAS = 5.0
MC_SLACK_COUNTS = 3
# documented refusals rather than wrong numbers
_DOMAIN_ERRORS = ("no tilt exists",)


def _key(*parts) -> str:
    return "|".join(str(p) for p in parts)


def rows_of(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(text: str) -> float:
    return float(text) if text else math.nan


def _close(value: float, ref: list[float], log_value: float = math.nan) -> bool:
    """value within REL of the reference [double, log] pair.

    Where the reference underflows a double, the program's log-domain
    companion is compared instead when it printed one.
    """
    ref_value, ref_log = ref
    if ref_log == -math.inf:
        return value == 0.0
    if ref_log >= -700.0:
        return abs(value - ref_value) <= REL * ref_value
    if math.isfinite(log_value):
        return abs(log_value - ref_log) <= max(REL, 1e-12 * abs(ref_log))
    return abs(value - ref_value) <= 1e-300


def _exact_m_problem(label: str, value: float, log_value: float, point: dict):
    """Check an exactly-M delta against the exact value or the sandwich."""
    if point["hyper"] is not None:
        if _close(value, point["hyper"], log_value):
            return None
        lo = hi = point["hyper"][0]
    else:
        lo = point["t_max"][0] * (1 - REL)
        hi = min(1.0, point["t_sum"][0]) * (1 + REL)
        if lo <= value <= hi:
            return None
    distance = max(lo - value, value - hi, 0.0)
    tag = "1a" if distance <= CANCELLATION else None
    return (f"{label}: {value!r} outside the exact reference "
            f"[{lo!r}, {hi!r}]", tag)


def _method_problems(method: str, value: float, log_value: float,
                     precondition_ok: bool, point: dict, row_label: str) -> list:
    """One analytic method's value at one (N, K, P) point."""
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        return [(f"{row_label}: {method} value {value!r} is not a probability",
                 None)]
    binomial = point["binomial"]
    union = min(1.0, point["t_sum"][0])
    label = f"{row_label} {method}"
    if method == "exact-hypergeometric":
        problem = _exact_m_problem(label, value, log_value, point)
        return [problem] if problem else []
    if method == "exact-binomial":
        ok = _close(value, binomial, log_value)
    elif method == "union-hyper-exact":
        ok = _close(value, point["t_sum"] if union < 1.0 else [1.0, 0.0],
                    log_value)
    elif method == "union-hyper-hoeffding":
        ok = value >= union * (1 - REL)
    elif method == "theorem1-lower":
        ok = not precondition_ok or value <= binomial[0] * (1 + REL)
    elif method in ("theorem1-upper-ash", "theorem1-upper-ferrante",
                    "union-fixed"):
        ok = value >= binomial[0] * (1 - REL)
    else:  # asymptotic, union-random*: finiteness only
        ok = True
    return [] if ok else [(f"{label}: {value!r} on the wrong side of "
                           f"the reference {binomial[0]!r}/{union!r}", None)]


def _check_delta_rows(rows, point, label) -> list:
    problems = []
    values = {}
    for row in rows:
        method = row["method"]
        value = _num(row["delta"])
        values[method] = value
        problems += _method_problems(method, value, _num(row["log_delta"]),
                                     row["precondition_ok"] == "true",
                                     point, label)
    if "union-random" in values and "union-random-simple" in values:
        if values["union-random"] > values["union-random-simple"] * (1 + REL):
            problems.append((f"{label}: union-random above its simple form",
                             None))
    return problems


def _check_sweep_k(rows, query, refs) -> list:
    _, n_total, _, rate = query["key"]
    problems = []
    for row in rows:
        k = int(row["K"])
        point = refs["point"][_key(n_total, k, rate)]
        for column, cell in row.items():
            if column in ("K", "n", "r") or column.endswith("_flags"):
                continue
            flags = row[f"{column}_flags"]
            if flags.startswith("error:"):
                if not any(text in flags for text in _DOMAIN_ERRORS):
                    problems.append((f"K={k} {column}: {flags}", None))
                continue
            problems += _method_problems(column, _num(cell), math.nan,
                                         "precond" not in flags, point,
                                         f"K={k}")
    return problems


def _check_min_n(value: str, ref: int, model: str, label: str):
    n = int(value) if value else None
    if n == ref:
        return None
    tag = "1b" if model == "exact" and n is not None and n > ref else None
    return (f"{label}: n={n} where the linear scan gives {ref}", tag)


def _check_bracket(lower: str, upper: str, label: str):
    lo, hi = _num(lower), _num(upper)
    if math.isfinite(lo) and math.isfinite(hi) and lo <= hi:
        return None
    return (f"{label}: bracket [{lower}, {upper}] is not finite and ordered",
            None)


def _check_sizing(rows, query, refs) -> list:
    kind = query["kind"]
    problems = []
    if kind == "max_committees":
        _, n_total, rate, delta = query["key"]
        ref = refs["max_committees"][_key(n_total, rate, delta)]
        row = rows[0]
        got = (int(row["K"]), int(row["n"]), int(row["r"]))
        if got != tuple(ref[:3]):
            problems.append((f"K,n,r={got} where the scan gives "
                             f"{tuple(ref[:3])}", None))
        elif not _close(_num(row["prob"]), ref[3:]):
            problems.append((f"prob {row['prob']} where exact is {ref[3]!r}",
                             None))
        if int(row["iterations"]) != n_total - 1:
            problems.append((f"iterations {row['iterations']}", None))
    elif kind == "min_n":
        _, model, k, rate, delta = query["key"]
        row = rows[0]
        ref = refs[f"min_n_{model}"][_key(model, k, rate, delta)]
        problem = _check_min_n(row["n"], ref, model, f"K={k}")
        if problem:
            problems.append(problem)
        if model == "average":
            problem = _check_bracket(row["bracket_lower"], row["bracket_upper"],
                                     f"K={k}")
            if problem:
                problems.append(problem)
    else:  # sweep_n
        _, _, rate, delta = query["key"]
        for row in rows:
            k = int(row["K"])
            for tag, model in (("exact-binomial", "average"),
                               ("exact-hypergeometric", "exact")):
                flags = row[f"{tag}_flags"]
                if flags:
                    problems.append((f"K={k} {tag}: {flags}", None))
                    continue
                ref = refs[f"min_n_{model}"][_key(model, k, rate, delta)]
                problem = _check_min_n(row[tag], ref, model, f"K={k} {tag}")
                if problem:
                    problems.append(problem)
            if row["asymptotic_flags"] or not int(row["asymptotic"] or 0) > 0:
                problems.append((f"K={k} asymptotic: no positive size", None))
            problem = _check_bracket(row["bracket-lower"], row["bracket-upper"],
                                     f"K={k}")
            if problem:
                problems.append(problem)
    return problems


def _check_simulate(rows, query, refs) -> list:
    _, name, model, rate = query["key"]
    ref = refs["mc"][_key(name, model, rate)][0]
    row = rows[0]
    samples = int(row["samples"])
    estimate = _num(row["delta_hat"])
    if samples != query["samples"] or int(row["failures"]) / samples != estimate:
        return [("simulate output is inconsistent", None)]
    # 5 SE, plus a few counts for plans whose rarer outcome is expected
    # less than once, where the normal approximation fails
    allowed = (MC_SIGMAS * math.sqrt(ref * (1.0 - ref) / samples)
               + MC_SLACK_COUNTS / samples)
    if abs(estimate - ref) <= allowed:
        return []
    return [(f"delta_hat {estimate!r} is more than {MC_SIGMAS:g} SE "
             f"from the exact {ref!r}", None)]


def check_query(query: dict, outcome: dict, refs: dict) -> list:
    """Problems with one query's outcome: exception, exit code or values."""
    if outcome["exception"]:
        tag = "1c" if outcome["exception"].startswith("AssertionError") else None
        return [(f"raised {outcome['exception']}", tag)]
    if outcome["code"] != 0:
        asks_asymptotic = query["kind"] == "asymptotic" or (
            query["kind"] == "delta" and "asymptotic" in query["argv"][-1])
        if asks_asymptotic and any(text in outcome["stderr"]
                                   for text in _DOMAIN_ERRORS):
            return []
        return [(f"exit code {outcome['code']}: {outcome['stderr'].strip()}",
                 None)]
    rows = rows_of(outcome["stdout"])
    if not rows:
        return [("no output rows", None)]
    kind = query["kind"]
    try:
        if kind in ("delta", "bounds", "asymptotic"):
            _, n_total, k, rate = query["key"]
            point = refs["point"][_key(n_total, k, rate)]
            return _check_delta_rows(rows, point, f"N={n_total} K={k} P={rate}")
        if kind == "sweep_k":
            return _check_sweep_k(rows, query, refs)
        if kind == "simulate":
            return _check_simulate(rows, query, refs)
        return _check_sizing(rows, query, refs)
    except (KeyError, ValueError) as exc:
        return [(f"malformed output: {exc!r}", None)]


def check_worker_pairs(queries: list[dict], outcomes: list[dict]) -> list:
    """Simulate plans that differ only in --workers must print the same."""
    seen: dict[tuple, int] = {}
    problems = []
    for query, outcome in zip(queries, outcomes):
        if query["kind"] != "simulate":
            continue
        argv = list(query["argv"])
        argv[argv.index("--workers") + 1] = "*"
        plan = tuple(argv)
        if plan in seen:
            first = seen[plan]
            if outcomes[first]["stdout"] != outcome["stdout"]:
                problems.append((query["id"], "output differs between "
                                 f"--workers values (query {first})"))
        else:
            seen[plan] = query["id"]
    return problems
