"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Named so that the repository's test suite does not collect it.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import exactref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFS = json.loads((HERE / "refs.json").read_text())


def _argvs(workload, seed):
    return [q["argv"] for q in workloads.build_queries(workload, seed, 2)]


def test_query_list_is_a_pure_function_of_workload_and_seed():
    for workload in workloads.WORKLOADS:
        assert _argvs(workload, 7) == _argvs(workload, 7)
        assert _argvs(workload, 7) != _argvs(workload, 8)


def test_references_cover_every_query():
    for workload in workloads.WORKLOADS:
        for seed in range(20):
            for query in workloads.build_queries(workload, seed, 3):
                kind, key = query["kind"], query["key"]
                if kind == "max_committees":
                    assert checks._key(*key[1:]) in REFS["max_committees"]
                elif kind == "min_n":
                    assert checks._key(*key[1:]) in REFS[f"min_n_{key[1]}"]
                elif kind == "simulate":
                    assert checks._key(*key[1:]) in REFS["mc"]
                elif kind in ("delta", "bounds", "asymptotic"):
                    assert checks._key(*key[1:]) in REFS["point"]


def _enumerated_delta(sizes, m):
    """Exactly-M failure probability by enumerating every count vector."""
    fail = total = 0
    for counts in product(*[range(s + 1) for s in sizes]):
        if sum(counts) != m:
            continue
        ways = math.prod(math.comb(s, c) for s, c in zip(sizes, counts))
        total += ways
        if any(c > exactref.cap_of(s) for s, c in zip(sizes, counts)):
            fail += ways
    return Fraction(fail, total)


def test_exact_references_match_enumeration():
    for n_total, k in ((12, 3), (13, 3), (14, 4), (9, 2)):
        groups = exactref.split(n_total, k)
        sizes = [s for s, mult in groups for _ in range(mult)]
        for m in range(n_total + 1):
            exact = exactref.hyper_delta(groups, m)
            assert exact == _enumerated_delta(sizes, m)
            t_max, t_sum = exactref.hyper_sandwich(groups, m)
            assert t_max <= exact <= t_sum


def test_checks_tag_known_defect_signatures():
    point_query = {"kind": "delta", "key": ("delta", 3000, 3, "1/4"),
                   "argv": ["delta", "--method", "exact-hypergeometric"]}
    csv_text = ("method,delta,log_delta,log_survival,raw_log_delta,clamped,"
                "precondition_ok,warnings\n"
                "exact-hypergeometric,0.0,-inf,0.0,-inf,false,true,\n")
    outcome = {"exception": "", "code": 0, "stdout": csv_text, "stderr": ""}
    assert [tag for _, tag in checks.check_query(point_query, outcome, REFS)] == ["1a"]
    wrong = csv_text.replace("0.0,-inf,0.0,-inf", "0.5,-0.69,-0.69,-0.69")
    outcome["stdout"] = wrong
    assert [tag for _, tag in checks.check_query(point_query, outcome, REFS)] == [None]

    size_query = {"kind": "min_n", "key": ("min_n", "exact", 2, "1/4", "1e-3"),
                  "argv": []}
    for n, tag in (("144", "1b"), ("139", None), ("141", "ok")):
        outcome = {"exception": "", "code": 0, "stderr": "",
                   "stdout": f"K,n,model,bracket_lower,bracket_upper\n2,{n},exact,,\n"}
        found = checks.check_query(size_query, outcome, REFS)
        assert [t for _, t in found] == ([] if tag == "ok" else [tag])

    raised = {"exception": "AssertionError: ", "code": None, "stdout": "",
              "stderr": ""}
    assert [t for _, t in checks.check_query(point_query, raised, REFS)] == ["1c"]


def _cheap_queries():
    queries = [q for q in workloads.build_queries("exact_m", 3, 1)
               if q["kind"] in ("asymptotic", "bounds", "simulate")]
    for index, query in enumerate(queries):
        query["id"] = index
    return queries


def test_repeat_runs_give_byte_identical_outputs():
    from shardrisk import cli
    queries = _cheap_queries()
    first, _ = run.run_pass(cli, queries)
    second, _ = run.run_pass(cli, queries)
    assert [(o["stdout"], o["exception"]) for o in first] == [
        (o["stdout"], o["exception"]) for o in second]


def test_tracer_records_spans_and_restores_functions():
    from shardrisk import cli, failure, sizing
    before = (cli.main, sizing.delta_exact_binomial, failure.delta_exact_binomial)
    queries = _cheap_queries()
    plain, _ = run.run_pass(cli, queries)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = run.run_pass(cli, queries, tracer)
    finally:
        tracer.remove()
    assert (cli.main, sizing.delta_exact_binomial,
            failure.delta_exact_binomial) == before
    assert [o["stdout"] for o in plain] == [o["stdout"] for o in traced]
    layer = tracer.layer_metrics()
    assert layer["cli.main.calls"][0] == len(queries)
    assert all(value >= -1e-9 for name, (value, _) in layer.items()
               if name.endswith(".self_s"))
