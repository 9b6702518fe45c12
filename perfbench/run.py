"""shardrisk benchmark: seeded CLI query lists, timed, checked, traced.

    python3 perfbench/run.py --workload sizing --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process issues one workload's query
list through ``shardrisk.cli.main`` in a closed loop with one client,
times each query untraced and checks every output against the exact
references in refs.json.  ``--trace 1`` then runs the same list again with
spans around each layer's public functions, and once more untraced for
the overhead, and reports per-layer metrics instead of end-to-end ones.
The last stdout line is the JSON result; a fuller record goes to
perfbench/results/.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5  # fresh processes timing set-up; their median is setup_s
TAIL_ABOVE = 10   # the tail percentile keeps this many samples above it
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "query_p50_ms": "ms",
    "query_tail_ms": "ms", "ok_frac": "ratio", "peak_rss_mb": "MB",
    "mc_samples_per_s": "1/s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sizing", "exact_m", "monte_carlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup(args):
    """Import shardrisk, build the query list and load the references."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    from shardrisk import cli

    queries = workloads.build_queries(
        args.workload, args.seed, workloads.rounds_for(args.workload, args.seconds))
    refs = json.loads((HERE / "refs.json").read_text())
    return cli, queries, refs


def setup_seconds(args) -> float:
    """Median set-up time over fresh interpreter processes."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def clear_caches() -> None:
    """Empty shardrisk's memo caches, so each pass starts as a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "shardrisk" or name.startswith("shardrisk."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and hasattr(
                        value, "cache_info"):
                    value.cache_clear()


def run_pass(cli, queries, tracer=None) -> tuple[list[dict], float]:
    """Issue every query in order; returns outcomes and the pass's wall time."""
    clear_caches()
    outcomes = []
    clock = time.perf_counter
    start = clock()
    for query in queries:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.query_id = query["id"]
        exception = ""
        code = None
        begin = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(query["argv"]))
        except Exception as exc:  # noqa: BLE001 - one query must not end the run
            exception = f"{type(exc).__name__}: {exc}"
        latency = clock() - begin
        outcomes.append({"latency_s": latency, "code": code,
                         "exception": exception, "stdout": out.getvalue(),
                         "stderr": err.getvalue()})
    return outcomes, clock() - start


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_ABOVE above."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, n - TAIL_ABOVE - 1)
    return ordered[index], 100.0 * (index + 1) / n


def git_state() -> dict:
    # stop git at the checkout, so an enclosing repository is not reported
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               env=env, capture_output=True, text=True,
                               timeout=30)
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    if commit.returncode != 0:
        return {"commit": None, "dirty": None}
    return {"commit": commit.stdout.strip(), "dirty": bool(dirty.stdout.strip())}


def metadata(args, rounds) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, **git_state(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "rounds": rounds, "trace": args.trace}


def short_argv(argv: list[str]) -> list[str]:
    """argv with long --layout lists shown as size x count."""
    out = list(argv)
    if "--layout" in out:
        i = out.index("--layout") + 1
        sizes = out[i].split(",")
        if len(set(sizes)) == 1 and len(sizes) > 4:
            out[i] = f"{sizes[0]}x{len(sizes)}"
    return out


def end_to_end(queries, outcomes, wall, setup_s, failed_ids) -> tuple[dict, dict]:
    # Latency covers every query, failed or not, so that fixing a wrong
    # answer does not by itself move a latency metric.
    latencies = [o["latency_s"] for o in outcomes]
    tail_value, tail_pct = tail(latencies)
    mc_samples = sum(q["samples"] for q in queries if q["kind"] == "simulate")
    mc_seconds = sum(o["latency_s"] for q, o in zip(queries, outcomes)
                     if q["kind"] == "simulate")
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "query_p50_ms": 1000.0 * statistics.median(latencies),
        "query_tail_ms": 1000.0 * tail_value,
        "ok_frac": 1.0 - len(failed_ids) / len(queries),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mc_samples_per_s": mc_samples / mc_seconds if mc_seconds else 0.0,
    }
    extra = {"failed_frac": 1.0 - values["ok_frac"],
             "query_tail_pct": tail_pct, "timed_queries": len(latencies),
             "mc_samples": mc_samples}
    return values, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shardrisk" / "cli.py").is_file():
        print(f"error: no shardrisk sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(args)
        print(time.perf_counter() - _T0)
        return 0
    cli, queries, refs = setup(args)
    import checks
    import workloads
    setup_s = setup_seconds(args)

    outcomes, wall = run_pass(cli, queries)
    problems = {}
    for query, outcome in zip(queries, outcomes):
        found = checks.check_query(query, outcome, refs)
        if found:
            problems[query["id"]] = found
    for qid, message in checks.check_worker_pairs(queries, outcomes):
        problems.setdefault(qid, []).append((message, None))

    metrics_out = {}
    layer = None
    if args.trace:
        import tracing
        from shardrisk import probcore
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, traced_wall = run_pass(cli, queries, tracer)
        finally:
            tracer.remove()
        hits = probcore.log_binomial_coefficients.cache_info()
        # the first pass also paid the process's one-time warm-up, so the
        # overhead is taken against a second untraced pass
        _, untraced_wall = run_pass(cli, queries)
        for query, first, again in zip(queries, outcomes, traced):
            if first["stdout"] != again["stdout"]:
                problems.setdefault(query["id"], []).append(
                    ("stdout differs between the traced and untraced runs", None))
        layer = tracer.layer_metrics()
        layer["probcore.log_binomial_coefficients.hit_ratio"] = (
            hits.hits / (hits.hits + hits.misses)
            if hits.hits + hits.misses else 0.0, "ratio")
        layer["trace.overhead_frac"] = (
            (traced_wall - untraced_wall) / untraced_wall, "ratio")
        metrics_out = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layer.items()}

    failed_ids = set(problems)
    values, extra = end_to_end(queries, outcomes, wall, setup_s, failed_ids)
    if not args.trace:
        metrics_out = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    unexpected = sorted(qid for qid, found in problems.items()
                        if any(tag is None for _, tag in found))
    defects = sorted({tag for found in problems.values() for _, tag in found
                      if tag})
    result = {"correct": not unexpected, "attempted": len(queries),
              "failed": len(failed_ids), "metrics": metrics_out}

    RESULTS.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {
        "meta": metadata(args, workloads.rounds_for(args.workload, args.seconds)),
        "result": result,
        "end_to_end": {n: {"value": values[n], "unit": u}
                       for n, u in END_TO_END.items()},
        "end_to_end_extra": extra,
        "per_layer": metrics_out if args.trace else None,
        "known_defects_seen": defects,
        "unexpected_failures": unexpected,
        "failures": [{"id": qid, "argv": short_argv(queries[qid]["argv"]),
                      "problems": [{"message": m, "defect": t} for m, t in found]}
                     for qid, found in sorted(problems.items())],
        "queries": [{"id": q["id"], "kind": q["kind"],
                     "argv": short_argv(q["argv"]),
                     "latency_s": o["latency_s"], "ok": q["id"] not in failed_ids}
                    for q, o in zip(queries, outcomes)],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(RESULTS / f"{stem}_spans.jsonl.gz")

    print(f"workload {args.workload}, seed {args.seed}, {len(queries)} queries, "
          f"{len(failed_ids)} failed (known defects: {', '.join(defects) or 'none'}"
          f"; unexpected: {len(unexpected)})")
    print(f"query_tail_ms is p{extra['query_tail_pct']:.1f} of "
          f"{extra['timed_queries']} queries")
    for name, unit in END_TO_END.items():
        print(f"  {name:<20} {values[name]:.6g} {unit}")
    if layer:
        for name, (value, unit) in layer.items():
            print(f"  {name:<58} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
