"""Command-line interface.

Subcommands: delta, bounds, asymptotic, size, sweep, simulate.  Output is
CSV (default) or JSON, to stdout or a file; identical invocations produce
byte-identical output, including sweep row order.  Exit codes: 0 success,
1 domain, numeric or internal error (one ``error:`` line on stderr, no
traceback), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from .failure import (
    FailureQuery,
    delta_exact_binomial,
    delta_exact_hypergeometric,
    theorem1_bounds,
    union_bound_fixed_sizes,
    union_bound_hypergeometric,
    union_bound_random_sizes,
)
from .partitions import (
    AverageAdversary,
    CommitteeLayout,
    ExactAdversary,
    exact_count_from_rate,
    layout_from_split,
)
from .saddle import delta_asymptotic
from .simulate import DeltaEstimate, SimulationPlan, estimate_delta
from .sizing import max_committees, min_committee_size, size_bracket

CONFIG_SCHEMA_VERSION = 1

_DELTA_COLUMNS = [
    "method", "delta", "log_delta", "log_survival", "raw_log_delta",
    "clamped", "precondition_ok", "warnings",
]

_AVERAGE_METHODS = {
    "exact-binomial", "theorem1-lower", "theorem1-upper-ash",
    "theorem1-upper-ferrante", "union-fixed", "union-random",
    "union-random-simple", "monte-carlo-average",
}
_EXACT_METHODS = {
    "exact-hypergeometric", "asymptotic", "union-hyper-exact",
    "union-hyper-hoeffding", "monte-carlo-exact",
}
_SWEEP_K_METHODS = sorted(_AVERAGE_METHODS | _EXACT_METHODS | {"monte-carlo"})
_SWEEP_N_METHODS = [
    "exact-binomial", "exact-hypergeometric", "asymptotic",
    "theorem1-lower", "theorem1-upper-ash", "theorem1-upper-ferrante",
    "union-fixed", "union-hyper-exact", "union-hyper-hoeffding", "bracket",
]


def _parse_rate(text: str) -> Fraction | float:
    """'1/3' parses to an exact rational, anything else to a float."""
    if "/" in text:
        return Fraction(text)
    return float(text)


def _parse_layout(text: str) -> CommitteeLayout:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad layout {text!r}, expected 'n1,n2,...'")
    return CommitteeLayout(sizes)


def _parse_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"bad range {text!r}, expected 'lo:hi' or 'lo:hi:step'")
    lo, hi = int(parts[0]), int(parts[1])
    step = int(parts[2]) if len(parts) == 3 else 1
    if step < 1:
        raise argparse.ArgumentTypeError("range step must be positive")
    return list(range(lo, hi + 1, step))


def _add_common_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default=None, help="path, default stdout")


def _add_query_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--layout", type=_parse_layout, default=None,
                        help="explicit committee sizes 'n1,n2,...'")
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--committees", type=int, default=None)
    parser.add_argument("--adversary-frac", type=_parse_rate, default=None)
    parser.add_argument("--adversary-count", type=int, default=None)
    parser.add_argument("--threshold", type=_parse_rate, required=True,
                        help="tolerated fraction A, e.g. '1/3'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shardrisk",
        description="failure probabilities and sizing for random committee partitions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_delta = sub.add_parser("delta", help="failure probability by one or more methods")
    _add_query_flags(p_delta)
    p_delta.add_argument("--method", required=True,
                         help="comma list, e.g. exact-binomial,theorem1-upper-ash")
    _add_common_output(p_delta)

    p_bounds = sub.add_parser("bounds", help="all applicable bounds side by side")
    _add_query_flags(p_bounds)
    _add_common_output(p_bounds)

    p_asym = sub.add_parser("asymptotic", help="saddle-point failure probability")
    _add_query_flags(p_asym)
    _add_common_output(p_asym)

    p_size = sub.add_parser("size", help="committee sizing")
    p_size.add_argument("--nodes", type=int, default=None)
    p_size.add_argument("--delta", type=float, required=True)
    p_size.add_argument("--threshold", type=_parse_rate, required=True)
    p_size.add_argument("--adversary-frac", type=_parse_rate, required=True)
    p_size.add_argument("--min-n-for-K", type=int, default=None, dest="min_n_for_k",
                        help="solve the minimal committee size for this K instead")
    p_size.add_argument("--model", choices=("average", "exact"), default="average")
    _add_common_output(p_size)

    p_sweep = sub.add_parser("sweep", help="grid sweeps over K")
    p_sweep.add_argument("--config", default=None, help="JSON sweep config")
    p_sweep.add_argument("--mode", choices=("sweep-k", "sweep-n"), default=None)
    p_sweep.add_argument("--nodes", type=int, default=None)
    p_sweep.add_argument("--k-range", type=_parse_range, default=None, dest="k_range")
    p_sweep.add_argument("--delta", type=float, default=None)
    p_sweep.add_argument("--threshold", type=_parse_rate, default=None)
    p_sweep.add_argument("--adversary-frac", type=_parse_rate, default=None)
    p_sweep.add_argument("--methods", default=None, help="comma list of method tags")
    p_sweep.add_argument("--samples", type=int, default=1_000_000)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--workers", type=int, default=1)
    _add_common_output(p_sweep)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate")
    _add_query_flags(p_sim)
    p_sim.add_argument("--samples", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=1)
    _add_common_output(p_sim)

    return parser


# ---------------------------------------------------------------------------
# shared evaluation plumbing


def _layout_from_args(args, parser) -> CommitteeLayout:
    if args.layout is not None:
        if args.nodes is not None or args.committees is not None:
            parser.error("--layout conflicts with --nodes/--committees")
        return args.layout
    if args.nodes is None:
        parser.error("need --layout or --nodes with --committees")
    if args.committees is None:
        parser.error("--nodes needs --committees")
    return layout_from_split(args.nodes, args.committees)


def _require_frac(args, parser):
    if args.adversary_frac is None:
        parser.error("this method needs --adversary-frac")
    return args.adversary_frac


def _derive_count(args, parser, total: int) -> int:
    if args.adversary_count is not None:
        return args.adversary_count
    if args.adversary_frac is not None:
        return exact_count_from_rate(total, args.adversary_frac)
    parser.error("this method needs --adversary-count or --adversary-frac")


def _evaluate_analytic(tag: str, layout: CommitteeLayout, threshold,
                       frac, count):
    """Run one analytic method tag; frac/count may be None when unused."""
    if tag in _AVERAGE_METHODS and not tag.startswith("monte-carlo"):
        query = FailureQuery(layout, AverageAdversary(frac), threshold)
        if tag == "exact-binomial":
            return delta_exact_binomial(query)
        if tag.startswith("theorem1"):
            lower, ash, ferrante = theorem1_bounds(query)
            return {"theorem1-lower": lower, "theorem1-upper-ash": ash,
                    "theorem1-upper-ferrante": ferrante}[tag]
        if tag == "union-fixed":
            return union_bound_fixed_sizes(query)
        total = layout.total
        probs = [s / total for s in layout.sizes]
        rates = query.adversary.rates_for(layout.committee_count)
        tight, simple = union_bound_random_sizes(
            total, probs, rates, threshold, layout.sizes)
        return tight if tag == "union-random" else simple
    if tag == "asymptotic":
        return delta_asymptotic(layout, count, threshold)
    query = FailureQuery(layout, ExactAdversary(count), threshold)
    if tag == "exact-hypergeometric":
        return delta_exact_hypergeometric(query)
    exact, hoeffding = union_bound_hypergeometric(query)
    return exact if tag == "union-hyper-exact" else hoeffding


def _delta_row(result) -> dict:
    return {
        "method": result.method,
        "delta": result.delta,
        "log_delta": result.log_delta,
        "log_survival": result.log_survival,
        "raw_log_delta": result.raw_log_delta,
        "clamped": result.clamped,
        "precondition_ok": result.precondition_ok,
        "warnings": ";".join(result.warnings),
    }


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_delta(args, parser):
    layout = _layout_from_args(args, parser)
    tags = [t.strip() for t in args.method.split(",") if t.strip()]
    if not tags:
        parser.error("--method must list at least one method tag")
    rows = []
    for tag in tags:
        if tag.startswith("monte-carlo"):
            parser.error("use the simulate subcommand for Monte Carlo estimates")
        if tag not in _AVERAGE_METHODS | _EXACT_METHODS:
            parser.error(f"unknown method {tag!r}")
        frac = _require_frac(args, parser) if tag in _AVERAGE_METHODS else None
        count = _derive_count(args, parser, layout.total) if tag in _EXACT_METHODS else None
        rows.append(_delta_row(_evaluate_analytic(tag, layout, args.threshold,
                                                  frac, count)))
    return rows, _DELTA_COLUMNS


def _cmd_bounds(args, parser):
    layout = _layout_from_args(args, parser)
    if args.adversary_frac is None and args.adversary_count is None:
        parser.error("need --adversary-frac or --adversary-count")
    tags = []
    if args.adversary_frac is not None:
        tags += ["exact-binomial", "theorem1-lower", "theorem1-upper-ash",
                 "theorem1-upper-ferrante", "union-fixed", "union-random",
                 "union-random-simple"]
    tags += ["union-hyper-exact", "union-hyper-hoeffding"]
    count = _derive_count(args, parser, layout.total)
    rows = []
    for tag in tags:
        frac = args.adversary_frac if tag in _AVERAGE_METHODS else None
        rows.append(_delta_row(_evaluate_analytic(
            tag, layout, args.threshold, frac,
            count if tag in _EXACT_METHODS else None)))
    return rows, _DELTA_COLUMNS


def _cmd_asymptotic(args, parser):
    layout = _layout_from_args(args, parser)
    count = _derive_count(args, parser, layout.total)
    row = _delta_row(delta_asymptotic(layout, count, args.threshold))
    return [row], _DELTA_COLUMNS


def _cmd_size(args, parser):
    if args.min_n_for_k is not None:
        n = min_committee_size(args.min_n_for_k, args.delta, args.threshold,
                               args.adversary_frac, args.model)
        bracket = None
        if args.model == "average":
            try:
                bracket = size_bracket(args.min_n_for_k, args.delta,
                                       args.threshold, args.adversary_frac)
            except ValueError:
                bracket = None
        row = {
            "K": args.min_n_for_k,
            "n": n,
            "model": args.model,
            "bracket_lower": None if bracket is None else bracket.lower,
            "bracket_upper": None if bracket is None else bracket.upper,
        }
        return [row], ["K", "n", "model", "bracket_lower", "bracket_upper"]
    if args.nodes is None:
        parser.error("size needs --nodes (or --min-n-for-K)")
    result = max_committees(args.nodes, args.delta, args.threshold,
                            args.adversary_frac)
    row = {
        "K": result.committees,
        "n": result.base_size,
        "r": result.remainder,
        "prob": result.prob,
        "iterations": result.iterations,
    }
    return [row], ["K", "n", "r", "prob", "iterations"]


def _cmd_simulate(args, parser):
    layout = _layout_from_args(args, parser)
    if args.adversary_count is not None:
        adversary = ExactAdversary(args.adversary_count)
    elif args.adversary_frac is not None:
        adversary = AverageAdversary(args.adversary_frac)
    else:
        parser.error("need --adversary-frac or --adversary-count")
    plan = SimulationPlan(
        query=FailureQuery(layout, adversary, args.threshold),
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
    )
    estimate = estimate_delta(plan)
    row = {
        "delta_hat": estimate.delta_hat,
        "std_error": estimate.std_error,
        "ci_low": estimate.ci95[0],
        "ci_high": estimate.ci95[1],
        "failures": estimate.failures,
        "samples": estimate.samples,
    }
    return [row], list(row.keys())


# ---------------------------------------------------------------------------
# sweeps


def _sweep_config(args, parser) -> dict:
    if args.config is not None:
        raw = json.loads(Path(args.config).read_text())
        if raw.get("schema") != CONFIG_SCHEMA_VERSION:
            parser.error(
                f"config schema must be {CONFIG_SCHEMA_VERSION}, got {raw.get('schema')!r}")
        k_range = raw.get("k_range")
        if isinstance(k_range, list) and len(k_range) in (2, 3):
            k_values = list(range(k_range[0], k_range[1] + 1,
                                  k_range[2] if len(k_range) == 3 else 1))
        else:
            parser.error("config k_range must be [lo, hi] or [lo, hi, step]")
        def rate_of(key):
            value = raw.get(key)
            if value is None:
                return None
            return _parse_rate(value) if isinstance(value, str) else float(value)
        config = {
            "mode": raw.get("mode"),
            "nodes": raw.get("nodes"),
            "k_values": k_values,
            "delta_target": raw.get("delta_target"),
            "threshold": rate_of("threshold"),
            "adversary_frac": rate_of("adversary_frac"),
            "methods": raw.get("methods"),
            "samples": raw.get("samples", 1_000_000),
            "seed": raw.get("seed", 0),
            "workers": raw.get("workers", 1),
        }
    else:
        config = {
            "mode": args.mode,
            "nodes": args.nodes,
            "k_values": args.k_range,
            "delta_target": args.delta,
            "threshold": args.threshold,
            "adversary_frac": args.adversary_frac,
            "methods": None if args.methods is None else [
                t.strip() for t in args.methods.split(",") if t.strip()],
            "samples": args.samples,
            "seed": args.seed,
            "workers": args.workers,
        }
    if config["mode"] not in ("sweep-k", "sweep-n"):
        parser.error("sweep needs --mode sweep-k or sweep-n (or a config file)")
    if not config["k_values"]:
        parser.error("empty committee-count range")
    if config["threshold"] is None:
        parser.error("sweep needs --threshold")
    if not config["methods"]:
        parser.error("sweep needs --methods")
    if config["adversary_frac"] is None:
        parser.error("sweep needs --adversary-frac")
    known = set(_SWEEP_K_METHODS if config["mode"] == "sweep-k" else _SWEEP_N_METHODS)
    for tag in config["methods"]:
        if tag not in known:
            parser.error(f"unknown method {tag!r} for {config['mode']}")
    if config["mode"] == "sweep-k" and config["nodes"] is None:
        parser.error("sweep-k needs --nodes")
    if config["mode"] == "sweep-n" and config["delta_target"] is None:
        parser.error("sweep-n needs --delta")
    return config


def _sweep_k_cell(tag, layout, config):
    threshold = config["threshold"]
    frac = config["adversary_frac"]
    count = exact_count_from_rate(layout.total, frac)
    if tag == "monte-carlo":
        tag = "monte-carlo-average"
    if tag.startswith("monte-carlo"):
        adversary = (AverageAdversary(frac) if tag.endswith("average")
                     else ExactAdversary(count))
        plan = SimulationPlan(
            query=FailureQuery(layout, adversary, threshold),
            samples=config["samples"], seed=config["seed"],
            workers=config["workers"],
        )
        return estimate_delta(plan)
    return _evaluate_analytic(tag, layout, threshold, frac, count)


def _flags_of(result) -> str:
    flags = []
    if isinstance(result, DeltaEstimate):
        return ""
    if result.clamped:
        flags.append("clamped")
    if not result.precondition_ok:
        flags.append("precond")
    return ";".join(flags)


def _run_sweep_k(config):
    columns = ["K", "n", "r"]
    for tag in config["methods"]:
        columns.append(tag)
        if tag.startswith("monte-carlo"):
            columns.append(f"{tag}_se")
        columns.append(f"{tag}_flags")
    rows = []
    for k in config["k_values"]:
        layout = layout_from_split(config["nodes"], k)
        base, rem = divmod(config["nodes"], k)
        row = {"K": k, "n": base, "r": rem}
        for tag in config["methods"]:
            try:
                result = _sweep_k_cell(tag, layout, config)
            except (ValueError, ArithmeticError) as exc:
                row[tag] = None
                if tag.startswith("monte-carlo"):
                    row[f"{tag}_se"] = None
                row[f"{tag}_flags"] = f"error:{exc}"
                continue
            if isinstance(result, DeltaEstimate):
                row[tag] = result.delta_hat
                row[f"{tag}_se"] = result.std_error
                row[f"{tag}_flags"] = ""
            else:
                row[tag] = result.delta
                row[f"{tag}_flags"] = _flags_of(result)
        rows.append(row)
    return rows, columns


def _solve_n_for_method(tag, k, config):
    threshold = config["threshold"]
    frac = config["adversary_frac"]
    target = config["delta_target"]
    if tag in ("exact-binomial", "exact-hypergeometric"):
        model = "average" if tag == "exact-binomial" else "exact"
        return min_committee_size(k, target, threshold, frac, model)

    def delta_of(n: int) -> float:
        layout = CommitteeLayout.from_runs(((n, k),))
        if tag == "asymptotic":
            count = exact_count_from_rate(layout.total, frac)
            if count == 0:
                return 0.0
            if count == layout.total:
                return 1.0
            try:
                return delta_asymptotic(layout, count, threshold).delta
            except ValueError:
                # no tilt: the allowance cannot host the adversary mass,
                # so such a small size is simply infeasible
                return 1.0
        count = (exact_count_from_rate(layout.total, frac)
                 if tag in _EXACT_METHODS else None)
        return _evaluate_analytic(tag, layout, threshold, frac, count).delta

    n = 1
    while n <= 1_000_000:
        if delta_of(n) <= target and delta_of(n + 1) <= target:
            return n
        n += 1
    raise ValueError("no committee size up to 1000000 meets the target")


def _run_sweep_n(config):
    columns = ["K"]
    for tag in config["methods"]:
        if tag == "bracket":
            columns += ["bracket-lower", "bracket-upper"]
        else:
            columns += [tag, f"{tag}_flags"]
    rows = []
    for k in config["k_values"]:
        row = {"K": k}
        for tag in config["methods"]:
            if tag == "bracket":
                bracket = size_bracket(k, config["delta_target"],
                                       config["threshold"],
                                       config["adversary_frac"])
                row["bracket-lower"] = bracket.lower
                row["bracket-upper"] = bracket.upper
                continue
            try:
                row[tag] = _solve_n_for_method(tag, k, config)
                row[f"{tag}_flags"] = ""
            except (ValueError, ArithmeticError) as exc:
                row[tag] = None
                row[f"{tag}_flags"] = f"error:{exc}"
        rows.append(row)
    return rows, columns


def _cmd_sweep(args, parser):
    config = _sweep_config(args, parser)
    if config["mode"] == "sweep-k":
        return _run_sweep_k(config)
    return _run_sweep_n(config)


# ---------------------------------------------------------------------------
# output


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(rows, columns, fmt: str, output: str | None) -> None:
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(col)) for col in columns])
        text = buffer.getvalue()
    else:
        payload = [{col: row.get(col) for col in columns} for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


_HANDLERS = {
    "delta": _cmd_delta,
    "bounds": _cmd_bounds,
    "asymptotic": _cmd_asymptotic,
    "size": _cmd_size,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse handles usage errors and --help
        return int(exit_.code or 0)
    try:
        rows, columns = _HANDLERS[args.command](args, parser)
        _emit(rows, columns, args.format, args.output)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a defect, reported on one line like any other error
        print(f"error: internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
