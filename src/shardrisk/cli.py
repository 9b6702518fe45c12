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
import functools
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .failure import DeltaResult
from .methods import METHODS, method_query
from .partitions import CommitteeLayout, layout_from_split
from .simulate import DeltaEstimate, SimulationPlan, estimate_delta
from .sizing import max_committees, min_committee_size, scan_committee_size, size_bracket

CONFIG_SCHEMA_VERSION = 1

_DELTA_COLUMNS = [
    "method", "delta", "log_delta", "log_survival", "raw_log_delta",
    "clamped", "precondition_ok", "warnings",
]


def _parse_rate(text: str) -> Fraction | float:
    """'1/3' parses to an exact rational, anything else to a float."""
    try:
        return Fraction(text) if "/" in text else float(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"bad rate {text!r}: zero denominator") from None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad rate {text!r}, expected a decimal or 'p/q'") from None


def _parse_layout(text: str) -> CommitteeLayout:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad layout {text!r}, expected 'n1,n2,...'") from None
    try:
        return CommitteeLayout(sizes)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad layout {text!r}: {exc}") from None


def _parse_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"bad range {text!r}, expected 'lo:hi' or 'lo:hi:step'")
    try:
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad range {text!r}, expected whole numbers 'lo:hi' or 'lo:hi:step'") from None
    if step < 1:
        raise argparse.ArgumentTypeError("range step must be positive")
    if lo < 1:
        raise argparse.ArgumentTypeError("committee counts start at 1")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty committee-count range {text!r}")
    return list(range(lo, hi + 1, step))


def _parse_tags(text: str) -> list[str]:
    tags = [tag.strip() for tag in text.split(",") if tag.strip()]
    if not tags:
        raise argparse.ArgumentTypeError("expected a comma list of method tags")
    return tags


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


@functools.cache  # one parser per process: building it takes about 2 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shardrisk",
        description="failure probabilities and sizing for random committee partitions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_delta = sub.add_parser("delta", help="failure probability by one or more methods")
    _add_query_flags(p_delta)
    p_delta.add_argument("--method", type=_parse_tags, required=True,
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

    # a sweep flag not given sets no attribute; _SWEEP_DEFAULTS has defaults
    p_sweep = sub.add_parser("sweep", help="grid sweeps over K",
                             argument_default=argparse.SUPPRESS)
    p_sweep.add_argument("--config", default=None, help="JSON sweep config")
    p_sweep.add_argument("--mode", choices=("sweep-k", "sweep-n"))
    p_sweep.add_argument("--nodes", type=int)
    p_sweep.add_argument("--k-range", type=_parse_range, dest="k_range")
    p_sweep.add_argument("--delta", type=float)
    p_sweep.add_argument("--threshold", type=_parse_rate)
    p_sweep.add_argument("--adversary-frac", type=_parse_rate)
    p_sweep.add_argument("--methods", type=_parse_tags,
                         help="comma list of method tags")
    p_sweep.add_argument("--samples", type=int)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--workers", type=int)
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


def _evaluate(tag: str, layout: CommitteeLayout, args, parser,
              count: int | None = None) -> DeltaResult | DeltaEstimate:
    """One method tag on a layout at the rate, count and threshold of ``args``:
    its evaluator, or Monte Carlo with the samples, seed and workers of ``args``."""
    method = METHODS[tag]
    frac = args.adversary_frac
    if frac is None and method.model == "average":
        parser.error("this method needs --adversary-frac")
    if frac is None and count is None:
        parser.error("this method needs --adversary-count or --adversary-frac")
    query = method_query(method.model, layout, args.threshold, frac, count)
    if method.evaluate is not None:
        return method.evaluate(query)
    return estimate_delta(SimulationPlan(query=query, samples=args.samples,
                                         seed=args.seed, workers=args.workers))


def _delta_rows(tags, layout: CommitteeLayout, args, parser):
    """One DeltaResult row per analytic method tag."""
    rows = []
    for tag in tags:
        if tag not in METHODS:
            parser.error(f"unknown method {tag!r}")
        if METHODS[tag].evaluate is None:
            parser.error("use the simulate subcommand for Monte Carlo estimates")
        result = _evaluate(tag, layout, args, parser, args.adversary_count)
        rows.append({**vars(result), "warnings": ";".join(result.warnings)})
    return rows, _DELTA_COLUMNS


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_delta(args, parser):
    return _delta_rows(args.method, _layout_from_args(args, parser), args, parser)


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
    return _delta_rows(tags, layout, args, parser)


def _cmd_asymptotic(args, parser):
    return _delta_rows(["asymptotic"], _layout_from_args(args, parser), args, parser)


def _cmd_size(args, parser):
    if args.min_n_for_k is not None:
        if args.nodes is not None:
            parser.error("--nodes cannot be given with --min-n-for-K")
        k = args.min_n_for_k
        n = min_committee_size(k, args.delta, args.threshold, args.adversary_frac,
                               args.model)
        row = {"K": k, "n": n, "model": args.model}
        bracket = ["bracket_lower", "bracket_upper", "bracket_flags"]
        if args.model == "average":
            _fill_cell(row, bracket, lambda: _sweep_n_cell("bracket", k, args, parser))
        return [row], ["K", "n", "model", *bracket]
    if args.nodes is None:
        parser.error("size needs --nodes (or --min-n-for-K)")
    result = max_committees(args.nodes, args.delta, args.threshold,
                            args.adversary_frac, args.model)
    row = {"K": result.committees, "n": result.base_size, "r": result.remainder,
           "prob": result.prob, "iterations": result.iterations}
    return [row], list(row)


def _cmd_simulate(args, parser):
    model = "average" if args.adversary_count is None else "exact"
    estimate = _evaluate(f"monte-carlo-{model}", _layout_from_args(args, parser), args,
                         parser, args.adversary_count)
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

# sweep flags and their defaults; a config file key is the flag's name,
# "delta_target" for --delta
_SWEEP_DEFAULTS = {"mode": None, "nodes": None, "k_range": None, "delta": None,
                   "threshold": None, "adversary_frac": None, "methods": None,
                   "samples": 1_000_000, "seed": 0, "workers": 1}


def _config_args(path: str, parser) -> argparse.Namespace:
    """The sweep flags a JSON config file stands for, parsed as if given on
    the command line; a list value becomes 'lo:hi[:step]' or a comma list."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError
        parser.error(f"a sweep config must be valid JSON: {exc}")
    if not isinstance(raw, dict) or raw.get("schema") != CONFIG_SCHEMA_VERSION:
        parser.error("a sweep config must be a JSON object with "
                     f'"schema": {CONFIG_SCHEMA_VERSION}')
    argv = ["sweep"]
    for dest in _SWEEP_DEFAULTS:
        value = raw.get("delta_target" if dest == "delta" else dest)
        if isinstance(value, list):
            value = (":" if dest == "k_range" else ",").join(map(str, value))
        if value is not None:
            argv.append(f"--{dest.replace('_', '-')}={value}")
    return parser.parse_args(argv)


def _check_sweep(args, parser) -> None:
    if args.mode is None:
        parser.error("sweep needs --mode sweep-k or sweep-n (or a config file)")
    for dest in ("k_range", "threshold", "methods", "adversary_frac"):
        if getattr(args, dest) is None:
            parser.error(f"sweep needs --{dest.replace('_', '-')}")
    known = set(METHODS) if args.mode == "sweep-k" else {
        "bracket", *(tag for tag, method in METHODS.items() if method.evaluate)}
    for tag in args.methods:
        if tag not in known:
            parser.error(f"unknown method {tag!r} for {args.mode}")
    if args.mode == "sweep-k":
        if args.nodes is None or args.nodes < args.k_range[-1]:
            parser.error("sweep-k needs --nodes, at least the largest K of "
                         f"--k-range ({args.k_range[-1]})")
    elif args.delta is None or not 0.0 < args.delta < 1.0:
        parser.error("sweep-n needs --delta strictly inside (0, 1)")
    elif not args.adversary_frac < args.threshold:
        # at P >= A a size is degenerate or none is feasible (scans to MAX_SIZE)
        parser.error("sweep-n needs --adversary-frac below --threshold")


def _cell_columns(tag: str) -> list[str]:
    """The columns of one method tag in a sweep row, its flags last."""
    if tag == "bracket":
        return ["bracket-lower", "bracket-upper", "bracket_flags"]
    if METHODS[tag].evaluate is None:  # Monte Carlo, with its standard error
        return [tag, f"{tag}_se", f"{tag}_flags"]
    return [tag, f"{tag}_flags"]


def _fill_cell(row: dict, names: list[str], compute: Callable[[], tuple]) -> None:
    """One cell's values in its columns, or its error in its flags column."""
    try:
        row.update(zip(names, compute()))
    except (ValueError, ArithmeticError) as exc:
        row[names[-1]] = f"error:{exc}"


def _sweep_k_cell(tag, layout: CommitteeLayout, args, parser) -> tuple:
    """delta of one method tag on one layout, as _cell_columns lists it."""
    result = _evaluate(tag, layout, args, parser)
    if isinstance(result, DeltaEstimate):
        return result.delta_hat, result.std_error, ""
    flags = (("clamped", result.clamped), ("precond", not result.precondition_ok))
    return result.delta, ";".join(flag for flag, raised in flags if raised)


def _sweep_n_cell(tag, k: int, args, parser) -> tuple:
    """Smallest stable size of K committees by one method tag, or the size
    bracket, as _cell_columns lists it."""
    if tag == "bracket":
        bracket = size_bracket(k, args.delta, args.threshold, args.adversary_frac)
        return bracket.lower, bracket.upper, ""
    return scan_committee_size(k, args.delta, args.threshold, args.adversary_frac, tag), ""


def _cmd_sweep(args, parser):
    if args.config is not None:
        for dest in _SWEEP_DEFAULTS:
            if dest in vars(args):
                parser.error(f"--{dest.replace('_', '-')} cannot be given with "
                             "--config; set it in the config file")
        args = _config_args(args.config, parser)
    args = argparse.Namespace(**{**_SWEEP_DEFAULTS, **vars(args)})
    _check_sweep(args, parser)
    sweep_k = args.mode == "sweep-k"
    cell = _sweep_k_cell if sweep_k else _sweep_n_cell
    cells = [(tag, _cell_columns(tag)) for tag in args.methods]
    columns = (["K", "n", "r"] if sweep_k else ["K"]) + [
        name for _, names in cells for name in names]
    rows = []
    for k in args.k_range:
        # a sweep-k cell takes the split of --nodes into K committees
        point, row = k, {"K": k}
        if sweep_k:
            point = layout_from_split(args.nodes, k)
            row["n"], row["r"] = divmod(args.nodes, k)
        for tag, names in cells:
            _fill_cell(row, names, lambda: cell(tag, point, args, parser))
        rows.append(row)
    return rows, columns


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
    except (ValueError, ArithmeticError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a defect, reported on one line like any other error
        print(f"error: internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
