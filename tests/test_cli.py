import ast
import csv
import importlib
import importlib.util
import io
import json
import math
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import exact_m_failure_survival, scan_largest_committee_count
from shardrisk import failure, methods
from shardrisk.cli import main
from shardrisk.failure import FailureQuery
from shardrisk.partitions import (
    AverageAdversary,
    CommitteeLayout,
    ExactAdversary,
    layout_from_split,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


class TestDeltaCommand:
    def test_exact_binomial(self, capsys):
        code, out, _ = run_cli(
            capsys, "delta", "--nodes", "10", "--committees", "2",
            "--adversary-frac", "0.25", "--threshold", "1/3",
            "--method", "exact-binomial",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["method"] == "exact-binomial"
        assert float(rows[0]["delta"]) == pytest.approx(0.59954833984375, abs=1e-12)

    def test_exact_hypergeometric(self, capsys):
        code, out, _ = run_cli(
            capsys, "delta", "--layout", "2,2", "--adversary-count", "2",
            "--threshold", "1/2", "--method", "exact-hypergeometric",
        )
        assert code == 0
        assert float(parse_csv(out)[0]["delta"]) == pytest.approx(1 / 3, abs=1e-12)

    def test_zero_adversaries(self, capsys):
        code, out, _ = run_cli(
            capsys, "delta", "--nodes", "10", "--committees", "2",
            "--adversary-frac", "0", "--threshold", "1/3",
            "--method", "exact-binomial",
        )
        assert code == 0
        assert float(parse_csv(out)[0]["delta"]) == 0.0

    def test_multiple_methods_one_row_each(self, capsys):
        code, out, _ = run_cli(
            capsys, "delta", "--nodes", "100", "--committees", "4",
            "--adversary-frac", "1/4", "--threshold", "1/3",
            "--method", "exact-binomial,exact-hypergeometric,union-fixed",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["method"] for r in rows] == [
            "exact-binomial", "exact-hypergeometric", "union-fixed",
        ]

    def test_json_format_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "delta", "--nodes", "20", "--committees", "2",
            "--adversary-frac", "0.25", "--threshold", "1/3",
            "--method", "exact-binomial", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["method"] == "exact-binomial"
        assert 0.0 <= payload[0]["delta"] <= 1.0

    def test_unknown_method_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "delta", "--nodes", "10", "--committees", "2",
            "--adversary-frac", "0.25", "--threshold", "1/3",
            "--method", "nonsense",
        )
        assert code == 2

    def test_missing_adversary_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "delta", "--nodes", "10", "--committees", "2",
            "--threshold", "1/3", "--method", "exact-binomial",
        )
        assert code == 2

    @pytest.mark.parametrize("threshold, frac", [("1/0", "1/4"), ("1/3", "1/0")])
    def test_zero_denominator_rate_is_usage_error(self, capsys, threshold, frac):
        code, out, err = run_cli(
            capsys, "delta", "--nodes", "100", "--committees", "2",
            "--adversary-frac", frac, "--threshold", threshold,
            "--method", "exact-binomial",
        )
        assert code == 2 and out == ""
        assert err.startswith("usage:") and "zero denominator" in err

    @pytest.mark.parametrize("argv, reason", [
        (["bounds", "--layout", "10,0", "--adversary-frac", "1/4"],
         "bad layout '10,0': every committee needs at least one node, got size 0"),
        (["bounds", "--layout", "10,x", "--adversary-frac", "1/4"],
         "bad layout '10,x', expected 'n1,n2,...'"),
        (["sweep", "--mode", "sweep-k", "--nodes", "100", "--k-range", "a:b",
          "--adversary-frac", "1/4", "--methods", "exact-binomial"],
         "bad range 'a:b', expected whole numbers"),
        (["sweep", "--mode", "sweep-k", "--nodes", "100", "--k-range", "1:3:x",
          "--adversary-frac", "1/4", "--methods", "exact-binomial"],
         "bad range '1:3:x', expected whole numbers"),
        (["bounds", "--nodes", "100", "--committees", "2", "--adversary-frac", "abc"],
         "bad rate 'abc', expected a decimal or 'p/q'"),
        (["bounds", "--nodes", "100", "--committees", "2", "--adversary-frac", "1/x"],
         "bad rate '1/x', expected a decimal or 'p/q'"),
    ], ids=["layout-size-zero", "layout-text", "range-text", "range-step-text",
            "rate-text", "rate-fraction-text"])
    def test_malformed_value_names_the_reason(self, capsys, argv, reason):
        code, out, err = run_cli(capsys, *argv, "--threshold", "1/3")
        assert code == 2 and out == ""
        assert err.startswith("usage:") and reason in err and "_parse" not in err

    def test_domain_error_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "delta", "--layout", "2,2", "--adversary-count", "9",
            "--threshold", "1/2", "--method", "exact-hypergeometric",
        )
        assert code == 1
        assert "error" in err

    def test_bounds_at_threshold_one(self, capsys):
        # no committee can hold more than all of its nodes: every bound is 0
        code, out, err = run_cli(
            capsys, "bounds", "--nodes", "100", "--committees", "4",
            "--adversary-frac", "1/4", "--threshold", "1",
        )
        assert code == 0 and err == ""
        rows = parse_csv(out)
        assert len(rows) == 9
        assert all(row["delta"] == "0.0" for row in rows)


class TestInternalErrors:
    def test_bounds_at_ten_thousand_nodes(self, capsys):
        code, out, err = run_cli(
            capsys, "bounds", "--nodes", "10000", "--committees", "100",
            "--adversary-frac", "1/4", "--threshold", "1/3",
        )
        assert code == 0 and err == ""
        assert len(parse_csv(out)) == 9

    def test_internal_error_exits_one_without_traceback(self, capsys, monkeypatch):
        def broken(query):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(methods, "delta_exact_hypergeometric", broken)
        code, out, err = run_cli(
            capsys, "delta", "--layout", "2,2", "--adversary-count", "2",
            "--threshold", "1/2", "--method", "exact-hypergeometric",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "RuntimeError" in err and "injected fault" in err
        assert "Traceback" not in err

    def test_exactly_m_beyond_physical_memory_refused(self, capsys):
        # 1e9 committees of 1000: the transform would need about 1e14 bytes
        tracemalloc.start()
        try:
            started = time.perf_counter()
            code, out, err = run_cli(
                capsys, "delta", "--nodes", "1000000000000", "--committees",
                "1000000000", "--adversary-frac", "1/4", "--threshold", "1/3",
                "--method", "exact-hypergeometric",
            )
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "physical memory" in err
        assert elapsed < 5.0 and peak < 1 << 20

    def test_asymptotic_beyond_physical_memory_refused(self, capsys):
        # 2 committees of 5e11: the saddle's capped rows would need about 2.7e13 bytes
        tracemalloc.start()
        try:
            started = time.perf_counter()
            code, out, err = run_cli(
                capsys, "delta", "--nodes", "1000000000000", "--committees", "2",
                "--adversary-frac", "3/10", "--threshold", "1/3", "--method", "asymptotic",
            )
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "physical memory" in err and "internal error" not in err
        assert elapsed < 5.0 and peak < 1 << 20


class TestBoundsCommand:
    def test_average_model_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--nodes", "200", "--committees", "4",
            "--adversary-frac", "0.25", "--threshold", "1/3",
        )
        assert code == 0
        methods = [r["method"] for r in parse_csv(out)]
        assert "theorem1-lower" in methods
        assert "union-random-simple" in methods
        assert "union-hyper-hoeffding" in methods

    def test_count_model_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--layout", "50,50", "--adversary-count", "25",
            "--threshold", "1/3",
        )
        assert code == 0
        methods = [r["method"] for r in parse_csv(out)]
        assert methods == ["union-hyper-exact", "union-hyper-hoeffding"]

    def test_random_sizes_one_committee_without_adversaries(self, capsys):
        # N = 10 in one committee at P = 0: the tight form is 0, the simple
        # form e^-N
        code, out, err = run_cli(capsys, "bounds", "--layout", "10",
                                 "--adversary-frac", "0", "--threshold", "1/3")
        assert code == 0 and err == ""
        rows = {r["method"]: r for r in parse_csv(out)}
        assert float(rows["union-random"]["delta"]) == 0.0
        assert float(rows["union-random-simple"]["log_delta"]) == -10.0
        assert float(rows["union-random-simple"]["delta"]) == math.exp(-10)

    def test_random_sizes_sweep_from_one_committee(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--mode", "sweep-k", "--nodes", "12", "--k-range", "1:2",
            "--threshold", "1/3", "--adversary-frac", "0",
            "--methods", "union-random,union-random-simple")
        assert code == 0
        first = parse_csv(out)[0]
        assert first["K"] == "1"
        assert first["union-random_flags"] == first["union-random-simple_flags"] == ""
        assert float(first["union-random"]) == 0.0
        assert float(first["union-random-simple"]) == math.exp(-12)
        assert first["union-random-simple"] == "6.14421235332821e-06"


class TestAsymptoticCommand:
    def test_runs_from_fraction(self, capsys):
        code, out, _ = run_cli(
            capsys, "asymptotic", "--nodes", "10000", "--committees", "100",
            "--adversary-frac", "1/4", "--threshold", "1/3",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["method"] == "asymptotic"
        assert 0.9 < float(row["delta"]) < 1.0


class TestSizeCommand:
    def test_matches_scan_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "size", "--nodes", "20", "--delta", "0.5",
            "--threshold", "1/3", "--adversary-frac", "0.25",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert (row["K"], row["n"], row["r"]) == ("2", "10", "0")

    def test_unreachable_target_reports_zero_probability(self, capsys):
        code, out, _ = run_cli(
            capsys, "size", "--nodes", "20", "--delta", "1e-9",
            "--threshold", "1/3", "--adversary-frac", "0.25",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert (row["K"], row["n"], row["r"], row["prob"]) == ("1", "20", "0", "0.0")

    def test_single_node(self, capsys):
        code, out, _ = run_cli(
            capsys, "size", "--nodes", "1", "--delta", "0.5",
            "--threshold", "1/3", "--adversary-frac", "0.25",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert (row["K"], row["n"], row["r"]) == ("1", "1", "0")

    def test_min_size_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "size", "--delta", "1e-3",
            "--threshold", "1/3", "--adversary-frac", "0.25",
            "--min-n-for-K", "1",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert int(row["n"]) <= 398
        assert float(row["bracket_lower"]) <= int(row["n"]) <= float(row["bracket_upper"])

    def test_size_without_nodes_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "size", "--delta", "1e-3", "--threshold", "1/3",
            "--adversary-frac", "0.25",
        )
        assert code == 2

    def test_exact_model_largest_count_matches_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "size", "--nodes", "60", "--delta", "0.5",
            "--threshold", "1/3", "--adversary-frac", "1/4", "--model", "exact",
        )
        assert code == 0

        def delta_of(k):  # 15 of the 60 nodes adversarial
            failing, _, ways = exact_m_failure_survival(
                layout_from_split(60, k).runs, 15, Fraction(1, 3))
            return Fraction(failing, ways)

        oracle = scan_largest_committee_count(60, delta_of, 0.5)
        row = parse_csv(out)[0]
        assert (row["K"], row["iterations"]) == (str(oracle), "59")
        assert oracle > 1  # not the single-committee fallback

    def test_nodes_with_min_n_is_usage_error(self, capsys):
        # --min-n-for-K fixes K, so a node total would be ignored
        code, out, err = run_cli(
            capsys, "size", "--nodes", "1000", "--min-n-for-K", "5", "--delta", "1e-3",
            "--threshold", "1/3", "--adversary-frac", "1/4",
        )
        assert code == 2 and out == ""
        assert "--nodes" in err and "--min-n-for-K" in err

    @pytest.mark.parametrize("model", ["average", "exact"])
    def test_min_n_row_ends_with_bracket_flags(self, capsys, model):
        code, out, _ = run_cli(
            capsys, "size", "--delta", "1e-3", "--threshold", "1/3",
            "--adversary-frac", "1/4", "--min-n-for-K", "2", "--model", model,
        )
        assert code == 0
        assert out.splitlines()[0] == "K,n,model,bracket_lower,bracket_upper,bracket_flags"
        row = parse_csv(out)[0]
        assert row["n"] == ("306" if model == "average" else "141")
        assert row["bracket_flags"] == ""

    def test_min_n_bracket_error_in_its_flags(self, capsys):
        # at P = 0 the size is 1 but the bracket is undefined; it says why
        code, out, _ = run_cli(
            capsys, "size", "--delta", "1e-4", "--threshold", "1/3",
            "--adversary-frac", "0", "--min-n-for-K", "3",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert (row["n"], row["bracket_lower"], row["bracket_upper"]) == ("1", "", "")
        assert row["bracket_flags"].startswith("error:need 0 < adversary_rate")

    @pytest.mark.parametrize("model", ["average", "exact"])
    @pytest.mark.parametrize("direction", [["--min-n-for-K", "7"], ["--nodes", "300"]],
                             ids=["min-n", "nodes"])
    def test_min_n_at_rate_above_threshold_exits_one(self, capsys, model, direction):
        # no layout is feasible: the average model once scanned toward 1e6, and
        # --nodes once printed the single committee with probability 0
        code, out, err = run_cli(
            capsys, "size", *direction, "--delta", "1e-3",
            "--threshold", "1/3", "--adversary-frac", "1/2", "--model", model,
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "below threshold" in err


class TestSimulateCommand:
    def test_estimate_close_to_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--layout", "5,5", "--adversary-frac", "0.25",
            "--threshold", "1/3", "--samples", "100000", "--seed", "7",
        )
        assert code == 0
        row = parse_csv(out)[0]
        exact = 0.59954833984375
        se = math.sqrt(exact * (1 - exact) / 100000)
        assert abs(float(row["delta_hat"]) - exact) <= 5 * se

    def test_single_sample(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--layout", "5,5", "--adversary-frac", "0.25",
            "--threshold", "1/3", "--samples", "1", "--seed", "7",
        )
        assert code == 0
        assert float(parse_csv(out)[0]["delta_hat"]) in (0.0, 1.0)

    def test_worker_count_invariance(self, capsys):
        outs = []
        for workers in ("1", "8"):
            code, out, _ = run_cli(
                capsys, "simulate", "--layout", "20,20,20", "--adversary-count",
                "15", "--threshold", "1/3", "--samples", "50000", "--seed", "3",
                "--workers", workers,
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_network_beyond_sampler_domain_exits_one(self, capsys):
        # numpy's hypergeometric sampler takes fewer than 1e9 nodes per colour
        code, out, err = run_cli(
            capsys, "simulate", "--layout", "600000000,600000000",
            "--adversary-count", "100000", "--threshold", "1/3",
            "--samples", "10", "--seed", "7",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "internal error" not in err and "Traceback" not in err


class TestSweepCommand:
    BASE = [
        "sweep", "--mode", "sweep-k", "--nodes", "100", "--k-range", "2:10",
        "--threshold", "1/3", "--adversary-frac", "1/4",
        "--methods", "exact-binomial,exact-hypergeometric,union-fixed,monte-carlo-average",
        "--samples", "2000", "--seed", "11",
    ]

    def test_sweep_k_table(self, capsys):
        code, out, _ = run_cli(capsys, *self.BASE)
        assert code == 0
        rows = parse_csv(out)
        assert [r["K"] for r in rows] == [str(k) for k in range(2, 11)]
        first = rows[0]
        assert first["n"] == "50" and first["r"] == "0"
        assert 0.0 <= float(first["exact-binomial"]) <= 1.0
        assert first["monte-carlo-average_se"] != ""

    def test_byte_identical_repeats(self, capsys):
        _, out1, _ = run_cli(capsys, *self.BASE)
        _, out2, _ = run_cli(capsys, *self.BASE)
        assert out1 == out2

    def test_clamped_flag_surfaces(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--mode", "sweep-k", "--nodes", "40",
            "--k-range", "8:8", "--threshold", "1/3", "--adversary-frac", "1/4",
            "--methods", "union-fixed",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["union-fixed"] == "1.0"
        assert "clamped" in row["union-fixed_flags"]

    @pytest.mark.parametrize("k_range", ["5:4", "0:2"])
    def test_empty_range_is_usage_error(self, capsys, k_range):
        code, _, _ = run_cli(
            capsys, "sweep", "--mode", "sweep-k", "--nodes", "100",
            "--k-range", k_range, "--threshold", "1/3", "--adversary-frac", "1/4",
            "--methods", "exact-binomial",
        )
        assert code == 2

    def test_k_past_nodes_is_usage_error(self, capsys):
        # before any cell runs, so no K <= N answer is computed and lost
        code, out, err = run_cli(
            capsys, "sweep", "--mode", "sweep-k", "--nodes", "5", "--k-range", "2:8",
            "--threshold", "1/3", "--adversary-frac", "1/4",
            "--methods", "exact-binomial",
        )
        assert code == 2 and out == ""
        assert "--nodes, at least the largest K of --k-range (8)" in err

    def test_k_range_up_to_nodes_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--mode", "sweep-k", "--nodes", "5", "--k-range", "2:5",
            "--threshold", "1/3", "--adversary-frac", "1/4",
            "--methods", "exact-binomial",
        )
        assert code == 0
        assert [row["K"] for row in parse_csv(out)] == ["2", "3", "4", "5"]

    SWEEP_N = [
        "sweep", "--mode", "sweep-n", "--k-range", "2:8:3", "--delta", "0.01",
        "--threshold", "1/3", "--adversary-frac", "1/4",
        "--methods", "exact-binomial,union-fixed,bracket",
    ]

    @pytest.mark.parametrize("config, argv", [
        ({"schema": 1, "mode": "sweep-k", "nodes": 100, "k_range": [2, 10],
          "threshold": "1/3", "adversary_frac": "1/4",
          "methods": ["exact-binomial", "exact-hypergeometric", "union-fixed",
                      "monte-carlo-average"],
          "samples": 2000, "seed": 11}, BASE),
        # a numeric string reads as the flag's text would
        ({"schema": 1, "mode": "sweep-k", "nodes": "100", "k_range": [2, 10],
          "threshold": "1/3", "adversary_frac": 0.25,
          "methods": "exact-binomial,exact-hypergeometric,union-fixed,monte-carlo-average",
          "samples": 2000, "seed": "11"}, BASE),
        ({"schema": 1, "mode": "sweep-n", "k_range": [2, 8, 3], "delta_target": 0.01,
          "threshold": "1/3", "adversary_frac": "1/4",
          "methods": ["exact-binomial", "union-fixed", "bracket"]}, SWEEP_N),
    ], ids=["sweep-k", "numeric-strings", "sweep-n"])
    def test_config_file_equivalent_to_flags(self, capsys, tmp_path, config, argv):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        _, out_flags, _ = run_cli(capsys, *argv)
        code, out_config, _ = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 0
        assert out_config == out_flags

    # a flag given with its default value is caught too
    @pytest.mark.parametrize("flag, value", [("--nodes", "5000"), ("--seed", "0"),
                                             ("--k-range", "2:3")])
    def test_sweep_flag_next_to_config_is_usage_error(self, capsys, tmp_path,
                                                      flag, value):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "schema": 1, "mode": "sweep-k", "nodes": 100, "k_range": [2, 3],
            "threshold": "1/3", "adversary_frac": "1/4",
            "methods": ["exact-binomial"]}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(path), flag, value)
        assert code == 2 and out == ""
        assert f"{flag} cannot be given with --config" in err

    def test_output_flags_next_to_config(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "schema": 1, "mode": "sweep-k", "nodes": 100, "k_range": [2, 3],
            "threshold": "1/3", "adversary_frac": "1/4",
            "methods": ["exact-binomial"]}))
        out_path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "sweep", "--config", str(path),
                               "--format", "json", "--output", str(out_path))
        assert code == 0 and out == ""
        assert [row["n"] for row in json.loads(out_path.read_text())] == [50, 33]

    @pytest.mark.parametrize("config", [
        [1, 2],
        {"k_range": ["a", 3]},
        {"k_range": [2, 10, 0]},
        {"k_range": [0, 3]},
        {"k_range": [2]},
        {"nodes": "many"},
        {"mode": "sweep-x"},
    ], ids=["list", "k-range-text", "k-range-zero-step", "k-range-from-zero",
            "k-range-one-end", "nodes-text", "mode"])
    def test_malformed_config_is_usage_error(self, capsys, tmp_path, config):
        if isinstance(config, dict):
            config = {"schema": 1, "mode": "sweep-k", "nodes": 100,
                      "k_range": [2, 3], "threshold": "1/3",
                      "adversary_frac": "1/4", "methods": ["exact-binomial"],
                      **config}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("usage:") and "internal error" not in err

    @pytest.mark.parametrize("content", [
        b'{"schema": 1, "mode": "sweep-k",',  # truncated
        b'{"schema": 1, "mode": "sweep-\xff"}',  # not UTF-8
    ])
    def test_config_not_json_is_usage_error(self, capsys, tmp_path, content):
        path = tmp_path / "sweep.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("usage:") and "valid JSON" in err

    @pytest.mark.parametrize("frac", ["1/3", "1/2"])
    def test_sweep_n_rejects_rate_at_or_above_threshold(self, capsys, frac):
        # no committee size is feasible, and each scan would run to MAX_SIZE
        argv = [frac if arg == "1/4" else arg for arg in self.SWEEP_N]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "below --threshold" in err

    def test_bad_schema_version_rejected(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"schema": 99, "mode": "sweep-k"}))
        code, _, _ = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 2

    def test_sweep_n_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--mode", "sweep-n", "--k-range", "1:3",
            "--delta", "0.01", "--threshold", "1/3", "--adversary-frac", "1/4",
            "--methods", "exact-binomial,theorem1-upper-ash,bracket",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 3
        for row in rows:
            n_exact = int(row["exact-binomial"])
            n_ash = int(row["theorem1-upper-ash"])
            assert n_exact <= n_ash  # bound-derived sizes are conservative
            assert float(row["bracket-lower"]) <= n_exact <= float(row["bracket-upper"])

    def test_sweep_n_bracket_error_stays_in_its_cell(self, capsys):
        # the bracket needs P > 0; the exact-binomial column still has answers
        code, out, err = run_cli(
            capsys, "sweep", "--mode", "sweep-n", "--k-range", "2:3",
            "--delta", "0.1", "--threshold", "1/3", "--adversary-frac", "0",
            "--methods", "exact-binomial,bracket",
        )
        assert code == 0 and err == ""
        rows = parse_csv(out)
        assert [row["K"] for row in rows] == ["2", "3"]
        for row in rows:
            assert row["exact-binomial"] == "1" and row["exact-binomial_flags"] == ""
            assert row["bracket-lower"] == row["bracket-upper"] == ""
            assert row["bracket_flags"].startswith("error:need 0 < adversary_rate")

    @pytest.mark.parametrize("delta", ["0", "1", "1.5"])
    def test_sweep_n_rejects_target_outside_unit_interval(self, capsys, delta):
        # delta = 0 would otherwise scan a million sizes per method
        code, out, err = run_cli(
            capsys, "sweep", "--mode", "sweep-n", "--k-range", "2:3",
            "--delta", delta, "--threshold", "1/3", "--adversary-frac", "1/4",
            "--methods", "union-fixed,asymptotic",
        )
        assert code == 2
        assert out == ""
        assert "strictly inside (0, 1)" in err

    @pytest.mark.parametrize("where", ["--config", "--output"])
    def test_missing_path_is_plain_error(self, capsys, tmp_path, where):
        missing = str(tmp_path / "absent" / "x")
        argv = ["sweep", "--config", missing] if where == "--config" else [
            "sweep", "--mode", "sweep-k", "--nodes", "100", "--k-range", "2:3",
            "--threshold", "1/3", "--adversary-frac", "1/4",
            "--methods", "exact-binomial", "--output", missing]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "internal error" not in err and "No such file" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run_cli(
            capsys, "delta", "--nodes", "10", "--committees", "2",
            "--adversary-frac", "0.25", "--threshold", "1/3",
            "--method", "exact-binomial", "--output", str(path),
        )
        assert code == 0
        assert out == ""
        assert "exact-binomial" in path.read_text()


class TestMonteCarloSweepDeterminism:
    def test_worker_invariance_in_sweep(self, capsys):
        base = [
            "sweep", "--mode", "sweep-k", "--nodes", "60", "--k-range", "2:4",
            "--threshold", "1/3", "--adversary-frac", "1/4",
            "--methods", "monte-carlo-average,monte-carlo-exact",
            "--samples", "40000", "--seed", "5",
        ]
        _, out1, _ = run_cli(capsys, *base, "--workers", "1")
        _, out2, _ = run_cli(capsys, *base, "--workers", "6")
        assert out1 == out2


# stdout of delta (every analytic tag, CSV and JSON), bounds (rate and count),
# asymptotic, sweep-k (every analytic tag) and sweep-n, recorded before the
# method tags shared one registry; the registry must reproduce it byte for
# byte.  The sweep-n entry was re-recorded when the bracket gained its own
# bracket_flags column (empty here); no other byte of it changed.  Two
# entries were recorded before sweep-k, sweep-n and size shared one sweep
# loop: sweep-k-monte-carlo pins the Monte Carlo value and _se columns, and
# sweep-n-from-k1 the asymptotic, bound and bracket cells from K = 1.  The
# asymptotic cells of delta-split, delta-layout, delta-json, asymptotic and
# sweep-k were re-recorded when the tilt solve became a Newton search: they
# moved by at most 1.1e-12 in delta, 8.2e-12 relative in log delta and
# 2.7e-12 relative in log survival.  Two entries were recorded before every
# evaluator read one run table and the KL bounds one table of formulas:
# bounds-float-rates pins float rates and equal sizes that are not
# neighbours, and delta-caps-at-size every analytic tag with each allowed
# count at its committee size.  sweep-n-every-tag and
# sweep-n-every-tag-quarter were recorded before sweep-n and sizing shared
# one feasibility predicate per tag: every analytic tag plus the bracket.
# Four log_survival cells were re-recorded when the two exact evaluators
# began deriving it from log delta below delta = 1/2: the exact-binomial
# rows of bounds-float-rates, bounds-frac and delta-split, and the
# exact-hypergeometric row of delta-split.  Each moved toward the exact
# value or stayed at its rounding level; CHANGES.md lists the errors.
# Three entries were re-recorded when the near-1 side of a binomial split and
# exactly-M log delta at delta >= 1/2 became log1mexp of the side below 1/2:
# bounds-precond, delta-layout and sweep-k (CHANGES.md lists the cells).
_GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_registry_output_unchanged(capsys, name):
    code, out, _ = run_cli(capsys, *_GOLDEN[name]["argv"])
    assert code == 0
    assert out == _GOLDEN[name]["stdout"]


def test_registry_covers_every_tag():
    analytic = {tag for tag, method in methods.METHODS.items() if method.evaluate}
    assert analytic == set(_GOLDEN["delta-split"]["argv"][-1].split(","))
    assert set(methods.METHODS) - analytic == {"monte-carlo-average", "monte-carlo-exact"}


def test_kl_tags_are_the_bound_table():
    # every analytic tag but these three is a bound, one row of _BOUNDS,
    # of the row's model, and its evaluator returns that row
    analytic = {tag for tag, method in methods.METHODS.items() if method.evaluate}
    bound_tags = analytic - {"exact-binomial", "exact-hypergeometric", "asymptotic"}
    assert bound_tags == set(failure._BOUNDS)
    layout = CommitteeLayout((12, 10, 12, 11))
    adversaries = {"average": AverageAdversary(Fraction(1, 4)),
                   "exact": ExactAdversary(11)}
    for tag in bound_tags:
        method = methods.METHODS[tag]
        assert method.model == failure._BOUNDS[tag][0]
        query = FailureQuery(layout, adversaries[method.model], Fraction(1, 3))
        assert method.evaluate(query).method == tag


def test_theorem1_tags_walk_the_run_table_once_each(capsys, monkeypatch):
    walks = []
    allowances = CommitteeLayout.allowances

    def counted(layout, threshold):
        walks.append(threshold)
        return allowances(layout, threshold)

    monkeypatch.setattr(CommitteeLayout, "allowances", counted)
    code, _, _ = run_cli(capsys, "delta", "--nodes", "601", "--committees", "4",
                         "--adversary-frac", "1/4", "--threshold", "1/3", "--method",
                         "theorem1-lower,theorem1-upper-ash,theorem1-upper-ferrante")
    assert code == 0
    assert len(walks) == 3


def test_sweep_k_asymptotic_past_the_allowance_is_one(capsys):
    # 12 nodes in K >= 5 committees allow at most 2 of the 3 adversaries, so
    # some committee must fail: delta is exactly 1 by both exactly-M methods
    code, out, _ = run_cli(capsys, "sweep", "--mode", "sweep-k", "--nodes", "12",
                           "--k-range", "1:12", "--adversary-frac", "1/4",
                           "--threshold", "1/3",
                           "--methods", "asymptotic,exact-hypergeometric")
    assert code == 0
    rows = parse_csv(out)
    assert [row["K"] for row in rows] == [str(k) for k in range(1, 13)]
    for row in rows[4:]:
        assert row["asymptotic"] == row["exact-hypergeometric"] == "1.0"
        assert row["asymptotic_flags"] == ""


def test_traced_names_resolve():
    """perfbench's tracer rebinds these names with getattr; a rename in the
    library would break its --trace 1 runs."""
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, names in tracing.TRACED.items():
        module = importlib.import_module(f"shardrisk.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


class TestEvaluatorsRebindable:
    """Instrumentation rebinds evaluators by module-global name; every call
    path must look them up at call time, not hold the function objects."""

    @staticmethod
    def _count(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    # every bound tag calls the one walk _bound; see
    # test_theorem1_tags_walk_the_run_table_once_each
    @pytest.mark.parametrize("tag, name", [
        ("exact-binomial", "delta_exact_binomial"),
        ("exact-hypergeometric", "delta_exact_hypergeometric"),
        ("asymptotic", "delta_asymptotic"),
        ("union-hyper-exact", "_bound"),
    ])
    def test_delta_reaches_each_evaluator(self, capsys, monkeypatch, tag, name):
        calls = self._count(monkeypatch, methods, name)
        code, _, _ = run_cli(capsys, "delta", "--nodes", "600", "--committees", "4",
                             "--adversary-frac", "1/4", "--threshold", "1/3",
                             "--method", tag)
        assert code == 0
        assert calls == [name]

    @pytest.mark.parametrize("argv, column, value", [
        (["--min-n-for-K", "3"], "n", "15"),
        (["--nodes", "60"], "K", "4"),
    ], ids=["min-n", "nodes"])
    def test_exact_sizing_reaches_the_evaluator(self, capsys, monkeypatch, argv,
                                                column, value):
        # sizes where the sandwich straddles the target, so the FFT decides
        calls = self._count(monkeypatch, methods, "delta_exact_hypergeometric")
        code, out, _ = run_cli(capsys, "size", "--delta", "0.5", "--threshold", "1/3",
                               "--adversary-frac", "1/4", "--model", "exact", *argv)
        assert code == 0
        assert parse_csv(out)[0][column] == value
        assert calls


# Defect 1d: the asymptotic column of sweep-n reads a survival estimate
# clamped to 1 as delta = 0, so at K = 2 it reports 48 with no flag, far
# below the exact-binomial size.  Pinned here until the column flags it.
# (It reported 4 while the estimate also clamped at n = 4, where M = 2 fills
# both allowances and the exact survival is 16/28.)
@pytest.mark.xfail(strict=True, reason="defect 1d: clamped asymptotic read as feasible")
def test_sweep_n_asymptotic_flags_clamp_or_reaches_exact_size(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--mode", "sweep-n", "--k-range", "2:2",
                           "--delta", "1e-3", "--threshold", "1/3",
                           "--adversary-frac", "1/4",
                           "--methods", "exact-binomial,asymptotic")
    assert code == 0
    row = parse_csv(out)[0]
    assert row["asymptotic_flags"] or int(row["asymptotic"]) >= int(row["exact-binomial"])


def test_cli_imports_no_private_library_name():
    # the CLI reaches the library through its public names only
    tree = ast.parse(Path(importlib.util.find_spec("shardrisk.cli").origin)
                     .read_text(encoding="utf-8"))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("shardrisk"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
