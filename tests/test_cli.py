import csv
import io
import json
import math
import time
import tracemalloc

import pytest

from shardrisk import cli
from shardrisk.cli import main


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

    def test_domain_error_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "delta", "--layout", "2,2", "--adversary-count", "9",
            "--threshold", "1/2", "--method", "exact-hypergeometric",
        )
        assert code == 1
        assert "error" in err


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

        monkeypatch.setattr(cli, "delta_exact_hypergeometric", broken)
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
        "--methods", "exact-binomial,exact-hypergeometric,union-fixed,monte-carlo",
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
        assert first["monte-carlo_se"] != ""

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

    def test_empty_range_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--mode", "sweep-k", "--nodes", "100",
            "--k-range", "5:4", "--threshold", "1/3", "--adversary-frac", "1/4",
            "--methods", "exact-binomial",
        )
        assert code == 2

    def test_config_file_equivalent_to_flags(self, capsys, tmp_path):
        config = {
            "schema": 1,
            "mode": "sweep-k",
            "nodes": 100,
            "k_range": [2, 10],
            "threshold": "1/3",
            "adversary_frac": "1/4",
            "methods": ["exact-binomial", "exact-hypergeometric", "union-fixed",
                        "monte-carlo"],
            "samples": 2000,
            "seed": 11,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        _, out_flags, _ = run_cli(capsys, *self.BASE)
        code, out_config, _ = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 0
        assert out_config == out_flags

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
