"""Command-line interface: subcommands, formats, exit codes."""

import csv
import dataclasses
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from pricedisclosure.cli import main
from pricedisclosure.data import PriceEntry, PriceList, load_prices, write_prices
from pricedisclosure.density import fit_kde, fit_parametric
from pricedisclosure.simulator import MarketConfig


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    rng = np.random.default_rng(31)
    cents = sorted(int(c) for c in rng.integers(10000, 30000, size=12))
    prices = PriceList("widget", tuple(PriceEntry("s", c) for c in cents))
    path = tmp_path_factory.mktemp("data") / "widget.csv"
    write_prices(prices, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_counts_exact(capsys):
    code, out, _ = run(capsys, "counts", "--n", "20", "--rho", "10")
    assert code == 0
    assert out == "354522\n"
    assert run(capsys, "counts", "--n", "30", "--rho", "10", "--kind", "interval")[1] == "231\n"
    assert run(capsys, "counts", "--n", "30", "--rho", "10", "--kind", "minimal")[1] == "21\n"


def test_usage_errors_exit_2(capsys, small_csv):
    with pytest.raises(SystemExit) as info:
        main(["counts", "--n", "20"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["disclose", "--data", small_csv, "--method", "warp", "--rho", "3", "--n-new", "5"])
    assert info.value.code == 2
    # conditional flag combinations exit 2 without a traceback
    code, _, err = run(capsys, "critical-cost", "--data", small_csv, "--q", "150")
    assert code == 2
    assert "usage error" in err
    code, _, err = run(
        capsys, "disclose", "--data", small_csv, "--method", "mc", "--rho", "3", "--n-new", "5"
    )
    assert code == 2


def test_bad_workers_and_budgets_exit_2(capsys, small_csv, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": small_csv, "rho": 3, "initial_set_size_n": 8, "trials": 2}))
    simulate = ["simulate", "--config", str(config), "--methods", "mc,full"]
    for workers in ("0", "-2", "two"):
        for argv in (
            ["disclose", "--data", small_csv, "--method", "brute", "--rho", "3", "--n-new", "5"],
            simulate + ["--budgets", "10"],
            ["bench", "--data", small_csv, "--rho", "3", "--n-new", "5"],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv + ["--workers", workers])
            assert info.value.code == 2
            assert "--workers" in capsys.readouterr().err
    for budgets in ("10,,25", "10,x", ""):
        with pytest.raises(SystemExit) as info:
            main(simulate + ["--budgets", budgets])
        assert info.value.code == 2
        assert "--budgets" in capsys.readouterr().err
    # An integer budget below 1 is the library's to reject.
    code, _, err = run(capsys, *simulate, "--budgets", "0,5")
    assert code == 1
    assert "budget must be at least 1, got 0" in err


def test_disclose_deadline_calibrates_a_budget(capsys, small_csv):
    argv = ["disclose", "--data", small_csv, "--method", "mc", "--rho", "3", "--n-new", "5"]
    code, out, _ = run(capsys, *argv, "--deadline-ms", "50")
    assert code == 0
    budget = int(re.search(r"^calibrated budget: (\d+) ", out, flags=re.M).group(1))
    assert budget >= 1
    assert f"\nevaluations: {budget}\n" in out
    code, _, err = run(capsys, *argv, "--deadline-ms", "50", "--budget", "10")
    assert code == 2
    assert "mutually exclusive" in err
    for deadline in ("0", "-5", "nan", "inf"):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--deadline-ms", deadline])
        assert info.value.code == 2
        assert "--deadline-ms" in capsys.readouterr().err


def test_computation_errors_exit_1(capsys, small_csv):
    code, _, err = run(
        capsys, "disclose", "--builtin", "printer", "--method", "brute", "--rho", "10",
        "--n-new", "5",
    )
    assert code == 1
    assert "subset_count" in err
    code, _, err = run(capsys, "critical-cost", "--data", "/no/such/file.csv",
                       "--q", "1", "--n-new", "2")
    assert code == 1
    assert "no such file" in err


def test_critical_cost_single(capsys, small_csv):
    code, out, _ = run(
        capsys, "critical-cost", "--data", small_csv, "--q", "120", "--n-new", "6"
    )
    assert code == 0
    lines = out.splitlines()
    value = float(lines[0].split(":")[1])
    err_est = float(lines[1].split(":")[1])
    assert 0.0 <= value <= 120.0
    assert err_est >= 0.0


def test_critical_cost_sweep_csv(capsys, small_csv, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "critical-cost", "--data", small_csv, "--q", "140",
        "--sweep", "n", "--from", "2", "--to", "10", "--step", "2",
        "--out", str(out_path),
    )
    assert code == 0
    with out_path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["n_new", "critical_cost", "error_estimate"]
    values = [float(r[1]) for r in rows[1:]]
    assert [int(r[0]) for r in rows[1:]] == [2, 4, 6, 8, 10]
    assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


def test_disclose_interval_output(capsys, small_csv):
    code, out, _ = run(
        capsys, "disclose", "--data", small_csv, "--method", "interval",
        "--rho", "3", "--n-new", "5",
    )
    assert code == 0
    assert "method: interval" in out
    assert "evaluations: 55" in out  # (12-3+1)(12-3+2)/2
    assert "critical_cost:" in out


def test_disclose_mc_seed_echo_and_reproducibility(capsys, small_csv, tmp_path):
    trace = tmp_path / "trace.csv"
    argv = [
        "disclose", "--data", small_csv, "--method", "mc", "--rho", "3",
        "--n-new", "5", "--budget", "80", "--trace", str(trace),
    ]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    assert "seed: 0" in first
    with trace.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["evaluation_index", "best_cost"]
    assert len(rows) >= 2
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_fit_json(capsys, small_csv, tmp_path):
    out_path = tmp_path / "fit.json"
    code, _, _ = run(capsys, "fit", "--data", small_csv, "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["kind"] == "kde"
    assert payload["bandwidth"] > 0
    assert payload["sample_size"] == 12
    assert len(payload["grid"]) == 512
    cdfs = [point[2] for point in payload["grid"]]
    assert cdfs[0] == 0.0
    assert cdfs[-1] == pytest.approx(1.0, abs=1e-5)
    assert all(a <= b + 1e-12 for a, b in zip(cdfs, cdfs[1:]))


def test_fit_parametric_json(capsys, small_csv):
    code, out, _ = run(capsys, "fit", "--data", small_csv, "--method", "parametric")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "parametric"
    assert payload["family"] in {
        "normal", "lognormal", "exponential", "gamma", "weibull", "logistic", "gumbel"
    }
    assert len(payload["candidates"]) == 7


@pytest.mark.parametrize("method", ["kde", "parametric"])
def test_fit_grid_equals_per_point_values(capsys, small_csv, method):
    # The grid is evaluated in two array calls; every row must carry the
    # bits of one scalar pdf and cdf call at its point.
    code, out, _ = run(capsys, "fit", "--data", small_csv, "--method", method)
    assert code == 0
    values = load_prices(small_csv).values()
    density = fit_kde(values) if method == "kde" else fit_parametric(values).density
    grid = json.loads(out)["grid"]
    assert grid == [[y, density.pdf(y), density.cdf(y)] for y, _, _ in grid]


def test_simulate_csv(capsys, small_csv, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": small_csv,
        "rho": 3,
        "initial_set_size_n": 8,
        "trials": 3,
        "base_seed": 5,
    }))
    out_path = tmp_path / "sim.csv"
    code, out, _ = run(
        capsys, "simulate", "--config", str(config), "--position", "1",
        "--methods", "mc,interval,full", "--budgets", "10,25",
        "--out", str(out_path),
    )
    assert code == 0
    assert "seed: 5" in out
    with out_path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "method", "position_k", "budget", "mean_cost", "std_error",
        "full_set_cost", "trials", "seed",
    ]
    methods = [r[0] for r in rows[1:]]
    assert methods == ["monte_carlo", "monte_carlo", "interval", "full"]
    assert all(r[1] == "1" for r in rows[1:])
    assert {r[7] for r in rows[1:]} == {"5"}


def test_simulate_bad_config_exits_1(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"builtin": "mouse", "volume": 11}))
    code, _, err = run(
        capsys, "simulate", "--config", str(config), "--methods", "full"
    )
    assert code == 1
    assert "unknown config keys" in err


def test_bench_csv(capsys, small_csv, tmp_path):
    out_path = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys, "bench", "--data", small_csv, "--methods", "interval,minimal,full",
        "--rho", "3", "--n-new", "5", "--out", str(out_path),
    )
    assert code == 0
    with out_path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["method", "evaluations", "total_seconds", "seconds_per_evaluation"]
    by_method = {r[0]: int(r[1]) for r in rows[1:]}
    assert by_method == {"interval": 55, "minimal": 10, "full": 1}


def test_bench_counts_repeatable(capsys, small_csv, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        run(
            capsys, "bench", "--data", small_csv, "--methods", "mc", "--rho", "3",
            "--n-new", "5", "--budget", "40", "--seed", "9", "--out", str(path),
        )
    read = []
    for path in paths:
        with path.open() as handle:
            rows = list(csv.reader(handle))
        read.append([(r[0], r[1]) for r in rows[1:]])
    assert read[0] == read[1] == [("monte_carlo", "40")]


def test_simulate_accepts_every_market_config_field(capsys, tmp_path):
    values = {
        "csa_listing_mean": 20.6, "overlap_rate": 0.12, "rho": 3, "initial_set_size_n": 6,
        "trials": 2, "base_seed": 4, "stated_minimum": 297.0, "csa_draw_count": 3,
        "product_id": "printer",
    }
    fields = {f.name for f in dataclasses.fields(MarketConfig)}
    assert set(values) == fields - {"true_density", "estimator"}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"builtin": "printer", "estimator": "kde", **values}))
    code, out, err = run(capsys, "simulate", "--config", str(config), "--methods", "full")
    assert code == 0, err
    assert out.startswith("seed: 4\n")

    config.write_text(json.dumps({"builtin": "printer", "true_density": 1}))
    code, _, err = run(capsys, "simulate", "--config", str(config), "--methods", "full")
    assert code == 1
    assert "unknown config keys: true_density" in err


def readme_examples():
    """(argv, expected stdout lines) of README's shell examples."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"```\n(\$ pricedisclosure .*?)```", text, flags=re.S):
        command, *lines = block.replace("\\\n", " ").rstrip("\n").split("\n")
        examples.append((shlex.split(command)[2:], lines))
    return examples


def test_readme_cli_examples(capsys):
    examples = {argv[0]: (argv, lines) for argv, lines in readme_examples()}
    assert {"critical-cost", "disclose", "counts"} <= set(examples)
    for command in ("critical-cost", "disclose", "counts"):
        argv, expected = examples[command]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        got = out.splitlines()
        assert len(got) == len(expected), command
        for line, want in zip(got, expected):
            if want.endswith(" ..."):
                assert line.startswith(want[:-3]), (line, want)
            else:
                assert line == want
