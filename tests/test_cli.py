"""Command-line interface: subcommands, formats, exit codes."""

import csv
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pricedisclosure import cli, disclosure
from pricedisclosure.cli import main
from pricedisclosure.data import PriceList, builtin_dataset, load_prices, write_prices
from pricedisclosure.density import KernelDensity, fit_kde, fit_parametric
from pricedisclosure.disclosure import DisclosureConstraints, clear_evaluation_cache, monte_carlo_disclose
from pricedisclosure.search import critical_cost
from pricedisclosure.simulator import MarketConfig


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    rng = np.random.default_rng(31)
    cents = sorted(int(c) for c in rng.integers(10000, 30000, size=12))
    prices = PriceList("widget", cents, ["s"] * len(cents))
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


def test_usage_errors_exit_2(capsys, small_csv, tmp_path):
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
    # a sweep over n_new needs integral end points and step
    sweep_n = ["critical-cost", "--data", small_csv, "--q", "140", "--sweep", "n"]
    for start, stop, step in (("1.7", "10", "2"), ("2", "10.5", "2"), ("2", "10", "0.5")):
        code, out, err = run(capsys, *sweep_n, "--from", start, "--to", stop, "--step", step)
        assert (code, out) == (2, "")
        assert "usage error: --from, --to and --step must be integers" in err
    for step in ("0", "-2", "nan", "inf"):
        with pytest.raises(SystemExit) as info:
            main(["critical-cost", "--data", small_csv, "--n-new", "5", "--sweep", "q",
                  "--from", "120", "--to", "140", "--step", step])
        assert info.value.code == 2
        assert "--step" in capsys.readouterr().err
    # a sweep over q needs finite end points
    sweep_q = ["critical-cost", "--data", small_csv, "--n-new", "5", "--sweep", "q", "--step", "5"]
    for start, stop in (("nan", "140"), ("120", "inf"), ("-inf", "140")):
        code, out, err = run(capsys, *sweep_q, f"--from={start}", f"--to={stop}")
        assert (code, out) == (2, "")
        assert "usage error: --from and --to must be finite when sweeping q" in err
    # a swapped range is an empty sweep, not a header-only CSV
    for sweep in (sweep_q, sweep_n + ["--step", "2"]):
        code, out, err = run(capsys, *sweep, "--from", "140", "--to", "120")
        assert (code, out) == (2, "")
        assert "usage error: --from 140.0 is above --to 120.0" in err
    for bandwidth in ("0", "-1", "nan", "inf"):
        with pytest.raises(SystemExit) as info:
            main(["fit", "--data", small_csv, "--bandwidth", bandwidth])
        assert info.value.code == 2
        assert "--bandwidth" in capsys.readouterr().err
    # a parametric fit has no bandwidth to take
    code, out, err = run(capsys, "fit", "--data", small_csv, "--method", "parametric", "--bandwidth", "5")
    assert (code, out) == (2, "")
    assert "usage error: --bandwidth applies to --method kde only, not parametric" in err
    # only Monte Carlo reads a budget or a deadline
    config = tmp_path / "printer.json"
    config.write_text(json.dumps({"builtin": "printer"}))
    selection = ["--builtin", "printer", "--rho", "10", "--n-new", "18"]
    for argv, flag in (
        (["disclose", *selection, "--method", "interval", "--budget", "5", "--deadline-ms", "10"], "--budget"),
        (["disclose", *selection, "--method", "full", "--deadline-ms", "10"], "--deadline-ms"),
        (["bench", *selection, "--methods", "full", "--budget", "7"], "--budget"),
        (["simulate", "--config", str(config), "--methods", "interval,full", "--budgets", "10,25"], "--budgets"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"usage error: {flag} applies to method mc only" in err
    # only Monte Carlo reads a seed, checked before --data is read
    missing = ["--data", str(tmp_path / "missing.csv"), "--rho", "10", "--n-new", "18"]
    for argv in (
        ["disclose", *selection, "--method", "interval", "--seed", "5"],
        ["disclose", *missing, "--method", "full", "--seed", "0"],
        ["bench", *selection, "--seed", "5"],
        ["bench", *missing, "--methods", "interval,full", "--seed", "1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "usage error: --seed applies to method mc only\n"), argv
    code, out, err = run(capsys, "simulate", "--config", str(config), "--methods", "mc,full")
    assert (code, out) == (2, "")
    assert "usage error: monte_carlo needs --budgets" in err


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


def test_deadline_calibration_evaluates_no_candidate_twice(capsys, monkeypatch, small_csv):
    # The pilot runs are prefixes of the calibrated run, and a candidate's
    # screen depends only on the candidates before it, so a cold calibrated
    # command integrates exactly the candidates a cold run at the printed
    # budget integrates, in the same order. Counting the integrals, unlike
    # cache_info(), also sees a cache cleared in between.
    integrals = []

    def cost(density, q, n_new):
        integrals.append(tuple(density.sample))
        return critical_cost(density, q, n_new)

    monkeypatch.setattr(disclosure, "critical_cost", cost)
    argv = ["disclose", "--data", small_csv, "--method", "mc", "--n-new", "5", "--seed", "4"]
    clear_evaluation_cache()
    code, out, _ = run(capsys, *argv, "--rho", "3", "--deadline-ms", "50")
    assert code == 0
    budget = int(re.search(r"^calibrated budget: (\d+) ", out, flags=re.M).group(1))
    calibrated, integrals[:] = list(integrals), []
    clear_evaluation_cache()
    result = monte_carlo_disclose(load_prices(small_csv), DisclosureConstraints(rho=3), 5, budget, 4)
    assert calibrated == integrals
    assert len(integrals) < result.subsets_evaluated
    # With no room to sample the pilot stops at once; the incumbent is the answer.
    code, out, _ = run(capsys, *argv, "--rho", "12", "--deadline-ms", "50")
    assert code == 0
    assert "calibrated budget: 1 (" in out and "\nevaluations: 0\n" in out
    assert "warning: no room to sample: rho=12 exceeds n-1=11" in out


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


def _faulty_csv(row: str) -> str:
    """A price list whose row 3 is ``row``, between good rows."""
    return f"product_id,source,price\nw,s,2.00\n{row}\nw,s,3.00\n"


MALFORMED_CSV = [
    ("product,source,price\nw,s,1.00\n", "row 1: expected header 'product_id,source,price'"),
    ("product_id,source,price\n\n,,\n", "empty dataset"),
    (_faulty_csv("w,s"), "row 3: expected 3 columns, got 2"),
    (_faulty_csv("w,s,1.00,x"), "row 3: expected 3 columns, got 4"),
    (_faulty_csv(" ,s,1.00"), "row 3: empty product_id or source"),
    (_faulty_csv("w,,1.00"), "row 3: empty product_id or source"),
    (_faulty_csv("v,s,1.00"), "row 3: mixed products 'w' and 'v'"),
    (_faulty_csv("w,s,NaN"), "row 3: unparseable price 'NaN'"),
    (_faulty_csv("w,s,Infinity"), "row 3: unparseable price 'Infinity'"),
    (_faulty_csv("w,s,"), "row 3: unparseable price ''"),
    (_faulty_csv("w,s,1.999"), "row 3: price '1.999' has more than two decimal places"),
    (_faulty_csv("w,s,0"), "row 3: price must be positive, got '0'"),
    (_faulty_csv("w,s,0.00"), "row 3: price must be positive, got '0.00'"),
    (_faulty_csv("w,s,-1.50"), "row 3: price must be positive, got '-1.50'"),
    (_faulty_csv("w,s,1e30"), "row 3: price must be at most 92233720368547758.07, got '1e30'"),
    (_faulty_csv("w,s,99999999999999999.99"),
     "row 3: price must be at most 92233720368547758.07, got '99999999999999999.99'"),
    (_faulty_csv("w,s,1e999999"), "row 3: price must be at most 92233720368547758.07, got '1e999999'"),
    (_faulty_csv("w,s,1e-1000100"), "row 3: price '1e-1000100' has more than two decimal places"),
    (_faulty_csv("w,caf\xe9,1.00").encode("latin-1"), "row 3: byte 0xe9 is not UTF-8"),
    (_faulty_csv('w,s,"' + "9" * 131073 + '"'), "row 3: field larger than field limit (131072)"),
]


@pytest.mark.parametrize("text,message", MALFORMED_CSV)
def test_malformed_csv_error_lines(capsys, tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    for argv in (["fit", "--data", str(path), "--method", "kde"],
                 ["critical-cost", "--data", str(path), "--q", "1", "--n-new", "2"]):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n"), argv


def test_critical_cost_single(capsys, small_csv, tmp_path):
    code, out, _ = run(
        capsys, "critical-cost", "--data", small_csv, "--q", "120", "--n-new", "6"
    )
    assert code == 0
    lines = out.splitlines()
    value = float(lines[0].split(":")[1])
    err_est = float(lines[1].split(":")[1])
    assert 0.0 <= value <= 120.0
    assert err_est >= 0.0
    # --out takes the same two lines, with or without --sweep
    out_path = tmp_path / "cost.txt"
    code, printed, _ = run(
        capsys, "critical-cost", "--data", small_csv, "--q", "120", "--n-new", "6", "--out", str(out_path)
    )
    assert (code, printed) == (0, "")
    assert out_path.read_text() == out


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


def test_sweeps_print_what_each_point_costs_alone(capsys, small_csv):
    density = fit_kde(load_prices(small_csv).values())
    base = ["critical-cost", "--data", small_csv, "--method", "kde"]
    for argv, point, count in (
        (["--sweep", "q", "--n-new", "5", "--from", "80", "--to", "200", "--step", "7.5"], lambda x: (float(x), 5), 17),
        (["--sweep", "n", "--q", "140", "--from", "1", "--to", "1001", "--step", "100"], lambda x: (140.0, int(x)), 11),
    ):
        code, out, _ = run(capsys, *base, *argv)
        rows = list(csv.reader(out.splitlines()))[1:]
        assert (code, len(rows)) == (0, count)
        for x, value, error in rows:
            want = critical_cost(density, *point(x)).value
            assert abs(float(value) - want) <= max(1e-11, 1e-10 * want), (argv, x, value, want)
            assert 0.0 <= float(error) <= 2e-8


def test_a_failing_sweep_names_every_point(capsys, small_csv, monkeypatch):
    monkeypatch.setattr(KernelDensity, "pdf", lambda self, y: np.full(np.shape(y), np.nan))
    code, out, err = run(capsys, "critical-cost", "--data", small_csv, "--sweep", "n", "--q", "140",
                         "--from", "2", "--to", "6", "--step", "2")
    assert (code, out) == (1, "")
    assert "not finite" in err and "q=140.0, n_new=2; q=140.0, n_new=4; q=140.0, n_new=6, interval [" in err


def test_a_long_sweep_stays_small_and_quick(capsys):
    """A sweep of q over 2001 points 0.01 apart on the bundled printer list
    prints every row, each within max(1e-11, 1e-10 * value) of
    critical_cost at its point alone (every 50th checked) with an error
    estimate of at most 2e-8, holding at most 4 MB of traced memory.
    Runtime cap: 3 s under tracemalloc (about 0.4 s on a 2-vCPU host,
    where integrating each point alone took 3.8 s)."""
    argv = ["critical-cost", "--builtin", "printer", "--method", "kde", "--sweep", "q", "--n-new", "18",
            "--from", "297", "--to", "317", "--step", "0.01"]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = list(csv.reader(out.splitlines()))[1:]
    assert (code, len(rows)) == (0, 2001) and float(rows[-1][0]) == pytest.approx(317.0)
    assert peak < 4_000_000 and elapsed < 3.0, (peak, elapsed)
    density = fit_kde(builtin_dataset("printer").values())
    for q, value, error in rows[::50]:
        want = critical_cost(density, float(q), 18).value
        assert abs(float(value) - want) <= max(1e-11, 1e-10 * want), (q, value, want)
        assert float(error) <= 2e-8


def test_sweep_q_keeps_its_end_point_at_five_digit_prices(capsys, tmp_path):
    # Above 16384 an absolute slack of 1e-12 is below half an ulp of --to,
    # and the last point of the grid was lost.
    printer = builtin_dataset("printer")
    path = tmp_path / "printer100.csv"
    write_prices(PriceList("printer", 100 * printer.cents_array(), printer.sources), path)
    argv = ["critical-cost", "--data", str(path), "--sweep", "q", "--n-new", "18", "--step", "0.25"]
    for start, stop in (("29700", "29701.5"), ("30123.17", "30124.67")):
        code, out, _ = run(capsys, *argv, "--from", start, "--to", stop)
        assert code == 0
        grid = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert grid == list(np.arange(float(start), float(stop) + 0.25, 0.25)[:7])
        assert len(grid) == 7 and grid[-1] == float(stop)


@pytest.mark.parametrize("flag,value", [("--from", "120"), ("--to", "140"), ("--step", "5")])
def test_range_flags_without_sweep_are_a_usage_error(capsys, small_csv, flag, value):
    code, out, err = run(capsys, "critical-cost", "--data", small_csv, "--q", "130", "--n-new", "5", flag, value)
    assert (code, out) == (2, "")
    assert f"usage error: {flag} applies to --sweep only" in err


def test_q_with_sweep_q_is_a_usage_error(capsys, small_csv):
    code, out, err = run(capsys, "critical-cost", "--data", small_csv, "--sweep", "q", "--q", "130",
                         "--n-new", "5", "--from", "120", "--to", "140", "--step", "5")
    assert (code, out) == (2, "")
    assert "usage error: --q is the swept variable under --sweep q" in err


def test_n_new_with_sweep_n_is_a_usage_error(capsys, small_csv):
    code, out, err = run(capsys, "critical-cost", "--data", small_csv, "--sweep", "n", "--q", "130",
                         "--n-new", "5", "--from", "2", "--to", "10", "--step", "2")
    assert (code, out) == (2, "")
    assert "usage error: --n-new is the swept variable under --sweep n" in err


def test_bad_n_new_is_not_blamed_on_a_candidate(capsys):
    code, out, err = run(capsys, "disclose", "--builtin", "printer", "--method", "interval",
                         "--rho", "10", "--n-new", "-3")
    assert (code, out) == (1, "")
    assert err == "error: number of new draws must be at least 1, got -3\n"


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


def test_disclose_brute_trace_ends_at_the_winner(capsys, small_csv, tmp_path):
    trace = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "disclose", "--data", small_csv, "--method", "brute", "--rho", "9",
        "--n-new", "5", "--trace", str(trace),
    )
    assert code == 0
    with trace.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["evaluation_index", "best_cost"]
    indices = [int(i) for i, _ in rows[1:]]
    costs = [float(c) for _, c in rows[1:]]
    assert indices and indices == sorted(set(indices)) and indices[0] == 1
    assert all(b < a for a, b in zip(costs, costs[1:]))
    assert f"critical_cost: {costs[-1]!r}\n" in out


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


def test_brute_force_prints_the_same_bytes_at_every_worker_count(capsys, tmp_path):
    # Some parametric integrals on these nine prices do not converge. One
    # worker screens every such candidate; a share of a block, starting
    # from the block's best cost, may integrate one, which must not abort.
    cents = [89, 95, 470, 1688, 4838, 5860, 10642, 24174, 35043]
    path = tmp_path / "nine.csv"
    write_prices(PriceList("nine", cents, ["s"] * len(cents)), path)
    for estimator in ("kde", "parametric"):
        for n_new in ("1", "18"):
            argv = ["disclose", "--data", str(path), "--method", "brute", "--rho", "3", "--n-new", n_new,
                    "--estimator", estimator]
            serial = run(capsys, *argv)
            assert serial[0] == 0, (estimator, n_new, serial)
            for workers in ("2", "3", "4"):
                assert run(capsys, *argv, "--workers", workers) == serial, (estimator, n_new, workers)


def test_a_failing_parametric_integral_names_the_fitted_parameters(capsys, tmp_path):
    # On the nine prices the parametric critical cost at q 0.89 and n_new 1
    # does not converge; the error names the fitted family's parameters.
    cents = [89, 95, 470, 1688, 4838, 5860, 10642, 24174, 35043]
    path = tmp_path / "nine.csv"
    write_prices(PriceList("nine", cents, ["s"] * len(cents)), path)
    fit = fit_parametric(np.array(cents) / 100.0)
    assert fit.best_family == "gamma"
    params = fit.density.params
    density = f"ParametricDensity(family='gamma', shape={params['shape']!r}, scale={params['scale']!r}, n=9)"
    assert repr(fit.density) == density
    code, out, err = run(capsys, "critical-cost", "--data", str(path), "--method", "parametric",
                         "--q", "0.89", "--n-new", "1")
    assert (code, out) == (1, "")
    assert err == (
        "error: adaptive Gauss-Kronrod did not converge at depth 40: 2 panels pending (max_depth 40, "
        f"MAX_PANELS 20000); q=0.89, n_new=1, interval [{fit.density.effective_low!r}, 0.89], "
        f"32 starting panels, {density}\n"
    )


def test_simulate_pools_every_set_in_worker_processes(capsys, small_csv, tmp_path):
    # Pooled sets are evaluated in full, never screened, whatever the
    # worker count.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": small_csv, "rho": 3, "initial_set_size_n": 8, "trials": 3}))
    argv = ["simulate", "--config", str(config), "--position", "2",
            "--methods", "mc,interval,minimal,full", "--budgets", "10,25"]
    code, serial, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--workers", "2") == (0, serial, "")


def test_simulate_bad_config_exits_1(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"builtin": "mouse", "volume": 11}))
    code, _, err = run(
        capsys, "simulate", "--config", str(config), "--methods", "full"
    )
    assert code == 1
    assert "unknown config keys" in err


def test_simulate_config_of_the_wrong_type_exits_1(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"builtin": "mouse", "trials": 2.5}))
    code, out, err = run(capsys, "simulate", "--config", str(config), "--methods", "mc", "--budgets", "5")
    assert (code, out, err) == (1, "", "error: trials must be an integer, got 2.5\n")


def test_file_errors_exit_1_without_a_traceback(capsys, monkeypatch, small_csv, tmp_path):
    # An unwritable output fails before any work: none of these may run.
    for name in ("fit_kde", "fit_parametric", "fit_estimator", "critical_cost", "disclose",
                 "simulate_kth_position"):
        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} ran before the output file was opened")
        monkeypatch.setattr(cli, name, refuse)
    missing = tmp_path / "missing.json"
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"builtin": "mouse",')
    listed = tmp_path / "listed.json"
    listed.write_text("[1, 2]")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": small_csv, "rho": 3, "initial_set_size_n": 8, "trials": 2}))
    unwritable = str(tmp_path / "no" / "such" / "dir" / "out.csv")
    disclose = ["disclose", "--data", small_csv, "--method", "full", "--rho", "3", "--n-new", "5"]
    cases = [
        (["simulate", "--config", str(missing), "--methods", "full"], "No such file"),
        (["simulate", "--config", str(malformed), "--methods", "full"], f"config {malformed}: Expecting"),
        (["simulate", "--config", str(listed), "--methods", "full"], "expected a JSON object"),
        (["simulate", "--config", str(config), "--methods", "full", "--out", unwritable], "No such file"),
        (disclose + ["--trace", unwritable], "No such file"),
        (["critical-cost", "--data", small_csv, "--sweep", "n", "--q", "200", "--from", "1",
          "--to", "2", "--step", "1", "--out", unwritable], "No such file"),
        (["critical-cost", "--data", small_csv, "--q", "200", "--n-new", "5", "--out", unwritable],
         "No such file"),
        (["fit", "--data", small_csv, "--out", unwritable], "No such file"),
        (["fit", "--data", small_csv, "--method", "parametric", "--out", unwritable], "No such file"),
        (["bench", "--data", small_csv, "--rho", "3", "--n-new", "5", "--out", unwritable], "No such file"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and message in err and err.count("\n") == 1, (argv, err)


def test_closed_stdout_exits_1_quietly():
    # The pipe's read end is closed before the child starts, so its first
    # write to stdout fails however fast it runs.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pricedisclosure.cli", "counts", "--n", "5", "--rho", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


def test_python_m_package_runs_the_cli(capsys):
    # From a checkout, with src on PYTHONPATH, ``python -m pricedisclosure``
    # prints what cli.main prints.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["counts", "--n", "5", "--rho", "1"]
    done = subprocess.run([sys.executable, "-m", "pricedisclosure", *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv) == (0, "16\n", "")


def test_main_calls_in_one_process_each_print_what_they_print_alone(capsys, small_csv):
    # Every main call in a process parses with one parser: an option one
    # call gives must not reach a later call that omits it.
    mc = ["disclose", "--data", small_csv, "--method", "mc", "--rho", "3", "--n-new", "5", "--budget", "30"]
    calls = [[*mc, "--seed", "7"], ["fit", "--data", small_csv, "--method", "kde", "--bandwidth", "900"], mc,
             ["fit", "--data", small_csv]]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outputs = []
    for argv in calls:
        alone = subprocess.run(
            [sys.executable, "-m", "pricedisclosure.cli", *argv], capture_output=True, text=True, env=env, timeout=120,
        )
        clear_evaluation_cache()
        assert run(capsys, *argv) == (alone.returncode, alone.stdout, alone.stderr), argv
        outputs.append(alone.stdout)
    assert outputs[0] != outputs[2] and outputs[1] != outputs[3]


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


def test_monte_carlo_seed_defaults_to_zero(capsys, small_csv, monkeypatch):
    argv = ["disclose", "--data", small_csv, "--method", "mc", "--rho", "3", "--n-new", "5", "--budget", "30"]
    default = run(capsys, *argv)
    assert default == run(capsys, *argv, "--seed", "0")
    assert default[0] == 0 and default[1].startswith("seed: 0\n")
    # bench takes a seed when mc is among its methods, and hands it to mc
    seeds = []

    def record(prices, method, constraints, n_new, *, seed, **kwargs):
        seeds.append((method, seed))
        return disclosure.disclose(prices, method, constraints, n_new, seed=seed, **kwargs)

    monkeypatch.setattr(cli, "disclose", record)
    bench = ["bench", "--data", small_csv, "--methods", "full,mc", "--rho", "3", "--n-new", "5", "--budget", "5"]
    for extra, seed in (([], 0), (["--seed", "7"], 7)):
        seeds.clear()
        assert run(capsys, *bench, *extra)[0] == 0
        assert dict(seeds)["monte_carlo"] == seed


def test_bench_monte_carlo_without_budget_is_a_usage_error(capsys, small_csv):
    # checked before any method runs, so the interval timing is not wasted
    code, out, err = run(
        capsys, "bench", "--data", small_csv, "--methods", "interval,mc", "--rho", "3", "--n-new", "5"
    )
    assert (code, out) == (2, "")
    assert "usage error: monte_carlo needs --budget" in err


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
    commands = ("critical-cost", "disclose", "counts")
    examples = [(argv, lines) for argv, lines in readme_examples() if argv[0] in commands]
    assert {argv[0] for argv, _ in examples} == set(commands)
    for argv, expected in examples:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        got = out.splitlines()
        assert len(got) == len(expected), argv
        for line, want in zip(got, expected):
            if want.endswith(" ..."):
                assert line.startswith(want[:-3]), (line, want)
            else:
                assert line == want
