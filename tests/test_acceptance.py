"""Acceptance gate: one test per shipped guarantee, each printing a
single PASS/FAIL line with the measured value and its threshold.

The lines are emitted through capfd.disabled() so they reach the real
terminal even under pytest's capture.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy.stats import binomtest

from pricedisclosure.cli import main
from pricedisclosure.data import PriceList, builtin_dataset
from pricedisclosure.density import UniformDensity, fit_kde
from pricedisclosure.disclosure import (
    DisclosureConstraints,
    brute_force_disclose,
    full_disclose,
    interval_disclose,
    minimal_disclose,
    monte_carlo_disclose,
)
from pricedisclosure.quadrature import adaptive_gauss_kronrod
from pricedisclosure.search import (
    critical_cost,
    improvement_upper_bound,
    interval_subset_count,
    min_order_cdf,
    min_order_pdf,
    minimal_subset_count,
    subset_count,
)
from pricedisclosure.simulator import (
    MarketConfig,
    generate_initial_prices,
    simulate_first_position,
    simulate_kth_position,
    size_effect_experiment,
)

SIGN_TEST_ALPHA = 0.05


def report(capfd, number, ok, detail):
    with capfd.disabled():
        print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


@pytest.fixture(scope="module")
def printer_density():
    return fit_kde(builtin_dataset("printer").values())


@pytest.fixture(scope="module")
def market_cfg(printer_density):
    # printer-like market: n = 30, rho = 10, 20.6 listings at 12% overlap
    # giving N = 18 new prices per query
    return MarketConfig(
        true_density=printer_density,
        csa_listing_mean=20.6,
        overlap_rate=0.12,
        rho=10,
        initial_set_size_n=30,
        stated_minimum=297.0,
        trials=200,
        base_seed=0,
    )


def test_criterion_01_subset_counts_exact(capfd):
    subset_count(20, 10)  # warm the call path before timing
    t0 = time.perf_counter()
    a = subset_count(20, 10)
    b = subset_count(25, 10)
    c = subset_count(30, 10)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    ok = (
        a == 354_522
        and b == 15_505_590
        and c == 530_396_371
        and elapsed_ms < 1.0
    )
    report(
        capfd, 1, ok,
        f"subset_count(20,10)={a} (want 354522), (25,10)={b} (want 15505590), "
        f"(30,10)={c} (want 530396371), runtime {elapsed_ms:.3f} ms (cap 1 ms)",
    )
    assert ok


def test_criterion_02_candidate_counts_exact(capfd, market_cfg):
    prices = generate_initial_prices(market_cfg)
    constraints = DisclosureConstraints(rho=10)
    nint = interval_disclose(prices, constraints, 18).subsets_evaluated
    nmin = minimal_disclose(prices, constraints, 18).subsets_evaluated
    ok = nint == 231 and nmin == 21
    report(
        capfd, 2, ok,
        f"interval evaluations={nint} (want 231), minimal evaluations={nmin} "
        f"(want 21) at n=30, rho=10",
    )
    assert ok


def test_criterion_03_improvement_bound(capfd):
    pinned = improvement_upper_bound(4, 1)
    grid = np.array([[improvement_upper_bound(k, j) for j in range(1, 11)] for k in range(1, 11)])
    decreasing_k = bool(np.all(np.diff(grid, axis=0) < 0))
    increasing_j = bool(np.all(np.diff(grid, axis=1) > 0))
    ok = pinned == 0.05 and decreasing_k and increasing_j
    report(
        capfd, 3, ok,
        f"bound(4,1)={pinned} (want 0.05 exactly); surface over k,j in [1,10]: "
        f"strictly decreasing in k={decreasing_k}, strictly increasing in j={increasing_j}",
    )
    assert ok


def test_criterion_04_critical_cost_analytic(capfd):
    t0 = time.perf_counter()
    unit = UniformDensity(0.0, 1.0)
    rng = np.random.default_rng(404)
    worst_uniform = 0.0
    for _ in range(100):
        q = float(rng.uniform(0.02, 0.98))
        n = int(rng.integers(1, 40))
        closed = q - (1.0 - (1.0 - q) ** (n + 1)) / (n + 1)
        worst_uniform = max(worst_uniform, abs(critical_cost(unit, q, n).value - closed))

    worst_gap = 0.0
    for i in range(1000):
        inst = np.random.default_rng(5000 + i)
        sample = inst.lognormal(3.0, 0.4, size=int(inst.integers(5, 25)))
        density = fit_kde(sample)
        q = density.quantile(float(inst.uniform(0.1, 0.9)))
        n = int(inst.integers(1, 26))

        def f_n(y):
            return min_order_pdf(density, n, y)

        def big_f_n(y):
            return min_order_cdf(density, n, y)

        dual, _ = adaptive_gauss_kronrod(big_f_n, 0.0, q, panels=32)
        direct, _ = adaptive_gauss_kronrod(
            lambda y: (q - np.asarray(y)) * f_n(y), 0.0, q, panels=32
        )
        worst_gap = max(worst_gap, abs(dual - direct))
    elapsed = time.perf_counter() - t0
    ok = worst_uniform <= 1e-6 and worst_gap <= 1e-6 and elapsed < 10.0
    report(
        capfd, 4, ok,
        f"uniform closed form worst |err|={worst_uniform:.2e} (tol 1e-6, 100 pairs); "
        f"dual vs direct worst gap={worst_gap:.2e} (tol 1e-6, 1000 KDE instances); "
        f"runtime {elapsed:.1f} s (cap 10 s)",
    )
    assert ok


def test_criterion_05_monotonicity(capfd):
    violations_q = 0
    violations_n = 0
    for i in range(500):
        rng = np.random.default_rng(7000 + i)
        density = fit_kde(rng.lognormal(3.0, 0.5, size=int(rng.integers(5, 20))))
        n = int(rng.integers(1, 20))
        qa, qb = sorted(
            density.quantile(float(p)) for p in rng.uniform(0.05, 0.95, size=2)
        )
        lo = critical_cost(density, qa, n)
        hi = critical_cost(density, qb, n)
        tol = lo.integration_error_estimate + hi.integration_error_estimate + 1e-9
        if lo.value > hi.value + tol:
            violations_q += 1

        q = density.quantile(0.5)
        na = int(rng.integers(1, 15))
        nb = na + int(rng.integers(1, 15))
        lo = critical_cost(density, q, na)
        hi = critical_cost(density, q, nb)
        tol = lo.integration_error_estimate + hi.integration_error_estimate + 1e-9
        if lo.value > hi.value + tol:
            violations_n += 1
    ok = violations_q == 0 and violations_n == 0
    report(
        capfd, 5, ok,
        f"monotone in q: {violations_q} violations; monotone in N: {violations_n} "
        f"violations (want 0 each, 500 randomized instances per direction, "
        f"tolerance = summed quadrature error estimates)",
    )
    assert ok


def _random_instance(seed, n):
    rng = np.random.default_rng(seed)
    cents = np.unique((rng.lognormal(0.0, 0.3, n * 3) * 25000).astype(int))
    rng.shuffle(cents)
    picked = sorted(int(c) for c in cents[:n])
    return PriceList("inst", picked, ["s"] * n)


def test_criterion_06_oracle_equivalence(capfd):
    t0 = time.perf_counter()
    constraints = DisclosureConstraints(rho=5)
    instances = [_random_instance(600 + i, 6 + (i % 7)) for i in range(25)]
    ordering_ok = True
    oracle = []
    for prices in instances:
        brute = brute_force_disclose(prices, constraints, 9).critical_cost.value
        oracle.append(brute)
        interval = interval_disclose(prices, constraints, 9).critical_cost.value
        minimal = minimal_disclose(prices, constraints, 9).critical_cost.value
        full = full_disclose(prices, 9).critical_cost.value
        ordering_ok &= all(brute <= c + 1e-12 for c in (interval, minimal, full))
        ordering_ok &= minimal >= interval - 1e-12

    matches = 0
    trials = 0
    for i, (prices, brute) in enumerate(zip(instances, oracle)):
        for rep in range(2):
            mc = monte_carlo_disclose(
                prices, constraints, 9, budget=200_000, seed=6600 + 10 * i + rep
            )
            matches += abs(mc.critical_cost.value - brute) <= 1e-9
            trials += 1
    elapsed = time.perf_counter() - t0
    rate = matches / trials
    ok = ordering_ok and rate >= 0.99 and elapsed < 300.0
    report(
        capfd, 6, ok,
        f"brute force <= every heuristic on 25 instances (n<=12, rho=5): {ordering_ok}; "
        f"monte carlo at budget 200000 matched the oracle in {matches}/{trials} trials "
        f"({rate:.1%}, want >=99%); runtime {elapsed:.0f} s (cap 300 s)",
    )
    assert ok


def test_criterion_07_first_position_dominance(capfd, market_cfg):
    reports = simulate_kth_position(
        market_cfg, 1, ("monte_carlo", "interval", "full"), budgets=(231,)
    )
    by_method = {r.method: r for r in reports}
    interval_cost = by_method["interval"].curve[0][1]
    full_cost = by_method["full"].full_set_cost
    mc_costs = np.array(by_method["monte_carlo"].trial_costs[0])
    mc_mean = float(np.mean(mc_costs))
    wins = int(np.sum(mc_costs > interval_cost))
    pvalue = binomtest(wins, mc_costs.size, alternative="greater").pvalue
    ok = (
        interval_cost < full_cost
        and interval_cost < mc_mean
        and pvalue < SIGN_TEST_ALPHA
    )
    report(
        capfd, 7, ok,
        f"interval {interval_cost:.4f} < full {full_cost:.4f} (strict); "
        f"interval < monte carlo mean {mc_mean:.4f} at matched budget 231; "
        f"sign test {wins}/{mc_costs.size} seeds, p={pvalue:.2e} (alpha 0.05)",
    )
    assert ok


def test_criterion_08_second_position(capfd, market_cfg):
    reports = simulate_kth_position(
        market_cfg, 2, ("interval", "full", "monte_carlo"), budgets=(100,)
    )
    by_method = {r.method: r for r in reports}
    interval_costs = np.array(by_method["interval"].trial_costs[0])
    full_costs = np.array(by_method["full"].trial_costs[0])
    mc_mean = by_method["monte_carlo"].curve[0][1]
    full_mean = float(np.mean(full_costs))
    wins = int(np.sum(full_costs > interval_costs))
    pvalue = binomtest(wins, interval_costs.size, alternative="greater").pvalue
    mc_sign = ">" if mc_mean > full_mean else "<="
    ok = float(np.mean(interval_costs)) < full_mean and pvalue < SIGN_TEST_ALPHA
    report(
        capfd, 8, ok,
        f"k=2: interval mean {float(np.mean(interval_costs)):.4f} < full mean "
        f"{full_mean:.4f}, sign test {wins}/{interval_costs.size} trials, "
        f"p={pvalue:.2e} (alpha 0.05); monte carlo mean {mc_mean:.4f} {mc_sign} full "
        f"(recorded, no inequality asserted)",
    )
    assert ok


def test_criterion_09_size_effect(capfd, market_cfg):
    interval_rows = size_effect_experiment(market_cfg, (20, 40), "interval", budget=1)
    int20, int40 = interval_rows[0].mean_cost, interval_rows[1].mean_cost
    mc_rows = size_effect_experiment(market_cfg, (20, 40), "monte_carlo", budget=100)
    mc20 = np.array(mc_rows[0].trial_costs)
    mc40 = np.array(mc_rows[1].trial_costs)
    wins = int(np.sum(mc20 > mc40))
    pvalue = binomtest(wins, mc20.size, alternative="greater").pvalue
    ok = (
        int40 < int20
        and float(np.mean(mc40)) < float(np.mean(mc20))
        and pvalue < SIGN_TEST_ALPHA
    )
    report(
        capfd, 9, ok,
        f"interval mean cost falls {int20:.4f} -> {int40:.4f} as n: 20 -> 40 "
        f"(deterministic, strict); monte carlo mean falls "
        f"{float(np.mean(mc20)):.4f} -> {float(np.mean(mc40)):.4f}, paired sign test "
        f"{wins}/{mc20.size} trials, p={pvalue:.2e} (alpha 0.05)",
    )
    assert ok


def test_criterion_10_k1_consistency(capfd, market_cfg):
    cfg = dataclasses.replace(market_cfg, trials=4)
    methods = ("monte_carlo", "interval", "minimal", "full")
    first = simulate_first_position(cfg, methods, budgets=(10, 25))
    kth = simulate_kth_position(cfg, 1, methods, budgets=(10, 25))
    ok = first == kth
    report(
        capfd, 10, ok,
        f"simulate_kth_position(k=1) report equals simulate_first_position "
        f"bit-for-bit: {ok} (4 methods, budgets 10 and 25, trials 4)",
    )
    assert ok


def test_criterion_11_determinism_and_worker_invariance(capfd, market_cfg):
    prices = _random_instance(1100, 10)
    constraints = DisclosureConstraints(rho=5)
    mc_a = monte_carlo_disclose(prices, constraints, 9, budget=400, seed=3)
    mc_b = monte_carlo_disclose(prices, constraints, 9, budget=400, seed=3)
    mc_same = (
        mc_a.trace == mc_b.trace
        and tuple(mc_a.subset.cents_array()) == tuple(mc_b.subset.cents_array())
    )
    brute_1 = brute_force_disclose(prices, constraints, 9, workers=1)
    brute_3 = brute_force_disclose(prices, constraints, 9, workers=3)
    brute_same = tuple(sorted(brute_1.subset.cents_array())) == tuple(
        sorted(brute_3.subset.cents_array())
    )
    cfg = dataclasses.replace(market_cfg, trials=4)
    methods = ("interval", "full", "monte_carlo")
    sim_1 = simulate_kth_position(cfg, 2, methods, budgets=(12,), workers=1)
    sim_3 = simulate_kth_position(cfg, 2, methods, budgets=(12,), workers=3)
    sim_repeat = simulate_kth_position(cfg, 2, methods, budgets=(12,), workers=1)
    sim_same = sim_1 == sim_3 == sim_repeat
    ok = mc_same and brute_same and sim_same
    report(
        capfd, 11, ok,
        f"monte carlo bytes stable across reruns at fixed seed: {mc_same}; brute "
        f"force invariant to workers 1 vs 3: {brute_same}; simulation invariant to "
        f"workers and reruns: {sim_same}",
    )
    assert ok


def test_cli_seed_flag_reproducibility(capfd, tmp_path):
    # same seed and flags must reproduce identical output bytes
    data = tmp_path / "w.csv"
    rng = np.random.default_rng(2)
    cents = sorted(int(c) for c in rng.integers(5000, 9000, size=10))
    from pricedisclosure.data import write_prices

    write_prices(PriceList("w", cents, ["s"] * len(cents)), data)
    argv = [
        "disclose", "--data", str(data), "--method", "mc", "--rho", "4",
        "--n-new", "6", "--budget", "50", "--seed", "12",
    ]
    assert main(argv) == 0
    first = capfd.readouterr().out
    assert main(argv) == 0
    second = capfd.readouterr().out
    assert first == second and "seed: 12" in first
