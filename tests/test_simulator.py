"""Market simulation protocols: first-position, k-th position, size effect."""

import numpy as np
import pytest

from pricedisclosure import simulator
from pricedisclosure.data import builtin_dataset
from pricedisclosure.density import UniformDensity, fit_kde
from pricedisclosure.disclosure import evaluate_subset
from pricedisclosure.errors import ValidationError
from pricedisclosure.simulator import (
    MarketConfig,
    draw_csa_listing,
    generate_initial_prices,
    simulate_first_position,
    simulate_kth_position,
    size_effect_experiment,
    _trial_rng,
    _ROLE_CSA_DRAWS,
)


@pytest.fixture(scope="module")
def printer_cfg():
    density = fit_kde(builtin_dataset("printer").values())
    return MarketConfig(
        true_density=density,
        csa_listing_mean=20.6,
        overlap_rate=0.12,
        rho=10,
        initial_set_size_n=30,
        stated_minimum=297.0,
        trials=6,
        base_seed=17,
    )


def test_config_validation():
    d = UniformDensity(0.0, 1.0)
    with pytest.raises(ValidationError):
        MarketConfig(true_density=d, csa_listing_mean=0.0)
    with pytest.raises(ValidationError):
        MarketConfig(true_density=d, csa_listing_mean=5.0, overlap_rate=1.0)
    with pytest.raises(ValidationError):
        MarketConfig(true_density=d, csa_listing_mean=5.0, rho=31)
    with pytest.raises(ValidationError):
        MarketConfig(true_density=d, csa_listing_mean=5.0, trials=0)


def test_resolved_draw_count(printer_cfg):
    assert printer_cfg.resolved_draw_count() == 18
    import dataclasses

    override = dataclasses.replace(printer_cfg, csa_draw_count=7)
    assert override.resolved_draw_count() == 7


def test_resolved_trials_defaults():
    d = UniformDensity(0.0, 1.0)
    cfg = MarketConfig(true_density=d, csa_listing_mean=5.0, rho=2, initial_set_size_n=4)
    assert cfg.resolved_trials(1) == 1000
    assert cfg.resolved_trials(2) == 100


def test_generate_initial_prices(printer_cfg):
    prices = generate_initial_prices(printer_cfg)
    assert len(prices) == 30
    cents = prices.cents_array()
    assert cents[0] == 29700
    assert np.all(np.diff(cents) > 0)


def test_draw_csa_listing_deterministic(printer_cfg):
    a = draw_csa_listing(printer_cfg, _trial_rng(17, 0, _ROLE_CSA_DRAWS, 0))
    b = draw_csa_listing(printer_cfg, _trial_rng(17, 0, _ROLE_CSA_DRAWS, 0))
    c = draw_csa_listing(printer_cfg, _trial_rng(17, 1, _ROLE_CSA_DRAWS, 0))
    assert a == b
    assert a != c
    assert len(a) == 18
    assert all(e.cents >= 1 for e in a.entries)


def test_first_position_reports(printer_cfg):
    reports = simulate_first_position(
        printer_cfg, ("monte_carlo", "interval", "minimal", "full"), budgets=(20, 60)
    )
    by_method = {r.method: r for r in reports}
    assert set(by_method) == {"monte_carlo", "interval", "minimal", "full"}
    full = by_method["full"]
    assert full.curve[0][1] == pytest.approx(full.full_set_cost)
    # every reported mean sits at or below the full-set cost
    for r in reports:
        for _, mean, _ in r.curve:
            assert mean <= full.full_set_cost + 1e-12
    # deterministic methods collapse to one trial at k = 1
    assert by_method["interval"].trials == 1
    assert by_method["interval"].curve[0][0] == 231
    assert by_method["minimal"].curve[0][0] == 21
    # monte carlo curve is nonincreasing in budget within noise
    mc = by_method["monte_carlo"]
    assert mc.trials == 6
    assert mc.curve[0][1] >= mc.curve[1][1] - 1e-12
    assert len(mc.trial_costs[0]) == 6


def test_kth_equals_first_at_k1(printer_cfg):
    methods = ("monte_carlo", "interval", "full")
    a = simulate_first_position(printer_cfg, methods, budgets=(25,))
    b = simulate_kth_position(printer_cfg, 1, methods, budgets=(25,))
    assert a == b


def test_seed_reproducibility_and_worker_invariance(printer_cfg):
    methods = ("interval", "full", "monte_carlo")
    one = simulate_kth_position(printer_cfg, 2, methods, budgets=(15,), workers=1)
    two = simulate_kth_position(printer_cfg, 2, methods, budgets=(15,), workers=1)
    fan = simulate_kth_position(printer_cfg, 2, methods, budgets=(15,), workers=3)
    assert one == two
    assert one == fan


def test_kth_position_pools_draws(printer_cfg):
    # Recompute one trial by hand: pooled critical cost of the disclosed
    # set union the trial's drawn listing must match the report.
    from pricedisclosure.data import PriceList
    from pricedisclosure.disclosure import DisclosureConstraints, interval_disclose

    reports = simulate_kth_position(printer_cfg, 2, ("interval",), budgets=())
    report = reports[0]
    initial = generate_initial_prices(printer_cfg)
    disclosed = interval_disclose(
        initial, DisclosureConstraints(rho=10), 18, "kde"
    ).subset
    drawn = draw_csa_listing(printer_cfg, _trial_rng(17, 0, _ROLE_CSA_DRAWS, 0))
    pooled = PriceList("printer", disclosed.entries + drawn.entries)
    assert report.trial_costs[0][0] == pytest.approx(
        evaluate_subset(pooled, 18).value, abs=1e-12
    )


@pytest.mark.parametrize("position_k", [1, 2])
def test_budgets_read_from_one_run_equal_single_budget_runs(printer_cfg, position_k):
    # Every budget is read from one run to the largest; unsorted and repeated
    # budgets must give each budget's own simulation bit for bit.
    def bits(report):
        return [[c.hex() for c in costs] for costs in report.trial_costs]

    single = {
        b: simulate_kth_position(printer_cfg, position_k, ("monte_carlo",), (b,))[0] for b in (10, 25)
    }
    for budgets in ((25, 10), (10, 10)):
        report = simulate_kth_position(printer_cfg, position_k, ("monte_carlo",), budgets)[0]
        assert [point[0] for point in report.curve] == list(budgets)
        assert bits(report) == [bits(single[b])[0] for b in budgets]
        assert report.curve == tuple(single[b].curve[0] for b in budgets)


def test_simulate_validation(printer_cfg, monkeypatch):
    with pytest.raises(ValidationError):
        simulate_kth_position(printer_cfg, 0, ("full",))
    with pytest.raises(ValidationError):
        simulate_kth_position(printer_cfg, 1, ("quantum",))
    with pytest.raises(ValidationError):
        simulate_kth_position(printer_cfg, 1, ("monte_carlo",), budgets=())
    # Only the largest budget runs, so a bad smaller one must be caught
    # before any trial.
    monkeypatch.setattr(simulator, "_trial_worker", None)
    with pytest.raises(ValidationError, match="budget must be at least 1, got 0"):
        simulate_kth_position(printer_cfg, 1, ("monte_carlo",), budgets=(5, 0))
    for workers in (0, -2):
        with pytest.raises(ValidationError, match="workers must be at least 1"):
            simulate_kth_position(printer_cfg, 2, ("monte_carlo", "full"), budgets=(5,), workers=workers)


def test_size_effect_rows(printer_cfg):
    rows = size_effect_experiment(printer_cfg, (20, 30), "interval", budget=1)
    assert [r.initial_set_size_n for r in rows] == [20, 30]
    direct = simulate_first_position(printer_cfg, ("interval",), budgets=(1,))
    assert rows[1].mean_cost == pytest.approx(direct[0].curve[-1][1])
    with pytest.raises(ValidationError):
        size_effect_experiment(printer_cfg, (5,), "interval", budget=1)
