"""Searcher decision model: order statistics, critical cost, counts."""

import numpy as np
import pytest

from pricedisclosure.data import PriceEntry, PriceList
from pricedisclosure.density import UniformDensity, fit_estimator, fit_kde
from pricedisclosure.errors import NumericalError, ValidationError
from pricedisclosure.search import (
    CriticalCost,
    Decision,
    SearcherState,
    critical_cost,
    decide,
    expected_new_prices,
    forced_depth,
    improvement_upper_bound,
    interval_subset_count,
    min_order_cdf,
    min_order_pdf,
    minimal_subset_count,
    subset_count,
)

UNIT = UniformDensity(0.0, 1.0)


def uniform_closed_form(q: float, n: int) -> float:
    return q - (1.0 - (1.0 - q) ** (n + 1)) / (n + 1)


def test_min_order_pdf_examples():
    assert min_order_pdf(UNIT, 1, 0.3) == pytest.approx(UNIT.pdf(0.3))
    assert min_order_pdf(UNIT, 2, 0.5) == pytest.approx(1.0)
    assert min_order_pdf(UNIT, 5, 1.0) == 0.0  # cdf there is 1
    with pytest.raises(ValidationError):
        min_order_pdf(UNIT, 0, 0.5)


def test_min_order_cdf_examples():
    assert min_order_cdf(UNIT, 1, 0.3) == pytest.approx(0.3)
    assert min_order_cdf(UNIT, 18, 0.9) == pytest.approx(1.0 - 0.1**18)
    assert min_order_cdf(UNIT, 7, 0.0) == 0.0
    with pytest.raises(ValidationError):
        min_order_cdf(UNIT, 0, 0.5)


def test_min_order_cdf_dominance_in_n():
    y = np.linspace(0.05, 0.95, 19)
    for n1, n2 in [(1, 2), (3, 9), (10, 30)]:
        lo = np.array([min_order_cdf(UNIT, n1, v) for v in y])
        hi = np.array([min_order_cdf(UNIT, n2, v) for v in y])
        assert np.all(hi >= lo)


def test_min_order_log_form_at_large_n():
    # 1 - (1 - y)**n loses most digits of a small y; the log form keeps them.
    n = 100000
    for y in (1e-7, 1e-5, 1e-3):
        cdf = -np.expm1(n * np.log1p(-y))
        pdf = n * np.exp((n - 1) * np.log1p(-y))
        assert min_order_cdf(UNIT, n, y) == pytest.approx(cdf, rel=1e-14, abs=0.0)
        assert min_order_pdf(UNIT, n, y) == pytest.approx(pdf, rel=1e-14, abs=0.0)
        vector = np.array([y, y])
        assert np.array_equal(min_order_cdf(UNIT, n, vector), [min_order_cdf(UNIT, n, y)] * 2)


def test_min_order_pdf_is_cdf_derivative():
    d = fit_kde([10.0, 12.0, 15.0, 18.0, 22.0])
    h = 1e-5
    for y in (11.0, 14.0, 17.0):
        for n in (1, 4, 9):
            numeric = (min_order_cdf(d, n, y + h) - min_order_cdf(d, n, y - h)) / (2 * h)
            analytic = min_order_pdf(d, n, y)
            assert numeric == pytest.approx(analytic, rel=1e-4)


def test_critical_cost_uniform_examples():
    assert critical_cost(UNIT, 0.5, 1).value == pytest.approx(0.125, abs=1e-8)
    assert critical_cost(UNIT, 0.5, 3).value == pytest.approx(0.265625, abs=1e-8)
    assert critical_cost(UNIT, 0.0, 4).value == 0.0


def test_critical_cost_uniform_closed_form_sweep():
    rng = np.random.default_rng(21)
    for _ in range(60):
        q = float(rng.uniform(0.05, 0.95))
        n = int(rng.integers(1, 30))
        got = critical_cost(UNIT, q, n)
        assert got.value == pytest.approx(uniform_closed_form(q, n), abs=1e-6)
        assert got.q == q and got.n_new == n
        assert got.integration_error_estimate >= 0.0


def test_critical_cost_validation():
    with pytest.raises(ValidationError):
        critical_cost(UNIT, 0.5, 0)
    with pytest.raises(ValidationError):
        critical_cost(UNIT, -0.1, 3)


def test_critical_cost_fields_validated():
    # A negative or above-q value is a numerical failure, not caller error.
    with pytest.raises(NumericalError):
        CriticalCost(value=-0.1, q=1.0, n_new=2, integration_error_estimate=0.0)
    with pytest.raises(NumericalError):
        CriticalCost(value=2.0, q=1.0, n_new=2, integration_error_estimate=0.0)


def _state(cents, cost):
    prices = PriceList("x", tuple(PriceEntry("s", c) for c in cents))
    return SearcherState.from_prices(prices, query_cost=cost, expected_new_count=5)


def test_decide_rule_with_boundary():
    cc = CriticalCost(value=4.0, q=5.0, n_new=5, integration_error_estimate=0.0)
    assert decide(_state([500, 700], 5.0), cc) is Decision.TERMINATE
    assert decide(_state([500, 700], 3.0), cc) is Decision.CONTINUE_SEARCH
    assert decide(_state([500, 700], 4.0), cc) is Decision.TERMINATE


def test_searcher_state_minimum_consistency():
    prices = PriceList("x", (PriceEntry("s", 500), PriceEntry("s", 700)))
    with pytest.raises(ValidationError):
        SearcherState(
            best_price_q=7.0, observed_prices=prices, query_cost=1.0, expected_new_count=3
        )


def test_expected_new_prices():
    assert expected_new_prices(20.6, 0.12) == 18
    assert expected_new_prices(10, 0.0) == 10
    assert expected_new_prices(26.6, 0.12) == 23
    assert expected_new_prices(0.4, 0.5) == 1  # floor at one price
    with pytest.raises(ValidationError):
        expected_new_prices(10, 1.0)


def test_improvement_upper_bound():
    assert improvement_upper_bound(4, 1) == 0.05
    assert improvement_upper_bound(1, 1) == 0.5
    assert improvement_upper_bound(2, 3) == pytest.approx(0.3)
    with pytest.raises(ValidationError):
        improvement_upper_bound(0, 1)


def test_subset_count_pinned_values():
    assert subset_count(20, 10) == 354_522
    assert subset_count(25, 10) == 15_505_590
    assert subset_count(30, 10) == 530_396_371
    assert subset_count(12, 5) == 1816


def test_subset_count_identity_and_validation():
    for n in (1, 5, 16, 31):
        assert subset_count(n, 1) == 2 ** (n - 1)
    with pytest.raises(ValidationError):
        subset_count(5, 6)
    with pytest.raises(ValidationError):
        subset_count(5, 0)


def test_interval_subset_count():
    assert interval_subset_count(30, 10) == 231
    assert interval_subset_count(7, 7) == 1
    assert interval_subset_count(5, 3) == 6


def test_minimal_subset_count():
    assert minimal_subset_count(30, 10) == 21
    assert minimal_subset_count(11, 10) == 2
    assert minimal_subset_count(6, 6) == 1


def test_critical_cost_monotone_in_q_and_n():
    d = fit_kde([3.0, 4.0, 5.5, 7.0, 9.0])
    costs_q = [critical_cost(d, q, 6).value for q in (3.0, 4.5, 6.0, 8.0)]
    assert all(a <= b + 1e-9 for a, b in zip(costs_q, costs_q[1:]))
    costs_n = [critical_cost(d, 6.0, n).value for n in (1, 2, 5, 12, 25)]
    assert all(a <= b + 1e-9 for a, b in zip(costs_n, costs_n[1:]))


def test_forced_depth_follows_scale():
    assert forced_depth(12.0, 1.0) == 6  # 4 * 12 = 48 -> 2**6 = 64 panels
    assert forced_depth(1e6, 1.0) == 8  # capped
    assert forced_depth(1e-3, 1.0) == 0
    assert forced_depth(1.0, None) == 8


def _tie_heavy(rng, size=30):
    distinct = np.round(rng.uniform(20.0, 600.0) + rng.uniform(0.0, 3.0, rng.integers(2, 6)), 2)
    return rng.choice(distinct, size=size)


@pytest.mark.parametrize("estimator", ["kde", "parametric"])
def test_near_duplicate_prices_give_a_finite_cost(estimator):
    # The KDE's bandwidth (0.0025) is far below q/256: on [0, q] the
    # direct form's probe grid missed the bump and the forms disagreed.
    prices = np.array([297.0] * 10 + [297.01] * 10)
    cost = critical_cost(fit_estimator(prices, estimator), 297.0, 18)
    assert np.isfinite(cost.value) and 0.0 < cost.value < 297.0


@pytest.mark.parametrize("estimator", ["kde", "parametric"])
def test_tie_heavy_lists_at_any_scale_and_extreme_n(estimator):
    # 2-5 distinct prices within $3, rescaled down and up, with n_new
    # from a single draw to 100000: both forms must converge and agree.
    rng = np.random.default_rng(2)
    for _ in range(50):
        prices = _tie_heavy(rng)
        for scale in (1.0, 1e-2, 1e3):
            x = prices * scale
            density = fit_estimator(x, estimator)
            q = float(x.min())
            costs = [critical_cost(density, q, n).value for n in (1, 1000, 100000)]
            assert all(np.isfinite(c) and 0.0 <= c <= q for c in costs)
            assert costs[0] <= costs[1] <= costs[2]


def test_numerical_error_names_its_inputs():
    d = fit_kde([297.0] * 10 + [297.01] * 10)
    d.pdf = lambda y: np.full(np.shape(y), np.nan)
    with pytest.raises(NumericalError) as info:
        critical_cost(d, 297.0, 18)
    message = str(info.value)
    low = d.effective_low
    for part in ("not finite", "q=297.0", "n_new=18", f"interval [{low}, 297.0]",
                 f"forced depth {forced_depth(297.0 - low, d.bandwidth)}", "n=20",
                 f"bandwidth={d.bandwidth!r}"):
        assert part in message, part


def test_disagreeing_forms_name_their_inputs():
    d = fit_kde([10.0, 12.0, 15.0, 18.0, 22.0])
    pdf = d.pdf
    d.pdf = lambda y: 2.0 * pdf(y)
    with pytest.raises(NumericalError, match=r"forms disagree.*q=14\.0, n_new=3, .*n=5") as info:
        critical_cost(d, 14.0, 3)
    assert info.value.error_estimate > 0.0
