"""Searcher decision model: order statistics, critical cost, counts."""

import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from pricedisclosure.data import BUILTIN_MANIFESTS, PriceEntry, PriceList, builtin_dataset
from pricedisclosure.density import (
    KDE_BLOCK_DOUBLES,
    TAIL_SIGMAS,
    KernelRows,
    ParametricRows,
    UniformDensity,
    fit_estimator,
    fit_kde,
    fit_parametric,
)
from pricedisclosure.errors import NumericalError, ValidationError
from pricedisclosure import search
from pricedisclosure.quadrature import adaptive_gauss_kronrod
from pricedisclosure.search import (
    SCREEN_CUTS,
    TAIL_CUTS,
    CriticalCost,
    Decision,
    SearcherState,
    critical_cost,
    critical_cost_lower_bound,
    decide,
    expected_new_prices,
    improvement_upper_bound,
    interval_subset_count,
    lower_bounds,
    min_order_cdf,
    min_order_pdf,
    minimal_subset_count,
    starting_panels,
    subset_count,
    tail_edges,
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


def test_starting_panels_follow_scale():
    assert starting_panels(12.0, 1.0) == 8  # 12 / 2 = 6 -> 2**3 panels
    assert starting_panels(16.0, 1.0) == 8  # panels exactly 2 wide
    assert starting_panels(16.01, 1.0) == 16
    assert starting_panels(1e6, 1.0) == 32  # capped
    assert starting_panels(1e-3, 1.0) == 1
    assert starting_panels(1.0, None) == 32


def test_critical_cost_matches_a_tight_reference_integral():
    # critical_cost returns the integral of the minimum-order cdf
    # 1 - (1 - F)**n over [effective_low, q]; scipy's quad, at a relative
    # tolerance near its floor, gives that integral independently.
    rng = np.random.default_rng(17)
    worst = 0.0
    for name in sorted(BUILTIN_MANIFESTS):
        values = builtin_dataset(name).values()
        for _ in range(2):
            subset = rng.choice(values, size=int(rng.integers(10, 31)), replace=False)
            for scale in (1e-2, 1.0, 1e3):
                x = subset * scale
                q = float(x.min())
                for estimator in ("kde", "parametric"):
                    density = fit_estimator(x, estimator)
                    for n in (1, 18, 1000, 100000):
                        def big_f_n(y, n=n):
                            return -np.expm1(n * np.log1p(-density.cdf(y)))

                        reference, _ = integrate.quad(
                            big_f_n, density.effective_low, q, epsabs=0.0, epsrel=2e-14, limit=500
                        )
                        value = critical_cost(density, q, n).value
                        worst = max(worst, abs(value - reference) / reference)
    assert worst <= 1e-12


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
                 f"{starting_panels(297.0 - low, d.bandwidth)} starting panels", "n=20",
                 f"bandwidth={d.bandwidth!r}"):
        assert part in message, part


def test_disagreeing_forms_name_their_inputs():
    d = fit_kde([10.0, 12.0, 15.0, 18.0, 22.0])
    pdf = d.pdf
    d.pdf = lambda y: 2.0 * pdf(y)
    with pytest.raises(NumericalError, match=r"forms disagree.*q=14\.0, n_new=3, .*n=5") as info:
        critical_cost(d, 14.0, 3)
    assert info.value.error_estimate > 0.0


def _bundled_subsets(seed=11, per_list=25):
    """Seeded 10-30-price subsets of the four bundled lists."""
    rng = np.random.default_rng(seed)
    for name in sorted(BUILTIN_MANIFESTS):
        values = builtin_dataset(name).values()
        for _ in range(per_list):
            yield rng.choice(values, size=int(rng.integers(10, 31)), replace=False)


def test_tail_edges_grade_toward_q():
    edges = tail_edges(88.0, 100.0, 1.0)  # a full tail of 12 bandwidths
    assert edges.size - 1 == starting_panels(12.0, 1.0) == 8
    assert edges[0] == 88.0 and edges[-1] == 100.0
    widths = np.diff(edges)[::-1]  # from q down
    assert widths[0] == 0.75 and np.all(np.diff(widths) >= 0.0)
    # A truncated tail keeps the cuts above its lower end.
    assert np.array_equal(tail_edges(96.5, 100.0, 1.0), [96.5, 97.0, 97.75, 98.5, 99.25, 100.0])
    assert np.array_equal(tail_edges(99.5, 100.0, 1.0), [99.5, 100.0])
    assert np.all(TAIL_CUTS[:-1] > TAIL_CUTS[1:])
    # A bandwidth near the spacing of doubles at q rounds some cuts onto
    # q: empty starting panels, which integrate to 0.
    density = fit_kde([1.0, 2.0], bandwidth=1e-16)
    assert np.any(np.diff(tail_edges(density.effective_low, 1.0, 1e-16)) == 0.0)
    assert 0.0 < critical_cost(density, 1.0, 18).value < 1e-15


def test_kde_tail_integral_takes_one_integrand_call(monkeypatch):
    # With q the subset's minimum, every KDE integral converges on its
    # first level: one integrand call, no refinement.
    calls = []
    real = search.adaptive_gauss_kronrod

    def counting(f, *args, **kwargs):
        count = [0]

        def counted(y):
            count[0] += 1
            return f(y)

        try:
            return real(counted, *args, **kwargs)
        finally:
            calls.append(count[0])

    monkeypatch.setattr(search, "adaptive_gauss_kronrod", counting)
    for x in _bundled_subsets():
        density = fit_kde(x)
        for n in (13, 18, 23):
            critical_cost(density, float(x.min()), n)
    assert len(calls) == 300 and set(calls) == {1}


def _even_start_cost(density, q, n):
    """critical_cost's value from the even start of starting_panels."""
    low = density.effective_low
    panels = starting_panels(q - low, density.feature_scale)
    values, _ = adaptive_gauss_kronrod(
        lambda y: np.stack(search._min_order(density, n, y, weight=q - y)), low, q, panels=panels
    )
    return min(max(float(values[0]), 0.0), q)


def test_graded_start_agrees_with_the_even_start():
    cases = [(x, (13, 18, 23)) for x in _bundled_subsets()]
    rng = np.random.default_rng(2)
    for _ in range(50):
        prices = _tie_heavy(rng)
        cases += [(prices * scale, (1, 1000, 100000)) for scale in (1e-2, 1.0, 1e3)]
    compared = 0
    for x, ns in cases:
        density = fit_kde(x)
        q = float(x.min())
        for n in ns:
            try:
                graded, even = critical_cost(density, q, n).value, _even_start_cost(density, q, n)
            except NumericalError:
                continue
            # An abscissa near q carries a rounding of up to eps * q, which
            # the kernels see as eps * q / h of their width: far below
            # 1e-12 except on the x1e3 lists, where the starts' abscissae
            # differ by that rounding and no start can agree more closely.
            rel = max(1e-12, np.finfo(float).eps * q / density.bandwidth)
            assert abs(graded - even) <= rel * max(1.0, even), (x, n, graded, even)
            compared += 1
    assert compared >= 0.95 * sum(len(ns) for _, ns in cases)


def test_lower_bound_is_a_left_riemann_sum_of_the_dual_integrand():
    # Uniform on [0, 1] has no feature scale: its edges are the 16 even cuts
    # of [0, q] and the 16 SCREEN_CUTS at scale q / TAIL_SIGMAS, sorted
    # together. At n = 1 the integrand is y, so the refined sum is at least
    # the even grid's, q**2 / 2 * (1 - 1/16), and at most the integral.
    for q in (0.25, 0.5, 1.0):
        even = np.arange(16) * (q / 16)
        graded = np.maximum(q - SCREEN_CUTS * (q / TAIL_SIGMAS), 0.0)
        edges = np.append(np.sort(np.concatenate([even, graded])), q)
        assert edges.size == 33 and edges[0] == 0.0
        for n in (1, 5, 1000):
            bound = critical_cost_lower_bound(UNIT, q, n)
            assert bound == pytest.approx(np.diff(edges) @ -np.expm1(n * np.log1p(-edges[:-1])), rel=1e-14)
            assert bound <= uniform_closed_form(q, n)
        assert critical_cost_lower_bound(UNIT, q, 1) >= q * q / 2 * 15 / 16
    assert critical_cost_lower_bound(UNIT, 0.0, 5) == 0.0
    # A KDE's first cut, 12 bandwidths below its minimum, is its effective
    # low, so the cdf is sampled at 16 left edges graded toward q.
    density = fit_kde([100.0, 102.0, 105.0, 108.0, 112.0])
    calls = []
    cdf = density.cdf
    density.cdf = lambda y: calls.append(np.size(y)) or cdf(y)
    bound = critical_cost_lower_bound(density, 100.0, 18)
    assert calls == [16] and SCREEN_CUTS[0] == TAIL_SIGMAS == 12.0 and SCREEN_CUTS[-1] == 0.125
    value = critical_cost(density, 100.0, 18).value
    assert 0.8 * value <= bound <= value
    # Above the minimum the first cut lies above the effective low and the
    # edges start there. The panel left out, [low, first cut], would add
    # g(low), about 0, per unit width: the sum is the one with it.
    low, h = density.effective_low, density.bandwidth
    for q in (100.5, 104.0, 110.0):
        cuts = q - SCREEN_CUTS * h
        edges = search.screen_edges(low, np.array([q]), h)
        assert edges[0] == cuts[0] > low and np.array_equal(edges, np.append(cuts, q))
        with_low = np.concatenate([[low], cuts, [q]])
        for n in (1, 18, 1000):
            g = -np.expm1(n * np.log1p(-cdf(with_low[:-1])))
            bound = critical_cost_lower_bound(density, q, n)
            assert bound == pytest.approx(np.diff(with_low) @ g, rel=1e-12)
            assert bound <= critical_cost(density, q, n).value
    with pytest.raises(ValidationError):
        critical_cost_lower_bound(density, 100.0, 0)
    with pytest.raises(ValidationError):
        critical_cost_lower_bound(density, float("nan"), 18)


def _screen_rows(rng, k, count=12):
    """Seeded sorted rows of k prices: bundled subsets, tie-heavy lists, all
    equal prices, and lists whose effective low is clipped at 0."""
    rows = []
    for name in sorted(BUILTIN_MANIFESTS):
        rows += [rng.choice(builtin_dataset(name).values(), size=k) for _ in range(count // 4)]
    rows += [_tie_heavy(rng, k) for _ in range(count // 2)]
    rows += [np.full(k, 42.17), np.full(k, 0.29), rng.uniform(0.5, 40.0, size=k)]
    return np.sort(np.array(rows), axis=1)


def full(rows):
    """The sizes of rows that fill their matrix."""
    return np.full(len(rows), rows.shape[1])


def bounds(samples, sizes, n_new, estimator):
    """The bounds of :func:`lower_bounds`, without its densities."""
    return lower_bounds(samples, sizes, n_new, estimator)[0]


def test_block_bounds_match_the_fitted_bound_alone_or_in_any_block(monkeypatch):
    # lower_bounds needs no KDE fit: its bound is critical_cost_lower_bound
    # of the fitted KDE to within 1e-12 (here bit for bit, while the fitted
    # cdf is dense), and a row's bits do not depend on the rows beside it,
    # their order or the chunking, so the screen decides the same way for
    # any block split and any worker count.
    rng = np.random.default_rng(7)
    for k in (1, 2, 5, 9, 17, 30, 3000):
        rows = _screen_rows(rng, k, count=4 if k > 100 else 12)
        for n in (1, 18, 1000):
            block = bounds(rows, full(rows), n, "kde")
            for i, row in enumerate(rows):
                scalar = critical_cost_lower_bound(fit_kde(row), row[0], n)
                assert abs(block[i] - scalar) <= 1e-12 * scalar, (k, n, row)
                assert bounds(rows[i : i + 1], full(rows)[i : i + 1], n, "kde")[0] == block[i]
            order = rng.permutation(len(rows))
            assert np.array_equal(bounds(rows[order], full(rows), n, "kde"), block[order])
            with monkeypatch.context() as m:
                m.setattr(search, "KDE_BLOCK_DOUBLES", 1)  # one row per chunk
                assert np.array_equal(bounds(rows, full(rows), n, "kde"), block)
    # Equal prices whose mean rounds off them: a bandwidth of 1e-17.
    rows = np.full((2, 13), 0.1)
    density = fit_kde(rows[0])
    assert density.bandwidth < 1e-16
    assert np.array_equal(bounds(rows, full(rows), 18, "kde"), [critical_cost_lower_bound(density, 0.1, 18)] * 2)
    # With q at the low end every clipped panel has width 0, so the sum is 0.
    edges = search.screen_edges(np.array([[0.1]]), np.array([[0.1]]), np.array([[1e-20]]))
    assert edges.shape == (1, 17) and np.all(edges == 0.1)
    with pytest.raises(ValidationError):
        bounds(rows, full(rows), 0, "kde")


def test_parametric_block_bounds_match_the_fitted_bound_alone_or_in_any_block(monkeypatch):
    # lower_bounds fits no parametric row alone: the block fit is
    # fit_parametric's, so a row's bound is the bound of fit_parametric's
    # density bit for bit, a deferred row's NaN, and a row's bits do not
    # depend on the rows beside it, their order or the chunking. Sizes are
    # mixed in one padded block, as a Monte Carlo block holds them. Only a
    # one-price row is deferred: all equal prices still fit the exponential.
    rng = np.random.default_rng(9)
    rows = [row for k in (1, 2, 3, 9, 17, 30) for row in _screen_rows(rng, k)]
    sizes = np.array([row.size for row in rows])
    samples = np.zeros((len(rows), sizes.max()))
    for i, row in enumerate(rows):
        samples[i, : row.size] = row
    deferred = ParametricRows(samples, sizes).deferred
    assert np.array_equal(deferred, sizes < 2)
    assert any(row[0] == row[-1] for row in rows if row.size > 1)
    for n in (1, 18, 1000):
        block = bounds(samples, sizes, n, "parametric")
        assert np.array_equal(np.isnan(block), deferred)
        for i, row in enumerate(rows):
            if n == 18:
                alone = bounds(samples[i : i + 1], sizes[i : i + 1], n, "parametric")
                assert np.array_equal(alone, block[i : i + 1], equal_nan=True)
            if not deferred[i]:
                assert block[i] == critical_cost_lower_bound(fit_parametric(row).density, row[0], n), (n, row)
        order = rng.permutation(len(rows))
        assert np.array_equal(bounds(samples[order], sizes[order], n, "parametric"), block[order], equal_nan=True)
        with monkeypatch.context() as m:
            m.setattr(search, "KDE_BLOCK_DOUBLES", 1)  # one row per chunk
            assert np.array_equal(bounds(samples, sizes, n, "parametric"), block, equal_nan=True)
    with pytest.raises(ValidationError):
        bounds(samples, sizes, 0, "parametric")


def test_kde_block_bounds_of_mixed_sizes_match_the_fitted_bound_bitwise(monkeypatch):
    # One padded block of KDE rows of sizes 1-133 (one-price rows, tie-heavy
    # rows, mouse's 133 prices past numpy's 128-value split), NaN past each
    # row's end: every row's fields are its KernelDensity's, bit for bit,
    # and its bound is the fitted KDE's bound, whose 16-point cdf is one
    # dense block at every size here, alone, permuted or one row per chunk.
    rng = np.random.default_rng(13)
    rows = [np.array([x]) for x in (0.29, 12.5, 599.99)]
    rows += [np.sort(_tie_heavy(rng, int(k))) for k in rng.integers(2, 60, 12)]
    rows += [row for k in (2, 7, 8, 9, 16, 30, 64, 129) for row in _screen_rows(rng, k, count=4)]
    rows.append(np.sort(builtin_dataset("mouse").values()))
    sizes = np.array([row.size for row in rows])
    assert sizes.min() == 1 and sizes.max() == 133 and 16 * 133 <= KDE_BLOCK_DOUBLES
    samples = np.full((len(rows), sizes.max()), np.nan)
    for i, row in enumerate(rows):
        samples[i, : row.size] = row
    kde = KernelRows(samples, sizes)
    low = kde.effective_low
    for i, row in enumerate(rows):
        fitted = fit_kde(row)
        assert kde.bandwidth[i] == fitted.bandwidth and kde.sample_min[i] == fitted.sample_min, row
        assert kde._below_zero[i] == fitted._below_zero and low[i] == fitted.effective_low, row
    for n in (1, 18, 1000):
        block = bounds(samples, sizes, n, "kde")
        for i, row in enumerate(rows):
            assert block[i] == critical_cost_lower_bound(fit_kde(row), row[0], n), (n, row)
            assert bounds(samples[i : i + 1], sizes[i : i + 1], n, "kde")[0] == block[i]
        order = rng.permutation(len(rows))
        assert np.array_equal(bounds(samples[order], sizes[order], n, "kde"), block[order])
        with monkeypatch.context() as m:
            m.setattr(search, "KDE_BLOCK_DOUBLES", 1)  # one row per chunk
            assert np.array_equal(bounds(samples, sizes, n, "kde"), block)


def test_block_bounds_keep_the_kernel_pass_within_its_budget():
    # 600 rows of 400 prices: one (rows, edges, k) pass would hold 30.7 MB
    # per temporary; chunked under KDE_BLOCK_DOUBLES it holds 256 KiB.
    rows = np.sort(np.random.default_rng(5).uniform(50.0, 500.0, size=(600, 400)), axis=1)
    tracemalloc.start()
    try:
        bounds(rows, full(rows), 18, "kde")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
