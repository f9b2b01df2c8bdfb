"""Market simulation: disclosure strategies facing a sequential searcher.

The market has a true price density. The disclosing agent starts from n
prices laid out with equal probability mass between neighbors, picks a
subset by one of the strategies, and the searcher judges further querying
by the critical cost of what it has seen. At queue position k >= 2 the
searcher has already collected k-1 competitor listings drawn from the true
density, so the critical cost is computed on the pooled set.

Every trial's randomness derives from (base_seed, trial, role), making
whole experiments reproducible and worker-count-invariant.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import PriceList
from .density import Density, equal_mass_prices, quantile_array
from .disclosure import (
    DisclosureConstraints,
    METHODS,
    disclose,
    evaluate_block,
    monte_carlo_disclose,
    padded_cents,
)
from .errors import ValidationError
from .search import expected_new_prices

# Stream roles for per-trial seed derivation.
_ROLE_MC_SELECT = 0
_ROLE_CSA_DRAWS = 1


@dataclass(frozen=True)
class MarketConfig:
    true_density: Density
    csa_listing_mean: float
    overlap_rate: float = 0.12
    rho: int = 10
    initial_set_size_n: int = 30
    estimator: str = "kde"
    trials: int | None = None  # default: 1000 at position 1, 100 deeper
    base_seed: int = 0
    stated_minimum: float | None = None
    csa_draw_count: int | None = None  # override for the per-query yield N
    product_id: str = "market"

    def __post_init__(self):
        # A numeric field takes its declared type (numpy's too, bools not),
        # a real one only a finite value.
        for f in dataclasses.fields(self):
            declared, _, optional = f.type.partition(" | ")
            kind = {"int": numbers.Integral, "float": numbers.Real}.get(declared)
            value = getattr(self, f.name)
            if kind is None or (optional and value is None):
                continue
            if isinstance(value, bool) or not isinstance(value, kind) or not -math.inf < value < math.inf:
                noun = "an integer" if declared == "int" else "a finite number"
                raise ValidationError(f"{f.name} must be {noun}, got {value!r}")
        if not 0.0 <= self.overlap_rate < 1.0:
            raise ValidationError(f"overlap_rate must be in [0, 1), got {self.overlap_rate}")
        if self.csa_listing_mean <= 0:
            raise ValidationError(f"csa_listing_mean must be positive, got {self.csa_listing_mean}")
        if not 1 <= self.rho <= self.initial_set_size_n:
            raise ValidationError(
                f"need 1 <= rho <= initial_set_size_n, got rho={self.rho}, "
                f"n={self.initial_set_size_n}"
            )
        if self.stated_minimum is not None and self.stated_minimum <= 0:
            raise ValidationError(f"stated_minimum must be positive, got {self.stated_minimum}")
        if self.base_seed < 0:
            raise ValidationError(f"base_seed must be nonnegative, got {self.base_seed}")
        if self.trials is not None and self.trials < 1:
            raise ValidationError(f"trials must be positive, got {self.trials}")
        if self.csa_draw_count is not None and self.csa_draw_count < 1:
            raise ValidationError(f"csa_draw_count must be positive, got {self.csa_draw_count}")

    def resolved_draw_count(self) -> int:
        if self.csa_draw_count is not None:
            return self.csa_draw_count
        return expected_new_prices(self.csa_listing_mean, self.overlap_rate)

    def resolved_trials(self, position_k: int) -> int:
        if self.trials is not None:
            return self.trials
        return 1000 if position_k == 1 else 100


@dataclass(frozen=True)
class SimulationReport:
    method: str
    curve: tuple[tuple[int, float, float], ...]  # (budget, mean_cost, std_error)
    full_set_cost: float
    position_k: int
    trials: int
    base_seed: int
    trial_costs: tuple[tuple[float, ...], ...]  # per curve point, by trial


def _derive_seed(base_seed: int, *path: int) -> int:
    state = np.random.SeedSequence([base_seed, *path]).generate_state(2, np.uint64)
    return int(state[0]) | (int(state[1]) << 64)


def _trial_rng(base_seed: int, *path: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_derive_seed(base_seed, *path)))


def _rounded_list(cfg: MarketConfig, source: str, prices: np.ndarray) -> PriceList:
    """Float prices rounded half up to whole cents, at least one cent."""
    cents = np.maximum(1, np.floor(prices * 100.0 + 0.5).astype(np.int64))
    return PriceList.from_columns(cfg.product_id, cents, (source,) * len(cents))


def generate_initial_prices(cfg: MarketConfig) -> PriceList:
    """The disclosing agent's n prices: equal mass between neighbors,
    anchored at the stated minimum (or the density's sample minimum)."""
    floats = equal_mass_prices(
        cfg.true_density, cfg.initial_set_size_n, q0=cfg.stated_minimum
    )
    return _rounded_list(cfg, "generated", floats)


def draw_csa_listing(cfg: MarketConfig, rng: np.random.Generator) -> PriceList:
    """One competitor's listing: N i.i.d. inverse-cdf draws from the true
    density, N being the overlap-discounted expected yield."""
    n_draw = cfg.resolved_draw_count()
    levels = rng.random(n_draw)
    return _rounded_list(cfg, "csa-draw", quantile_array(cfg.true_density, levels))


def _trial_worker(cfg, position_k, n_new, subsets, trial, budgets) -> dict[str, tuple[float, ...]]:
    """One trial's pooled costs per method: a 1-tuple for each disclosed
    subset and one Monte Carlo cost per budget, if any."""
    # The cents of the k-1 competitor listings the searcher has already queried.
    drawn = [draw_csa_listing(cfg, _trial_rng(cfg.base_seed, trial, _ROLE_CSA_DRAWS, j)).cents_array()
             for j in range(position_k - 1)]
    chosen = list(subsets.values())
    if budgets:
        # One run to the largest budget. Each budget's run is its prefix, so
        # budget b's winner is the last trace entry with index <= b.
        seed = _derive_seed(cfg.base_seed, trial, _ROLE_MC_SELECT)
        constraints = DisclosureConstraints(rho=cfg.rho)
        res = monte_carlo_disclose(subsets["full"], constraints, n_new, max(budgets), seed, cfg.estimator)
        chosen += [res.trace_subsets[sum(i <= b for i, _ in res.trace) - 1] for b in budgets]
    pooled = [np.sort(np.concatenate([subset.cents_array(), *drawn])) for subset in chosen]
    sizes = np.array([row.size for row in pooled])
    costs = evaluate_block(padded_cents(np.concatenate(pooled), sizes), sizes, n_new, cfg.estimator, "pooled set")
    out = {method: (cost.value,) for method, cost in zip(subsets, costs)}
    if budgets:
        out["monte_carlo"] = tuple(cost.value for cost in costs[len(subsets):])
    return out


def _mean_and_std_error(costs: tuple[float, ...]) -> tuple[float, float]:
    mean = float(np.mean(costs))
    se = float(np.std(costs, ddof=1) / np.sqrt(len(costs))) if len(costs) > 1 else 0.0
    return mean, se


def simulate_kth_position(
    cfg: MarketConfig,
    position_k: int,
    methods,
    budgets=(),
    workers: int = 1,
) -> list[SimulationReport]:
    """Run the disclosure-vs-search experiment at queue position k.

    Deterministic strategies are evaluated once per trial on the pooled
    set; the randomized strategy runs once per trial, to the largest
    budget, and every budget reads its winner from that run. At k = 1
    there is nothing to pool and no trial randomness for deterministic
    strategies, so those collapse to a single trial.
    """
    if position_k < 1:
        raise ValidationError(f"position must be at least 1, got {position_k}")
    methods = tuple(dict.fromkeys(methods))
    for m in methods:
        if m not in METHODS:
            raise ValidationError(f"unknown method {m!r}; choose from {METHODS}")
    budgets = tuple(int(b) for b in budgets)
    if "monte_carlo" in methods and not budgets:
        raise ValidationError("monte_carlo simulation needs at least one budget")
    if any(b < 1 for b in budgets):
        raise ValidationError(f"budget must be at least 1, got {min(budgets)}")
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")

    initial = generate_initial_prices(cfg)
    n_new = cfg.resolved_draw_count()
    constraints = DisclosureConstraints(rho=cfg.rho)
    trials = cfg.resolved_trials(position_k)

    # Per method: its curve points and its trial count. At k = 1
    # deterministic pooled costs are constant, so they take one trial.
    det_trials = 1 if position_k == 1 else trials
    subsets: dict[str, PriceList] = {"full": initial}
    plan = {"full": ((1,), det_trials)}
    for method in ("interval", "minimal", "brute_force"):
        if method in methods:
            res = disclose(initial, method, constraints, n_new, cfg.estimator, workers=workers)
            subsets[method] = res.subset
            plan[method] = ((res.subsets_evaluated,), det_trials)
    if "monte_carlo" in methods:
        plan["monte_carlo"] = (budgets, trials)
    else:
        budgets = ()

    work = functools.partial(_trial_worker, cfg, position_k, n_new, subsets, budgets=budgets)
    count = max(n for _, n in plan.values())
    if workers > 1 and count > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(work, range(count), chunksize=8))
    else:
        runs = list(map(work, range(count)))
    # Per method and curve point, the cost in each of the method's trials.
    costs = {m: tuple(zip(*(run[m] for run in runs[:n]))) for m, (_, n) in plan.items()}
    full_set_cost = float(np.mean(costs["full"][0]))
    return [
        SimulationReport(
            method=m,
            curve=tuple((point, *_mean_and_std_error(c)) for point, c in zip(plan[m][0], costs[m])),
            full_set_cost=full_set_cost,
            position_k=position_k,
            trials=plan[m][1],
            base_seed=cfg.base_seed,
            trial_costs=costs[m],
        )
        for m in methods
    ]


def simulate_first_position(cfg: MarketConfig, methods, budgets=(), workers: int = 1):
    """Position-1 experiment; exactly simulate_kth_position at k = 1."""
    return simulate_kth_position(cfg, 1, methods, budgets, workers)


@dataclass(frozen=True)
class SizeEffectRow:
    initial_set_size_n: int
    mean_cost: float
    trial_costs: tuple[float, ...]


def size_effect_experiment(
    cfg: MarketConfig,
    sizes,
    method: str,
    budget: int,
    workers: int = 1,
) -> tuple[SizeEffectRow, ...]:
    """First-position mean cost as the initial list size varies; trial
    seeds depend only on (base_seed, trial), so rows pair up by trial."""
    rows = []
    for size in sizes:
        if size < cfg.rho:
            raise ValidationError(f"size {size} is below rho {cfg.rho}")
        sized = dataclasses.replace(cfg, initial_set_size_n=int(size))
        reports = simulate_kth_position(sized, 1, (method,), (budget,), workers)
        report = reports[0]
        _, mean, _ = report.curve[-1]
        rows.append(SizeEffectRow(int(size), mean, report.trial_costs[-1]))
    return tuple(rows)
