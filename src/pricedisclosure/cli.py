"""Command-line entry point.

Subcommands: fit, critical-cost, disclose, simulate, bench, counts. All
emit plain-text or CSV/JSON with full-precision `.`-decimal numbers; every
randomized subcommand takes --seed (default 0, echoed) so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .data import builtin_dataset, format_cents, load_prices
from .density import ESTIMATORS, fit_estimator, fit_kde, fit_parametric
from .disclosure import DisclosureConstraints, clear_evaluation_cache, disclose, evaluate_subset
from .errors import PriceDisclosureError, ValidationError
from .search import critical_cost, interval_subset_count, minimal_subset_count, subset_count
from .simulator import MarketConfig, simulate_kth_position

class UsageError(Exception):
    """Flag combinations argparse cannot express; exits with code 2."""


METHOD_ALIASES = {
    "brute": "brute_force",
    "brute_force": "brute_force",
    "mc": "monte_carlo",
    "monte_carlo": "monte_carlo",
    "interval": "interval",
    "minimal": "minimal",
    "full": "full",
}


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", metavar="CSV", help="price list CSV file")
    group.add_argument("--builtin", metavar="NAME", help="bundled dataset name")


def _load_data(args: argparse.Namespace):
    if args.data is not None:
        return load_prices(args.data)
    return builtin_dataset(args.builtin)


def _parse_method(name: str) -> str:
    method = METHOD_ALIASES.get(name)
    if method is None:
        raise argparse.ArgumentTypeError(
            f"unknown method {name!r}; choose from {sorted(set(METHOD_ALIASES))}"
        )
    return method


def _comma_list(convert):
    """An argparse type: a comma list, each part read by ``convert``."""

    def parse(text: str) -> tuple:
        return tuple(convert(part.strip()) for part in text.split(","))

    parse.__name__ = convert.__name__  # argparse names it, as in "invalid int value"
    return parse


def _positive(convert):
    """An argparse type: ``convert`` the text and require a finite value above 0."""

    def parse(text: str):
        value = convert(text)
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it, as in "invalid int value"
    return parse


def _write_csv(path: str | None, header, rows) -> None:
    handle = open(path, "w", encoding="utf-8", newline="") if path else sys.stdout
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    finally:
        if path:
            handle.close()


def _cmd_fit(args: argparse.Namespace) -> int:
    prices = _load_data(args)
    values = prices.values()
    if args.method == "kde":
        density = fit_kde(values, bandwidth=args.bandwidth)
        payload = {
            "kind": "kde",
            "bandwidth": density.bandwidth,
            "sample_size": int(values.size),
        }
    else:
        report = fit_parametric(values)
        density = report.density
        payload = {
            "kind": "parametric",
            "family": report.best_family,
            "params": report.density.params,
            "sample_size": int(values.size),
            "candidates": [
                {
                    "family": c.family,
                    "bic": None if c.skipped else c.bic,
                    "loglik": None if c.skipped else c.loglik,
                    "skipped": c.skipped,
                    "reason": c.reason,
                }
                for c in report.candidates
            ],
        }
    hi = density.quantile(1.0 - 1e-6)
    grid_y = np.linspace(density.support_low, hi, 512)
    payload["grid"] = np.column_stack([grid_y, density.pdf(grid_y), density.cdf(grid_y)]).tolist()
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _cmd_critical_cost(args: argparse.Namespace) -> int:
    prices = _load_data(args)
    density = fit_estimator(prices.values(), args.method)
    if args.sweep is None:
        if args.q is None or args.n_new is None:
            raise UsageError("--q and --n-new are required without --sweep")
        cost = critical_cost(density, args.q, args.n_new)
        print(f"critical_cost: {cost.value!r}")
        print(f"error_estimate: {cost.integration_error_estimate!r}")
        return 0
    if args.start is None or args.stop is None or args.step is None:
        raise UsageError("--sweep needs --from, --to, and --step")
    if args.step <= 0:
        raise UsageError(f"--step must be positive, got {args.step}")
    if args.sweep == "q":
        if args.n_new is None:
            raise UsageError("--n-new is required when sweeping q")
        points = np.arange(args.start, args.stop + 1e-12, args.step)
        rows = []
        for q in points:
            cost = critical_cost(density, float(q), args.n_new)
            rows.append((float(q), cost.value, cost.integration_error_estimate))
        _write_csv(args.out, ("q", "critical_cost", "error_estimate"), rows)
    else:
        if args.q is None:
            raise UsageError("--q is required when sweeping n")
        rows = []
        for n in range(int(args.start), int(args.stop) + 1, int(args.step)):
            cost = critical_cost(density, args.q, n)
            rows.append((n, cost.value, cost.integration_error_estimate))
        _write_csv(args.out, ("n_new", "critical_cost", "error_estimate"), rows)
    return 0


def _calibrate_budget(prices, n_new: int, estimator: str, deadline_ms: float) -> int:
    t0 = time.perf_counter()
    repeats = 0
    while time.perf_counter() - t0 < 0.2:
        clear_evaluation_cache()
        evaluate_subset(prices, n_new, estimator)
        repeats += 1
    per_eval = (time.perf_counter() - t0) / repeats
    return max(1, int(deadline_ms / 1000.0 / per_eval))


def _cmd_disclose(args: argparse.Namespace) -> int:
    prices = _load_data(args)
    method = args.method
    constraints = DisclosureConstraints(rho=args.rho, max_size=args.max_size)
    budget = args.budget
    if method == "monte_carlo":
        if args.deadline_ms is not None:
            if budget is not None:
                raise UsageError("--budget and --deadline-ms are mutually exclusive")
            budget = _calibrate_budget(prices, args.n_new, args.estimator, args.deadline_ms)
            print(f"calibrated budget: {budget} (deadline-based, nondeterministic)")
        elif budget is None:
            raise UsageError("monte_carlo needs --budget or --deadline-ms")
        print(f"seed: {args.seed}")
    result = disclose(
        prices,
        method,
        constraints,
        args.n_new,
        estimator=args.estimator,
        budget=budget,
        seed=args.seed,
        workers=args.workers,
    )
    disclosed = " ".join(format_cents(e.cents) for e in result.subset.entries)
    print(f"method: {result.method}")
    print(f"disclosed ({len(result.subset)} prices): {disclosed}")
    print(f"critical_cost: {result.critical_cost.value!r}")
    print(f"evaluations: {result.subsets_evaluated}")
    if result.warning:
        print(f"warning: {result.warning}")
    if args.trace:
        _write_csv(args.trace, ("evaluation_index", "best_cost"), result.trace)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    with open(args.config, encoding="utf-8") as handle:
        raw = json.load(handle)
    if "builtin" in raw:
        prices = builtin_dataset(raw.pop("builtin"))
    elif "data" in raw:
        prices = load_prices(raw.pop("data"))
    else:
        raise ValidationError("config needs a 'data' path or a 'builtin' name")
    estimator = raw.pop("estimator", "kde")
    allowed = {f.name for f in dataclasses.fields(MarketConfig)} - {"true_density", "estimator"}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    values = prices.values()
    counts = prices.per_source_counts()
    defaults = {
        "csa_listing_mean": sum(counts.values()) / len(counts),
        "stated_minimum": prices.min_price,
    }
    defaults.update(raw)
    if args.seed is not None:
        defaults["base_seed"] = args.seed
    cfg = MarketConfig(
        true_density=fit_estimator(values, estimator), estimator=estimator, **defaults
    )
    print(f"seed: {cfg.base_seed}")
    reports = simulate_kth_position(cfg, args.position, args.methods, args.budgets, workers=args.workers)
    rows = []
    for report in reports:
        for (budget, mean, se) in report.curve:
            rows.append(
                (
                    report.method,
                    report.position_k,
                    budget,
                    mean,
                    se,
                    report.full_set_cost,
                    report.trials,
                    report.base_seed,
                )
            )
    _write_csv(
        args.out,
        ("method", "position_k", "budget", "mean_cost", "std_error", "full_set_cost", "trials", "seed"),
        rows,
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    prices = _load_data(args)
    constraints = DisclosureConstraints(rho=args.rho)
    rows = []
    for method in args.methods:
        clear_evaluation_cache()
        t0 = time.perf_counter()
        result = disclose(
            prices,
            method,
            constraints,
            args.n_new,
            estimator=args.estimator,
            budget=args.budget,
            seed=args.seed,
            workers=args.workers,
        )
        elapsed = time.perf_counter() - t0
        count = max(result.subsets_evaluated, 1)
        rows.append((method, result.subsets_evaluated, elapsed, elapsed / count))
    _write_csv(
        args.out,
        ("method", "evaluations", "total_seconds", "seconds_per_evaluation"),
        rows,
    )
    return 0


def _cmd_counts(args: argparse.Namespace) -> int:
    if args.kind == "subsets":
        print(subset_count(args.n, args.rho))
    elif args.kind == "interval":
        print(interval_subset_count(args.n, args.rho))
    else:
        print(minimal_subset_count(args.n, args.rho))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pricedisclosure",
        description="Critical query costs and selective price disclosure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a density and dump a plot-ready grid")
    _add_data_args(p_fit)
    p_fit.add_argument("--method", choices=ESTIMATORS, default="kde")
    p_fit.add_argument("--bandwidth", type=float, default=None)
    p_fit.add_argument("--out", metavar="JSON", default=None)
    p_fit.set_defaults(func=_cmd_fit)

    p_cc = sub.add_parser("critical-cost", help="expected saving from one more query")
    _add_data_args(p_cc)
    p_cc.add_argument("--q", type=float, default=None, help="best price found so far")
    p_cc.add_argument("--n-new", type=int, default=None, help="new prices per query")
    p_cc.add_argument("--method", choices=ESTIMATORS, default="kde")
    p_cc.add_argument("--sweep", choices=("q", "n"), default=None)
    p_cc.add_argument("--from", dest="start", type=float, default=None)
    p_cc.add_argument("--to", dest="stop", type=float, default=None)
    p_cc.add_argument("--step", type=float, default=None)
    p_cc.add_argument("--out", metavar="CSV", default=None)
    p_cc.set_defaults(func=_cmd_critical_cost)

    p_di = sub.add_parser("disclose", help="choose a subset of prices to publish")
    _add_data_args(p_di)
    p_di.add_argument("--method", type=_parse_method, required=True)
    p_di.add_argument("--rho", type=int, required=True)
    p_di.add_argument("--n-new", type=int, required=True)
    p_di.add_argument("--estimator", choices=ESTIMATORS, default="kde")
    p_di.add_argument("--budget", type=int, default=None)
    p_di.add_argument("--deadline-ms", type=_positive(float), default=None)
    p_di.add_argument("--seed", type=int, default=0)
    p_di.add_argument("--max-size", type=int, default=None)
    p_di.add_argument("--trace", metavar="CSV", default=None)
    p_di.add_argument("--workers", type=_positive(int), default=1)
    p_di.set_defaults(func=_cmd_disclose)

    p_sim = sub.add_parser("simulate", help="run position-k market experiments")
    p_sim.add_argument("--config", required=True, metavar="JSON")
    p_sim.add_argument("--position", type=int, default=1)
    p_sim.add_argument("--methods", type=_comma_list(_parse_method), required=True, help="comma list, e.g. mc,interval,full")
    p_sim.add_argument("--budgets", type=_comma_list(int), default=(), help="comma list of iteration budgets")
    p_sim.add_argument("--seed", type=int, default=None, help="override config base_seed")
    p_sim.add_argument("--out", metavar="CSV", default=None)
    p_sim.add_argument("--workers", type=_positive(int), default=1)
    p_sim.set_defaults(func=_cmd_simulate)

    p_bench = sub.add_parser("bench", help="time per-subset evaluation by method")
    _add_data_args(p_bench)
    p_bench.add_argument("--methods", type=_comma_list(_parse_method), default=("interval", "minimal", "full"))
    p_bench.add_argument("--rho", type=int, required=True)
    p_bench.add_argument("--n-new", type=int, required=True)
    p_bench.add_argument("--estimator", choices=ESTIMATORS, default="kde")
    p_bench.add_argument("--budget", type=int, default=None)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--workers", type=_positive(int), default=1)
    p_bench.add_argument("--out", metavar="CSV", default=None)
    p_bench.set_defaults(func=_cmd_bench)

    p_counts = sub.add_parser("counts", help="candidate-set sizes")
    p_counts.add_argument("--n", type=int, required=True)
    p_counts.add_argument("--rho", type=int, required=True)
    p_counts.add_argument(
        "--kind", choices=("subsets", "interval", "minimal"), default="subsets"
    )
    p_counts.set_defaults(func=_cmd_counts)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PriceDisclosureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
