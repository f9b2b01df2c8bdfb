"""Command-line entry point.

Subcommands: fit, critical-cost, disclose, simulate, bench, counts. All
emit plain-text or CSV/JSON with full-precision `.`-decimal numbers; every
randomized run takes --seed (default 0; simulate and disclose echo it) so
reruns are byte-identical. Of the selection methods only Monte Carlo draws
at random, so disclose and bench take --seed only when mc is among their
methods; otherwise it is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import time

import numpy as np

from .data import builtin_dataset, format_cents, load_prices
from .density import ESTIMATORS, fit_estimator, fit_kde, fit_parametric
from .disclosure import METHODS, DisclosureConstraints, clear_evaluation_cache, disclose, monte_carlo_disclose
from .errors import PriceDisclosureError, ValidationError
from .search import _integral_forms, critical_cost, interval_subset_count, minimal_subset_count, subset_count
from .simulator import MarketConfig, simulate_kth_position

class UsageError(Exception):
    """Flag combinations argparse cannot express; exits with code 2."""


METHOD_ALIASES = {**{m: m for m in METHODS}, "brute": "brute_force", "mc": "monte_carlo"}

_COUNTS = {"subsets": subset_count, "interval": interval_subset_count, "minimal": minimal_subset_count}


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", metavar="CSV", help="price list CSV file")
    group.add_argument("--builtin", metavar="NAME", help="bundled dataset name")


def _add_selection_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rho", type=int, required=True)
    parser.add_argument("--n-new", type=int, required=True)
    parser.add_argument("--estimator", choices=ESTIMATORS, default="kde")
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None, help="Monte Carlo seed (default 0)")
    parser.add_argument("--workers", type=_positive(int), default=1)


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


def _mc_flags(methods, flags: dict) -> None:
    """Monte Carlo needs one of its budget ``flags``; no other method reads them."""
    given = [flag for flag, value in flags.items() if value not in (None, ())]
    if "monte_carlo" not in methods and given:
        raise UsageError(f"{given[0]} applies to method mc only")
    if len(given) > 1:
        raise UsageError(f"{' and '.join(given)} are mutually exclusive")
    if "monte_carlo" in methods and not given:
        raise UsageError(f"monte_carlo needs {' or '.join(flags)}")


def _mc_seed(methods, seed: int | None) -> int:
    """The Monte Carlo seed, 0 when not given; no other method reads one."""
    if "monte_carlo" not in methods and seed is not None:
        raise UsageError("--seed applies to method mc only")
    return 0 if seed is None else seed


def _write_csv(handle, header, rows) -> None:
    """Write CSV to ``handle``, or to stdout when it is None."""
    writer = csv.writer(handle or sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _cmd_fit(args: argparse.Namespace) -> int:
    if args.method != "kde" and args.bandwidth is not None:
        raise UsageError(f"--bandwidth applies to --method kde only, not {args.method}")
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
    print(json.dumps(payload, indent=2), file=args.out)
    return 0


def _cost_points(args: argparse.Namespace) -> list[tuple[float, int]]:
    """The (q, n_new) points of ``critical-cost``: one without --sweep, else
    the grid from --from to --to, after every flag check."""
    if args.sweep is None:
        for flag, value in (("--from", args.start), ("--to", args.stop), ("--step", args.step)):
            if value is not None:
                raise UsageError(f"{flag} applies to --sweep only")
        if args.q is None or args.n_new is None:
            raise UsageError("--q and --n-new are required without --sweep")
        return [(args.q, args.n_new)]
    if args.start is None or args.stop is None or args.step is None:
        raise UsageError("--sweep needs --from, --to, and --step")
    if args.sweep == "q":
        if args.q is not None:
            raise UsageError("--q is the swept variable under --sweep q; give --from and --to")
        if args.n_new is None:
            raise UsageError("--n-new is required when sweeping q")
        if not (math.isfinite(args.start) and math.isfinite(args.stop)):
            raise UsageError("--from and --to must be finite when sweeping q")
    else:
        if args.n_new is not None:
            raise UsageError("--n-new is the swept variable under --sweep n; give --from and --to")
        if args.q is None:
            raise UsageError("--q is required when sweeping n")
        if not all(v.is_integer() for v in (args.start, args.stop, args.step)):
            raise UsageError("--from, --to and --step must be integers when sweeping n")
    if args.start > args.stop:
        raise UsageError(f"--from {args.start} is above --to {args.stop}: the sweep is empty")
    if args.sweep == "n":
        return [(args.q, n) for n in range(int(args.start), int(args.stop) + 1, int(args.step))]
    # The count takes a relative slack, which an absolute one falls below
    # at large prices; the points are np.arange's, whose values do not
    # depend on its stop.
    count = math.floor((args.stop - args.start) / args.step * (1 + 1e-9)) + 1
    return [(float(q), args.n_new) for q in np.arange(args.start, args.stop + args.step, args.step)[:count]]


def _cmd_critical_cost(args: argparse.Namespace) -> int:
    points = _cost_points(args)
    prices = _load_data(args)
    density = fit_estimator(prices.values(), args.method)
    qs, ns = zip(*points)
    # The points share one integral per run of them; each is then checked
    # on its own, one critical_cost call per point.
    costs = [critical_cost(density, q, n, forms) for q, n, forms in zip(qs, ns, _integral_forms(density, qs, ns))]
    if args.sweep is None:
        print(f"critical_cost: {costs[0].value!r}", file=args.out)
        print(f"error_estimate: {costs[0].integration_error_estimate!r}", file=args.out)
        return 0
    swept = 0 if args.sweep == "q" else 1
    rows = [(point[swept], cost.value, cost.integration_error_estimate) for point, cost in zip(points, costs)]
    _write_csv(args.out, (("q", "n_new")[swept], "critical_cost", "error_estimate"), rows)
    return 0


def _calibrate_budget(prices, constraints, n_new: int, estimator: str, seed: int, deadline_ms: float) -> int:
    """The Monte Carlo budget that fits the deadline, timed on a pilot of the
    run itself at budgets 1, 2, 4, ..., stopped after min(0.2 s, the
    deadline) or when there is no room to sample. Each budget's run is a
    prefix of the next, so the pilot integrates no candidate twice: the
    calibrated run finds the pilot's integrated candidates in the cache and
    bounds its screened ones again. The pilot's time counts toward the
    deadline, and the budget never falls below its last one."""
    deadline = deadline_ms / 1000.0
    t0 = time.perf_counter()
    budget = 1
    while not monte_carlo_disclose(prices, constraints, n_new, budget, seed, estimator).warning:
        elapsed = time.perf_counter() - t0
        if elapsed >= min(0.2, deadline):
            return max(budget, int(budget * deadline / elapsed))
        budget *= 2
    return budget  # no room to sample: every budget evaluates the incumbent alone


def _disclose(args: argparse.Namespace, prices, method: str, constraints, budget: int | None):
    """The one ``disclose`` call of the disclose and bench commands."""
    return disclose(prices, method, constraints, args.n_new, estimator=args.estimator,
                    budget=budget, seed=args.seed, workers=args.workers)


def _cmd_disclose(args: argparse.Namespace) -> int:
    method = args.method
    _mc_flags((method,), {"--budget": args.budget, "--deadline-ms": args.deadline_ms})
    args.seed = _mc_seed((method,), args.seed)
    prices = _load_data(args)
    constraints = DisclosureConstraints(rho=args.rho, max_size=args.max_size)
    budget = args.budget
    if method == "monte_carlo":
        if args.deadline_ms is not None:
            budget = _calibrate_budget(prices, constraints, args.n_new, args.estimator, args.seed, args.deadline_ms)
            print(f"calibrated budget: {budget} (deadline-based, nondeterministic)")
        print(f"seed: {args.seed}")
    result = _disclose(args, prices, method, constraints, budget)
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
    _mc_flags(args.methods, {"--budgets": args.budgets})
    with open(args.config, encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
            raise ValidationError(f"config {args.config}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"config {args.config}: expected a JSON object")
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
    rows = [
        (r.method, r.position_k, budget, mean, se, r.full_set_cost, r.trials, r.base_seed)
        for r in reports
        for budget, mean, se in r.curve
    ]
    _write_csv(
        args.out,
        ("method", "position_k", "budget", "mean_cost", "std_error", "full_set_cost", "trials", "seed"),
        rows,
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    _mc_flags(args.methods, {"--budget": args.budget})
    args.seed = _mc_seed(args.methods, args.seed)
    prices = _load_data(args)
    constraints = DisclosureConstraints(rho=args.rho)
    rows = []
    for method in args.methods:
        clear_evaluation_cache()
        t0 = time.perf_counter()
        result = _disclose(args, prices, method, constraints, args.budget)
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
    print(_COUNTS[args.kind](args.n, args.rho))
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
    p_fit.add_argument("--bandwidth", type=_positive(float), default=None)
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
    p_cc.add_argument("--step", type=_positive(float), default=None)
    p_cc.add_argument("--out", metavar="CSV", default=None)
    p_cc.set_defaults(func=_cmd_critical_cost)

    p_di = sub.add_parser("disclose", help="choose a subset of prices to publish")
    _add_data_args(p_di)
    p_di.add_argument("--method", type=_parse_method, required=True)
    _add_selection_args(p_di)
    p_di.add_argument("--deadline-ms", type=_positive(float), default=None)
    p_di.add_argument("--max-size", type=int, default=None)
    p_di.add_argument("--trace", metavar="CSV", default=None)
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

    p_bench = sub.add_parser("bench", help="time selection per candidate by method")
    _add_data_args(p_bench)
    p_bench.add_argument("--methods", type=_comma_list(_parse_method), default=("interval", "minimal", "full"))
    _add_selection_args(p_bench)
    p_bench.add_argument("--out", metavar="CSV", default=None)
    p_bench.set_defaults(func=_cmd_bench)

    p_counts = sub.add_parser("counts", help="candidate-set sizes")
    p_counts.add_argument("--n", type=int, required=True)
    p_counts.add_argument("--rho", type=int, required=True)
    p_counts.add_argument("--kind", choices=tuple(_COUNTS), default="subsets")
    p_counts.set_defaults(func=_cmd_counts)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in this process. Building one costs
    over ten times what a parse does, and a parse leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with contextlib.ExitStack() as outputs:
            # Every output file is opened (created or truncated) before any
            # work, so a bad path fails at once; None stands for stdout.
            for dest in ("out", "trace"):
                if dest in vars(args):
                    path = getattr(args, dest)
                    setattr(args, dest, outputs.enter_context(open(path, "w", encoding="utf-8", newline="")) if path else None)
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Whoever read stdout has gone: Python's documented recipe points
        # stdout at devnull, so the final flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (PriceDisclosureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
