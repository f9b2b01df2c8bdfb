"""Span tracing from outside the package, for the traced benchmark run.

``Tracer.install()`` replaces each traced public function with a wrapper
that records a span (call id, span id, parent span id, name, start, end).
A function imported by name into another module is a separate binding, so
every module attribute that holds the original object is replaced, not
only the defining one. Methods are wrapped on their class. Spans live in
flat arrays in memory and are written out once, at the end of the run.

A span's self time is its duration minus the time covered by its direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from pricedisclosure import cli, data, density, disclosure, quadrature, search, simulator
from pricedisclosure.errors import NumericalError

MODULES = (cli, data, density, disclosure, quadrature, search, simulator)

SELECTIONS = {
    "interval_disclose": "disclosure.interval",
    "minimal_disclose": "disclosure.minimal",
    "monte_carlo_disclose": "disclosure.monte_carlo",
    "brute_force_disclose": "disclosure.brute_force",
    "full_disclose": "disclosure.full",
}

# (module, function) -> span name, for module-level functions.
FUNCTIONS = {
    (cli, "main"): "cli.main",
    (data, "load_prices"): "data.load_prices",
    (density, "fit_estimator"): "density.fit_estimator",
    (density, "quantile_array"): "density.quantile_array",
    (search, "critical_cost"): "search.critical_cost",
    (simulator, "simulate_kth_position"): "simulator.simulate_kth_position",
    (simulator, "draw_csa_listing"): "simulator.draw_csa_listing",
    (simulator, "generate_initial_prices"): "simulator.generate_initial_prices",
    **{(disclosure, fn): name for fn, name in SELECTIONS.items()},
}

# (class, method) -> span name.
METHODS = {
    (density.KernelDensity, "pdf"): "density.kde_pdf",
    (density.KernelDensity, "cdf"): "density.kde_cdf",
    (density.ParametricDensity, "pdf"): "density.parametric_pdf",
    (density.ParametricDensity, "cdf"): "density.parametric_cdf",
}

SIMPSON = "quadrature.adaptive_simpson"
INTEGRAND = "search.integrand"

SPAN_NAMES = tuple(FUNCTIONS.values()) + tuple(METHODS.values()) + (SIMPSON, INTEGRAND)


class Tracer:
    """Records spans and counters while installed; see the module doc."""

    def __init__(self):
        self.names = SPAN_NAMES
        self._index = {name: i for i, name in enumerate(self.names)}
        self.call_ids = array("l")
        self.span_ids = array("l")
        self.parents = array("l")
        self.name_ids = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._next_id = 0
        self.call_id = -1
        self.counts = Counter()
        self.per_call: dict[int, Counter] = {-1: Counter()}
        self._patches = []

    # -------------------------------------------------------- recording

    def begin_call(self, call_id: int) -> Counter:
        self.call_id = call_id
        self.per_call[call_id] = Counter()
        return self.per_call[call_id]

    def _wrap(self, name, fn, after=None):
        index = self._index[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except NumericalError:
                self.per_call[self.call_id][name + ".numerical_errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                self.call_ids.append(self.call_id)
                self.span_ids.append(span_id)
                self.parents.append(parent)
                self.name_ids.append(index)
                self.starts.append(start)
                self.ends.append(end)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_kde(self, args, result):
        kde, y = args
        self.counts["kde_point_samples"] += np.size(y) * kde.sample.size

    def _count_rows(self, args, result):
        self.counts["rows_loaded"] += len(result)

    def _count_selection(self, args, result):
        self.per_call[self.call_id]["selection_evaluations"] += result.subsets_evaluated

    def _count_trials(self, args, result):
        self.counts["trials"] += max(report.trials for report in result)

    def _simpson(self, fn):
        integrand_span = functools.partial(self._wrap, INTEGRAND)
        counts = self.counts

        def simpson(f, a, b, **kwargs):
            def counted(y):
                counts["integrand_calls"] += 1
                counts["integrand_points"] += y.size
                return f(y)

            return fn(integrand_span(counted), a, b, **kwargs)

        return self._wrap(SIMPSON, functools.wraps(fn)(simpson))

    def _lookups(self, cached):
        """Count evaluation-cache lookups where the selection code makes them."""

        @functools.wraps(cached)
        def lookup(*args):
            self.per_call[self.call_id]["cache_lookups"] += 1
            return cached(*args)

        lookup.cache_info = cached.cache_info
        lookup.cache_clear = cached.cache_clear
        return lookup

    # -------------------------------------------------------- install

    def _replace_everywhere(self, original, replacement):
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> "Tracer":
        after = {
            "data.load_prices": self._count_rows,
            "simulator.simulate_kth_position": self._count_trials,
            **{name: self._count_selection for name in SELECTIONS.values()},
        }
        for (module, fn_name), name in FUNCTIONS.items():
            original = getattr(module, fn_name)
            self._replace_everywhere(original, self._wrap(name, original, after.get(name)))
        original = quadrature.adaptive_simpson
        self._replace_everywhere(original, self._simpson(original))
        original = disclosure._evaluate_cents
        self._replace_everywhere(original, self._lookups(original))
        for (cls, method), name in METHODS.items():
            original = vars(cls)[method]
            count = self._count_kde if cls is density.KernelDensity else None
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original, count))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -------------------------------------------------------- analysis

    def table(self) -> dict[str, np.ndarray]:
        """Spans as columns, with duration and self time added."""
        cols = {
            "call": np.asarray(self.call_ids, dtype=np.int64),
            "span": np.asarray(self.span_ids, dtype=np.int64),
            "parent": np.asarray(self.parents, dtype=np.int64),
            "name": np.asarray(self.name_ids, dtype=np.int16),
            "start": np.asarray(self.starts, dtype=float),
            "end": np.asarray(self.ends, dtype=float),
        }
        duration = cols["end"] - cols["start"]
        position = np.empty(self._next_id, dtype=np.int64)
        position[cols["span"]] = np.arange(cols["span"].size)
        has_parent = cols["parent"] >= 0
        covered = np.bincount(
            position[cols["parent"][has_parent]], weights=duration[has_parent],
            minlength=duration.size,
        )
        cols["duration"] = duration
        cols["self"] = duration - covered
        return cols

    def write(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **{
            k: v for k, v in self.table().items() if k not in ("duration", "self")
        })


# ------------------------------------------------------------ per-layer view

PER_LAYER = (
    ("cli.self_s", "s"),
    ("data.load_s", "s"),
    ("data.rows_loaded", "count"),
    ("density.kde_calls", "count"),
    ("density.kde_point_samples", "count"),
    ("density.kde_self_s", "s"),
    ("density.kde_ns_per_point_sample", "ns"),
    ("density.fit_calls", "count"),
    ("density.fit_self_s", "s"),
    ("density.parametric_calls", "count"),
    ("density.parametric_self_s", "s"),
    ("density.quantile_calls", "count"),
    ("density.quantile_self_s", "s"),
    ("quadrature.integrals", "count"),
    ("quadrature.calls_per_integral", "calls"),
    ("quadrature.points_per_integral", "points"),
    ("quadrature.self_s", "s"),
    ("search.critical_cost_calls", "count"),
    ("search.ms_per_evaluation", "ms"),
    ("search.self_s", "s"),
    ("search.numerical_errors", "count"),
    ("disclosure.selections", "count"),
    ("disclosure.evaluations", "count"),
    ("disclosure.cache_lookups", "count"),
    ("disclosure.cache_hits", "count"),
    ("disclosure.cache_hit_ratio", "ratio"),
    ("disclosure.self_s", "s"),
    ("simulator.trials", "count"),
    ("simulator.csa_draw_s", "s"),
    ("simulator.initial_prices_s", "s"),
    ("simulator.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
)

# Spans each workload's calls must reach; a wrapper bound to the wrong
# name would leave its span silently missing.
_COMMON = ("cli.main", "data.load_prices", "density.fit_estimator", "search.critical_cost",
           SIMPSON, INTEGRAND)
_KDE = ("density.kde_pdf", "density.kde_cdf")
EXPECTED_SPANS = {
    "disclose_kde": _COMMON + _KDE + ("disclosure.interval", "disclosure.minimal",
                                      "disclosure.monte_carlo", "disclosure.brute_force"),
    "disclose_parametric": _COMMON + ("density.parametric_pdf", "density.parametric_cdf",
                                      "disclosure.interval", "disclosure.monte_carlo"),
    "simulate_market": _COMMON + _KDE + (
        "density.quantile_array", "disclosure.interval", "disclosure.minimal",
        "disclosure.monte_carlo", "simulator.simulate_kth_position",
        "simulator.draw_csa_listing", "simulator.generate_initial_prices"),
    "sweep_large": _COMMON + _KDE,
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    """Per-layer counts and times over every traced call."""
    t = tracer.table()
    index = {name: i for i, name in enumerate(tracer.names)}

    def mask(*names):
        return np.isin(t["name"], [index[n] for n in names])

    def total(column, *names):
        return float(t[column][mask(*names)].sum())

    def count(*names):
        return int(mask(*names).sum())

    calls = Counter()
    for counter in tracer.per_call.values():
        calls.update(counter)
    # Fits made for an evaluation, not the one a CLI command makes up front.
    position = np.full(max(tracer._next_id, 1), -1, dtype=np.int64)
    position[t["span"]] = np.arange(t["span"].size)
    parent_name = np.where(t["parent"] >= 0, t["name"][position[t["parent"]]], -1)
    eval_fits = mask("density.fit_estimator") & (parent_name != index["cli.main"])
    selections = tuple(SELECTIONS.values())
    simulator_spans = ("simulator.simulate_kth_position", "simulator.draw_csa_listing",
                       "simulator.generate_initial_prices")
    kde_self = total("self", *_KDE)
    integrals = count(SIMPSON)
    evaluations = count("search.critical_cost")
    return {
        "cli.self_s": total("self", "cli.main"),
        "data.load_s": total("duration", "data.load_prices"),
        "data.rows_loaded": tracer.counts["rows_loaded"],
        "density.kde_calls": count(*_KDE),
        "density.kde_point_samples": tracer.counts["kde_point_samples"],
        "density.kde_self_s": kde_self,
        "density.kde_ns_per_point_sample": 1e9 * _ratio(kde_self, tracer.counts["kde_point_samples"]),
        "density.fit_calls": count("density.fit_estimator"),
        "density.fit_self_s": total("self", "density.fit_estimator"),
        "density.parametric_calls": count("density.parametric_pdf", "density.parametric_cdf"),
        "density.parametric_self_s": total("self", "density.parametric_pdf", "density.parametric_cdf"),
        "density.quantile_calls": count("density.quantile_array"),
        "density.quantile_self_s": total("self", "density.quantile_array"),
        "quadrature.integrals": integrals,
        "quadrature.calls_per_integral": _ratio(tracer.counts["integrand_calls"], integrals),
        "quadrature.points_per_integral": _ratio(tracer.counts["integrand_points"], integrals),
        "quadrature.self_s": total("self", SIMPSON),
        "search.critical_cost_calls": evaluations,
        "search.ms_per_evaluation": 1e3 * _ratio(
            total("duration", "search.critical_cost") + float(t["duration"][eval_fits].sum()),
            evaluations),
        "search.self_s": total("self", "search.critical_cost", INTEGRAND),
        "search.numerical_errors": calls["search.critical_cost.numerical_errors"],
        "disclosure.selections": count(*selections),
        "disclosure.evaluations": calls["selection_evaluations"],
        "disclosure.cache_lookups": calls["cache_lookups"],
        "disclosure.cache_hits": calls["cache_hits"],
        "disclosure.cache_hit_ratio": _ratio(calls["cache_hits"], calls["cache_lookups"]),
        "disclosure.self_s": total("self", *selections),
        "simulator.trials": tracer.counts["trials"],
        "simulator.csa_draw_s": total("duration", "simulator.draw_csa_listing"),
        "simulator.initial_prices_s": total("duration", "simulator.generate_initial_prices"),
        "simulator.self_s": total("self", *simulator_spans),
        "trace.spans": int(t["span"].size),
        "trace.overhead_ratio": overhead_ratio,
    }


def reconcile(tracer: Tracer, workload: str, commands: dict[int, str],
              printed_evaluations: dict[int, int]) -> list[str]:
    """Cross-check the traced counters against each other and the output.

    ``commands`` maps call id to CLI subcommand; ``printed_evaluations``
    maps each completed disclose call to its ``evaluations:`` line.
    """
    t = tracer.table()
    cc = t["call"][t["name"] == tracer.names.index("search.critical_cost")]
    cc_per_call = Counter(cc.tolist())
    problems = []
    for call_id, command in commands.items():
        c = tracer.per_call[call_id]
        if command not in ("disclose", "simulate"):
            continue
        if cc_per_call[call_id] != c["cache_misses"]:
            problems.append(f"call {call_id}: {cc_per_call[call_id]} critical_cost calls, "
                            f"{c['cache_misses']} cache misses")
        if c["cache_hits"] + c["cache_misses"] != c["cache_lookups"]:
            problems.append(f"call {call_id}: hits {c['cache_hits']} + misses "
                            f"{c['cache_misses']} != lookups {c['cache_lookups']}")
    for call_id, printed in printed_evaluations.items():
        counted = tracer.per_call[call_id]["selection_evaluations"]
        if counted != printed:
            problems.append(f"call {call_id}: selections counted {counted} evaluations, "
                            f"stdout says {printed}")
    fired = {tracer.names[i] for i in np.unique(t["name"])}
    missing = sorted(set(EXPECTED_SPANS[workload]) - fired)
    if missing:
        problems.append(f"spans never fired: {missing}")
    return problems
