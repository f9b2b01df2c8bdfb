"""Output checker: parse CLI stdout and test it against invariants and an
independent reference.

The reference critical cost integrates 1 - (1 - F(y))^n over [0, q] with
``scipy.integrate.quad``, F being the Gaussian KDE cdf truncated at zero,
written here from its definition rather than taken from the package.
Printed costs must match it within the program's own agreement tolerance,
max(1e-6, 1e-4 * value).
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import integrate, special

AGREEMENT_ABS = 1e-6
AGREEMENT_REL = 1e-4
# Below sample_min - 40 bandwidths every kernel cdf is exactly 0 in double.
_KERNEL_REACH = 40.0
_MAX_BREAKPOINTS = 50

METHOD_NAMES = {
    "interval": "interval",
    "minimal": "minimal",
    "mc": "monte_carlo",
    "brute": "brute_force",
    "full": "full",
}


# ---------------------------------------------------------------- parsing

def parse_disclose(text: str) -> dict:
    fields: dict = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key == "seed":
            fields["seed"] = int(value)
        elif key == "method":
            fields["method"] = value
        elif key.startswith("disclosed ("):
            fields["disclosed"] = [_cents(p) for p in value.split()]
            fields["size"] = int(key[len("disclosed ("):].split()[0])
        elif key == "critical_cost":
            fields["cost"] = float(value)
        elif key == "evaluations":
            fields["evaluations"] = int(value)
        elif key == "warning":
            fields["warning"] = value
    return fields


def parse_csv(text: str) -> dict:
    lines = text.splitlines()
    seed = None
    if lines and lines[0].startswith("seed: "):
        seed = int(lines.pop(0)[len("seed: "):])
    reader = csv.reader(io.StringIO("\n".join(lines)))
    header = next(reader, [])
    rows = [dict(zip(header, row)) for row in reader]
    return {"seed": seed, "header": header, "rows": rows}


def _cents(text: str) -> int:
    whole, _, frac = text.partition(".")
    return int(whole) * 100 + int(frac)


# ---------------------------------------------------------------- reference

def silverman_bandwidth(x: np.ndarray) -> float:
    """Silverman's rule with the IQR guard and zero-spread fallback that
    define the package's KDE estimator."""
    sigma = float(np.std(x, ddof=1)) if x.size > 1 else 0.0
    q75, q25 = np.percentile(x, [75.0, 25.0])
    spreads = [s for s in (sigma, float(q75 - q25) / 1.34) if s > 0.0]
    if not spreads:
        return max(0.01 * float(np.mean(x)), 0.01)
    return 0.9 * min(spreads) * x.size ** (-0.2)


def reference_cost(cents, q: float, n_new: int) -> float:
    """Expected saving of one more query against a truncated Gaussian KDE."""
    x = np.asarray(cents, dtype=float) / 100.0
    h = silverman_bandwidth(x)
    below = float(np.mean(special.ndtr(-x / h)))
    mass = 1.0 - below

    def integrand(y: float) -> float:
        raw = float(np.mean(special.ndtr((y - x) / h)))
        cdf = min(max((raw - below) / mass, 0.0), 1.0)
        return 1.0 - (1.0 - cdf) ** n_new

    lo = max(0.0, float(x.min()) - _KERNEL_REACH * h)
    if q <= lo:
        return 0.0
    inner = np.unique(x[(x > lo) & (x < q)])
    if inner.size > _MAX_BREAKPOINTS:
        inner = np.quantile(inner, np.linspace(0.0, 1.0, _MAX_BREAKPOINTS))
    value, _ = integrate.quad(
        integrand, lo, q, points=inner if inner.size else None,
        limit=20 * _MAX_BREAKPOINTS, epsabs=1e-11, epsrel=1e-11,
    )
    return value


def agrees(printed: float, reference: float) -> bool:
    return abs(printed - reference) <= max(AGREEMENT_ABS, AGREEMENT_REL * abs(reference))


# ---------------------------------------------------------------- disclose

def expected_evaluations(method: str, n: int, rho: int, budget: int) -> int:
    if method == "interval":
        m = n - rho + 1
        return m * (m + 1) // 2
    if method == "minimal":
        return n - rho + 1
    if method == "mc":
        return budget
    if method == "brute":
        return sum(math.comb(n - 1, k - 1) for k in range(rho, n + 1))
    return 1


def check_disclose(parsed: dict, cents: np.ndarray, expect: dict, rho: int, n_new: int,
                   budget: int) -> list[str]:
    """Problems with one disclose call's output; empty when it is correct."""
    method = expect["method"]
    missing = {"method", "disclosed", "size", "cost", "evaluations"} - set(parsed)
    if missing:
        return [f"output lacks {sorted(missing)}"]
    problems = []
    if parsed["method"] != METHOD_NAMES[method]:
        problems.append(f"method {parsed['method']!r}, wanted {METHOD_NAMES[method]!r}")
    if method == "mc" and parsed.get("seed") != expect["seed"]:
        problems.append(f"seed echo {parsed.get('seed')} != {expect['seed']}")
    disclosed = parsed["disclosed"]
    if len(disclosed) != parsed["size"]:
        problems.append(f"{len(disclosed)} prices listed, header says {parsed['size']}")
    values, counts = np.unique(cents, return_counts=True)
    have = dict(zip(values.tolist(), counts.tolist()))
    for value, count in zip(*np.unique(disclosed, return_counts=True)):
        if have.get(int(value), 0) < count:
            problems.append(f"disclosed {value} cents {count}x, list has {have.get(int(value), 0)}")
    q = int(cents.min())
    if q not in disclosed:
        problems.append("disclosed set lacks the list minimum")
    want_size = cents.size if method == "full" else rho
    if len(disclosed) < want_size:
        problems.append(f"disclosed {len(disclosed)} prices, need at least {want_size}")
    want = expected_evaluations(method, cents.size, rho, budget)
    if parsed["evaluations"] != want:
        problems.append(f"evaluations {parsed['evaluations']}, expected {want}")
    cost = parsed["cost"]
    if not 0.0 <= cost <= q / 100.0:
        problems.append(f"cost {cost} outside [0, q={q / 100.0}]")
    if expect["estimator"] == "kde" and not problems:
        ref = reference_cost(disclosed, q / 100.0, n_new)
        if not agrees(cost, ref):
            problems.append(f"cost {cost!r} disagrees with reference {ref!r}")
    return problems


def check_disclose_group(costs: dict[str, float]) -> dict[str, str]:
    """Cross-method invariants on one list: heuristics never lose to the
    full set, and the oracle never loses to anything."""
    problems = {}
    full = costs.get("full")
    for method in ("interval", "minimal", "mc"):
        if full is not None and method in costs and costs[method] > full:
            problems[method] = f"{method} cost {costs[method]!r} exceeds full {full!r}"
    brute = costs.get("brute")
    if brute is not None:
        worse = {m: c for m, c in costs.items() if m != "brute" and brute > c}
        if worse:
            problems["brute"] = f"brute cost {brute!r} exceeds {worse}"
    return problems


# ---------------------------------------------------------------- simulate

SIM_HEADER = ["method", "position_k", "budget", "mean_cost", "std_error",
              "full_set_cost", "trials", "seed"]


def check_simulate(parsed: dict, position: int, config: dict, budgets, rho: int,
                   n: int) -> list[str]:
    if parsed["header"] != SIM_HEADER:
        return [f"header {parsed['header']}"]
    trials = config["trials"]
    m = n - rho + 1
    expected = [("monte_carlo", b, trials) for b in budgets] + [
        ("interval", m * (m + 1) // 2, 1 if position == 1 else trials),
        ("minimal", m, 1 if position == 1 else trials),
        ("full", 1, 1 if position == 1 else trials),
    ]
    rows = parsed["rows"]
    if [(r["method"], int(r["budget"]), int(r["trials"])) for r in rows] != expected:
        return [f"rows {[(r['method'], r['budget'], r['trials']) for r in rows]}, expected {expected}"]
    problems = []
    if parsed["seed"] != config["base_seed"]:
        problems.append(f"seed echo {parsed['seed']} != {config['base_seed']}")
    full_costs = {float(r["full_set_cost"]) for r in rows}
    if len(full_costs) != 1:
        problems.append(f"full_set_cost differs across rows: {sorted(full_costs)}")
    for r in rows:
        mean, se = float(r["mean_cost"]), float(r["std_error"])
        if int(r["position_k"]) != position or int(r["seed"]) != config["base_seed"]:
            problems.append(f"row {r} has the wrong position or seed")
        if not (mean >= 0.0 and se >= 0.0 and math.isfinite(mean) and math.isfinite(se)):
            problems.append(f"row {r['method']}/{r['budget']}: mean {mean}, se {se}")
    if position == 1:
        # No pooling at k=1: every method is a selection that never loses
        # to the full set, and a larger budget never loses to its prefix.
        full = full_costs.pop()
        slack = 1e-12 * max(1.0, full)
        means = [float(r["mean_cost"]) for r in rows]
        if any(mean > full + slack for mean in means):
            problems.append(f"a mean cost exceeds the full-set cost {full!r}: {means}")
        if means[1] > means[0] + slack:
            problems.append(f"monte carlo mean rose with budget: {means[:2]}")
    return problems


# ---------------------------------------------------------------- sweep

def check_sweep(parsed: dict, cents: np.ndarray, argv: list[str], expect: dict,
                sample_row: int) -> list[str]:
    sweep = expect["sweep"]
    header = ["q" if sweep == "q" else "n_new", "critical_cost", "error_estimate"]
    if parsed["header"] != header:
        return [f"header {parsed['header']}, expected {header}"]
    rows = parsed["rows"]
    if len(rows) != expect["points"]:
        return [f"{len(rows)} rows, expected {expect['points']}"]
    flags = dict(zip(argv[1::2], argv[2::2]))
    start, step = float(flags["--from"]), float(flags["--step"])
    problems = []
    grid, costs, errs = [], [], []
    for i, r in enumerate(rows):
        x, cost, err = float(r[header[0]]), float(r["critical_cost"]), float(r["error_estimate"])
        if not math.isclose(x, start + i * step, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"row {i}: grid value {x}, expected {start + i * step}")
        q = x if sweep == "q" else float(flags["--q"])
        if not 0.0 <= cost <= q:
            problems.append(f"row {i}: cost {cost} outside [0, {q}]")
        grid.append(x)
        costs.append(cost)
        errs.append(err)
    for i in range(1, len(costs)):
        if costs[i] < costs[i - 1] - (errs[i] + errs[i - 1]):
            problems.append(f"cost falls from {costs[i - 1]} to {costs[i]} as {sweep} grows")
    if not problems:
        i = sample_row % len(rows)
        q = grid[i] if sweep == "q" else float(flags["--q"])
        n_new = int(flags["--n-new"]) if sweep == "q" else int(grid[i])
        ref = reference_cost(cents, q, n_new)
        if not agrees(costs[i], ref):
            problems.append(f"row {i}: cost {costs[i]!r} disagrees with reference {ref!r}")
    return problems
