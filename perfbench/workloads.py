"""The four benchmark workloads as seeded plans of in-process CLI calls.

A workload is a list of groups. A group is one input file, the timed CLI
calls made on it, and untimed helper calls whose output the checker needs
(the full-set cost, the heuristics beside the brute-force oracle). Every
timed call counts as attempted; it fails if it exits non-zero or its output
fails a check.

Calls on tie-heavy lists are probes. Most of them abort today (adaptive
Simpson does not converge on a near-degenerate KDE), so they would make
the failure count depend on how many calls fit in a run. A run therefore
makes the probe calls of its first round once, outside the timed loop and
the attempted/failed counts, and reports their outcome on its own line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import check, inputs

MC_BUDGET = {"kde": 200, "parametric": 50}
SIM_TRIALS = 6
SIM_BUDGETS = (10, 25)
ROUNDS = 8  # pre-generated rounds; a run cycles through them until its time is up


@dataclass
class Call:
    kind: str
    argv: list[str]
    unit: str  # what one unit of completed work is: evaluations, trials or points
    expect: dict = field(default_factory=dict)
    probe: bool = False  # made on a tie-heavy list; see the module docstring


@dataclass
class Outcome:
    call: Call
    code: int
    stdout: str
    stderr: str
    seconds: float
    scaled: float = 0.0  # seconds at the host's nominal speed; see calibration.py
    kernel: tuple[float, float] = (0.0, 0.0)  # calibration kernel seconds before and after
    units: int = 0
    parsed: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems


@dataclass
class Group:
    source: inputs.PriceFile | inputs.MarketFile
    calls: list[Call]
    helpers: list[Call] = field(default_factory=list)

    @property
    def probe(self) -> bool:
        return any(c.probe for c in self.calls)


@dataclass
class Workload:
    name: str
    seed: int
    rounds: list[list[inputs.PriceFile | inputs.MarketFile]]

    @property
    def sources(self):
        return [s for r in self.rounds for s in r]

    def materialise(self, directory: Path) -> list[Group]:
        """Write every input file and return the call plan over them."""
        groups = []
        for source in self.sources:
            path = source.write(directory)
            groups.append(_PLANNERS[self.name](self, source, str(path)))
        return groups

    def describe(self) -> dict:
        return inputs.describe(self.sources)


def build(name: str, seed: int) -> Workload:
    if name in ("disclose_kde", "disclose_parametric"):
        rounds = [inputs.disclose_round(seed, r) for r in range(ROUNDS)]
        if name == "disclose_parametric":
            rounds = [[f for f in r if f.cents.size == inputs.LIST_SIZE] for r in rounds]
    elif name == "simulate_market":
        rounds = [inputs.market_round(seed, r, SIM_TRIALS) for r in range(ROUNDS)]
    elif name == "sweep_large":
        rounds = [inputs.sweep_round(seed, r) for r in range(ROUNDS)]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {inputs.WORKLOADS}")
    return Workload(name, seed, rounds)


def _disclose_argv(path: str, source, method: str, estimator: str, seed: int | None = None):
    argv = ["disclose", "--data", path, "--method", method, "--rho", str(inputs.RHO),
            "--n-new", str(source.n_new), "--estimator", estimator, "--workers", "1"]
    if method == "mc":
        argv += ["--budget", str(MC_BUDGET[estimator]), "--seed", str(seed)]
    return argv


def _mc_seed(workload: Workload, source) -> int:
    return (workload.seed * 7919 + sum(map(ord, source.name))) % 2**31


def _plan_disclose(workload: Workload, source, path: str) -> Group:
    estimator = "kde" if workload.name == "disclose_kde" else "parametric"
    seed = _mc_seed(workload, source)

    def call(method, kind):
        return Call(kind, _disclose_argv(path, source, method, estimator, seed), "evaluations",
                    {"method": method, "estimator": estimator, "seed": seed}, source.tie_heavy)

    full = call("full", "full")
    if source.cents.size == inputs.BRUTE_LIST_SIZE:
        others = [call(m, m) for m in ("interval", "minimal", "mc")]
        return Group(source, [call("brute", "brute")], others + [full])
    methods = ("interval", "minimal", "mc") if estimator == "kde" else ("interval", "mc")
    return Group(source, [call(m, m) for m in methods], [full])


def _plan_simulate(workload: Workload, source, path: str) -> Group:
    calls = [
        Call(f"sim_k{k}", ["simulate", "--config", path, "--position", str(k),
                           "--methods", "mc,interval,minimal,full",
                           "--budgets", ",".join(map(str, SIM_BUDGETS)), "--workers", "1"],
             "trials", {"position": k})
        for k in (1, 2)
    ]
    return Group(source, calls)


def _plan_sweep(workload: Workload, source, path: str) -> Group:
    x = np.sort(source.cents)
    size = x.size
    points = inputs.SWEEP_POINTS
    low = int(x[size // 20])
    step = max(1, (int(x[size // 2]) - low) // (points - 1))
    q_argv = ["critical-cost", "--data", path, "--method", "kde", "--sweep", "q",
              "--n-new", str(source.n_new), "--from", _money(low),
              "--to", _money(low + (points - 1) * step + step // 2), "--step", _money(step)]
    n_lo = max(1, source.n_new - 2 * (points - 1))
    q_fixed = int(x[size // 4])
    n_argv = ["critical-cost", "--data", path, "--method", "kde", "--sweep", "n",
              "--q", _money(q_fixed), "--from", str(n_lo),
              "--to", str(n_lo + 4 * (points - 1)), "--step", "4"]
    return Group(source, [
        Call(f"sweep_q_{size}", q_argv, "points", {"sweep": "q", "points": points}),
        Call(f"sweep_n_{size}", n_argv, "points", {"sweep": "n", "points": points}),
    ])


def _money(cents: int) -> str:
    return f"{cents // 100}.{cents % 100:02d}"


_PLANNERS = {
    "disclose_kde": _plan_disclose,
    "disclose_parametric": _plan_disclose,
    "simulate_market": _plan_simulate,
    "sweep_large": _plan_sweep,
}


def parse_units(outcome: Outcome) -> None:
    """Fill ``parsed`` and ``units`` from a completed call's stdout."""
    text = outcome.stdout
    if outcome.call.unit == "evaluations":
        outcome.parsed = check.parse_disclose(text)
        outcome.units = outcome.parsed.get("evaluations", 0)
    else:
        outcome.parsed = check.parse_csv(text)
        rows = outcome.parsed["rows"]
        if outcome.call.unit == "trials":
            outcome.units = max((int(r.get("trials", 0)) for r in rows), default=0)
        else:
            outcome.units = len(rows)


def check_group(workload: Workload, group: Group, outcomes: list[Outcome],
                helpers: list[Outcome], sample: int) -> list[str]:
    """Check a group's output. Problems of timed calls go on their outcome;
    problems found in helper output are returned.

    ``sample`` picks which sweep row is compared with the reference.
    """
    for o in outcomes + helpers:
        if o.code == 0:
            parse_units(o)
    source = group.source
    completed = [o for o in outcomes if o.code == 0]
    if workload.name == "simulate_market":
        for o in completed:
            o.problems = check.check_simulate(
                o.parsed, o.call.expect["position"], source.config, SIM_BUDGETS,
                inputs.RHO, source.config["initial_set_size_n"])
        return []
    if workload.name == "sweep_large":
        for o in completed:
            o.problems = check.check_sweep(o.parsed, source.cents, o.call.argv, o.call.expect, sample)
        return []
    costs = {}
    for o in [o for o in outcomes + helpers if o.code == 0]:
        o.problems = check.check_disclose(o.parsed, source.cents, o.call.expect, inputs.RHO,
                                          source.n_new, MC_BUDGET[o.call.expect["estimator"]])
        if not o.problems:
            costs[o.call.kind] = o.parsed["cost"]
    timed = {o.call.kind: o for o in outcomes}
    found = []
    for kind, problem in check.check_disclose_group(costs).items():
        if kind in timed:
            timed[kind].problems.append(problem)
        else:
            found.append(problem)
    return found + [f"helper {h.call.argv}: {p}" for h in helpers for p in h.problems]
