"""Benchmark the evaluation pipeline through the package's CLI.

    python3 perfbench/run.py --workload disclose_kde --seed 1 --seconds 20 --trace 0

Every call goes through ``pricedisclosure.cli.main(argv)`` in this process,
with stdout captured and the evaluation cache cleared first, as a fresh
CLI process would have it. Inputs are generated from ``--seed``; every
output is checked. With ``--trace 0`` the run repeats the workload's calls
for ``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it
runs the first round of calls once untraced and once traced and reports
the per-layer metrics, the tracing overhead and the reconciliation checks.
Calls on tie-heavy lists are probes (see ``workloads.py``): made once per
run, reported on their own line and left out of ``attempted``/``failed``.
Details are written to ``.perfbench_out/``; the last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("work_per_s", "1/s"), ("call_s", "s"), ("peak_rss_mb", "MB"))

# Name under which each call kind's median is reported.
KIND_NAMES = {"interval": "interval_s", "minimal": "minimal_s", "mc": "mc_s", "brute": "brute_s"}
WORK_NAMES = {
    "disclose_kde": "evals_per_s",
    "disclose_parametric": "evals_per_s",
    "simulate_market": "trials_per_s",
    "sweep_large": "points_per_s",
}


def host_facts(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": workload,
        "seed": seed,
    }


def measure_setup(workload: str, seed: int, scratch: Path) -> list[tuple[float, float]]:
    """(wall, nominal-speed) seconds of complete set-ups, each in a fresh
    interpreter: imports, input generation and writing the input files."""
    from perfbench import calibration

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    times = []
    for i in range(SETUP_REPEATS):
        out = scratch / f"setup{i}"
        before = calibration.settle()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "perfbench.inputs", "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            cwd=ROOT, env=env, check=True, timeout=120,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        wall = time.perf_counter() - start
        after = calibration.kernel_seconds()
        times.append((wall, wall * calibration.scale(before, after)))
        shutil.rmtree(out)
    return times


class Runner:
    """Executes a workload's groups of calls and checks their output."""

    def __init__(self, workload):
        from pricedisclosure import cli, disclosure

        self.cli = cli
        self.disclosure = disclosure
        self.workload = workload
        self.helper_problems: list[str] = []
        self.groups_run = 0

    def execute(self, call, tracer=None, call_id=-1):
        from perfbench.workloads import Outcome

        self.disclosure.clear_evaluation_cache()
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            counters = tracer.begin_call(call_id)
            tracer.install()
        try:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(call.argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash fails this call; the run goes on
                code = -1
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            info = self.disclosure._evaluate_cents.cache_info()
            counters["cache_hits"] += info.hits
            counters["cache_misses"] += info.misses
        return Outcome(call, code, out.getvalue(), err.getvalue(), seconds)

    def run_group(self, group, tracer=None, first_call_id=0):
        """Run a group's timed calls, each bracketed by kernel timings that
        scale it to nominal speed, then its helpers and the checks."""
        from perfbench import calibration
        from perfbench.workloads import check_group

        outcomes = []
        for i, call in enumerate(group.calls):
            before = calibration.settle()
            outcome = self.execute(call, tracer, first_call_id + i)
            after = calibration.kernel_seconds()
            outcome.scaled = outcome.seconds * calibration.scale(before, after)
            outcome.kernel = (before, after)
            outcomes.append(outcome)
        helpers = [self.execute(c) for c in group.helpers]
        self.helper_problems += check_group(self.workload, group, outcomes, helpers, self.groups_run)
        self.groups_run += 1
        return outcomes


def timed(runner, groups, seconds: float):
    """Run whole groups until ``seconds`` have passed."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    while not outcomes or time.perf_counter() < deadline:
        outcomes += runner.run_group(groups[runner.groups_run % len(groups)])
    return outcomes


def traced(runner, groups):
    """Each group untraced, then traced; returns the traced outcomes, the
    per-layer metrics, the reconciliation problems and the tracer."""
    from perfbench import spans

    tracer = spans.Tracer()
    plain, outcomes = [], []
    for g in groups:
        plain += [runner.execute(c) for c in g.calls]
        outcomes += runner.run_group(g, tracer, first_call_id=len(outcomes))
    overhead = sum(o.seconds for o in outcomes) / sum(o.seconds for o in plain) - 1.0
    problems = [
        f"call {i} ({o.call.kind}): stdout differs with tracing on"
        for i, (p, o) in enumerate(zip(plain, outcomes)) if p.stdout != o.stdout
    ]
    commands = {i: o.call.argv[0] for i, o in enumerate(outcomes)}
    printed = {i: o.parsed["evaluations"] for i, o in enumerate(outcomes)
               if o.code == 0 and o.call.argv[0] == "disclose"}
    problems += spans.reconcile(tracer, runner.workload.name, commands, printed)
    return outcomes, spans.layer_metrics(tracer, overhead), problems, tracer


def summarize(outcomes) -> dict:
    """Per call kind: attempts, completions, median time and work rate of
    completed calls, at nominal speed and as wall time."""
    kinds: dict[str, list] = {}
    for o in outcomes:
        kinds.setdefault(o.call.kind, []).append(o)
    summary = {}
    for kind, group in sorted(kinds.items()):
        done = [o for o in group if o.ok]
        summary[kind] = {
            "attempted": len(group),
            "completed": len(done),
            "units": sum(o.units for o in done),
            "median_s": statistics.median(o.scaled for o in done) if done else None,
            "median_wall_s": statistics.median(o.seconds for o in done) if done else None,
            "median_units_per_s": statistics.median(o.units / o.scaled for o in done) if done else None,
        }
    return summary


def _geomean(values) -> float:
    values = list(values)
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def end_to_end(outcomes, setup_times) -> dict[str, float]:
    """Kind-balanced figures: each call kind weighs the same, however many
    of its calls fit in the run."""
    kinds = [k for k in summarize(outcomes).values() if k["completed"]]
    return {
        "setup_s": statistics.median(nominal for _, nominal in setup_times),
        "work_per_s": _geomean(k["median_units_per_s"] for k in kinds),
        "call_s": _geomean(k["median_s"] for k in kinds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report_lines(workload: str, outcomes, metrics: dict, setup_times) -> list[str]:
    """Every end-to-end metric by name and unit, with the per-kind figures
    behind it and the wall-clock equivalents."""
    lines = []
    for kind, k in summarize(outcomes).items():
        if k["median_s"] is None:
            lines.append(f"{kind:<24} no completed calls ({k['attempted']} attempted)")
            continue
        count = f"median of {k['completed']} calls"
        if kind.startswith("sim_k"):
            lines.append(f"{kind + '_trials_per_s':<24} {k['median_units_per_s']:.6f} 1/s ({count})")
        else:
            name = KIND_NAMES.get(kind, kind + "_s")
            lines.append(f"{name:<24} {k['median_s']:.6f} s   ({count}; wall {k['median_wall_s']:.6f} s)")
    done = [o for o in outcomes if o.ok]
    if done:
        units = sum(o.units for o in done)
        lines.append(f"{WORK_NAMES[workload]:<24} {units / sum(o.scaled for o in done):.6f} 1/s "
                     f"(all {len(done)} completed calls; wall {units / sum(o.seconds for o in done):.6f} 1/s)")
    for name, unit in END_TO_END:
        lines.append(f"{name:<24} {metrics[name]:.6f} {unit}")
    lines.append(f"{'setup wall':<24} {statistics.median(w for w, _ in setup_times):.6f} s")
    failed = sum(not o.ok for o in outcomes)
    lines.append(f"{'failed_frac':<24} {failed / len(outcomes):.6f} ratio "
                 f"({failed} of {len(outcomes)} calls)")
    return lines


def probe_line(probes) -> list[str]:
    """The tie-heavy probe calls' failure share, when the workload has any."""
    if not probes:
        return []
    failed = sum(not o.ok for o in probes)
    return [f"{'tie_heavy_failed_frac':<24} {failed / len(probes):.6f} ratio "
            f"({failed} of {len(probes)} probe calls, not in attempted/failed)"]


def run(args) -> int:
    from perfbench import inputs, spans
    from perfbench.workloads import build

    if args.workload not in inputs.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {inputs.WORKLOADS}", file=sys.stderr)
        return 2
    scratch = WORK / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(exist_ok=True)
    try:
        setup_times = measure_setup(args.workload, args.seed, scratch)
        workload = build(args.workload, args.seed)
        inputs_dir = scratch / "inputs"
        inputs_dir.mkdir()
        groups = workload.materialise(inputs_dir)
        first_round = groups[: len(workload.rounds[0])]
        runner = Runner(workload)
        # Untimed warm-up, so lazy first-use set-up is not charged to one call.
        runner.execute(next((g.helpers[0] for g in groups if g.helpers and not g.probe),
                            groups[0].calls[0]))
        if args.trace:
            outcomes, metrics, problems, tracer = traced(runner, first_round)
            units = dict(spans.PER_LAYER)
        else:
            outcomes = timed(runner, [g for g in groups if not g.probe], args.seconds)
            metrics = end_to_end(outcomes, setup_times)
            outcomes += [o for g in first_round if g.probe for o in runner.run_group(g)]
            units = dict(END_TO_END)
            problems = []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems += runner.helper_problems + [
        f"{o.call.kind} {o.call.argv}: {o.problems}" for o in outcomes if o.problems
    ]
    probes = [o for o in outcomes if o.call.probe]
    outcomes = [o for o in outcomes if not o.call.probe]
    facts = host_facts(args.workload, args.seed)
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.npz")
    (OUT / f"{stem}.json").write_text(json.dumps({
        "host": facts,
        "inputs": workload.describe(),
        "setup_s": {"wall": [w for w, _ in setup_times], "nominal": [n for _, n in setup_times]},
        "kinds": summarize(outcomes),
        "calls": [[o.call.kind, Path(o.call.argv[2]).name, o.code, o.units, o.seconds, o.scaled,
                   *o.kernel] for o in outcomes],
        "probe_calls": [[o.call.kind, Path(o.call.argv[2]).name, o.code, o.units, o.seconds]
                        for o in probes],
        "result": result,
        "problems": problems,
        "failures": [f"{o.call.kind} {o.call.argv}: exit {o.code}: {o.stderr.strip()[-300:]}"
                     for o in outcomes + probes if o.code != 0],
    }, indent=2) + "\n", encoding="utf-8")

    print("host: " + json.dumps(facts))
    print("inputs: " + json.dumps(workload.describe()))
    if args.trace:
        lines = [f"{name:<36} {metrics[name]:.6g} {unit}" for name, unit in units.items()]
    else:
        lines = report_lines(args.workload, outcomes, metrics, setup_times)
    print("\n".join(lines + probe_line(probes) + [f"problem: {p}" for p in problems[:20]]))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pricedisclosure" / "cli.py").is_file():
        print(f"no package source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:1] = [str(SRC), str(ROOT)]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
