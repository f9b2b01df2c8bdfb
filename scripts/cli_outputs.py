"""Print the output of every benchmark CLI call, one JSON line per call.

First, ``fit --method kde`` and ``fit --method parametric`` on each
bundled dataset, whose printed bandwidth, log-likelihoods and BICs no
benchmark call shows. Next, one ``critical-cost --sweep q`` and one
``--sweep n`` on the bundled printer list with every price times 100
(workload ``printer_x100``): the benchmark sweeps prices in the
hundreds, far below 16384, where a float grid's end point keeps more
slack than rounding takes. Next, calls that run in worker processes
(workload ``workers``): brute force on the bundled camera list with
``--workers 3`` under each estimator, and ``simulate`` on the bundled
printer market at positions 1 and 2 with ``--workers 2``, so that what
the workers send back is covered too. Next, selections whose screen
bounds rows of many sizes in one block (workload ``mixed_sizes``):
``disclose --method interval`` and ``--method minimal`` on the bundled
mouse list (133 prices, past numpy's 128-value pairwise split) at
``--rho 1`` under the KDE and at ``--rho 2 --estimator parametric``, and
both methods on a tie-heavy list of 24 prices at 3 distinct values at
``--rho 1``; the benchmark's selections run at rho 10 only.
Then, for each seed and each workload in ``perfbench.inputs.WORKLOADS``,
the workload's inputs are written to a temporary directory and every
call and helper of every group runs through ``pricedisclosure.cli.main``,
with the evaluation cache cleared first, as the benchmark does. Each line
holds the seed (null for the fit, printer_x100, workers and mixed_sizes
calls), the workload, the argv, the exit code, stdout and stderr, with
the temporary directory written as ``<tmp>``. The code under test is the checkout
this script sits in, so comparing two checkouts' output with ``cmp``
checks that a change keeps the CLI's bytes:

    python3 scripts/cli_outputs.py 3 11 > outputs.jsonl
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.inputs import WORKLOADS  # noqa: E402
from perfbench.workloads import build  # noqa: E402
from pricedisclosure import cli, disclosure  # noqa: E402
from pricedisclosure.data import BUILTIN_MANIFESTS, PriceList, builtin_dataset, write_prices  # noqa: E402
from pricedisclosure.density import ESTIMATORS  # noqa: E402


def run(seed: int | None, workload: str, argv: list[str]) -> dict:
    """One CLI call from a cold evaluation cache, as a JSON-ready line."""
    disclosure.clear_evaluation_cache()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"seed": seed, "workload": workload, "argv": argv, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(seeds: list[int]) -> None:
    for name in sorted(BUILTIN_MANIFESTS):
        for method in ESTIMATORS:
            print(json.dumps(run(None, "fit", ["fit", "--builtin", name, "--method", method])), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "printer_x100.csv")
        printer = builtin_dataset("printer")
        write_prices(PriceList("printer", 100 * printer.cents_array(), printer.sources), path)
        sweep = ["critical-cost", "--data", path, "--method", "kde", "--sweep"]
        for argv in (sweep + ["q", "--n-new", "18", "--from", "29700", "--to", "29701.5", "--step", "0.25"],
                     sweep + ["n", "--q", "31000", "--from", "2", "--to", "22", "--step", "4"]):
            print(json.dumps(run(None, "printer_x100", argv)).replace(tmp, "<tmp>"), flush=True)
        config = Path(tmp) / "printer_market.json"
        config.write_text(json.dumps({"builtin": "printer", "trials": 6}))
        calls = [["disclose", "--builtin", "camera", "--method", "brute", "--rho", "70", "--n-new", "5",
                  "--estimator", estimator, "--workers", "3"] for estimator in ESTIMATORS]
        calls += [["simulate", "--config", str(config), "--position", str(k), "--methods", "mc,interval,minimal,full",
                   "--budgets", "10,25", "--workers", "2"] for k in (1, 2)]
        for argv in calls:
            print(json.dumps(run(None, "workers", argv)).replace(tmp, "<tmp>"), flush=True)
        ties = str(Path(tmp) / "tie_heavy.csv")
        write_prices(PriceList("ties", [29700 + (0, 1, 250)[i % 3] for i in range(24)],
                               [f"s{i}" for i in range(24)]), ties)
        methods = [["--method", method] for method in ("interval", "minimal")]
        calls = [["disclose", "--builtin", "mouse", *method, *rest, "--n-new", "18"]
                 for rest in (["--rho", "1"], ["--rho", "2", "--estimator", "parametric"]) for method in methods]
        calls += [["disclose", "--data", ties, *method, "--rho", "1", "--n-new", "18"] for method in methods]
        for argv in calls:
            print(json.dumps(run(None, "mixed_sizes", argv)).replace(tmp, "<tmp>"), flush=True)
    for seed in seeds:
        for name in WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                for group in build(name, seed).materialise(Path(tmp)):
                    for call in group.calls + group.helpers:
                        line = run(seed, name, call.argv)
                        print(json.dumps(line).replace(tmp, "<tmp>"), flush=True)


if __name__ == "__main__":
    main([int(seed) for seed in sys.argv[1:]])
