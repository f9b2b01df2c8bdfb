"""Print the output of every benchmark CLI call, one JSON line per call.

For each seed and each workload in ``perfbench.inputs.WORKLOADS``, the
workload's inputs are written to a temporary directory and every call and
helper of every group runs through ``pricedisclosure.cli.main``, with the
evaluation cache cleared first, as the benchmark does. Each line holds the
seed, the workload, the argv, the exit code, stdout and stderr, with the
temporary directory written as ``<tmp>``. The code under test is the
checkout this script sits in, so comparing two checkouts' output with
``cmp`` checks that a change keeps the CLI's bytes:

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


def main(seeds: list[int]) -> None:
    for seed in seeds:
        for name in WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                for group in build(name, seed).materialise(Path(tmp)):
                    for call in group.calls + group.helpers:
                        disclosure.clear_evaluation_cache()
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = cli.main(call.argv)
                        line = {"seed": seed, "workload": name, "argv": call.argv, "code": code,
                                "stdout": out.getvalue(), "stderr": err.getvalue()}
                        print(json.dumps(line).replace(tmp, "<tmp>"), flush=True)


if __name__ == "__main__":
    main([int(seed) for seed in sys.argv[1:]])
