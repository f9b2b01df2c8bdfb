"""scipy.stats and scipy.optimize load on the first parametric fit, never
for the KDE. The pytest process has imported them already, so each check
runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from pricedisclosure import density

SRC = Path(density.__file__).resolve().parents[1]

PRELUDE = """
import contextlib, io, json, sys

def loaded():
    return [m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules]
"""


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter on this checkout; it prints one JSON line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_kde_commands_never_import_scipy_stats_or_optimize():
    seen = run_fresh("""
        import pricedisclosure
        from pricedisclosure import cli

        seen = {"import": loaded()}
        printer = ["--builtin", "printer"]
        for name, argv in (
            ("critical-cost", ["critical-cost", *printer, "--method", "kde", "--q", "300", "--n-new", "18"]),
            ("disclose", ["disclose", *printer, "--method", "interval", "--rho", "10", "--n-new", "18"]),
            ("fit", ["fit", *printer, "--method", "parametric"]),
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                seen[name] = [cli.main(argv), loaded()]
        print(json.dumps(seen))
    """)
    assert seen == {
        "import": [],
        "critical-cost": [0, []],
        "disclose": [0, []],
        "fit": [0, ["scipy.stats", "scipy.optimize"]],
    }


def test_first_parametric_fit_loads_scipy_and_matches_the_next():
    seen = run_fresh("""
        import numpy as np
        from pricedisclosure.density import FAMILIES, fit_parametric

        def summary(values):
            report = fit_parametric(values)
            grid = np.linspace(0.5 * values.min(), 1.5 * values.max(), 9)
            return {
                "candidates": [
                    [c.family, {k: v.hex() for k, v in c.params.items()},
                     c.loglik.hex(), c.bic.hex(), c.skipped, c.reason]
                    for c in report.candidates
                ],
                "best": report.best_family,
                "pdf": [v.hex() for v in report.density.pdf(grid).tolist()],
                "cdf": [v.hex() for v in report.density.cdf(grid).tolist()],
            }

        seeded = np.random.default_rng(19).lognormal(5.5, 0.25, 30)
        flat = np.full(12, 120.0)
        seen = {"before": loaded()}
        seen["first"] = [summary(seeded), summary(flat)]
        seen["after"] = loaded()
        seen["second"] = [summary(seeded), summary(flat)]
        seen["families"] = list(FAMILIES)
        print(json.dumps(seen))
    """)
    assert seen["before"] == []
    assert seen["after"] == ["scipy.stats", "scipy.optimize"]
    assert seen["first"] == seen["second"]
    for fitted in seen["first"]:
        assert [c[0] for c in fitted["candidates"]] == seen["families"]
    # zero spread skips every family but the exponential, each with a reason
    assert [c[5] != "" for c in seen["first"][1]["candidates"]] == [f != "exponential" for f in seen["families"]]


def test_family_table_is_built_once_in_families_order():
    assert density._FAMILIES is density._family_table()
    assert tuple(density._FAMILIES) == density.FAMILIES
