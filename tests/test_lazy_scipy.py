"""No command, under either estimator, imports scipy.stats or
scipy.optimize: the parametric fit solves its own equations. The pytest
process has imported both already, so each run check starts a fresh
interpreter; a static check keeps the package's sources off both modules
and scipy's private kernels."""

import ast
import json
import os
import re
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
        "fit": [0, []],
    }


def test_parametric_commands_never_import_scipy_stats(tmp_path):
    config = tmp_path / "market.json"
    config.write_text(json.dumps({
        "builtin": "printer", "estimator": "parametric", "csa_listing_mean": 20.6, "rho": 3,
        "initial_set_size_n": 6, "trials": 2, "base_seed": 4,
    }))
    seen = run_fresh(f"""
        from pricedisclosure import cli

        seen = {{"import": loaded()}}
        printer = ["--builtin", "printer"]
        for name, argv in (
            ("fit", ["fit", *printer, "--method", "parametric"]),
            ("critical-cost", ["critical-cost", *printer, "--method", "parametric", "--q", "300", "--n-new", "18"]),
            ("disclose", ["disclose", *printer, "--method", "minimal", "--rho", "10", "--n-new", "18",
                          "--estimator", "parametric"]),
            ("simulate", ["simulate", "--config", {str(config)!r}, "--methods", "minimal,full"]),
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                seen[name] = [cli.main(argv), loaded()]
        print(json.dumps(seen))
    """)
    assert seen == {
        "import": [],
        **{name: [0, []] for name in ("fit", "critical-cost", "disclose", "simulate")},
    }


def test_block_fit_and_bound_never_import_scipy_optimize():
    # The block fit solves its own equations: a block of parametric rows
    # is fitted and bounded with scipy.optimize unloaded.
    seen = run_fresh("""
        import numpy as np
        from pricedisclosure.density import ParametricRows
        from pricedisclosure.search import lower_bounds

        rng = np.random.default_rng(3)
        sizes = rng.integers(2, 31, 40)
        samples = np.sort(rng.lognormal(5.0, 0.3, (40, 30)), axis=1)
        deferred = ParametricRows(samples, sizes).deferred
        bounds, _ = lower_bounds(samples, sizes, 18, "parametric")
        print(json.dumps({"loaded": loaded(), "deferred": int(deferred.sum()),
                          "bounded": int(np.isfinite(bounds).sum())}))
    """)
    assert seen == {"loaded": [], "deferred": 0, "bounded": 40}


def test_first_parametric_fit_matches_the_next_and_loads_no_scipy_module():
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
    assert seen["after"] == []
    assert seen["first"] == seen["second"]
    for fitted in seen["first"]:
        assert [c[0] for c in fitted["candidates"]] == seen["families"]
    # zero spread skips every family but the exponential, each with a reason
    assert [c[5] != "" for c in seen["first"][1]["candidates"]] == [f != "exponential" for f in seen["families"]]


def test_sources_import_no_scipy_stats_and_name_no_private_scipy_kernel():
    # The families' kernels and solvers are the package's own: no module
    # imports scipy.stats or scipy.optimize, and none names a private method
    # of scipy's distributions.
    private = re.compile(r"\._(pdf|cdf|ppf|logpdf|argcheck)\b|_support_mask")
    sources = sorted((SRC / "pricedisclosure").rglob("*.py"))
    assert sources
    for path in sources:
        text = path.read_text(encoding="utf-8")
        assert not private.search(text), path
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}" for alias in node.names] + [node.module or ""]
            else:
                continue
            for banned in ("scipy.stats", "scipy.optimize"):
                assert not any(m == banned or m.startswith(banned + ".") for m in modules), (path, node.lineno)
