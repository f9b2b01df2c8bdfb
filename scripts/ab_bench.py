"""Benchmark this checkout against a base commit in alternating pairs.

    python3 scripts/ab_bench.py --base HEAD~1 --seconds 20 --out BENCH_<n>.json \
        disclose_parametric=71-80 disclose_kde=71,72,73

Each positional argument names a workload of ``perfbench/run.py`` and the
seeds to run it at, as a range (``71-80``) or a comma list. The base
commit's files are extracted with ``git archive`` into a temporary
directory, removed at the end, so no worktree, branch or other repository
state is left behind. For each workload and seed, ``perfbench/run.py
--trace 0`` runs once on the base and once on this checkout, each in its
own process and on its own source tree; which side runs first alternates
from pair to pair. The script times nothing itself: it keeps the JSON
result line each run prints, and the host facts the first run prints.

The output file holds the host facts, the base commit, every pair's two
result lines, and per workload and end-to-end metric (as listed in
``BENCHMARK.json``) each side's median and quartiles, the ratio of the
medians and the share of pairs in which the checkout was strictly better.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def parse_runs(spec: str) -> tuple[str, list[int]]:
    """``workload=71-80`` or ``workload=71,75`` as (workload, seeds)."""
    workload, _, seeds = spec.partition("=")
    if not seeds:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=SEEDS, got {spec!r}")
    if "-" in seeds:
        lo, hi = map(int, seeds.split("-"))
        return workload, list(range(lo, hi + 1))
    return workload, [int(s) for s in seeds.split(",")]


def bench(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run on the tree at ``root``: its host facts
    and its JSON result line."""
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    host = next((json.loads(line[len("host: "):]) for line in lines if line.startswith("host: ")), {})
    return host, json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles, the quartiles taken inside the data's range."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric, both sides' spread, the median ratio and the
    share of pairs the checkout won."""
    summary = {}
    for workload in dict.fromkeys(pair["workload"] for pair in pairs):
        mine = [pair for pair in pairs if pair["workload"] == workload]
        summary[workload] = {"pairs": len(mine)}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            base = [pair["base"]["metrics"][name]["value"] for pair in mine]
            change = [pair["change"]["metrics"][name]["value"] for pair in mine]
            won = sum(c < b if lower else c > b for b, c in zip(base, change))
            a, b = spread(base), spread(change)
            summary[workload][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "base": a,
                "change": b,
                "change_over_base": b["median"] / a["median"] if a["median"] else None,
                "change_won_share": won / len(mine),
            }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--seconds", type=float, default=20.0, help="run.py --seconds per run")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("runs", nargs="+", type=parse_runs, metavar="WORKLOAD=SEEDS")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    commit = git("rev-parse", args.base)
    pairs, host = [], None
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = {"base": Path(tmp), "change": ROOT}
        for workload, seeds in args.runs:
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    facts, pair[side] = bench(sides[side], workload, seed, args.seconds)
                    host = host or {k: v for k, v in facts.items() if k not in ("workload", "seed")}
                pairs.append(pair)
                print(json.dumps(pair), flush=True)
    report = {
        "host": host,
        "base": commit,
        "change": f"{git('rev-parse', 'HEAD')} + working tree" if git("status", "--porcelain") else git("rev-parse", "HEAD"),
        "seconds": args.seconds,
        "pairs": pairs,
        "summary": summarize(pairs, metrics),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
