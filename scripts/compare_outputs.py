"""Compare two runs of ``scripts/cli_outputs.py``, line by line, for a
change that is exact to rounding rather than bitwise.

A byte-identical line passes. Another line passes only if its seed,
workload, argv and exit code are equal, its stdout and stderr are equal
once every printed number is taken out, and each number lies within
max(1e-11, 1e-10 * |base value|) of the base run's. One summary row is
printed per (workload, command), the command being the subcommand and
its ``--method``: how many lines moved, and the largest absolute and
relative move of a number. The exit code is 1 if any line fails:

    python3 scripts/compare_outputs.py base.jsonl new.jsonl
"""

import json
import re
import sys
from collections import defaultdict

ABS_TOL = 1e-11
REL_TOL = 1e-10

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def command(argv: list[str]) -> str:
    """The subcommand, with its ``--method`` when it has one."""
    if "--method" in argv:
        return f"{argv[0]} --method {argv[argv.index('--method') + 1]}"
    return argv[0]


def moves(base: dict, new: dict) -> list[tuple[float, float]] | None:
    """Each printed number's absolute move from ``base`` to ``new``, and
    its move relative to a nonzero base value (0 for a zero one), or None
    when the lines differ in anything but numbers within tolerance."""
    if any(base[key] != new[key] for key in ("seed", "workload", "argv", "code")):
        return None
    found = []
    for key in ("stdout", "stderr"):
        if NUMBER.split(base[key]) != NUMBER.split(new[key]):
            return None
        for a, b in zip(map(float, NUMBER.findall(base[key])), map(float, NUMBER.findall(new[key]))):
            move = abs(b - a)
            if not move <= max(ABS_TOL, REL_TOL * abs(a)):
                return None
            found.append((move, move / abs(a) if a else 0.0))
    return found


def compare(base_lines: list[str], new_lines: list[str]) -> tuple[list[str], list[str]]:
    """The summary rows and the failures of one comparison."""
    failures = []
    if len(base_lines) != len(new_lines):
        failures.append(f"{len(base_lines)} base lines against {len(new_lines)} new lines")
    groups = defaultdict(lambda: [0, 0, 0.0, 0.0])  # lines, moved, largest abs, largest rel
    for number, (a, b) in enumerate(zip(base_lines, new_lines), 1):
        base = json.loads(a)
        group = groups[base["workload"], command(base["argv"])]
        group[0] += 1
        if a == b:
            continue
        group[1] += 1
        found = moves(base, json.loads(b))
        if found is None:
            failures.append(f"line {number}: {' '.join(base['argv'])}")
            continue
        for move, rel in found:
            group[2] = max(group[2], move)
            group[3] = max(group[3], rel)
    rows = [f"{'workload':<20} {'command':<32} {'lines':>5} {'moved':>5} {'max_abs':>9} {'max_rel':>9}"]
    for (workload, cmd), (lines, moved, largest, rel) in groups.items():
        rows.append(f"{workload:<20} {cmd:<32} {lines:>5} {moved:>5} {largest:>9.2e} {rel:>9.2e}")
    return rows, failures


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py BASE.jsonl NEW.jsonl", file=sys.stderr)
        return 2
    texts = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read().splitlines())
    rows, failures = compare(*texts)
    print("\n".join(rows))
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
