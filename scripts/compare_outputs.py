"""Compare two runs of ``scripts/cli_outputs.py``, line by line, for a
change that is exact to rounding rather than bitwise.

A byte-identical line passes. Another line passes only if its seed,
workload, argv and exit code are equal, its stdout and stderr are equal
once every printed number is taken out, and each number lies within
max(1e-11, 1e-10 * |base value|) of the base run's. A quadrature error
estimate (the number on an ``error_estimate:`` line, or in a CSV
``error_estimate`` column) is instead held to its documented bound: the
new value lies in [0, 2e-8]. One summary row is printed per (workload,
command), the command being the subcommand and its ``--method``: how
many lines moved, the largest absolute and relative move of a number
other than an estimate, and the largest absolute move of an estimate.
The exit code is 1 if any line fails:

    python3 scripts/compare_outputs.py base.jsonl new.jsonl
"""

import json
import re
import sys
from collections import defaultdict

ABS_TOL = 1e-11
REL_TOL = 1e-10
# The bound docs/formats.md gives every printed error estimate.
ESTIMATE_BOUND = 2e-8
ESTIMATE = "error_estimate"

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def command(argv: list[str]) -> str:
    """The subcommand, with its ``--method`` when it has one."""
    if "--method" in argv:
        return f"{argv[0]} --method {argv[argv.index('--method') + 1]}"
    return argv[0]


def estimates(text: str) -> list[bool]:
    """For each number in ``text``, in order, whether it is an error
    estimate: the number on an ``error_estimate:`` line, or a field under
    a CSV header's ``error_estimate`` column."""
    flags, column = [], None
    for line in text.split("\n"):
        fields = line.split(",")
        if line.startswith(f"{ESTIMATE}:"):
            flags += [True] * len(NUMBER.findall(line))
            continue
        if ESTIMATE in fields:
            column = fields.index(ESTIMATE)
        for j, field in enumerate(fields):
            flags += [j == column] * len(NUMBER.findall(field))
    return flags


def moves(base: dict, new: dict) -> tuple[list[tuple[float, float]], list[float]] | None:
    """Each printed number's absolute move from ``base`` to ``new``, and
    its move relative to a nonzero base value (0 for a zero one), then
    each error estimate's absolute move; or None when the lines differ in
    anything but numbers within tolerance and estimates within bound."""
    if any(base[key] != new[key] for key in ("seed", "workload", "argv", "code")):
        return None
    found, estimate_moves = [], []
    for key in ("stdout", "stderr"):
        if NUMBER.split(base[key]) != NUMBER.split(new[key]):
            return None
        pairs = zip(map(float, NUMBER.findall(base[key])), map(float, NUMBER.findall(new[key])),
                    estimates(base[key]))
        for a, b, is_estimate in pairs:
            move = abs(b - a)
            if is_estimate:
                if not 0.0 <= b <= ESTIMATE_BOUND:
                    return None
                estimate_moves.append(move)
                continue
            if not move <= max(ABS_TOL, REL_TOL * abs(a)):
                return None
            found.append((move, move / abs(a) if a else 0.0))
    return found, estimate_moves


def compare(base_lines: list[str], new_lines: list[str]) -> tuple[list[str], list[str]]:
    """The summary rows and the failures of one comparison."""
    failures = []
    if len(base_lines) != len(new_lines):
        failures.append(f"{len(base_lines)} base lines against {len(new_lines)} new lines")
    # lines, moved, largest abs, largest rel, largest estimate move
    groups = defaultdict(lambda: [0, 0, 0.0, 0.0, 0.0])
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
        values, estimate_moves = found
        for move, rel in values:
            group[2] = max(group[2], move)
            group[3] = max(group[3], rel)
        group[4] = max([group[4], *estimate_moves])
    rows = [f"{'workload':<20} {'command':<32} {'lines':>5} {'moved':>5} {'max_abs':>9} {'max_rel':>9} "
            f"{'max_est':>9}"]
    for (workload, cmd), (lines, moved, largest, rel, estimate) in groups.items():
        rows.append(f"{workload:<20} {cmd:<32} {lines:>5} {moved:>5} {largest:>9.2e} {rel:>9.2e} "
                    f"{estimate:>9.2e}")
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
