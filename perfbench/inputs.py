"""Seeded input generation for the benchmark workloads.

Uses numpy and the standard library only, so a change to the package's
density code cannot change what the benchmark feeds the CLI. Prices are
drawn by a smoothed bootstrap from the bundled product CSVs; a fixed
minority of disclose lists follow the tie-heavy recipe (2-5 distinct
prices within $3).

Running this module performs one complete set-up, as the benchmark does
before its first timed call: import the CLI, generate one workload's
inputs and write them as the CSV/JSON files the CLI reads.

    python3 -m perfbench.inputs --workload disclose_kde --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DATASETS = ROOT / "src" / "pricedisclosure" / "datasets"

PRODUCTS = ("camera", "monitor", "mouse", "printer")
SOURCES_PER_PRODUCT = 5  # comparison-shopping sites each product was mined from
OVERLAP_RATE = 0.12  # the CLI's default listing overlap

RHO = 10
LIST_SIZE = 30
BRUTE_LIST_SIZE = 12
TIE_WINDOW_CENTS = 300
SWEEP_SIZES = (2000, 5000)
SWEEP_POINTS = 5
MARKET = "printer"

WORKLOADS = ("disclose_kde", "disclose_parametric", "simulate_market", "sweep_large")


def _stream(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *path]))


def read_product(product: str) -> np.ndarray:
    """Bundled product prices as integer cents."""
    with (DATASETS / f"{product}.csv").open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    return np.array([round(float(row[2]) * 100) for row in rows if row], dtype=np.int64)


def product_n_new(product: str) -> int:
    """Overlap-discounted new prices per query, from the mean listing count."""
    listings = read_product(product).size / SOURCES_PER_PRODUCT
    return max(1, math.floor(listings * (1.0 - OVERLAP_RATE) + 0.5))


def smoothed_bootstrap(base: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Resample ``base`` cents and jitter by a Silverman-width Gaussian."""
    x = base / 100.0
    q75, q25 = np.percentile(x, [75.0, 25.0])
    h = 0.9 * min(float(np.std(x, ddof=1)), float(q75 - q25) / 1.34) * x.size ** (-0.2)
    draws = rng.choice(x, size=size, replace=True) + rng.normal(0.0, h, size=size)
    return np.maximum(np.rint(draws * 100.0).astype(np.int64), 1)


def tie_heavy(base: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` prices on 2-5 distinct values within $3 of a bootstrap draw."""
    distinct = int(rng.integers(2, 6))
    anchor = int(smoothed_bootstrap(base, 1, rng)[0])
    offsets = np.concatenate(
        ([0], np.sort(rng.choice(np.arange(1, TIE_WINDOW_CENTS + 1), distinct - 1, replace=False)))
    )
    values = anchor + offsets
    picks = np.concatenate((np.arange(distinct), rng.integers(0, distinct, size - distinct)))
    return values[rng.permutation(picks)]


@dataclass
class PriceFile:
    """One generated price list and the CSV it is written to."""

    name: str
    product: str
    cents: np.ndarray
    n_new: int
    tie_heavy: bool = False

    def write(self, directory: Path) -> Path:
        path = directory / f"{self.name}.csv"
        with path.open("w", encoding="utf-8", newline="") as handle:
            handle.write("product_id,source,price\n")
            for c in self.cents:
                handle.write(f"{self.product},seller,{c // 100}.{c % 100:02d}\n")
        return path


@dataclass
class MarketFile:
    """A ``simulate`` config; the market is a bundled product."""

    name: str
    product: str
    config: dict = field(default_factory=dict)

    def write(self, directory: Path) -> Path:
        path = directory / f"{self.name}.json"
        path.write_text(json.dumps(self.config, sort_keys=True) + "\n", encoding="utf-8")
        return path


def disclose_round(seed: int, round_index: int) -> list[PriceFile]:
    """One round of disclose inputs: a 30-price list per product, the
    round's tie-heavy list (one product per round, in rotation), and one
    small list for the brute-force oracle.

    Round r's lists depend only on (seed, r), so a run that completes more
    rounds sees the same first rounds as a shorter one.
    """
    files = []
    for p, product in enumerate(PRODUCTS):
        rng = _stream(seed, round_index, p)
        base = read_product(product)
        heavy = p == round_index % len(PRODUCTS)
        cents = tie_heavy(base, LIST_SIZE, rng) if heavy else smoothed_bootstrap(base, LIST_SIZE, rng)
        files.append(PriceFile(f"r{round_index}_{product}", product, cents, product_n_new(product), heavy))
    product = PRODUCTS[round_index % len(PRODUCTS)]
    rng = _stream(seed, round_index, len(PRODUCTS))
    cents = smoothed_bootstrap(read_product(product), BRUTE_LIST_SIZE, rng)
    files.append(PriceFile(f"r{round_index}_{product}_small", product, cents, product_n_new(product)))
    return files


def sweep_round(seed: int, round_index: int) -> list[PriceFile]:
    """Large synthetic lists, one per size, from a rotating product."""
    product = PRODUCTS[round_index % len(PRODUCTS)]
    base = read_product(product)
    return [
        PriceFile(
            f"r{round_index}_{product}_{size}",
            product,
            smoothed_bootstrap(base, size, _stream(seed, round_index, size)),
            product_n_new(product),
        )
        for size in SWEEP_SIZES
    ]


def market_round(seed: int, round_index: int, trials: int) -> list[MarketFile]:
    """One market config with a base seed from (seed, round). The market is
    the printer, the product with a documented stated minimum."""
    base_seed = int(_stream(seed, round_index).integers(0, 2**31))
    config = {
        "builtin": MARKET,
        "rho": RHO,
        "initial_set_size_n": LIST_SIZE,
        "trials": trials,
        "base_seed": base_seed,
    }
    return [MarketFile(f"r{round_index}_{MARKET}", MARKET, config)]


def describe(files) -> dict:
    """Input properties that the program's behaviour depends on."""
    lists = [f for f in files if isinstance(f, PriceFile)]
    if not lists:
        markets = [f for f in files if isinstance(f, MarketFile)]
        return {
            "markets": len(markets),
            "products": sorted({f.product for f in markets}),
            "rho": RHO,
            "initial_set_size_n": LIST_SIZE,
        }
    sizes = sorted({int(f.cents.size) for f in lists})
    distinct = [int(np.unique(f.cents).size) for f in lists]
    return {
        "lists": len(lists),
        "n": sizes,
        "distinct_prices": [min(distinct), max(distinct)],
        "price_range": [min(int(f.cents.min()) for f in lists) / 100, max(int(f.cents.max()) for f in lists) / 100],
        "n_new": sorted({f.n_new for f in lists}),
        "tie_heavy_share": sum(f.tie_heavy for f in lists) / len(lists),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import pricedisclosure.cli  # noqa: F401  (import cost is part of set-up)

    from perfbench.workloads import build

    args.out.mkdir(parents=True, exist_ok=True)
    build(args.workload, args.seed).materialise(args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
