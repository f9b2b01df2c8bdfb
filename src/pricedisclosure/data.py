"""Price datasets: validated seller price lists, CSV I/O, bundled fixtures.

Prices are held as integer cents internally; the CSV surface is a
two-decimal, dot-separated currency column. Bundled datasets are synthetic
(real listings were never published); their per-source listing counts match
the five comparison-shopping sites each product was mined from, and they are
frozen in the repo after a one-time seeded generation (see ``synthesize``).
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DatasetNotFoundError, ParseError, ValidationError

CSV_HEADER = ("product_id", "source", "price")
DATA_DIR_ENV = "DISCLOSE_DATA_DIR"

# One-time generation seed for the bundled synthetic datasets.
SYNTHETIC_SEED = 20130614


def format_cents(cents: int) -> str:
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // 100}.{cents % 100:02d}"


def parse_price(text: str) -> int:
    """Parse a two-decimal currency string into positive integer cents."""
    try:
        value = Decimal(text.strip())
    except InvalidOperation:
        raise ParseError(f"unparseable price {text!r}") from None
    if not value.is_finite():
        raise ParseError(f"unparseable price {text!r}")
    cents = value.scaleb(2)
    if cents != cents.to_integral_value():
        raise ParseError(f"price {text!r} has more than two decimal places")
    if value <= 0:
        raise ValidationError(f"price must be positive, got {text!r}")
    return int(cents)


@dataclass(frozen=True)
class PriceEntry:
    source: str
    cents: int

    @property
    def price(self) -> float:
        return self.cents / 100.0


@dataclass(frozen=True)
class PriceList:
    """A product's seller prices, immutable once constructed."""

    product_id: str
    entries: tuple[PriceEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValidationError("price list must not be empty")
        object.__setattr__(self, "entries", tuple(self.entries))
        for entry in self.entries:
            if entry.cents <= 0:
                raise ValidationError(
                    f"price must be positive, got {format_cents(entry.cents)} "
                    f"from {entry.source!r}"
                )

    def __len__(self) -> int:
        return len(self.entries)

    def cents_array(self) -> np.ndarray:
        return np.array([e.cents for e in self.entries], dtype=np.int64)

    def values(self) -> np.ndarray:
        """Prices in currency units as float64."""
        return self.cents_array() / 100.0

    @property
    def min_cents(self) -> int:
        return min(e.cents for e in self.entries)

    @property
    def min_price(self) -> float:
        return self.min_cents / 100.0

    @property
    def min_index(self) -> int:
        """Index of the designated minimum: lowest index among ties."""
        return int(np.argmin(self.cents_array()))

    def per_source_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.source] = counts.get(entry.source, 0) + 1
        return counts

    def subset(self, indices) -> PriceList:
        entries = tuple(self.entries[int(i)] for i in indices)
        return PriceList(self.product_id, entries)

    def ascending_order(self) -> np.ndarray:
        """Indices that sort prices ascending; stable for tied prices."""
        return np.argsort(self.cents_array(), kind="stable")


@dataclass(frozen=True)
class DatasetManifest:
    product_id: str
    per_source_counts: dict[str, int]
    stated_minimum: int | None = None  # cents

    def total(self) -> int:
        return sum(self.per_source_counts.values())


# Per-source listing counts mined from the five comparison-shopping sites
# for the four evaluated products; the stated minima are synthetic choices
# except the printer's 297.00, which is the product's documented minimum.
_SOURCES = ("PriceGrabber", "Nextag", "Bizrate", "Amazon", "Shopper")

BUILTIN_MANIFESTS: dict[str, DatasetManifest] = {
    "printer": DatasetManifest(
        "printer", dict(zip(_SOURCES, (24, 13, 23, 28, 15))), stated_minimum=29700
    ),
    "mouse": DatasetManifest(
        "mouse", dict(zip(_SOURCES, (33, 20, 36, 25, 19))), stated_minimum=2499
    ),
    "monitor": DatasetManifest(
        "monitor", dict(zip(_SOURCES, (25, 11, 30, 18, 17))), stated_minimum=12999
    ),
    "camera": DatasetManifest(
        "camera", dict(zip(_SOURCES, (16, 9, 17, 19, 12))), stated_minimum=14800
    ),
}

# Offset distribution above the minimum for synthetic generation:
# (lognormal median, lognormal sigma) per product.
_SYNTH_SHAPES = {
    "printer": (40.0, 0.70),
    "mouse": (12.0, 0.60),
    "monitor": (35.0, 0.60),
    "camera": (40.0, 0.65),
}


def load_prices(path: str | Path) -> PriceList:
    """Load a single-product CSV of ``product_id,source,price`` rows."""
    path = Path(path)
    if not path.exists():
        raise DatasetNotFoundError(f"no such file: {path}")
    entries: list[PriceEntry] = []
    product_id: str | None = None
    # utf-8-sig drops the byte-order mark that spreadsheet "CSV UTF-8"
    # exports put first.
    with path.open("r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        for line_no, row in enumerate(reader, start=1):
            if line_no == 1:
                if [c.strip() for c in row] != list(CSV_HEADER):
                    raise ParseError(
                        f"row 1: expected header {','.join(CSV_HEADER)!r}"
                    )
                continue
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ParseError(f"row {line_no}: expected 3 columns, got {len(row)}")
            pid, source, price_text = (c.strip() for c in row)
            if not pid or not source:
                raise ParseError(f"row {line_no}: empty product_id or source")
            if product_id is None:
                product_id = pid
            elif pid != product_id:
                raise ParseError(
                    f"row {line_no}: mixed products {product_id!r} and {pid!r}"
                )
            try:
                cents = parse_price(price_text)
            except (ParseError, ValidationError) as exc:
                raise type(exc)(f"row {line_no}: {exc}") from None
            entries.append(PriceEntry(source, cents))
    if not entries:
        raise ValidationError("empty dataset")
    assert product_id is not None
    return PriceList(product_id, tuple(entries))


def write_prices(prices: PriceList, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for entry in prices.entries:
            writer.writerow([prices.product_id, entry.source, format_cents(entry.cents)])


def builtin_dataset(product: str) -> PriceList:
    """Load a bundled dataset and verify it against its manifest."""
    manifest = BUILTIN_MANIFESTS.get(product)
    if manifest is None:
        raise DatasetNotFoundError(
            f"unknown builtin product {product!r}; "
            f"choose from {sorted(BUILTIN_MANIFESTS)}"
        )
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        path = Path(override) / f"{product}.csv"
        if not path.exists():
            raise DatasetNotFoundError(f"{DATA_DIR_ENV} set but {path} missing")
        prices = load_prices(path)
    else:
        resource = resources.files("pricedisclosure.datasets").joinpath(f"{product}.csv")
        with resources.as_file(resource) as path:
            if not path.exists():
                raise DatasetNotFoundError(f"bundled dataset missing: {path}")
            prices = load_prices(path)
    verify_manifest(prices, manifest)
    return prices


def verify_manifest(prices: PriceList, manifest: DatasetManifest) -> None:
    counts = prices.per_source_counts()
    if counts != manifest.per_source_counts:
        raise ValidationError(
            f"{prices.product_id}: per-source counts {counts} do not match "
            f"manifest {manifest.per_source_counts}"
        )
    if manifest.stated_minimum is not None and prices.min_cents != manifest.stated_minimum:
        raise ValidationError(
            f"{prices.product_id}: minimum {format_cents(prices.min_cents)} != "
            f"manifest {format_cents(manifest.stated_minimum)}"
        )


def synthesize(product: str, seed: int = SYNTHETIC_SEED) -> PriceList:
    """Regenerate a bundled synthetic dataset.

    One entry carries the stated minimum exactly (placed in the first
    source); every other price is the minimum plus a lognormal offset of at
    least 0.50, rounded to cents. Deterministic given ``seed``.
    """
    manifest = BUILTIN_MANIFESTS.get(product)
    if manifest is None:
        raise DatasetNotFoundError(f"unknown builtin product {product!r}")
    median, sigma = _SYNTH_SHAPES[product]
    index = sorted(BUILTIN_MANIFESTS).index(product)
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    assert manifest.stated_minimum is not None
    min_cents = manifest.stated_minimum
    total = manifest.total()
    offsets = np.maximum(
        rng.lognormal(mean=np.log(median), sigma=sigma, size=total - 1), 0.5
    )
    other_cents = min_cents + np.round(offsets * 100.0).astype(np.int64)
    entries: list[PriceEntry] = []
    cursor = 0
    for source_pos, (source, count) in enumerate(manifest.per_source_counts.items()):
        take = count
        if source_pos == 0:
            entries.append(PriceEntry(source, min_cents))
            take -= 1
        for cents in other_cents[cursor : cursor + take]:
            entries.append(PriceEntry(source, int(cents)))
        cursor += take
    return PriceList(product, tuple(entries))
