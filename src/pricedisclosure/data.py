"""Price datasets: validated seller price lists, CSV I/O, bundled fixtures.

Prices are held as integer cents internally; the CSV surface is a
two-decimal, dot-separated currency column. Bundled datasets are synthetic
(real listings were never published); their per-source listing counts match
the five comparison-shopping sites each product was mined from, and they are
frozen in the repo after a one-time seeded generation (see ``synthesize``).
"""

from __future__ import annotations

import csv
import itertools
import os
import re
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, Overflow
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


# The largest price a cents column can hold: int64's maximum.
MAX_CENTS = int(np.iinfo(np.int64).max)


def parse_price(text: str) -> int:
    """Parse a two-decimal currency string into positive integer cents."""
    try:
        value = Decimal(text.strip())
    except InvalidOperation:
        raise ParseError(f"unparseable price {text!r}") from None
    if not value.is_finite():
        raise ParseError(f"unparseable price {text!r}")
    try:
        cents = value.scaleb(2)
    except Overflow:
        # Too large for decimal to scale: no cents can hold it, whatever
        # its decimals, so only its sign is checked below.
        cents = value.to_integral_value()
    # A nonzero value too small for decimal to scale rounds to 0 cents.
    if cents != cents.to_integral_value() or (value and not cents):
        raise ParseError(f"price {text!r} has more than two decimal places")
    if value <= 0:
        raise ValidationError(f"price must be positive, got {text!r}")
    if cents > MAX_CENTS:
        raise ValidationError(f"price must be at most {format_cents(MAX_CENTS)}, got {text!r}")
    return int(cents)


@dataclass(frozen=True)
class PriceEntry:
    source: str
    cents: int

    @property
    def price(self) -> float:
        return self.cents / 100.0


class PriceList:
    """A product's seller prices, immutable once constructed.

    The state is three columns: ``product_id``, a read-only int64 array of
    cents and a tuple of sources, one per price. ``PriceList(product_id,
    entries)`` builds it from ``PriceEntry`` objects and ``from_columns``
    from the columns; ``entries`` rebuilds the objects on first use.
    """

    __slots__ = ("product_id", "sources", "_cents", "_entries")

    def __init__(self, product_id: str, entries):
        entries = tuple(entries)
        cents = np.array([e.cents for e in entries], dtype=np.int64)
        self._set(product_id, cents, tuple(e.source for e in entries))

    @classmethod
    def from_columns(cls, product_id: str, cents, sources) -> PriceList:
        """The list of ``cents[i]`` from ``sources[i]``; holds a copy of ``cents``."""
        prices = cls.__new__(cls)
        prices._set(product_id, np.array(cents, dtype=np.int64), tuple(sources))
        return prices

    def _set(self, product_id: str, cents: np.ndarray, sources: tuple[str, ...]) -> None:
        if cents.ndim != 1 or len(sources) != cents.size:
            raise ValidationError(
                f"price list needs one source per price, got {len(sources)} for {cents.size}"
            )
        if not cents.size:
            raise ValidationError("price list must not be empty")
        if cents.min() <= 0:
            first = int(np.argmax(cents <= 0))
            raise ValidationError(
                f"price must be positive, got {format_cents(int(cents[first]))} "
                f"from {sources[first]!r}"
            )
        cents.flags.writeable = False
        object.__setattr__(self, "product_id", product_id)
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "_cents", cents)
        object.__setattr__(self, "_entries", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"PriceList is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PriceList is immutable; cannot delete {name!r}")

    @property
    def entries(self) -> tuple[PriceEntry, ...]:
        if self._entries is None:
            entries = tuple(map(PriceEntry, self.sources, self._cents.tolist()))
            object.__setattr__(self, "_entries", entries)
        return self._entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.product_id == other.product_id and self.sources == other.sources
                and np.array_equal(self._cents, other._cents))

    def __hash__(self) -> int:
        # A PriceEntry hashes as its (source, cents) tuple, so this is the
        # hash of (product_id, entries) without building the entries.
        return hash((self.product_id, tuple(zip(self.sources, self._cents.tolist()))))

    def __reduce__(self):
        return PriceList.from_columns, (self.product_id, self._cents, self.sources)

    def __repr__(self) -> str:
        return f"PriceList(product_id={self.product_id!r}, entries={self.entries!r})"

    def __len__(self) -> int:
        return self._cents.size

    def cents_array(self) -> np.ndarray:
        """The cents column, read-only."""
        return self._cents

    def values(self) -> np.ndarray:
        """Prices in currency units as float64."""
        return self._cents / 100.0

    @property
    def min_cents(self) -> int:
        return int(self._cents.min())

    @property
    def min_price(self) -> float:
        return self.min_cents / 100.0

    @property
    def min_index(self) -> int:
        """Index of the designated minimum: lowest index among ties."""
        return int(np.argmin(self._cents))

    def per_source_counts(self) -> dict[str, int]:
        return dict(Counter(self.sources))

    def subset(self, indices) -> PriceList:
        indices = np.asarray(indices, dtype=np.intp)
        return PriceList.from_columns(
            self.product_id, self._cents[indices], [self.sources[i] for i in indices.tolist()]
        )

    def ascending_order(self) -> np.ndarray:
        """Indices that sort prices ascending; stable for tied prices."""
        return np.argsort(self._cents, kind="stable")


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


# The price form write_prices writes. An integer part of at most 16 digits
# keeps the cents below MAX_CENTS; a longer one is checked row by row.
_PRICE = "[0-9]{1,16}\\.[0-9]{2}"
_STRICT_PRICE = re.compile(_PRICE)
_STRICT_PRICES = re.compile(f"{_PRICE}(?:\n{_PRICE})*")


# A byte that is not UTF-8, as the surrogateescape error handler reads it.
_UNDECODED = re.compile("[\udc80-\udcff]")

# Rows held at once while loading: bounds the loader's memory, not its work.
_CHUNK_ROWS = 1024


def load_prices(path: str | Path) -> PriceList:
    """Load a single-product CSV of ``product_id,source,price`` rows."""
    path = Path(path)
    if not path.exists():
        raise DatasetNotFoundError(f"no such file: {path}")
    product, cents, sources = None, [], []
    # utf-8-sig drops the byte-order mark that spreadsheet "CSV UTF-8"
    # exports put first.
    with path.open("r", encoding="utf-8-sig", errors="surrogateescape", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is not None and [c.strip() for c in header] != list(CSV_HEADER):
            _check_text(1, header)
            raise ParseError(f"row 1: expected header {','.join(CSV_HEADER)!r}")
        line_no = 2
        while True:
            rows: list[list[str]] = []
            try:
                rows.extend(itertools.islice(reader, _CHUNK_ROWS))
            except csv.Error as exc:
                # A bad row read before the failure is reported first.
                _columns(rows, line_no, product)
                raise ParseError(f"row {line_no + len(rows)}: {exc}") from None
            if not rows:
                break
            product, chunk_cents, chunk_sources = _columns(rows, line_no, product)
            cents.append(chunk_cents)
            sources += chunk_sources
            line_no += len(rows)
    if product is None:
        raise ValidationError("empty dataset")
    return PriceList.from_columns(product, np.concatenate(cents), sources)


def _columns(rows: list[list[str]], line_no: int, product: str | None):
    """``(product, cents, sources)`` of the CSV ``rows`` that start at row
    ``line_no``, skipping blank rows; ``product`` is None until a row with
    data is seen. Raises the error of the first bad row.

    The rows are checked as whole columns. A row that any column check
    flags goes through ``_checked_row``, in file order, which skips it if
    blank, raises its error if invalid, or gives its cents.
    """
    if product is None:
        # The product is the first non-blank row's; rows before it are blank.
        first = next((i for i, row in enumerate(rows) if "".join(row).strip()), None)
        if first is None:
            return None, np.zeros(0, dtype=np.int64), []
    widths = list(map(len, rows))
    flagged = []
    body = rows
    # A row of the wrong width is flagged and its fields read as empty.
    if widths.count(3) != len(rows):
        flagged += [i for i, width in enumerate(widths) if width != 3]
        body = [row if len(row) == 3 else ("", "", "") for row in rows]
    pids, sources, texts = (list(map(str.strip, column)) for column in zip(*body))
    if product is None:
        # Empty when the first row lacks a product; that row fails.
        product = pids[first]
    if "" in pids or pids.count(product) != len(pids):
        flagged += [i for i, pid in enumerate(pids) if not pid or pid != product]
    if "" in sources:
        flagged += [i for i, source in enumerate(sources) if not source]
    if not (product.isascii() and "".join(sources).isascii()):
        flagged += [i for i, row in enumerate(body) if _UNDECODED.search("".join(row))]
    cents = _strict_cents(texts)
    flagged += np.flatnonzero(cents == 0).tolist()
    keep = np.ones(len(rows), dtype=bool)
    for i in sorted(set(flagged)):
        checked = _checked_row(line_no + i, rows[i], product)
        if checked is None:
            keep[i] = False
        else:
            cents[i] = checked
    if not keep.all():
        cents = cents[keep]
        sources = [source for source, kept in zip(sources, keep.tolist()) if kept]
    return product, cents, sources


def _strict_cents(texts: list[str]) -> np.ndarray:
    """Cents of each price in the strict form, 0 for any other text."""
    joined = "\n".join(texts)
    # A field holding a newline cannot be strict; the count rules one out.
    if not (_STRICT_PRICES.fullmatch(joined) and joined.count("\n") == len(texts) - 1):
        joined = "\n".join(t if _STRICT_PRICE.fullmatch(t) else "0.00" for t in texts)
    return np.fromstring(joined.replace(".", ""), dtype=np.int64, sep="\n")


def _check_text(line_no: int, row: list[str]) -> None:
    """Raise if ``row`` holds a byte that is not UTF-8, naming the first."""
    undecoded = _UNDECODED.search("".join(row))
    if undecoded:
        raise ParseError(f"row {line_no}: byte {ord(undecoded[0]) - 0xDC00:#04x} is not UTF-8")


def _checked_row(line_no: int, row: list[str], product_id: str) -> int | None:
    """One row's checks, in order: None if blank, else its cents; raises
    the error of the first check it fails, naming ``row line_no``."""
    if not "".join(row).strip():
        return None
    _check_text(line_no, row)
    if len(row) != 3:
        raise ParseError(f"row {line_no}: expected 3 columns, got {len(row)}")
    pid, source, price_text = (c.strip() for c in row)
    if not pid or not source:
        raise ParseError(f"row {line_no}: empty product_id or source")
    if pid != product_id:
        raise ParseError(f"row {line_no}: mixed products {product_id!r} and {pid!r}")
    try:
        return parse_price(price_text)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"row {line_no}: {exc}") from None


def write_prices(prices: PriceList, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for source, cents in zip(prices.sources, prices.cents_array().tolist()):
            writer.writerow([prices.product_id, source, format_cents(cents)])


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
