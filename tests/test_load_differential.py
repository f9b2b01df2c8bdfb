"""The column loader against a row-by-row reference, on a seeded corpus.

``reference_load`` is the loader as a loop over rows: each row is checked
in turn and its price parsed with ``Decimal``. ``load_prices`` checks the
rows as whole columns and sends only flagged rows through the same
checks. On every file of the corpus both must return an equal
``PriceList`` or raise the same error type and message. The planned
differences are files that ``load_prices`` rejects at a row, as
``PLANNED`` states, where the reference fails otherwise: a price too large
for int64 cents or a field past the csv module's limit, on which the
reference crashes; a byte that is not UTF-8, on which it crashes at the
decode, wherever that falls; and a price so small that decimal scales it
to 0 cents, which the reference loads as 0 and rejects with no row.
"""

import csv
import pickle
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np

from pricedisclosure.data import CSV_HEADER, PriceList, load_prices
from pricedisclosure.errors import DatasetNotFoundError, ParseError, ValidationError


def reference_parse_price(text: str) -> int:
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


def reference_load(path) -> PriceList:
    path = Path(path)
    if not path.exists():
        raise DatasetNotFoundError(f"no such file: {path}")
    cents_column: list[int] = []
    sources: list[str] = []
    product_id: str | None = None
    with path.open("r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        for line_no, row in enumerate(reader, start=1):
            if line_no == 1:
                if [c.strip() for c in row] != list(CSV_HEADER):
                    raise ParseError(f"row 1: expected header {','.join(CSV_HEADER)!r}")
                continue
            if not "".join(row).strip():
                continue
            if len(row) != 3:
                raise ParseError(f"row {line_no}: expected 3 columns, got {len(row)}")
            pid, source, price_text = row
            pid, source, price_text = pid.strip(), source.strip(), price_text.strip()
            if not pid or not source:
                raise ParseError(f"row {line_no}: empty product_id or source")
            if product_id is None:
                product_id = pid
            elif pid != product_id:
                raise ParseError(f"row {line_no}: mixed products {product_id!r} and {pid!r}")
            try:
                cents = reference_parse_price(price_text)
            except (ParseError, ValidationError) as exc:
                raise type(exc)(f"row {line_no}: {exc}") from None
            cents_column.append(cents)
            sources.append(source)
    if not cents_column:
        raise ValidationError("empty dataset")
    assert product_id is not None
    return PriceList(product_id, cents_column, sources)


# Prices that parse but are not in the strict form write_prices writes.
LOOSE_VALID = ("5", "5.5", "+5.00", "1e2", "1_000.00", "٣.00", "007.10", "12345678901234567.00",
               "92233720368547758.07")
REJECTED_PRICES = ("NaN", "Infinity", "1.999", "0", "0.00", "-1.50", "", "abc", "1.2.3")
OVERFLOWING = ("99999999999999999.99", "1e30", "92233720368547758.08", "1e999999")
UNDERFLOWING = ("1e-1000100",)

# Each planned difference: the error load_prices raises, a part of its
# message after "row N: ", and the reference's error type.
PLANNED = {
    "overflow": (ValidationError, "must be at most 92233720368547758.07", ArithmeticError),
    "underflow": (ParseError, "has more than two decimal places", ValidationError),
    "not UTF-8": (ParseError, "is not UTF-8", UnicodeDecodeError),
    "field limit": (ParseError, "field larger than field limit (131072)", csv.Error),
}
SOURCES = ("PriceGrabber", "Nextag", "Bizrate", "Amazon", "Shopper")


def _row(rng, product: str) -> list[str]:
    cents = int(rng.integers(1, 10**7)) if rng.random() < 0.9 else int(rng.integers(1, 10**18))
    price = f"{cents // 100}.{cents % 100:02d}"
    if rng.random() < 0.03:
        price = str(rng.choice(LOOSE_VALID))
    return [product, str(rng.choice(SOURCES)), price]


def _blank(rng) -> list[str] | str:
    return str(rng.choice(["", "   ", ",,", " , , ", ",,,", '"",""', "\t"]))


def _encode_field(rng, field: str) -> str:
    if rng.random() < 0.3 or any(c in field for c in ',"\n'):
        padded = field if rng.random() < 0.5 else f" {field} "
        return '"' + padded.replace('"', '""') + '"'
    return field if rng.random() < 0.8 else f"  {field}\t"


def _render(rng, rows, *, crlf: bool, bom: bool) -> bytes:
    newline = "\r\n" if crlf else "\n"
    lines = []
    for row in rows:
        lines.append(row if isinstance(row, str) else ",".join(_encode_field(rng, f) for f in row))
    text = newline.join(lines) + (newline if rng.random() < 0.8 else "")
    return (b"\xef\xbb\xbf" if bom else b"") + text.encode("utf-8")


def _valid_rows(rng, size: int) -> list:
    product = str(rng.choice(["printer", "hp-laserjet-1012", "mouse 2", 'say "hi"', "a,b"]))
    rows: list = [list(CSV_HEADER)]
    while len([r for r in rows if not isinstance(r, str)]) <= size:
        if rng.random() < 0.05:
            rows.append(_blank(rng))
        else:
            rows.append(_row(rng, product))
    return rows


def _inject(rng, rows: list, kind: str, value: str | None = None) -> list:
    rows = [r if isinstance(r, str) else list(r) for r in rows]
    data = [i for i, r in enumerate(rows) if i and not isinstance(r, str)]
    at = int(rng.choice(data))
    row = rows[at]
    if kind == "two columns":
        rows[at] = row[:2]
    elif kind == "four columns":
        rows[at] = row + ["extra"]
    elif kind == "empty product_id":
        row[0] = " "
    elif kind == "empty source":
        row[1] = ""
    elif kind == "second product":
        row[0] = row[0] + "-other"
    elif kind == "price":
        row[2] = value
    return rows


BAD_KINDS = ("two columns", "four columns", "empty product_id", "empty source", "second product")


def corpus(seed: int = 30):
    """(name, bytes, planned) for each file; ``planned`` names its planned
    difference, if any, in ``PLANNED``."""
    rng = np.random.default_rng(seed)
    sizes = [1, 2, 3, 5000] + [int(s) for s in np.unique(np.geomspace(4, 4999, 16).astype(int))]
    for size in sizes:
        rows = _valid_rows(rng, size)
        style = {"crlf": bool(rng.random() < 0.4), "bom": bool(rng.random() < 0.3)}
        yield f"valid-{size}", _render(rng, rows, **style), None
        bad = [(kind, None) for kind in BAD_KINDS] + [("price", p) for p in REJECTED_PRICES]
        for kind, value in bad:
            yield f"{kind} {value!r} in {size}", _render(rng, _inject(rng, rows, kind, value), **style), None
        for value in OVERFLOWING:
            yield f"overflow {value!r} in {size}", _render(rng, _inject(rng, rows, "price", value), **style), "overflow"
        for value in UNDERFLOWING:
            yield f"underflow {value!r} in {size}", _render(rng, _inject(rng, rows, "price", value), **style), "underflow"
        # Two faults: the one in the earlier row wins.
        if size > 2:
            kinds = rng.choice(len(bad), size=2, replace=False)
            twice = rows
            for k in kinds:
                twice = _inject(rng, twice, *bad[k])
            yield f"two faults in {size}", _render(rng, twice, **style), None
    header = ",".join(CSV_HEADER) + "\n"
    yield "empty file", b"", None
    yield "header only", header.encode(), None
    yield "blank rows only", (header + "\n  \n,,\n").encode(), None
    yield "bad header", b"product,source,price\np,s,1.00\n", None
    yield "blank header", b"\nproduct_id,source,price\np,s,1.00\n", None
    yield "blank before the first row", (header + "\n,,\np,s,1.00\nq,s,2.00\n").encode(), None
    yield "first row short", (header + "p,s\np,s,1.00\n").encode(), None
    yield "first row without a product", (header + ",s,1.00\n,s,2.00\n").encode(), None
    yield "newline inside a price", (header + 'p,s,"1.00\n2.00"\np,s,3.00\n').encode(), None
    good = "".join(f"p,s,{i + 1}.00\n" for i in range(3000))
    # The loader holds 1024 rows at once: faults and the first data row
    # on either side of a boundary.
    blanks = "\n" * 1100 + " ,\n" * 1000
    yield "blank rows past a chunk", (header + blanks + "p,s,1.00\n" + good).encode(), None
    yield "product set in a blank chunk", (header + blanks + "p,s,1.00\nq,s,1.00\n").encode(), None
    for at in (1022, 1023, 1024, 2047, 2048):
        lines = good.splitlines(keepends=True)
        for fault in ("p,s,1.999\n", "q,s,1.00\n", "p,s\n", "p,s,7\n", "\n"):
            faulty = "".join(lines[:at]) + fault + "".join(lines[at:])
            yield f"{fault!r} at body row {at}", (header + faulty).encode(), None
    yield "bad row before a bad byte", (header + "p,s,oops\n" + good).encode() + b"\xff\n", None
    # Past the first 8 KiB that are decoded at once, within 1024 rows.
    near = "".join(good.splitlines(keepends=True)[:900])
    yield "bad row before a near bad byte", (header + "p,s,oops\n" + near).encode() + b"\xff\n", None
    yield "bad byte first", b"\xff" + header.encode(), "not UTF-8"
    yield "bad byte after good rows", (header + good).encode() + b"\xff\n", "not UTF-8"
    yield "Latin-1 source", (header + good + "p,caf\xe9,1.00\n" + good).encode("latin-1"), "not UTF-8"
    yield "Latin-1 source before a bad row", (header + "p,caf\xe9,1.00\np,s,0\n").encode("latin-1"), "not UTF-8"
    huge = '"' + "9" * 200_000 + '"'
    yield "bad row before a huge field", (header + "p,s,0\n" + good + f"p,s,{huge}\n").encode(), None
    yield "huge field after good rows", (header + good + f"p,s,{huge}\n" + good).encode(), "field limit"


def _outcome(load, path):
    try:
        return load(path), None
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return None, exc


def test_column_loader_matches_the_row_loop(tmp_path):
    files = 0
    for name, data, planned in corpus():
        path = tmp_path / "prices.csv"
        path.write_bytes(data)
        got, got_error = _outcome(load_prices, path)
        want, want_error = _outcome(reference_load, path)
        files += 1
        if planned:
            error, message, reference = PLANNED[planned]
            assert type(got_error) is error, (name, got_error)
            assert str(got_error).startswith("row ") and message in str(got_error), (name, got_error)
            # The overflowing reference raises OverflowError from the int64
            # column, or decimal.Overflow where scaling to cents leaves
            # decimal's exponent range.
            assert isinstance(want_error, reference), (name, want_error)
            continue
        assert type(got_error) is type(want_error), (name, got_error, want_error)
        assert str(got_error) == str(want_error), name
        if want is None:
            continue
        assert got == want, name
        assert got.sources == want.sources, name
        assert got.cents_array().dtype == np.int64 and np.array_equal(got.cents_array(), want.cents_array()), name
        assert list(got.per_source_counts().items()) == list(want.per_source_counts().items()), name
        assert hash(got) == hash(want), name
        again = pickle.loads(pickle.dumps(got))
        assert again == got and again.sources == got.sources and hash(again) == hash(got), name
        assert np.array_equal(again.cents_array(), got.cents_array()), name
    assert files > 250

