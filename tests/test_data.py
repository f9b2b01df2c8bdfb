"""Price-list parsing, bundled datasets, and synthesis."""

import pickle

import numpy as np
import pytest

from pricedisclosure.data import (
    BUILTIN_MANIFESTS,
    MAX_CENTS,
    PriceEntry,
    PriceList,
    builtin_dataset,
    format_cents,
    load_prices,
    parse_price,
    synthesize,
    write_prices,
)
from pricedisclosure.errors import (
    DatasetNotFoundError,
    ParseError,
    ValidationError,
)


def test_parse_price_valid():
    assert parse_price("297.00") == 29700
    assert parse_price("24.99") == 2499
    assert parse_price("5") == 500
    assert parse_price("0.01") == 1


@pytest.mark.parametrize("bad", ["1.999", "abc", ""])
def test_parse_price_malformed(bad):
    with pytest.raises(ParseError):
        parse_price(bad)


@pytest.mark.parametrize("bad", ["0", "-1.50"])
def test_parse_price_nonpositive(bad):
    with pytest.raises(ValidationError):
        parse_price(bad)


# What the loader accepts beyond the form write_prices writes, and what it
# rejects; docs/formats.md lists both sets under "Price dataset CSV".
ACCEPTED = [
    ("5", 500), ("5.5", 550), ("+5.00", 500), (" 5.00 ", 500), ("1e2", 10000),
    ("1_000.00", 100000), ("\u0663.00", 300), ("0.01", 1), ("92233720368547758.07", MAX_CENTS),
]
REJECTED = [
    ("NaN", ParseError, "unparseable price 'NaN'"),
    ("Infinity", ParseError, "unparseable price 'Infinity'"),
    ("1.999", ParseError, "price '1.999' has more than two decimal places"),
    ("0", ValidationError, "price must be positive, got '0'"),
    ("0.00", ValidationError, "price must be positive, got '0.00'"),
    ("-1.50", ValidationError, "price must be positive, got '-1.50'"),
    ("", ParseError, "unparseable price ''"),
    ("92233720368547758.08", ValidationError,
     "price must be at most 92233720368547758.07, got '92233720368547758.08'"),
    ("99999999999999999.99", ValidationError,
     "price must be at most 92233720368547758.07, got '99999999999999999.99'"),
    ("1e30", ValidationError, "price must be at most 92233720368547758.07, got '1e30'"),
    # Past decimal's default exponent range once scaled to cents.
    ("1e999999", ValidationError, "price must be at most 92233720368547758.07, got '1e999999'"),
    ("-1e999999", ValidationError, "price must be positive, got '-1e999999'"),
]


def _one_row_csv(tmp_path, price):
    path = tmp_path / "one.csv"
    path.write_text(f'product_id,source,price\np,s,"{price}"\n', encoding="utf-8")
    return path


@pytest.mark.parametrize("text,cents", ACCEPTED)
def test_accepted_price_forms(tmp_path, text, cents):
    assert parse_price(text) == cents
    assert load_prices(_one_row_csv(tmp_path, text)) == PriceList("p", (PriceEntry("s", cents),))


@pytest.mark.parametrize("text,error,message", REJECTED)
def test_rejected_price_forms(tmp_path, text, error, message):
    with pytest.raises(error) as info:
        parse_price(text)
    assert type(info.value) is error and str(info.value) == message
    with pytest.raises(error) as info:
        load_prices(_one_row_csv(tmp_path, text))
    assert type(info.value) is error and str(info.value) == f"row 2: {message}"


def test_format_cents_round_trip():
    for cents in (1, 99, 100, 29700, 123456):
        assert parse_price(format_cents(cents)) == cents


def test_price_list_validation():
    with pytest.raises(ValidationError):
        PriceList("x", ())
    with pytest.raises(ValidationError):
        PriceList("x", (PriceEntry("s", 0),))


def test_price_list_accessors():
    entries = (PriceEntry("a", 300), PriceEntry("b", 100), PriceEntry("a", 200))
    prices = PriceList("x", entries)
    assert prices.min_cents == 100
    assert prices.min_index == 1
    assert prices.min_price == 1.0
    assert list(prices.cents_array()) == [300, 100, 200]
    assert prices.per_source_counts() == {"a": 2, "b": 1}
    assert [entries[i].cents for i in prices.ascending_order()] == [100, 200, 300]
    sub = prices.subset([1, 2])
    assert [e.cents for e in sub.entries] == [100, 200]


def test_column_constructor_equals_the_entries_one():
    entries = (PriceEntry("a", 300), PriceEntry("b", 100), PriceEntry("a", 200))
    prices = PriceList("x", entries)
    columns = PriceList.from_columns("x", [300, 100, 200], ["a", "b", "a"])
    assert columns == prices and hash(columns) == hash(prices)
    assert hash(prices) == hash(("x", entries))
    assert columns.entries == entries and columns.sources == ("a", "b", "a")
    assert repr(columns) == (
        "PriceList(product_id='x', entries=(PriceEntry(source='a', cents=300), "
        "PriceEntry(source='b', cents=100), PriceEntry(source='a', cents=200)))"
    )
    assert columns != PriceList("y", entries)
    assert columns != PriceList("x", entries[::-1])
    assert columns != PriceList("x", (PriceEntry("c", 300),) + entries[1:])
    for again in (pickle.loads(pickle.dumps(columns)), prices.subset([0, 1, 2])):
        assert again == prices and again.entries == entries


def test_cents_column_is_read_only_and_the_list_immutable():
    source = np.array([300, 100], dtype=np.int64)
    prices = PriceList.from_columns("x", source, ["a", "b"])
    source[0] = 1
    assert prices.cents_array().tolist() == [300, 100]
    with pytest.raises(ValueError):
        prices.cents_array()[0] = 5
    with pytest.raises(AttributeError):
        prices.product_id = "y"
    with pytest.raises(AttributeError):
        prices.sources = ()


def test_column_constructor_validation():
    with pytest.raises(ValidationError, match="must not be empty"):
        PriceList.from_columns("x", [], [])
    with pytest.raises(ValidationError, match="one source per price"):
        PriceList.from_columns("x", [100, 200], ["a"])
    with pytest.raises(ValidationError, match=r"positive, got 0.00 from 'b'"):
        PriceList.from_columns("x", [100, 0, -5], ["a", "b", "c"])


def test_ascending_order_is_stable_for_ties():
    entries = (PriceEntry("a", 100), PriceEntry("b", 100), PriceEntry("c", 50))
    assert list(PriceList("x", entries).ascending_order()) == [2, 0, 1]


def test_load_write_round_trip(tmp_path):
    original = builtin_dataset("mouse")
    path = tmp_path / "mouse.csv"
    write_prices(original, path)
    again = load_prices(path)
    assert again == original


def test_load_accepts_a_utf8_byte_order_mark(tmp_path):
    # Spreadsheets save "CSV UTF-8" with the bytes EF BB BF first.
    plain = tmp_path / "plain.csv"
    write_prices(builtin_dataset("mouse"), plain)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_prices(marked) == load_prices(plain)


def test_load_errors(tmp_path):
    with pytest.raises(DatasetNotFoundError):
        load_prices(tmp_path / "missing.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text('"product_id","source","price"\n')
    with pytest.raises(ValidationError, match="empty"):
        load_prices(empty)
    mixed = tmp_path / "mixed.csv"
    mixed.write_text(
        '"product_id","source","price"\n"a","s","1.00"\n"b","s","2.00"\n'
    )
    with pytest.raises(ParseError):
        load_prices(mixed)
    bad_row = tmp_path / "bad.csv"
    bad_row.write_text('"product_id","source","price"\n"a","s","oops"\n')
    with pytest.raises(ParseError, match="row 2"):
        load_prices(bad_row)


def test_builtin_datasets_match_manifests():
    for name, manifest in BUILTIN_MANIFESTS.items():
        prices = builtin_dataset(name)
        assert prices.product_id == manifest.product_id
        assert prices.per_source_counts() == manifest.per_source_counts
        assert prices.min_cents == manifest.stated_minimum


def test_builtin_unknown_name():
    with pytest.raises(DatasetNotFoundError):
        builtin_dataset("toaster")


def test_builtin_env_override(tmp_path, monkeypatch):
    # Override files must still satisfy the product manifest, so perturb
    # one non-minimum price and keep counts and the minimum intact.
    bundled = builtin_dataset("printer")
    entries = list(bundled.entries)
    victim = max(range(len(entries)), key=lambda i: entries[i].cents)
    entries[victim] = PriceEntry(entries[victim].source, entries[victim].cents + 1)
    custom = PriceList("printer", tuple(entries))
    write_prices(custom, tmp_path / "printer.csv")
    monkeypatch.setenv("DISCLOSE_DATA_DIR", str(tmp_path))
    assert builtin_dataset("printer") == custom
    assert builtin_dataset("printer") != bundled


def test_builtin_env_override_rejects_manifest_mismatch(tmp_path, monkeypatch):
    custom = PriceList("printer", (PriceEntry("s", 29700), PriceEntry("s", 29800)))
    write_prices(custom, tmp_path / "printer.csv")
    monkeypatch.setenv("DISCLOSE_DATA_DIR", str(tmp_path))
    with pytest.raises(ValidationError):
        builtin_dataset("printer")


def test_synthesize_is_deterministic_and_matches_bundle():
    for name in BUILTIN_MANIFESTS:
        assert synthesize(name).entries == builtin_dataset(name).entries
        assert synthesize(name) == synthesize(name)


def test_synthesized_minimum_placement():
    prices = synthesize("printer")
    assert prices.entries[0].cents == prices.min_cents
    assert np.sum(prices.cents_array() == prices.min_cents) == 1
