"""Price-list parsing, bundled datasets, and synthesis."""

import pickle
from pathlib import Path

import numpy as np
import pytest

from pricedisclosure import data
from pricedisclosure.data import (
    BUILTIN_MANIFESTS,
    MAX_CENTS,
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
    assert load_prices(_one_row_csv(tmp_path, text)) == PriceList("p", [cents], ["s"])


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


def test_price_list_accessors():
    prices = PriceList("x", [300, 100, 200], ["a", "b", "a"])
    assert prices.product_id == "x" and prices.sources == ("a", "b", "a")
    assert len(prices) == 3
    assert prices.min_cents == 100
    assert prices.min_index == 1
    assert prices.min_price == 1.0
    assert list(prices.cents_array()) == [300, 100, 200]
    assert prices.values().tolist() == [3.0, 1.0, 2.0]
    assert prices.per_source_counts() == {"a": 2, "b": 1}
    assert prices.cents_array()[prices.ascending_order()].tolist() == [100, 200, 300]
    sub = prices.subset([1, 2])
    assert sub.cents_array().tolist() == [100, 200] and sub.sources == ("b", "a")


def test_price_lists_compare_hash_pickle_and_print_as_their_columns():
    prices = PriceList("x", [300, 100, 200], ["a", "b", "a"])
    same = PriceList("x", np.array([300, 100, 200]), ("a", "b", "a"))
    assert same == prices and hash(same) == hash(prices)
    assert repr(prices) == "PriceList(product_id='x', cents=[300, 100, 200], sources=('a', 'b', 'a'))"
    assert prices != PriceList("y", [300, 100, 200], ["a", "b", "a"])
    assert prices != PriceList("x", [200, 100, 300], ["a", "b", "a"])
    assert prices != PriceList("x", [300, 100, 200], ["c", "b", "a"])
    for again in (pickle.loads(pickle.dumps(prices)), prices.subset([0, 1, 2])):
        assert again == prices and hash(again) == hash(prices)
        assert again.cents_array().tolist() == [300, 100, 200]
        assert again.sources == ("a", "b", "a")


def test_cents_column_is_read_only_and_the_list_immutable():
    source = np.array([300, 100], dtype=np.int64)
    prices = PriceList("x", source, ["a", "b"])
    source[0] = 1
    assert prices.cents_array().tolist() == [300, 100]
    with pytest.raises(ValueError):
        prices.cents_array()[0] = 5
    with pytest.raises(AttributeError):
        prices.product_id = "y"
    with pytest.raises(AttributeError):
        prices.sources = ()


def test_price_list_validation():
    with pytest.raises(ValidationError, match="must not be empty"):
        PriceList("x", (), ())
    with pytest.raises(ValidationError, match=r"positive, got 0.00 from 's'"):
        PriceList("x", [0], ["s"])


def test_column_constructor_validation():
    with pytest.raises(ValidationError, match="must not be empty"):
        PriceList("x", [], [])
    with pytest.raises(ValidationError, match="one source per price"):
        PriceList("x", [100, 200], ["a"])
    with pytest.raises(ValidationError, match=r"positive, got 0.00 from 'b'"):
        PriceList("x", [100, 0, -5], ["a", "b", "c"])


def test_ascending_order_is_stable_for_ties():
    prices = PriceList("x", [100, 100, 50], ["a", "b", "c"])
    assert list(prices.ascending_order()) == [2, 0, 1]


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
    cents = bundled.cents_array().copy()
    cents[np.argmax(cents)] += 1
    custom = PriceList("printer", cents, bundled.sources)
    write_prices(custom, tmp_path / "printer.csv")
    monkeypatch.setenv("DISCLOSE_DATA_DIR", str(tmp_path))
    assert builtin_dataset("printer") == custom
    assert builtin_dataset("printer") != bundled


def test_builtin_env_override_rejects_manifest_mismatch(tmp_path, monkeypatch):
    custom = PriceList("printer", [29700, 29800], ["s", "s"])
    write_prices(custom, tmp_path / "printer.csv")
    monkeypatch.setenv("DISCLOSE_DATA_DIR", str(tmp_path))
    with pytest.raises(ValidationError):
        builtin_dataset("printer")


def test_synthesize_is_deterministic_and_matches_bundle():
    for name in BUILTIN_MANIFESTS:
        assert synthesize(name) == builtin_dataset(name)
        assert synthesize(name) == synthesize(name)


def test_synthesized_datasets_write_the_bundled_bytes(tmp_path):
    datasets = Path(data.__file__).parent / "datasets"
    for name in BUILTIN_MANIFESTS:
        written = tmp_path / f"{name}.csv"
        write_prices(synthesize(name), written)
        assert written.read_bytes() == (datasets / f"{name}.csv").read_bytes(), name


def test_synthesized_minimum_placement():
    prices = synthesize("printer")
    assert prices.cents_array()[0] == prices.min_cents
    assert prices.sources[0] == next(iter(BUILTIN_MANIFESTS["printer"].per_source_counts))
    assert np.sum(prices.cents_array() == prices.min_cents) == 1
