"""Deterministic serialization and the run ledger."""
import json
from fractions import Fraction

import pytest

from aplab.records import append_ledger, dumps_record, format_float


def test_float_formatting_is_shortest_exact():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(0.5) == "0.5"
    assert format_float(1.0 / 3.0) == "0.33333333333333331"
    # 17 significant digits round-trip any double
    for x in (0.1, 2.0 ** -40, 1234.5678, 1e300):
        assert float(format_float(x)) == x


def test_dumps_preserves_insertion_order_and_types():
    rec = {"b": 1, "a": 2, "nested": {"z": True, "y": False},
           "frac": Fraction(22, 7), "none": None,
           "arr": (1, 2, 3), "f": 0.25}
    text = dumps_record(rec)
    assert text.index('"b"') < text.index('"a"')  # no key sorting
    back = json.loads(text)
    assert back["frac"] == "22/7"
    assert back["nested"] == {"z": True, "y": False}
    assert back["arr"] == [1, 2, 3]
    assert back["f"] == 0.25
    assert back["none"] is None


def test_bool_is_not_collapsed_to_int():
    text = dumps_record({"flag": True, "count": 1})
    parsed = json.loads(text)
    assert parsed["flag"] is True
    assert parsed["count"] == 1


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps_record({"bad": object()})


def test_dumps_is_byte_stable():
    rec = {"x": 0.30000000000000004, "y": [1.5, Fraction(1, 3)],
           "s": "quote \" and unicode é"}
    assert dumps_record(rec) == dumps_record(rec)
    assert json.loads(dumps_record(rec))["x"] == 0.30000000000000004


def test_ledger_round_trip(tmp_path):
    path = tmp_path / "runs.ledger"
    recs = [{"command": "a", "n": i} for i in range(3)]
    for r in recs:
        append_ledger(str(path), r)
    got = [json.loads(line) for line in path.read_text(encoding="ascii").splitlines()]
    assert got == recs
    # appending keeps earlier lines untouched
    append_ledger(str(path), {"command": "b"})
    assert len(path.read_text(encoding="ascii").splitlines()) == 4

