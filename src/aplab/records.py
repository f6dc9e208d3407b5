"""Deterministic run records and the append-only ledger.

Records have one serialization: single-line JSON with floats at 17
significant digits, so identical runs produce byte-identical lines and
every float round-trips exactly.  Exact rationals are carried as
"num/den" strings.  The ledger is one record per line, append-only, at
a configurable path.
"""
from __future__ import annotations

import json
from fractions import Fraction

VERSION = "0.1.0"


def format_float(x: float) -> str:
    return "%.17g" % x


def _emit(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, Fraction):
        return json.dumps(f"{value.numerator}/{value.denominator}")
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=True)
    if value is None:
        return "null"
    if isinstance(value, dict):
        parts = (f"{json.dumps(str(k), ensure_ascii=True)}:{_emit(v)}"
                 for k, v in value.items())
        return "{" + ",".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_record(record: dict) -> str:
    """One-line JSON with stable field order (insertion order)."""
    return _emit(record)


def append_ledger(path: str, record: dict) -> None:
    with open(path, "a", encoding="ascii") as fh:
        fh.write(dumps_record(record) + "\n")

