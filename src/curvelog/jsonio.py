"""Canonical JSON helpers shared by all serializers and readers.

Every artifact the package writes is serialized with sorted keys and
fixed separators so that equal objects produce byte-identical files,
and never holds ``NaN`` or ``Infinity``, which are not JSON.
"""
from __future__ import annotations

import json
from fractions import Fraction


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def json_list(data: dict | list, key: str | int) -> list:
    """``data[key]`` (a key of an object, or an index of a list), which
    must be a JSON list: any other value (an object, say, which would
    read as its keys, or as no items when empty) raises ``ValueError``."""
    value = data[key]
    if not isinstance(value, list):
        where = f"entry {key}" if isinstance(key, int) else repr(key)
        raise ValueError(f"{where} must be a JSON list")
    return value


def frac_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def write_output(obj, out: str | None, fmt: str = "json") -> str:
    """Render ``obj`` (canonical JSON or indented text) and optionally
    write it to ``out``; returns the rendered string."""
    if fmt == "json":
        text = canonical_dumps(obj)
    else:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    return text
