"""The format rules every CSV and JSON output shares.

Each result type builds its own rows and JSON object (``csv_rows`` and
``to_json_obj``) from the helpers here, and :func:`dump` writes either.
All numbers are written with full round-trip precision (``repr`` of the
Python float), complex values are split into real and imaginary columns in
CSV and into ``{"re": ..., "im": ...}`` objects in JSON, and row order
is deterministic, so identical inputs produce bit-identical artifacts.

Arrays are converted whole (:func:`jlist`, one ``tolist`` each), and JSON
text comes from the indent-2 writer below, whose output equals
``json.dumps(payload, indent=2)`` byte for byte: the stdlib's C encoder
does not run when an indent is asked for, and its pure-Python one formats
one element at a time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from typing import IO, Any

import numpy as np


def jnum(x: Any) -> Any:
    """JSON-safe scalar (complex becomes {re, im}; inf becomes a string)."""
    if isinstance(x, float):
        v = float(x)
    elif isinstance(x, (complex, np.complexfloating)):
        return {"re": jnum(float(x.real)), "im": jnum(float(x.imag))}
    elif isinstance(x, (bool, np.bool_)):
        return bool(x)
    elif isinstance(x, (int, np.integer)):
        return int(x)
    elif isinstance(x, np.floating):
        v = float(x)
    else:
        return x
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if math.isnan(v):
        return "nan"
    return v


def jlist(a) -> list:
    """:func:`jnum` of every element of an array, nested as its rows.

    One ``tolist`` per array: a complex array is read as its interleaved
    real and imaginary parts, and only non-finite values are mapped one
    by one.  Boolean and integer arrays come back as Python bools and
    ints, any other array as floats.
    """
    a = np.asarray(a)
    kind = a.dtype.kind
    if kind in "biu" or a.size == 0:
        return a.tolist()
    if kind == "c":
        flat = _finite_floats(np.ascontiguousarray(a, dtype=complex).view(float).ravel())
        parts = iter(flat)
        flat = [{"re": r, "im": i} for r, i in zip(parts, parts)]
    else:
        flat = _finite_floats(a.astype(float, copy=False).ravel())
    for n in reversed(a.shape[1:]):
        flat = [flat[i:i + n] for i in range(0, len(flat), n)]
    return flat


def _finite_floats(a: np.ndarray) -> list:
    values = a.tolist()
    for i in np.flatnonzero(~np.isfinite(a)).tolist():
        values[i] = jnum(values[i])
    return values


def columns_to_rows(*columns) -> list[list]:
    """CSV rows of equal-length columns, each read with one ``tolist``."""
    return [list(row) for row in zip(*(np.asarray(c).tolist() for c in columns))]


def params_json(params) -> dict:
    return {k: jnum(v) for k, v in asdict(params).items()}


def write_csv(stream: IO[str], header: list[str], rows: list[list]) -> None:
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)


# ------------------------------------------------------------ JSON text

def _key(k) -> str:
    if not isinstance(k, str):
        raise TypeError(f"keys must be str, not {type(k).__name__}")
    return encode_basestring_ascii(k)


def _scalar(o) -> str | None:
    """JSON text of a scalar, as ``json`` writes it; None for a container."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o in (math.inf, -math.inf):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    if isinstance(o, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


_BOOLS = {True: "true", False: "false"}


def _float_texts(values) -> list[str] | None:
    """``float.__repr__`` of every value when all are finite floats, else None."""
    try:
        texts = list(map(float.__repr__, values))
    except TypeError:
        return None
    # a finite float's repr has no "n": only "nan" and "inf" do
    return None if "n" in "".join(texts) else texts


def _text(o, level: int) -> str:
    """JSON text of ``o`` whose first line sits at nesting ``level``."""
    s = _scalar(o)
    if s is not None:
        return s
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    inner = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level
    if isinstance(o, dict):
        items = [_key(k) + ": " + _text(v, level + 1) for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + close + "}"
    return "[" + inner + ("," + inner).join(_items(o, level + 1)) + close + "]"


def _items(values, level: int) -> list[str]:
    """The JSON texts of a non-empty list's items at nesting ``level``.

    A list of finite floats is one ``map``, and so is a list of bools; a
    list of dicts with the same keys in the same order and scalar values
    is rendered a column at a time into one ``%`` template.
    """
    first = values[0]
    if isinstance(first, float):
        texts = _float_texts(values)
        if texts is not None:
            return texts
    elif first is True or first is False:
        if set(map(type, values)) == {bool}:
            return list(map(_BOOLS.__getitem__, values))
    elif type(first) is dict and first and set(map(type, values)) == {dict}:
        keys = list(first)
        if all(map(keys.__eq__, map(list, values))):
            columns = []
            for column in zip(*map(dict.values, values)):
                texts = _float_texts(column) or list(map(_scalar, column))
                if None in texts:
                    break
                columns.append(texts)
            else:
                inner = "\n" + "  " * (level + 1)
                template = "{" + inner + ("," + inner).join(
                    _key(k).replace("%", "%%") + ": %s" for k in keys) + "\n" + "  " * level + "}"
                return list(map(template.__mod__, zip(*columns)))
    return [_text(v, level) for v in values]


def _write_json(payload, stream: IO[str]) -> None:
    """``json.dump(payload, stream, indent=2)`` and a newline, written one
    top-level value at a time."""
    if not (isinstance(payload, dict) and payload):
        stream.write(_text(payload, 0) + "\n")
        return
    sep = "{\n  "
    for k, v in payload.items():
        stream.write(sep + _key(k) + ": " + _text(v, 1))
        sep = ",\n  "
    stream.write("\n}\n")


def dump(obj, stream: IO[str], fmt_name: str) -> None:
    """Write a result as CSV or JSON.

    ``obj`` is either a result object, which supplies its own
    ``csv_rows() -> (header, rows)`` and ``to_json_obj() -> dict``, or a
    plain dict.  A dict is written as JSON with :func:`jnum` applied to
    its top-level values, and as a one-row CSV with its keys as the
    header, which only makes sense when those values are scalars.
    """
    if fmt_name == "json":
        if isinstance(obj, dict):
            payload = {k: jnum(v) for k, v in obj.items()}
        else:
            payload = obj.to_json_obj()
        _write_json(payload, stream)
    elif fmt_name == "csv":
        if isinstance(obj, dict):
            header = list(obj.keys())
            rows = [[obj[k] for k in header]]
        else:
            header, rows = obj.csv_rows()
        write_csv(stream, header, rows)
    else:
        raise ValueError(f"unknown format {fmt_name!r}")
