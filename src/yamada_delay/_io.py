"""The format rules every CSV and JSON output shares.

Each result type builds its own rows and JSON object (``csv_rows`` and
``to_json_obj``) from the helpers here, and :func:`dump` writes either.
All numbers are written with full round-trip precision (``repr`` of the
Python float), complex values are split into real and imaginary columns in
CSV and into ``{"re": ..., "im": ...}`` objects in JSON, and row order
is deterministic, so identical inputs produce bit-identical artifacts.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from typing import IO, Any

import numpy as np


def fmt(x: Any) -> Any:
    """Full-precision CSV cell for one scalar."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def jnum(x: Any) -> Any:
    """JSON-safe scalar (complex becomes {re, im}; inf becomes a string)."""
    if isinstance(x, (complex, np.complexfloating)):
        return {"re": jnum(float(x.real)), "im": jnum(float(x.imag))}
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        if np.isnan(v):
            return "nan"
        return v
    return x


def params_json(params) -> dict:
    return {k: jnum(v) for k, v in asdict(params).items()}


def write_csv(stream: IO[str], header: list[str], rows: list[list]) -> None:
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([fmt(c) for c in row])


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
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    elif fmt_name == "csv":
        if isinstance(obj, dict):
            header = list(obj.keys())
            rows = [[obj[k] for k in header]]
        else:
            header, rows = obj.csv_rows()
        write_csv(stream, header, rows)
    else:
        raise ValueError(f"unknown format {fmt_name!r}")
