"""Output bytes: the array-level conversion and the indent-2 JSON writer
against the per-element reference path of ``io_reference``."""

from __future__ import annotations

import enum
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yamada_delay import _io, cli

import io_reference

CASES = {
    "preset": ["preset"],
    "simulate": ["simulate", "--kappa", "0.1", "--tau", "10", "--t-end", "40", "--dt", "0.25"],
    "excite": ["excite", "--kappa", "0.01", "--tau", "100", "--horizon", "2000"],
    "sweep": ["sweep", "--kappa", "0.01", "--tau-start", "80", "--tau-stop", "100",
              "--tau-count", "2"],
    "spectrum-off": ["spectrum", "--kappa", "0.2", "--tau", "50"],
    "spectrum-q": ["spectrum", "--state", "q", "--kappa", "0.2", "--tau", "50"],
    "hopf": ["hopf", "--omega-count", "40"],
    "floquet": ["floquet", "--kappa", "0.1", "--tau", "30"],
    "acs": ["acs", "--kappa", "0.1", "--delta0", "2.85", "--k", "2", "--omega-count", "41"],
    "bounds": ["bounds", "--kappa", "0.5", "--tau", "100"],
    "scan-kappa": ["scan-kappa", "--tau", "100", "--kappa-lo", "0.004", "--kappa-hi", "0.02",
                   "--tol", "0.002"],
}


def payload(argv):
    """What the CLI hands to ``_io.dump`` for ``argv``."""
    args = cli.build_parser().parse_args(argv)
    return args._command.handler(cli._resolve(args))


def rendered(write, obj, fmt_name: str) -> str:
    buf = io.StringIO()
    write(obj, buf, fmt_name)
    return buf.getvalue()


@pytest.mark.parametrize("name", list(CASES))
def test_every_subcommand_writes_the_reference_bytes(name, tmp_path):
    obj = payload(CASES[name])
    for fmt_name in ("json", "csv"):
        new = rendered(_io.dump, obj, fmt_name)
        assert new == rendered(io_reference.dump, obj, fmt_name), fmt_name
    # and the command itself writes those bytes
    out = tmp_path / "out.json"
    assert cli.main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == rendered(io_reference.dump, obj, "json")


def test_non_finite_arrays_match_the_reference():
    values = [0.0, -0.0, 1.5, math.inf, -math.inf, math.nan, 1e-310, -2.5e300]
    reals = np.array(values)
    complexes = np.array([complex(a, b) for a in values for b in values[::-1]])
    assert _io.jlist(reals) == [io_reference.jnum(v) for v in reals]
    singles = reals[:6].astype(np.float32)
    assert _io.jlist(singles) == [io_reference.jnum(v) for v in singles]
    got = _io.jlist(complexes.reshape(8, 8))
    assert json.dumps(got) == json.dumps([[io_reference.jnum(z) for z in row]
                                          for row in complexes.reshape(8, 8)])
    assert _io.jlist(np.zeros((3, 0), dtype=complex)) == [[], [], []]


@pytest.mark.parametrize("x", [
    np.float32(0.1), np.float32(np.inf), np.float32(np.nan), np.float16(-np.inf),
    complex(math.inf, 1.0), complex(1.0, math.nan), np.complex64(complex(-math.inf, 2.0)),
    np.complex128(complex(3.0, -math.inf)), np.bool_(True), np.bool_(False), True,
    np.int64(-7), np.int32(2**31 - 1), np.uint8(200), 2**70, np.float64(-0.0), -0.0, 0.1,
    math.inf, -math.inf, math.nan, "text", None,
])
def test_jnum_matches_the_reference(x):
    new, old = _io.jnum(x), io_reference.jnum(x)
    assert json.dumps(new) == json.dumps(old)
    assert type(new) is type(old)


# ------------------------------------------------------------ the writer

scalars = (st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.floats()
           | st.floats().map(np.float64) | st.text())
keys = st.text()
like_keyed = st.lists(keys, min_size=1, max_size=4, unique=True).flatmap(
    lambda ks: st.lists(st.fixed_dictionaries({k: scalars for k in ks}), min_size=1, max_size=6))
float_lists = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1) | st.lists(
    st.floats(), min_size=1)
payloads = st.recursive(
    scalars | like_keyed | float_lists,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(keys, children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_writer_equals_stdlib_indent_2(obj):
    buf = io.StringIO()
    _io._write_json(obj, buf)
    assert buf.getvalue() == json.dumps(obj, indent=2) + "\n"


class Level(enum.IntEnum):
    HIGH = 1


@pytest.mark.parametrize("obj", [
    {"level": Level.HIGH, "levels": [Level.HIGH, 2]}, {}, [], {"a": {}}, {"a": []}, [[], {}], [{"%s": 1.0, "%%": "%d"}, {"%s": 2.0, "%%": "%"}],
    [{"a": 1.0, "b": 2}, {"b": 2, "a": 1.0}], [{"a": [1.0]}, {"a": [2.0]}],
    [{"a": 1.0}, {"a": 2.0}, 3.0], [1.0, 2, True], [math.nan, 1.0], {"é\n\"": "\x00 "},
])
def test_writer_edge_cases(obj):
    buf = io.StringIO()
    _io._write_json(obj, buf)
    assert buf.getvalue() == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", [
    {"a": np.int64(1)}, {"a": np.float32(1.0)}, {"a": [np.bool_(True)]}, {1: 2.0},
    [{"a": 1.0}, {"a": object()}], {"a": {2.0: 1}}, {"a": 1j},
])
def test_writer_rejects_what_json_cannot_write(obj):
    with pytest.raises(TypeError):
        _io._write_json(obj, io.StringIO())
