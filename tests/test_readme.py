"""The README's examples, run as written.

Each ``python`` block runs in one namespace shared by all of them, and
the lines it prints must be its ``# `` comment lines.  Each ``sh`` block
that starts with ``$ yamada-delay`` runs through :func:`yamada_delay.cli.main`;
the output lines it shows must open the real output, and when it shows
no ``...`` they must be all of it.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from yamada_delay.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
PYTHON = [body for lang, body in BLOCKS if lang == "python"]
COMMANDS = [body for lang, body in BLOCKS if lang == "sh" and body.startswith("$ yamada-delay ")]


@pytest.fixture(scope="module")
def namespace():
    return {}


@pytest.mark.parametrize("body", PYTHON, ids=[f"python-{i}" for i in range(len(PYTHON))])
def test_python_example(namespace, body):
    shown = [line[2:] for line in body.splitlines() if line.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(body, str(README), "exec"), namespace)
    assert out.getvalue().splitlines() == shown


@pytest.mark.parametrize("body", COMMANDS, ids=[body.split()[2] for body in COMMANDS])
def test_command_example(capsys, body):
    command, *shown = body.splitlines()
    assert main(shlex.split(command)[2:]) == 0
    out = capsys.readouterr().out.splitlines()
    cut = [i for i, line in enumerate(shown) if line.strip() == "..."]
    if cut:
        shown = shown[:cut[0]]
        out = out[:len(shown)]
    assert out == shown
