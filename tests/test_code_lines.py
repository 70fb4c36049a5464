"""The counting rule of ``tools/code_lines.py``, the code-line count that
simplicity changes cite."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# Each line is marked by whether it counts: C counts, - does not.
_MODULE = '''\
"""Module docstring,
over two lines."""

import math  # a trailing comment leaves a code line

# a comment-only line
"""A string after the first statement is not a docstring."""


class Box:
    """Class docstring."""

    size = (
        1,
        2,
    )

    def area(self):
        """Function
        docstring."""
        note = """an assigned string,
        on two lines"""
        return math.pi


async def wait():
    """Async function docstring."""
    return None
'''
_MARKS = "---C--C--C--CCCC-C--CCC--C-C"


def test_counts_the_lines_the_rule_names():
    assert len(_MARKS) == len(_MODULE.splitlines())
    assert code_lines.code_lines(_MODULE) == _MARKS.count("C") == 13


@pytest.mark.parametrize(
    ("source", "count"),
    [
        ("", 0),
        ("\n\n# only a comment\n", 0),
        ('"""Only a docstring."""\n', 0),
        ('x = 1\n"""Not a docstring: it follows code."""\n', 2),
        ("def f():\n    return (\n        1\n    )\n", 4),
        ("def f():\n    'single-quoted docstring'\n    return 1\n", 2),
    ],
)
def test_small_sources(source, count):
    assert code_lines.code_lines(source) == count


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "alpha.py").write_text(_MODULE, encoding="utf-8")
    (tmp_path / "beta.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["alpha", "13"], ["beta", "2"], ["total", "15"]]


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_ends_it_quietly(unbuffered):
    # as under ``| head -3``: the reader is gone before the first line. A
    # pipe is block-buffered unless PYTHONUNBUFFERED is set; then nothing is
    # written until the flush after main() returns
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, str(_PATH)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert run.stderr == b""
    assert run.returncode == 1
