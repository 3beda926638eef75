"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    # each block padded with blank lines, so a traceback names its README line
    text = README.read_text()
    return [
        "\n" * text.count("\n", 0, m.start(1)) + m.group(1)
        for m in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S)
    ]


BLOCKS = python_blocks()


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block-{i + 1}" for i in range(len(BLOCKS))])
def test_readme_example_runs(source):
    # a fresh namespace per block, as a reader pastes it
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
