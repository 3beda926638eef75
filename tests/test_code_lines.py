"""The code-line counter in tools/ counts what it documents."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment


# a comment line
class Shape:
    """Class docstring."""

    def area(self):
        """Function docstring."""

        text = """a string
        that is code"""
        return math.pi
'''


def test_counts_tokens_but_not_docstrings_or_comments(tmp_path):
    # import, class, def, the two lines of the string, return
    (tmp_path / "shape.py").write_text(SOURCE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["empty", "0", "shape", "6", "total", "6"]
