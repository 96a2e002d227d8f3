"""tools/code_lines.py, which gives the code-line figures in ROADMAP.md."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

# a comment-only line
import os  # a trailing comment does not hide the code


class Box:
    """Class docstring."""

    def area(self, w,
             h):
        """Function docstring,
        over two lines."""

        size = (w *
                h)
        "a string statement that is not first"
        return size


def f():
    return """a returned string,
over two lines"""
'''


@pytest.mark.parametrize("source, expected", [
    ('"""Module docstring."""\n', 0),
    ("class A:\n    'Class docstring.'\n", 1),
    ("def f():\n    '''Function\n    docstring.'''\n", 1),
    ("\n# comment\n   \n    # indented comment\n", 0),
    ("x = (1 +\n     2 +\n     3)\n", 3),
    ("x = 1\n'not a docstring'\n", 2),
    ("def f():\n    pass\n    'not first either'\n", 3),
    (SNIPPET, 11),  # lines 5, 8, 11-12, 16-19 and 22-24
])
def test_code_lines_counts_only_code(source, expected):
    assert code_lines.code_lines(source) == expected
