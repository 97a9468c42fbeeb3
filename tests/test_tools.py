"""The repository's own tools."""

import pathlib
import runpy

ROOT = pathlib.Path(__file__).resolve().parents[1]
code_lines = runpy.run_path(str(ROOT / "tools" / "code_lines.py"))["code_lines"]

SOURCE = '''"""Module docstring,
over two lines."""

import math


class Box:
    """Class docstring."""

    def area(self, w,
             h):
        """Function docstring;
        a string below is code."""
        # a comment
        label = """not a
        docstring"""
        return max(w * h,
                   math.pi)  # a trailing comment
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # import, class and two lines each of def, label's string and
    # return: docstrings, comments and blank lines do not count
    assert code_lines(SOURCE) == 8
